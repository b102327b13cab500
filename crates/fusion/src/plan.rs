//! Fusion-plan construction (paper §4.2).
//!
//! Three operating points, matching the paper's Fig. 7 comparison:
//!
//! - [`FusionPolicy::None`] — every operator is its own group,
//! - [`FusionPolicy::Static`] — DNNFusion-style fusion using only *fully
//!   known* shapes ("SFusion"); dynamic tensors block fusion,
//! - [`FusionPolicy::Rdp`] — RDP-enabled fusion: symbolic shape equality
//!   and statically resolved broadcasts legalize fusion, and ambiguous
//!   broadcast dimensions are tolerated up to a bounded number of generated
//!   code versions (the paper's `2^k` versions, §4.2's "8 versions"
//!   example).

use crate::mapping::{mapping_type, MappingType};
use sod2_ir::{Graph, NodeId, TensorId};
use sod2_rdp::RdpResult;
use sod2_sym::{DimValue, ShapeValue};
use std::collections::{HashMap, HashSet};

/// Maximum code versions a single fused group may require before fusion is
/// rejected (the paper's example generates 8 for a fully ambiguous rank-3
/// broadcast).
pub const MAX_VERSIONS: usize = 8;

/// Maximum operators per fused group.
pub const MAX_GROUP_SIZE: usize = 24;

/// Which legality rules the fusion pass may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionPolicy {
    /// No fusion at all (the "Original" baseline).
    None,
    /// Static fusion only: requires fully known shapes.
    Static,
    /// RDP-enabled fusion: symbolic equality + bounded multi-versioning.
    Rdp,
}

/// Outcome of testing one producer→consumer edge for fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeFuse {
    No,
    /// Fusable; factor = number of code versions this edge contributes.
    Yes(usize),
}

/// A fused group of operators executed as one kernel.
#[derive(Debug, Clone)]
pub struct FusionGroup {
    /// Member nodes in topological order.
    pub nodes: Vec<NodeId>,
    /// Number of code versions that must be generated for this group.
    pub num_versions: usize,
}

/// A complete fusion plan for a graph.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    /// The groups, in topological order of their first member.
    pub groups: Vec<FusionGroup>,
    group_of: HashMap<NodeId, usize>,
}

impl FusionPlan {
    /// Rebuilds a plan from raw groups. The node→group map is derived; on
    /// duplicate membership the later group wins. Intended for plan
    /// verification tooling and tests — [`fuse`] is the production path.
    pub fn from_groups(groups: Vec<FusionGroup>) -> FusionPlan {
        let mut group_of = HashMap::new();
        for (g, group) in groups.iter().enumerate() {
            for &n in &group.nodes {
                group_of.insert(n, g);
            }
        }
        FusionPlan { groups, group_of }
    }

    /// Number of fused layers (groups) — Fig. 7(a)'s metric.
    pub fn layer_count(&self) -> usize {
        self.groups.len()
    }

    /// Group index of a node.
    pub fn group_of(&self, node: NodeId) -> usize {
        self.group_of[&node]
    }

    /// Total code versions across all groups.
    pub fn total_versions(&self) -> usize {
        self.groups.iter().map(|g| g.num_versions).sum()
    }

    /// Tensors that are *fused away*: produced and consumed entirely inside
    /// one group and not graph outputs. These are never materialized —
    /// Fig. 7(b)'s intermediate-result-size reduction.
    pub fn internal_tensors(&self, graph: &Graph) -> HashSet<TensorId> {
        let mut internal = HashSet::new();
        for t in graph.tensor_ids() {
            let Some(producer) = graph.producer(t) else {
                continue;
            };
            if graph.outputs().contains(&t) {
                continue;
            }
            let g = self.group_of[&producer];
            let mut cs = graph.uses(t).peekable();
            if cs.peek().is_some() && cs.all(|c| self.group_of[&c] == g) {
                internal.insert(t);
            }
        }
        internal
    }
}

/// Builds a fusion plan under a policy.
pub fn fuse(graph: &Graph, rdp: &RdpResult, policy: FusionPolicy) -> FusionPlan {
    let order = graph.topo_order();
    let mut group_of: HashMap<NodeId, usize> = HashMap::new();
    let mut groups: Vec<FusionGroup> = Vec::new();
    // Group-level predecessor sets, maintained incrementally to prevent
    // fusion from creating cycles among groups (the classic fusion
    // legality hazard: merging a node into group G while another of its
    // inputs transitively depends on G).
    let mut group_preds: Vec<HashSet<usize>> = Vec::new();

    for &nid in &order {
        let node = graph.node(nid);
        let mut merged = false;
        if policy != FusionPolicy::None {
            // Try to merge into the group of a producer along a fusable edge.
            for &input in &node.inputs {
                let Some(pid) = graph.producer(input) else {
                    continue;
                };
                let gidx = group_of[&pid];
                if groups[gidx].nodes.len() >= MAX_GROUP_SIZE {
                    continue;
                }
                // The fused edge must be single-consumer (otherwise the
                // tensor must materialize anyway).
                if graph.uses(input).nth(1).is_some() {
                    continue;
                }
                // Multi-output producers (TopK, Switch) never fuse across.
                if graph.node(pid).op.num_outputs() != 1 {
                    continue;
                }
                // Cycle check: every *other* input's producer group must
                // not transitively depend on the candidate group.
                if creates_cycle(graph, &group_of, &group_preds, node, gidx) {
                    continue;
                }
                match try_fuse_into(graph, rdp, policy, &groups[gidx], node, input) {
                    EdgeFuse::Yes(factor) => {
                        let new_versions = groups[gidx].num_versions.saturating_mul(factor);
                        if new_versions > MAX_VERSIONS {
                            continue;
                        }
                        groups[gidx].nodes.push(nid);
                        groups[gidx].num_versions = new_versions;
                        group_of.insert(nid, gidx);
                        merged = true;
                        break;
                    }
                    EdgeFuse::No => {}
                }
            }
        }
        if !merged {
            group_of.insert(nid, groups.len());
            groups.push(FusionGroup {
                nodes: vec![nid],
                num_versions: 1,
            });
            group_preds.push(HashSet::new());
        }
        // Record the group-level dependencies this node introduces.
        let gid = group_of[&nid];
        for &input in &node.inputs {
            if let Some(pid) = graph.producer(input) {
                let pg = group_of[&pid];
                if pg != gid {
                    group_preds[gid].insert(pg);
                }
            }
        }
    }
    FusionPlan { groups, group_of }
}

/// Would adding `node` to group `g` close a cycle? True when any of the
/// node's input groups other than `g` has `g` among its ancestors.
fn creates_cycle(
    graph: &Graph,
    group_of: &HashMap<NodeId, usize>,
    group_preds: &[HashSet<usize>],
    node: &sod2_ir::Node,
    g: usize,
) -> bool {
    for &input in &node.inputs {
        let Some(pid) = graph.producer(input) else {
            continue;
        };
        let pg = group_of[&pid];
        if pg == g {
            continue;
        }
        // DFS over ancestors of pg looking for g.
        let mut stack = vec![pg];
        let mut seen = HashSet::new();
        while let Some(cur) = stack.pop() {
            if cur == g {
                return true;
            }
            if seen.insert(cur) {
                stack.extend(group_preds[cur].iter().copied());
            }
        }
    }
    false
}

/// Tests whether `node` may join `group` through the edge carrying
/// `edge_tensor`.
fn try_fuse_into(
    graph: &Graph,
    rdp: &RdpResult,
    policy: FusionPolicy,
    group: &FusionGroup,
    node: &sod2_ir::Node,
    edge_tensor: TensorId,
) -> EdgeFuse {
    let mt = mapping_type(&node.op);
    if mt == MappingType::Opaque {
        return EdgeFuse::No;
    }
    // At most one many-to-many anchor per group.
    if mt == MappingType::ManyToMany {
        let has_anchor = group
            .nodes
            .iter()
            .any(|&m| mapping_type(&graph.node(m).op) == MappingType::ManyToMany);
        if has_anchor {
            return EdgeFuse::No;
        }
        // Heavy ops only absorb a *prologue* of view ops in this design;
        // fusing a heavy op after element-wise work would force the
        // element-wise results to be recomputed per output element.
        let all_views = group
            .nodes
            .iter()
            .all(|&m| mapping_type(&graph.node(m).op) == MappingType::Reorganize);
        if !all_views {
            return EdgeFuse::No;
        }
    }
    // Shape legality of the edge tensor itself.
    if !shape_resolved(rdp.shape(edge_tensor), policy) {
        return EdgeFuse::No;
    }
    match mt {
        MappingType::OneToOne => {
            // Each *broadcasting* input must unify against the output in a
            // statically resolved way (or cost extra versions). Per-axis
            // parameter inputs (BatchNorm's scale/bias/mean/var) follow the
            // operator's own indexing, not NumPy alignment, and are always
            // fusable.
            let mut factor = 1usize;
            let out_shape = rdp.shape(node.outputs[0]);
            if !shape_resolved(out_shape, policy) {
                return EdgeFuse::No;
            }
            for &i in broadcasting_inputs(&node.op) {
                let other = node.inputs[i];
                if other == edge_tensor {
                    continue;
                }
                match broadcast_versions(rdp.shape(other), out_shape, policy) {
                    Some(k) => factor = factor.saturating_mul(k),
                    None => return EdgeFuse::No,
                }
            }
            EdgeFuse::Yes(factor)
        }
        MappingType::Reorganize => {
            // View fusion requires fully resolved in/out shapes.
            if shape_resolved(rdp.shape(node.outputs[0]), policy) {
                EdgeFuse::Yes(1)
            } else {
                EdgeFuse::No
            }
        }
        MappingType::ManyToMany => {
            if shape_resolved(rdp.shape(node.outputs[0]), policy) {
                EdgeFuse::Yes(1)
            } else {
                EdgeFuse::No
            }
        }
        MappingType::Opaque => EdgeFuse::No,
    }
}

/// Input indices that participate in NumPy broadcasting for an element-wise
/// operator (the rest are per-axis parameters with operator-defined
/// indexing).
fn broadcasting_inputs(op: &sod2_ir::Op) -> &'static [usize] {
    match op {
        sod2_ir::Op::Binary(_) | sod2_ir::Op::Compare(_) => &[0, 1],
        sod2_ir::Op::Where => &[0, 1, 2],
        _ => &[0],
    }
}

/// Is this shape resolved enough for the policy?
fn shape_resolved(s: &ShapeValue, policy: FusionPolicy) -> bool {
    match policy {
        FusionPolicy::None => false,
        FusionPolicy::Static => s.is_fully_known(),
        FusionPolicy::Rdp => s.is_fully_symbolic(),
    }
}

/// Number of code versions needed to fuse an input of shape `input` into a
/// kernel producing `out` (`Some(1)` = unambiguous, `None` = not fusable).
///
/// Implements the paper's Fig. 4 counting: each aligned dimension pair that
/// RDP cannot resolve to "equal" or "constant 1" doubles the versions.
fn broadcast_versions(input: &ShapeValue, out: &ShapeValue, policy: FusionPolicy) -> Option<usize> {
    let (id, od) = match (input.dims(), out.dims()) {
        (Some(i), Some(o)) => (i, o),
        _ => return None,
    };
    if id.len() > od.len() {
        return None;
    }
    let mut versions = 1usize;
    for i in 0..id.len() {
        let a = &id[id.len() - 1 - i];
        let b = &od[od.len() - 1 - i];
        match (a, b) {
            (DimValue::Expr(x), DimValue::Expr(y)) => {
                if x == y || x.as_const() == Some(1) {
                    continue;
                }
                match (x.as_const(), y.as_const()) {
                    (Some(_), Some(_)) => {} // both known, resolved
                    _ => {
                        // Ambiguous broadcast: needs the 1-vs-equal split.
                        if policy == FusionPolicy::Static {
                            return None;
                        }
                        versions = versions.saturating_mul(2);
                    }
                }
            }
            _ => return None,
        }
    }
    Some(versions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_ir::{BinaryOp, ConstData, DType, Op, Spatial2d, UnaryOp};
    use sod2_rdp::analyze;
    use sod2_sym::DimExpr;

    /// conv → relu → add(residual) with a static shape fuses into one group
    /// under both policies.
    fn conv_block(dynamic: bool) -> (Graph, usize) {
        let mut g = Graph::new();
        let h: DimExpr = if dynamic { DimExpr::sym("H") } else { 8.into() };
        let x = g.add_input("x", DType::F32, vec![1.into(), 4.into(), h.clone(), h]);
        let w = g.add_const("w", &[4, 4, 3, 3], ConstData::F32(vec![0.0; 4 * 4 * 9]));
        let c = g.add_simple(
            "conv",
            Op::Conv2d {
                spatial: Spatial2d::same(3),
                groups: 1,
            },
            &[x, w],
            DType::F32,
        );
        let r = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[c], DType::F32);
        let a = g.add_simple("add", Op::Binary(BinaryOp::Add), &[r, x], DType::F32);
        g.mark_output(a);
        (g, 3)
    }

    #[test]
    fn static_shapes_fuse_under_both_policies() {
        let (g, n) = conv_block(false);
        let rdp = analyze(&g);
        let none = fuse(&g, &rdp, FusionPolicy::None);
        assert_eq!(none.layer_count(), n);
        let s = fuse(&g, &rdp, FusionPolicy::Static);
        assert_eq!(s.layer_count(), 1);
        let r = fuse(&g, &rdp, FusionPolicy::Rdp);
        assert_eq!(r.layer_count(), 1);
    }

    #[test]
    fn dynamic_shapes_fuse_only_with_rdp() {
        let (g, n) = conv_block(true);
        let rdp = analyze(&g);
        let s = fuse(&g, &rdp, FusionPolicy::Static);
        assert_eq!(s.layer_count(), n, "static fusion must give up");
        let r = fuse(&g, &rdp, FusionPolicy::Rdp);
        assert_eq!(r.layer_count(), 1, "RDP fusion sees symbolic equality");
        assert_eq!(r.groups[0].num_versions, 1);
    }

    #[test]
    fn ambiguous_broadcast_costs_versions() {
        // sigmoid(a[n, m]) + b[p, q] where nothing relates (n,m) to (p,q):
        // RDP yields Max() broadcast dims; 2 ambiguous dims → 4 versions.
        let mut g = Graph::new();
        let a = g.add_input("a", DType::F32, vec![DimExpr::sym("n"), DimExpr::sym("m")]);
        let b = g.add_input("b", DType::F32, vec![DimExpr::sym("p"), DimExpr::sym("q")]);
        let s = g.add_simple("sig", Op::Unary(UnaryOp::Sigmoid), &[a], DType::F32);
        let y = g.add_simple("add", Op::Binary(BinaryOp::Add), &[s, b], DType::F32);
        g.mark_output(y);
        let rdp = analyze(&g);
        let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
        // sigmoid+add fuse with 4 versions (2 ambiguous dims).
        assert_eq!(plan.layer_count(), 1);
        assert_eq!(plan.groups[0].num_versions, 4);
    }

    #[test]
    fn fig4_example_single_version_with_rdp() {
        // Paper Fig. 4: A[I', J', K'] where RDP proves I'=I, J'=1, K'=1.
        // Model: A = x[I, 1, 1] (annotation shares the symbol), B = y[I,J,K].
        let mut g = Graph::new();
        let a = g.add_input("a", DType::F32, vec![DimExpr::sym("I"), 1.into(), 1.into()]);
        let b = g.add_input(
            "b",
            DType::F32,
            vec![DimExpr::sym("I"), DimExpr::sym("J"), DimExpr::sym("K")],
        );
        let s = g.add_simple("sig", Op::Unary(UnaryOp::Sigmoid), &[a], DType::F32);
        let y = g.add_simple("add", Op::Binary(BinaryOp::Add), &[s, b], DType::F32);
        g.mark_output(y);
        let rdp = analyze(&g);
        let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
        assert_eq!(plan.layer_count(), 1);
        assert_eq!(plan.groups[0].num_versions, 1, "unique fused version");
    }

    #[test]
    fn multi_consumer_edges_materialize() {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![4.into()]);
        let r = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
        // r has two consumers → must materialize; neither fuses with it.
        let a = g.add_simple("a", Op::Unary(UnaryOp::Sigmoid), &[r], DType::F32);
        let b = g.add_simple("b", Op::Unary(UnaryOp::Tanh), &[r], DType::F32);
        let y = g.add_simple("add", Op::Binary(BinaryOp::Add), &[a, b], DType::F32);
        g.mark_output(y);
        let rdp = analyze(&g);
        let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
        assert!(plan.layer_count() >= 3);
        let internal = plan.internal_tensors(&g);
        assert!(!internal.contains(&r));
    }

    #[test]
    fn internal_tensors_counted() {
        let (g, _) = conv_block(false);
        let rdp = analyze(&g);
        let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
        let internal = plan.internal_tensors(&g);
        // conv.out and relu.out fused away; add.out is the graph output.
        assert_eq!(internal.len(), 2);
    }

    #[test]
    fn nac_blocks_fusion() {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![DimExpr::sym("n")]);
        let nz = g.add_simple("nz", Op::NonZero, &[x], DType::I64);
        let c = g.add_simple("cast", Op::Cast { to: DType::F32 }, &[nz], DType::F32);
        let r = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[c], DType::F32);
        g.mark_output(r);
        let rdp = analyze(&g);
        let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
        // NonZero output has a nac dim: nothing fuses through it.
        assert_eq!(plan.layer_count(), 3);
    }
}
