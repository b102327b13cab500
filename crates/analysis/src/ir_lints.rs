//! Extended IR lints over the extended computational graph.
//!
//! These go beyond `sod2_ir::validate` (which stops at the first structural
//! defect): all findings are collected, and semantic lints — dtype
//! inference and mismatch, dead code, `<Switch, Combine>` pairing — run on
//! top of the structural ones. Lints never panic on malformed graphs: the
//! structural pass runs first and, if it errors, the semantic pass (which
//! assumes indexable tensors and an acyclic graph) is skipped.

use crate::diag::{Anchor, Diagnostic};
use sod2_ir::{DType, Graph, Node, NodeId, Op, TensorId};
use std::collections::{HashSet, VecDeque};

/// A registered lint pass.
pub struct Lint {
    /// The diagnostic code this lint emits.
    pub code: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// `true` when the lint requires a structurally sound graph.
    pub needs_structure: bool,
    run: fn(&Graph) -> Vec<Diagnostic>,
}

impl Lint {
    /// Runs the lint over a graph.
    pub fn run(&self, graph: &Graph) -> Vec<Diagnostic> {
        (self.run)(graph)
    }
}

/// All registered IR lints, structural passes first.
pub fn registry() -> Vec<Lint> {
    vec![
        Lint {
            code: "ir/structure",
            summary: "outputs exist, tensor references resolve, arities hold",
            needs_structure: false,
            run: lint_structure,
        },
        Lint {
            code: "ir/cycle",
            summary: "the node dependency graph is acyclic",
            needs_structure: false,
            run: lint_cycles,
        },
        Lint {
            code: "ir/dtype-mismatch",
            summary: "declared output dtypes match operator inference",
            needs_structure: true,
            run: lint_dtypes,
        },
        Lint {
            code: "ir/operand-dtype",
            summary: "shape/index/selector operands carry the required dtype",
            needs_structure: true,
            run: lint_operand_dtypes,
        },
        Lint {
            code: "ir/dead-node",
            summary: "every node contributes to a graph output",
            needs_structure: true,
            run: lint_dead_nodes,
        },
        Lint {
            code: "ir/switch-pairing",
            summary: "Switch branches merge into Combine; Combine has a Switch",
            needs_structure: true,
            run: lint_switch_pairing,
        },
    ]
}

/// Runs every registered lint; semantic lints are skipped when the
/// structural ones report errors (they assume an indexable, acyclic graph).
pub fn lint_graph(graph: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut structure_ok = true;
    for lint in registry() {
        if lint.needs_structure && !structure_ok {
            continue;
        }
        let findings = lint.run(graph);
        if !lint.needs_structure
            && findings
                .iter()
                .any(|d| d.severity == crate::Severity::Error)
        {
            structure_ok = false;
        }
        out.extend(findings);
    }
    out
}

fn tensor_in_range(graph: &Graph, t: TensorId) -> bool {
    (t.0 as usize) < graph.num_tensors()
}

/// Structural soundness: outputs exist, references resolve, arities hold.
fn lint_structure(graph: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if graph.outputs().is_empty() {
        out.push(Diagnostic::error(
            "ir/structure",
            Anchor::Graph,
            "graph has no outputs",
        ));
    }
    for n in graph.nodes() {
        for &t in n.inputs.iter().chain(n.outputs.iter()) {
            if !tensor_in_range(graph, t) {
                out.push(Diagnostic::error(
                    "ir/structure",
                    Anchor::Node(n.id),
                    format!("references nonexistent tensor {t}"),
                ));
            }
        }
        if out
            .iter()
            .any(|d| matches!(d.anchor, Anchor::Node(id) if id == n.id))
        {
            continue; // dangling refs make the remaining checks index OOB
        }
        for &t in &n.inputs {
            if graph.producer(t).is_none()
                && !graph.tensor(t).is_const()
                && !graph.inputs().contains(&t)
            {
                out.push(Diagnostic::error(
                    "ir/structure",
                    Anchor::Node(n.id),
                    format!("consumes {t} which has no producer and is not an input/constant"),
                ));
            }
        }
        if !n.op.input_arity().accepts(n.inputs.len()) {
            let a = n.op.input_arity();
            out.push(Diagnostic::error(
                "ir/structure",
                Anchor::Node(n.id),
                format!(
                    "{} takes {}..={} inputs, got {}",
                    n.op.mnemonic(),
                    a.min,
                    a.max,
                    n.inputs.len()
                ),
            ));
        }
        if n.op.num_outputs() != n.outputs.len() {
            out.push(Diagnostic::error(
                "ir/structure",
                Anchor::Node(n.id),
                format!(
                    "{} produces {} outputs, got {}",
                    n.op.mnemonic(),
                    n.op.num_outputs(),
                    n.outputs.len()
                ),
            ));
        }
    }
    for &t in graph.outputs() {
        if !tensor_in_range(graph, t) {
            out.push(Diagnostic::error(
                "ir/structure",
                Anchor::Tensor(t),
                "graph output tensor does not exist",
            ));
        } else if graph.producer(t).is_none()
            && !graph.tensor(t).is_const()
            && !graph.inputs().contains(&t)
        {
            out.push(Diagnostic::error(
                "ir/structure",
                Anchor::Tensor(t),
                "graph output is never produced",
            ));
        }
    }
    out
}

/// Cycle detection over node dependencies (Kahn's algorithm — unlike
/// `Graph::topo_order`, this reports instead of panicking).
fn lint_cycles(graph: &Graph) -> Vec<Diagnostic> {
    let n = graph.num_nodes();
    let mut in_deg = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for node in graph.nodes() {
        for &t in &node.inputs {
            if !tensor_in_range(graph, t) {
                continue;
            }
            if let Some(p) = graph.producer(t) {
                if p != node.id {
                    succs[p.0 as usize].push(node.id.0 as usize);
                    in_deg[node.id.0 as usize] += 1;
                } else {
                    // Self-loop: trivially a cycle; count it so the node
                    // never becomes ready.
                    in_deg[node.id.0 as usize] += 1;
                }
            }
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| in_deg[i] == 0).collect();
    let mut done = 0usize;
    while let Some(i) = queue.pop_front() {
        done += 1;
        for &s in &succs[i] {
            in_deg[s] -= 1;
            if in_deg[s] == 0 {
                queue.push_back(s);
            }
        }
    }
    if done == n {
        return Vec::new();
    }
    (0..n)
        .filter(|&i| in_deg[i] > 0)
        .take(4)
        .map(|i| {
            Diagnostic::error(
                "ir/cycle",
                Anchor::Node(NodeId(i as u32)),
                "node participates in a dependency cycle",
            )
        })
        .collect()
}

/// The dtype each output should carry, inferred from the operator and its
/// input dtypes. `None` means "no opinion".
fn expected_output_dtypes(graph: &Graph, node: &Node) -> Vec<Option<DType>> {
    let in_dtype = |i: usize| node.inputs.get(i).map(|&t| graph.tensor(t).dtype);
    let k = node.outputs.len();
    match &node.op {
        Op::Shape
        | Op::Size
        | Op::ArgMax { .. }
        | Op::NonZero
        | Op::NonMaxSuppression { .. }
        | Op::Range => vec![Some(DType::I64); k],
        Op::Compare(_) => vec![Some(DType::Bool); k],
        Op::Cast { to } => vec![Some(*to); k],
        Op::TopK { .. } => vec![in_dtype(0), Some(DType::I64)],
        Op::Where => vec![in_dtype(1); k],
        // Fill ops and one-hot may legally target any element type.
        Op::ConstantOfShape { .. } | Op::EyeLike | Op::OneHot => vec![None; k],
        // Everything else propagates the primary operand's dtype.
        _ => vec![in_dtype(0); k],
    }
}

/// Output dtype inference vs. declaration.
fn lint_dtypes(graph: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for n in graph.nodes() {
        let expected = expected_output_dtypes(graph, n);
        for (k, (&t, exp)) in n.outputs.iter().zip(&expected).enumerate() {
            let Some(exp) = exp else { continue };
            let got = graph.tensor(t).dtype;
            if got != *exp {
                out.push(Diagnostic::error(
                    "ir/dtype-mismatch",
                    Anchor::Tensor(t),
                    format!(
                        "{} output {k} inferred as {exp:?} but declared {got:?}",
                        n.op.mnemonic()
                    ),
                ));
            }
        }
        // Combine branches must agree with each other.
        if let Op::Combine { num_branches } = &n.op {
            let branch_dtypes: HashSet<DType> = n.inputs[..*num_branches]
                .iter()
                .map(|&t| graph.tensor(t).dtype)
                .collect();
            if branch_dtypes.len() > 1 {
                out.push(Diagnostic::error(
                    "ir/dtype-mismatch",
                    Anchor::Node(n.id),
                    format!("Combine branch inputs disagree on dtype: {branch_dtypes:?}"),
                ));
            }
        }
    }
    out
}

/// `(input index, required dtype)` pairs for shape/index/selector operands.
fn required_input_dtypes(op: &Op) -> Vec<(usize, DType)> {
    match op {
        Op::Reshape | Op::Expand | Op::Tile | Op::Resize => vec![(1, DType::I64)],
        Op::SliceDyn => vec![(1, DType::I64), (2, DType::I64)],
        Op::TopK { .. } | Op::Gather { .. } => vec![(1, DType::I64)],
        Op::OneHot => vec![(0, DType::I64), (1, DType::I64)],
        Op::Range => vec![(0, DType::I64), (1, DType::I64), (2, DType::I64)],
        Op::ConstantOfShape { .. } => vec![(0, DType::I64)],
        Op::Where => vec![(0, DType::Bool)],
        Op::Switch { .. } => vec![(1, DType::I64)],
        Op::Combine { num_branches } => vec![(*num_branches, DType::I64)],
        _ => Vec::new(),
    }
}

/// Shape/index/selector operands must carry the dtype the kernel reads.
fn lint_operand_dtypes(graph: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for n in graph.nodes() {
        for (i, req) in required_input_dtypes(&n.op) {
            let Some(&t) = n.inputs.get(i) else { continue };
            let got = graph.tensor(t).dtype;
            if got != req {
                out.push(Diagnostic::error(
                    "ir/operand-dtype",
                    Anchor::Node(n.id),
                    format!("{} input {i} must be {req:?}, got {got:?}", n.op.mnemonic()),
                ));
            }
        }
    }
    out
}

/// Backward reachability from the graph outputs: the set of live nodes.
fn live_nodes(graph: &Graph) -> HashSet<NodeId> {
    let mut live = HashSet::new();
    let mut needed: Vec<TensorId> = graph.outputs().to_vec();
    let mut seen: HashSet<TensorId> = needed.iter().copied().collect();
    while let Some(t) = needed.pop() {
        let Some(p) = graph.producer(t) else { continue };
        if live.insert(p) {
            for &inp in &graph.node(p).inputs {
                if seen.insert(inp) {
                    needed.push(inp);
                }
            }
        }
    }
    live
}

/// Dead nodes (no path to any output) and unused individual outputs.
fn lint_dead_nodes(graph: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let live = live_nodes(graph);
    for n in graph.nodes() {
        if !live.contains(&n.id) {
            out.push(Diagnostic::warning(
                "ir/dead-node",
                Anchor::Node(n.id),
                "no graph output depends on this node",
            ));
            continue;
        }
        for (k, &t) in n.outputs.iter().enumerate() {
            let unconsumed = graph.uses(t).next().is_none();
            if unconsumed && !graph.outputs().contains(&t) {
                out.push(Diagnostic::warning(
                    "ir/unused-output",
                    Anchor::Tensor(t),
                    format!("{} output {k} is never consumed", n.op.mnemonic()),
                ));
            }
        }
    }
    out
}

/// `<Switch, Combine>` pairing: every Switch branch must eventually merge
/// (reach a Combine) or surface as a graph output, and every Combine must
/// be gated by an upstream Switch.
fn lint_switch_pairing(graph: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for n in graph.nodes() {
        match &n.op {
            Op::Switch { .. } => {
                for (k, &branch) in n.outputs.iter().enumerate() {
                    if !forward_reaches_combine(graph, branch) {
                        out.push(Diagnostic::warning(
                            "ir/switch-pairing",
                            Anchor::Node(n.id),
                            format!("branch {k} never reaches a Combine or graph output"),
                        ));
                    }
                }
            }
            Op::Combine { num_branches } => {
                if n.inputs.len() != num_branches + 1 {
                    out.push(Diagnostic::error(
                        "ir/switch-pairing",
                        Anchor::Node(n.id),
                        format!(
                            "Combine with {num_branches} branches needs {} inputs, got {}",
                            num_branches + 1,
                            n.inputs.len()
                        ),
                    ));
                    continue;
                }
                let gated = n.inputs[..*num_branches]
                    .iter()
                    .any(|&t| backward_reaches_switch(graph, t));
                if !gated {
                    out.push(Diagnostic::warning(
                        "ir/switch-pairing",
                        Anchor::Node(n.id),
                        "no branch input is gated by an upstream Switch",
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

fn forward_reaches_combine(graph: &Graph, from: TensorId) -> bool {
    let mut queue = vec![from];
    let mut seen: HashSet<TensorId> = queue.iter().copied().collect();
    while let Some(t) = queue.pop() {
        if graph.outputs().contains(&t) {
            return true;
        }
        for c in graph.uses(t) {
            let node = graph.node(c);
            if matches!(node.op, Op::Combine { .. }) {
                return true;
            }
            for &o in &node.outputs {
                if seen.insert(o) {
                    queue.push(o);
                }
            }
        }
    }
    false
}

fn backward_reaches_switch(graph: &Graph, from: TensorId) -> bool {
    let mut queue = vec![from];
    let mut seen: HashSet<TensorId> = queue.iter().copied().collect();
    while let Some(t) = queue.pop() {
        let Some(p) = graph.producer(t) else { continue };
        let node = graph.node(p);
        if matches!(node.op, Op::Switch { .. }) {
            return true;
        }
        for &inp in &node.inputs {
            if seen.insert(inp) {
                queue.push(inp);
            }
        }
    }
    false
}
