//! The extended computational graph (paper §4.1's *G*).
//!
//! A [`Graph`] is a DAG of operator [`Node`]s connected through tensors.
//! Graph *inputs* may carry symbolic shape annotations (the source of
//! symbolic constants in RDP); *constants* carry payload data. The graph is
//! "extended" in the paper's sense: it may contain the `<Switch, Combine>`
//! control-flow pair, making it equivalent to a control-flow graph over
//! operators.

use crate::dtype::{ConstData, DType};
use crate::op::Op;
use sod2_sym::{DimExpr, ShapeValue};
use std::fmt;

/// Identifier of a tensor (SSA value) in a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub u32);

/// Identifier of an operator node in a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Metadata for one tensor in the graph.
#[derive(Debug, Clone)]
pub struct TensorInfo {
    /// Human-readable name.
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Static shape annotation. Graph inputs use symbolic dims for dynamic
    /// axes; intermediates usually start as `Undef` and are filled by RDP.
    pub shape: ShapeValue,
    /// Constant payload, if this tensor is a graph constant.
    pub const_data: Option<ConstData>,
}

impl TensorInfo {
    /// `true` if this tensor is a graph constant (has payload data).
    pub fn is_const(&self) -> bool {
        self.const_data.is_some()
    }
}

/// One operator application.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// The operator and its attributes.
    pub op: Op,
    /// Input tensors, in operator-defined order.
    pub inputs: Vec<TensorId>,
    /// Output tensors.
    pub outputs: Vec<TensorId>,
    /// Human-readable name (layer name).
    pub name: String,
}

/// The extended computational graph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    tensors: Vec<TensorInfo>,
    inputs: Vec<TensorId>,
    outputs: Vec<TensorId>,
    /// producer[tensor] = node producing it (None for inputs/constants).
    producer: Vec<Option<NodeId>>,
    /// Use lists, stored flat: one entry per node input occurrence in
    /// insertion (= node) order, each tensor's entries chained from
    /// `first_use[tensor]` through [`Use::next`] to `last_use[tensor]`.
    /// Appending a node is O(its inputs), and walking a tensor's uses is
    /// O(its uses), without a per-query index rebuild.
    use_entries: Vec<Use>,
    first_use: Vec<u32>,
    last_use: Vec<u32>,
}

/// One input occurrence in [`Graph`]'s flat use lists.
#[derive(Debug, Clone, Copy)]
struct Use {
    node: NodeId,
    /// Index of the same tensor's next use, or [`NO_USE`].
    next: u32,
}

/// End-of-chain marker in [`Graph`]'s use lists.
const NO_USE: u32 = u32::MAX;

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// All nodes in insertion order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of tensors.
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// Tensor metadata lookup.
    pub fn tensor(&self, id: TensorId) -> &TensorInfo {
        &self.tensors[id.0 as usize]
    }

    /// Mutable tensor metadata lookup.
    pub fn tensor_mut(&mut self, id: TensorId) -> &mut TensorInfo {
        &mut self.tensors[id.0 as usize]
    }

    /// All tensor ids.
    pub fn tensor_ids(&self) -> impl Iterator<Item = TensorId> + '_ {
        (0..self.tensors.len() as u32).map(TensorId)
    }

    /// Graph input tensors (excludes constants).
    pub fn inputs(&self) -> &[TensorId] {
        &self.inputs
    }

    /// Graph output tensors.
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// The node producing `t`, or `None` for inputs and constants.
    pub fn producer(&self, t: TensorId) -> Option<NodeId> {
        self.producer[t.0 as usize]
    }

    /// Nodes consuming `t`, in node order, each once.
    pub fn consumers(&self, t: TensorId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.uses(t).collect();
        // A node's occurrences of `t` are adjacent in the use list.
        out.dedup();
        out
    }

    /// The consuming node of every input occurrence of `t`, in node order:
    /// a node that reads `t` twice appears twice (what refcounting over
    /// input occurrences needs).
    pub fn uses(&self, t: TensorId) -> impl Iterator<Item = NodeId> + '_ {
        let mut at = self.first_use[t.0 as usize];
        std::iter::from_fn(move || {
            let u = self.use_entries.get(at as usize)?;
            at = u.next;
            Some(u.node)
        })
    }

    /// Appends one input occurrence of `t` by `node` to `t`'s use list. A
    /// reference to a tensor that does not exist (a forged id, which
    /// [`crate::validate`] reports) has no list to join and is skipped.
    fn push_use(&mut self, t: TensorId, node: NodeId) {
        let i = t.0 as usize;
        if i >= self.tensors.len() {
            return;
        }
        let at =
            u32::try_from(self.use_entries.len()).expect("more than u32::MAX input occurrences");
        self.use_entries.push(Use { node, next: NO_USE });
        match self.last_use[i] {
            NO_USE => self.first_use[i] = at,
            last => self.use_entries[last as usize].next = at,
        }
        self.last_use[i] = at;
    }

    /// Adds a graph input with a (possibly symbolic) shape annotation.
    pub fn add_input(
        &mut self,
        name: impl Into<String>,
        dtype: DType,
        dims: Vec<DimExpr>,
    ) -> TensorId {
        let id = self.push_tensor(TensorInfo {
            name: name.into(),
            dtype,
            shape: ShapeValue::from_exprs(dims),
            const_data: None,
        });
        self.inputs.push(id);
        id
    }

    /// Adds a constant tensor with payload data and a fully known shape.
    ///
    /// # Panics
    ///
    /// Panics if the payload length does not match the shape's element
    /// count.
    pub fn add_const(
        &mut self,
        name: impl Into<String>,
        shape: &[i64],
        data: ConstData,
    ) -> TensorId {
        let expect: i64 = shape.iter().product();
        assert_eq!(
            expect as usize,
            data.len(),
            "constant payload length mismatch"
        );
        let dtype = data.dtype();
        self.push_tensor(TensorInfo {
            name: name.into(),
            dtype,
            shape: ShapeValue::known(shape),
            const_data: Some(data),
        })
    }

    /// Adds a scalar i64 constant (common for axes / sizes).
    pub fn add_i64_const(&mut self, name: impl Into<String>, values: &[i64]) -> TensorId {
        self.add_const(
            name,
            &[values.len() as i64],
            ConstData::I64(values.to_vec()),
        )
    }

    /// Adds an operator node; returns its output tensor ids.
    ///
    /// Output tensors are created with `Undef` shapes (to be inferred) and
    /// the given dtype.
    ///
    /// # Panics
    ///
    /// Panics if the input count violates the operator's arity.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: &[TensorId],
        out_dtype: DType,
    ) -> Vec<TensorId> {
        let arity = op.input_arity();
        assert!(
            arity.accepts(inputs.len()),
            "{} expects between {} and {} inputs, got {}",
            op,
            arity.min,
            arity.max,
            inputs.len()
        );
        let name = name.into();
        let node_id = NodeId(self.nodes.len() as u32);
        let n_out = op.num_outputs();
        let mut outputs = Vec::with_capacity(n_out);
        for k in 0..n_out {
            let t = self.push_tensor(TensorInfo {
                name: if n_out == 1 {
                    format!("{name}.out")
                } else {
                    format!("{name}.out{k}")
                },
                dtype: out_dtype,
                shape: ShapeValue::Undef,
                const_data: None,
            });
            self.producer[t.0 as usize] = Some(node_id);
            outputs.push(t);
        }
        for &t in inputs {
            self.push_use(t, node_id);
        }
        self.nodes.push(Node {
            id: node_id,
            op,
            inputs: inputs.to_vec(),
            outputs: outputs.clone(),
            name,
        });
        outputs
    }

    /// Convenience: adds a single-output node and returns that output.
    pub fn add_simple(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: &[TensorId],
        out_dtype: DType,
    ) -> TensorId {
        let outs = self.add_node(name, op, inputs, out_dtype);
        debug_assert_eq!(outs.len(), 1, "add_simple on multi-output op");
        outs[0]
    }

    /// Marks a tensor as a graph output.
    pub fn mark_output(&mut self, t: TensorId) {
        if !self.outputs.contains(&t) {
            self.outputs.push(t);
        }
    }

    /// Reassembles a graph from raw parts (deserialization). Performs the
    /// same arity checks as the builder and re-derives producer links.
    ///
    /// # Errors
    ///
    /// Returns a message when arities or tensor references are invalid.
    #[allow(clippy::type_complexity)]
    pub fn from_parts(
        tensors: Vec<(String, DType, ShapeValue, Option<ConstData>)>,
        nodes: Vec<(String, Op, Vec<TensorId>, Vec<TensorId>)>,
        inputs: Vec<TensorId>,
        outputs: Vec<TensorId>,
    ) -> Result<Graph, String> {
        let mut g = Graph::new();
        for (name, dtype, shape, const_data) in tensors {
            if let Some(d) = &const_data {
                let expect = shape
                    .as_known()
                    .map(|dims| dims.iter().product::<i64>() as usize);
                if expect != Some(d.len()) {
                    return Err(format!("constant {name} payload length mismatch"));
                }
            }
            g.push_tensor(TensorInfo {
                name,
                dtype,
                shape,
                const_data,
            });
        }
        let nt = g.tensors.len() as u32;
        for (name, op, inputs, outputs) in nodes {
            if !op.input_arity().accepts(inputs.len()) {
                return Err(format!("node {name}: bad arity"));
            }
            if op.num_outputs() != outputs.len() {
                return Err(format!("node {name}: bad output count"));
            }
            if inputs.iter().chain(outputs.iter()).any(|t| t.0 >= nt) {
                return Err(format!("node {name}: dangling tensor reference"));
            }
            let id = NodeId(g.nodes.len() as u32);
            for &t in &outputs {
                if g.producer[t.0 as usize].is_some() {
                    return Err(format!("tensor {t} produced twice"));
                }
                g.producer[t.0 as usize] = Some(id);
            }
            for &t in &inputs {
                g.push_use(t, id);
            }
            g.nodes.push(Node {
                id,
                op,
                inputs,
                outputs,
                name,
            });
        }
        if inputs.iter().chain(outputs.iter()).any(|t| t.0 >= nt) {
            return Err("dangling graph input/output".to_string());
        }
        g.inputs = inputs;
        g.outputs = outputs;
        Ok(g)
    }

    fn push_tensor(&mut self, info: TensorInfo) -> TensorId {
        let id = TensorId(self.tensors.len() as u32);
        self.tensors.push(info);
        self.producer.push(None);
        self.first_use.push(NO_USE);
        self.last_use.push(NO_USE);
        id
    }

    /// Depth-first topological order of the nodes (the order used by the
    /// RDP solver and as the default execution order).
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (validated graphs cannot).
    pub fn topo_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut state = vec![0u8; n]; // 0 = white, 1 = gray, 2 = black
        let mut order = Vec::with_capacity(n);
        // Iterative DFS from each node, post-order, then reverse.
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, bool)> = vec![(start, false)];
            while let Some((v, processed)) = stack.pop() {
                if processed {
                    state[v] = 2;
                    order.push(NodeId(v as u32));
                    continue;
                }
                if state[v] == 2 {
                    continue;
                }
                assert!(state[v] != 1, "cycle detected in computational graph");
                state[v] = 1;
                stack.push((v, true));
                // Visit successors (consumers of our outputs).
                for out in &self.nodes[v].outputs {
                    for succ in self.uses(*out) {
                        let s = succ.0 as usize;
                        if state[s] == 0 {
                            stack.push((s, false));
                        } else {
                            assert!(state[s] != 1, "cycle detected in computational graph");
                        }
                    }
                }
            }
        }
        order.reverse();
        order
    }

    /// Predecessor nodes of `node` (producers of its inputs), deduplicated,
    /// in input order.
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &i in &self.node(node).inputs {
            if let Some(p) = self.producer(i) {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Successor nodes of `node` (consumers of its outputs), deduplicated:
    /// output by output, each output's consumers in node order, first
    /// occurrence kept.
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &o in &self.node(node).outputs {
            for s in self.uses(o) {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Total parameter bytes held in constants (the "model size").
    pub fn const_bytes(&self) -> usize {
        self.tensors
            .iter()
            .filter_map(|t| t.const_data.as_ref())
            .map(|d| d.len() * d.dtype().size_bytes())
            .sum()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph({} nodes, {} tensors, {} inputs, {} outputs)",
            self.nodes.len(),
            self.tensors.len(),
            self.inputs.len(),
            self.outputs.len()
        )?;
        for n in &self.nodes {
            write!(f, "  {} = {}(", n.outputs[0], n.op)?;
            for (i, t) in n.inputs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            writeln!(f, ")  # {}", n.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryOp, UnaryOp};

    fn small_graph() -> (Graph, TensorId, TensorId) {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![DimExpr::sym("n"), DimExpr::from(4)]);
        let w = g.add_const("w", &[4], ConstData::F32(vec![1.0; 4]));
        let a = g.add_simple("add", Op::Binary(BinaryOp::Add), &[x, w], DType::F32);
        let r = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[a], DType::F32);
        g.mark_output(r);
        (g, x, r)
    }

    #[test]
    fn build_and_query() {
        let (g, x, r) = small_graph();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.inputs(), &[x]);
        assert_eq!(g.outputs(), &[r]);
        assert_eq!(g.producer(r), Some(NodeId(1)));
        assert_eq!(g.producer(x), None);
        assert_eq!(g.consumers(x), vec![NodeId(0)]);
    }

    #[test]
    fn topo_order_respects_deps() {
        let (g, _, _) = small_graph();
        let order = g.topo_order();
        assert_eq!(order, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn topo_order_diamond() {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![DimExpr::from(4)]);
        let a = g.add_simple("a", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
        let b = g.add_simple("b", Op::Unary(UnaryOp::Sigmoid), &[x], DType::F32);
        let c = g.add_simple("c", Op::Binary(BinaryOp::Add), &[a, b], DType::F32);
        g.mark_output(c);
        let order = g.topo_order();
        let pos = |id: NodeId| order.iter().position(|&n| n == id).expect("in order");
        assert!(pos(g.producer(a).expect("produced")) < pos(g.producer(c).expect("produced")));
        assert!(pos(g.producer(b).expect("produced")) < pos(g.producer(c).expect("produced")));
        assert_eq!(order.len(), 3);
    }

    #[test]
    #[should_panic(expected = "expects between")]
    fn arity_enforced() {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![DimExpr::from(4)]);
        let _ = g.add_node("bad", Op::MatMul, &[x], DType::F32);
    }

    #[test]
    #[should_panic(expected = "payload length mismatch")]
    fn const_payload_checked() {
        let mut g = Graph::new();
        let _ = g.add_const("w", &[3], ConstData::F32(vec![0.0; 2]));
    }

    #[test]
    fn const_bytes_counted() {
        let (g, _, _) = small_graph();
        assert_eq!(g.const_bytes(), 16);
    }

    #[test]
    fn display_nonempty() {
        let (g, _, _) = small_graph();
        let s = format!("{g}");
        assert!(s.contains("Add"));
        assert!(s.contains("Relu"));
    }
}
