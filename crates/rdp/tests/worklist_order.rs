//! The worklist engine pops nodes in the same sequence as a reference that
//! recomputes the tensor → consumers index on every query, as `Graph` did
//! before it kept use lists: same initial topological order, same successor
//! order (output by output, consumers in node order, first occurrence
//! kept), hence the same pops, iterations and changes.

use proptest::prelude::*;
use sod2_ir::{BinaryOp, DType, Graph, NodeId, Op, TensorId, UnaryOp};
use sod2_rdp::fixpoint::solve;
use sod2_rdp::{FixpointOptions, Strategy as Policy, System};
use sod2_sym::DimExpr;
use std::collections::{HashMap, VecDeque};

/// The graph queries as they were: every call rebuilds the index.
mod reference {
    use super::*;

    /// Tensor → consuming node of every input occurrence.
    fn consumer_index(graph: &Graph) -> HashMap<TensorId, Vec<NodeId>> {
        let mut idx: HashMap<TensorId, Vec<NodeId>> = HashMap::new();
        for n in graph.nodes() {
            for &i in &n.inputs {
                idx.entry(i).or_default().push(n.id);
            }
        }
        idx
    }

    pub fn consumers(graph: &Graph, t: TensorId) -> Vec<NodeId> {
        graph
            .nodes()
            .iter()
            .filter(|n| n.inputs.contains(&t))
            .map(|n| n.id)
            .collect()
    }

    pub fn successors(graph: &Graph, node: NodeId) -> Vec<NodeId> {
        let idx = consumer_index(graph);
        let mut out = Vec::new();
        for &o in &graph.node(node).outputs {
            for &s in idx.get(&o).map(Vec::as_slice).unwrap_or(&[]) {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    pub fn topo_order(graph: &Graph) -> Vec<NodeId> {
        let n = graph.num_nodes();
        let mut state = vec![0u8; n];
        let mut order = Vec::with_capacity(n);
        let consumers = consumer_index(graph);
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
                state[v] = 1;
                stack.push((v, true));
                for out in &graph.node(NodeId(v as u32)).outputs {
                    for succ in consumers.get(out).into_iter().flatten() {
                        let s = succ.0 as usize;
                        if state[s] == 0 {
                            stack.push((s, false));
                        }
                    }
                }
            }
        }
        order.reverse();
        order
    }

    /// The worklist loop over the reference queries; returns the pops.
    pub fn worklist_pops<S: System>(graph: &Graph, sys: &mut S) -> Vec<NodeId> {
        let mut state = sys.initial(graph);
        let order = topo_order(graph);
        let mut queue: VecDeque<NodeId> = order.iter().copied().collect();
        let mut queued = vec![true; graph.num_nodes()];
        let mut pops = Vec::new();
        while let Some(nid) = queue.pop_front() {
            queued[nid.0 as usize] = false;
            pops.push(nid);
            if sys.relax(graph, nid, &mut state) {
                let mut next = successors(graph, nid);
                if sys.bidirectional() {
                    next.extend(graph.predecessors(nid));
                }
                for n in next {
                    if !queued[n.0 as usize] {
                        queued[n.0 as usize] = true;
                        queue.push_back(n);
                    }
                }
            }
        }
        pops
    }
}

/// Records its pops; the k-th relaxation reports a change when
/// `pattern[k % len]` holds, for at most `budget` changes.
struct Recorder {
    pattern: Vec<bool>,
    budget: usize,
    bidirectional: bool,
    relaxed: usize,
    pops: Vec<NodeId>,
}

impl Recorder {
    fn new(pattern: &[bool], bidirectional: bool) -> Self {
        Recorder {
            pattern: pattern.to_vec(),
            budget: 200,
            bidirectional,
            relaxed: 0,
            pops: Vec::new(),
        }
    }
}

impl System for Recorder {
    type State = ();
    fn initial(&mut self, _graph: &Graph) {}
    fn relax(&mut self, _graph: &Graph, nid: NodeId, _state: &mut ()) -> bool {
        self.pops.push(nid);
        let change = self.pattern[self.relaxed % self.pattern.len()] && self.budget > 0;
        self.relaxed += 1;
        if change {
            self.budget -= 1;
        }
        change
    }
    fn bidirectional(&self) -> bool {
        self.bidirectional
    }
}

/// A random DAG over single- and multi-output ops, with repeated inputs
/// (`Add(t, t)`, `Concat(t, u, t)`) so use lists hold duplicates.
fn random_graph(spec: &[(u8, Vec<usize>)]) -> Graph {
    let mut g = Graph::new();
    let mut pool = vec![
        g.add_input("x", DType::F32, vec![DimExpr::from(4)]),
        g.add_input("y", DType::F32, vec![DimExpr::from(4)]),
    ];
    for (k, (kind, picks)) in spec.iter().enumerate() {
        let pick = |i: usize| pool[picks[i % picks.len()] % pool.len()];
        let name = format!("n{k}");
        let outs = match kind % 4 {
            0 => g.add_node(name, Op::Unary(UnaryOp::Relu), &[pick(0)], DType::F32),
            1 => g.add_node(
                name,
                Op::Binary(BinaryOp::Add),
                &[pick(0), pick(1)],
                DType::F32,
            ),
            2 => g.add_node(
                name,
                Op::Split {
                    axis: 0,
                    splits: vec![1; 2 + picks.len() % 2],
                },
                &[pick(0)],
                DType::F32,
            ),
            _ => {
                let inputs: Vec<TensorId> = (0..picks.len()).map(pick).collect();
                g.add_node(name, Op::Concat { axis: 0 }, &inputs, DType::F32)
            }
        };
        pool.extend(outs);
    }
    if let Some(&last) = pool.last() {
        g.mark_output(last);
    }
    g
}

fn spec_strategy() -> impl Strategy<Value = Vec<(u8, Vec<usize>)>> {
    proptest::collection::vec((0u8..4, proptest::collection::vec(0usize..64, 1..4)), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Graph queries agree with the rebuilt-index reference.
    #[test]
    fn queries_match_the_reference(spec in spec_strategy()) {
        let g = random_graph(&spec);
        prop_assert_eq!(g.topo_order(), reference::topo_order(&g));
        for n in g.nodes() {
            prop_assert_eq!(g.successors(n.id), reference::successors(&g, n.id));
        }
        for t in g.tensor_ids() {
            prop_assert_eq!(g.consumers(t), reference::consumers(&g, t));
        }
    }

    /// The worklist pops in the reference sequence, forward-only and
    /// bidirectional.
    #[test]
    fn worklist_pops_match_the_reference(
        spec in spec_strategy(),
        pattern in proptest::collection::vec(any::<bool>(), 1..8),
        bidirectional in any::<bool>(),
    ) {
        let g = random_graph(&spec);
        let mut sys = Recorder::new(&pattern, bidirectional);
        let opts = FixpointOptions {
            strategy: Policy::Worklist,
            ..FixpointOptions::default()
        };
        let ((), stats) = solve(&g, &mut sys, &opts);
        let mut reference_sys = Recorder::new(&pattern, bidirectional);
        let want = reference::worklist_pops(&g, &mut reference_sys);
        prop_assert_eq!(&sys.pops, &want);
        prop_assert_eq!(stats.iterations, want.len());
        prop_assert_eq!(stats.changes, 200 - sys.budget);
    }
}
