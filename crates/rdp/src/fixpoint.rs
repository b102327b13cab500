//! A generic monotone fixpoint engine over the operator graph.
//!
//! Both RDP (shapes/values, forward + backward) and the abstract
//! interpretation lattices in `sod2-analysis` (ranges, NaN taint, nac
//! bounds, constness) are instances of the same chaotic-iteration scheme:
//! per-node transfer functions relax a per-tensor fact vector until nothing
//! changes. The engine owns the iteration policy — full sweeps in
//! depth-first order (the paper's Alg. 1) or a successor-driven worklist —
//! plus the convergence backstop and the collection of termination-audit
//! findings, which report non-monotone transfer functions instead of
//! looping forever on them.
//!
//! A [`System`] supplies the state, the per-node relaxation, and
//! (optionally) the lattice-order violations its writes made;
//! [`solve`] / [`solve_observed`] drive it to the fixpoint and report
//! iteration statistics.

use sod2_ir::{Graph, NodeId};
use std::collections::VecDeque;

/// A fixpoint problem: per-graph state plus a per-node relaxation step.
pub trait System {
    /// The full analysis state (typically one fact per tensor).
    type State;

    /// The initialized state before any transfer runs (lattice seeds:
    /// inputs, constants, everything else at the identity element).
    fn initial(&mut self, graph: &Graph) -> Self::State;

    /// Applies this node's transfer function(s) to the state. Returns
    /// `true` when any fact changed.
    fn relax(&mut self, graph: &Graph, nid: NodeId, state: &mut Self::State) -> bool;

    /// `true` when a change at a node can require re-relaxing its
    /// *predecessors* too (systems with a backward transfer, like RDP).
    fn bidirectional(&self) -> bool {
        false
    }

    /// Termination audit: every fact `relax` wrote *against* the lattice
    /// order since the last call (a non-monotone transfer — the one bug
    /// class that can make chaotic iteration diverge). A system checks
    /// each fact where it writes it, against the fact it replaces, so the
    /// audit costs one comparison per write. The engine drains this after
    /// every relaxation round into [`FixpointStats::violations`]. Empty
    /// means clean.
    fn take_violations(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// Iteration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Full sweeps over the depth-first node order until a sweep changes
    /// nothing (paper Alg. 1's optimized chaos algorithm). `iterations`
    /// counts sweeps, including the final quiescent one.
    Sweeps,
    /// Successor-driven worklist: nodes are re-relaxed only when a fact
    /// they consume changed (plus predecessors for bidirectional systems).
    /// `iterations` counts worklist pops.
    Worklist,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct FixpointOptions {
    /// Iteration policy.
    pub strategy: Strategy,
    /// Convergence backstop: panic after this many iterations (sweeps or
    /// pops). The lattice structure rules this out for monotone systems.
    pub max_iterations: usize,
    /// Label used in the divergence panic message.
    pub label: &'static str,
}

impl Default for FixpointOptions {
    fn default() -> Self {
        FixpointOptions {
            strategy: Strategy::Worklist,
            max_iterations: 10_000,
            label: "fixpoint",
        }
    }
}

/// Iteration statistics and audit findings.
#[derive(Debug, Clone, Default)]
pub struct FixpointStats {
    /// Sweeps ([`Strategy::Sweeps`]) or worklist pops ([`Strategy::Worklist`]).
    pub iterations: usize,
    /// Total `relax` calls that reported a change.
    pub changes: usize,
    /// Monotonicity violations found by the system's termination audit
    /// ([`System::take_violations`]; empty when every transfer respected
    /// the lattice order).
    pub violations: Vec<String>,
}

/// Drives a system to its fixpoint.
///
/// # Panics
///
/// Panics when the iteration cap is exceeded — which monotone transfer
/// functions over finite-height lattices rule out; the audit exists to
/// catch the transfers that are not.
pub fn solve<S: System>(
    graph: &Graph,
    sys: &mut S,
    opts: &FixpointOptions,
) -> (S::State, FixpointStats) {
    solve_observed(graph, sys, opts, |_, _| {})
}

/// [`solve`] with a per-round observer: `observe(&state, round)` is called
/// with `round = 0` right after initialization and after every completed
/// sweep (sweep strategy only) — the hook RDP's fixpoint trace hangs off.
pub fn solve_observed<S: System>(
    graph: &Graph,
    sys: &mut S,
    opts: &FixpointOptions,
    mut observe: impl FnMut(&S::State, usize),
) -> (S::State, FixpointStats) {
    let mut state = sys.initial(graph);
    let mut stats = FixpointStats::default();
    observe(&state, 0);
    let order = graph.topo_order();
    match opts.strategy {
        Strategy::Sweeps => {
            let mut changed = true;
            while changed {
                changed = false;
                stats.iterations += 1;
                assert!(
                    stats.iterations <= opts.max_iterations,
                    "{} failed to converge in {} sweeps",
                    opts.label,
                    opts.max_iterations
                );
                for &nid in &order {
                    if sys.relax(graph, nid, &mut state) {
                        changed = true;
                        stats.changes += 1;
                    }
                }
                stats.violations.extend(sys.take_violations());
                observe(&state, stats.iterations);
            }
        }
        Strategy::Worklist => {
            let mut queue: VecDeque<NodeId> = order.iter().copied().collect();
            let mut queued: Vec<bool> = vec![false; graph.num_nodes()];
            for &n in &order {
                queued[n.0 as usize] = true;
            }
            while let Some(nid) = queue.pop_front() {
                queued[nid.0 as usize] = false;
                stats.iterations += 1;
                assert!(
                    stats.iterations <= opts.max_iterations,
                    "{} failed to converge in {} worklist pops",
                    opts.label,
                    opts.max_iterations
                );
                if sys.relax(graph, nid, &mut state) {
                    stats.changes += 1;
                    let mut enqueue = |n: NodeId| {
                        if !queued[n.0 as usize] {
                            queued[n.0 as usize] = true;
                            queue.push_back(n);
                        }
                    };
                    for s in graph.successors(nid) {
                        enqueue(s);
                    }
                    if sys.bidirectional() {
                        for p in graph.predecessors(nid) {
                            enqueue(p);
                        }
                    }
                }
                stats.violations.extend(sys.take_violations());
            }
        }
    }
    (state, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_ir::{DType, Op, UnaryOp};
    use sod2_sym::DimExpr;

    /// A toy system: counts, per tensor, the longest producer chain length
    /// (a max-lattice — monotone, height = node count).
    struct Depth;
    impl System for Depth {
        type State = Vec<usize>;
        fn initial(&mut self, graph: &Graph) -> Vec<usize> {
            vec![0; graph.num_tensors()]
        }
        fn relax(&mut self, graph: &Graph, nid: NodeId, state: &mut Vec<usize>) -> bool {
            let node = graph.node(nid);
            let depth = node
                .inputs
                .iter()
                .map(|t| state[t.0 as usize])
                .max()
                .unwrap_or(0)
                + 1;
            let mut changed = false;
            for &o in &node.outputs {
                if state[o.0 as usize] < depth {
                    state[o.0 as usize] = depth;
                    changed = true;
                }
            }
            changed
        }
    }

    /// Deliberately non-monotone: flips a fact up and back down forever —
    /// the audit must name it (the cap stops the loop in the sweep driver).
    /// Bidirectional, so the worklist revisits a predecessor and flips its
    /// output back down too.
    struct Flapping {
        flips: usize,
        limit: usize,
        found: Vec<String>,
    }
    impl Flapping {
        fn new(limit: usize) -> Self {
            Flapping {
                flips: 0,
                limit,
                found: Vec::new(),
            }
        }
    }
    impl System for Flapping {
        type State = Vec<usize>;
        fn initial(&mut self, graph: &Graph) -> Vec<usize> {
            vec![0; graph.num_tensors()]
        }
        fn relax(&mut self, graph: &Graph, nid: NodeId, state: &mut Vec<usize>) -> bool {
            let o = graph.node(nid).outputs[0].0 as usize;
            if self.flips >= self.limit {
                return false;
            }
            self.flips += 1;
            let next = if state[o] == 0 { 1 } else { 0 };
            if next < state[o] {
                self.found
                    .push(format!("tensor {o} descended {} -> {next}", state[o]));
            }
            state[o] = next;
            true
        }
        fn bidirectional(&self) -> bool {
            true
        }
        fn take_violations(&mut self) -> Vec<String> {
            std::mem::take(&mut self.found)
        }
    }

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut t = g.add_input("x", DType::F32, vec![DimExpr::from(4)]);
        for i in 0..n {
            t = g.add_simple(format!("u{i}"), Op::Unary(UnaryOp::Relu), &[t], DType::F32);
        }
        g.mark_output(t);
        g
    }

    #[test]
    fn both_strategies_reach_the_same_fixpoint() {
        let g = chain(6);
        let (a, sa) = solve(
            &g,
            &mut Depth,
            &FixpointOptions {
                strategy: Strategy::Sweeps,
                ..FixpointOptions::default()
            },
        );
        let (b, sb) = solve(&g, &mut Depth, &FixpointOptions::default());
        assert_eq!(a, b);
        assert!(sa.iterations >= 2, "sweeps include the quiescent pass");
        assert!(sb.changes == sa.changes);
        assert_eq!(*a.iter().max().unwrap(), 6);
    }

    #[test]
    fn audit_catches_non_monotone_transfer() {
        let g = chain(2);
        for strategy in [Strategy::Sweeps, Strategy::Worklist] {
            let mut sys = Flapping::new(4);
            let (_, stats) = solve(
                &g,
                &mut sys,
                &FixpointOptions {
                    strategy,
                    ..FixpointOptions::default()
                },
            );
            assert!(
                stats.violations.iter().any(|v| v.contains("descended")),
                "{strategy:?} audit must flag the descent: {:?}",
                stats.violations
            );
            assert!(sys.found.is_empty(), "every finding drained");
        }
    }

    #[test]
    #[should_panic(expected = "failed to converge")]
    fn divergence_hits_the_backstop() {
        let g = chain(1);
        let _ = solve(
            &g,
            &mut Flapping::new(usize::MAX),
            &FixpointOptions {
                strategy: Strategy::Sweeps,
                max_iterations: 8,
                ..FixpointOptions::default()
            },
        );
    }

    #[test]
    fn observer_sees_init_and_every_sweep() {
        let g = chain(3);
        let mut rounds = Vec::new();
        let _ = solve_observed(
            &g,
            &mut Depth,
            &FixpointOptions {
                strategy: Strategy::Sweeps,
                ..FixpointOptions::default()
            },
            |_, r| rounds.push(r),
        );
        assert_eq!(rounds[0], 0);
        assert!(rounds.len() >= 2);
        assert_eq!(*rounds.last().unwrap(), rounds.len() - 1);
    }
}
