//! # Graph-level abstract interpretation with optimization certificates
//!
//! Runs four lattices — value ranges, NaN/∞ taint, constness, and
//! element-count bounds — to a joint fixpoint on the shared monotone
//! worklist engine (`sod2_rdp::fixpoint`), then packages the proven facts
//! into typed [`Certificates`] that the planner and runtime consume:
//!
//! - proven-finite tensors let the executor elide its per-node `nan_guard`
//!   fence (`absint.guard_elisions`);
//! - element-count bounds let the arena planner pre-reserve
//!   execution-determined (nac) outputs without per-op special cases
//!   (`absint.nac_bounds_used`);
//! - proven-constant `Switch` selectors let [`prune::prune_dead_arms`]
//!   fold dead branches out before scheduling (`absint.pruned_arms`).
//!
//! [`certify`] also reports the facts that indicate a broken graph:
//! `absint/contradictory-range` (a `Clip` whose `min > max` would panic the
//! kernel), `absint/unreachable-arm` (a `Switch` arm no selector value can
//! reach), `absint/taint-reaches-output` (a NaN/∞ may escape the graph),
//! and `absint/non-monotone-transfer` (the fixpoint audit caught a
//! transfer moving down its lattice — an analysis bug, surfaced rather
//! than silently producing unsound facts).
//!
//! Soundness is empirical as well as argued: `tests/absint_soundness.rs`
//! cross-validates every abstract fact against concrete execution over the
//! model zoo and against randomized proptest graphs.

pub mod interval;
pub mod prune;
pub mod transfer;

pub use interval::Interval;
pub use prune::{prune_dead_arms, verify_arm_pruning, PruneOutcome};
pub use transfer::{arm_feasible, run_absint, AbsState, AbsintSystem, BoundFact, ConstFact};

use crate::diag::{Anchor, Diagnostic, Report};
use sod2_ir::{DType, Graph, Op};
use sod2_rdp::{FixpointStats, RdpResult};
use sod2_sym::DimExpr;

/// Proven per-tensor facts, packaged for downstream consumers.
///
/// All vectors are indexed by `TensorId.0`.
#[derive(Debug, Clone)]
pub struct Certificates {
    /// Finite-element value range per tensor (⊥ = provably never holds a
    /// finite element).
    pub ranges: Vec<Interval>,
    /// Whether the tensor may hold a NaN/∞ element (f32 only).
    pub may_nonfinite: Vec<bool>,
    /// Proven finite: an f32 tensor that is untainted and whose range is
    /// bounded (or empty). The executor skips its NaN fence for these.
    pub finite: Vec<bool>,
    /// Proven constant value (every element equal, bit-exact vs kernels).
    pub constants: Vec<Option<f64>>,
    /// Symbolic element-count upper bound — populated only for tensors
    /// whose RDP shape is execution-determined (nac) yet bounded by the
    /// analysis, i.e. exactly the ones the arena planner needs help with.
    pub elem_bounds: Vec<Option<DimExpr>>,
    /// `(switch node, arm index)` pairs the selector can never choose.
    pub unreachable_arms: Vec<(sod2_ir::NodeId, usize)>,
    /// Fixpoint statistics from the underlying engine run.
    pub stats: FixpointStats,
}

impl Certificates {
    /// Number of f32 tensors proven finite.
    pub fn finite_count(&self) -> usize {
        self.finite.iter().filter(|&&f| f).count()
    }

    /// Number of nac tensors with a usable element bound.
    pub fn bounded_nac_count(&self) -> usize {
        self.elem_bounds.iter().filter(|b| b.is_some()).count()
    }

    /// Number of constant-proven tensors.
    pub fn constant_count(&self) -> usize {
        self.constants.iter().filter(|c| c.is_some()).count()
    }
}

/// Converts fixpoint-audit violations into diagnostics.
///
/// Public so a deliberately non-monotone [`sod2_rdp::System`] (the fixture
/// suite has one) exercises the same reporting path `certify` uses.
pub fn violations_to_diagnostics(stats: &FixpointStats) -> Vec<Diagnostic> {
    stats
        .violations
        .iter()
        .map(|v| {
            Diagnostic::error(
                "absint/non-monotone-transfer",
                Anchor::Graph,
                format!("fixpoint audit: {v}"),
            )
        })
        .collect()
}

/// Runs the abstract interpretation (with its termination audit) and
/// packages certificates plus diagnostics for the facts that indicate a
/// broken graph.
pub fn certify(graph: &Graph, rdp: &RdpResult) -> (Certificates, Report) {
    let (state, stats) = run_absint(graph, rdp);
    let mut report = Report::new();
    report.extend(violations_to_diagnostics(&stats));

    let n = graph.num_tensors();
    let mut finite = vec![false; n];
    let mut constants = vec![None; n];
    let mut elem_bounds = vec![None; n];
    for t in graph.tensor_ids() {
        let i = t.0 as usize;
        let info = graph.tensor(t);
        if info.dtype == DType::F32 && !state.taint[i] && state.ranges[i].is_bounded() {
            finite[i] = true;
        }
        constants[i] = state.consts[i].known();
        if rdp.shape(t).has_nac() {
            elem_bounds[i] = state.bounds[i].expr().cloned();
        }
    }

    let mut unreachable_arms = Vec::new();
    for node in graph.nodes() {
        match &node.op {
            Op::Clip { min, max } if min > max => {
                report.extend([Diagnostic::error(
                    "absint/contradictory-range",
                    Anchor::Node(node.id),
                    format!(
                        "{}: Clip range [{min}, {max}] is empty; the kernel cannot satisfy it",
                        node.name
                    ),
                )]);
            }
            Op::Switch { num_branches } => {
                let sel = node.inputs[1];
                // Only report when the selector itself resolved — an
                // all-⊥ selector means the Switch is simply dead code.
                let resolved = state.consts[sel.0 as usize].known().is_some()
                    || !state.ranges[sel.0 as usize].is_empty();
                if !resolved {
                    continue;
                }
                for j in 0..*num_branches {
                    if !arm_feasible(&state, sel, j, *num_branches) {
                        unreachable_arms.push((node.id, j));
                        report.extend([Diagnostic::warning(
                            "absint/unreachable-arm",
                            Anchor::Node(node.id),
                            format!(
                                "{}: arm {j} of {} is unreachable (selector range {})",
                                node.name, num_branches, state.ranges[sel.0 as usize]
                            ),
                        )]);
                    }
                }
            }
            _ => {}
        }
    }

    for &t in graph.outputs() {
        if state.taint[t.0 as usize] {
            report.extend([Diagnostic::warning(
                "absint/taint-reaches-output",
                Anchor::Tensor(t),
                format!(
                    "output '{}' may hold NaN/Inf (taint reaches a graph output)",
                    graph.tensor(t).name
                ),
            )]);
        }
    }

    let certs = Certificates {
        ranges: state.ranges,
        may_nonfinite: state.taint,
        finite,
        constants,
        elem_bounds,
        unreachable_arms,
        stats,
    };
    (certs, report)
}
