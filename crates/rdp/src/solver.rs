//! The RDP solver — the paper's "Optimized Chaos Algorithm" (Alg. 1).
//!
//! Iterates forward and backward transfer over the depth-first-sorted nodes
//! of the extended computational graph until a fixpoint. State updates use
//! a *fill-only-undef* policy mirroring Alg. 1's early return ("outputs are
//! not in undef"): once a dimension is resolved, later transfers do not
//! rewrite it — forward and backward inference "should be the same to
//! guarantee the correctness of this DNN execution" (paper §4.1), and
//! disagreements are surfaced via [`RdpReport::inconsistencies`] instead of
//! silently clobbering state. The exception is `Combine`, whose output is
//! the *meet* over its branch inputs and legitimately descends as more
//! branches resolve.

use crate::backward::backward;
use crate::fixpoint::{self, FixpointOptions, Strategy, System};
use crate::result::RdpResult;
use crate::transfer::forward;
use sod2_ir::{Graph, NodeId, Op};
use sod2_sym::{DimValue, ShapeValue, SymValue};

/// Maximum solver sweeps before declaring divergence (a backstop only — the
/// fill-only-undef policy bounds each tensor's updates by its rank).
const MAX_ITERATIONS: usize = 100;

/// Constants larger than this (in elements) are not value-tracked.
const VALUE_TRACK_LIMIT: usize = 4096;

/// Diagnostics produced alongside the analysis result.
#[derive(Debug, Clone, Default)]
pub struct RdpReport {
    /// Sweeps until fixpoint.
    pub iterations: usize,
    /// Human-readable descriptions of forward/backward disagreements.
    pub inconsistencies: Vec<String>,
}

/// Per-sweep snapshots of the solver's shape lattice, for external
/// fixpoint audits (e.g. `sod2-analysis`' monotonicity check).
#[derive(Debug, Clone, Default)]
pub struct RdpTrace {
    /// `shape_sweeps[0]` is the initialized state before the first sweep;
    /// `shape_sweeps[i]` (i ≥ 1) the state after sweep `i`.
    pub shape_sweeps: Vec<Vec<ShapeValue>>,
}

/// Runs RDP over a graph.
///
/// # Panics
///
/// Panics if the fixpoint is not reached within an internal iteration cap —
/// which the lattice structure rules out for well-formed graphs.
pub fn analyze(graph: &Graph) -> RdpResult {
    let (result, _report) = analyze_with_report(graph);
    result
}

/// Runs RDP and also returns solver diagnostics.
pub fn analyze_with_report(graph: &Graph) -> (RdpResult, RdpReport) {
    let (result, report, _trace) = analyze_inner(graph, false);
    (result, report)
}

/// Runs RDP and additionally records the shape lattice after every sweep,
/// so callers can audit that no value ever moved back up the lattice.
pub fn analyze_traced(graph: &Graph) -> (RdpResult, RdpReport, RdpTrace) {
    analyze_inner(graph, true)
}

/// RDP phrased as a [`fixpoint::System`]: the state is the shape and value
/// lattice vectors, and one relaxation is the forward transfer plus the
/// backward transfer into unresolved inputs. Inconsistency reports
/// accumulate on the system itself.
struct RdpSystem {
    report: RdpReport,
}

/// RDP's analysis state (one shape and one value fact per tensor).
#[derive(Clone)]
struct RdpState {
    shapes: Vec<ShapeValue>,
    values: Vec<SymValue>,
}

impl System for RdpSystem {
    type State = RdpState;

    fn initial(&mut self, graph: &Graph) -> RdpState {
        let nt = graph.num_tensors();
        let mut shapes: Vec<ShapeValue> = vec![ShapeValue::Undef; nt];
        let mut values: Vec<SymValue> = vec![SymValue::Undef; nt];
        // Initialization (Alg. 1 lines 1-3): inputs get their annotations,
        // constants their known shapes/values, runtime inputs' contents are
        // nac.
        for t in graph.tensor_ids() {
            let info = graph.tensor(t);
            if let Some(data) = &info.const_data {
                shapes[t.0 as usize] = info.shape.clone();
                values[t.0 as usize] = match data.as_i64s() {
                    Some(ints) if ints.len() <= VALUE_TRACK_LIMIT => SymValue::known(ints),
                    _ => SymValue::Nac,
                };
            } else if graph.inputs().contains(&t) {
                shapes[t.0 as usize] = info.shape.clone();
                values[t.0 as usize] = SymValue::Nac;
            }
        }
        RdpState { shapes, values }
    }

    fn relax(&mut self, graph: &Graph, nid: NodeId, state: &mut RdpState) -> bool {
        let RdpState { shapes, values } = state;
        let report = &mut self.report;
        let mut changed = false;
        let node = graph.node(nid);
        let in_shapes: Vec<ShapeValue> = node
            .inputs
            .iter()
            .map(|t| shapes[t.0 as usize].clone())
            .collect();
        let in_values: Vec<SymValue> = node
            .inputs
            .iter()
            .map(|t| values[t.0 as usize].clone())
            .collect();
        let out_dtypes: Vec<_> = node
            .outputs
            .iter()
            .map(|t| graph.tensor(*t).dtype)
            .collect();

        // 1. Forward transfer (Alg. 1 line 13).
        let proposal = forward(node, &in_shapes, &in_values, &out_dtypes);
        let is_combine = matches!(node.op, Op::Combine { .. });
        for (k, &out) in node.outputs.iter().enumerate() {
            let idx = out.0 as usize;
            if is_combine {
                // Merge semantics: assign the meet (may descend).
                if shapes[idx] != proposal.shapes[k] {
                    shapes[idx] = proposal.shapes[k].clone();
                    changed = true;
                }
                if values[idx] != proposal.values[k] {
                    values[idx] = proposal.values[k].clone();
                    changed = true;
                }
            } else {
                changed |= install_shape(&mut shapes[idx], &proposal.shapes[k], report, || {
                    format!("{} output {k}", node.name)
                });
                changed |= install_value(&mut values[idx], &proposal.values[k]);
            }
        }

        // 2. Backward transfer into undef predecessors (lines 14-15).
        let out_shapes: Vec<ShapeValue> = node
            .outputs
            .iter()
            .map(|t| shapes[t.0 as usize].clone())
            .collect();
        let any_unresolved_input = node
            .inputs
            .iter()
            .any(|t| !shapes[t.0 as usize].is_fully_symbolic());
        if any_unresolved_input {
            let props = backward(node, &in_shapes, &out_shapes);
            for (i, prop) in props.into_iter().enumerate() {
                if let Some(p) = prop {
                    let t = node.inputs[i];
                    // Never write into constants.
                    if graph.tensor(t).is_const() {
                        continue;
                    }
                    changed |= install_shape(&mut shapes[t.0 as usize], &p, report, || {
                        format!("{} input {i} (backward)", node.name)
                    });
                }
            }
        }
        changed
    }

    fn bidirectional(&self) -> bool {
        true
    }
}

fn analyze_inner(graph: &Graph, record_trace: bool) -> (RdpResult, RdpReport, RdpTrace) {
    let mut sys = RdpSystem {
        report: RdpReport::default(),
    };
    let opts = FixpointOptions {
        strategy: Strategy::Sweeps,
        max_iterations: MAX_ITERATIONS,
        label: "RDP",
    };
    let mut trace = RdpTrace::default();
    let (state, stats) = fixpoint::solve_observed(graph, &mut sys, &opts, |s, _round| {
        if record_trace {
            trace.shape_sweeps.push(s.shapes.clone());
        }
    });

    let mut report = sys.report;
    report.iterations = stats.iterations;
    (
        RdpResult {
            shapes: state.shapes,
            values: state.values,
            iterations: stats.iterations,
        },
        report,
        trace,
    )
}

/// Installs a shape proposal. Returns `true` on change.
///
/// Policy: `undef` portions are filled; `nac` portions may be *upgraded* to
/// expressions (a later backward pass proving a shape the forward pass had
/// to give up on — the paper's producer/consumer agreement requirement);
/// already-resolved expressions are never rewritten, and provable
/// disagreements are reported. Each dimension therefore changes at most
/// twice (`undef → nac → expr`), which bounds solver iterations.
fn install_shape(
    slot: &mut ShapeValue,
    prop: &ShapeValue,
    report: &mut RdpReport,
    context: impl Fn() -> String,
) -> bool {
    match (&*slot, prop) {
        (_, ShapeValue::Undef) => false,
        (ShapeValue::Undef, p) => {
            *slot = p.clone();
            true
        }
        (ShapeValue::Nac, ShapeValue::Ranked(_)) => {
            *slot = prop.clone();
            true
        }
        (ShapeValue::Nac, ShapeValue::Nac) => false,
        (ShapeValue::Ranked(old), ShapeValue::Ranked(new)) => {
            if old.len() != new.len() {
                report.inconsistencies.push(format!(
                    "{}: rank disagreement {} vs {}",
                    context(),
                    old.len(),
                    new.len()
                ));
                return false;
            }
            let mut changed = false;
            let mut merged = old.clone();
            for (m, n) in merged.iter_mut().zip(new) {
                let upgrade = match (&*m, n) {
                    (DimValue::Undef, n) if !n.is_undef() => true,
                    (DimValue::Nac, DimValue::Expr(_)) => true,
                    (DimValue::Expr(a), DimValue::Expr(b)) => {
                        if a != b && a.as_const().is_some() && b.as_const().is_some() {
                            report
                                .inconsistencies
                                .push(format!("{}: dimension disagreement {a} vs {b}", context()));
                        }
                        false
                    }
                    _ => false,
                };
                if upgrade {
                    *m = n.clone();
                    changed = true;
                }
            }
            if changed {
                *slot = ShapeValue::Ranked(merged);
            }
            changed
        }
        (ShapeValue::Ranked(_), ShapeValue::Nac) => false,
    }
}

/// Installs a value proposal with the same fill/upgrade policy as shapes.
fn install_value(slot: &mut SymValue, prop: &SymValue) -> bool {
    match (&*slot, prop) {
        (_, SymValue::Undef) => false,
        (SymValue::Undef, p) => {
            *slot = p.clone();
            true
        }
        (SymValue::Nac, SymValue::Elems(_)) => {
            *slot = prop.clone();
            true
        }
        (SymValue::Nac, SymValue::Nac) => false,
        (SymValue::Elems(old), SymValue::Elems(new)) => {
            if old.len() != new.len() {
                return false;
            }
            let mut changed = false;
            let mut merged = old.clone();
            for (m, n) in merged.iter_mut().zip(new) {
                let upgrade = matches!(
                    (&*m, n),
                    (DimValue::Undef, x) if !x.is_undef()
                ) || matches!((&*m, n), (DimValue::Nac, DimValue::Expr(_)));
                if upgrade {
                    *m = n.clone();
                    changed = true;
                }
            }
            if changed {
                *slot = SymValue::Elems(merged);
            }
            changed
        }
        (SymValue::Elems(_), SymValue::Nac) => false,
    }
}
