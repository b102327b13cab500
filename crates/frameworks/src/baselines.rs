//! Baseline engine simulators (paper §2 and §5.1).
//!
//! Each implements the execution *strategy* the paper ascribes to the
//! corresponding product framework, over the same kernels and cost model as
//! SoD² — so every measured difference comes from the strategy, exactly as
//! in the paper's comparison:
//!
//! - [`MnnLike`] — static engine with **execution re-initialization** on
//!   every input-shape change (shape propagation/layout selection, schedule
//!   tuning, allocation — Table 1's SL/ST/Alloc phases), well-fused and
//!   well-tuned kernels once initialized, greedy best-fit memory.
//! - [`OrtLike`] — handles dynamic shapes without re-initialization but
//!   with per-tensor dynamic allocation, no fusion, untuned kernels.
//! - [`TvmNimbleLike`] — VM with a **shape function** evaluated per
//!   dynamic operator, dynamic allocation without reuse planning, fusion
//!   only where shapes are fully static.
//! - [`TfLiteLike`] — re-initialization like MNN plus an optional fixed
//!   memory budget honoured via XLA-style rematerialization (Fig. 11).
//!
//! All baselines execute **all** control-flow branches and strip invalid
//! results, as the paper observes of these frameworks.

use crate::common::{shape_key, Engine, InferenceStats};
use sod2_device::{price_reinit, DeviceProfile, OpCost};
use sod2_fusion::{fuse, FusionPolicy};
use sod2_ir::{Graph, TensorId};
use sod2_mem::{peak_live_bytes, plan_best_fit, rematerialize, size_class_peak, TensorLife};
use sod2_mvc::VersionTable;
use sod2_plan::{naive_unit_order, plan_tape_layout, unit_lifetimes, UnitGraph};
use sod2_rdp::{analyze, RdpResult, ShapeClass};
use sod2_runtime::{
    compile_tape, execute_tape, ExecConfig, ExecError, RunOutcome, TapeProgram, TraceEvent,
};
use sod2_tensor::Tensor;
use std::collections::HashSet;

/// Shared compiled state for a baseline.
struct Compiled {
    graph: Graph,
    profile: DeviceProfile,
    rdp: RdpResult,
    unit_graph: UnitGraph,
    unit_order: Vec<usize>,
    table: Option<VersionTable>,
    /// The fixed naive-order plan lowered once, or the lowering error
    /// every inference then reports.
    tape: Result<TapeProgram, String>,
}

impl Compiled {
    fn new(graph: Graph, profile: DeviceProfile, fusion: FusionPolicy, tuned: bool) -> Self {
        // Product engines fold constants at load time too.
        let (graph, _) = sod2_runtime::fold_constants(&graph);
        let rdp = analyze(&graph);
        let fusion_plan = fuse(&graph, &rdp, fusion);
        let unit_graph = UnitGraph::build(&graph, &fusion_plan);
        let unit_order = naive_unit_order(&unit_graph);
        let table = if tuned {
            Some(VersionTable::tune(&profile, 0xBA5E))
        } else {
            None
        };
        let node_order: Vec<_> = unit_order
            .iter()
            .flat_map(|&u| unit_graph.units[u].nodes.iter().copied())
            .collect();
        let layout = plan_tape_layout(&graph, &node_order);
        let tape = compile_tape(
            &graph,
            &layout,
            &node_order,
            Some(&fusion_plan),
            true,
            None,
            None,
            None,
        )
        .map_err(|e| e.to_string());
        Compiled {
            graph,
            profile,
            rdp,
            unit_graph,
            unit_order,
            table,
            tape,
        }
    }

    fn run(&self, inputs: &[Tensor]) -> Result<RunOutcome, ExecError> {
        let tape = self
            .tape
            .as_ref()
            .map_err(|e| ExecError::Internal(format!("tape lowering failed: {e}")))?;
        let cfg = ExecConfig {
            version_table: self.table.as_ref(),
            // Baselines execute all branches and strip invalid results.
            execute_all_branches: true,
            ..ExecConfig::default()
        };
        execute_tape(&self.graph, inputs, tape, &cfg, None, false)
    }

    fn observed_lifetimes(&self, outcome: &RunOutcome) -> Vec<TensorLife> {
        let size_of = |t: TensorId| -> usize {
            outcome
                .concrete_shapes
                .get(&t)
                .map(|s| s.iter().product::<usize>() * self.graph.tensor(t).dtype.size_bytes())
                .unwrap_or(0)
        };
        unit_lifetimes(&self.graph, &self.unit_graph, &self.unit_order, &size_of)
            .into_iter()
            .filter(|l| l.size > 0)
            .collect()
    }
}

/// MNN-style static engine with re-initialization on shape change.
pub struct MnnLike {
    compiled: Compiled,
    seen_shapes: HashSet<Vec<Vec<usize>>>,
    /// The latest re-initialization phase costs `(sl, st, alloc)` in
    /// seconds — the Table 1 report reads these.
    pub last_reinit_phases: Option<(f64, f64, f64)>,
}

impl MnnLike {
    /// Compiles a graph for a device.
    pub fn new(graph: Graph, profile: DeviceProfile) -> Self {
        // Post-reinit MNN has full static shape information, so it fuses
        // like a static compiler — but its kernel codegen is the stock
        // engine's, not DNNFusion's tuned multi-version kernels.
        MnnLike {
            compiled: Compiled::new(graph, profile, FusionPolicy::Rdp, false),
            seen_shapes: HashSet::new(),
            last_reinit_phases: None,
        }
    }
}

impl Engine for MnnLike {
    fn name(&self) -> &'static str {
        "MNN"
    }

    fn infer(&mut self, inputs: &[Tensor]) -> Result<InferenceStats, ExecError> {
        let key = shape_key(inputs);
        let reinit = self.seen_shapes.insert(key);
        let outcome = self.compiled.run(inputs)?;
        let alloc_events = outcome.alloc_sizes.len();
        let lives = self.compiled.observed_lifetimes(&outcome);
        let plan = plan_best_fit(&lives);
        let mut trace = outcome.trace;
        if reinit {
            let (sl, st, alloc) = price_reinit(
                &self.compiled.profile,
                self.compiled.graph.num_nodes(),
                outcome.alloc_sizes.len(),
                plan.peak,
            );
            self.last_reinit_phases = Some((sl, st, alloc));
            trace.push(TraceEvent::Reinit { sl, st, alloc });
        } else {
            self.last_reinit_phases = None;
        }
        let latency = trace.price(&self.compiled.profile);
        Ok(InferenceStats {
            outputs: outcome.outputs,
            latency,
            peak_memory_bytes: plan.peak,
            reinitialized: reinit,
            alloc_events,
            arena_backed: 0,
        })
    }
}

/// ONNX-Runtime-style engine: dynamic shapes without re-initialization,
/// per-tensor dynamic allocation, unfused untuned kernels.
pub struct OrtLike {
    compiled: Compiled,
}

impl OrtLike {
    /// Compiles a graph for a device.
    pub fn new(graph: Graph, profile: DeviceProfile) -> Self {
        OrtLike {
            compiled: Compiled::new(graph, profile, FusionPolicy::None, false),
        }
    }
}

impl Engine for OrtLike {
    fn name(&self) -> &'static str {
        "ORT"
    }

    fn infer(&mut self, inputs: &[Tensor]) -> Result<InferenceStats, ExecError> {
        let outcome = self.compiled.run(inputs)?;
        let alloc_events = outcome.alloc_sizes.len();
        let lives = self.compiled.observed_lifetimes(&outcome);
        // Pooling (BFC-style) allocator without lifetime planning: requests
        // round up to power-of-two size classes, freed chunks stay in their
        // class — internal fragmentation plus per-class retention, over the
        // unfused lifetimes (more tensors than the fused engines hold).
        let peak = size_class_peak(&lives);
        let mut trace = outcome.trace;
        for &b in &outcome.alloc_sizes {
            trace.push(TraceEvent::Alloc { bytes: b });
        }
        let latency = trace.price(&self.compiled.profile);
        Ok(InferenceStats {
            outputs: outcome.outputs,
            latency,
            peak_memory_bytes: peak,
            reinitialized: false,
            alloc_events,
            arena_backed: 0,
        })
    }
}

/// TVM-with-Nimble-style engine: per-dynamic-op shape functions, dynamic
/// allocation without reuse planning, static-only fusion.
pub struct TvmNimbleLike {
    compiled: Compiled,
    dynamic_ops: usize,
}

impl TvmNimbleLike {
    /// Compiles a graph for a device.
    pub fn new(graph: Graph, profile: DeviceProfile) -> Self {
        let compiled = Compiled::new(graph, profile, FusionPolicy::Static, false);
        // A shape function runs before every operator whose output shape is
        // not a static constant.
        let dynamic_ops = compiled
            .graph
            .nodes()
            .iter()
            .filter(|n| {
                n.outputs
                    .iter()
                    .any(|&t| compiled.rdp.shape_class(t) != ShapeClass::Known)
            })
            .count();
        TvmNimbleLike {
            compiled,
            dynamic_ops,
        }
    }
}

impl Engine for TvmNimbleLike {
    fn name(&self) -> &'static str {
        "TVM-N"
    }

    fn infer(&mut self, inputs: &[Tensor]) -> Result<InferenceStats, ExecError> {
        let outcome = self.compiled.run(inputs)?;
        let alloc_events = outcome.alloc_sizes.len();
        let mut lives = self.compiled.observed_lifetimes(&outcome);
        // The VM's register file holds tensors to the end of the enclosing
        // sub-function scope rather than freeing at last use: extend every
        // lifetime, then serve from size-class pools without planning.
        const VM_SCOPE_STEPS: usize = 14;
        let last = lives.iter().map(TensorLife::last_use).max().unwrap_or(0);
        for l in &mut lives {
            let ext = (l.last_use() + VM_SCOPE_STEPS).min(last);
            if !l.uses.contains(&ext) {
                l.uses.push(ext);
            }
        }
        let peak = size_class_peak(&lives);
        let mut trace = outcome.trace;
        for _ in 0..self.dynamic_ops {
            trace.push(TraceEvent::ShapeFunc);
        }
        for &b in &outcome.alloc_sizes {
            trace.push(TraceEvent::Alloc { bytes: b });
        }
        let latency = trace.price(&self.compiled.profile);
        Ok(InferenceStats {
            outputs: outcome.outputs,
            latency,
            peak_memory_bytes: peak,
            reinitialized: false,
            alloc_events,
            arena_backed: 0,
        })
    }
}

/// TFLite-style engine: re-initialization on shape change plus an optional
/// fixed memory budget honoured through XLA-style rematerialization.
pub struct TfLiteLike {
    compiled: Compiled,
    seen_shapes: HashSet<Vec<Vec<usize>>>,
    budget: Option<usize>,
}

impl TfLiteLike {
    /// Compiles a graph for a device.
    pub fn new(graph: Graph, profile: DeviceProfile) -> Self {
        TfLiteLike {
            compiled: Compiled::new(graph, profile, FusionPolicy::Rdp, false),
            seen_shapes: HashSet::new(),
            budget: None,
        }
    }

    /// Caps intermediate memory; overflow is handled by rematerialization
    /// (the Fig. 11 configuration).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        self
    }
}

impl Engine for TfLiteLike {
    fn name(&self) -> &'static str {
        "TFLite"
    }

    fn infer(&mut self, inputs: &[Tensor]) -> Result<InferenceStats, ExecError> {
        let key = shape_key(inputs);
        let reinit = self.seen_shapes.insert(key);
        let outcome = self.compiled.run(inputs)?;
        let alloc_events = outcome.alloc_sizes.len();
        let mut lives = self.compiled.observed_lifetimes(&outcome);
        let mut trace = outcome.trace;
        let mut remat_bytes = 0usize;
        if let Some(budget) = self.budget {
            if peak_live_bytes(&lives) > budget {
                let plan = rematerialize(&lives, budget);
                remat_bytes = plan.recompute_bytes;
                lives = plan.lives;
            }
        }
        if remat_bytes > 0 {
            // Recomputation: the dropped tensors' producers run again —
            // charge their data movement plus compute (approximated as a
            // memory-bound pass over the recomputed bytes).
            trace.push(TraceEvent::Kernel {
                name: "rematerialize".into(),
                cost: OpCost {
                    flops: 8.0 * remat_bytes as f64,
                    bytes_read: remat_bytes as f64,
                    bytes_written: remat_bytes as f64,
                },
                efficiency: None,
                working_set: remat_bytes,
                fused_ops: 1,
                group: 0,
            });
        }
        let plan = plan_best_fit(&lives);
        if reinit {
            let (sl, st, alloc) = price_reinit(
                &self.compiled.profile,
                self.compiled.graph.num_nodes(),
                outcome.alloc_sizes.len(),
                plan.peak,
            );
            trace.push(TraceEvent::Reinit { sl, st, alloc });
        }
        let latency = trace.price(&self.compiled.profile);
        Ok(InferenceStats {
            outputs: outcome.outputs,
            latency,
            peak_memory_bytes: plan.peak,
            reinitialized: reinit,
            alloc_events,
            arena_backed: 0,
        })
    }
}
