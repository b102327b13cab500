//! The SoD² engine: RDP → fusion → static execution planning → dynamic
//! memory planning → multi-version kernels, with native `<Switch,Combine>`
//! control flow. Each optimization can be toggled off for the Fig. 5/6
//! breakdown studies.

use crate::common::{bindings_from_inputs, Engine, InferenceStats};
use sod2_device::DeviceProfile;
use sod2_fusion::{fuse, FusionPlan, FusionPolicy};
use sod2_ir::{Graph, NodeId, Op, TensorId};
use sod2_mem::{plan_sod2, size_class_peak, verify_plan, Arena, MemoryPlan, TensorLife};
use sod2_mvc::VersionTable;
use sod2_plan::{
    naive_unit_order, partition_units, plan_order, plan_wavefronts, unit_lifetimes,
    wavefront_lifetimes, Partition, SepOptions, UnitGraph, WavefrontOptions, WavefrontSchedule,
};
use sod2_rdp::{analyze, RdpResult};
use sod2_runtime::{
    compile_tape, execute, execute_tape, ArenaBacking, BakedVariant, ExecConfig, ExecError,
    ExecutionTrace, RunOutcome, TapeProgram, TapeStats, TraceEvent, WaveExecPlan,
};
use sod2_sym::Bindings;
use sod2_tensor::Tensor;
use std::collections::{HashMap, HashSet};

/// Which optimizations the engine applies (paper §5.3's ladder).
#[derive(Debug, Clone, Copy)]
pub struct Sod2Options {
    /// Fusion policy (the "No opt." baseline keeps static fusion).
    pub fusion: FusionPolicy,
    /// Static execution planning (§4.3).
    pub sep: bool,
    /// Dynamic memory planning (§4.4.1).
    pub dmp: bool,
    /// Multi-version code generation (§4.4.2).
    pub mvc: bool,
    /// Native control flow (dead branches skipped); `false` reproduces the
    /// "execute-all, strip-out-invalid" comparison of Fig. 9.
    pub native_control_flow: bool,
    /// Serve intermediate tensors from a pre-planned arena slab instead of
    /// per-tensor heap allocations (the operational form of §4.4.1's
    /// offset plan). Requires `dmp`; tensors whose size RDP cannot resolve
    /// at the current bindings fall back to the heap.
    pub arena_exec: bool,
    /// Per-inference wall-clock deadline. Execution is cancelled
    /// cooperatively — at node boundaries and inside chunked pool loops —
    /// and the inference fails with [`ExecError::DeadlineExceeded`],
    /// leaving the engine reusable.
    pub deadline: Option<std::time::Duration>,
    /// Cap (bytes) on intermediate-tensor memory per inference, enforced
    /// both against the pre-execution DMP plan and against live heap
    /// allocations at runtime; exceeding it fails with
    /// [`ExecError::BudgetExceeded`].
    pub memory_budget: Option<usize>,
    /// Fail with [`ExecError::NumericFault`] when a non-finite value
    /// reaches an output instead of returning poisoned results.
    pub nan_guard: bool,
    /// Execute independent SEP units of one wavefront concurrently on the
    /// shared worker pool (inter-op parallelism). Results stay bitwise
    /// identical to serial execution; only scheduling changes. Defaults to
    /// the `SOD2_WAVEFRONT` environment variable (unset/`1` → on,
    /// `0`/`false`/`off`/`no` → off).
    pub wavefront_exec: bool,
    /// Memory-slack knob for wavefront planning: the concurrent peak may
    /// exceed the serial SEP peak by at most this fraction (waves are split
    /// until the bound holds). Defaults to `SOD2_WAVE_SLACK` or `0.5`.
    pub wavefront_slack: f64,
    /// Consume abstract-interpretation certificates: prune `Switch` arms
    /// with proven-constant selectors at compile time (requires
    /// `native_control_flow`; the pruned graph is verified
    /// output-equivalent first), plan bounded-`nac` tensors into the arena
    /// from proven element bounds, and elide the per-node NaN fence for
    /// proven-finite tensors when `nan_guard` is on.
    pub absint: bool,
    /// Has no effect: the compiled register-machine tape is the engine's
    /// only executor. Kept, default `true`, only because the wall-clock
    /// benchmark's compile-stage replay reads it.
    pub tape_exec: bool,
    /// Capacity of the per-engine DMP pre-plan cache (entries keyed by
    /// bindings). Serving replicas bound this to cap per-replica plan
    /// memory; `0` disables caching entirely (every inference re-plans,
    /// which is also how the cache's priced benefit is measured). The
    /// cache is semantically transparent — outputs and memory metrics are
    /// identical at any capacity.
    pub pre_plan_cache_cap: usize,
}

/// Reads a boolean environment flag: `0`/`false`/`off`/`no` disable, any
/// other set value enables, unset keeps the default.
fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => default,
    }
}

impl Default for Sod2Options {
    fn default() -> Self {
        Sod2Options {
            fusion: FusionPolicy::Rdp,
            sep: true,
            dmp: true,
            mvc: true,
            native_control_flow: true,
            arena_exec: true,
            deadline: None,
            memory_budget: None,
            nan_guard: false,
            wavefront_exec: env_flag("SOD2_WAVEFRONT", true),
            wavefront_slack: std::env::var("SOD2_WAVE_SLACK")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0.5),
            absint: true,
            tape_exec: true,
            pre_plan_cache_cap: DEFAULT_PRE_PLAN_CACHE_CAP,
        }
    }
}

impl Sod2Options {
    /// The "No opt." baseline of Fig. 5/6: static fusion and constant
    /// folding only, no RDP-enabled optimization.
    pub fn no_opt() -> Self {
        Sod2Options {
            fusion: FusionPolicy::Static,
            sep: false,
            dmp: false,
            mvc: false,
            arena_exec: false,
            wavefront_exec: false,
            absint: false,
            ..Sod2Options::default()
        }
    }
}

/// Deterministic wavefront statistics for the last inference, derived from
/// the static schedule and the priced kernel trace (no wallclock): the
/// makespan is what greedy list scheduling of the priced unit costs onto
/// [`WAVE_WORKERS`] workers achieves, wave by wave.
#[derive(Debug, Clone, Copy)]
pub struct WaveStats {
    /// Number of wavefronts in the schedule.
    pub wave_count: usize,
    /// Widest wavefront (units able to run concurrently).
    pub max_width: usize,
    /// Times the memory bound split a wave.
    pub splits: usize,
    /// Priced serial kernel seconds (sum over all units).
    pub serial_s: f64,
    /// Priced scheduled makespan at [`WAVE_WORKERS`] workers.
    pub makespan_s: f64,
    /// Critical-path seconds through the unit DAG — the lower bound no
    /// schedule (with any worker count) can beat.
    pub critical_s: f64,
    /// Peak bytes of the serial SEP order (at planning sizes).
    pub serial_peak: usize,
    /// Concurrent peak of the wavefront schedule (at planning sizes).
    pub parallel_peak: usize,
    /// The planner gave up and degenerated to serial singleton waves.
    pub serial_fallback: bool,
    /// This inference ran serially because the runtime re-verification of
    /// the arena plan against the parallel live ranges failed.
    pub runtime_fallback: bool,
}

/// Worker count the deterministic scheduled makespan is quoted at.
pub const WAVE_WORKERS: usize = 4;

/// A static (pre-execution) cost prediction for one request's bindings,
/// from [`Sod2Engine::predict`]. Deterministic: pure functions of the
/// request shapes, the RDP result, and the device cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPrediction {
    /// Cost-model seconds summed over every node whose shapes resolve
    /// concretely at these bindings (an optimistic lower bound).
    pub priced_s: f64,
    /// The DMP pre-plan's peak intermediate bytes — the value the engine's
    /// own budget admission enforces (0 when arena planning is off).
    pub peak_bytes: usize,
    /// Nodes that contributed to `priced_s`.
    pub priced_nodes: usize,
    /// Compute nodes considered (control-flow ops excluded).
    pub total_nodes: usize,
}

/// The SoD² execution engine.
pub struct Sod2Engine {
    graph: Graph,
    profile: DeviceProfile,
    opts: Sod2Options,
    rdp: RdpResult,
    certs: sod2_analysis::Certificates,
    fusion_plan: FusionPlan,
    unit_graph: UnitGraph,
    /// The schedulable unit of each fusion group (by group index), for
    /// attributing priced kernel events to units.
    group_unit: Vec<Option<usize>>,
    partitions: Vec<Partition>,
    unit_order: Vec<usize>,
    /// The SEP (serial) unit order, before wavefront flattening — the
    /// schedule serial-granularity memory metrics are quoted on.
    sep_unit_order: Vec<usize>,
    node_order: Vec<NodeId>,
    /// `Arc`-shared so `fork_replica` hands every serving replica the same
    /// tuned table without re-tuning or copying.
    table: Option<std::sync::Arc<VersionTable>>,
    /// The arena slab for `arena_exec`, reused (grow-never-shrink) across
    /// inferences so steady-state runs allocate nothing.
    arena: Option<Arena>,
    /// The static wavefront schedule (unit granularity), when enabled.
    wave_schedule: Option<WavefrontSchedule>,
    /// The same schedule lowered to node granularity for the executor.
    wave_exec: Option<WaveExecPlan>,
    /// Wavefront statistics of the most recent inference.
    last_wave: Option<WaveStats>,
    /// The plan compiled to a flat instruction tape, or the lowering
    /// error every inference then reports.
    tape: Result<std::sync::Arc<TapeProgram>, String>,
    /// Pre-execution DMP results keyed by this inference's bindings: the
    /// RDP size evaluation, bounded-`nac` lookup, liveness extraction,
    /// offset planning, and plan re-verification depend only on the
    /// bindings (given the compiled schedule), so repeat shapes skip
    /// straight to arena reset. Per-inference counters are replayed from
    /// the entry to keep observability identical to the uncached path.
    pre_plan_cache: Vec<(Bindings, PrePlanEntry)>,
}

/// Cached outcome of the `dmp_pre_plan` phase for one bindings value.
#[derive(Clone)]
struct PrePlanEntry {
    /// Keys planned at an absint element bound rather than an RDP size.
    bounded_keys: HashSet<usize>,
    /// `absint.nac_bounds_used` increment to replay (`None` when the
    /// bounded-planning branch did not run at all).
    nac_counter: Option<u64>,
    /// Lifetimes the plan was built from (wave granularity when the
    /// wavefront plan passed re-verification, unit granularity otherwise).
    pre_lives: Vec<TensorLife>,
    /// The offset plan (`None` when arena execution is off).
    pre_plan: Option<MemoryPlan>,
    /// Plan re-verification against parallel live ranges failed — this
    /// bindings value always degrades to serial execution.
    wave_fallback: bool,
    /// Per-key planned sizes handed to the executor's arena backing.
    pre_sizes: HashMap<usize, usize>,
}

/// Default capacity of the per-bindings pre-plan cache (small and linear:
/// real serving traffic cycles through a handful of shape configurations).
pub const DEFAULT_PRE_PLAN_CACHE_CAP: usize = 8;

impl Sod2Engine {
    /// Compiles a graph for a device (the pre-deployment phase, §4.1).
    ///
    /// `repr_bindings` provide representative symbol values used only to
    /// compare symbolic tensor sizes during execution-order planning.
    pub fn new(
        graph: Graph,
        profile: DeviceProfile,
        opts: Sod2Options,
        repr_bindings: &Bindings,
    ) -> Self {
        let _compile_span = sod2_obs::span!("compile", "Sod2Engine::new");
        // General static optimizations first (the paper's baseline already
        // includes constant folding): fold + prune, then analyze.
        let (graph, _pass_stats) = {
            let _s = sod2_obs::span!("stage", "fold_constants");
            sod2_runtime::fold_constants(&graph)
        };
        let rdp = {
            let _s = sod2_obs::span!("stage", "rdp_solve");
            analyze(&graph)
        };
        // Abstract interpretation: typed certificates (ranges, finiteness,
        // constness, nac element bounds) over the folded graph. When a
        // Switch selector is proven constant, the dead arms are folded out
        // here — but only after an output-equivalence check of the pruned
        // graph, and the analyses are re-derived on what will actually run.
        let (graph, rdp, certs) = {
            let _s = sod2_obs::span!("stage", "absint");
            let (certs, certs_report) = sod2_analysis::certify(&graph, &rdp);
            let pruned = (opts.absint && opts.native_control_flow && !certs_report.has_errors())
                .then(|| sod2_analysis::prune_dead_arms(&graph, &certs))
                .flatten()
                .filter(|out| sod2_analysis::verify_arm_pruning(&graph, &out.graph).is_empty());
            match pruned {
                Some(out) => {
                    sod2_obs::counter_add("absint.pruned_arms", out.pruned_arms as u64);
                    let graph = out.graph;
                    let rdp = analyze(&graph);
                    let (certs, _) = sod2_analysis::certify(&graph, &rdp);
                    (graph, rdp, certs)
                }
                None => (graph, rdp, certs),
            }
        };
        let fusion_plan = {
            let _s = sod2_obs::span!("stage", "fusion");
            fuse(&graph, &rdp, opts.fusion)
        };
        let (unit_graph, partitions) = {
            let _s = sod2_obs::span!("stage", "partition");
            let unit_graph = UnitGraph::build(&graph, &fusion_plan);
            let partitions = partition_units(&graph, &rdp, &fusion_plan, &unit_graph);
            (unit_graph, partitions)
        };
        // Representative sizes for order planning: symbolic byte counts
        // evaluated at the provided bindings, unspecified symbols at a
        // moderate default so relative magnitudes stay meaningful.
        const DEFAULT_DIM: i64 = 32;
        let size_of = |t: TensorId| -> usize {
            rdp.symbolic_bytes(&graph, t)
                .and_then(|e| e.eval_with_default(repr_bindings, DEFAULT_DIM))
                .map(|b| b.max(0) as usize)
                .unwrap_or(4096)
        };
        let sep_span = sod2_obs::span!("stage", "sep_plan");
        let unit_order = if opts.sep {
            let planned = plan_order(
                &graph,
                &unit_graph,
                &partitions,
                &size_of,
                SepOptions::default(),
            )
            .unit_order;
            let naive = naive_unit_order(&unit_graph);
            // The search above minimizes live bytes at one representative
            // size, but the engine pays a different objective at runtime —
            // the achieved offset-plan peak (with DMP) or the pooling
            // allocator's high-water mark (without) — and the concrete
            // dynamic dims are unknown statically. Judge both candidate
            // orders by the runtime objective across a spread of dims and
            // keep the planned order only when it never loses: the static
            // plan must not regress against the as-built baseline.
            const DIM_SWEEP: [i64; 5] = [8, 16, 32, 64, 128];
            let objective = |order: &[usize], dim: i64| -> usize {
                let size_at = |t: TensorId| -> usize {
                    rdp.symbolic_bytes(&graph, t)
                        .and_then(|e| e.eval_with_default(repr_bindings, dim))
                        .map(|b| b.max(0) as usize)
                        .unwrap_or(4096)
                };
                let lives: Vec<TensorLife> = unit_lifetimes(&graph, &unit_graph, order, &size_at)
                    .into_iter()
                    .filter(|l| l.size > 0)
                    .collect();
                if opts.dmp {
                    plan_sod2(&lives).peak
                } else {
                    size_class_peak(&lives)
                }
            };
            let dominates = DIM_SWEEP
                .iter()
                .all(|&d| objective(&planned, d) <= objective(&naive, d));
            if dominates {
                planned
            } else {
                naive
            }
        } else {
            naive_unit_order(&unit_graph)
        };
        // Wavefront schedule over the chosen unit order: dependence-
        // respecting level sets, split until the concurrent peak fits
        // within `serial_peak × (1 + slack)`. The executed unit order
        // becomes the flattened wave order (still a valid topological
        // order — outputs are order-independent).
        let wave_opts = WavefrontOptions {
            slack: opts.wavefront_slack,
            ..WavefrontOptions::default()
        };
        let wave_schedule = if opts.wavefront_exec {
            let _s = sod2_obs::span!("stage", "wavefront_plan");
            Some(plan_wavefronts(
                &graph,
                &unit_graph,
                &unit_order,
                &size_of,
                wave_opts,
            ))
        } else {
            None
        };
        // Keep the SEP order for serial-granularity memory reporting; the
        // *executed* order becomes the flattened wave order when waves are
        // on (both are valid topological orders — outputs are identical).
        let sep_unit_order = unit_order.clone();
        let unit_order = match &wave_schedule {
            Some(ws) => ws.flat_unit_order(),
            None => unit_order,
        };
        let wave_exec = wave_schedule.as_ref().map(|ws| WaveExecPlan {
            waves: ws
                .waves
                .iter()
                .map(|wave| {
                    wave.iter()
                        .map(|&u| unit_graph.units[u].nodes.clone())
                        .collect()
                })
                .collect(),
        });
        let node_order: Vec<NodeId> = unit_order
            .iter()
            .flat_map(|&u| unit_graph.units[u].nodes.iter().copied())
            .collect();
        drop(sep_span);
        let table = if opts.mvc {
            let _s = sod2_obs::span!("stage", "mvc_tune");
            // Persistent-cache path: a warm cache loads the identical
            // table with zero GA generations (tuning is deterministic, so
            // the cache only amortizes cost, never changes selection).
            let (table, status) = VersionTable::load_or_tune(
                &profile,
                0xC0DE,
                sod2_mvc::cache::cache_dir().as_deref(),
            );
            if status.rejected.is_some() {
                sod2_obs::counter_add("mvc.cache_rejected", 1);
            }
            Some(std::sync::Arc::new(table))
        } else {
            None
        };
        // Lower the compiled plan to the execution tape: a flat instruction
        // stream with registers, release lists, group tails, and wave
        // ranges all resolved at compile time. Construction stays
        // infallible: a lowering failure is counted, so CI can notice, and
        // every inference then fails with it as a typed error.
        let tape_layout = {
            let _s = sod2_obs::span!("stage", "tape_compile");
            sod2_plan::plan_tape_layout(&graph, &node_order)
        };
        // Bake tuned kernel variants into the tape for hotspot nodes whose
        // output shapes RDP proves concrete under empty bindings: their
        // shape class — hence their tuned version — is a compile-time
        // constant, so dispatch skips runtime selection. Data-dependent
        // (`nac`-shaped) nodes keep selecting per inference.
        let baked_variants: Option<HashMap<NodeId, BakedVariant>> = table.as_ref().map(|t| {
            let empty = Bindings::default();
            let mut baked = HashMap::new();
            for node in graph.nodes() {
                let Some(&out) = node.outputs.first() else {
                    continue;
                };
                let Some(shape) = rdp.concrete_shape(out, &empty) else {
                    continue;
                };
                match &node.op {
                    Op::MatMul | Op::Gemm { .. } if shape.len() >= 2 => {
                        let m = shape[shape.len() - 2].max(1) as usize;
                        let n = shape[shape.len() - 1].max(1) as usize;
                        baked.insert(node.id, BakedVariant::Gemm(t.select(m, n)));
                    }
                    Op::Conv2d { .. } if shape.len() == 4 => {
                        let co = shape[1].max(1) as usize;
                        let spatial = (shape[2] * shape[3]).max(1) as usize;
                        baked.insert(node.id, BakedVariant::Conv(t.select_conv(co, spatial)));
                    }
                    _ => {}
                }
            }
            baked
        });
        let tape = {
            let _s = sod2_obs::span!("stage", "tape_compile");
            compile_tape(
                &graph,
                &tape_layout,
                &node_order,
                Some(&fusion_plan),
                true,
                opts.absint.then_some(certs.finite.as_slice()),
                wave_exec.as_ref(),
                baked_variants.as_ref(),
            )
            .map(std::sync::Arc::new)
            .map_err(|e| {
                sod2_obs::counter_add("tape.compile_failures", 1);
                e.to_string()
            })
        };
        // Debug-mode verification stage: the compiled artifacts must pass
        // the static verifiers before the engine is allowed to run.
        #[cfg(debug_assertions)]
        {
            let mut stage = sod2_analysis::Report::new();
            stage.extend(sod2_analysis::verify_fusion(&graph, &fusion_plan));
            stage.extend(sod2_analysis::verify_unit_order(&unit_graph, &unit_order));
            stage.extend(sod2_analysis::verify_node_order(&graph, &node_order));
            if let Some(ws) = &wave_schedule {
                let wave_lives: Vec<TensorLife> =
                    wavefront_lifetimes(&graph, &unit_graph, &ws.waves, &size_of)
                        .into_iter()
                        .filter(|l| l.size > 0)
                        .collect();
                let wave_plan = plan_sod2(&wave_lives);
                stage.extend(sod2_analysis::verify_wavefront_schedule(
                    &graph,
                    &unit_graph,
                    ws,
                    &size_of,
                    wave_opts.slack,
                    Some(&wave_plan),
                ));
            }
            if let Ok(tp) = &tape {
                stage.extend(sod2_analysis::verify_tape(
                    &graph,
                    &node_order,
                    Some(&fusion_plan),
                    tp,
                ));
            }
            debug_assert!(
                !stage.has_errors(),
                "compiled plan failed verification:\n{}",
                stage.render_text(Some(&graph))
            );
        }
        let mut group_unit = vec![None; fusion_plan.groups.len()];
        for (u, unit) in unit_graph.units.iter().enumerate() {
            if let Some(&n0) = unit.nodes.first() {
                group_unit[fusion_plan.group_of(n0)] = Some(u);
            }
        }
        Sod2Engine {
            graph,
            profile,
            opts,
            rdp,
            certs,
            fusion_plan,
            unit_graph,
            group_unit,
            partitions,
            unit_order,
            sep_unit_order,
            node_order,
            table,
            arena: None,
            wave_schedule,
            wave_exec,
            last_wave: None,
            tape,
            pre_plan_cache: Vec::new(),
        }
    }

    /// Stamps out an execution replica sharing this engine's compiled
    /// artifacts: the register-machine tape stays `Arc`-shared (one
    /// lowering serves every replica; each inference brings its own
    /// register file), tensor payloads inside the graph are `Arc`-shared,
    /// and the schedules/certificates are cheap vector clones. The replica
    /// gets its own arena slab (allocated lazily on first inference) and
    /// starts from this engine's warm pre-plan cache, so a freshly forked
    /// replica serves known shape classes without re-planning. No
    /// recompilation happens — this is what makes serving replicas cheap
    /// to stamp out per worker thread.
    pub fn fork_replica(&self) -> Sod2Engine {
        Sod2Engine {
            graph: self.graph.clone(),
            profile: self.profile.clone(),
            opts: self.opts,
            rdp: self.rdp.clone(),
            certs: self.certs.clone(),
            fusion_plan: self.fusion_plan.clone(),
            unit_graph: self.unit_graph.clone(),
            group_unit: self.group_unit.clone(),
            partitions: self.partitions.clone(),
            unit_order: self.unit_order.clone(),
            sep_unit_order: self.sep_unit_order.clone(),
            node_order: self.node_order.clone(),
            table: self.table.clone(),
            arena: None,
            wave_schedule: self.wave_schedule.clone(),
            wave_exec: self.wave_exec.clone(),
            last_wave: None,
            tape: self.tape.clone(),
            pre_plan_cache: self.pre_plan_cache.clone(),
        }
    }

    /// Static statistics of the compiled execution tape (`None` when
    /// lowering failed).
    pub fn tape_stats(&self) -> Option<TapeStats> {
        self.tape().map(TapeProgram::stats)
    }

    /// The compiled execution tape itself, for external verification
    /// (`None` when lowering failed).
    pub fn tape(&self) -> Option<&TapeProgram> {
        self.tape.as_deref().ok()
    }

    /// The planned node order the tape was lowered from.
    pub fn node_order(&self) -> &[NodeId] {
        &self.node_order
    }

    /// The compiled wavefront schedule, when wavefront execution is on.
    pub fn wave_schedule(&self) -> Option<&WavefrontSchedule> {
        self.wave_schedule.as_ref()
    }

    /// Wavefront statistics of the most recent inference (`None` before
    /// the first inference or with wavefront execution off).
    pub fn last_wave_stats(&self) -> Option<WaveStats> {
        self.last_wave
    }

    /// Prices each kernel event individually and attributes the seconds to
    /// its schedulable unit via the event's fusion-group id; indexed by
    /// unit.
    fn priced_unit_seconds(&self, trace: &ExecutionTrace) -> Vec<f64> {
        let mut out = vec![0.0f64; self.unit_graph.units.len()];
        for e in &trace.events {
            if let TraceEvent::Kernel {
                cost,
                efficiency,
                working_set,
                group,
                ..
            } = e
            {
                let eff = efficiency.unwrap_or(self.profile.base_efficiency);
                let s = sod2_device::price_kernel(&self.profile, cost, eff, *working_set);
                if let Some(&Some(u)) = self.group_unit.get(*group) {
                    out[u] += s;
                }
            }
        }
        out
    }

    /// The compiled fusion plan.
    pub fn fusion_plan(&self) -> &FusionPlan {
        &self.fusion_plan
    }

    /// The RDP analysis result.
    pub fn rdp(&self) -> &RdpResult {
        &self.rdp
    }

    /// The partitions (Fig. 8 data).
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The planned unit order.
    pub fn unit_order(&self) -> &[usize] {
        &self.unit_order
    }

    /// The unit graph.
    pub fn unit_graph(&self) -> &UnitGraph {
        &self.unit_graph
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Adjusts the per-inference deadline at runtime (deadlines are an
    /// inference property, not a compile-time one — no recompilation).
    pub fn set_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.opts.deadline = deadline;
    }

    /// Adjusts the per-inference memory budget at runtime.
    pub fn set_memory_budget(&mut self, budget: Option<usize>) {
        self.opts.memory_budget = budget;
    }

    /// Toggles the output NaN guard at runtime.
    pub fn set_nan_guard(&mut self, on: bool) {
        self.opts.nan_guard = on;
    }

    /// Statically prices one request *without executing anything*: the
    /// paper's execution-time/memory prediction pillar used as an
    /// admission valve. Shapes come from RDP shape propagation at the
    /// request's bindings, seconds from the device cost model, and
    /// `peak_bytes` is the DMP pre-plan's peak — exactly the value the
    /// engine's own budget admission would enforce at dispatch.
    ///
    /// The priced seconds are an *optimistic* (lower-bound) estimate:
    /// nodes whose shapes stay symbolic or `nac` at these bindings are
    /// skipped (counted in `total_nodes - priced_nodes`), and every
    /// `Switch` arm is assumed reachable-but-free, so a predictor-driven
    /// admission gate only sheds requests that are certainly doomed.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadInputs`] when the inputs don't bind the graph's
    /// symbols (wrong rank or contradictory dimensions).
    pub fn predict(&self, inputs: &[Tensor]) -> Result<CostPrediction, ExecError> {
        let bindings = bindings_from_inputs(&self.graph, inputs).map_err(ExecError::BadInputs)?;
        let arena_on = self.opts.dmp && self.opts.arena_exec;
        // Reuse a cached pre-plan when these bindings are warm; otherwise
        // price from a fresh (uncached — `&self`) pre-plan.
        let peak_bytes = self
            .pre_plan_cache
            .iter()
            .find(|(b, _)| b == &bindings)
            .map(|(_, e)| e.pre_plan.as_ref().map(|p| p.peak).unwrap_or(0))
            .unwrap_or_else(|| {
                self.build_pre_plan(&bindings, arena_on)
                    .pre_plan
                    .as_ref()
                    .map(|p| p.peak)
                    .unwrap_or(0)
            });
        let concrete = |t: TensorId| -> Option<Vec<usize>> {
            self.rdp.concrete_shape(t, &bindings).map(|dims| {
                dims.into_iter()
                    .map(|d| usize::try_from(d).unwrap_or(0))
                    .collect()
            })
        };
        let mut priced_s = 0.0;
        let mut priced_nodes = 0;
        let mut total_nodes = 0;
        for &id in &self.node_order {
            let node = self.graph.node(id);
            if node.op.is_control_flow() {
                continue;
            }
            total_nodes += 1;
            let ins: Option<Vec<Vec<usize>>> = node.inputs.iter().map(|&t| concrete(t)).collect();
            let outs: Option<Vec<Vec<usize>>> = node.outputs.iter().map(|&t| concrete(t)).collect();
            let (Some(ins), Some(outs)) = (ins, outs) else {
                continue;
            };
            let elem = node
                .outputs
                .first()
                .map(|&t| self.graph.tensor(t).dtype.size_bytes())
                .unwrap_or(4);
            let cost = sod2_device::op_cost(&node.op, &ins, &outs, elem);
            let working_set = (cost.bytes_read + cost.bytes_written) as usize;
            priced_s += sod2_device::price_kernel(
                &self.profile,
                &cost,
                self.profile.base_efficiency,
                working_set,
            );
            priced_nodes += 1;
        }
        Ok(CostPrediction {
            priced_s,
            peak_bytes,
            priced_nodes,
            total_nodes,
        })
    }

    /// Lifetimes of the tensors materialized in `outcome`, on the planned
    /// order (dead-branch tensors excluded — a native-control-flow win).
    fn observed_lifetimes(&self, outcome: &RunOutcome) -> Vec<TensorLife> {
        let size_of = |t: TensorId| -> usize {
            outcome
                .concrete_shapes
                .get(&t)
                .map(|s| s.iter().product::<usize>() * self.graph.tensor(t).dtype.size_bytes())
                .unwrap_or(0)
        };
        // Always over the serial SEP order: `peak_memory_bytes` is the
        // §4.4.1 offset-plan metric, comparable across engines and modes.
        // The concurrent peak of wavefront execution is reported separately
        // in [`WaveStats::parallel_peak`], bounded by the slack knob.
        unit_lifetimes(
            &self.graph,
            &self.unit_graph,
            &self.sep_unit_order,
            &size_of,
        )
        .into_iter()
        .filter(|l| l.size > 0)
        .collect()
    }

    /// Computes the cacheable part of the `dmp_pre_plan` phase for one
    /// bindings value. Budget admission, arena reset, and counter emission
    /// stay per-inference in the caller.
    fn build_pre_plan(&self, bindings: &Bindings, arena_on: bool) -> PrePlanEntry {
        let rdp_size = |t: TensorId| -> usize {
            self.rdp
                .symbolic_bytes(&self.graph, t)
                .and_then(|e| e.eval(bindings))
                .map(|b| b.max(0) as usize)
                .unwrap_or(0)
        };
        // Bounded planning of the `nac` residue: the abstract
        // interpretation's element-bound lattice proves upper bounds for
        // execution-determined outputs (NMS keeps at most `max_output`
        // indices, a Gather indexed by a bounded tensor inherits the bound
        // times the slice size, and so on through any downstream op).
        // Planning the slot at the bound (the executor accepts any write
        // that fits a bounded slot) removes those per-inference heap
        // allocations entirely — no per-op special cases.
        let mut bound_bytes: HashMap<usize, usize> = HashMap::new();
        let mut bounded_keys: HashSet<usize> = HashSet::new();
        let mut nac_counter = None;
        if arena_on && self.opts.absint {
            for t in self.graph.tensor_ids() {
                let key = t.0 as usize;
                let Some(expr) = &self.certs.elem_bounds[key] else {
                    continue;
                };
                if rdp_size(t) != 0 {
                    continue;
                }
                if let Some(elems) = expr.eval(bindings).and_then(|e| usize::try_from(e).ok()) {
                    bound_bytes.insert(key, elems * self.graph.tensor(t).dtype.size_bytes());
                    bounded_keys.insert(key);
                }
            }
            nac_counter = Some(bounded_keys.len() as u64);
        }
        let eff_size = |t: TensorId| -> usize {
            let s = rdp_size(t);
            if s > 0 {
                s
            } else {
                bound_bytes.get(&(t.0 as usize)).copied().unwrap_or(0)
            }
        };
        // With wavefront execution the plan must be valid under *concurrent*
        // liveness: wave-granularity lifetimes treat every tensor of a wave
        // as live across the whole wave. They over-cover the serial order
        // too, so the resulting plan stays sound for the serial fallback.
        let mut pre_lives: Vec<TensorLife> = if arena_on {
            let lives = match &self.wave_schedule {
                Some(ws) => {
                    wavefront_lifetimes(&self.graph, &self.unit_graph, &ws.waves, &eff_size)
                }
                None => unit_lifetimes(&self.graph, &self.unit_graph, &self.unit_order, &eff_size),
            };
            lives.into_iter().filter(|l| l.size > 0).collect()
        } else {
            Vec::new()
        };
        // Runtime DMP admission for parallel execution: re-verify the offset
        // plan against the parallel live ranges at this inference's concrete
        // sizes. Unprovable → degrade this inference to serial execution and
        // re-plan at serial (unit) granularity.
        let mut wave_fallback = false;
        let mut pre_plan = arena_on.then(|| plan_sod2(&pre_lives));
        if let (Some(p), Some(_)) = (&pre_plan, &self.wave_exec) {
            if !verify_plan(&pre_lives, p).is_empty() {
                wave_fallback = true;
                pre_lives =
                    unit_lifetimes(&self.graph, &self.unit_graph, &self.unit_order, &eff_size)
                        .into_iter()
                        .filter(|l| l.size > 0)
                        .collect();
                pre_plan = Some(plan_sod2(&pre_lives));
            }
        }
        let pre_sizes: HashMap<usize, usize> = pre_lives.iter().map(|l| (l.key, l.size)).collect();
        PrePlanEntry {
            bounded_keys,
            nac_counter,
            pre_lives,
            pre_plan,
            wave_fallback,
            pre_sizes,
        }
    }

    /// Runs inference and returns the memory plan alongside the stats
    /// (used by the memory-planner ablation experiment).
    pub fn infer_with_plan(
        &mut self,
        inputs: &[Tensor],
    ) -> Result<(InferenceStats, MemoryPlan), ExecError> {
        let _infer_span = sod2_obs::span!("infer", "Sod2Engine::infer");
        sod2_obs::counter_add("infer.count", 1);
        let tape = match &self.tape {
            Ok(tp) => std::sync::Arc::clone(tp),
            Err(e) => return Err(ExecError::Internal(format!("tape lowering failed: {e}"))),
        };
        let mut bindings = {
            let _s = sod2_obs::span!("phase", "bindings");
            bindings_from_inputs(&self.graph, inputs).map_err(ExecError::BadInputs)?
        };
        // Injected binding corruption (`runtime.bindings`): the engine loses
        // every symbol binding, so the pre-execution plan covers nothing and
        // all intermediates degrade to heap allocations — outputs stay
        // correct because execution uses concrete tensors, not bindings.
        let bindings_corrupted = sod2_faults::probe(sod2_faults::Site::Bindings).is_some();
        if bindings_corrupted {
            bindings.clear();
        }
        // Pre-execution memory plan for arena-backed execution: RDP's
        // symbolic byte counts evaluated at this inference's bindings give
        // exact sizes for every shape-resolvable tensor *before any kernel
        // runs* — the paper's runtime DMP. Tensors RDP cannot resolve
        // (`nac`) get size 0 here, drop out of the plan, and are heap
        // allocated by the executor: the dynamic residue.
        let arena_on = self.opts.dmp && self.opts.arena_exec;
        let dmp_span = sod2_obs::span!("phase", "dmp_pre_plan");
        // The whole pre-plan pipeline — size evaluation, bounded-`nac`
        // lookup, liveness, offset planning, parallel re-verification —
        // is a pure function of the bindings given the compiled schedule,
        // so it is cached per bindings value. Counters the uncached path
        // would emit per inference are replayed from the entry.
        let cache_cap = self.opts.pre_plan_cache_cap;
        let mut pre_plan_hit = false;
        let entry = match self.pre_plan_cache.iter().position(|(b, _)| b == &bindings) {
            Some(i) => {
                let hit = self.pre_plan_cache.remove(i);
                self.pre_plan_cache.insert(0, hit);
                sod2_obs::counter_add("dmp.pre_plan_cache_hits", 1);
                pre_plan_hit = true;
                self.pre_plan_cache[0].1.clone()
            }
            None => {
                let e = self.build_pre_plan(&bindings, arena_on);
                if cache_cap > 0 {
                    self.pre_plan_cache.insert(0, (bindings.clone(), e.clone()));
                    self.pre_plan_cache.truncate(cache_cap);
                }
                e
            }
        };
        if let Some(n) = entry.nac_counter {
            sod2_obs::counter_add("absint.nac_bounds_used", n);
        }
        if entry.wave_fallback {
            sod2_obs::counter_add("exec.wave_fallbacks", 1);
        }
        let PrePlanEntry {
            bounded_keys,
            pre_lives,
            pre_plan: pre_plan_opt,
            wave_fallback,
            pre_sizes,
            ..
        } = entry;
        let wavefront = self.wave_exec.is_some() && !wave_fallback;
        let runtime_fallback = self.wave_exec.is_some() && wave_fallback;
        let backing = if let Some(pre_plan) = pre_plan_opt {
            // Budget admission at DMP time: the plan's peak is known before
            // any kernel runs, so an over-budget inference is rejected
            // without doing (or allocating) any work.
            if let Some(budget) = self.opts.memory_budget {
                if pre_plan.peak > budget {
                    return Err(ExecError::BudgetExceeded {
                        needed: pre_plan.peak,
                        budget,
                    });
                }
            }
            // Slab allocation failure (real or injected `arena.alloc`)
            // degrades to per-tensor heap allocation — the arena→heap rung
            // of the ladder; the run proceeds, just less efficiently.
            let arena_ok = match &mut self.arena {
                Some(a) => a.try_reset(pre_plan),
                slot => match Arena::try_new(pre_plan) {
                    Some(a) => {
                        *slot = Some(a);
                        true
                    }
                    None => false,
                },
            };
            if !arena_ok {
                sod2_obs::counter_add("mem.arena_alloc_failures", 1);
            }
            match (arena_ok, self.arena.as_mut()) {
                (true, Some(arena)) => {
                    sod2_obs::gauge_max("mem.arena_capacity_bytes", arena.capacity() as u64);
                    Some(ArenaBacking {
                        arena,
                        sizes: &pre_sizes,
                        bounded: &bounded_keys,
                    })
                }
                _ => None,
            }
        } else {
            None
        };
        drop(dmp_span);
        // The tape carries its plan (order, fusion, certificates, wave
        // ranges); only the runtime knobs and the per-inference
        // serial-fallback decision are passed down.
        let cfg = ExecConfig {
            version_table: self.table.as_deref(),
            execute_all_branches: !self.opts.native_control_flow,
            nan_guard: self.opts.nan_guard,
            memory_budget: self.opts.memory_budget,
            ..ExecConfig::default()
        };
        let deadline = self.opts.deadline.map(|d| std::time::Instant::now() + d);
        let outcome = {
            let _s = sod2_obs::span!("phase", "execute");
            // Panics from kernels or pool chunks are converted to a typed
            // error here so a failed inference can never wedge the engine.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sod2_pool::with_deadline(deadline, || {
                    execute_tape(&self.graph, inputs, &tape, &cfg, backing, wavefront)
                })
            }));
            match result {
                Ok(run) => run?,
                Err(payload) => {
                    let what = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_string());
                    sod2_obs::counter_add("infer.panics_recovered", 1);
                    return Err(ExecError::Panic(what));
                }
            }
        };
        let post_span = sod2_obs::span!("phase", "dmp_post_plan");
        let lives = self.observed_lifetimes(&outcome);
        // Dynamic memory planning (§4.4.1): with DMP the offset plan packs
        // tensors into one arena; without it the engine falls back to a
        // pooling allocator (size-class high-water marks — what running
        // without a plan actually costs).
        let plan = if self.opts.dmp {
            plan_sod2(&lives)
        } else {
            let mut p = MemoryPlan::conservative(&lives);
            p.peak = size_class_peak(&lives);
            p
        };
        drop(post_span);
        sod2_obs::gauge_max("mem.plan_peak_bytes", plan.peak as u64);
        // Debug-mode verification: RDP's predictions must agree with what
        // execution observed, and the offset plan must be sound.
        #[cfg(debug_assertions)]
        if !bindings_corrupted {
            let mut stage = sod2_analysis::Report::new();
            stage.extend(sod2_analysis::verify_observed_shapes(
                &self.graph,
                &self.rdp,
                &outcome.concrete_shapes,
                &bindings,
            ));
            if self.opts.dmp {
                stage.extend(sod2_analysis::verify_memory_plan(&lives, &plan, 1));
            }
            if arena_on {
                if let Some(a) = self.arena.as_ref() {
                    stage.extend(sod2_analysis::verify_memory_plan(&pre_lives, a.plan(), 1));
                }
            }
            debug_assert!(
                !stage.has_errors(),
                "inference failed verification:\n{}",
                stage.render_text(Some(&self.graph))
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = (&bindings, &pre_lives);
        let alloc_events = outcome.alloc_sizes.len();
        let arena_backed = outcome.arena_backed;
        let mut trace = outcome.trace;
        // Deterministic wavefront statistics: price each kernel event,
        // attribute it to its unit, and list-schedule every wave onto
        // [`WAVE_WORKERS`] workers. Purely trace-derived — no wallclock —
        // so the makespan is reproducible across runs and machines.
        let wave_stats = match &self.wave_schedule {
            Some(ws) => {
                let unit_secs = self.priced_unit_seconds(&trace);
                // Summed in unit-index order, so the result is the same
                // bits in every process.
                let serial_s: f64 = unit_secs.iter().sum();
                let makespan_s: f64 = ws
                    .waves
                    .iter()
                    .map(|wave| {
                        let secs: Vec<f64> = wave.iter().map(|&u| unit_secs[u]).collect();
                        sod2_pool::scheduled_makespan(&secs, WAVE_WORKERS)
                    })
                    .sum();
                // Critical path over the unit DAG: `self.unit_order` is a
                // topological order, so one forward pass suffices.
                let mut cp = vec![0.0f64; unit_secs.len()];
                let mut critical_s = 0.0f64;
                for &u in &self.unit_order {
                    let from = self.unit_graph.preds[u]
                        .iter()
                        .map(|&p| cp[p])
                        .fold(0.0f64, f64::max);
                    cp[u] = from + unit_secs[u];
                    critical_s = critical_s.max(cp[u]);
                }
                Some(WaveStats {
                    wave_count: ws.waves.len(),
                    max_width: ws.max_width,
                    splits: ws.splits,
                    serial_s,
                    makespan_s,
                    critical_s,
                    serial_peak: ws.serial_peak,
                    parallel_peak: ws.parallel_peak,
                    serial_fallback: ws.serial_fallback,
                    runtime_fallback,
                })
            }
            None => None,
        };
        self.last_wave = wave_stats;
        if self.opts.dmp {
            // One arena allocation per inference, plus the (cheap) runtime
            // plan-generation work, proportional to the sub-graph count.
            // Plan generation is charged only when the operational offset
            // plan was built fresh this inference: a pre-plan cache hit
            // replays the stored plan and skips that work entirely, so the
            // priced model reflects what serving traffic actually pays on
            // repeat shapes. Without arena execution there is no cached
            // operational plan and every inference re-plans.
            trace.push(TraceEvent::Alloc { bytes: plan.peak });
            if !(arena_on && pre_plan_hit) {
                let plan_gen = self.unit_order.len() as f64 * self.profile.reinit_sl_per_node * 0.1;
                trace.push(TraceEvent::Reinit {
                    sl: plan_gen,
                    st: 0.0,
                    alloc: 0.0,
                });
            }
            // The dynamic residue the plan could not cover is still paid
            // per allocation (empty unless some tensor resolved to `nac`).
            if arena_on {
                for &b in &outcome.alloc_sizes {
                    trace.push(TraceEvent::Alloc { bytes: b });
                }
            }
        } else {
            for &b in &outcome.alloc_sizes {
                trace.push(TraceEvent::Alloc { bytes: b });
            }
        }
        let latency = {
            let _s = sod2_obs::span!("phase", "price_trace");
            trace.price(&self.profile)
        };
        Ok((
            InferenceStats {
                outputs: outcome.outputs,
                latency,
                peak_memory_bytes: plan.peak,
                reinitialized: false,
                alloc_events,
                arena_backed,
            },
            plan,
        ))
    }

    /// Runs the full diagnostic suite over the compiled pipeline and one
    /// concrete inference: IR lints, the RDP fixpoint audit plus
    /// cross-validation against the shapes this execution observed, plan
    /// verification, and the memory-planner comparison.
    pub fn diagnose(&mut self, inputs: &[Tensor]) -> Result<sod2_analysis::Report, ExecError> {
        use sod2_analysis as an;
        let bindings = bindings_from_inputs(&self.graph, inputs).map_err(ExecError::BadInputs)?;
        let mut report = an::Report::new();
        report.extend(an::lint_graph(&self.graph));
        if report.has_errors() {
            return Ok(report);
        }
        let (_, solver_report, trace) = sod2_rdp::analyze_traced(&self.graph);
        report.extend(an::check_monotonicity(&self.graph, &trace));
        report.extend(an::report_inconsistencies(&solver_report));
        report.extend(an::verify_fusion(&self.graph, &self.fusion_plan));
        report.extend(an::verify_unit_order(&self.unit_graph, &self.unit_order));
        report.extend(an::verify_node_order(&self.graph, &self.node_order));
        if let Ok(tp) = &self.tape {
            report.extend(an::verify_tape(
                &self.graph,
                &self.node_order,
                Some(&self.fusion_plan),
                tp,
            ));
        }
        let cfg = ExecConfig {
            fusion: Some(&self.fusion_plan),
            node_order: Some(&self.node_order),
            version_table: self.table.as_deref(),
            execute_all_branches: !self.opts.native_control_flow,
            fused_interpreter: true,
            nan_guard: self.opts.nan_guard,
            memory_budget: self.opts.memory_budget,
            wave_plan: None,
            finite_outputs: self.opts.absint.then_some(self.certs.finite.as_slice()),
        };
        let outcome = execute(&self.graph, inputs, &cfg)?;
        report.extend(an::verify_observed_shapes(
            &self.graph,
            &self.rdp,
            &outcome.concrete_shapes,
            &bindings,
        ));
        let lives = self.observed_lifetimes(&outcome);
        let plan = plan_sod2(&lives);
        report.extend(an::verify_memory_plan(&lives, &plan, 1));
        report.extend(an::compare_planners(&lives));
        Ok(report)
    }
}

impl Engine for Sod2Engine {
    fn name(&self) -> &'static str {
        "SoD2"
    }

    fn infer(&mut self, inputs: &[Tensor]) -> Result<InferenceStats, ExecError> {
        self.infer_with_plan(inputs).map(|(stats, _)| stats)
    }
}
