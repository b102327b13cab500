//! Execution types shared by the tape and its one-shot wrapper.
//!
//! [`execute`] lowers a graph to a [`TapeProgram`](crate::TapeProgram)
//! and runs it with [`execute_tape`] — the tape is the only executor.
//! This module holds what that executor is configured with and returns
//! ([`ExecConfig`], [`RunOutcome`], [`ExecError`], [`ArenaBacking`],
//! [`WaveExecPlan`]) plus the per-value helpers it dispatches through:
//! fused-chain evaluation, arena install and release, NaN fences, and
//! multi-version variant selection.

use crate::tape::{compile_tape, execute_tape};
use crate::trace::ExecutionTrace;
use sod2_fusion::FusionPlan;
use sod2_ir::{ConstData, Graph, NodeId, Op, TensorId};
use sod2_kernels::{fused::FusedStep, fused_elementwise, ConvParams, GemmParams, KernelError};
use sod2_mem::Arena;
use sod2_mvc::VersionTable;
use sod2_tensor::{Data, Tensor};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A static parallel schedule at node granularity: `waves[w][j]` is the
/// node list of job `j` of wave `w` (one schedulable unit, in execution
/// order). Units within a wave are mutually independent by construction
/// (they come from distinct units of one SEP wavefront), so their
/// evaluation may run concurrently; waves execute in order with a barrier
/// between them. The flattened plan must equal the executor's node order.
#[derive(Debug, Clone, Default)]
pub struct WaveExecPlan {
    /// wave → job/unit → nodes (each inner list in execution order).
    pub waves: Vec<Vec<Vec<NodeId>>>,
}

impl WaveExecPlan {
    /// Widest wave (number of concurrent units).
    pub fn max_width(&self) -> usize {
        self.waves.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Execution configuration. The plan fields (`fusion`, `node_order`,
/// `fused_interpreter`, `finite_outputs`, `wave_plan`) are read by
/// [`execute`]'s lowering; [`execute_tape`] reads only the runtime knobs,
/// since a compiled tape already carries its plan.
#[derive(Default)]
pub struct ExecConfig<'a> {
    /// Fusion plan: members of a group execute as one accounted kernel and
    /// their internal tensors never count as materialized memory.
    pub fusion: Option<&'a FusionPlan>,
    /// Execution order from static execution planning (defaults to the
    /// graph's topological order).
    pub node_order: Option<&'a [NodeId]>,
    /// Multi-version kernel table: `MatMul`/`Gemm`/`Conv` pick a tuned
    /// variant by output shape.
    pub version_table: Option<&'a VersionTable>,
    /// Execute every `Switch` branch and strip invalid results at
    /// `Combine` (the strategy of ORT/MNN/TVM-N per the paper §5).
    pub execute_all_branches: bool,
    /// Execute eligible fused groups through the single-pass fused
    /// element-wise interpreter (`sod2_kernels::fused`): intermediates are
    /// genuinely never materialized, not just unaccounted.
    pub fused_interpreter: bool,
    /// Scan tensors for non-finite values and fail with
    /// [`ExecError::NumericFault`] instead of returning poisoned results
    /// (catches injected `kernel.nan` faults and real divergence alike).
    /// The fence runs per node as results commit — poison is caught at the
    /// operator that produced it — plus once over the graph inputs and
    /// once over the final outputs.
    pub nan_guard: bool,
    /// Per-tensor proven-finite flags from the abstract interpretation
    /// (`sod2_analysis::Certificates::finite`, indexed by `TensorId.0`).
    /// A proven-finite tensor's per-node fence cannot fire, so the scan is
    /// skipped (counted in `absint.guard_elisions`). The input fence makes
    /// the proof's finite-inputs premise hold at runtime.
    pub finite_outputs: Option<&'a [bool]>,
    /// Cap (bytes) on simultaneously live materialized intermediates,
    /// checked as tensors are installed: exceeding it aborts the run with
    /// [`ExecError::BudgetExceeded`]. This is the runtime rung of budget
    /// enforcement — the engine also rejects over-budget DMP plans before
    /// execution starts.
    pub memory_budget: Option<usize>,
    /// Wavefront execution plan: when present, each wave's units evaluate
    /// concurrently before committing serially. Must flatten to exactly
    /// the execution order (`node_order`), else the run aborts with
    /// [`ExecError::Internal`].
    pub wave_plan: Option<&'a WaveExecPlan>,
}

/// Execution errors.
#[derive(Debug)]
pub enum ExecError {
    /// A kernel failed.
    Kernel(KernelError),
    /// Wrong number or dtype of graph inputs.
    BadInputs(String),
    /// Control flow was malformed at runtime (bad selector, dead output).
    ControlFlow(String),
    /// Arena-backed memory was corrupted (an unsound offset plan aliased
    /// two simultaneously live tensors).
    Memory(String),
    /// The cooperative per-inference deadline passed before completion
    /// (see [`sod2_pool::with_deadline`]); partial results are discarded.
    DeadlineExceeded,
    /// The inference's memory needs exceed the configured budget.
    BudgetExceeded {
        /// Bytes the inference would need.
        needed: usize,
        /// The configured cap.
        budget: usize,
    },
    /// A kernel or pool chunk panicked; the unwind was caught and converted
    /// so the engine stays usable.
    Panic(String),
    /// A non-finite value reached an output while the NaN guard was on.
    NumericFault(String),
    /// An internal executor invariant failed — a bug surfaced as a typed
    /// error instead of a panic.
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Kernel(e) => write!(f, "kernel error: {e}"),
            ExecError::BadInputs(s) => write!(f, "bad inputs: {s}"),
            ExecError::ControlFlow(s) => write!(f, "control flow: {s}"),
            ExecError::Memory(s) => write!(f, "memory: {s}"),
            ExecError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExecError::BudgetExceeded { needed, budget } => {
                write!(
                    f,
                    "memory budget exceeded: need {needed} bytes, cap {budget}"
                )
            }
            ExecError::Panic(s) => write!(f, "panic during execution: {s}"),
            ExecError::NumericFault(s) => write!(f, "numeric fault: {s}"),
            ExecError::Internal(s) => write!(f, "internal invariant violated: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<KernelError> for ExecError {
    fn from(e: KernelError) -> Self {
        ExecError::Kernel(e)
    }
}

/// The result of one inference.
#[derive(Debug)]
pub struct RunOutcome {
    /// Output tensors, in `graph.outputs()` order.
    pub outputs: Vec<Tensor>,
    /// Kernel-only execution trace (engines add their overhead events).
    pub trace: ExecutionTrace,
    /// Peak bytes of simultaneously live materialized intermediates.
    pub peak_live_bytes: usize,
    /// Sizes (bytes) of every materialized intermediate tensor, in
    /// allocation order — the allocation stream engines price.
    pub alloc_sizes: Vec<usize>,
    /// Concrete shape of every tensor that was produced.
    pub concrete_shapes: HashMap<TensorId, Vec<usize>>,
    /// How many `Switch` branches executed (live + dead-but-executed).
    pub branches_executed: usize,
    /// How many materialized intermediates were served from the arena slab
    /// instead of the heap (always 0 without an [`ArenaBacking`]).
    pub arena_backed: usize,
}

/// Pre-planned arena memory handed to [`execute_tape`]: each planned
/// tensor's payload lives at its plan offset (the paper's §4.4.1 offset
/// plan made operational), and only tensors the plan could not cover
/// (unresolved `nac` sizes, size mismatches) fall back to the heap — the
/// dynamic residue reported in [`RunOutcome::alloc_sizes`]. Arena-backed
/// tensors are readback-verified at death and at output collection, so a
/// plan that aliases two live tensors fails with [`ExecError::Memory`].
///
/// `sizes` holds the exact byte size the offset plan assumed for each
/// planned tensor key ([`MemoryPlan`](sod2_mem::MemoryPlan) stores only
/// offsets): the executor arena-backs a tensor only when its runtime size
/// matches the planned size exactly, falling back to the heap otherwise —
/// so a stale or partial plan degrades gracefully instead of corrupting
/// memory. Keys in `bounded` relax the match to "at most the planned
/// size": their plans reserve a static upper bound for an
/// execution-determined (`nac`) payload, so any smaller runtime size still
/// fits its slot without aliasing a neighbour.
pub struct ArenaBacking<'a> {
    /// The slab, already reset to the current inference's plan.
    pub arena: &'a mut Arena,
    /// Planned byte size per tensor key (`TensorId.0 as usize`).
    pub sizes: &'a HashMap<usize, usize>,
    /// Keys planned at an upper bound rather than an exact size.
    pub bounded: &'a HashSet<usize>,
}

/// Copies a freshly produced tensor into its planned arena slot. Returns
/// `true` when the tensor is now arena-backed, `false` when the executor
/// must treat it as a heap allocation (no backing, unplanned key, or a
/// size mismatch against the plan).
pub(crate) fn arena_install(
    backing: &mut Option<ArenaBacking<'_>>,
    planned: &mut [bool],
    t: TensorId,
    tensor: &Tensor,
) -> bool {
    let Some(b) = backing.as_mut() else {
        return false;
    };
    let key = t.0 as usize;
    let fits = match b.sizes.get(&key) {
        Some(&sz) if b.bounded.contains(&key) => tensor.byte_size() <= sz,
        Some(&sz) => tensor.byte_size() == sz,
        None => false,
    };
    if !fits {
        return false;
    }
    if b.arena.try_write(key, &tensor.payload_le_bytes()) {
        planned[key] = true;
        true
    } else {
        false
    }
}

/// Releases one tensor slot whose uses are exhausted: readback-verifies an
/// arena-backed payload at death, un-accounts a materialized intermediate
/// from live memory, and clears the slot (outputs are held to the end of
/// the run; dead slots stay dead so later readers still observe deadness).
/// The flags come precompiled per instruction release.
pub(crate) fn release_slot(
    t: TensorId,
    is_intermediate: bool,
    is_output: bool,
    env: &mut [Slot],
    live_bytes: &mut usize,
    planned: &mut [bool],
    backing: &Option<ArenaBacking<'_>>,
) -> Result<(), ExecError> {
    let key = t.0 as usize;
    if planned.get(key).copied().unwrap_or(false) {
        planned[key] = false;
        if let (Slot::Live(ten), Some(b)) = (&env[key], backing.as_ref()) {
            sod2_obs::counter_add("exec.arena_readback_verifies", 1);
            let want = ten.payload_le_bytes();
            if b.arena.try_read(key, want.len()) != Some(want.as_slice()) {
                return Err(ExecError::Memory(format!(
                    "arena slot for tensor {t} was clobbered while live"
                )));
            }
        }
    }
    if is_intermediate {
        if let Slot::Live(ten) = &env[key] {
            *live_bytes = live_bytes.saturating_sub(ten.byte_size());
        }
    }
    if !is_output {
        env[key] = match env[key] {
            Slot::Dead => Slot::Dead,
            _ => Slot::Missing,
        };
    }
    Ok(())
}

#[derive(Clone)]
pub(crate) enum Slot {
    Missing,
    Live(Tensor),
    Dead,
}

/// Scratch overlay for unit-local results awaiting commit: a flat
/// `(key, slot)` list scanned back-to-front so the latest write of a key
/// wins. Units are a handful of instructions, so a linear scan beats a
/// `HashMap`.
#[derive(Default)]
pub(crate) struct Overlay {
    entries: Vec<(usize, Slot)>,
}

impl Overlay {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    pub(crate) fn insert(&mut self, key: usize, slot: Slot) {
        self.entries.push((key, slot));
    }

    pub(crate) fn get(&self, key: usize) -> Option<&Slot> {
        self.entries
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, s)| s)
    }
}

/// Read-only view of the environment used during node *evaluation*: the
/// committed base plus an optional unit-local overlay holding results
/// produced earlier in the same unit that have not been committed yet.
/// The serial commit path uses a view with no overlay — identical reads
/// to indexing the environment directly.
pub(crate) struct EnvView<'e> {
    pub(crate) base: &'e [Slot],
    pub(crate) overlay: Option<&'e Overlay>,
}

impl EnvView<'_> {
    pub(crate) fn get(&self, t: TensorId) -> &Slot {
        let key = t.0 as usize;
        if let Some(o) = self.overlay {
            if let Some(s) = o.get(key) {
                return s;
            }
        }
        &self.base[key]
    }
}

/// Converts an IR constant payload into a runtime tensor.
pub(crate) fn const_tensor(shape: &[i64], data: &ConstData) -> Tensor {
    let dims: Vec<usize> = shape.iter().map(|&d| d as usize).collect();
    let payload = match data {
        ConstData::F32(v) => Data::F32(v.clone()),
        ConstData::I64(v) => Data::I64(v.clone()),
        ConstData::Bool(v) => Data::Bool(v.clone()),
        ConstData::U8(v) => Data::U8(v.clone()),
    };
    // Invariant: `sod2_ir::validate` checks every constant's payload length
    // against its declared shape before a graph reaches the executor.
    #[allow(clippy::expect_used)]
    Tensor::new(&dims, payload).expect("validated const payload")
}

/// Executes a graph on concrete inputs: lowers it to a tape (node order
/// from `cfg.node_order`, else the graph's topological order; fusion,
/// fused-chain, finite-output and wave-plan choices from `cfg`) and runs
/// that tape once, on the heap, wavefront when `cfg` carries a wave plan.
/// Engines that run a plan repeatedly compile the tape once with
/// [`compile_tape`] and call [`execute_tape`] themselves.
///
/// # Errors
///
/// Returns [`ExecError`] on kernel failures, input mismatches, malformed
/// control flow, or a plan the tape cannot lower (a wave plan that does
/// not flatten to the execution order).
pub fn execute(
    graph: &Graph,
    inputs: &[Tensor],
    cfg: &ExecConfig<'_>,
) -> Result<RunOutcome, ExecError> {
    let default_order;
    let order: &[NodeId] = match cfg.node_order {
        Some(o) => o,
        None => {
            default_order = graph.topo_order();
            &default_order
        }
    };
    let layout = sod2_plan::plan_tape_layout(graph, order);
    let tape = compile_tape(
        graph,
        &layout,
        order,
        cfg.fusion,
        cfg.fused_interpreter,
        cfg.finite_outputs,
        cfg.wave_plan,
        None,
    )?;
    execute_tape(graph, inputs, &tape, cfg, None, cfg.wave_plan.is_some())
}

/// The outcome of evaluating a fused chain: the final tensor (`None` when
/// an input branch was dead) plus the cost attribution its trace event
/// needs.
pub(crate) struct ChainEval {
    pub(crate) result: Option<Tensor>,
    pub(crate) flops: f64,
    pub(crate) ext_read: f64,
}

/// Evaluates (or kills) a whole fused chain. Pure: reads tensors through
/// the view, produces an owned result.
pub(crate) fn eval_chain(env: &EnvView<'_>, chain: &ChainPlan) -> Result<ChainEval, ExecError> {
    let mut dead = matches!(env.get(chain.seed), Slot::Dead);
    for st in &chain.steps {
        if let ChainStep::Binary { other, .. } = st {
            dead |= matches!(env.get(*other), Slot::Dead);
        }
    }
    if dead {
        return Ok(ChainEval {
            result: None,
            flops: 0.0,
            ext_read: 0.0,
        });
    }
    let seed = match env.get(chain.seed) {
        Slot::Live(t) => t,
        _ => {
            return Err(ExecError::ControlFlow(format!(
                "fused chain seed {} unavailable",
                chain.seed
            )))
        }
    };
    let mut steps: Vec<FusedStep<'_>> = Vec::with_capacity(chain.steps.len());
    let mut ext_read = seed.byte_size() as f64;
    let mut flops_per_elem = 0.0f64;
    for st in &chain.steps {
        steps.push(match st {
            ChainStep::Unary(u) => {
                flops_per_elem += 4.0;
                FusedStep::Unary(*u)
            }
            ChainStep::Clip { min, max } => {
                flops_per_elem += 1.0;
                FusedStep::Clip {
                    min: *min,
                    max: *max,
                }
            }
            ChainStep::Binary {
                op,
                other,
                chain_is_lhs,
            } => {
                flops_per_elem += 1.0;
                let t = match env.get(*other) {
                    Slot::Live(t) => t,
                    _ => {
                        return Err(ExecError::ControlFlow(format!(
                            "fused chain operand {other} unavailable"
                        )))
                    }
                };
                ext_read += t.byte_size() as f64;
                FusedStep::Binary {
                    op: *op,
                    other: t,
                    chain_is_lhs: *chain_is_lhs,
                }
            }
        });
    }
    let out = fused_elementwise(seed, &steps)?;
    Ok(ChainEval {
        flops: flops_per_elem * out.numel() as f64,
        ext_read,
        result: Some(out),
    })
}

/// The fence body with the proven-finite bit already resolved — the tape
/// executor precompiles the bit per instruction output and calls this
/// directly.
pub(crate) fn fence_value(
    nan_guard: bool,
    finite: bool,
    node_name: &str,
    t: TensorId,
    tensor: &Tensor,
) -> Result<(), ExecError> {
    if !nan_guard {
        return Ok(());
    }
    if finite {
        sod2_obs::counter_add("absint.guard_elisions", 1);
        return Ok(());
    }
    if let Ok(v) = tensor.as_f32() {
        if !v.iter().all(|x| x.is_finite()) {
            return Err(ExecError::NumericFault(format!(
                "non-finite value in output {t} of node '{node_name}'"
            )));
        }
    }
    Ok(())
}

/// One step of a pre-planned fused chain (operand held by tensor id).
#[derive(Debug, Clone)]
pub(crate) enum ChainStep {
    Unary(sod2_ir::UnaryOp),
    Clip {
        min: f32,
        max: f32,
    },
    Binary {
        op: sod2_ir::BinaryOp,
        other: TensorId,
        chain_is_lhs: bool,
    },
}

/// A fused-group execution plan: a linear element-wise chain.
#[derive(Debug, Clone)]
pub(crate) struct ChainPlan {
    pub(crate) members: Vec<NodeId>,
    pub(crate) seed: TensorId,
    pub(crate) steps: Vec<ChainStep>,
    pub(crate) final_output: TensorId,
}

/// Identifies fusion groups executable as single-pass element-wise chains:
/// every member is a unary/clip/binary f32 operator, each member consumes
/// the previous member's output, and all other operands come from outside
/// the group.
pub(crate) fn build_chains(
    graph: &Graph,
    fusion: &sod2_fusion::FusionPlan,
) -> (HashMap<NodeId, usize>, Vec<ChainPlan>) {
    let mut member_of: HashMap<NodeId, usize> = HashMap::new();
    let mut plans: Vec<ChainPlan> = Vec::new();
    'groups: for group in &fusion.groups {
        if group.nodes.len() < 2 {
            continue;
        }
        let mut steps: Vec<ChainStep> = Vec::new();
        let mut seed: Option<TensorId> = None;
        let mut prev_out: Option<TensorId> = None;
        for (i, &nid) in group.nodes.iter().enumerate() {
            let node = graph.node(nid);
            if node.outputs.len() != 1 || graph.tensor(node.outputs[0]).dtype != sod2_ir::DType::F32
            {
                continue 'groups;
            }
            // Determine the chain input for members after the first.
            let chain_in = prev_out;
            let step = match &node.op {
                Op::Unary(u) => {
                    if i == 0 {
                        seed = Some(node.inputs[0]);
                    } else if Some(node.inputs[0]) != chain_in {
                        continue 'groups;
                    }
                    ChainStep::Unary(*u)
                }
                Op::Clip { min, max } => {
                    if i == 0 {
                        seed = Some(node.inputs[0]);
                    } else if Some(node.inputs[0]) != chain_in {
                        continue 'groups;
                    }
                    ChainStep::Clip {
                        min: *min,
                        max: *max,
                    }
                }
                Op::Binary(b) => {
                    let (other, lhs) = if i == 0 {
                        seed = Some(node.inputs[0]);
                        (node.inputs[1], true)
                    } else if Some(node.inputs[0]) == chain_in {
                        (node.inputs[1], true)
                    } else if Some(node.inputs[1]) == chain_in {
                        (node.inputs[0], false)
                    } else {
                        continue 'groups;
                    };
                    // Operand must come from outside the group and be f32.
                    if graph.tensor(other).dtype != sod2_ir::DType::F32 {
                        continue 'groups;
                    }
                    if let Some(p) = graph.producer(other) {
                        if group.nodes.contains(&p) {
                            continue 'groups;
                        }
                    }
                    ChainStep::Binary {
                        op: *b,
                        other,
                        chain_is_lhs: lhs,
                    }
                }
                _ => continue 'groups,
            };
            steps.push(step);
            prev_out = Some(node.outputs[0]);
        }
        let Some(seed) = seed else { continue };
        let Some(final_output) = prev_out else {
            continue;
        };
        if graph.tensor(seed).dtype != sod2_ir::DType::F32 {
            continue;
        }
        let idx = plans.len();
        for &nid in &group.nodes {
            member_of.insert(nid, idx);
        }
        plans.push(ChainPlan {
            members: group.nodes.clone(),
            seed,
            steps,
            final_output,
        });
    }
    (member_of, plans)
}

/// Output-matrix dimensions for multi-version hotspot kernels.
pub(crate) fn hotspot_mn(op: &Op, outputs: &[&Tensor]) -> Option<(usize, usize)> {
    match op {
        Op::MatMul | Op::Gemm { .. } => {
            let s = outputs.first()?.shape();
            if s.len() >= 2 {
                Some((s[s.len() - 2], s[s.len() - 1]))
            } else {
                None
            }
        }
        Op::Conv2d { .. } => {
            let s = outputs.first()?.shape();
            if s.len() == 4 {
                Some((s[1], s[2] * s[3]))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Chooses the tuned GEMM/CONV variants for a hotspot op from its *input*
/// shapes (runtime version selection, paper §4.4.2).
pub(crate) fn select_variants(
    op: &Op,
    ins: &[&Tensor],
    table: Option<&VersionTable>,
) -> (GemmParams, ConvParams) {
    let defaults = (GemmParams::default(), ConvParams::default());
    let Some(table) = table else {
        if matches!(op, Op::MatMul | Op::Gemm { .. } | Op::Conv2d { .. }) {
            sod2_obs::counter_add("mvc.version_defaults", 1);
        }
        return defaults;
    };
    match op {
        Op::MatMul => {
            let a = ins[0].shape();
            let b = ins[1].shape();
            if a.len() >= 2 && b.len() >= 2 {
                sod2_obs::counter_add("mvc.version_hits", 1);
                return (table.select(a[a.len() - 2], b[b.len() - 1]), defaults.1);
            }
            sod2_obs::counter_add("mvc.version_defaults", 1);
            defaults
        }
        Op::Gemm { trans_a, trans_b } => {
            let a = ins[0].shape();
            let b = ins[1].shape();
            if a.len() == 2 && b.len() == 2 {
                let m = if *trans_a { a[1] } else { a[0] };
                let n = if *trans_b { b[0] } else { b[1] };
                sod2_obs::counter_add("mvc.version_hits", 1);
                return (table.select(m, n), defaults.1);
            }
            sod2_obs::counter_add("mvc.version_defaults", 1);
            defaults
        }
        Op::Conv2d { spatial, .. } => {
            let x = ins[0].shape();
            let w = ins[1].shape();
            if x.len() == 4 && w.len() == 4 {
                let co = w[0];
                let oh = spatial.out_extent(0, x[2] as i64).max(1) as usize;
                let ow = spatial.out_extent(1, x[3] as i64).max(1) as usize;
                sod2_obs::counter_add("mvc.version_hits", 1);
                return (defaults.0, table.select_conv(co, oh * ow));
            }
            sod2_obs::counter_add("mvc.version_defaults", 1);
            defaults
        }
        _ => defaults,
    }
}

pub(crate) fn selector(t: &Tensor) -> Result<i64, ExecError> {
    t.as_i64()
        .map_err(|e| ExecError::ControlFlow(e.to_string()))?
        .first()
        .copied()
        .ok_or_else(|| ExecError::ControlFlow("empty selector".into()))
}
