//! Register-machine execution tape.
//!
//! Compiles a planned graph **once** into a flat instruction stream
//! executed by a thin VM loop — the Nimble-style answer to interpreter
//! overhead for dynamic models, and the only executor in this crate.
//! Everything a graph walk would re-derive per inference is precompiled
//! into per-instruction fields:
//!
//! - **registers**: the register file is a dense `Vec<Slot>` indexed by
//!   `TensorId`, so operand/result "slots" are plain indices and two
//!   concurrently-live tensors can never alias a register by
//!   construction. DMP arena offsets keyed by the same indices make a
//!   register's backing store the planned slab slot; `nac`-sized residue
//!   falls back to heap-backed registers.
//! - **releases**: the executor's per-occurrence refcount discipline is
//!   replayed at compile time (`sod2_plan::plan_tape_layout`), so each
//!   instruction carries the list of registers whose last use it is —
//!   zero refcounts, zero hashing at run time.
//! - **fused chains** become single [`InstrKind::Chain`] instructions
//!   with inlined member lists; `Switch`/`Combine` lower to
//!   [`InstrKind::Branch`]/[`InstrKind::Select`] over register indices.
//! - **waves**: a wavefront schedule becomes `(start, end)` index ranges
//!   over the tape. Phase A submits tape slices to `sod2-pool`; phase B
//!   publishes unit-local results into registers by moving `Arc`-backed
//!   tensors (no payload copy; the DMP arena install is the one
//!   deliberate memcpy, kept for offset-plan fidelity and readback
//!   verification).
//!
//! The tape is immutable and intended to be `Arc`-shared across replicas;
//! the register file and accounting scratch are per-inference. Execution
//! covers deadline checks at instruction boundaries, memory-budget
//! accounting, arena→heap degradation, NaN fences honoring absint
//! certificates, fault-probe sites, and the priced trace-event stream.
//! Outputs are checked bitwise against the naive
//! [`reference`](crate::reference) interpreter by `tests/tape_props.rs`,
//! the zoo suite in `sod2-frameworks`, and `bench_zoo`.

use crate::executor::{
    arena_install, build_chains, const_tensor, eval_chain, fence_value, hotspot_mn, release_slot,
    select_variants, selector, ArenaBacking, ChainEval, ChainPlan, EnvView, ExecConfig, ExecError,
    Overlay, RunOutcome, Slot, WaveExecPlan,
};
use crate::trace::{ExecutionTrace, TraceEvent};
use sod2_fusion::FusionPlan;
use sod2_ir::{Graph, NodeId, Op, TensorId};
use sod2_kernels::{execute_op_with_variants, ConvParams, GemmParams};
use sod2_plan::TapeLayout;
use sod2_tensor::{Data, Tensor};
use std::collections::HashMap;

/// Largest operand count marshalled through a stack array; rarer wider
/// nodes fall back to a heap vector.
const INLINE_ARITY: usize = 8;

/// One register release precompiled into an instruction: the register
/// index plus the flags derived from the graph at compile time (is the
/// tensor a materialized intermediate? a graph output held to the end?).
#[derive(Debug, Clone)]
pub struct RegRelease {
    /// Register (= tensor id) to release.
    pub reg: TensorId,
    /// Materialized intermediate: un-account its bytes from live memory.
    pub is_intermediate: bool,
    /// Graph output: the slot is held to the end of the run.
    pub is_output: bool,
}

/// A fused chain lowered to one instruction: the member list inlined,
/// with each member's release list kept in member order so live-memory
/// accounting follows the planned node order.
#[derive(Debug, Clone)]
pub struct TapeChain {
    pub(crate) plan: ChainPlan,
    /// Member nodes in commit order (head first).
    pub members: Vec<NodeId>,
    /// Each member's single output register, in commit order (the last
    /// one is the chain's final output).
    pub member_outputs: Vec<TensorId>,
    /// Per-member release lists, applied in commit order.
    pub member_releases: Vec<Vec<RegRelease>>,
    /// The chain's final output register.
    pub final_reg: TensorId,
    /// Proven-finite bit for the final output (NaN-fence elision).
    pub final_finite: bool,
    /// The tail member (its name labels the final output's fence
    /// diagnostics).
    pub tail_nid: NodeId,
}

/// A tuned kernel variant baked into an instruction at compile time.
///
/// When RDP proves a hotspot node's output shape (`Known` under empty
/// bindings), its shape class — and therefore its tuned version — is a
/// compile-time constant, so the tape carries the selected parameters
/// directly and dispatch skips runtime selection entirely. Nodes whose
/// shapes stay data-dependent keep selecting per inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BakedVariant {
    /// A tuned GEMM configuration (MatMul / Gemm anchors).
    Gemm(GemmParams),
    /// A tuned convolution configuration (Conv2d anchors).
    Conv(ConvParams),
}

/// Instruction opcode.
#[derive(Debug, Clone)]
pub enum InstrKind {
    /// Generic kernel dispatch (multi-version variant selection inline).
    Kernel,
    /// `Switch` lowered over registers: copy the data register into the
    /// selected branch's output register (all of them in
    /// execute-all-branches mode), marking the rest dead.
    Branch {
        /// Branch count (= output register count).
        num_branches: usize,
    },
    /// `Combine` lowered over registers: publish the selected branch's
    /// register to the output register.
    Select {
        /// Branch count (selector lives at input index `num_branches`).
        num_branches: usize,
    },
    /// A whole fused element-wise chain as one instruction.
    Chain(Box<TapeChain>),
}

/// One tape instruction. Every field the dispatch loop needs is
/// precompiled: no hashing, no string lookups, no graph-derived
/// decisions remain at run time (the anchor node is consulted only for
/// its operator payload and its name, both direct indexed loads).
#[derive(Debug, Clone)]
pub struct Instr {
    /// Anchor node (chain instructions anchor at the chain head).
    pub nid: NodeId,
    /// Opcode.
    pub kind: InstrKind,
    /// Operand registers (empty for chains — members carry their own).
    pub inputs: Vec<TensorId>,
    /// Result registers.
    pub outputs: Vec<TensorId>,
    /// Proven-finite bit per output (absint certificate, fence elision).
    pub out_finite: Vec<bool>,
    /// Fusion-internal bit per output (internal results are never
    /// materialized: no live-memory accounting, no arena install).
    pub out_internal: Vec<bool>,
    /// Per input: produced outside this fusion group (external reads are
    /// what group cost accounting charges).
    pub in_external: Vec<bool>,
    /// Registers whose last use is this instruction.
    pub releases: Vec<RegRelease>,
    /// Original fusion group id (the `group` field of trace events).
    pub gid: usize,
    /// Dense group index into the per-inference accumulator arrays.
    pub gidx: u32,
    /// Statically the last member of its group in execution order: emits
    /// the group's kernel trace event when the group did countable work.
    pub group_tail: bool,
    /// Live non-control-flow results accumulate group cost.
    pub count_cost: bool,
    /// Tuned kernel variant selected at compile time (RDP-known shapes);
    /// `None` falls back to runtime selection.
    pub variant: Option<BakedVariant>,
}

/// The compiled, immutable execution tape. `Arc`-share it across
/// replicas; each inference brings its own register file.
#[derive(Debug, Clone)]
pub struct TapeProgram {
    instrs: Vec<Instr>,
    /// Wavefront schedule as `(start, end)` instruction ranges: one range
    /// per unit, grouped by wave. Empty when compiled without a wave plan.
    waves: Vec<Vec<(u32, u32)>>,
    /// Registers in the file (= `graph.num_tensors()`).
    register_count: usize,
    /// Constant registers, prebuilt once (per-inference installation is
    /// an `Arc` clone, not a payload rebuild).
    consts: Vec<(TensorId, Tensor)>,
    /// Dense group count (size of per-inference accumulator arrays).
    num_groups: usize,
    /// Graph nodes the tape covers (chain members included).
    node_count: usize,
}

/// Summary of a compiled tape for profiling output.
#[derive(Debug, Clone)]
pub struct TapeStats {
    /// Instructions on the tape.
    pub tape_len: usize,
    /// Registers in the file.
    pub register_count: usize,
    /// Bytes of the per-inference register file itself (slot headers;
    /// tensor payloads are arena- or heap-backed and accounted by DMP).
    pub register_file_bytes: usize,
    /// Chain instructions on the tape.
    pub chain_count: usize,
    /// Prebuilt constant registers.
    pub const_count: usize,
    /// Graph nodes the tape covers (chain members included).
    pub node_count: usize,
    /// Wavefront ranges: per wave, each unit's `(start, end)` span.
    pub waves: Vec<Vec<(u32, u32)>>,
}

impl TapeProgram {
    /// The instruction stream (read-only; `verify_tape` walks it).
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Wavefront `(start, end)` instruction ranges, grouped by wave.
    pub fn waves(&self) -> &[Vec<(u32, u32)>] {
        &self.waves
    }

    /// Registers in the file.
    pub fn register_count(&self) -> usize {
        self.register_count
    }

    /// Profiling summary.
    pub fn stats(&self) -> TapeStats {
        TapeStats {
            tape_len: self.instrs.len(),
            register_count: self.register_count,
            register_file_bytes: self.register_count * std::mem::size_of::<Slot>(),
            chain_count: self
                .instrs
                .iter()
                .filter(|i| matches!(i.kind, InstrKind::Chain(_)))
                .count(),
            const_count: self.consts.len(),
            node_count: self.node_count,
            waves: self.waves.clone(),
        }
    }
}

/// Compiles a planned graph into an execution tape: the node order, the
/// fusion plan (and, with `fused_interpreter`, its element-wise chains),
/// the finite-output certificates, the wavefront schedule and the baked
/// kernel variants are all resolved here, once, so `execute_tape` only
/// binds inputs and dispatches.
///
/// # Errors
///
/// Returns [`ExecError::BadInputs`] for constants with unknown shapes
/// and [`ExecError::Internal`] when the wave plan does not flatten to
/// the execution order or a fused chain is malformed.
#[allow(clippy::too_many_arguments)]
pub fn compile_tape(
    graph: &Graph,
    layout: &TapeLayout,
    node_order: &[NodeId],
    fusion: Option<&FusionPlan>,
    fused_interpreter: bool,
    finite_outputs: Option<&[bool]>,
    wave_plan: Option<&WaveExecPlan>,
    baked_variants: Option<&HashMap<NodeId, BakedVariant>>,
) -> Result<TapeProgram, ExecError> {
    if layout.releases.len() != node_order.len() {
        return Err(ExecError::Internal(format!(
            "tape layout covers {} positions but the order has {} nodes",
            layout.releases.len(),
            node_order.len()
        )));
    }
    let internal = fusion
        .map(|f| f.internal_tensors(graph))
        .unwrap_or_default();
    let (chain_member, chains) = match (fused_interpreter, fusion) {
        (true, Some(f)) => build_chains(graph, f),
        _ => (HashMap::new(), Vec::new()),
    };
    let group_of = |n: NodeId| -> usize {
        match fusion {
            Some(f) => f.group_of(n),
            None => n.0 as usize,
        }
    };
    let finite_of = |t: TensorId| -> bool {
        finite_outputs
            .map(|f| f.get(t.0 as usize).copied().unwrap_or(false))
            .unwrap_or(false)
    };
    let decorate = |t: TensorId| -> RegRelease {
        RegRelease {
            reg: t,
            is_intermediate: graph.producer(t).is_some() && !internal.contains(&t),
            is_output: graph.outputs().contains(&t),
        }
    };

    // The last execution-order position of each group marks the
    // instruction that retires it (the group-event emission point).
    let mut last_pos_of_group: HashMap<usize, usize> = HashMap::new();
    for (pos, &nid) in node_order.iter().enumerate() {
        last_pos_of_group.insert(group_of(nid), pos);
    }

    let mut gidx_of: HashMap<usize, u32> = HashMap::new();
    let mut instrs: Vec<Instr> = Vec::with_capacity(node_order.len());
    let mut instr_of_pos: Vec<u32> = Vec::with_capacity(node_order.len());
    // Chain instructions under construction: chain idx → instr idx.
    let mut chain_instr: HashMap<usize, usize> = HashMap::new();

    for (pos, &nid) in node_order.iter().enumerate() {
        let node = graph.node(nid);
        let gid = group_of(nid);
        let next_gidx = gidx_of.len() as u32;
        let gidx = *gidx_of.entry(gid).or_insert(next_gidx);
        let group_tail = last_pos_of_group.get(&gid) == Some(&pos);
        let releases: Vec<RegRelease> = layout.releases[pos].iter().map(|&t| decorate(t)).collect();

        if let Some(&cidx) = chain_member.get(&nid) {
            let chain = &chains[cidx];
            let out_reg = *node
                .outputs
                .first()
                .ok_or_else(|| ExecError::Internal(format!("chain member {nid} with no output")))?;
            match chain_instr.get(&cidx) {
                None => {
                    if nid != chain.members[0] {
                        return Err(ExecError::Internal(format!(
                            "chain {cidx} entered at {nid}, not its head"
                        )));
                    }
                    let tail_nid = *chain
                        .members
                        .last()
                        .ok_or_else(|| ExecError::Internal("fused chain with no members".into()))?;
                    let idx = instrs.len();
                    chain_instr.insert(cidx, idx);
                    instrs.push(Instr {
                        nid,
                        kind: InstrKind::Chain(Box::new(TapeChain {
                            plan: chain.clone(),
                            members: vec![nid],
                            member_outputs: vec![out_reg],
                            member_releases: vec![releases],
                            final_reg: chain.final_output,
                            final_finite: finite_of(chain.final_output),
                            tail_nid,
                        })),
                        inputs: Vec::new(),
                        outputs: vec![chain.final_output],
                        out_finite: vec![finite_of(chain.final_output)],
                        out_internal: vec![internal.contains(&chain.final_output)],
                        in_external: Vec::new(),
                        releases: Vec::new(),
                        gid,
                        gidx,
                        group_tail,
                        count_cost: false,
                        variant: None,
                    });
                    instr_of_pos.push(idx as u32);
                }
                Some(&idx) => {
                    let InstrKind::Chain(tc) = &mut instrs[idx].kind else {
                        return Err(ExecError::Internal(format!(
                            "chain {cidx} anchored at a non-chain instruction"
                        )));
                    };
                    tc.members.push(nid);
                    tc.member_outputs.push(out_reg);
                    tc.member_releases.push(releases);
                    instrs[idx].group_tail |= group_tail;
                    instr_of_pos.push(idx as u32);
                }
            }
            continue;
        }

        let kind = match &node.op {
            Op::Switch { num_branches } => InstrKind::Branch {
                num_branches: *num_branches,
            },
            Op::Combine { num_branches } => InstrKind::Select {
                num_branches: *num_branches,
            },
            _ => InstrKind::Kernel,
        };
        let in_external = node
            .inputs
            .iter()
            .map(|&t| match graph.producer(t) {
                Some(p) => group_of(p) != gid,
                None => true,
            })
            .collect();
        let idx = instrs.len();
        instrs.push(Instr {
            nid,
            kind,
            inputs: node.inputs.clone(),
            outputs: node.outputs.clone(),
            out_finite: node.outputs.iter().map(|&t| finite_of(t)).collect(),
            out_internal: node
                .outputs
                .iter()
                .map(|&t| internal.contains(&t))
                .collect(),
            in_external,
            releases,
            gid,
            gidx,
            group_tail,
            count_cost: !node.op.is_control_flow(),
            variant: baked_variants.and_then(|m| m.get(&nid).copied()),
        });
        instr_of_pos.push(idx as u32);
    }

    // Every chain must have been walked end to end.
    for (cidx, chain) in chains.iter().enumerate() {
        if let Some(&idx) = chain_instr.get(&cidx) {
            if let InstrKind::Chain(tc) = &instrs[idx].kind {
                if tc.members != chain.members {
                    return Err(ExecError::Internal(format!(
                        "chain {cidx} lowered {} member(s), expected {}",
                        tc.members.len(),
                        chain.members.len()
                    )));
                }
            }
        }
    }

    // Lower the wavefront schedule to instruction ranges; units must tile
    // the tape in order (chains never straddle a unit boundary because a
    // chain is a whole fusion unit).
    let mut waves: Vec<Vec<(u32, u32)>> = Vec::new();
    if let Some(wp) = wave_plan {
        let mut pos = 0usize;
        let mut expected = 0u32;
        for wave in &wp.waves {
            let mut ranges = Vec::with_capacity(wave.len());
            for unit in wave {
                if unit.is_empty() {
                    continue;
                }
                if pos + unit.len() > node_order.len() {
                    return Err(ExecError::Internal(
                        "wave plan covers more nodes than the execution order".into(),
                    ));
                }
                for (off, &nid) in unit.iter().enumerate() {
                    if node_order[pos + off] != nid {
                        return Err(ExecError::Internal(format!(
                            "wave plan diverges from the execution order at position {}",
                            pos + off
                        )));
                    }
                }
                let start = instr_of_pos[pos];
                let end = instr_of_pos[pos + unit.len() - 1] + 1;
                if start != expected || end < start {
                    return Err(ExecError::Internal(format!(
                        "wave unit range [{start}, {end}) does not tile the tape at {expected}"
                    )));
                }
                expected = end;
                ranges.push((start, end));
                pos += unit.len();
            }
            waves.push(ranges);
        }
        if pos != node_order.len() || expected as usize != instrs.len() {
            return Err(ExecError::Internal(format!(
                "wave plan flattens to {} node(s) that differ from the execution order ({})",
                pos,
                node_order.len()
            )));
        }
    }

    // Prebuild constant registers once.
    let mut consts = Vec::new();
    for t in graph.tensor_ids() {
        let info = graph.tensor(t);
        if let Some(data) = &info.const_data {
            let shape = info
                .shape
                .as_known()
                .ok_or_else(|| ExecError::BadInputs("constant with unknown shape".into()))?;
            consts.push((t, const_tensor(&shape, data)));
        }
    }

    Ok(TapeProgram {
        instrs,
        waves,
        register_count: layout.register_count.max(graph.num_tensors()),
        consts,
        num_groups: gidx_of.len(),
        node_count: node_order.len(),
    })
}

/// The precomputed evaluation of one instruction, produced by a wave's
/// parallel phase and consumed by the serial commit phase.
enum TapeEval {
    Chain(ChainEval),
    Plain {
        results: Vec<Option<Tensor>>,
        branches: usize,
    },
}

/// Reusable per-inference scratch: shape buffers for cost accounting.
/// Capacities stabilize after the first few instructions, so the
/// steady-state dispatch loop performs no bookkeeping allocations.
#[derive(Default)]
struct Scratch {
    in_shapes: Vec<Vec<usize>>,
    out_shapes: Vec<Vec<usize>>,
}

fn fill_shapes(bufs: &mut Vec<Vec<usize>>, count: usize) {
    if bufs.len() < count {
        bufs.resize(count, Vec::new());
    }
    for b in bufs.iter_mut().take(count) {
        b.clear();
    }
}

/// Mutable per-inference state of the tape VM (dense arrays indexed by
/// register and group; no maps on the dispatch path).
struct TapeState<'a> {
    env: Vec<Slot>,
    trace: ExecutionTrace,
    live_bytes: usize,
    peak: usize,
    alloc_sizes: Vec<usize>,
    concrete_shapes: HashMap<TensorId, Vec<usize>>,
    branches_executed: usize,
    planned: Vec<bool>,
    arena_backed: usize,
    group_flops: Vec<f64>,
    group_ops: Vec<u32>,
    group_eff: Vec<Option<f64>>,
    group_ext_read: Vec<f64>,
    group_ext_write: Vec<f64>,
    backing: Option<ArenaBacking<'a>>,
}

fn live_slot<'e>(view: &'e EnvView<'e>, t: TensorId) -> Result<&'e Tensor, ExecError> {
    match view.get(t) {
        Slot::Live(ten) => Ok(ten),
        Slot::Dead => Err(ExecError::ControlFlow(format!("{t} is dead"))),
        Slot::Missing => Err(ExecError::ControlFlow(format!("{t} was never produced"))),
    }
}

impl TapeState<'_> {
    fn install_output(
        &mut self,
        cfg: &ExecConfig<'_>,
        name: &str,
        t: TensorId,
        finite: bool,
        materialized: bool,
        tensor: Tensor,
    ) -> Result<(), ExecError> {
        fence_value(cfg.nan_guard, finite, name, t, &tensor)?;
        self.concrete_shapes.insert(t, tensor.shape().to_vec());
        if materialized {
            let b = tensor.byte_size();
            self.live_bytes += b;
            if arena_install(&mut self.backing, &mut self.planned, t, &tensor) {
                self.arena_backed += 1;
            } else {
                self.alloc_sizes.push(b);
            }
            self.peak = self.peak.max(self.live_bytes);
            if let Some(budget) = cfg.memory_budget {
                if self.live_bytes > budget {
                    return Err(ExecError::BudgetExceeded {
                        needed: self.live_bytes,
                        budget,
                    });
                }
            }
        }
        self.env[t.0 as usize] = Slot::Live(tensor);
        Ok(())
    }

    fn apply_releases(&mut self, releases: &[RegRelease]) -> Result<(), ExecError> {
        for r in releases {
            release_slot(
                r.reg,
                r.is_intermediate,
                r.is_output,
                &mut self.env,
                &mut self.live_bytes,
                &mut self.planned,
                &self.backing,
            )?;
        }
        Ok(())
    }
}

/// Commits one instruction: evaluate (or consume the wave phase's
/// precomputed evaluation), account group cost, install results, apply
/// the precompiled releases, and emit the group trace event at the
/// group's statically-known tail. The single mutation point of tape
/// state in both execution modes, so wavefront runs install, account,
/// trace, and release in exactly the serial order.
fn commit_instr(
    graph: &Graph,
    cfg: &ExecConfig<'_>,
    st: &mut TapeState<'_>,
    scratch: &mut Scratch,
    instr: &Instr,
    pre: Option<TapeEval>,
) -> Result<(), ExecError> {
    if sod2_pool::deadline_exceeded() {
        return Err(ExecError::DeadlineExceeded);
    }
    let node = graph.node(instr.nid);
    // Serial commits evaluate in place, so the kernel span covers
    // execution, installation, and release. Wave commits consumed a
    // phase-A evaluation that already ran under its own kernel span; the
    // bookkeeping here gets none, which is what makes `kernel_coverage`
    // measure compute in wavefront mode.
    let _kernel_span = if pre.is_none() {
        Some(sod2_obs::span!("kernel", "{}", node.name))
    } else {
        None
    };

    if let InstrKind::Chain(tc) = &instr.kind {
        let ev = match pre {
            Some(TapeEval::Chain(ev)) => ev,
            Some(_) => {
                return Err(ExecError::Internal(
                    "precomputed evaluation mismatch at chain instruction".into(),
                ))
            }
            None => {
                let view = EnvView {
                    base: &st.env,
                    overlay: None,
                };
                eval_chain(&view, &tc.plan)?
            }
        };
        return commit_chain(graph, cfg, st, instr, tc, ev);
    }

    let (results, branches) = match pre {
        Some(TapeEval::Plain { results, branches }) => (results, branches),
        Some(_) => {
            return Err(ExecError::Internal(
                "precomputed evaluation mismatch at plain instruction".into(),
            ))
        }
        None => {
            let view = EnvView {
                base: &st.env,
                overlay: None,
            };
            eval_plain_with_op(graph, cfg, instr, &view)?
        }
    };
    st.branches_executed += branches;

    // Group cost accounting before results move into registers (input
    // registers are still live at this point).
    let any_live = results.iter().any(Option::is_some);
    if any_live && instr.count_cost {
        fill_shapes(&mut scratch.in_shapes, instr.inputs.len());
        for (k, &t) in instr.inputs.iter().enumerate() {
            if let Slot::Live(ten) = &st.env[t.0 as usize] {
                scratch.in_shapes[k].extend_from_slice(ten.shape());
            }
        }
        let n_live = results.iter().flatten().count();
        fill_shapes(&mut scratch.out_shapes, n_live);
        for (k, ten) in results.iter().flatten().enumerate() {
            scratch.out_shapes[k].extend_from_slice(ten.shape());
        }
        let cost = sod2_device::op_cost(
            &node.op,
            &scratch.in_shapes[..instr.inputs.len()],
            &scratch.out_shapes[..n_live],
            4,
        );
        let g = instr.gidx as usize;
        st.group_flops[g] += cost.flops;
        st.group_ops[g] += 1;
        for (k, &t) in instr.inputs.iter().enumerate() {
            if instr.in_external[k] {
                if let Slot::Live(ten) = &st.env[t.0 as usize] {
                    st.group_ext_read[g] += ten.byte_size() as f64;
                }
            }
        }
        for (k, ten) in results.iter().enumerate() {
            if let Some(ten) = ten {
                if !instr.out_internal[k] {
                    st.group_ext_write[g] += ten.byte_size() as f64;
                }
            }
        }
        if let Some(table) = cfg.version_table {
            if let Some(first) = results.iter().flatten().next() {
                if let Some((m, n)) = hotspot_mn(&node.op, &[first]) {
                    let e = match node.op {
                        Op::Conv2d { .. } => table.conv_efficiency_of(m, n),
                        _ => table.efficiency(m, n),
                    };
                    let slot = &mut st.group_eff[g];
                    *slot = Some(slot.map_or(e, |prev: f64| prev.min(e)));
                }
            }
        }
    }

    // Install results into their registers.
    for (k, result) in results.into_iter().enumerate() {
        let t = instr.outputs[k];
        match result {
            Some(tensor) => {
                st.install_output(
                    cfg,
                    &node.name,
                    t,
                    instr.out_finite[k],
                    !instr.out_internal[k],
                    tensor,
                )?;
            }
            None => {
                st.env[t.0 as usize] = Slot::Dead;
            }
        }
    }

    st.apply_releases(&instr.releases)?;

    if instr.group_tail && st.group_ops[instr.gidx as usize] > 0 {
        let g = instr.gidx as usize;
        st.trace.push(TraceEvent::Kernel {
            name: node.name.clone(),
            cost: sod2_device::OpCost {
                flops: st.group_flops[g],
                bytes_read: st.group_ext_read[g],
                bytes_written: st.group_ext_write[g],
            },
            efficiency: st.group_eff[g],
            working_set: st.live_bytes,
            fused_ops: st.group_ops[g] as usize,
            group: instr.gid,
        });
    }
    Ok(())
}

/// [`eval_plain`] with the operator payload borrowed from the graph.
fn eval_plain_with_op(
    graph: &Graph,
    cfg: &ExecConfig<'_>,
    instr: &Instr,
    view: &EnvView<'_>,
) -> Result<(Vec<Option<Tensor>>, usize), ExecError> {
    // Dead-input propagation (Select handles its own deadness).
    if !matches!(instr.kind, InstrKind::Select { .. }) {
        for &t in &instr.inputs {
            if matches!(view.get(t), Slot::Dead) {
                return Ok((vec![None; instr.outputs.len()], 0));
            }
        }
    }
    match &instr.kind {
        InstrKind::Branch { num_branches } => {
            let data = live_slot(view, instr.inputs[0])?.clone();
            let sel = selector(live_slot(view, instr.inputs[1])?)?;
            if sel as usize >= *num_branches {
                return Err(ExecError::ControlFlow(format!(
                    "selector {sel} out of range for {num_branches} branches"
                )));
            }
            let branches = if cfg.execute_all_branches {
                *num_branches
            } else {
                1
            };
            let out = (0..*num_branches)
                .map(|k| {
                    if cfg.execute_all_branches || k as i64 == sel {
                        Some(data.clone())
                    } else {
                        None
                    }
                })
                .collect();
            Ok((out, branches))
        }
        InstrKind::Select { num_branches } => {
            if matches!(view.get(instr.inputs[*num_branches]), Slot::Dead) {
                return Ok((vec![None], 0));
            }
            let sel = selector(live_slot(view, instr.inputs[*num_branches])?)?;
            if sel as usize >= *num_branches {
                return Err(ExecError::ControlFlow(format!(
                    "selector {sel} out of range for {num_branches} branches"
                )));
            }
            let chosen = instr.inputs[sel as usize];
            Ok((vec![Some(live_slot(view, chosen)?.clone())], 0))
        }
        InstrKind::Kernel => {
            let op = &graph.node(instr.nid).op;
            let n_in = instr.inputs.len();
            let outs = if n_in > 0 && n_in <= INLINE_ARITY {
                let first = live_slot(view, instr.inputs[0])?;
                let mut arr: [&Tensor; INLINE_ARITY] = [first; INLINE_ARITY];
                for (k, &t) in instr.inputs.iter().enumerate().skip(1) {
                    arr[k] = live_slot(view, t)?;
                }
                let ins = &arr[..n_in];
                let (gemm, conv) = instr_variants(instr, op, ins, cfg);
                execute_op_with_variants(op, ins, gemm, conv)?
            } else {
                let mut ins: Vec<&Tensor> = Vec::with_capacity(n_in);
                for &t in &instr.inputs {
                    ins.push(live_slot(view, t)?);
                }
                let (gemm, conv) = instr_variants(instr, op, &ins, cfg);
                execute_op_with_variants(op, &ins, gemm, conv)?
            };
            Ok((outs.into_iter().map(Some).collect(), 0))
        }
        InstrKind::Chain(_) => Err(ExecError::Internal(
            "chain instruction reached the plain evaluator".into(),
        )),
    }
}

/// Resolves the GEMM/CONV configurations for a kernel instruction: the
/// compile-time baked variant when the tape carries one (zero runtime
/// selection work), else runtime selection from the input shapes.
fn instr_variants(
    instr: &Instr,
    op: &Op,
    ins: &[&Tensor],
    cfg: &ExecConfig<'_>,
) -> (GemmParams, ConvParams) {
    match instr.variant {
        Some(BakedVariant::Gemm(g)) => {
            sod2_obs::counter_add("mvc.variant_hits", 1);
            (g, ConvParams::default())
        }
        Some(BakedVariant::Conv(c)) => {
            sod2_obs::counter_add("mvc.variant_hits", 1);
            (GemmParams::default(), c)
        }
        None => select_variants(op, ins, cfg.version_table),
    }
}

/// Commits a fused-chain instruction member by member: the fused trace event at the head (working
/// set measured before any release), each member's releases at its
/// original position, and the final-output install at the tail.
fn commit_chain(
    graph: &Graph,
    cfg: &ExecConfig<'_>,
    st: &mut TapeState<'_>,
    instr: &Instr,
    tc: &TapeChain,
    ev: ChainEval,
) -> Result<(), ExecError> {
    let n = tc.member_releases.len();
    match ev.result {
        Some(out) => {
            st.trace.push(TraceEvent::Kernel {
                name: format!("fused[{}]", tc.members.len()),
                cost: sod2_device::OpCost {
                    flops: ev.flops,
                    bytes_read: ev.ext_read,
                    bytes_written: out.byte_size() as f64,
                },
                efficiency: None,
                working_set: st.live_bytes + out.byte_size(),
                fused_ops: tc.members.len(),
                group: instr.gid,
            });
            // Head and mid members release at their original positions;
            // the tail installs the final output first, then releases.
            for releases in tc.member_releases.iter().take(n.saturating_sub(1)) {
                st.apply_releases(releases)?;
            }
            let tail_name = &graph.node(tc.tail_nid).name;
            st.install_output(cfg, tail_name, tc.final_reg, tc.final_finite, true, out)?;
            if let Some(last) = tc.member_releases.last() {
                st.apply_releases(last)?;
            }
        }
        None => {
            // Dead chain: every member output dies, releases interleaved
            // in member order.
            for (k, releases) in tc.member_releases.iter().enumerate() {
                st.env[tc.member_outputs[k].0 as usize] = Slot::Dead;
                st.apply_releases(releases)?;
            }
        }
    }
    Ok(())
}

/// Pure phase-A evaluation of one unit's instruction range: reads the
/// committed register file plus a unit-local overlay, never mutates
/// shared state, so units of one wave may evaluate concurrently (a legal
/// wavefront schedule has no cross-unit dependence within a wave).
fn eval_tape_unit(
    graph: &Graph,
    cfg: &ExecConfig<'_>,
    tape: &TapeProgram,
    env: &[Slot],
    range: (u32, u32),
    overlay: &mut Overlay,
) -> Result<Vec<TapeEval>, ExecError> {
    overlay.clear();
    let (start, end) = (range.0 as usize, range.1 as usize);
    let mut out = Vec::with_capacity(end - start);
    for instr in &tape.instrs[start..end] {
        if sod2_pool::deadline_exceeded() {
            return Err(ExecError::DeadlineExceeded);
        }
        let node = graph.node(instr.nid);
        let _kernel_span = sod2_obs::span!("kernel", "{}", node.name);
        if let InstrKind::Chain(tc) = &instr.kind {
            let ev = {
                let view = EnvView {
                    base: env,
                    overlay: Some(overlay),
                };
                eval_chain(&view, &tc.plan)?
            };
            overlay.insert(
                tc.final_reg.0 as usize,
                match &ev.result {
                    Some(t) => Slot::Live(t.clone()),
                    None => Slot::Dead,
                },
            );
            out.push(TapeEval::Chain(ev));
            continue;
        }
        let (results, branches) = {
            let view = EnvView {
                base: env,
                overlay: Some(overlay),
            };
            eval_plain_with_op(graph, cfg, instr, &view)?
        };
        for (k, r) in results.iter().enumerate() {
            overlay.insert(
                instr.outputs[k].0 as usize,
                match r {
                    Some(t) => Slot::Live(t.clone()),
                    None => Slot::Dead,
                },
            );
        }
        out.push(TapeEval::Plain { results, branches });
    }
    Ok(out)
}

/// Executes a compiled tape on concrete inputs.
///
/// `cfg` supplies the runtime knobs (version table,
/// execute-all-branches, NaN guard, memory budget); its plan
/// fields (`fusion`, `node_order`, `wave_plan`) are ignored — those
/// decisions were baked into the tape at compile time. `backing`, when
/// present, serves planned intermediates from an arena slab (see
/// [`ArenaBacking`]). `wavefront` selects between the serial dispatch
/// loop and two-phase wave execution over the tape's compiled
/// `(start, end)` ranges.
///
/// # Errors
///
/// Kernel failures, input-count mismatches, malformed control flow,
/// arena readback mismatches, deadline, budget, and numeric fences.
pub fn execute_tape(
    graph: &Graph,
    inputs: &[Tensor],
    tape: &TapeProgram,
    cfg: &ExecConfig<'_>,
    backing: Option<ArenaBacking<'_>>,
    wavefront: bool,
) -> Result<RunOutcome, ExecError> {
    if inputs.len() != graph.inputs().len() {
        return Err(ExecError::BadInputs(format!(
            "expected {} inputs, got {}",
            graph.inputs().len(),
            inputs.len()
        )));
    }
    let mut env: Vec<Slot> = vec![Slot::Missing; tape.register_count];
    for (t, tensor) in &tape.consts {
        env[t.0 as usize] = Slot::Live(tensor.clone());
    }
    for (&t, tensor) in graph.inputs().iter().zip(inputs) {
        if cfg.nan_guard {
            if let Ok(v) = tensor.as_f32() {
                if !v.iter().all(|x| x.is_finite()) {
                    return Err(ExecError::NumericFault(format!(
                        "non-finite value in graph input {t}"
                    )));
                }
            }
        }
        env[t.0 as usize] = Slot::Live(tensor.clone());
    }

    let mut st = TapeState {
        env,
        trace: ExecutionTrace::new(),
        live_bytes: 0,
        peak: 0,
        alloc_sizes: Vec::new(),
        concrete_shapes: HashMap::new(),
        branches_executed: 0,
        planned: vec![false; tape.register_count],
        arena_backed: 0,
        group_flops: vec![0.0; tape.num_groups],
        group_ops: vec![0; tape.num_groups],
        group_eff: vec![None; tape.num_groups],
        group_ext_read: vec![0.0; tape.num_groups],
        group_ext_write: vec![0.0; tape.num_groups],
        backing,
    };
    let mut scratch = Scratch::default();

    sod2_obs::gauge_max("exec.tape_len", tape.instrs.len() as u64);
    sod2_obs::gauge_max("exec.register_count", tape.register_count as u64);

    if wavefront && !tape.waves.is_empty() {
        let mut max_width = 0usize;
        for wave in &tape.waves {
            max_width = max_width.max(wave.len());
            if sod2_pool::deadline_exceeded() {
                return Err(ExecError::DeadlineExceeded);
            }
            sod2_obs::counter_add("exec.wave_units", wave.len() as u64);
            if wave.len() <= 1 {
                // Single-unit wave: evaluate-and-commit inline, no
                // submission overhead and no precompute pass.
                for &(s, e) in wave {
                    for idx in s..e {
                        commit_instr(
                            graph,
                            cfg,
                            &mut st,
                            &mut scratch,
                            &tape.instrs[idx as usize],
                            None,
                        )?;
                    }
                }
                continue;
            }
            // Phase A: evaluate the wave's units concurrently against the
            // committed register file.
            let threads = sod2_pool::current_threads();
            let deadline = sod2_pool::current_deadline();
            let mut slots: Vec<Option<Result<Vec<TapeEval>, ExecError>>> = Vec::new();
            slots.resize_with(wave.len(), || None);
            {
                let env_ref = &st.env;
                sod2_pool::scope_chunks(&mut slots, 1, |idx, chunk| {
                    chunk[0] = Some(sod2_pool::with_threads(threads, || {
                        sod2_pool::with_deadline(deadline, || {
                            let mut local = Overlay::new();
                            eval_tape_unit(graph, cfg, tape, env_ref, wave[idx], &mut local)
                        })
                    }));
                });
            }
            // Phase B: publish serially in tape order — the register
            // publish moves Arc-backed tensors, no payload copies.
            let mut evals: Vec<Vec<TapeEval>> = Vec::with_capacity(wave.len());
            for (idx, slot) in slots.into_iter().enumerate() {
                match slot {
                    Some(Ok(unit_evals)) => evals.push(unit_evals),
                    // Deterministic error selection: first failing unit in
                    // job order, regardless of wallclock finish order.
                    Some(Err(e)) => return Err(e),
                    None => {
                        if sod2_pool::deadline_exceeded() {
                            return Err(ExecError::DeadlineExceeded);
                        }
                        return Err(ExecError::Internal(format!(
                            "wave evaluation slot {idx} was never filled"
                        )));
                    }
                }
            }
            for (&(s, e), unit_evals) in wave.iter().zip(evals) {
                for (idx, ev) in (s..e).zip(unit_evals) {
                    commit_instr(
                        graph,
                        cfg,
                        &mut st,
                        &mut scratch,
                        &tape.instrs[idx as usize],
                        Some(ev),
                    )?;
                }
            }
        }
        sod2_obs::counter_add("exec.waves", tape.waves.len() as u64);
        sod2_obs::gauge_max("exec.max_wave_width", max_width as u64);
    } else {
        for instr in &tape.instrs {
            commit_instr(graph, cfg, &mut st, &mut scratch, instr, None)?;
        }
    }

    if sod2_pool::deadline_exceeded() {
        return Err(ExecError::DeadlineExceeded);
    }
    sod2_obs::gauge_max("exec.peak_live_bytes", st.peak as u64);
    sod2_obs::counter_add("exec.heap_fallback_allocs", st.alloc_sizes.len() as u64);
    sod2_obs::counter_add(
        "exec.heap_fallback_bytes",
        st.alloc_sizes.iter().map(|&b| b as u64).sum(),
    );
    sod2_obs::counter_add("exec.arena_backed", st.arena_backed as u64);
    sod2_obs::counter_add("exec.branches_executed", st.branches_executed as u64);
    let _outputs_span = sod2_obs::span!("mem", "outputs readback");
    let mut outputs = Vec::with_capacity(graph.outputs().len());
    for &t in graph.outputs() {
        match &st.env[t.0 as usize] {
            Slot::Live(ten) => {
                let key = t.0 as usize;
                if st.planned.get(key).copied().unwrap_or(false) {
                    let b = st.backing.as_ref().ok_or_else(|| {
                        ExecError::Internal("planned tensor without arena backing".into())
                    })?;
                    let bytes = b.arena.try_read(key, ten.byte_size()).ok_or_else(|| {
                        ExecError::Memory(format!("arena slot for output {t} vanished"))
                    })?;
                    if bytes != ten.payload_le_bytes().as_slice() {
                        return Err(ExecError::Memory(format!(
                            "arena slot for output {t} was clobbered while live"
                        )));
                    }
                    let label = match ten.data() {
                        Data::F32(_) => "f32",
                        Data::I64(_) => "i64",
                        Data::Bool(_) => "bool",
                        Data::U8(_) => "u8",
                    };
                    let rebuilt = Tensor::from_payload_le(ten.shape(), label, bytes)
                        .map_err(|e| ExecError::Memory(format!("rebuild output {t}: {e}")))?;
                    outputs.push(rebuilt);
                } else {
                    outputs.push(ten.clone());
                }
            }
            _ => {
                return Err(ExecError::ControlFlow(format!(
                    "graph output {t} was never produced (dead branch?)"
                )))
            }
        }
    }
    if cfg.nan_guard {
        for (i, out) in outputs.iter().enumerate() {
            if let Ok(v) = out.as_f32() {
                if !v.iter().all(|x| x.is_finite()) {
                    return Err(ExecError::NumericFault(format!(
                        "non-finite value in output {i}"
                    )));
                }
            }
        }
    }
    Ok(RunOutcome {
        outputs,
        trace: st.trace,
        peak_live_bytes: st.peak,
        alloc_sizes: st.alloc_sizes,
        concrete_shapes: st.concrete_shapes,
        branches_executed: st.branches_executed,
        arena_backed: st.arena_backed,
    })
}
