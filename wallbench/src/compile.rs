//! Stage-by-stage replay of `Sod2Engine::new`'s compile pipeline through
//! the crates' public functions, timing each stage, plus the operator
//! table that maps kernel spans to op classes and FLOPs.
//!
//! The replay follows the engine's construction step for step with
//! `Sod2Options::default()` (release builds skip the engine's debug-only
//! verification, and so does the replay). Whatever the engine does beyond
//! these stages shows up as `compile.glue_ms`.

use crate::spans::CLASSES;
use sod2_device::{op_cost, DeviceProfile};
use sod2_frameworks::Sod2Options;
use sod2_fusion::fuse;
use sod2_ir::{Graph, NodeId, Op, TensorId};
use sod2_mem::{plan_sod2, size_class_peak, TensorLife};
use sod2_mvc::VersionTable;
use sod2_plan::{
    naive_unit_order, partition_units, plan_order, plan_tape_layout, plan_wavefronts,
    unit_lifetimes, SepOptions, UnitGraph, WavefrontOptions,
};
use sod2_rdp::{analyze, RdpResult};
use sod2_runtime::{compile_tape, fold_constants, BakedVariant, InstrKind, WaveExecPlan};
use sod2_sym::Bindings;
use std::collections::HashMap;
use std::time::Instant;

/// Compile stages in pipeline order, as metric names.
pub const STAGES: [&str; 8] = [
    "compile.fold_ms",
    "compile.rdp_ms",
    "compile.absint_ms",
    "compile.fusion_ms",
    "compile.sep_ms",
    "compile.wavefront_ms",
    "compile.mvc_ms",
    "compile.tape_ms",
];

/// Seconds spent in each of [`STAGES`].
pub type StageTimes = [f64; 8];

/// What the replay compiled: enough to name, classify and price every
/// tape instruction.
pub struct Compiled {
    graph: Graph,
    rdp: RdpResult,
    /// Per tape instruction: anchor node name, op class, member nodes.
    instrs: Vec<(String, usize, Vec<NodeId>)>,
}

/// Runs the pipeline once and times every stage.
pub fn replay(graph: &Graph, profile: &DeviceProfile) -> (StageTimes, Compiled) {
    let opts = Sod2Options::default();
    let repr = Bindings::default();
    let mut t = [0.0; 8];
    let mut clock = Instant::now();
    let mut lap = |stage: usize| {
        t[stage] += clock.elapsed().as_secs_f64();
        clock = Instant::now();
    };

    let (graph, _) = fold_constants(graph);
    lap(0);
    let rdp = analyze(&graph);
    lap(1);
    let (certs, report) = sod2_analysis::certify(&graph, &rdp);
    let pruned = (opts.absint && opts.native_control_flow && !report.has_errors())
        .then(|| sod2_analysis::prune_dead_arms(&graph, &certs))
        .flatten()
        .filter(|out| sod2_analysis::verify_arm_pruning(&graph, &out.graph).is_empty());
    let (graph, rdp, certs) = match pruned {
        Some(out) => {
            let rdp = analyze(&out.graph);
            let (certs, _) = sod2_analysis::certify(&out.graph, &rdp);
            (out.graph, rdp, certs)
        }
        None => (graph, rdp, certs),
    };
    lap(2);
    let fusion_plan = fuse(&graph, &rdp, opts.fusion);
    lap(3);
    let unit_graph = UnitGraph::build(&graph, &fusion_plan);
    let partitions = partition_units(&graph, &rdp, &fusion_plan, &unit_graph);
    const DEFAULT_DIM: i64 = 32;
    let size_at = |t: TensorId, dim: i64| -> usize {
        rdp.symbolic_bytes(&graph, t)
            .and_then(|e| e.eval_with_default(&repr, dim))
            .map(|b| b.max(0) as usize)
            .unwrap_or(4096)
    };
    let size_of = |t: TensorId| size_at(t, DEFAULT_DIM);
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
        let objective = |order: &[usize], dim: i64| -> usize {
            let lives: Vec<TensorLife> =
                unit_lifetimes(&graph, &unit_graph, order, &|t| size_at(t, dim))
                    .into_iter()
                    .filter(|l| l.size > 0)
                    .collect();
            if opts.dmp {
                plan_sod2(&lives).peak
            } else {
                size_class_peak(&lives)
            }
        };
        let dominates = [8, 16, 32, 64, 128]
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
    lap(4);
    let wave_schedule = opts.wavefront_exec.then(|| {
        plan_wavefronts(
            &graph,
            &unit_graph,
            &unit_order,
            &size_of,
            WavefrontOptions {
                slack: opts.wavefront_slack,
                ..WavefrontOptions::default()
            },
        )
    });
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
    lap(5);
    let table = opts.mvc.then(|| {
        VersionTable::load_or_tune(profile, 0xC0DE, sod2_mvc::cache::cache_dir().as_deref()).0
    });
    lap(6);
    let layout = plan_tape_layout(&graph, &node_order);
    let baked: Option<HashMap<NodeId, BakedVariant>> = table.as_ref().map(|t| {
        let empty = Bindings::default();
        let mut baked = HashMap::new();
        for node in graph.nodes() {
            let Some(shape) = node
                .outputs
                .first()
                .and_then(|&out| rdp.concrete_shape(out, &empty))
            else {
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
    let tape = opts
        .tape_exec
        .then(|| {
            compile_tape(
                &graph,
                &layout,
                &node_order,
                Some(&fusion_plan),
                true,
                opts.absint.then_some(certs.finite.as_slice()),
                wave_exec.as_ref(),
                baked.as_ref(),
            )
            .ok()
        })
        .flatten();
    lap(7);
    let instrs = match &tape {
        Some(tp) => tp
            .instrs()
            .iter()
            .map(|i| {
                let members = match &i.kind {
                    InstrKind::Chain(c) => c.members.clone(),
                    _ => vec![i.nid],
                };
                let class = class_of(&graph, &members);
                (graph.node(i.nid).name.clone(), class, members)
            })
            .collect(),
        None => node_order
            .iter()
            .map(|&n| (graph.node(n).name.clone(), class_of(&graph, &[n]), vec![n]))
            .collect(),
    };
    (t, Compiled { graph, rdp, instrs })
}

/// Op class index into [`CLASSES`] of one operator.
fn op_class(op: &Op) -> usize {
    match op {
        Op::MatMul | Op::Gemm { .. } => 0,
        Op::Conv2d { .. } => 1,
        Op::Binary(_)
        | Op::Compare(_)
        | Op::Unary(_)
        | Op::Cast { .. }
        | Op::Clip { .. }
        | Op::Where
        | Op::BatchNorm { .. } => 2,
        Op::Softmax { .. }
        | Op::LogSoftmax { .. }
        | Op::Reduce { .. }
        | Op::LayerNorm { .. }
        | Op::InstanceNorm { .. }
        | Op::GlobalAvgPool
        | Op::ArgMax { .. }
        | Op::CumSum { .. } => 3,
        _ => 4,
    }
}

/// Class of an instruction: its heaviest member's (GEMM before CONV
/// before softmax/reduce before element-wise before the rest).
fn class_of(graph: &Graph, members: &[NodeId]) -> usize {
    let rank = [0, 1, 3, 2, 4];
    members
        .iter()
        .map(|&n| op_class(&graph.node(n).op))
        .min_by_key(|&c| rank[c])
        .unwrap_or(CLASSES.len() - 1)
}

impl Compiled {
    /// Kernel span name → (class, FLOPs) at `bindings`. FLOPs come from
    /// the shapes RDP resolves at these bindings (members whose shapes
    /// stay data-dependent count 0); nothing here is measured.
    pub fn kernel_table(&self, bindings: &Bindings) -> HashMap<String, (usize, f64)> {
        let concrete = |t: TensorId| -> Option<Vec<usize>> {
            self.rdp.concrete_shape(t, bindings).map(|dims| {
                dims.into_iter()
                    .map(|d| usize::try_from(d).unwrap_or(0))
                    .collect()
            })
        };
        self.instrs
            .iter()
            .map(|(name, class, members)| {
                let flops: f64 = members
                    .iter()
                    .filter_map(|&n| {
                        let node = self.graph.node(n);
                        let ins: Option<Vec<_>> =
                            node.inputs.iter().map(|&t| concrete(t)).collect();
                        let outs: Option<Vec<_>> =
                            node.outputs.iter().map(|&t| concrete(t)).collect();
                        let elem = node
                            .outputs
                            .first()
                            .map(|&t| self.graph.tensor(t).dtype.size_bytes())
                            .unwrap_or(4);
                        Some(op_cost(&node.op, &ins?, &outs?, elem).flops)
                    })
                    .sum();
                (name.clone(), (*class, flops))
            })
            .collect()
    }

    /// The compiled graph (input bindings are derived against it).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}
