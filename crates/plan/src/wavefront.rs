//! Wavefront scheduling: SEP generalized from "order minimizing peak" to
//! "schedule maximizing width subject to peak ≤ serial_peak × (1 + slack)".
//!
//! The SEP unit order (§4.3) is partitioned into *wavefronts* — sets of
//! mutually independent units that may execute concurrently. Waves are
//! packed greedily in SEP order: each wave admits every *ready* unit (all
//! predecessors in strictly earlier waves) whose admission keeps the
//! wave-granularity concurrent peak within `serial_peak × (1 + slack)`;
//! units the bound rejects are deferred to a later wave. Scanning in SEP
//! order staggers long parallel chains instead of hoisting all of them at
//! once (the failure mode of pure ASAP level sets, under which every
//! chain's intermediates are live simultaneously), so the number of
//! concurrently-inflight chains adapts to the memory bound. When even the
//! packed schedule's exact peak lands above the bound, the schedule
//! degenerates to the serial SEP order — one unit per wave — whose peak
//! equals the serial peak by construction.
//!
//! Lifetimes at *wave* granularity ([`wavefront_lifetimes`]) are the load-
//! bearing artifact: every tensor consumed by a wave stays live through the
//! whole wave, and every tensor produced by a wave is live from that wave
//! on. A DMP offset plan computed from these lifetimes can never alias two
//! tensors that are live in the same wave, which is what makes arena-backed
//! parallel execution safe.

use crate::order::order_peak_bytes;
use crate::units::UnitGraph;
use sod2_ir::{Graph, TensorId};
use sod2_mem::{peak_live_bytes, TensorLife};
use std::collections::HashMap;

/// Options for the wavefront planner.
#[derive(Debug, Clone, Copy)]
pub struct WavefrontOptions {
    /// Allowed peak-memory slack over the serial SEP peak: the parallel
    /// schedule's planned peak must satisfy
    /// `peak ≤ serial_peak × (1 + slack)`.
    pub slack: f64,
    /// Hard cap on units per wave (`usize::MAX` = unbounded).
    pub max_width: usize,
}

impl Default for WavefrontOptions {
    fn default() -> Self {
        WavefrontOptions {
            slack: 0.5,
            max_width: usize::MAX,
        }
    }
}

/// A static parallel schedule over SEP units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WavefrontSchedule {
    /// Unit ids per wave; units within a wave are mutually independent and
    /// kept in SEP relative order. Concatenated, the waves form a valid
    /// topological order of the unit graph.
    pub waves: Vec<Vec<usize>>,
    /// Peak materialized bytes of the serial SEP order (the baseline).
    pub serial_peak: usize,
    /// Peak concurrent live bytes of this schedule at wave granularity.
    pub parallel_peak: usize,
    /// Widest wave in the final schedule.
    pub max_width: usize,
    /// Ready units the memory bound deferred to a later wave.
    pub splits: usize,
    /// True when the planner could not meet the bound with any parallel
    /// schedule and fell back to the serial SEP order (singleton waves).
    pub serial_fallback: bool,
}

impl WavefrontSchedule {
    /// The schedule flattened back into a unit order.
    pub fn flat_unit_order(&self) -> Vec<usize> {
        self.waves.iter().flatten().copied().collect()
    }
}

/// Plans dependence-respecting wavefronts over `unit_order` (which must be
/// a topological order of `ug`, normally the SEP order), subject to the
/// memory bound in `opts`.
pub fn plan_wavefronts(
    graph: &Graph,
    ug: &UnitGraph,
    unit_order: &[usize],
    size_of: &dyn Fn(TensorId) -> usize,
    opts: WavefrontOptions,
) -> WavefrontSchedule {
    let serial_peak = order_peak_bytes(graph, ug, unit_order, size_of);
    // `bound` in saturating arithmetic: a huge serial peak must not wrap.
    let slack = opts.slack.max(0.0);
    let bound = (serial_peak as f64 * (1.0 + slack)).min(usize::MAX as f64) as usize;
    let width_cap = opts.max_width.max(1);

    // Greedy SEP-ordered packing. Each round scans the unscheduled units
    // in SEP order and admits every ready unit (all predecessors in
    // strictly earlier waves) whose admission keeps the wave-granularity
    // peak of the packed-so-far schedule — completed with the rest of the
    // SEP order as singleton waves — within the bound. The first ready
    // unit of a round is always admitted, so every round makes progress;
    // with a tight bound the packing degenerates toward the serial SEP
    // order, with a loose one toward maximal ready sets.
    let n = ug.len();
    let mut probe = PackingProbe::new(graph, ug, size_of);
    let mut scheduled = vec![false; n];
    let mut in_wave = vec![false; n];
    let mut remaining: Vec<usize> = unit_order.to_vec();
    let mut waves: Vec<Vec<usize>> = Vec::new();
    let mut splits = 0usize;
    while !remaining.is_empty() {
        let mut wave: Vec<usize> = Vec::new();
        for &u in &remaining {
            if wave.len() >= width_cap {
                break;
            }
            if ug.preds[u].iter().any(|p| !scheduled[*p]) {
                continue;
            }
            wave.push(u);
            in_wave[u] = true;
            if wave.len() == 1 {
                continue; // progress guarantee: first ready unit always in
            }
            // Tentative peak of [packed waves, this wave, rest serialized].
            if probe.peak(waves.len(), &wave, &remaining, &in_wave) > bound {
                wave.pop();
                in_wave[u] = false;
                splits += 1;
            }
        }
        probe.place(waves.len(), &wave);
        for &u in &wave {
            scheduled[u] = true;
            in_wave[u] = false;
        }
        remaining.retain(|&u| !scheduled[u]);
        waves.push(wave);
    }

    // Exact re-validation: packing reorders units across waves, which can
    // extend lifetimes beyond the greedy estimate. A violation degrades to
    // the serial SEP order, whose peak is `serial_peak ≤ bound` by
    // construction.
    let mut serial_fallback = false;
    let mut parallel_peak = peak_live_bytes(&wavefront_lifetimes(graph, ug, &waves, size_of));
    if parallel_peak > bound {
        serial_fallback = true;
        waves = unit_order.iter().map(|&u| vec![u]).collect();
        parallel_peak = serial_peak;
    }

    let max_width = waves.iter().map(Vec::len).max().unwrap_or(0);
    WavefrontSchedule {
        waves,
        serial_peak,
        parallel_peak,
        max_width,
        splits,
        serial_fallback,
    }
}

/// The admission probe of [`plan_wavefronts`]: the wave-granularity peak
/// of a tentative schedule (packed waves, the wave being packed, every
/// other remaining unit as a singleton wave), equal to
/// `peak_live_bytes(&wavefront_lifetimes(..))` of that schedule.
///
/// The tensor table (size, producer unit, consumer units, output flag) is
/// built once, so `size_of` runs once per tensor; a probe reassigns the
/// steps of the unpacked units in a reused array and sweeps a reused
/// difference array: O(units + tensors), no allocation.
struct PackingProbe {
    tensors: Vec<ProbeTensor>,
    /// Consumer units of every tensor, flat ([`ProbeTensor::consumers`]).
    consumers: Vec<usize>,
    /// Wave index of every unit in the schedule being probed.
    step: Vec<usize>,
    /// Live-byte change entering each step (wrapping, as in
    /// `sod2_mem::peak_live_bytes`).
    delta: Vec<usize>,
}

/// One materialized tensor in a [`PackingProbe`].
struct ProbeTensor {
    size: usize,
    producer: usize,
    consumers: std::ops::Range<usize>,
    is_output: bool,
}

impl PackingProbe {
    fn new(graph: &Graph, ug: &UnitGraph, size_of: &dyn Fn(TensorId) -> usize) -> Self {
        let mut consumers = Vec::new();
        let tensors = ug
            .producer
            .iter()
            .map(|(t, &producer)| {
                let start = consumers.len();
                consumers.extend(ug.consumers.get(t).into_iter().flatten().copied());
                ProbeTensor {
                    size: size_of(*t),
                    producer,
                    consumers: start..consumers.len(),
                    is_output: graph.outputs().contains(t),
                }
            })
            .collect();
        PackingProbe {
            tensors,
            consumers,
            step: vec![0; ug.len()],
            delta: vec![0; ug.len() + 2],
        }
    }

    /// Fixes the steps of a packed wave's units.
    fn place(&mut self, step: usize, wave: &[usize]) {
        for &u in wave {
            self.step[u] = step;
        }
    }

    /// Peak live bytes of `packed` placed waves, then `wave`, then every
    /// unit of `remaining` outside the wave (`in_wave`) as a singleton.
    fn peak(
        &mut self,
        packed: usize,
        wave: &[usize],
        remaining: &[usize],
        in_wave: &[bool],
    ) -> usize {
        self.place(packed, wave);
        let mut last_step = packed;
        for &u in remaining {
            if !in_wave[u] {
                last_step += 1;
                self.step[u] = last_step;
            }
        }
        let delta = &mut self.delta[..last_step + 2];
        delta.fill(0);
        for t in &self.tensors {
            let def = self.step[t.producer];
            let last_use = self.consumers[t.consumers.clone()]
                .iter()
                .map(|&c| self.step[c])
                .chain(t.is_output.then_some(last_step))
                .max()
                .unwrap_or(def);
            if def <= last_use {
                delta[def] = delta[def].wrapping_add(t.size);
                delta[last_use + 1] = delta[last_use + 1].wrapping_sub(t.size);
            }
        }
        let (mut live, mut peak) = (0usize, 0usize);
        for &d in &delta[..=last_step] {
            live = live.wrapping_add(d);
            peak = peak.max(live);
        }
        peak
    }
}

/// Builds lifetime records at *wave* granularity: one step per wave, a
/// tensor's def at its producer's wave and uses at its consumers' waves
/// (graph outputs held through the last wave). A memory plan over these
/// lifetimes never aliases two tensors live in the same wave, so it is
/// safe under concurrent execution of that wave.
pub fn wavefront_lifetimes(
    graph: &Graph,
    ug: &UnitGraph,
    waves: &[Vec<usize>],
    size_of: &dyn Fn(TensorId) -> usize,
) -> Vec<TensorLife> {
    let step_of: HashMap<usize, usize> = waves
        .iter()
        .enumerate()
        .flat_map(|(step, wave)| wave.iter().map(move |&u| (u, step)))
        .collect();
    let last_step = waves.len().saturating_sub(1);
    let mut lives = Vec::new();
    for (t, &producer) in &ug.producer {
        let def = step_of[&producer];
        let mut uses: Vec<usize> = ug
            .consumers
            .get(t)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .filter_map(|c| step_of.get(c).copied())
            .collect();
        if graph.outputs().contains(t) {
            uses.push(last_step);
        }
        lives.push(TensorLife::new(t.0 as usize, size_of(*t), def, uses));
    }
    lives.sort_by_key(|l| l.key);
    lives
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{naive_unit_order, plan_order, SepOptions};
    use crate::partition::partition_units;
    use sod2_fusion::{fuse, FusionPolicy};
    use sod2_ir::{BinaryOp, DType, Graph, Op};

    /// x fans out into 3 independent Softmax branches merged pairwise —
    /// the branches should land in one wave.
    fn fanout_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![16.into()]);
        let b1 = g.add_simple("s1", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let b2 = g.add_simple("s2", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let b3 = g.add_simple("s3", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let m1 = g.add_simple("m1", Op::Binary(BinaryOp::Add), &[b1, b2], DType::F32);
        let m2 = g.add_simple("m2", Op::Binary(BinaryOp::Add), &[m1, b3], DType::F32);
        g.mark_output(m2);
        g
    }

    fn setup(g: &Graph) -> (UnitGraph, Vec<usize>) {
        let rdp = sod2_rdp::analyze(g);
        let plan = fuse(g, &rdp, FusionPolicy::Rdp);
        let ug = UnitGraph::build(g, &plan);
        let parts = partition_units(g, &rdp, &plan, &ug);
        let ep = plan_order(g, &ug, &parts, &|_t| 64, SepOptions::default());
        (ug, ep.unit_order)
    }

    fn assert_legal(ug: &UnitGraph, ws: &WavefrontSchedule) {
        // Every unit exactly once.
        let mut flat = ws.flat_unit_order();
        assert_eq!(flat.len(), ug.len());
        flat.sort_unstable();
        assert_eq!(flat, (0..ug.len()).collect::<Vec<_>>());
        // Dependence: every pred in a strictly earlier wave.
        let wave_of: HashMap<usize, usize> = ws
            .waves
            .iter()
            .enumerate()
            .flat_map(|(w, units)| units.iter().map(move |&u| (u, w)))
            .collect();
        for u in 0..ug.len() {
            for &p in &ug.preds[u] {
                assert!(wave_of[&p] < wave_of[&u], "pred {p} not before {u}");
            }
        }
    }

    #[test]
    fn fanout_branches_share_a_wave() {
        let g = fanout_graph();
        let (ug, order) = setup(&g);
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, WavefrontOptions::default());
        assert_legal(&ug, &ws);
        // Fusion may merge some branches, but at least two units must be
        // independent and share a wave.
        assert!(ws.max_width >= 2, "independent branches: {:?}", ws.waves);
        assert!(!ws.serial_fallback);
        assert!(ws.parallel_peak as f64 <= ws.serial_peak as f64 * 1.5);
    }

    #[test]
    fn zero_slack_forces_serial_peak() {
        let g = fanout_graph();
        let (ug, order) = setup(&g);
        let opts = WavefrontOptions {
            slack: 0.0,
            ..Default::default()
        };
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, opts);
        assert_legal(&ug, &ws);
        assert!(ws.parallel_peak <= ws.serial_peak);
    }

    #[test]
    fn max_width_is_respected() {
        let g = fanout_graph();
        let (ug, order) = setup(&g);
        let opts = WavefrontOptions {
            max_width: 1,
            ..Default::default()
        };
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, opts);
        assert_legal(&ug, &ws);
        assert_eq!(ws.max_width, 1);
    }

    #[test]
    fn chain_degenerates_to_singletons() {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![8.into()]);
        let a = g.add_simple("a", Op::Softmax { axis: 0 }, &[x], DType::F32);
        let b = g.add_simple("b", Op::Softmax { axis: 0 }, &[a], DType::F32);
        g.mark_output(b);
        let (ug, order) = setup(&g);
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, WavefrontOptions::default());
        assert_legal(&ug, &ws);
        assert_eq!(ws.max_width, 1);
        assert_eq!(ws.parallel_peak, ws.serial_peak);
    }

    #[test]
    fn wave_lifetimes_cover_all_materialized_tensors() {
        let g = fanout_graph();
        let (ug, order) = setup(&g);
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, WavefrontOptions::default());
        let lives = wavefront_lifetimes(&g, &ug, &ws.waves, &|_t| 64);
        assert_eq!(lives.len(), ug.producer.len());
        // Wave-granularity peak is never below the serial-order peak of the
        // flattened schedule (concurrency can only add live bytes).
        let flat = ws.flat_unit_order();
        let flat_peak = order_peak_bytes(&g, &ug, &flat, &|_t| 64);
        assert!(peak_live_bytes(&lives) >= flat_peak.min(ws.serial_peak));
    }

    #[test]
    fn naive_order_also_plans() {
        // The planner accepts any topological order, not just SEP.
        let g = fanout_graph();
        let (ug, _) = setup(&g);
        let order = naive_unit_order(&ug);
        let ws = plan_wavefronts(&g, &ug, &order, &|_t| 64, WavefrontOptions::default());
        assert_legal(&ug, &ws);
    }
}
