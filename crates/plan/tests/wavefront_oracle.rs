//! The wavefront planner against a verbatim copy of its previous,
//! straightforward implementation: every admission probe cloned the packed
//! waves, rebuilt the tentative schedule and recomputed its wave-granularity
//! lifetimes. The indexed probe must reproduce the whole schedule (waves,
//! peaks, width, splits, fallback flag) on random unit DAGs.

use proptest::prelude::*;
use sod2_ir::{Graph, TensorId};
use sod2_plan::{plan_wavefronts, Unit, UnitGraph, WavefrontOptions};
use std::collections::HashMap;

/// The planner as it was before the admission probe was indexed.
mod oracle {
    use sod2_ir::{Graph, TensorId};
    use sod2_mem::{peak_live_bytes, TensorLife};
    use sod2_plan::{order_peak_bytes, UnitGraph, WavefrontOptions, WavefrontSchedule};
    use std::collections::HashMap;

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
        let mut scheduled = vec![false; n];
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
                if wave.len() == 1 {
                    continue; // progress guarantee: first ready unit always in
                }
                // Tentative peak of [packed waves, this wave, rest serialized].
                let mut sched = waves.clone();
                sched.push(wave.clone());
                sched.extend(
                    remaining
                        .iter()
                        .filter(|r| !wave.contains(r))
                        .map(|&r| vec![r]),
                );
                let lives = wavefront_lifetimes(graph, ug, &sched, size_of);
                if peak_live_bytes(&lives) > bound {
                    wave.pop();
                    splits += 1;
                }
            }
            for &u in &wave {
                scheduled[u] = true;
            }
            remaining.retain(|u| !wave.contains(u));
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
}

/// One random unit: (output count, input picks among earlier tensors,
/// priority in the random topological order).
type RawUnit = (usize, Vec<usize>, u32);

/// A random unit DAG: units in id order (a topological order), each
/// producing up to two tensors and consuming up to four tensors of earlier
/// units. Returns the graph (which only carries the output marks), the
/// unit graph, a random topological unit order, and per-tensor sizes.
fn unit_dag(
    raw: &[RawUnit],
    outputs: &[bool],
    sizes: &[usize],
) -> (Graph, UnitGraph, Vec<usize>, Vec<usize>) {
    let n = raw.len();
    let mut units = Vec::with_capacity(n);
    let mut producer: HashMap<TensorId, usize> = HashMap::new();
    let mut consumers: HashMap<TensorId, Vec<usize>> = HashMap::new();
    let mut preds = vec![Vec::new(); n];
    let mut succs = vec![Vec::new(); n];
    let mut made: Vec<TensorId> = Vec::new();
    for (u, (n_out, picks, _)) in raw.iter().enumerate() {
        let mut inputs: Vec<TensorId> = Vec::new();
        if !made.is_empty() {
            for &p in picks {
                let t = made[p % made.len()];
                if !inputs.contains(&t) {
                    inputs.push(t);
                }
            }
        }
        for &t in &inputs {
            consumers.entry(t).or_default().push(u);
            let p = producer[&t];
            if !preds[u].contains(&p) {
                preds[u].push(p);
                succs[p].push(u);
            }
        }
        let outs: Vec<TensorId> = (made.len()..made.len() + n_out)
            .map(|t| TensorId(t as u32))
            .collect();
        for &t in &outs {
            producer.insert(t, u);
        }
        made.extend(&outs);
        units.push(Unit {
            id: u,
            nodes: Vec::new(),
            inputs,
            outputs: outs,
        });
    }
    let mut g = Graph::new();
    for &t in &made {
        if outputs[t.0 as usize % outputs.len()] {
            g.mark_output(t);
        }
    }
    // Random topological order: Kahn's algorithm, lowest priority first.
    let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&u| indegree[u] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(at) = (0..ready.len()).min_by_key(|&i| (raw[ready[i]].2, ready[i])) {
        let u = ready.swap_remove(at);
        order.push(u);
        for &s in &succs[u] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }
    let sizes = made
        .iter()
        .map(|t| sizes[t.0 as usize % sizes.len()])
        .collect();
    let ug = UnitGraph {
        units,
        preds,
        succs,
        producer,
        consumers,
    };
    (g, ug, order, sizes)
}

fn dag_strategy() -> impl Strategy<Value = (Vec<RawUnit>, Vec<bool>, Vec<usize>)> {
    (
        proptest::collection::vec(
            (
                0usize..3,
                proptest::collection::vec(0usize..64, 0..5),
                0u32..16,
            ),
            1..=16,
        ),
        proptest::collection::vec(any::<bool>(), 1..8),
        proptest::collection::vec(0usize..512, 1..12),
    )
}

/// Slack and width settings: tight, moderate, the engine default and
/// unbounded slack; widths from serial to unbounded.
const SLACKS: [f64; 4] = [0.0, 0.1, 0.5, 1e12];
const WIDTHS: [usize; 4] = [1, 2, 3, usize::MAX];

/// Compares the planner with the oracle under every setting; returns the
/// total number of splits seen.
fn assert_matches_oracle(g: &Graph, ug: &UnitGraph, order: &[usize], sizes: &[usize]) -> usize {
    let size_of = |t: TensorId| sizes[t.0 as usize];
    let mut splits = 0;
    for slack in SLACKS {
        for max_width in WIDTHS {
            let opts = WavefrontOptions { slack, max_width };
            let got = plan_wavefronts(g, ug, order, &size_of, opts);
            let want = oracle::plan_wavefronts(g, ug, order, &size_of, opts);
            assert_eq!(got, want, "slack {slack}, max_width {max_width}");
            splits += got.splits;
        }
    }
    splits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The indexed planner returns the oracle's schedule exactly.
    #[test]
    fn wavefronts_match_the_oracle((raw, outputs, sizes) in dag_strategy()) {
        let (g, ug, order, sizes) = unit_dag(&raw, &outputs, &sizes);
        assert_matches_oracle(&g, &ug, &order, &sizes);
    }
}

/// A source fanning out into six independent two-unit chains that merge
/// into one sink: admission has to defer branches under a tight bound, so
/// the oracle comparison covers schedules with splits.
#[test]
fn split_schedules_match_the_oracle() {
    let mut raw: Vec<RawUnit> = vec![(1, vec![], 0)];
    for b in 0..6 {
        raw.push((1, vec![0], 0)); // branch head reads the source tensor
        raw.push((1, vec![1 + 2 * b], 0)); // branch tail reads its head
    }
    raw.push((1, (0..6).map(|b| 2 + 2 * b).collect(), 0));
    let sizes: Vec<usize> = (0..14).map(|t| 64 + 16 * t).collect();
    let (g, ug, order, sizes) = unit_dag(&raw, &[false], &sizes);
    let splits = assert_matches_oracle(&g, &ug, &order, &sizes);
    assert!(splits > 0, "the fan-out must split under a tight bound");
}
