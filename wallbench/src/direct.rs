//! Closed-loop workloads with one caller driving `Sod2Engine::infer`
//! directly: `seq_shapes` (shape dynamism) and `gated_cnn` (control-flow
//! dynamism).
//!
//! A run is a sequence of rounds. Each round builds a fresh engine per
//! model (timed as set-up) and then runs every distinct input `reps`
//! times, models interleaved, in a seeded order. The first inference of
//! an engine at a shape is cold (its pre-plan misses); the rest are warm.
//! Every round has the same mix of models, shapes and cold inferences;
//! the seed only changes input contents and order. Every build and every
//! inference is timed between two host calibrations and normalised by
//! their mean slowdown ([`host::slowdown`]).

use crate::common::{
    add_counters, build, check, compile_metrics, infer_metrics, profile, shuffle, stage_medians,
    InputSet, Metrics, Reference,
};
use crate::compile::{self, StageTimes};
use crate::spans::{reduce, Attribution, Reduced};
use crate::stats::{class_quantiles, median, mix_latency};
use crate::{alloc, host, Outcome};
use sod2_frameworks::{bindings_from_inputs, Engine};
use sod2_models::{blockdrop, codebert, conformer, dgnet, skipnet, DynModel, ModelScale};
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// A closed-loop workload.
pub struct Spec {
    /// Models with the sizes each one is run at.
    pub models: Vec<(DynModel, Vec<usize>)>,
    /// Distinct seeded inputs per size.
    pub per_size: usize,
    /// Times each distinct input runs per round.
    pub reps: usize,
}

/// CodeBERT and Conformer over all six sequence-length buckets.
pub fn seq_shapes() -> Spec {
    let buckets: Vec<usize> = (1..=6).map(|b| b * 16).collect();
    Spec {
        models: vec![
            (codebert(ModelScale::Full), buckets.clone()),
            (conformer(ModelScale::Full), buckets),
        ],
        per_size: 2,
        reps: 3,
    }
}

/// SkipNet, DGNet and BlockDrop, each at one mid-range image size.
pub fn gated_cnn() -> Spec {
    let models = [skipnet, dgnet, blockdrop]
        .map(|f| {
            let m = f(ModelScale::Full);
            let (lo, hi) = m.size_range();
            let mid = m.round_size((lo + hi) / 2);
            (m, vec![mid])
        })
        .into_iter()
        .collect();
    Spec {
        models,
        per_size: 16,
        reps: 1,
    }
}

/// Rounds a run makes at least, however long they take. A traced run
/// alternates untraced and traced rounds, so it gets two of each.
const MIN_ROUNDS: usize = 4;

/// What one round measured.
struct Round {
    traced: bool,
    /// Normalised construction seconds per model.
    setup: Vec<f64>,
    /// `(class, normalised milliseconds)` per inference. A warm class is
    /// one input of one model (gates make inputs of one size differ in
    /// work), a cold class one size of one model.
    warm_ms: Vec<(usize, f64)>,
    cold_ms: Vec<(usize, f64)>,
    /// Host slowdowns read during the round.
    cal: host::Calibration,
}

/// One round's inference order: `(model, input id)`, models interleaved.
fn schedule(spec: &Spec, sets: &[InputSet], rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut queues: Vec<Vec<usize>> = sets
        .iter()
        .map(|s| {
            let mut q: Vec<usize> = (0..s.inputs.len())
                .cycle()
                .take(s.inputs.len() * spec.reps)
                .collect();
            shuffle(&mut q, rng);
            q
        })
        .collect();
    let mut order = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        for (m, q) in queues.iter_mut().enumerate() {
            if let Some(id) = q.pop() {
                order.push((m, id));
            }
        }
    }
    order
}

/// Runs a closed-loop workload.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(seed);
    let models: Vec<&DynModel> = spec.models.iter().map(|(m, _)| m).collect();
    let sets: Vec<InputSet> = spec
        .models
        .iter()
        .map(|(m, sizes)| InputSet::new(m, sizes, spec.per_size, &mut rng))
        .collect();
    let refs: Vec<Reference> = models
        .iter()
        .zip(&sets)
        .map(|(m, s)| Reference::new(m, s))
        .collect();

    // Traced run only: kernel tables and the host probe.
    let mut tables: HashMap<(usize, usize), HashMap<String, (usize, f64)>> = HashMap::new();
    let mut fma = 0.0;
    if trace {
        for (m, model) in models.iter().enumerate() {
            let c = compile::replay(&model.graph, &profile()).1;
            for (id, ins) in sets[m].inputs.iter().enumerate() {
                let key = (m, sets[m].size_idx[id]);
                tables.entry(key).or_insert_with(|| {
                    let b = bindings_from_inputs(c.graph(), ins).expect("inputs bind the graph");
                    c.kernel_table(&b)
                });
            }
        }
        fma = host::probe(&mut out.metrics);
    }

    let mut stages: Vec<Vec<StageTimes>> = vec![Vec::new(); models.len()];
    let mut rounds: Vec<Round> = Vec::new();
    let (mut allocs, mut alloc_bytes, mut alloc_infers) = (0u64, 0u64, 0u64);
    let (mut arena_backed, mut heap_allocs) = (0usize, 0usize);
    let mut reduced = Reduced::default();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let start = Instant::now();
    loop {
        if rounds.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = trace && rounds.len() % 2 == 1;
        let mut round = Round {
            traced,
            setup: Vec::new(),
            warm_ms: Vec::new(),
            cold_ms: Vec::new(),
            cal: host::Calibration::start(),
        };
        let mut engines = Vec::new();
        for (m, model) in models.iter().enumerate() {
            let (e, s) = build(model);
            round.setup.push(s / round.cal.next().mean);
            engines.push(e);
            // Stage times are taken next to the builds they explain.
            if trace {
                let times = compile::replay(&model.graph, &profile()).0;
                let slowdown = round.cal.next().mean;
                stages[m].push(times.map(|t| t / slowdown));
            }
        }
        let order = schedule(spec, &sets, &mut rng);
        let mut seen = HashSet::new();
        if traced {
            sod2_obs::set_enabled(true);
            sod2_obs::begin();
        }
        for &(m, id) in &order {
            let inputs = &sets[m].inputs[id];
            let is_cold = seen.insert((m, sets[m].size_idx[id]));
            let a0 = alloc::snapshot();
            let span = sod2_obs::span!("bench", "infer");
            let t0 = Instant::now();
            let result = engines[m].infer(inputs);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(span);
            let a1 = alloc::snapshot();
            if let Some(stats) = check(out, models[m].name, id, result, &refs[m]) {
                arena_backed += stats.arena_backed;
                heap_allocs += stats.alloc_events;
            }
            let ms = ms / round.cal.next().slowest;
            if is_cold {
                round.cold_ms.push((m * 64 + sets[m].size_idx[id], ms));
            } else {
                round.warm_ms.push((m * 1024 + id, ms));
            }
            if !traced {
                allocs += a1.0 - a0.0;
                alloc_bytes += a1.1 - a0.1;
                alloc_infers += 1;
            }
        }
        if traced {
            let profile = sod2_obs::take();
            sod2_obs::set_enabled(false);
            let classify = |root: usize, name: &str| {
                let (m, id) = order[root];
                tables[&(m, sets[m].size_idx[id])]
                    .get(name)
                    .copied()
                    .unwrap_or((4, 0.0))
            };
            let r = reduce(
                &profile,
                &Attribution {
                    root: ("bench", "infer"),
                    kernels_same_thread: false,
                    classify: &classify,
                },
            );
            assert_eq!(r.infers, order.len(), "one bench span per inference");
            reduced.add(&r);
            add_counters(&mut counters, &profile.counters);
        }
        rounds.push(round);
    }

    let pooled = |traced: bool, f: fn(&Round) -> &Vec<(usize, f64)>| -> Vec<(usize, f64)> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .flat_map(|r| f(r).iter().copied())
            .collect()
    };
    let (warm, cold) = (pooled(false, |r| &r.warm_ms), pooled(false, |r| &r.cold_ms));
    let setup_s: f64 = (0..models.len())
        .map(|m| median(&rounds.iter().map(|r| r.setup[m]).collect::<Vec<_>>()))
        .sum();
    let m: &mut Metrics = &mut out.metrics;
    if trace {
        compile_metrics(m, &stage_medians(&stages), setup_s);
        infer_metrics(m, &reduced, &counters, fma);
        let n = alloc_infers.max(1) as f64;
        m.insert("mem.allocs_per_infer", allocs as f64 / n);
        m.insert("mem.alloc_bytes_per_infer", alloc_bytes as f64 / n);
        m.insert(
            "mem.arena_backed_frac",
            arena_backed as f64 / (arena_backed + heap_allocs).max(1) as f64,
        );
        let warm_traced = pooled(true, |r| &r.warm_ms);
        m.insert(
            "trace.overhead_frac",
            mix_latency(&warm_traced) / mix_latency(&warm) - 1.0,
        );
    } else {
        // One round's mix, each inference at its class's median latency.
        let (qw, qc) = (class_quantiles(&warm, 0.5), class_quantiles(&cold, 0.5));
        let first = &rounds[0];
        let mix_ms: f64 = first.warm_ms.iter().map(|(c, _)| qw[c]).sum::<f64>()
            + first.cold_ms.iter().map(|(c, _)| qc[c]).sum::<f64>();
        let mix_n = first.warm_ms.len() + first.cold_ms.len();
        m.insert("setup_s", setup_s);
        m.insert("latency_ms_norm", mix_latency(&warm));
        m.insert("cold_infer_ms_norm", mix_latency(&cold));
        m.insert("goodput_rps_norm", mix_n as f64 / (mix_ms / 1e3));
    }
    let slowdowns: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.cal.readings.iter().map(|s| s.slowest))
        .collect();
    out.meta
        .push(("host_slowdown_median", format!("{:.3}", median(&slowdowns))));
    out.meta.push(("rounds", rounds.len().to_string()));
    out.meta.push(("warm_samples", warm.len().to_string()));
    out.meta.push(("cold_samples", cold.len().to_string()));
}
