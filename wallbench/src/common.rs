//! Pieces every workload shares: engine construction, the reference
//! check, seeded inputs, and the reduction of traced windows into layer
//! metrics.

use crate::compile::{StageTimes, STAGES};
use crate::spans::{Reduced, CLASSES};
use crate::stats::median;
use crate::Outcome;
use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, InferenceStats, Sod2Engine, Sod2Options};
use sod2_models::DynModel;
use sod2_prng::rngs::StdRng;
use sod2_prng::Rng;
use sod2_runtime::ExecError;
use sod2_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Instant;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The device profile every engine compiles for.
pub fn profile() -> DeviceProfile {
    DeviceProfile::s888_cpu()
}

/// Builds an engine with default options and returns it with the
/// construction wall time in seconds.
pub fn build(model: &DynModel) -> (Sod2Engine, f64) {
    let graph = model.graph.clone();
    let t0 = Instant::now();
    let engine = Sod2Engine::new(
        graph,
        profile(),
        Sod2Options::default(),
        &Default::default(),
    );
    (engine, t0.elapsed().as_secs_f64())
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// One model's distinct inputs: `per_size` seeded inputs at each size.
pub struct InputSet {
    /// The inputs.
    pub inputs: Vec<Vec<Tensor>>,
    /// Index into the size list of each input.
    pub size_idx: Vec<usize>,
}

impl InputSet {
    /// Generates `per_size` inputs at each of `sizes`.
    pub fn new(model: &DynModel, sizes: &[usize], per_size: usize, rng: &mut StdRng) -> InputSet {
        let mut inputs = Vec::new();
        let mut size_idx = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            for _ in 0..per_size {
                inputs.push(model.make_inputs(s, rng));
                size_idx.push(i);
            }
        }
        InputSet { inputs, size_idx }
    }
}

/// Expected outputs of every distinct input, computed once by a
/// `Sod2Options::no_opt()` engine before anything is timed.
pub struct Reference {
    outputs: Vec<Vec<(Vec<usize>, Vec<u8>)>>,
}

impl Reference {
    /// Runs every input through an unoptimised engine.
    ///
    /// # Panics
    ///
    /// Panics when the reference engine cannot run an input: the workload
    /// is then unusable.
    pub fn new(model: &DynModel, set: &InputSet) -> Reference {
        let mut engine = Sod2Engine::new(
            model.graph.clone(),
            profile(),
            Sod2Options::no_opt(),
            &Default::default(),
        );
        let outputs = set
            .inputs
            .iter()
            .map(|ins| {
                let out = engine
                    .infer(ins)
                    .unwrap_or_else(|e| panic!("{}: reference inference failed: {e}", model.name))
                    .outputs;
                out.iter()
                    .map(|t| (t.shape().to_vec(), t.payload_le_bytes()))
                    .collect()
            })
            .collect();
        Reference { outputs }
    }

    /// Whether `outputs` equal input `id`'s reference bit for bit.
    pub fn matches(&self, id: usize, outputs: &[Tensor]) -> bool {
        let want = &self.outputs[id];
        want.len() == outputs.len()
            && want.iter().zip(outputs).all(|((shape, bytes), t)| {
                t.shape() == shape.as_slice() && &t.payload_le_bytes() == bytes
            })
    }
}

/// Counts one timed inference of input `id` in `out` and checks its
/// outputs against the reference; returns the statistics of a correct one.
pub fn check(
    out: &mut Outcome,
    what: &str,
    id: usize,
    result: Result<InferenceStats, ExecError>,
    reference: &Reference,
) -> Option<InferenceStats> {
    out.attempted += 1;
    match result {
        Ok(stats) if reference.matches(id, &stats.outputs) => return Some(stats),
        Ok(_) => {
            out.mismatches += 1;
            eprintln!("{what}: input {id} differs from the reference");
        }
        Err(e) => eprintln!("{what}: input {id} failed: {e}"),
    }
    out.failed += 1;
    None
}

/// Per-stage median over `samples[model][run]`, summed over models.
pub fn stage_medians(samples: &[Vec<StageTimes>]) -> StageTimes {
    let mut total = [0.0; 8];
    for runs in samples {
        for (s, slot) in total.iter_mut().enumerate() {
            *slot += median(&runs.iter().map(|r| r[s]).collect::<Vec<_>>());
        }
    }
    total
}

/// Emits `compile.*`: the stage medians and the glue between them and the
/// median engine construction time `setup_s` (both summed over models and
/// normalised to the reference host speed).
pub fn compile_metrics(m: &mut Metrics, stages: &StageTimes, setup_s: f64) {
    for (name, s) in STAGES.iter().zip(stages) {
        m.insert(name, s * 1e3);
    }
    let staged: f64 = stages.iter().sum();
    m.insert("compile.glue_ms", (setup_s - staged) * 1e3);
}

/// Emits the `infer.*`, `runtime.*`, `kernels.*`, `pool.*` and counter
/// ratios of traced windows. Every `infer.*` value is per inference, over
/// all traced inferences, so together they add up to the mean wall time
/// of one inference.
pub fn infer_metrics(
    m: &mut Metrics,
    r: &Reduced,
    counters: &BTreeMap<String, u64>,
    fma_gflops: f64,
) {
    let n = r.infers.max(1) as f64;
    let per_ms = |ns: f64| ns / n / 1e6;
    let per_us = |ns: f64| ns / n / 1e3;
    m.insert("infer.bindings_us", per_us(r.phase_ns[0]));
    m.insert(
        "infer.pre_plan_hit_us",
        per_us(r.phase_ns[1] - r.pre_plan_miss_ns),
    );
    m.insert("infer.pre_plan_miss_ms", per_ms(r.pre_plan_miss_ns));
    m.insert("infer.execute_ms", per_ms(r.phase_ns[2]));
    m.insert("infer.post_plan_ms", per_ms(r.phase_ns[3]));
    m.insert("infer.price_us", per_us(r.phase_ns[4]));
    m.insert("infer.glue_ms", per_ms(r.glue_ns));
    m.insert(
        "runtime.dispatch_ns_per_instr",
        r.dispatch_ns / r.instrs.max(1) as f64,
    );
    for (name, ns) in CLASSES.iter().zip(r.class_ns) {
        m.insert(name, per_ms(ns));
    }
    // FLOPs per nanosecond of kernel busy time is GFLOP/s.
    let rate = |c: usize| r.class_flops[c] / r.class_busy_ns[c].max(1.0);
    let threads = sod2_pool::current_threads() as f64;
    m.insert("kernels.gemm_gflops", rate(0));
    m.insert("kernels.conv_gflops", rate(1));
    m.insert("kernels.gemm_peak_frac", rate(0) / (fma_gflops * threads));
    m.insert("kernels.conv_peak_frac", rate(1) / (fma_gflops * threads));
    let workers = threads - 1.0;
    m.insert(
        "pool.busy_frac",
        if workers > 0.0 {
            r.worker_pool_ns / (r.exec_union_ns * workers).max(1.0)
        } else {
            0.0
        },
    );
    let counter = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    let infers = counter("infer.count").max(1.0);
    m.insert("pool.regions_per_infer", counter("pool.regions") / infers);
    m.insert(
        "mem.pre_plan_hit_frac",
        counter("dmp.pre_plan_cache_hits") / infers,
    );
    m.insert(
        "mvc.variant_hits_per_infer",
        counter("mvc.variant_hits") / infers,
    );
}

/// Adds one traced window's counters into `into`.
pub fn add_counters(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
    for (k, v) in from {
        *into.entry(k.clone()).or_insert(0) += v;
    }
}
