//! `serve_open`: CodeBERT behind `sod2-serve`, driven open-loop.
//!
//! One generator thread sends seeded Poisson arrivals through
//! `Server::try_submit`; one collector thread waits the tickets in
//! submission order. A request's latency runs from when it was *due*, so
//! a stall also charges the requests queued behind it.
//!
//! Known bias: `Ticket` offers only a blocking `wait`, so a response that
//! completes before an earlier-submitted one (it rode an earlier
//! shape-class batch) is observed only once the earlier one is in. This
//! overstates some latencies; it is the same on every commit.
//!
//! Builds, cold inferences and arrival windows are each timed between two
//! host calibrations and normalised by their mean slowdown
//! ([`host::slowdown`]); the server is idle while the host is calibrated.

use crate::common::{
    add_counters, build, check, compile_metrics, infer_metrics, profile, stage_medians, InputSet,
    Reference,
};
use crate::compile;
use crate::spans::{reduce, Attribution, Reduced};
use crate::stats::{mean, median, mix_latency, windowed_mix_latency};
use crate::{alloc, host, Outcome};
use sod2_frameworks::{bindings_from_inputs, Engine};
use sod2_models::{codebert, ModelScale};
use sod2_prng::rngs::StdRng;
use sod2_prng::{Rng, SeedableRng};
use sod2_serve::{ServeError, Server, ServerConfig, TenantSpec, Ticket};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Arrival rate below the knee of the 2-core reference host (about
/// 30 req/s): latencies are read here.
pub const MODERATE_RPS: f64 = 10.0;
/// Arrival rate about four times the knee: the admission queue fills
/// within a fraction of a second and stays full, so goodput reads the
/// server's sustained capacity rather than how many requests the seeded
/// arrivals happened to bring.
pub const HIGH_RPS: f64 = 120.0;
/// A response counts toward goodput only within this many milliseconds of
/// its due time; a refused request always misses. It is well above the
/// time a full default queue (64) takes to drain at the knee, so goodput
/// at the high rate reads sustained throughput instead of falling off a
/// cliff when the drain time nears the limit.
pub const LATENCY_LIMIT_MS: f64 = 5000.0;

/// Distinct inputs per sequence-length bucket.
const PER_SIZE: usize = 4;
/// Engine builds per run, each serving every bucket cold once
/// (`cold_infer_ms_norm`).
const BUILDS: usize = 6;
/// Arrival windows per rate in an untraced run: `(rate, share of
/// --seconds, windows)`. Short windows let the calibrations around each
/// follow the host's speed. A high-rate window lasts long enough (about
/// 2 s of arrivals) that the queue stays full for most of it, so its
/// goodput reads capacity rather than the seeded number of arrivals; it
/// drains its full queue after its arrivals end, which takes about 2 s
/// more. The builds before the windows take about a fifth of a run.
const WINDOWS: [(f64, f64, usize); 2] = [(MODERATE_RPS, 0.55, 6), (HIGH_RPS, 0.2, 3)];
const TENANT: &str = "bench";

struct Sent {
    id: usize,
    due: Instant,
    submitted: Instant,
    ticket: Result<Ticket, ServeError>,
}

/// What one arrival phase observed.
#[derive(Default)]
struct Phase {
    /// `(bucket, due → response)`, correct responses only.
    latency_ms: Vec<(usize, f64)>,
    /// Submit → response, correct responses only.
    sojourn_ms: Vec<f64>,
    /// Correct responses within [`LATENCY_LIMIT_MS`].
    within_limit: usize,
    attempted: u64,
    refused: u64,
    failed: u64,
    mismatches: u64,
    late_ms_max: f64,
    admit_us: Vec<f64>,
    /// First due time to last response.
    wall_s: f64,
    /// Host slowdown over the window.
    slowdown: host::Slowdown,
}

fn run_phase(
    server: &Server,
    set: &InputSet,
    reference: &Reference,
    rate: f64,
    secs: f64,
    rng: &mut StdRng,
) -> Phase {
    let mut plan = Vec::new();
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
        if at >= secs {
            break;
        }
        plan.push((at, rng.gen_range(0..set.inputs.len())));
    }
    let t0 = Instant::now() + Duration::from_millis(10);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (gen, mut phase) = std::thread::scope(|s| {
        let plan = &plan;
        let generator = s.spawn(move || {
            let (mut late_max, mut admit) = (0.0f64, Vec::with_capacity(plan.len()));
            for &(at, id) in plan {
                let due = t0 + Duration::from_secs_f64(at);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let submitted = Instant::now();
                late_max = late_max.max((submitted - due).as_secs_f64() * 1e3);
                let ticket = server.try_submit(TENANT, set.inputs[id].clone());
                admit.push(submitted.elapsed().as_secs_f64() * 1e6);
                let sent = Sent {
                    id,
                    due,
                    submitted,
                    ticket,
                };
                if tx.send(sent).is_err() {
                    break;
                }
            }
            (late_max, admit)
        });
        let collector = s.spawn(move || {
            let mut p = Phase::default();
            for sent in rx {
                p.attempted += 1;
                let ticket = match sent.ticket {
                    Ok(t) => t,
                    Err(ServeError::QueueFull { .. }) => {
                        p.refused += 1;
                        continue;
                    }
                    Err(e) => {
                        eprintln!("request refused: {e}");
                        p.failed += 1;
                        continue;
                    }
                };
                let response = ticket.wait();
                let done = Instant::now();
                match response.result {
                    Ok(outs) if reference.matches(sent.id, &outs) => {
                        let ms = (done - sent.due).as_secs_f64() * 1e3;
                        p.latency_ms.push((sent.id / PER_SIZE, ms));
                        p.sojourn_ms
                            .push((done - sent.submitted).as_secs_f64() * 1e3);
                        p.within_limit += usize::from(ms <= LATENCY_LIMIT_MS);
                    }
                    Ok(_) => {
                        eprintln!("request {}: differs from the reference", sent.id);
                        p.failed += 1;
                        p.mismatches += 1;
                    }
                    Err(e) => {
                        eprintln!("request {}: failed: {e}", sent.id);
                        p.failed += 1;
                    }
                }
            }
            p.wall_s = t0.elapsed().as_secs_f64();
            p
        });
        (
            generator.join().expect("generator thread"),
            collector.join().expect("collector thread"),
        )
    });
    phase.late_ms_max = gen.0;
    phase.admit_us = gen.1;
    phase
}

/// Runs `serve_open`.
pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = codebert(ModelScale::Full);
    let sizes: Vec<usize> = (1..=6).map(|b| b * 16).collect();
    let set = InputSet::new(&model, &sizes, PER_SIZE, &mut rng);
    let reference = Reference::new(&model, &set);
    let replicas = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Every build serves each bucket cold once; the last one, warmed that
    // way, becomes the server's template, so the replicas forked from it
    // start with every bucket's pre-plan cached.
    let (mut build_s, mut cold_ms) = (Vec::new(), Vec::new());
    let mut cal = host::Calibration::start();
    let (mut arena_backed, mut heap_allocs) = (0usize, 0usize);
    let mut stages = Vec::new();
    let mut template = None;
    for _ in 0..BUILDS {
        let (mut engine, s) = build(&model);
        build_s.push(s / cal.next().mean);
        if trace {
            let times = compile::replay(&model.graph, &profile()).0;
            let slowdown = cal.next().mean;
            stages.push(times.map(|t| t / slowdown));
        }
        for size in 0..sizes.len() {
            let id = size * PER_SIZE + rng.gen_range(0..PER_SIZE);
            let t0 = Instant::now();
            let result = engine.infer(&set.inputs[id]);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            cold_ms.push((size, ms / cal.next().slowest));
            if let Some(stats) = check(out, model.name, id, result, &reference) {
                arena_backed += stats.arena_backed;
                heap_allocs += stats.alloc_events;
            }
        }
        template = Some(engine);
    }
    let template = template.expect("BUILDS > 0");

    let mut table: HashMap<String, (usize, f64)> = HashMap::new();
    let mut fma = 0.0;
    if trace {
        let compiled = compile::replay(&model.graph, &profile()).1;
        // Traced spans do not say which request they served: price each
        // kernel at the mean over the (uniform) bucket mix.
        for size in 0..sizes.len() {
            let ins = &set.inputs[size * PER_SIZE];
            let b = bindings_from_inputs(compiled.graph(), ins).expect("inputs bind the graph");
            for (name, (class, flops)) in compiled.kernel_table(&b) {
                table.entry(name).or_insert((class, 0.0)).1 += flops / sizes.len() as f64;
            }
        }
        fma = host::probe(&mut out.metrics);
    }

    let t0 = Instant::now();
    let server = Server::start(
        template,
        vec![TenantSpec::new(TENANT)],
        ServerConfig {
            replicas,
            ..ServerConfig::default()
        },
    );
    let start_s = t0.elapsed().as_secs_f64() / cal.next().mean;

    // Arrival windows as (rate, traced, observations).
    let mut windows: Vec<(f64, bool, Phase)> = Vec::new();
    let mut reduced = Reduced::default();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut untraced_allocs = (0u64, 0u64);
    let mut run_window = |rate: f64, secs: f64, traced: bool, rng: &mut StdRng| {
        if traced {
            sod2_obs::set_enabled(true);
            sod2_obs::begin();
        }
        let a0 = alloc::snapshot();
        let mut p = run_phase(&server, &set, &reference, rate, secs, rng);
        let a1 = alloc::snapshot();
        p.slowdown = cal.next();
        if traced {
            let profile = sod2_obs::take();
            sod2_obs::set_enabled(false);
            let classify = |_: usize, name: &str| table.get(name).copied().unwrap_or((4, 0.0));
            reduced.add(&reduce(
                &profile,
                &Attribution {
                    root: ("infer", "Sod2Engine::infer"),
                    kernels_same_thread: true,
                    classify: &classify,
                },
            ));
            add_counters(&mut counters, &profile.counters);
        } else {
            untraced_allocs = (a1.0 - a0.0, a1.1 - a0.1);
        }
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.mismatches += p.mismatches;
        if rate == MODERATE_RPS {
            // Below the knee nothing may be refused.
            out.failed += p.refused;
        }
        p
    };
    let plan: &[(f64, f64, bool)] = if trace {
        &[
            (MODERATE_RPS, 0.3, false),
            (MODERATE_RPS, 0.4, true),
            (HIGH_RPS, 0.3, true),
        ]
    } else {
        &[]
    };
    for &(rate, share, traced) in plan {
        let p = run_window(rate, seconds * share, traced, &mut rng);
        windows.push((rate, traced, p));
    }
    if !trace {
        for (rate, share, count) in WINDOWS {
            for _ in 0..count {
                let p = run_window(rate, seconds * share / count as f64, false, &mut rng);
                windows.push((rate, false, p));
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.replica_panics, 0, "a replica panicked");

    out.meta.push(("moderate_rps", MODERATE_RPS.to_string()));
    out.meta.push(("high_rps", HIGH_RPS.to_string()));
    out.meta
        .push(("latency_limit_ms", LATENCY_LIMIT_MS.to_string()));
    out.meta.push(("replicas", replicas.to_string()));
    let late_max = windows.iter().map(|w| w.2.late_ms_max).fold(0.0, f64::max);
    out.meta.push(("gen_late_ms_max", format!("{late_max:.3}")));
    out.meta.push((
        "bias",
        "tickets are waited in submission order; latencies of requests served \
         early in a shape-class batch are overstated"
            .to_string(),
    ));
    let described = windows
        .iter()
        .map(|(rate, traced, p)| {
            format!(
                "rate={rate} traced={traced} slowdown={:.3} sent={} refused={} \
                 completed={} within_limit={}",
                p.slowdown.slowest,
                p.attempted,
                p.refused,
                p.latency_ms.len(),
                p.within_limit
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    out.meta.push(("windows", described));

    let used = |rate: f64, traced: bool| {
        windows
            .iter()
            .filter(move |w| w.0 == rate && w.1 == traced)
            .map(|w| &w.2)
    };
    // Latencies at the moderate rate, per window.
    let windowed = |traced: bool| -> Vec<Vec<(usize, f64)>> {
        used(MODERATE_RPS, traced)
            .map(|p| p.latency_ms.clone())
            .collect()
    };
    let latencies = |traced: bool| windowed(traced).concat();
    // Single calibrations between the windows read erratically (up to
    // twice the slowdown of the windows' neighbours), so latencies and
    // goodput are normalised by the median slowdown over the untraced
    // windows rather than each window's own.
    let window_slowdown = median(
        &windows
            .iter()
            .filter(|w| !w.1)
            .map(|w| w.2.slowdown.mean)
            .collect::<Vec<_>>(),
    );
    let setup_engine_s = median(&build_s);
    let m = &mut out.metrics;
    if trace {
        compile_metrics(m, &stage_medians(&[stages]), setup_engine_s);
        infer_metrics(m, &reduced, &counters, fma);
        let n = latencies(false).len().max(1) as f64;
        m.insert("mem.allocs_per_infer", untraced_allocs.0 as f64 / n);
        m.insert("mem.alloc_bytes_per_infer", untraced_allocs.1 as f64 / n);
        m.insert(
            "mem.arena_backed_frac",
            arena_backed as f64 / (arena_backed + heap_allocs).max(1) as f64,
        );
        m.insert(
            "trace.overhead_frac",
            mix_latency(&latencies(true)) / mix_latency(&latencies(false)) - 1.0,
        );
        let traced: Vec<&Phase> = windows.iter().filter(|w| w.1).map(|w| &w.2).collect();
        let admit: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.admit_us.iter().copied())
            .collect();
        let sojourn: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.sojourn_ms.iter().copied())
            .collect();
        let service_ms: Vec<f64> = reduced.root_ns.iter().map(|ns| ns / 1e6).collect();
        let wall_s: f64 = traced.iter().map(|p| p.wall_s).sum();
        let busy_s: f64 = reduced.busy_per_thread.values().sum::<f64>() / 1e9;
        m.insert("serve.admit_us", mean(&admit));
        m.insert(
            "serve.refused",
            traced.iter().map(|p| p.refused).sum::<u64>() as f64,
        );
        m.insert("serve.queue_depth_max", stats.max_queue_depth as f64);
        m.insert(
            "serve.batch_mean",
            stats.executed as f64 / stats.batches.max(1) as f64,
        );
        m.insert("serve.service_ms_p50", median(&service_ms));
        m.insert("serve.wait_ms_mean", mean(&sojourn) - mean(&service_ms));
        m.insert(
            "serve.replica_busy_frac",
            busy_s / (wall_s * replicas as f64),
        );
        m.insert(
            "serve.gen_late_ms_max",
            traced.iter().map(|p| p.late_ms_max).fold(0.0, f64::max),
        );
    } else {
        let goodput: Vec<f64> = used(HIGH_RPS, false)
            .map(|p| p.within_limit as f64 / p.wall_s)
            .collect();
        m.insert("setup_s", setup_engine_s + start_s);
        m.insert(
            "latency_ms_norm",
            windowed_mix_latency(&windowed(false)) / window_slowdown,
        );
        m.insert("cold_infer_ms_norm", mix_latency(&cold_ms));
        m.insert("goodput_rps_norm", median(&goodput) * window_slowdown);
    }
}
