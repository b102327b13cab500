//! Host wall-clock benchmark of SoD² on dynamic-inference workloads.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload <seq_shapes|gated_cnn|serve_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The program is driven only through its
//! public entry points, with default `Sod2Options` and `ServerConfig`, on
//! full-scale zoo models; inputs are generated here from `--seed`. Every
//! output is compared bit for bit with a `Sod2Options::no_opt()` engine's
//! output for the same input, and any difference fails the run.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. Their
//! times (`*_norm` and `setup_s`) are normalised to a reference host speed
//! by calibrating the host around each of them (see [`host::slowdown`]),
//! so they measure the program rather than how busy the other tenants of
//! a shared host were.
//! `--trace 1` measures the per-layer metrics: the compile pipeline is
//! replayed stage by stage (normalised like the builds it is compared
//! with), and `sod2-obs` spans are switched on for alternate rounds (or
//! windows) only, so the same run also yields the tracing overhead. Span
//! times are raw wall times. Layers a workload does not exercise report 0.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Run metadata (seed, host, settings) is printed before it and stored
//! under `target/wallbench/`.

mod alloc;
mod common;
mod compile;
mod direct;
mod host;
mod serve;
mod spans;
mod stats;

use common::Metrics;
use std::fmt::Write as _;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms_norm", "ms"),
    ("cold_infer_ms_norm", "ms"),
    ("rss_peak_mb", "MiB"),
    ("goodput_rps_norm", "1/s"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 44] = [
    ("compile.fold_ms", "ms"),
    ("compile.rdp_ms", "ms"),
    ("compile.absint_ms", "ms"),
    ("compile.fusion_ms", "ms"),
    ("compile.sep_ms", "ms"),
    ("compile.wavefront_ms", "ms"),
    ("compile.mvc_ms", "ms"),
    ("compile.tape_ms", "ms"),
    ("compile.glue_ms", "ms"),
    ("infer.bindings_us", "us"),
    ("infer.pre_plan_hit_us", "us"),
    ("infer.pre_plan_miss_ms", "ms"),
    ("infer.execute_ms", "ms"),
    ("infer.post_plan_ms", "ms"),
    ("infer.price_us", "us"),
    ("infer.glue_ms", "ms"),
    ("runtime.dispatch_ns_per_instr", "ns"),
    ("kernels.gemm_ms", "ms"),
    ("kernels.conv_ms", "ms"),
    ("kernels.elementwise_ms", "ms"),
    ("kernels.softmax_reduce_ms", "ms"),
    ("kernels.other_ms", "ms"),
    ("kernels.gemm_gflops", "GFLOP/s"),
    ("kernels.conv_gflops", "GFLOP/s"),
    ("kernels.gemm_peak_frac", "frac"),
    ("kernels.conv_peak_frac", "frac"),
    ("pool.busy_frac", "frac"),
    ("pool.regions_per_infer", "count"),
    ("mem.allocs_per_infer", "count"),
    ("mem.alloc_bytes_per_infer", "B"),
    ("mem.arena_backed_frac", "frac"),
    ("mem.pre_plan_hit_frac", "frac"),
    ("mvc.variant_hits_per_infer", "count"),
    ("serve.admit_us", "us"),
    ("serve.refused", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.batch_mean", "count"),
    ("serve.service_ms_p50", "ms"),
    ("serve.wait_ms_mean", "ms"),
    ("serve.replica_busy_frac", "frac"),
    ("serve.gen_late_ms_max", "ms"),
    ("trace.overhead_frac", "frac"),
    ("host.fma_gflops", "GFLOP/s"),
    ("host.stream_gbs", "GB/s"),
];

const WORKLOADS: [&str; 3] = ["seq_shapes", "gated_cnn", "serve_open"];

/// Environment flags that select a different program than the default
/// one. Both sides of a comparison must run the same program, so the
/// benchmark refuses to run with any of them set.
const REFUSED_ENV: [&str; 6] = [
    "SOD2_TAPE",
    "SOD2_WAVEFRONT",
    "SOD2_WAVE_SLACK",
    "SOD2_PROFILE",
    "SOD2_FAULTS",
    "SOD2_MVC_CACHE",
];

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (inferences and requests).
    pub attempted: u64,
    /// Operations that failed, were refused below the knee, or returned
    /// wrong outputs.
    pub failed: u64,
    /// Outputs that differ from the reference.
    pub mismatches: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Run metadata.
    pub meta: Vec<(&'static str, String)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    };
    let set: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("wallbench: refusing to run with {set:?} set: they select a non-default program");
        std::process::exit(2);
    }
    // The tuning cache lives under the nearest `target/` directory; make
    // sure that is the one in the working directory.
    if let Err(e) = std::fs::create_dir_all("target/wallbench") {
        eprintln!("wallbench: cannot create target/wallbench: {e}");
        std::process::exit(2);
    }

    let mut out = Outcome::default();
    let seconds = args.seconds as f64;
    match args.workload.as_str() {
        "seq_shapes" => direct::run(
            &direct::seq_shapes(),
            args.seed,
            seconds,
            args.trace,
            &mut out,
        ),
        "gated_cnn" => direct::run(
            &direct::gated_cnn(),
            args.seed,
            seconds,
            args.trace,
            &mut out,
        ),
        _ => serve::run(args.seed, seconds, args.trace, &mut out),
    }
    if !args.trace {
        out.metrics.insert("rss_peak_mb", host::rss_peak_mb());
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut meta = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        (
            "SOD2_THREADS",
            std::env::var("SOD2_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        ("pool_threads", sod2_pool::current_threads().to_string()),
        (
            "flops_and_bytes",
            "computed from tensor shapes, not measured".into(),
        ),
    ];
    meta.append(&mut out.meta);

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                eprintln!("wallbench: {name} is {v}; reported as 0");
                0.0
            }
            // Per-layer metrics of layers this workload does not use.
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    let correct = out.mismatches == 0 && out.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    let meta_json = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let record = format!("{{\"meta\": {{{meta_json}}}, \"result\": {result}}}\n");
    let path = format!(
        "target/wallbench/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("wallbench: cannot write {path}: {e}");
    }
    println!("# meta {{{meta_json}}}");
    println!("{result}");
    if out.mismatches > 0 {
        eprintln!(
            "wallbench: {} outputs differ from the reference",
            out.mismatches
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = sod2_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("string")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
