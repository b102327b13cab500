//! Host facts: an in-binary calibration probe and the process's RSS
//! high-water mark.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Single-thread multiply-add throughput in GFLOP/s (one multiply-add
/// counts as two FLOPs): 32 independent f32 accumulator lanes, which the
/// compiler keeps in vector registers, run for about `budget`.
pub fn fma_gflops(budget: Duration) -> f64 {
    const LANES: usize = 32;
    const INNER: usize = 4096;
    let mut acc = [0.0f32; LANES];
    let a = black_box(0.999_9f32);
    let b = black_box(1e-7f32);
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..INNER {
            for x in acc.iter_mut() {
                *x = *x * a + b;
            }
        }
        acc = black_box(acc);
        rounds += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(acc);
    (rounds * (INNER * LANES * 2) as u64) as f64 / secs / 1e9
}

/// Single-thread streaming bandwidth in GB/s: the triad
/// `a[i] = b[i] + s·c[i]` over three 16 MiB f64 arrays (well beyond the
/// caches), counting 24 bytes moved per element, run for about `budget`.
pub fn stream_gbs(budget: Duration) -> f64 {
    const N: usize = 2 << 20;
    let mut a = vec![0.0f64; N];
    let b = vec![1.0f64; N];
    let c = vec![2.0f64; N];
    let s = black_box(0.5f64);
    let t0 = Instant::now();
    let mut passes = 0u64;
    while t0.elapsed() < budget {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        passes += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    (passes * (N * 24) as u64) as f64 / secs / 1e9
}

/// Runs both probes, records `host.fma_gflops` and `host.stream_gbs`, and
/// returns the former.
pub fn probe(m: &mut crate::common::Metrics) -> f64 {
    let fma = fma_gflops(Duration::from_millis(300));
    m.insert("host.fma_gflops", fma);
    m.insert("host.stream_gbs", stream_gbs(Duration::from_millis(300)));
    fma
}

/// Threads the host runs at once.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median wall milliseconds, over [`CAL_CHUNKS`] runs on one thread, of
/// a fixed 64×64 f32 matrix product repeated eight times: vectorised
/// multiply-adds out of the L1 cache, the kind of work the program's
/// kernels do. The median ignores a run the hypervisor preempted.
fn calibration_ms() -> f64 {
    const N: usize = 64;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0.0f32; N * N];
    let mut runs = [0.0; CAL_CHUNKS];
    for run in runs.iter_mut() {
        let t0 = Instant::now();
        for _ in 0..8 {
            for i in 0..N {
                for k in 0..N {
                    let x = black_box(a[i * N + k]);
                    let (row, bk) = (&mut c[i * N..(i + 1) * N], &b[k * N..(k + 1) * N]);
                    for (y, z) in row.iter_mut().zip(bk) {
                        *y += x * z;
                    }
                }
            }
            black_box(&mut c);
        }
        *run = t0.elapsed().as_secs_f64() * 1e3;
    }
    crate::stats::median(&runs)
}

/// Timed runs per calibration thread.
const CAL_CHUNKS: usize = 7;

/// Calibration time, in milliseconds, of the host speed every normalised
/// time is expressed at (about the undisturbed time on the 2-vCPU
/// reference host).
pub const CAL_REF_MS: f64 = 0.25;

/// How much slower than the reference speed the host runs, as
/// calibration time over [`CAL_REF_MS`], with one calibration thread per
/// vCPU run at once.
///
/// A shared virtual host runs each vCPU up to half again slower for
/// seconds to minutes at a time while other tenants load the machine,
/// independently per vCPU and with no hypervisor steal to show it (a
/// fixed loop's thread CPU time grows with its wall time). A time
/// measured between two calibrations and divided by their mean slowdown
/// reads the program's cost rather than how busy the neighbours were.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slowdown {
    /// Of the slowest vCPU: what a parallel region, which waits for its
    /// slowest thread, runs at. Single-stream inference times are divided
    /// by it.
    pub slowest: f64,
    /// Mean over the vCPUs: what serial work on an unknown vCPU, or work
    /// that keeps every vCPU busy, runs at. Engine construction and serving
    /// times are divided by it, saturated throughput multiplied.
    pub mean: f64,
}

/// Reads the host's [`Slowdown`] now.
pub fn slowdown() -> Slowdown {
    let times: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..nproc()).map(|_| s.spawn(calibration_ms)).collect();
        hs.into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    Slowdown {
        slowest: times.iter().copied().fold(0.0, f64::max) / CAL_REF_MS,
        mean: crate::stats::mean(&times) / CAL_REF_MS,
    }
}

/// Successive [`slowdown`] readings around timed work.
pub struct Calibration {
    /// Every reading so far.
    pub readings: Vec<Slowdown>,
}

impl Calibration {
    /// Takes the first reading.
    pub fn start() -> Calibration {
        Calibration {
            readings: vec![slowdown()],
        }
    }

    /// Reads the slowdown again and returns its mean with the previous
    /// reading: the slowdown over what ran between the two.
    pub fn next(&mut self) -> Slowdown {
        let before = *self.readings.last().expect("read at start");
        let now = slowdown();
        self.readings.push(now);
        Slowdown {
            slowest: (before.slowest + now.slowest) / 2.0,
            mean: (before.mean + now.mean) / 2.0,
        }
    }
}

/// The process's high-water resident set size in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_of_the_slowest_vcpu_is_at_least_the_mean() {
        let mut cal = Calibration::start();
        let s = cal.next();
        assert!(s.mean > 0.0 && s.mean.is_finite());
        assert!(s.slowest >= s.mean);
        assert_eq!(cal.readings.len(), 2);
    }
}
