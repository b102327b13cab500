//! Span reducer: turns the raw span records of one traced window into
//! exclusive per-layer times.
//!
//! Spans are reduced per thread by interval union, never summed: an instant
//! covered by `k` spans credits `1/k` of its length to each, so the layers'
//! self times add up to the enclosing wall time by construction and no
//! share can exceed 1. (Summing overlapping spans recorded on different
//! threads is how a kernel "coverage" above 1 comes about.)

use sod2_obs::Profile;
use std::collections::BTreeMap;

/// A half-open `[start, end)` interval in nanoseconds.
pub type Iv = (u64, u64);

/// Engine phases, in the order `Sod2Engine::infer` runs them.
pub const PHASES: [&str; 5] = [
    "bindings",
    "dmp_pre_plan",
    "execute",
    "dmp_post_plan",
    "price_trace",
];
const PRE_PLAN: usize = 1;
const EXECUTE: usize = 2;

/// Kernel operator classes, named by the metric of their time.
pub const CLASSES: [&str; 5] = [
    "kernels.gemm_ms",
    "kernels.conv_ms",
    "kernels.elementwise_ms",
    "kernels.softmax_reduce_ms",
    "kernels.other_ms",
];

/// Sorted, merged union of intervals.
pub fn union(ivs: impl IntoIterator<Item = Iv>) -> Vec<Iv> {
    let mut v: Vec<Iv> = ivs.into_iter().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut out: Vec<Iv> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of a set of intervals, overlaps counted once.
pub fn union_len(ivs: impl IntoIterator<Item = Iv>) -> u64 {
    union(ivs).iter().map(|(s, e)| e - s).sum()
}

/// Length of the intersection of two unions (each sorted and disjoint).
pub fn intersect_len(a: &[Iv], b: &[Iv]) -> u64 {
    let (mut i, mut j, mut len) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (s, e) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        if e > s {
            len += e - s;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    len
}

/// Splits `window` among `spans` clipped to it: each instant covered by
/// `k` spans credits `1/k` of its length to each span's key. Returns the
/// credit per key and the uncovered length; together they sum to the
/// window length.
pub fn split<K: Copy + Ord>(window: Iv, spans: &[(Iv, K)]) -> (BTreeMap<K, f64>, f64) {
    let mut events: Vec<(u64, i32, K)> = Vec::with_capacity(spans.len() * 2);
    for &((s, e), k) in spans {
        let (s, e) = (s.max(window.0), e.min(window.1));
        if e > s {
            events.push((s, 1, k));
            events.push((e, -1, k));
        }
    }
    // Ends sort before starts at the same instant.
    events.sort_by_key(|&(t, d, _)| (t, d));
    let mut credit: BTreeMap<K, f64> = BTreeMap::new();
    let mut active: BTreeMap<K, u32> = BTreeMap::new();
    let mut total_active = 0u32;
    let mut covered = 0u64;
    let mut prev = window.0;
    for (t, d, k) in events {
        if t > prev && total_active > 0 {
            let len = (t - prev) as f64;
            covered += t - prev;
            for (&key, &n) in &active {
                *credit.entry(key).or_insert(0.0) += len * f64::from(n) / f64::from(total_active);
            }
        }
        prev = prev.max(t);
        let n = active.entry(k).or_insert(0);
        if d > 0 {
            *n += 1;
            total_active += 1;
        } else {
            *n -= 1;
            total_active -= 1;
            if *n == 0 {
                active.remove(&k);
            }
        }
    }
    let uncovered = (window.1.saturating_sub(window.0) - covered) as f64;
    (credit, uncovered)
}

/// How to reduce one traced window.
pub struct Attribution<'a> {
    /// `(category, name)` of the span that delimits one inference.
    pub root: (&'static str, &'static str),
    /// Attribute to an execute window only kernel spans recorded on the
    /// window's own thread. Needed when several inferences run at once
    /// (serving replicas); single-stream workloads also count the pool
    /// workers' kernel spans.
    pub kernels_same_thread: bool,
    /// Maps `(root index in start order, kernel span name)` to the
    /// kernel's class index into [`CLASSES`] and its FLOPs.
    pub classify: &'a dyn Fn(usize, &str) -> (usize, f64),
}

/// Exclusive times of one or more traced windows, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Reduced {
    /// Inferences (root spans).
    pub infers: usize,
    /// Summed root wall time.
    pub wall_ns: f64,
    /// Self time per phase of [`PHASES`].
    pub phase_ns: [f64; 5],
    /// The part of the pre-plan phase spent in cache misses.
    pub pre_plan_miss_ns: f64,
    /// Root time outside every phase.
    pub glue_ns: f64,
    /// Execute time not covered by any kernel span.
    pub dispatch_ns: f64,
    /// Execute wall time credited to each kernel class of [`CLASSES`].
    pub class_ns: [f64; 5],
    /// Summed kernel span durations per class (busy time, for rates).
    pub class_busy_ns: [f64; 5],
    /// FLOPs computed from shapes per class.
    pub class_flops: [f64; 5],
    /// Kernel spans (= tape instructions run).
    pub instrs: u64,
    /// Wall time of every root, in start order.
    pub root_ns: Vec<f64>,
    /// Per thread, the union of its root spans.
    pub busy_per_thread: BTreeMap<u64, f64>,
    /// Union of every execute window, across threads.
    pub exec_union_ns: f64,
    /// Summed over threads without roots (pool workers): the union of
    /// their `pool` spans inside the execute windows.
    pub worker_pool_ns: f64,
}

impl Reduced {
    /// Accumulates another window.
    pub fn add(&mut self, o: &Reduced) {
        self.infers += o.infers;
        self.wall_ns += o.wall_ns;
        for i in 0..5 {
            self.phase_ns[i] += o.phase_ns[i];
            self.class_ns[i] += o.class_ns[i];
            self.class_busy_ns[i] += o.class_busy_ns[i];
            self.class_flops[i] += o.class_flops[i];
        }
        self.pre_plan_miss_ns += o.pre_plan_miss_ns;
        self.glue_ns += o.glue_ns;
        self.dispatch_ns += o.dispatch_ns;
        self.instrs += o.instrs;
        self.root_ns.extend_from_slice(&o.root_ns);
        for (t, v) in &o.busy_per_thread {
            *self.busy_per_thread.entry(*t).or_insert(0.0) += v;
        }
        self.exec_union_ns += o.exec_union_ns;
        self.worker_pool_ns += o.worker_pool_ns;
    }
}

/// Index of the interval in `ivs` (sorted by start, disjoint) that
/// contains instant `t`.
fn find(ivs: &[Iv], t: u64) -> Option<usize> {
    let i = ivs.partition_point(|iv| iv.0 <= t).checked_sub(1)?;
    (t < ivs[i].1).then_some(i)
}

/// Reduces one captured window.
///
/// Pre-plan cache misses are not labelled in the trace; the engine counts
/// them (`infer.count` − `dmp.pre_plan_cache_hits`), and the longest
/// pre-plan phases are taken as the misses, since a miss plans from
/// scratch and a hit is a cache lookup.
pub fn reduce(profile: &Profile, how: &Attribution<'_>) -> Reduced {
    let mut out = Reduced::default();
    // Roots, per thread and globally in start order.
    let mut roots: Vec<(u64, Iv)> = profile
        .spans
        .iter()
        .filter(|s| (s.cat, s.name.as_str()) == how.root)
        .map(|s| (s.tid, (s.start_ns, s.end_ns())))
        .collect();
    roots.sort_by_key(|&(tid, iv)| (iv.0, tid));
    let mut by_thread: BTreeMap<u64, Vec<(Iv, usize)>> = BTreeMap::new();
    for (i, &(tid, iv)) in roots.iter().enumerate() {
        by_thread.entry(tid).or_default().push((iv, i));
    }
    let thread_ivs: BTreeMap<u64, Vec<Iv>> = by_thread
        .iter()
        .map(|(&t, v)| (t, v.iter().map(|x| x.0).collect()))
        .collect();
    // Phase spans of each root, from the root's own thread.
    let mut phases: Vec<Vec<(Iv, usize)>> = vec![Vec::new(); roots.len()];
    for s in profile.spans.iter().filter(|s| s.cat == "phase") {
        let Some(p) = PHASES.iter().position(|&n| n == s.name) else {
            continue;
        };
        let Some(ivs) = thread_ivs.get(&s.tid) else {
            continue;
        };
        if let Some(j) = find(ivs, s.start_ns) {
            phases[by_thread[&s.tid][j].1].push(((s.start_ns, s.end_ns()), p));
        }
    }
    let mut pre_plan: Vec<f64> = Vec::with_capacity(roots.len());
    // Execute windows, grouped into lanes (one lane, or one per thread).
    let mut lanes: BTreeMap<u64, Vec<(Iv, usize)>> = BTreeMap::new();
    for (i, &(tid, root)) in roots.iter().enumerate() {
        let (credit, uncovered) = split(root, &phases[i]);
        for (&p, &ns) in &credit {
            out.phase_ns[p] += ns;
        }
        pre_plan.push(credit.get(&PRE_PLAN).copied().unwrap_or(0.0));
        out.glue_ns += uncovered;
        let len = (root.1 - root.0) as f64;
        out.wall_ns += len;
        out.root_ns.push(len);
        let lane = if how.kernels_same_thread { tid } else { 0 };
        for &(iv, p) in &phases[i] {
            if p == EXECUTE {
                let iv = (iv.0.max(root.0), iv.1.min(root.1));
                lanes.entry(lane).or_default().push((iv, i));
            }
        }
    }
    for (&tid, ivs) in &thread_ivs {
        out.busy_per_thread
            .insert(tid, union_len(ivs.iter().copied()) as f64);
    }
    out.infers = roots.len();
    let hits = profile
        .counters
        .get("dmp.pre_plan_cache_hits")
        .copied()
        .unwrap_or(0) as usize;
    let misses = roots.len().saturating_sub(hits);
    pre_plan.sort_by(|a, b| b.total_cmp(a));
    out.pre_plan_miss_ns = pre_plan.iter().take(misses).sum();
    // Pool workers' occupancy while any inference executes.
    let exec_union = union(lanes.values().flatten().map(|x| x.0));
    out.exec_union_ns = exec_union.iter().map(|(s, e)| e - s).sum::<u64>() as f64;
    let mut worker_spans: BTreeMap<u64, Vec<Iv>> = BTreeMap::new();
    for s in profile.spans.iter().filter(|s| s.cat == "pool") {
        if !thread_ivs.contains_key(&s.tid) {
            worker_spans
                .entry(s.tid)
                .or_default()
                .push((s.start_ns, s.end_ns()));
        }
    }
    for spans in worker_spans.into_values() {
        let busy = union(spans);
        out.worker_pool_ns += intersect_len(&busy, &exec_union) as f64;
    }
    // Kernel spans, assigned to the execute window they start in.
    for w in lanes.values_mut() {
        w.sort_by_key(|x| x.0);
    }
    let lane_ivs: BTreeMap<u64, Vec<Iv>> = lanes
        .iter()
        .map(|(&l, v)| (l, v.iter().map(|x| x.0).collect()))
        .collect();
    let mut in_window: BTreeMap<(u64, usize), Vec<(Iv, usize)>> = BTreeMap::new();
    for s in profile.spans.iter().filter(|s| s.cat == "kernel") {
        let lane = if how.kernels_same_thread { s.tid } else { 0 };
        let Some(ivs) = lane_ivs.get(&lane) else {
            continue;
        };
        let Some(j) = find(ivs, s.start_ns) else {
            continue;
        };
        let (window, root) = lanes[&lane][j];
        let (class, flops) = (how.classify)(root, &s.name);
        let iv = (s.start_ns, s.end_ns().min(window.1));
        out.class_busy_ns[class] += (iv.1 - iv.0) as f64;
        out.class_flops[class] += flops;
        out.instrs += 1;
        in_window.entry((lane, j)).or_default().push((iv, class));
    }
    for (&lane, windows) in &lanes {
        for (j, &(window, _)) in windows.iter().enumerate() {
            let spans = in_window.remove(&(lane, j)).unwrap_or_default();
            let (credit, uncovered) = split(window, &spans);
            for (&c, &ns) in &credit {
                out.class_ns[c] += ns;
            }
            out.dispatch_ns += uncovered;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_obs::SpanRec;

    fn rec(cat: &'static str, name: &str, tid: u64, start: u64, end: u64) -> SpanRec {
        SpanRec {
            cat,
            name: name.to_string(),
            tid,
            depth: 0,
            start_ns: start,
            dur_ns: end - start,
        }
    }

    #[test]
    fn union_merges_overlaps_once() {
        assert_eq!(
            union([(5, 9), (0, 3), (2, 4), (9, 10), (7, 7)]),
            vec![(0, 4), (5, 10)]
        );
        assert_eq!(union_len([(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(intersect_len(&[(0, 10), (20, 30)], &[(5, 25)]), 10);
    }

    #[test]
    fn split_shares_overlap_and_adds_up() {
        let (credit, uncovered) = split((0, 100), &[((0, 60), 'a'), ((40, 90), 'b')]);
        assert_eq!(credit[&'a'], 50.0);
        assert_eq!(credit[&'b'], 40.0);
        assert_eq!(uncovered, 10.0);
        // Spans reaching outside the window are clipped.
        let (credit, uncovered) = split((10, 20), &[((0, 15), 'a'), ((12, 40), 'a')]);
        assert_eq!(credit[&'a'], 10.0);
        assert_eq!(uncovered, 0.0);
    }

    #[test]
    fn overlapping_spans_on_two_threads_never_exceed_wall() {
        // One inference on thread 0; a kernel on thread 0 and a kernel on
        // pool thread 1 overlap for 300 ns inside the execute phase.
        let spans = vec![
            rec("bench", "infer", 0, 0, 1000),
            rec("phase", "bindings", 0, 0, 100),
            rec("phase", "dmp_pre_plan", 0, 100, 200),
            rec("phase", "execute", 0, 200, 900),
            rec("kernel", "mm", 0, 250, 600),
            rec("kernel", "conv", 1, 300, 800),
            rec("phase", "dmp_post_plan", 0, 900, 950),
            // A root-less thread's phases are ignored; its pool spans
            // count as worker occupancy inside the execute window only.
            rec("phase", "execute", 2, 0, 1000),
            rec("pool", "worker chunks x2", 1, 100, 400),
            rec("pool", "worker chunks x2", 1, 350, 500),
        ];
        let profile = Profile {
            spans,
            ..Profile::default()
        };
        let classify = |_: usize, name: &str| (usize::from(name == "conv"), 1000.0);
        let r = reduce(
            &profile,
            &Attribution {
                root: ("bench", "infer"),
                kernels_same_thread: false,
                classify: &classify,
            },
        );
        assert_eq!(r.infers, 1);
        assert_eq!(r.wall_ns, 1000.0);
        assert_eq!(r.phase_ns, [100.0, 100.0, 700.0, 50.0, 0.0]);
        assert_eq!(r.glue_ns, 50.0);
        let phases: f64 = r.phase_ns.iter().sum();
        assert_eq!(phases + r.glue_ns, r.wall_ns);
        // gemm alone 250..300, shared 300..600, conv alone 600..800.
        assert_eq!(r.class_ns[0], 50.0 + 150.0);
        assert_eq!(r.class_ns[1], 150.0 + 200.0);
        assert_eq!(r.dispatch_ns, 150.0);
        let kernels: f64 = r.class_ns.iter().sum();
        assert_eq!(kernels + r.dispatch_ns, r.phase_ns[2]);
        // Summing the raw spans would claim 850 ns of a 700 ns window.
        assert_eq!(r.class_busy_ns[0] + r.class_busy_ns[1], 850.0);
        assert!(kernels / r.phase_ns[2] <= 1.0);
        assert_eq!(r.instrs, 2);
        assert_eq!(r.class_flops[0], 1000.0);
        assert_eq!(r.exec_union_ns, 700.0);
        assert_eq!(r.worker_pool_ns, 300.0);
        // No cache-hit counter: the single pre-plan is a miss.
        assert_eq!(r.pre_plan_miss_ns, 100.0);
    }

    #[test]
    fn same_thread_lanes_keep_concurrent_replicas_apart() {
        // Two replicas run at once; each execute window sees only its own
        // thread's kernels, and the longer pre-plan is taken as the miss.
        let spans = vec![
            rec("infer", "Sod2Engine::infer", 0, 0, 100),
            rec("phase", "dmp_pre_plan", 0, 0, 10),
            rec("phase", "execute", 0, 10, 100),
            rec("kernel", "k", 0, 10, 90),
            rec("infer", "Sod2Engine::infer", 1, 50, 150),
            rec("phase", "dmp_pre_plan", 1, 50, 90),
            rec("phase", "execute", 1, 90, 150),
            rec("kernel", "k", 1, 90, 140),
        ];
        let mut profile = Profile {
            spans,
            ..Profile::default()
        };
        profile
            .counters
            .insert("dmp.pre_plan_cache_hits".to_string(), 1);
        let classify = |_: usize, _: &str| (0, 0.0);
        let r = reduce(
            &profile,
            &Attribution {
                root: ("infer", "Sod2Engine::infer"),
                kernels_same_thread: true,
                classify: &classify,
            },
        );
        assert_eq!(r.infers, 2);
        assert_eq!(r.class_ns[0], 80.0 + 50.0);
        assert_eq!(r.dispatch_ns, 10.0 + 10.0);
        assert_eq!(r.pre_plan_miss_ns, 40.0);
        assert_eq!(r.busy_per_thread[&0], 100.0);
        assert_eq!(r.busy_per_thread[&1], 100.0);
    }
}
