//! Property tests: every planner produces sound plans within known bounds,
//! and the same plans as the straightforward reference planners below.

use proptest::prelude::*;
use sod2_mem::{
    peak_live_bytes, peak_step, plan_best_fit, plan_exhaustive, plan_first_fit, plan_peak_first,
    plan_sod2, rematerialize, verify_plan, MemoryPlan, TensorLife,
};

/// Reference planners: each placement collects the overlapping placed
/// tensors from a key→offset map, sorts them, and scans; live bytes are
/// recounted over every lifetime at every step. Slow and obviously
/// faithful to the strategy descriptions — the oracle the indexed
/// planners must match exactly (same offsets, same peak).
mod oracle {
    use sod2_mem::{MemoryPlan, TensorLife};
    use std::collections::HashMap;

    fn first_fit(
        t: &TensorLife,
        lives: &HashMap<usize, TensorLife>,
        offsets: &HashMap<usize, usize>,
    ) -> usize {
        let mut occupied: Vec<(usize, usize)> = offsets
            .iter()
            .filter_map(|(k, &off)| {
                let o = &lives[k];
                if o.overlaps(t) {
                    Some((off, off + o.size))
                } else {
                    None
                }
            })
            .collect();
        occupied.sort_unstable();
        let mut cursor = 0usize;
        for (start, end) in occupied {
            if start >= cursor + t.size {
                break;
            }
            cursor = cursor.max(end);
        }
        cursor
    }

    fn best_fit(
        t: &TensorLife,
        lives: &HashMap<usize, TensorLife>,
        offsets: &HashMap<usize, usize>,
    ) -> usize {
        let mut occupied: Vec<(usize, usize)> = offsets
            .iter()
            .filter_map(|(k, &off)| {
                let o = &lives[k];
                if o.overlaps(t) {
                    Some((off, off + o.size))
                } else {
                    None
                }
            })
            .collect();
        occupied.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::new();
        for (s, e) in occupied {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        let mut best: Option<(usize, usize)> = None;
        let mut cursor = 0usize;
        for &(s, e) in &merged {
            if s > cursor {
                let gap = s - cursor;
                if gap >= t.size && best.map(|(g, _)| gap < g).unwrap_or(true) {
                    best = Some((gap, cursor));
                }
            }
            cursor = cursor.max(e);
        }
        match best {
            Some((_, off)) => off,
            None => cursor,
        }
    }

    fn plan_with_order<F>(lives: &[TensorLife], order: &[usize], place: F) -> MemoryPlan
    where
        F: Fn(&TensorLife, &HashMap<usize, TensorLife>, &HashMap<usize, usize>) -> usize,
    {
        let by_key: HashMap<usize, TensorLife> = lives.iter().map(|l| (l.key, l.clone())).collect();
        let mut offsets: HashMap<usize, usize> = HashMap::new();
        let mut peak = 0usize;
        for &key in order {
            let t = &by_key[&key];
            let off = place(t, &by_key, &offsets);
            peak = peak.max(off + t.size);
            offsets.insert(key, off);
        }
        MemoryPlan { offsets, peak }
    }

    pub fn peak_live_bytes(lives: &[TensorLife]) -> usize {
        let max_step = lives.iter().map(TensorLife::last_use).max().unwrap_or(0);
        let mut best = 0usize;
        for step in 0..=max_step {
            let total: usize = lives
                .iter()
                .filter(|l| l.live_at(step))
                .map(|l| l.size)
                .sum();
            best = best.max(total);
        }
        best
    }

    pub fn peak_step(lives: &[TensorLife]) -> usize {
        let max_step = lives.iter().map(TensorLife::last_use).max().unwrap_or(0);
        let mut best = (0usize, 0usize);
        for step in 0..=max_step {
            let total: usize = lives
                .iter()
                .filter(|l| l.live_at(step))
                .map(|l| l.size)
                .sum();
            if total > best.1 {
                best = (step, total);
            }
        }
        best.0
    }

    pub fn plan_peak_first(lives: &[TensorLife]) -> MemoryPlan {
        if lives.is_empty() {
            return MemoryPlan::default();
        }
        let pstep = peak_step(lives);
        let mut order: Vec<&TensorLife> = lives.iter().collect();
        order.sort_by_key(|l| {
            let at_peak = l.live_at(pstep);
            let dist = if at_peak {
                0
            } else if l.def > pstep {
                l.def - pstep
            } else {
                pstep - l.last_use()
            };
            (usize::from(!at_peak), dist, usize::MAX - l.size)
        });
        let keys: Vec<usize> = order.iter().map(|l| l.key).collect();
        plan_with_order(lives, &keys, first_fit)
    }

    fn def_order(lives: &[TensorLife]) -> Vec<usize> {
        let mut order: Vec<&TensorLife> = lives.iter().collect();
        order.sort_by_key(|l| (l.def, l.key));
        order.iter().map(|l| l.key).collect()
    }

    pub fn plan_first_fit(lives: &[TensorLife]) -> MemoryPlan {
        plan_with_order(lives, &def_order(lives), first_fit)
    }

    pub fn plan_best_fit(lives: &[TensorLife]) -> MemoryPlan {
        plan_with_order(lives, &def_order(lives), best_fit)
    }

    pub fn plan_sod2(lives: &[TensorLife]) -> MemoryPlan {
        [
            plan_peak_first(lives),
            plan_first_fit(lives),
            plan_best_fit(lives),
        ]
        .into_iter()
        .min_by_key(|p| p.peak)
        .expect("nonempty portfolio")
    }

    pub fn plan_exhaustive(lives: &[TensorLife]) -> MemoryPlan {
        if lives.is_empty() {
            return MemoryPlan::default();
        }
        let mut keys: Vec<usize> = lives.iter().map(|l| l.key).collect();
        let mut best: Option<MemoryPlan> = None;
        permute(&mut keys, 0, &mut |order| {
            let plan = plan_with_order(lives, order, first_fit);
            if best.as_ref().map(|b| plan.peak < b.peak).unwrap_or(true) {
                best = Some(plan);
            }
        });
        best.unwrap_or_default()
    }

    fn permute(keys: &mut Vec<usize>, from: usize, visit: &mut impl FnMut(&[usize])) {
        if from == keys.len() {
            visit(keys);
            return;
        }
        for i in from..keys.len() {
            keys.swap(from, i);
            permute(keys, from + 1, visit);
            keys.swap(from, i);
        }
    }
}

/// Lifetimes shaped to hit the planners' tie-breaks: many tensors share a
/// definition step, sizes repeat (or are zero), some tensors have no uses
/// or a use at their own definition step, and some are held to the last
/// step like graph outputs.
fn tricky_lives_strategy(max_tensors: usize) -> impl Strategy<Value = Vec<TensorLife>> {
    const SIZES: [usize; 6] = [0, 16, 64, 64, 96, 256];
    proptest::collection::vec(
        (
            0usize..12,
            (0usize..10, 1usize..300),
            proptest::collection::vec(0usize..6, 0..4),
            0u8..5,
        ),
        0..=max_tensors,
    )
    .prop_map(|raw| {
        let mut lives: Vec<TensorLife> = raw
            .iter()
            .enumerate()
            .map(|(key, (def, (pick, odd), gaps, _))| {
                let size = SIZES.get(*pick).copied().unwrap_or(*odd);
                let mut step = *def;
                let uses = gaps
                    .iter()
                    .map(|g| {
                        step += g;
                        step
                    })
                    .collect();
                TensorLife::new(key, size, *def, uses)
            })
            .collect();
        let end = lives.iter().map(TensorLife::last_use).max().unwrap_or(0) + 1;
        for (l, (_, _, _, held)) in lives.iter_mut().zip(&raw) {
            if *held == 0 {
                l.uses.push(end);
            }
        }
        lives
    })
}

fn lives_strategy(max_tensors: usize) -> impl Strategy<Value = Vec<TensorLife>> {
    proptest::collection::vec(
        (
            0usize..20,
            1usize..256,
            proptest::collection::vec(1usize..8, 0..3),
        ),
        1..=max_tensors,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(key, (def, size, gaps))| {
                let mut uses = Vec::new();
                let mut step = def;
                for g in gaps {
                    step += g;
                    uses.push(step);
                }
                TensorLife::new(key, size, def, uses)
            })
            .collect()
    })
}

proptest! {
    /// All planners produce non-overlapping assignments whose peak is at
    /// least the live-bytes lower bound and at most the no-reuse sum.
    #[test]
    fn planners_sound_and_bounded(lives in lives_strategy(14)) {
        let lb = peak_live_bytes(&lives);
        let total: usize = lives.iter().map(|l| l.size).sum();
        for plan in [plan_peak_first(&lives), plan_best_fit(&lives)] {
            prop_assert!(verify_plan(&lives, &plan).is_empty());
            prop_assert!(plan.peak >= lb, "peak {} < lower bound {lb}", plan.peak);
            prop_assert!(plan.peak <= total);
        }
        let cons = MemoryPlan::conservative(&lives);
        prop_assert!(verify_plan(&lives, &cons).is_empty());
        prop_assert_eq!(cons.peak, total);
    }

    /// The exhaustive reference is valid and no worse than either greedy.
    #[test]
    fn exhaustive_dominates(lives in lives_strategy(6)) {
        let opt = plan_exhaustive(&lives);
        prop_assert!(verify_plan(&lives, &opt).is_empty());
        prop_assert!(opt.peak <= plan_peak_first(&lives).peak);
        prop_assert!(opt.peak <= plan_best_fit(&lives).peak);
        prop_assert!(opt.peak >= peak_live_bytes(&lives));
    }

    /// Rematerialization never increases peak live bytes and accounts its
    /// recompute bytes consistently.
    #[test]
    fn remat_reduces_or_preserves(lives in lives_strategy(10), frac in 0.3f64..1.0) {
        let peak = peak_live_bytes(&lives);
        let budget = ((peak as f64) * frac) as usize;
        let plan = rematerialize(&lives, budget);
        prop_assert!(plan.achieved_peak <= peak);
        // Splitting preserves total use steps.
        let orig_uses: usize = lives.iter().map(|l| l.uses.len()).sum();
        let new_uses: usize = plan.lives.iter().map(|l| l.uses.len()).sum();
        prop_assert_eq!(orig_uses, new_uses);
    }
}

proptest! {
    /// Behavioural soundness: replay every lifetime against an arena built
    /// from each planner's offsets — at every use step, each live tensor's
    /// payload must be exactly what its definition wrote (address reuse
    /// never corrupts live data).
    #[test]
    fn arena_replay_never_corrupts(lives in lives_strategy(12)) {
        for plan in [plan_peak_first(&lives), plan_best_fit(&lives)] {
            let mut arena = sod2_mem::Arena::new(plan);
            let max_step = lives.iter().map(|l| l.last_use()).max().unwrap_or(0);
            for step in 0..=max_step {
                // Definitions first: write a per-tensor pattern.
                for l in &lives {
                    if l.def == step {
                        let pattern: Vec<u8> =
                            (0..l.size).map(|i| (l.key as u8) ^ (i as u8)).collect();
                        arena.write(l.key, &pattern);
                    }
                }
                // Then check every live tensor's payload is intact.
                for l in &lives {
                    if l.def <= step && step <= l.last_use() {
                        let got = arena.read(l.key, l.size);
                        for (i, &b) in got.iter().enumerate() {
                            prop_assert_eq!(
                                b,
                                (l.key as u8) ^ (i as u8),
                                "tensor {} corrupted at byte {} (step {})",
                                l.key, i, step
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The indexed planners make exactly the reference planners' decisions:
    /// the whole plan (every offset and the peak) is equal, and so are the
    /// live-bytes peak and its step.
    #[test]
    fn planners_match_reference(lives in tricky_lives_strategy(60)) {
        prop_assert_eq!(plan_peak_first(&lives), oracle::plan_peak_first(&lives));
        prop_assert_eq!(plan_first_fit(&lives), oracle::plan_first_fit(&lives));
        prop_assert_eq!(plan_best_fit(&lives), oracle::plan_best_fit(&lives));
        prop_assert_eq!(plan_sod2(&lives), oracle::plan_sod2(&lives));
        prop_assert_eq!(peak_live_bytes(&lives), oracle::peak_live_bytes(&lives));
        prop_assert_eq!(peak_step(&lives), oracle::peak_step(&lives));
    }

    /// The exhaustive search keeps the reference's first-best order.
    #[test]
    fn exhaustive_matches_reference(lives in tricky_lives_strategy(6)) {
        prop_assert_eq!(plan_exhaustive(&lives), oracle::plan_exhaustive(&lives));
    }
}
