//! Offset-assignment planners (paper §4.4.1).
//!
//! Three strategies matching the paper's comparison:
//!
//! - [`plan_peak_first`] — SoD²'s planner: place the tensors live at the
//!   peak-usage step first, then sweep outward in both directions reusing
//!   freed slots. The paper reports 1.05× of the exhaustive optimum on
//!   ConvNet-AIG.
//! - [`plan_best_fit`] — the MNN-style greedy: allocate in execution order
//!   into the smallest free gap that fits (1.16× optimum in the paper).
//! - [`plan_exhaustive`] — permutation search with first-fit placement,
//!   feasible for small sub-graphs; the reference "optimal" of §4.4.1.
//!
//! [`plan_first_fit`] and [`plan_sod2`] (the portfolio of the three greedy
//! orders the engine plans with) complete the set.
//!
//! Cost: every planner indexes the lifetimes by position once and computes
//! each last use once. Placed tensors sit in one `Vec` kept sorted by
//! `(offset, end)`, so placing a tensor is one pass over the placed set —
//! lifetime-overlap test, then the first-/best-fit scan in address order —
//! plus one sorted insert, and the key→offset map is built once per plan:
//! `O(n²)` time for `n` tensors with no per-placement allocation.
//! [`plan_sod2`] shares the index and the definition order between its
//! three strategies and builds the map for the winner only.

use crate::life::{last_uses, live_peak, MemoryPlan, TensorLife};

/// How a tensor picks its offset among the already-placed tensors whose
/// lifetimes overlap its own.
#[derive(Clone, Copy)]
enum Fit {
    /// The lowest offset with room.
    First,
    /// The smallest gap with room (lowest offset on ties), else the end.
    Best,
}

/// A placed tensor: its byte range and its lifetime.
#[derive(Clone, Copy)]
struct Placed {
    off: usize,
    end: usize,
    def: usize,
    last: usize,
}

/// Offsets by position in the lifetime slice, and the arena size.
struct Placement {
    offsets: Vec<usize>,
    peak: usize,
}

impl Placement {
    fn into_plan(self, lives: &[TensorLife]) -> MemoryPlan {
        MemoryPlan {
            offsets: lives.iter().map(|l| l.key).zip(self.offsets).collect(),
            peak: self.peak,
        }
    }
}

/// The lifetimes indexed by position, with every last use computed once.
struct Index<'a> {
    lives: &'a [TensorLife],
    last: Vec<usize>,
}

impl<'a> Index<'a> {
    fn new(lives: &'a [TensorLife]) -> Self {
        Index {
            lives,
            last: last_uses(lives),
        }
    }

    /// Definition order, ties broken by key.
    fn def_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.lives.len()).collect();
        order.sort_by_key(|&i| (self.lives[i].def, self.lives[i].key));
        order
    }

    /// Tensors live at the peak step first (largest first), then the rest
    /// by distance from the peak step (largest first on ties).
    fn peak_first_order(&self) -> Vec<usize> {
        let (pstep, _) = live_peak(self.lives, &self.last);
        let mut order: Vec<usize> = (0..self.lives.len()).collect();
        order.sort_by_key(|&i| {
            let l = &self.lives[i];
            let at_peak = pstep >= l.def && pstep <= self.last[i];
            let dist = if at_peak {
                0
            } else if l.def > pstep {
                l.def - pstep
            } else {
                pstep - self.last[i]
            };
            (usize::from(!at_peak), dist, usize::MAX - l.size)
        });
        order
    }

    /// Places the tensors one by one in `order`. The placed set stays
    /// sorted by `(offset, end)`, so each placement scans the tensors it
    /// overlaps in address order with no collection or sort.
    fn place(&self, order: &[usize], fit: Fit) -> Placement {
        let mut placed: Vec<Placed> = Vec::with_capacity(order.len());
        let mut offsets = vec![0usize; self.lives.len()];
        let mut peak = 0usize;
        for &i in order {
            let (def, last, size) = (self.lives[i].def, self.last[i], self.lives[i].size);
            let overlapping = placed.iter().filter(|p| p.def <= last && def <= p.last);
            let off = match fit {
                Fit::First => first_fit(overlapping, size),
                Fit::Best => best_fit(overlapping, size),
            };
            let end = off + size;
            let at = placed.partition_point(|p| (p.off, p.end) <= (off, end));
            placed.insert(
                at,
                Placed {
                    off,
                    end,
                    def,
                    last,
                },
            );
            offsets[i] = off;
            peak = peak.max(end);
        }
        Placement { offsets, peak }
    }
}

/// The lowest offset at which `size` bytes fit between the `occupied`
/// ranges (given in `(offset, end)` order).
fn first_fit<'p>(occupied: impl Iterator<Item = &'p Placed>, size: usize) -> usize {
    let mut cursor = 0usize;
    for p in occupied {
        if p.off >= cursor + size {
            break; // gap fits
        }
        cursor = cursor.max(p.end);
    }
    cursor
}

/// The start of the smallest gap between the `occupied` ranges (given in
/// `(offset, end)` order) that holds `size` bytes, the lowest on ties; the
/// end of the occupied space when no gap does. Touching ranges merge
/// before gaps are measured.
fn best_fit<'p>(occupied: impl Iterator<Item = &'p Placed>, size: usize) -> usize {
    let mut best: Option<(usize, usize)> = None; // (gap_size, offset)
    let mut cursor = 0usize;
    let mut close = |(s, e): (usize, usize)| {
        if s > cursor {
            let gap = s - cursor;
            if gap >= size && best.map(|(g, _)| gap < g).unwrap_or(true) {
                best = Some((gap, cursor));
            }
        }
        cursor = cursor.max(e);
    };
    let mut run: Option<(usize, usize)> = None;
    for p in occupied {
        match run.as_mut() {
            Some(r) if p.off <= r.1 => r.1 = r.1.max(p.end),
            _ => {
                if let Some(r) = run {
                    close(r);
                }
                run = Some((p.off, p.end));
            }
        }
    }
    if let Some(r) = run {
        close(r);
    }
    match best {
        Some((_, off)) => off,
        None => cursor,
    }
}

/// SoD²'s peak-first planner (paper §4.4.1): tensors live at the step of
/// peak usage are placed first (largest first), then the remaining tensors
/// in order of distance from the peak step, each with first-fit.
pub fn plan_peak_first(lives: &[TensorLife]) -> MemoryPlan {
    let ix = Index::new(lives);
    ix.place(&ix.peak_first_order(), Fit::First)
        .into_plan(lives)
}

/// First-fit in definition order: the classic interval-graph strategy —
/// optimal whenever tensor sizes are uniform (rolling-buffer patterns),
/// and a strong portfolio member otherwise.
pub fn plan_first_fit(lives: &[TensorLife]) -> MemoryPlan {
    let ix = Index::new(lives);
    ix.place(&ix.def_order(), Fit::First).into_plan(lives)
}

/// SoD²'s production planner: a portfolio of the peak-first sweep, the
/// first-fit interval strategy, and the best-fit greedy — the paper's
/// §4.4.1 planner seeded at the peak location, hardened so that dynamic
/// memory planning never loses to the greedy fallback it replaces. The
/// first of the three reaching the lowest peak wins.
pub fn plan_sod2(lives: &[TensorLife]) -> MemoryPlan {
    let ix = Index::new(lives);
    let by_def = ix.def_order();
    [
        ix.place(&ix.peak_first_order(), Fit::First),
        ix.place(&by_def, Fit::First),
        ix.place(&by_def, Fit::Best),
    ]
    .into_iter()
    .min_by_key(|p| p.peak)
    .expect("nonempty portfolio")
    .into_plan(lives)
}

/// MNN-style greedy: allocate in execution (definition) order, choosing the
/// minimal free slot that holds the tensor (paper §4.4.1's baseline).
pub fn plan_best_fit(lives: &[TensorLife]) -> MemoryPlan {
    let ix = Index::new(lives);
    ix.place(&ix.def_order(), Fit::Best).into_plan(lives)
}

/// Exhaustive reference: tries every placement order with first-fit and
/// keeps the best (the first found on ties). Exponential — callers must
/// bound the tensor count.
///
/// # Panics
///
/// Panics when `lives.len() > 9` (9! ≈ 363k orders is the practical cap).
pub fn plan_exhaustive(lives: &[TensorLife]) -> MemoryPlan {
    assert!(
        lives.len() <= 9,
        "exhaustive planning is capped at 9 tensors, got {}",
        lives.len()
    );
    let ix = Index::new(lives);
    let mut order: Vec<usize> = (0..lives.len()).collect();
    let mut best: Option<Placement> = None;
    permute(&mut order, 0, &mut |order| {
        let placement = ix.place(order, Fit::First);
        if best
            .as_ref()
            .map(|b| placement.peak < b.peak)
            .unwrap_or(true)
        {
            best = Some(placement);
        }
    });
    best.map(|b| b.into_plan(lives)).unwrap_or_default()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::life::{peak_live_bytes, verify_plan};

    fn chain(sizes: &[usize]) -> Vec<TensorLife> {
        // t[i] defined at step i, used at step i+1 (a simple op chain).
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| TensorLife::new(i, s, i, vec![i + 1]))
            .collect()
    }

    #[test]
    fn chain_reuses_memory() {
        let lives = chain(&[100, 100, 100, 100]);
        let plan = plan_peak_first(&lives);
        assert!(verify_plan(&lives, &plan).is_empty());
        // Adjacent tensors overlap pairwise: peak = 200, far below 400.
        assert_eq!(plan.peak, 200);
        let bf = plan_best_fit(&lives);
        assert!(verify_plan(&lives, &bf).is_empty());
        assert_eq!(bf.peak, 200);
    }

    #[test]
    fn peak_first_at_least_lower_bound() {
        let lives = vec![
            TensorLife::new(0, 64, 0, vec![1, 5]),
            TensorLife::new(1, 32, 1, vec![2]),
            TensorLife::new(2, 128, 2, vec![3]),
            TensorLife::new(3, 32, 3, vec![4]),
            TensorLife::new(4, 64, 4, vec![5]),
            TensorLife::new(5, 16, 5, vec![6]),
        ];
        let lb = peak_live_bytes(&lives);
        let plan = plan_peak_first(&lives);
        assert!(verify_plan(&lives, &plan).is_empty());
        assert!(plan.peak >= lb);
        // And beats conservative.
        assert!(plan.peak < lives.iter().map(|l| l.size).sum());
    }

    #[test]
    fn exhaustive_is_no_worse() {
        let lives = vec![
            TensorLife::new(0, 60, 0, vec![2]),
            TensorLife::new(1, 40, 1, vec![3]),
            TensorLife::new(2, 100, 2, vec![4]),
            TensorLife::new(3, 30, 3, vec![5]),
            TensorLife::new(4, 70, 4, vec![5]),
        ];
        let opt = plan_exhaustive(&lives);
        let pf = plan_peak_first(&lives);
        let bf = plan_best_fit(&lives);
        assert!(verify_plan(&lives, &opt).is_empty());
        assert!(opt.peak <= pf.peak);
        assert!(opt.peak <= bf.peak);
    }

    #[test]
    #[should_panic(expected = "capped at 9")]
    fn exhaustive_bounds_input() {
        let lives = chain(&[1; 12]);
        let _ = plan_exhaustive(&lives);
    }

    #[test]
    fn empty_plans() {
        assert_eq!(plan_peak_first(&[]).peak, 0);
        assert_eq!(plan_best_fit(&[]).peak, 0);
        assert_eq!(plan_exhaustive(&[]).peak, 0);
    }
}
