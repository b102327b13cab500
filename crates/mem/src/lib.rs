//! # sod2-mem — memory allocation planning
//!
//! The paper's §4.4.1: offset-based allocation plans over tensor lifetimes.
//!
//! - [`plan_peak_first`] / [`plan_sod2`] — SoD²'s planner (start at the
//!   peak-usage location, sweep outward reusing freed slots; `plan_sod2`
//!   hardens it with a first-fit portfolio fallback),
//! - [`plan_first_fit`] — first-fit in definition order (a portfolio
//!   member of `plan_sod2`),
//! - [`plan_best_fit`] — the MNN-style greedy baseline,
//! - [`plan_exhaustive`] — the small-sub-graph optimal reference,
//! - [`MemoryPlan::conservative`] — the static engines' no-reuse fallback,
//! - [`size_class_peak`] — the pooling/BFC allocator model (ORT baseline),
//! - [`rematerialize`] — the XLA-style budget-constrained policy used by
//!   the Fig. 11 TFLite comparison.
//!
//! Cost: each greedy planner is `O(n²)` for `n` tensors with no allocation
//! per placement, and [`peak_live_bytes`] / [`peak_step`] are one
//! difference-array sweep over the steps. The placement decisions are
//! those of the plain formulation (collect the overlapping placed tensors,
//! sort them, scan), which `tests/props.rs` keeps as an oracle: every
//! offset and peak must match it.
//!
//! Plans are checked with [`verify_plan`], which returns typed
//! [`PlanViolation`]s (interval-sweep overlap detection, arena bounds,
//! optional alignment via [`verify_plan_aligned`]).
//!
//! # Examples
//!
//! ```
//! use sod2_mem::{TensorLife, plan_peak_first, verify_plan};
//!
//! // A 3-op chain: each tensor feeds the next step only.
//! let lives = vec![
//!     TensorLife::new(0, 1024, 0, vec![1]),
//!     TensorLife::new(1, 1024, 1, vec![2]),
//!     TensorLife::new(2, 1024, 2, vec![3]),
//! ];
//! let plan = plan_peak_first(&lives);
//! assert!(verify_plan(&lives, &plan).is_empty());
//! assert_eq!(plan.peak, 2048); // reuse, not 3072
//! ```

mod arena;
mod life;
mod offset;
mod remat;
mod size_class;

pub use arena::Arena;
pub use life::{
    peak_live_bytes, peak_step, verify_plan, verify_plan_aligned, MemoryPlan, PlanViolation,
    TensorLife,
};
pub use offset::{plan_best_fit, plan_exhaustive, plan_first_fit, plan_peak_first, plan_sod2};
pub use remat::{rematerialize, RematPlan};
pub use size_class::size_class_peak;
