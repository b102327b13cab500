//! Per-operator transfer functions for the four abstract-interpretation
//! lattices, run as one product-lattice [`System`] on the shared fixpoint
//! engine (`sod2_rdp::fixpoint`).
//!
//! Tracked per tensor:
//!
//! - **Value range** ([`Interval`]): bounds on the *finite* elements, padded
//!   for f32 rounding by the metadata in `sod2_kernels::numerics`.
//! - **NaN/∞ taint** (`bool`): whether the tensor may hold a non-finite
//!   element. Only f32 tensors can be tainted; graph inputs start clean
//!   (the finite-inputs premise the runtime's input fence enforces).
//! - **Constness** ([`ConstFact`]): every element proven equal to one value.
//!   Propagated only by replicating the kernels' own scalar functions, so a
//!   `Known` is bit-exact against execution.
//! - **Element-count bound** ([`BoundFact`]): a symbolic upper bound on the
//!   element count of execution-determined (nac) tensors — what lets the
//!   arena planner pre-reserve NMS/Gather-style outputs without special
//!   cases.
//!
//! ⊥ is the empty interval: "no execution reaches this tensor with any
//! finite element yet". Dead `Switch` arms stay at ⊥, which is how deadness
//! and unreachable-arm facts fall out of the same fixpoint. Every transfer
//! only moves facts up its lattice; [`AbsintSystem`] audits exactly that at
//! its one write site, `install`, and the engine collects the findings.

use crate::absint::interval::{Interval, WIDEN_AFTER};
use sod2_ir::{normalize_axis, DType, Graph, NodeId, Op, ReduceOp, TensorId};
use sod2_kernels::elementwise::{binary_fn_f32, binary_fn_i64, unary_fn};
use sod2_kernels::numerics::{
    binary_interval_f32, binary_interval_i64, compare_decided, finalize, unary_interval, NumRange,
};
use sod2_rdp::{FixpointOptions, FixpointStats, RdpResult, Strategy, System};
use sod2_sym::DimExpr;

/// Constness lattice: `Unset ⊑ Known(v) ⊑ Varies`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstFact {
    /// ⊥ — nothing observed yet.
    Unset,
    /// Every element equals `v` (finite; bit-exact vs the kernels).
    Known(f64),
    /// ⊤ — elements may differ.
    Varies,
}

impl ConstFact {
    /// The proven-constant value, if any.
    pub fn known(&self) -> Option<f64> {
        match self {
            ConstFact::Known(v) => Some(*v),
            _ => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            ConstFact::Unset => 0,
            ConstFact::Known(_) => 1,
            ConstFact::Varies => 2,
        }
    }

    fn join(&self, other: &ConstFact) -> ConstFact {
        match (self, other) {
            (ConstFact::Unset, x) | (x, ConstFact::Unset) => *x,
            (ConstFact::Known(a), ConstFact::Known(b)) if a.to_bits() == b.to_bits() => *self,
            _ => ConstFact::Varies,
        }
    }

    /// A `Known` only when `v` is finite (a non-finite "constant" is the
    /// taint lattice's business).
    fn of(v: f64) -> ConstFact {
        if v.is_finite() {
            ConstFact::Known(v)
        } else {
            ConstFact::Varies
        }
    }
}

/// Element-count-bound lattice: `Unset ⊑ Bounded(e) ⊑ Unbounded`.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundFact {
    /// ⊥ — nothing observed yet.
    Unset,
    /// Element count ≤ `e` under every symbol binding.
    Bounded(DimExpr),
    /// ⊤ — no static bound.
    Unbounded,
}

impl BoundFact {
    /// The bounding expression, if any.
    pub fn expr(&self) -> Option<&DimExpr> {
        match self {
            BoundFact::Bounded(e) => Some(e),
            _ => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            BoundFact::Unset => 0,
            BoundFact::Bounded(_) => 1,
            BoundFact::Unbounded => 2,
        }
    }

    fn join(&self, other: &BoundFact) -> BoundFact {
        match (self, other) {
            (BoundFact::Unset, x) | (x, BoundFact::Unset) => x.clone(),
            (BoundFact::Unbounded, _) | (_, BoundFact::Unbounded) => BoundFact::Unbounded,
            (BoundFact::Bounded(a), BoundFact::Bounded(b)) => {
                if a == b {
                    self.clone()
                } else {
                    BoundFact::Bounded(DimExpr::max(a.clone(), b.clone()))
                }
            }
        }
    }
}

/// The product-lattice state: one fact of each kind per tensor.
#[derive(Debug, Clone)]
pub struct AbsState {
    /// Finite-element value ranges.
    pub ranges: Vec<Interval>,
    /// May-hold-NaN/∞ flags (f32 tensors only).
    pub taint: Vec<bool>,
    /// Constness facts.
    pub consts: Vec<ConstFact>,
    /// Element-count bounds for nac tensors.
    pub bounds: Vec<BoundFact>,
}

/// One tensor's proposed facts from a transfer step.
#[derive(Debug, Clone)]
struct Fact {
    range: Interval,
    taint: bool,
    cst: ConstFact,
    bound: BoundFact,
}

impl Fact {
    fn bottom() -> Fact {
        Fact {
            range: Interval::empty(),
            taint: false,
            cst: ConstFact::Unset,
            bound: BoundFact::Unset,
        }
    }

    fn from_num(r: NumRange) -> Fact {
        Fact {
            range: r.into(),
            taint: r.nonfinite,
            cst: ConstFact::Varies,
            bound: BoundFact::Unset,
        }
    }

    /// A single known value `v` everywhere (non-finite `v` degrades to
    /// taint with an empty range).
    fn known(v: f64) -> Fact {
        if v.is_finite() {
            Fact {
                range: Interval::point(v),
                taint: false,
                cst: ConstFact::Known(v),
                bound: BoundFact::Unset,
            }
        } else {
            Fact {
                range: Interval::empty(),
                taint: true,
                cst: ConstFact::Varies,
                bound: BoundFact::Unset,
            }
        }
    }

    fn range(lo: f64, hi: f64, taint: bool) -> Fact {
        Fact {
            range: Interval::new(lo, hi),
            taint,
            cst: ConstFact::Varies,
            bound: BoundFact::Unset,
        }
    }

    /// ⊤ for a dtype: any value of that type, untainted except when noted.
    fn top(dt: DType, taint: bool) -> Fact {
        let range = match dt {
            DType::Bool => Interval::new(0.0, 1.0),
            DType::U8 => Interval::new(0.0, 255.0),
            _ => Interval::top(),
        };
        Fact {
            range,
            taint: taint && dt == DType::F32,
            cst: ConstFact::Varies,
            bound: BoundFact::Unset,
        }
    }
}

/// f64 cap under which an i64 is exactly representable (and worth tracking).
const I64_KNOWN_CAP: f64 = 9.0e15;

/// The abstract-interpretation system: transfers consult RDP's fixpoint for
/// shapes/extents and never re-derive them.
pub struct AbsintSystem<'a> {
    rdp: &'a RdpResult,
    widen_range: Vec<u32>,
    widen_bound: Vec<u32>,
    /// Lattice-order violations `install` saw since the engine last
    /// drained them ([`System::take_violations`]).
    violations: Vec<String>,
}

impl<'a> AbsintSystem<'a> {
    /// A system over `rdp`'s results for the same graph.
    pub fn new(rdp: &'a RdpResult) -> Self {
        AbsintSystem {
            rdp,
            widen_range: Vec::new(),
            widen_bound: Vec::new(),
            violations: Vec::new(),
        }
    }

    fn axis_extent(&self, t: TensorId, ax: usize) -> Option<i64> {
        self.rdp.shape(t).dims()?.get(ax)?.as_const()
    }

    fn known_rank(&self, t: TensorId) -> Option<usize> {
        self.rdp.shape(t).rank()
    }

    /// Concrete element count, when RDP proved every dim a known constant.
    fn known_elems(&self, t: TensorId) -> Option<i64> {
        Some(self.rdp.shape(t).as_known()?.iter().product())
    }

    /// Symbolic element-count upper bound: the exact RDP expression for
    /// fully-symbolic shapes, or the bound lattice's fact for nac ones.
    fn elems_bound(&self, state: &AbsState, t: TensorId) -> Option<DimExpr> {
        if let Some(e) = self.rdp.shape(t).num_elements() {
            return Some(e);
        }
        state.bounds[t.0 as usize].expr().cloned()
    }

    /// Product-of-inputs element bound (sound for broadcasting: each output
    /// dim is ≤ the product of the aligned input dims).
    fn product_bound(&self, state: &AbsState, inputs: &[TensorId]) -> BoundFact {
        let mut acc = DimExpr::Const(1);
        for &t in inputs {
            match self.elems_bound(state, t) {
                Some(e) => acc = DimExpr::mul(acc, e),
                None => return BoundFact::Unbounded,
            }
        }
        BoundFact::Bounded(acc)
    }

    /// Joins `fact` into tensor `t`'s facts (widening a range or bound that
    /// keeps moving), the only place `relax` writes the state. Every
    /// written fact is checked against the one it replaces: a write that
    /// moves down its lattice is recorded as a violation.
    fn install(&mut self, state: &mut AbsState, t: TensorId, fact: Fact) -> bool {
        let i = t.0 as usize;
        let mut changed = false;
        let joined = join_range(&state.ranges[i], &fact.range);
        if joined != state.ranges[i] {
            self.widen_range[i] += 1;
            let next = if self.widen_range[i] > WIDEN_AFTER {
                Interval::top()
            } else {
                joined
            };
            if !state.ranges[i].within(&next) {
                self.violations.push(format!(
                    "tensor {i}: range narrowed {} -> {}",
                    state.ranges[i], next
                ));
            }
            state.ranges[i] = next;
            changed = true;
        }
        // Taint is only ever raised here, so it cannot be cleared.
        if fact.taint && !state.taint[i] {
            state.taint[i] = true;
            changed = true;
        }
        let cj = state.consts[i].join(&fact.cst);
        if cj != state.consts[i] {
            let old = state.consts[i];
            if cj.rank() < old.rank() || (old.rank() == 1 && cj.rank() == 1) {
                self.violations
                    .push(format!("tensor {i}: constness descended"));
            }
            state.consts[i] = cj;
            changed = true;
        }
        let bj = state.bounds[i].join(&fact.bound);
        if bj != state.bounds[i] {
            self.widen_bound[i] += 1;
            let next = if self.widen_bound[i] > WIDEN_AFTER {
                BoundFact::Unbounded
            } else {
                bj
            };
            if next.rank() < state.bounds[i].rank() {
                self.violations
                    .push(format!("tensor {i}: element bound descended"));
            }
            state.bounds[i] = next;
            changed = true;
        }
        changed
    }

    /// Facts for one output of `node`, indexed by output position.
    fn propose(&self, graph: &Graph, state: &AbsState, nid: NodeId) -> Vec<Fact> {
        let node = graph.node(nid);
        let r = |t: TensorId| state.ranges[t.0 as usize];
        let tn = |t: TensorId| state.taint[t.0 as usize];
        let cs = |t: TensorId| state.consts[t.0 as usize];
        let out_dt = |k: usize| graph.tensor(node.outputs[k]).dtype;
        let ins = &node.inputs;

        let mut facts = match &node.op {
            Op::Shape => {
                let f = match self.rdp.shape(ins[0]).dims() {
                    Some(dims) => {
                        let known: Vec<i64> = dims.iter().filter_map(|d| d.as_const()).collect();
                        if known.len() == dims.len() && !known.is_empty() {
                            let lo = *known.iter().min().unwrap_or(&0) as f64;
                            let hi = *known.iter().max().unwrap_or(&0) as f64;
                            let mut f = Fact::range(lo, hi, false);
                            if lo == hi {
                                f.cst = ConstFact::of(lo);
                            }
                            f
                        } else {
                            Fact::range(0.0, f64::INFINITY, false)
                        }
                    }
                    None => Fact::range(0.0, f64::INFINITY, false),
                };
                vec![f]
            }
            Op::Size => {
                let f = match self.known_elems(ins[0]) {
                    Some(n) => Fact::known(n as f64),
                    None => Fact::range(0.0, f64::INFINITY, false),
                };
                vec![f]
            }
            Op::ConstantOfShape { value } => vec![Fact::known(*value as f64)],
            Op::EyeLike => vec![Fact::range(0.0, 1.0, false)],

            Op::Binary(bop) => {
                let (a, b) = (r(ins[0]), r(ins[1]));
                let taint = tn(ins[0]) || tn(ins[1]);
                let mut f = match (cs(ins[0]).known(), cs(ins[1]).known(), out_dt(0)) {
                    (Some(x), Some(y), DType::F32) => {
                        Fact::known(binary_fn_f32(*bop)(x as f32, y as f32) as f64)
                    }
                    (Some(x), Some(y), DType::I64) => {
                        let v = binary_fn_i64(*bop)(x as i64, y as i64);
                        if (v.unsigned_abs() as f64) <= I64_KNOWN_CAP {
                            Fact::known(v as f64)
                        } else {
                            Fact::top(DType::I64, false)
                        }
                    }
                    (_, _, DType::F32) => {
                        Fact::from_num(binary_interval_f32(*bop, a.lo, a.hi, b.lo, b.hi, taint))
                    }
                    _ => Fact::from_num(binary_interval_i64(*bop, a.lo, a.hi, b.lo, b.hi)),
                };
                f.bound = self.product_bound(state, ins);
                vec![f]
            }
            Op::Compare(cop) => {
                let (a, b) = (r(ins[0]), r(ins[1]));
                let clean = !tn(ins[0]) && !tn(ins[1]);
                let mut f = Fact::range(0.0, 1.0, false);
                if (a.is_empty() || b.is_empty()) && clean {
                    // Untainted empty operand: genuinely unreachable. With
                    // taint the operand is NaN, every comparison is false,
                    // and the output is a real 0 — keep [0, 1].
                    f.range = Interval::empty();
                } else if clean {
                    if let Some(d) = compare_decided(*cop, a.lo, a.hi, b.lo, b.hi) {
                        f = Fact::known(if d { 1.0 } else { 0.0 });
                    }
                }
                f.bound = self.product_bound(state, ins);
                vec![f]
            }
            Op::Unary(uop) => {
                let a = r(ins[0]);
                let f = match cs(ins[0]).known() {
                    Some(x) => Fact::known(unary_fn(*uop)(x as f32) as f64),
                    None => Fact::from_num(unary_interval(*uop, a.lo, a.hi, tn(ins[0]))),
                };
                vec![f]
            }
            Op::Cast { to } => {
                let from = graph.tensor(ins[0]).dtype;
                vec![self.cast_fact(state, ins[0], from, *to)]
            }
            Op::Clip { min, max } => {
                let a = r(ins[0]);
                let (min, max) = (*min as f64, *max as f64);
                let f = if min > max {
                    // The kernel's `clamp` panics on this; certify() reports
                    // it as absint/contradictory-range. Claim nothing.
                    Fact::top(DType::F32, true)
                } else {
                    match cs(ins[0]).known() {
                        Some(x) => Fact::known((x as f32).clamp(min as f32, max as f32) as f64),
                        None if tn(ins[0]) => {
                            // ±∞ clamp to the bounds; NaN passes through.
                            let mut f = Fact::range(min, max, true);
                            f.range = f
                                .range
                                .join(&Interval::new(a.lo.clamp(min, max), a.hi.clamp(min, max)));
                            f
                        }
                        None => {
                            if a.is_empty() {
                                Fact::bottom()
                            } else {
                                Fact::from_num(finalize(
                                    a.lo.max(min).min(max),
                                    a.hi.min(max).max(min),
                                    min.abs().max(max.abs()),
                                    false,
                                ))
                            }
                        }
                    }
                };
                vec![f]
            }
            Op::Where => {
                let mut f = Fact {
                    range: r(ins[1]).join(&r(ins[2])),
                    taint: tn(ins[1]) || tn(ins[2]),
                    cst: cs(ins[1]).join(&cs(ins[2])),
                    bound: self.product_bound(state, ins),
                };
                // A decided condition selects one side exactly.
                match cs(ins[0]).known() {
                    Some(c) if c != 0.0 => {
                        f.range = r(ins[1]);
                        f.taint = tn(ins[1]);
                        f.cst = cs(ins[1]);
                    }
                    Some(_) => {
                        f.range = r(ins[2]);
                        f.taint = tn(ins[2]);
                        f.cst = cs(ins[2]);
                    }
                    None => {}
                }
                vec![f]
            }
            Op::Softmax { .. } => vec![Fact::range(0.0, 1.0, tn(ins[0]))],
            Op::LogSoftmax { .. } => {
                // Kernel computes `softmax.max(1e-30).ln()`; `f32::max`
                // ignores NaN, so the output is finite even for tainted
                // inputs: [ln(1e-30), ln(1)] padded.
                vec![Fact::from_num(finalize(-69.1, 0.0, 69.1, false))]
            }

            Op::Conv2d { spatial, groups } => {
                let taint = ins.iter().any(|t| tn(*t));
                let (mx, mw) = (r(ins[0]).max_abs(), r(ins[1]).max_abs());
                let mb = ins.get(2).map(|t| r(*t).max_abs()).unwrap_or(0.0);
                let cin_g = self
                    .axis_extent(ins[1], 1)
                    .map(|c| c as f64)
                    .unwrap_or(f64::INFINITY);
                let k = cin_g * (spatial.kernel[0] * spatial.kernel[1]) as f64;
                let _ = groups;
                vec![dot_fact(k, mx, mw, mb, taint)]
            }
            Op::MatMul => {
                let taint = tn(ins[0]) || tn(ins[1]);
                let (ma, mb2) = (r(ins[0]).max_abs(), r(ins[1]).max_abs());
                let rank = self.known_rank(ins[0]).unwrap_or(0);
                let k = if rank > 0 {
                    self.axis_extent(ins[0], rank - 1)
                        .map(|v| v as f64)
                        .unwrap_or(f64::INFINITY)
                } else {
                    f64::INFINITY
                };
                vec![dot_fact(k, ma, mb2, 0.0, taint)]
            }
            Op::Gemm { trans_a, .. } => {
                let taint = ins.iter().any(|t| tn(*t));
                let (ma, mb2) = (r(ins[0]).max_abs(), r(ins[1]).max_abs());
                let mc = ins.get(2).map(|t| r(*t).max_abs()).unwrap_or(0.0);
                let kax = if *trans_a { 0 } else { 1 };
                let k = self
                    .axis_extent(ins[0], kax)
                    .map(|v| v as f64)
                    .unwrap_or(f64::INFINITY);
                vec![dot_fact(k, ma, mb2, mc, taint)]
            }
            Op::MaxPool2d { .. } => {
                // Window may cover only padding zeros: include 0 in the hull.
                let a = r(ins[0]).join(&Interval::point(0.0));
                vec![Fact {
                    range: a,
                    taint: tn(ins[0]),
                    cst: ConstFact::Varies,
                    bound: BoundFact::Unset,
                }]
            }
            Op::AvgPool2d { spatial } => {
                let a = r(ins[0]).join(&Interval::point(0.0));
                let k = (spatial.kernel[0] * spatial.kernel[1]) as f64;
                let f = if a.is_empty() {
                    Fact::bottom()
                } else {
                    Fact::from_num(finalize(a.lo, a.hi, acc_scale(a.max_abs(), k), tn(ins[0])))
                };
                vec![f]
            }
            Op::GlobalAvgPool => {
                let a = r(ins[0]);
                let hw = match (self.axis_extent(ins[0], 2), self.axis_extent(ins[0], 3)) {
                    (Some(h), Some(w)) => Some(h * w),
                    _ => None,
                };
                let f = match hw {
                    Some(n) if n > 0 => {
                        if a.is_empty() {
                            Fact::bottom()
                        } else {
                            Fact::from_num(finalize(
                                a.lo,
                                a.hi,
                                acc_scale(a.max_abs(), n as f64),
                                tn(ins[0]),
                            ))
                        }
                    }
                    // Unknown or zero spatial extent: 0/0 = NaN is possible.
                    _ => Fact::top(out_dt(0), true),
                };
                vec![f]
            }
            Op::Reduce {
                op,
                axes,
                keep_dims: _,
            } => {
                vec![self.reduce_fact(state, ins[0], *op, axes, out_dt(0))]
            }
            Op::ArgMax { axis, .. } => {
                let f = match self
                    .known_rank(ins[0])
                    .and_then(|rk| normalize_axis(*axis, rk))
                    .and_then(|ax| self.axis_extent(ins[0], ax))
                {
                    Some(1) => Fact::known(0.0),
                    Some(e) if e > 1 => Fact::range(0.0, (e - 1) as f64, false),
                    Some(_) => Fact::bottom(), // empty axis: kernel errors out
                    None => Fact::range(0.0, f64::INFINITY, false),
                };
                vec![f]
            }
            Op::Concat { .. } => {
                let mut f = Fact::bottom();
                for &t in ins {
                    f.range = f.range.join(&r(t));
                    f.taint |= tn(t);
                    f.cst = f.cst.join(&cs(t));
                }
                let mut sum = DimExpr::Const(0);
                let mut bounded = true;
                for &t in ins {
                    match self.elems_bound(state, t) {
                        Some(e) => sum = DimExpr::add(sum, e),
                        None => bounded = false,
                    }
                }
                f.bound = if bounded {
                    BoundFact::Bounded(sum)
                } else {
                    BoundFact::Unbounded
                };
                vec![f]
            }

            // Element-preserving / element-subsetting data movement: value
            // facts pass straight through; the element count cannot grow.
            Op::Transpose { .. }
            | Op::Flatten { .. }
            | Op::Unsqueeze { .. }
            | Op::Squeeze { .. }
            | Op::Identity
            | Op::Reshape
            | Op::Slice { .. }
            | Op::SliceDyn
            | Op::Gather { .. }
            | Op::CumSum { .. }
            | Op::Split { .. } => {
                let passthrough = Fact {
                    range: r(ins[0]),
                    taint: tn(ins[0]),
                    cst: cs(ins[0]),
                    bound: BoundFact::Unset,
                };
                let f = match &node.op {
                    Op::CumSum { axis } => self.cumsum_fact(state, ins[0], *axis, out_dt(0)),
                    Op::Gather { axis } => {
                        let mut f = passthrough.clone();
                        f.bound = self.gather_bound(state, ins[0], ins[1], *axis);
                        f
                    }
                    _ => {
                        let mut f = passthrough.clone();
                        f.bound = match self.elems_bound(state, ins[0]) {
                            Some(e) => BoundFact::Bounded(e),
                            None => BoundFact::Unbounded,
                        };
                        f
                    }
                };
                vec![f; node.outputs.len()]
            }

            Op::LayerNorm { epsilon } | Op::InstanceNorm { epsilon } => {
                vec![norm_fact(
                    r(ins[0]),
                    r(ins[1]),
                    r(ins[2]),
                    *epsilon,
                    ins.iter().any(|t| tn(*t)),
                )]
            }
            Op::BatchNorm { epsilon } => {
                let (x, sc, bi, me, va) = (r(ins[0]), r(ins[1]), r(ins[2]), r(ins[3]), r(ins[4]));
                let taint = ins.iter().any(|t| tn(*t));
                let eps = *epsilon as f64;
                let f = if x.is_empty() {
                    Fact::bottom()
                } else if va.is_empty() || va.lo + eps <= 0.0 || taint {
                    Fact::top(DType::F32, true)
                } else {
                    let denom = (va.lo + eps).sqrt();
                    let amp = (x.max_abs() + me.max_abs()) / denom;
                    let b = amp * sc.max_abs() + bi.max_abs();
                    Fact::from_num(finalize(-b, b, b * 1.01, false))
                };
                vec![f]
            }
            Op::Pad { pads, value } => {
                let grows = pads.iter().any(|&p| p != 0);
                let mut f = Fact {
                    range: r(ins[0]),
                    taint: tn(ins[0]),
                    cst: cs(ins[0]),
                    bound: BoundFact::Unset,
                };
                if grows {
                    let pv = Fact::known(*value as f64);
                    f.range = f.range.join(&pv.range);
                    f.taint |= pv.taint;
                    f.cst = f.cst.join(&pv.cst);
                }
                vec![f]
            }

            Op::Range => {
                // Values lie between start (inclusive) and limit.
                let f = Fact {
                    range: r(ins[0]).join(&r(ins[1])),
                    taint: false,
                    cst: ConstFact::Varies,
                    bound: self.range_bound(state, ins),
                };
                vec![f]
            }
            Op::TopK { .. } => {
                let values = Fact {
                    range: r(ins[0]),
                    taint: tn(ins[0]),
                    cst: cs(ins[0]),
                    bound: match self.elems_bound(state, ins[0]) {
                        Some(e) => BoundFact::Bounded(e),
                        None => BoundFact::Unbounded,
                    },
                };
                let mut indices = Fact::range(0.0, f64::INFINITY, false);
                indices.bound = values.bound.clone();
                vec![values, indices]
            }
            Op::Expand | Op::Tile | Op::Resize => {
                let f = Fact {
                    range: r(ins[0]),
                    taint: tn(ins[0]),
                    cst: cs(ins[0]),
                    bound: BoundFact::Unbounded,
                };
                vec![f]
            }
            Op::OneHot => {
                let mut f = Fact::range(0.0, 1.0, false);
                f.bound = BoundFact::Unbounded;
                vec![f]
            }
            Op::NonZero => {
                let mut f = Fact::range(0.0, f64::INFINITY, false);
                f.bound = match (self.known_rank(ins[0]), self.elems_bound(state, ins[0])) {
                    (Some(rk), Some(e)) => {
                        BoundFact::Bounded(DimExpr::mul(DimExpr::Const(rk as i64), e))
                    }
                    _ => BoundFact::Unbounded,
                };
                vec![f]
            }
            Op::NonMaxSuppression { max_output } => {
                let n = self.axis_extent(ins[0], 0);
                let mut f = match n {
                    Some(n) if n >= 1 => Fact::range(0.0, (n - 1) as f64, false),
                    _ => Fact::range(0.0, f64::INFINITY, false),
                };
                f.bound = BoundFact::Bounded(DimExpr::Const(*max_output as i64));
                vec![f]
            }

            Op::Switch { num_branches } => {
                let data = Fact {
                    range: r(ins[0]),
                    taint: tn(ins[0]),
                    cst: cs(ins[0]),
                    bound: match self.elems_bound(state, ins[0]) {
                        Some(e) => BoundFact::Bounded(e),
                        None => BoundFact::Unbounded,
                    },
                };
                (0..*num_branches)
                    .map(|j| {
                        if self.arm_feasible(state, ins[1], j, *num_branches) {
                            data.clone()
                        } else {
                            Fact::bottom()
                        }
                    })
                    .collect()
            }
            Op::Combine { num_branches } => {
                let sel = ins[*num_branches];
                let mut f = Fact::bottom();
                for (j, &arm) in ins[..*num_branches].iter().enumerate() {
                    if self.arm_feasible(state, sel, j, *num_branches) {
                        f.range = f.range.join(&r(arm));
                        f.taint |= tn(arm);
                        f.cst = f.cst.join(&cs(arm));
                        let ab = match self.elems_bound(state, arm) {
                            Some(e) => BoundFact::Bounded(e),
                            None => BoundFact::Unbounded,
                        };
                        f.bound = f.bound.join(&ab);
                    }
                }
                vec![f]
            }
        };

        // Catch arity drift: a missing proposal is a bug, not a default.
        debug_assert_eq!(facts.len(), node.outputs.len(), "{}", node.op);
        while facts.len() < node.outputs.len() {
            facts.push(Fact::top(
                graph.tensor(node.outputs[facts.len()]).dtype,
                true,
            ));
        }

        // Dtype guard: taint is an f32-only concept, and bool/u8 ranges are
        // intrinsically clamped.
        for (k, f) in facts.iter_mut().enumerate() {
            let dt = out_dt(k);
            if dt != DType::F32 {
                f.taint = false;
            }
            let clamp = match dt {
                DType::Bool => Some((0.0, 1.0)),
                DType::U8 => Some((0.0, 255.0)),
                _ => None,
            };
            if let Some((lo, hi)) = clamp {
                if !f.range.is_empty() {
                    f.range = Interval::new(f.range.lo.max(lo), f.range.hi.min(hi));
                }
            }
        }
        facts
    }

    fn arm_feasible(&self, state: &AbsState, sel: TensorId, j: usize, n: usize) -> bool {
        arm_feasible(state, sel, j, n)
    }

    fn cast_fact(&self, state: &AbsState, t: TensorId, from: DType, to: DType) -> Fact {
        let a = state.ranges[t.0 as usize];
        let taint = state.taint[t.0 as usize];
        if let Some(v) = state.consts[t.0 as usize].known() {
            if let Some(out) = cast_known(v, from, to) {
                return Fact::known(out);
            }
        }
        if a.is_empty() && !(from == DType::F32 && taint) {
            return Fact::bottom();
        }
        match to {
            DType::F32 => {
                // Widening casts are exact; pad covers i64→f32 rounding.
                Fact::from_num(finalize(a.lo, a.hi, a.max_abs(), taint))
            }
            DType::I64 => {
                if from == DType::F32 && taint {
                    // NaN casts to 0, ±∞ saturate: anything is possible.
                    Fact::top(DType::I64, false)
                } else if from == DType::F32 {
                    Fact::range(a.lo.floor(), a.hi.ceil(), false)
                } else {
                    Fact::range(a.lo, a.hi, false)
                }
            }
            DType::Bool => Fact::range(0.0, 1.0, false),
            DType::U8 => {
                if from == DType::F32 && taint {
                    Fact::range(0.0, 255.0, false)
                } else {
                    Fact::range(
                        a.lo.clamp(0.0, 255.0).floor(),
                        a.hi.clamp(0.0, 255.0).ceil(),
                        false,
                    )
                }
            }
        }
    }

    fn reduce_fact(
        &self,
        state: &AbsState,
        x: TensorId,
        op: ReduceOp,
        axes: &[i64],
        dt: DType,
    ) -> Fact {
        let a = state.ranges[x.0 as usize];
        let taint = state.taint[x.0 as usize];
        // Number of elements folded into each output cell.
        let n = match (self.known_rank(x), self.rdp.shape(x).as_known()) {
            (Some(rk), Some(dims)) => {
                if axes.is_empty() {
                    Some(dims.iter().product::<i64>())
                } else {
                    axes.iter()
                        .map(|&ax| normalize_axis(ax, rk).map(|ax| dims[ax]))
                        .try_fold(1i64, |acc, d| d.map(|d| acc * d))
                }
            }
            _ => None,
        };
        if n == Some(0) {
            // Folding zero elements yields the identity element.
            return match op {
                ReduceOp::Sum => Fact::known(0.0),
                ReduceOp::Prod => Fact::known(1.0),
                // Mean of nothing is 0/0; Max/Min start from ∓∞.
                ReduceOp::Mean | ReduceOp::Max | ReduceOp::Min => Fact {
                    range: Interval::empty(),
                    taint: dt == DType::F32,
                    cst: ConstFact::Varies,
                    bound: BoundFact::Unset,
                },
            };
        }
        if a.is_empty() {
            // All-NaN input: the fold yields NaN (Sum/Mean/Prod) or the
            // ∓∞ fold seed (Max/Min) — never a finite value, but taint
            // must survive the fold.
            return Fact {
                range: Interval::empty(),
                taint: true,
                cst: ConstFact::Varies,
                bound: BoundFact::Unset,
            };
        }
        match (op, n) {
            (ReduceOp::Sum, Some(n)) => {
                let nf = n as f64;
                Fact::from_num(finalize(
                    nf * a.lo,
                    nf * a.hi,
                    acc_scale(nf * a.max_abs(), nf),
                    taint,
                ))
            }
            (ReduceOp::Sum, None) => {
                // Unknown count: sign information survives, overflow may not.
                let lo = if a.lo < 0.0 { f64::NEG_INFINITY } else { 0.0 };
                let hi = if a.hi > 0.0 { f64::INFINITY } else { 0.0 };
                Fact::range(lo, hi, true)
            }
            (ReduceOp::Mean, Some(n)) if n > 0 => Fact::from_num(finalize(
                a.lo,
                a.hi,
                acc_scale(a.max_abs(), n as f64),
                taint,
            )),
            (ReduceOp::Mean, _) => Fact::top(dt, true),
            (ReduceOp::Max | ReduceOp::Min, Some(n)) if n > 0 => Fact {
                range: a,
                taint,
                cst: state.consts[x.0 as usize],
                bound: BoundFact::Unset,
            },
            (ReduceOp::Max | ReduceOp::Min, _) => Fact {
                // Could fold zero elements: the ∓∞ init value escapes.
                range: a,
                taint: true,
                cst: ConstFact::Varies,
                bound: BoundFact::Unset,
            },
            (ReduceOp::Prod, Some(n)) => {
                let m = a.max_abs().max(1.0).powi(n.min(256) as i32);
                if n > 256 {
                    Fact::top(dt, true)
                } else {
                    Fact::from_num(finalize(-m, m, m * 1.01, taint))
                }
            }
            (ReduceOp::Prod, None) => Fact::top(dt, true),
        }
    }

    fn cumsum_fact(&self, state: &AbsState, x: TensorId, axis: i64, dt: DType) -> Fact {
        let a = state.ranges[x.0 as usize];
        if a.is_empty() {
            // All-NaN input: running sums stay NaN; keep the taint.
            return Fact {
                range: Interval::empty(),
                taint: true,
                cst: ConstFact::Varies,
                bound: BoundFact::Unset,
            };
        }
        let taint = state.taint[x.0 as usize];
        let n = self
            .known_rank(x)
            .and_then(|rk| normalize_axis(axis, rk))
            .and_then(|ax| self.axis_extent(x, ax));
        match n {
            Some(n) if n >= 0 => {
                let nf = n as f64;
                Fact::from_num(finalize(
                    (nf * a.lo).min(a.lo),
                    (nf * a.hi).max(a.hi),
                    acc_scale(nf * a.max_abs(), nf),
                    taint,
                ))
            }
            _ => {
                let lo = if a.lo < 0.0 { f64::NEG_INFINITY } else { 0.0 };
                let hi = if a.hi > 0.0 { f64::INFINITY } else { 0.0 };
                let mut f = Fact::range(lo.min(a.lo), hi.max(a.hi), dt == DType::F32);
                f.taint |= taint;
                f
            }
        }
    }

    /// `Gather` output elements = indices-elements × per-index slice size.
    fn gather_bound(
        &self,
        state: &AbsState,
        data: TensorId,
        indices: TensorId,
        axis: i64,
    ) -> BoundFact {
        let idx = match self.elems_bound(state, indices) {
            Some(e) => e,
            None => return BoundFact::Unbounded,
        };
        if let Some(dims) = self.rdp.shape(data).dims() {
            if let Some(ax) = normalize_axis(axis, dims.len()) {
                let mut slice = Some(DimExpr::Const(1));
                for (i, d) in dims.iter().enumerate() {
                    if i == ax {
                        continue;
                    }
                    slice = match (slice, d.as_expr()) {
                        (Some(acc), Some(e)) => Some(DimExpr::mul(acc, e.clone())),
                        _ => None,
                    };
                }
                if let Some(slice) = slice {
                    return BoundFact::Bounded(DimExpr::mul(idx, slice));
                }
            }
        }
        match self.elems_bound(state, data) {
            Some(d) => BoundFact::Bounded(DimExpr::mul(idx, d)),
            None => BoundFact::Unbounded,
        }
    }

    /// `Range(start, limit, delta)`: count is exact when all three are
    /// proven constants.
    fn range_bound(&self, state: &AbsState, ins: &[TensorId]) -> BoundFact {
        let k = |i: usize| state.consts[ins[i].0 as usize].known();
        match (k(0), k(1), k(2)) {
            (Some(start), Some(limit), Some(delta)) if delta != 0.0 => {
                let n = ((limit - start) / delta).ceil().max(0.0);
                if n <= I64_KNOWN_CAP {
                    BoundFact::Bounded(DimExpr::Const(n as i64))
                } else {
                    BoundFact::Unbounded
                }
            }
            _ => BoundFact::Unbounded,
        }
    }
}

/// Whether `Switch`/`Combine` arm `j` can be selected given the selector's
/// facts (the kernel reads the selector's first element and errors on
/// out-of-range values, so only in-range arms execute).
pub fn arm_feasible(state: &AbsState, sel: TensorId, j: usize, n: usize) -> bool {
    if j >= n {
        return false;
    }
    match state.consts[sel.0 as usize] {
        ConstFact::Known(k) => k == j as f64,
        ConstFact::Unset => false,
        ConstFact::Varies => state.ranges[sel.0 as usize].contains(j as f64),
    }
}

/// Accumulation slack: a k-term f32 dot/sum rounds relative to `k · ε ·
/// Σ|terms|`; expressing it through `finalize`'s `REL_SLACK·scale` pad
/// needs the scale inflated by `0.006·k` (= ε/REL_SLACK × k, with margin).
fn acc_scale(b: f64, k: f64) -> f64 {
    b * (1.0 + 0.006 * k)
}

/// Bound for k-term dot products (Conv/MatMul/Gemm): `|out| ≤ k·Mx·Mw + Mb`.
fn dot_fact(k: f64, mx: f64, mw: f64, mb: f64, taint: bool) -> Fact {
    if !k.is_finite() {
        return Fact::top(DType::F32, true);
    }
    let b = k * mx * mw + mb;
    Fact::from_num(finalize(-b, b, acc_scale(b, k), taint))
}

/// LayerNorm/InstanceNorm: `|normalized| ≤ (span + rounding)/√ε`, then
/// scaled and shifted. The `1e-3·Mx` term absorbs mean-rounding for
/// normalization extents up to several thousand.
fn norm_fact(x: Interval, scale: Interval, bias: Interval, epsilon: f32, taint: bool) -> Fact {
    if x.is_empty() {
        return Fact::bottom();
    }
    let eps = epsilon as f64;
    if eps <= 0.0 || taint {
        return Fact::top(DType::F32, true);
    }
    let amp = ((x.span() + 1e-3 * x.max_abs() + 1e-6) * 1.01) / eps.sqrt();
    let b = amp * scale.max_abs() + bias.max_abs();
    Fact::from_num(finalize(-b, b, acc_scale(b, 4096.0), false))
}

/// Replicates the cast kernel's scalar conversion exactly.
fn cast_known(v: f64, from: DType, to: DType) -> Option<f64> {
    let out = match (from, to) {
        (DType::F32, DType::F32) => v,
        (DType::F32, DType::I64) => {
            let x = (v as f32) as i64;
            if (x.unsigned_abs() as f64) > I64_KNOWN_CAP {
                return None;
            }
            x as f64
        }
        (DType::F32, DType::Bool) => f64::from(u8::from(v as f32 != 0.0)),
        (DType::F32, DType::U8) => f64::from((v as f32).clamp(0.0, 255.0) as u8),
        (DType::I64, DType::F32) => ((v as i64) as f32) as f64,
        (DType::I64, DType::I64) => v,
        (DType::I64, DType::Bool) => f64::from(u8::from(v as i64 != 0)),
        (DType::I64, DType::U8) => f64::from((v as i64).clamp(0, 255) as u8),
        (DType::Bool | DType::U8, _) => {
            // Small non-negative integers convert exactly everywhere.
            match to {
                DType::Bool => f64::from(u8::from(v != 0.0)),
                _ => v,
            }
        }
    };
    Some(out)
}

impl System for AbsintSystem<'_> {
    type State = AbsState;

    fn initial(&mut self, graph: &Graph) -> AbsState {
        let n = graph.num_tensors();
        self.widen_range = vec![0; n];
        self.widen_bound = vec![0; n];
        let mut state = AbsState {
            ranges: vec![Interval::empty(); n],
            taint: vec![false; n],
            consts: vec![ConstFact::Unset; n],
            bounds: vec![BoundFact::Unset; n],
        };
        for t in graph.tensor_ids() {
            let i = t.0 as usize;
            let info = graph.tensor(t);
            if let Some(data) = &info.const_data {
                let f = const_fact(data);
                state.ranges[i] = f.range;
                state.taint[i] = f.taint;
                state.consts[i] = f.cst;
            } else if graph.inputs().contains(&t) {
                // Finite-inputs premise: the executor's input fence rejects
                // non-finite feeds whenever guard elision is in play.
                let f = Fact::top(info.dtype, false);
                state.ranges[i] = f.range;
                state.consts[i] = ConstFact::Varies;
            }
        }
        state
    }

    fn relax(&mut self, graph: &Graph, nid: NodeId, state: &mut AbsState) -> bool {
        let facts = self.propose(graph, state, nid);
        let mut changed = false;
        for (&t, f) in graph.node(nid).outputs.iter().zip(facts) {
            changed |= self.install(state, t, f);
        }
        changed
    }

    fn take_violations(&mut self) -> Vec<String> {
        std::mem::take(&mut self.violations)
    }
}

/// The range join `install` applies. Unit tests can swap in a broken join
/// that drops the old range, to check that the write-site audit reports
/// the descent.
fn join_range(old: &Interval, new: &Interval) -> Interval {
    #[cfg(test)]
    if tests::BROKEN_JOIN.with(std::cell::Cell::get) {
        return *new;
    }
    old.join(new)
}

/// Seed facts for a constant tensor's payload.
fn const_fact(data: &sod2_ir::ConstData) -> Fact {
    use sod2_ir::ConstData;
    let mut f = Fact::bottom();
    match data {
        ConstData::F32(v) => {
            let mut all_eq = true;
            let mut first: Option<f32> = None;
            for &x in v {
                match first {
                    None => first = Some(x),
                    Some(p) if p.to_bits() != x.to_bits() => all_eq = false,
                    _ => {}
                }
                if x.is_finite() {
                    f.range = f.range.join(&Interval::point(x as f64));
                } else {
                    f.taint = true;
                }
            }
            f.cst = match first {
                Some(x) if all_eq && x.is_finite() => ConstFact::Known(x as f64),
                Some(_) => ConstFact::Varies,
                None => ConstFact::Unset,
            };
        }
        ConstData::I64(v) => {
            // `as f64` is monotone, so i64-domain min/max convert to sound
            // f64 bounds even past the exact-integer limit.
            if let (Some(&mn), Some(&mx)) = (v.iter().min(), v.iter().max()) {
                f.range = Interval::new(mn as f64, mx as f64);
            }
            f.cst = match v.split_first() {
                Some((&x, rest))
                    if rest.iter().all(|&y| y == x)
                        && (x.unsigned_abs() as f64) <= I64_KNOWN_CAP =>
                {
                    ConstFact::Known(x as f64)
                }
                Some(_) => ConstFact::Varies,
                None => ConstFact::Unset,
            };
        }
        ConstData::Bool(v) => {
            for &x in v {
                f.range = f.range.join(&Interval::point(f64::from(u8::from(x))));
            }
            f.cst = match v.split_first() {
                Some((&x, rest)) if rest.iter().all(|&y| y == x) => {
                    ConstFact::Known(f64::from(u8::from(x)))
                }
                Some(_) => ConstFact::Varies,
                None => ConstFact::Unset,
            };
        }
        ConstData::U8(v) => {
            for &x in v {
                f.range = f.range.join(&Interval::point(f64::from(x)));
            }
            f.cst = match v.split_first() {
                Some((&x, rest)) if rest.iter().all(|&y| y == x) => ConstFact::Known(f64::from(x)),
                Some(_) => ConstFact::Varies,
                None => ConstFact::Unset,
            };
        }
    }
    f
}

/// Runs the abstract interpretation to its fixpoint (the termination
/// audit's findings land in the stats' `violations`).
pub fn run_absint(graph: &Graph, rdp: &RdpResult) -> (AbsState, FixpointStats) {
    let mut sys = AbsintSystem::new(rdp);
    let opts = FixpointOptions {
        strategy: Strategy::Worklist,
        max_iterations: 10_000 + 200 * graph.num_tensors(),
        label: "absint",
    };
    sod2_rdp::fixpoint::solve(graph, &mut sys, &opts)
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::absint::certify;
    use sod2_ir::{DType, Graph, Op, TensorId, UnaryOp};
    use sod2_sym::ShapeValue;
    use std::cell::Cell;

    thread_local! {
        /// Makes `install` overwrite a tensor's range with the handed one
        /// instead of joining the two.
        pub(crate) static BROKEN_JOIN: Cell<bool> = const { Cell::new(false) };
    }

    /// `y = Sigmoid(x)` where `y` is also declared a graph input, so it is
    /// seeded at ⊤ before its producer's relaxation writes it.
    fn seeded_output_graph() -> Graph {
        let f32x4 = || ("t".to_string(), DType::F32, ShapeValue::known(&[4]), None);
        Graph::from_parts(
            vec![f32x4(), f32x4()],
            vec![(
                "sigmoid".to_string(),
                Op::Unary(UnaryOp::Sigmoid),
                vec![TensorId(0)],
                vec![TensorId(1)],
            )],
            vec![TensorId(0), TensorId(1)],
            vec![TensorId(1)],
        )
        .expect("well-formed parts")
    }

    #[test]
    fn certify_reports_a_descending_install() {
        let g = seeded_output_graph();
        let rdp = sod2_rdp::analyze(&g);
        // The real join keeps ⊤: nothing moves down, nothing is reported.
        let (certs, report) = certify(&g, &rdp);
        assert!(certs.stats.violations.is_empty(), "{:?}", certs.stats);
        assert!(!report.has_code("absint/non-monotone-transfer"));

        BROKEN_JOIN.with(|b| b.set(true));
        let (certs, report) = certify(&g, &rdp);
        BROKEN_JOIN.with(|b| b.set(false));
        assert!(
            certs
                .stats
                .violations
                .iter()
                .any(|v| v.starts_with("tensor 1: range narrowed")),
            "{:?}",
            certs.stats.violations
        );
        assert!(
            report.has_code("absint/non-monotone-transfer"),
            "{}",
            report.render_text(Some(&g))
        );
    }
}
