//! The DP cell type every kernel is written over.
//!
//! Zhang–Shasha, `∆L`/`∆R`, `∆I`, the bounded kernel, GTED's `D` and the
//! mapping backtrace are each one generic routine over [`Cell`],
//! instantiated twice:
//!
//! * `u32`, counted in cost units, when the cost model names a dyadic
//!   unit ([`CostModel::unit`]) and the pair's total cost in units fits
//!   under [`FIT`]; half the bytes and about half the time per cell;
//! * `f64`, the model's own values, in every other case.
//!
//! [`integer_unit`] makes that choice, once per call, and [`with_cells!`]
//! runs a body under the chosen type. Under a dyadic unit every f64
//! partial sum of these DPs is exact (each is an integer of at most
//! 2^29 units times a power of two), so both instantiations compute the
//! same values, and conversions happen only at the public boundary.

use crate::cost::CostModel;
use crate::workspace::{Bufs, Workspace};
use rted_tree::Tree;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Sub};

/// The largest pair total, Σ delete costs of F + Σ insert costs of G in
/// units, that the integer path takes. Every DP value is a forest
/// distance, at most that total, so a cell plus any one cost stays below
/// the `u32` +∞ (2³¹ − 1) and two +∞ sum below 2³².
pub(crate) const FIT: f64 = (1u32 << 28) as f64;

/// Costs above this many units (only renames can be) convert to it: a
/// rename dearer than every deletion and insertion of the pair together
/// never wins a `min`, so the values are the same as uncapped.
const COST_CAP: f64 = FIT + 1.0;

/// The smallest unit the integer path takes. The f64 backtrace compares
/// with a relative tolerance of 10⁻⁹ (`mapping.rs`); at or above this
/// unit, and under [`FIT`], that tolerance is below one unit, so it
/// decides exactly as the integer path's `==`.
const MIN_UNIT: f64 = 1.0 / (1u32 << 24) as f64;

/// One DP cell: a forest distance, `+∞` where no derivation reaches.
pub(crate) trait Cell:
    Copy + PartialOrd + Add<Output = Self> + AddAssign + Sub<Output = Self> + Default + Debug + 'static
{
    const ZERO: Self;
    /// The value of a cell no derivation reaches.
    const INF: Self;
    /// Prefill of `D` entries not yet computed (checked in debug builds).
    const UNSET: Self;

    fn min(self, other: Self) -> Self;
    /// Clamps a sum involving `+∞` back to `+∞` (identity on `f64`, where
    /// `+∞` absorbs).
    fn cap(self) -> Self;
    /// A cost of the model as a cell; `inv` is `1 / unit`.
    fn of(cost: f64, inv: f64) -> Self;
    /// A cell in the model's terms; `unit` is the cell's unit.
    fn real(self, unit: f64) -> f64;
    /// Whether a `D` entry was never written.
    fn is_unset(self) -> bool;
    /// Whether the backtrace treats `a` and `b` as the same value.
    fn tie(a: Self, b: Self) -> bool;
    /// The workspace's buffers of this cell type.
    fn bufs(ws: &mut Workspace) -> &mut Bufs<Self>;
}

impl Cell for f64 {
    const ZERO: f64 = 0.0;
    const INF: f64 = f64::INFINITY;
    const UNSET: f64 = f64::NAN;

    #[inline(always)]
    fn min(self, other: f64) -> f64 {
        f64::min(self, other)
    }
    #[inline(always)]
    fn cap(self) -> f64 {
        self
    }
    #[inline(always)]
    fn of(cost: f64, _inv: f64) -> f64 {
        cost
    }
    #[inline(always)]
    fn real(self, _unit: f64) -> f64 {
        self
    }
    #[inline(always)]
    fn is_unset(self) -> bool {
        self.is_nan()
    }
    /// Exact for integer-valued costs, tolerant for general f64 costs.
    #[inline]
    fn tie(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }
    #[inline(always)]
    fn bufs(ws: &mut Workspace) -> &mut Bufs<f64> {
        &mut ws.wide
    }
}

impl Cell for u32 {
    const ZERO: u32 = 0;
    const INF: u32 = u32::MAX / 2;
    const UNSET: u32 = u32::MAX;

    #[inline(always)]
    fn min(self, other: u32) -> u32 {
        Ord::min(self, other)
    }
    #[inline(always)]
    fn cap(self) -> u32 {
        Ord::min(self, Self::INF)
    }
    #[inline(always)]
    fn of(cost: f64, inv: f64) -> u32 {
        let units = cost * inv;
        debug_assert!(
            units.fract() == 0.0,
            "cost {cost} is not a whole number of units"
        );
        units.min(COST_CAP) as u32
    }
    #[inline(always)]
    fn real(self, unit: f64) -> f64 {
        if self >= Self::INF {
            f64::INFINITY
        } else {
            f64::from(self) * unit
        }
    }
    #[inline(always)]
    fn is_unset(self) -> bool {
        self == Self::UNSET
    }
    #[inline(always)]
    fn tie(a: u32, b: u32) -> bool {
        a == b
    }
    #[inline(always)]
    fn bufs(ws: &mut Workspace) -> &mut Bufs<u32> {
        &mut ws.narrow
    }
}

/// How one call's cells relate to the model's costs: `f64` cells are the
/// costs, `u32` cells count `unit`s.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scale<T> {
    unit: f64,
    inv: f64,
    cell: PhantomData<T>,
}

impl Scale<f64> {
    pub(crate) const REAL: Scale<f64> = Scale {
        unit: 1.0,
        inv: 1.0,
        cell: PhantomData,
    };
}

impl Scale<u32> {
    /// Cells counting `unit`s, a power of two (from [`integer_unit`]).
    pub(crate) fn units(unit: f64) -> Scale<u32> {
        Scale {
            unit,
            inv: 1.0 / unit,
            cell: PhantomData,
        }
    }
}

impl<T: Cell> Scale<T> {
    /// A cost of the model as a cell.
    #[inline(always)]
    pub(crate) fn cell(self, cost: f64) -> T {
        T::of(cost, self.inv)
    }

    /// A cell as a cost of the model.
    #[inline(always)]
    pub(crate) fn real(self, x: T) -> f64 {
        x.real(self.unit)
    }
}

/// The unit the pair `(f, g)` runs on `u32` cells with under `cm`, or
/// `None` for `f64` cells: the one place the cell type is chosen.
///
/// Integer cells need [`CostModel::unit`] to name a power of two no
/// smaller than 2⁻²⁴ and the pair's total, Σ delete costs of `f` + Σ
/// insert costs of `g`, to be at most [`FIT`] units. Every DP value is a
/// forest distance, at most that total, so it never reaches the `u32`
/// sentinel; and each one is then exact in f64 too, so the two paths
/// agree bit for bit.
pub(crate) fn integer_unit<L, C: CostModel<L>>(f: &Tree<L>, g: &Tree<L>, cm: &C) -> Option<f64> {
    let unit = cm.unit()?;
    let power_of_two = unit.is_normal() && unit > 0.0 && unit.to_bits() << 12 == 0;
    if !power_of_two || unit < MIN_UNIT {
        return None;
    }
    let del: f64 = f.nodes().map(|v| cm.delete(f.label(v))).sum();
    let ins: f64 = g.nodes().map(|w| cm.insert(g.label(w))).sum();
    // NaN fails the comparison too.
    ((del + ins) / unit <= FIT).then_some(unit)
}

/// Runs `$body` with `$sc` bound to the [`Scale`] of the cell type
/// [`integer_unit`] picks for `($f, $g)` under `$cm`: the body is
/// compiled once per cell type and must infer it from `$sc`.
macro_rules! with_cells {
    ($f:expr, $g:expr, $cm:expr, |$sc:ident| $body:expr) => {
        match $crate::cell::integer_unit($f, $g, $cm) {
            Some(unit) => {
                let $sc = $crate::cell::Scale::<u32>::units(unit);
                $body
            }
            None => {
                let $sc = $crate::cell::Scale::<f64>::REAL;
                $body
            }
        }
    };
}
pub(crate) use with_cells;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{FnCost, PerLabelCost, UnitCost};
    use rted_tree::parse_bracket;

    #[test]
    fn unit_picks_integer_cells_only_when_the_total_fits() {
        let t = parse_bracket("{a{b}{c}}").unwrap();
        assert_eq!(integer_unit(&t, &t, &UnitCost), Some(1.0));
        let asym = PerLabelCost::new(1.5, 2.0, 0.75);
        assert_eq!(integer_unit(&t, &t, &asym), Some(0.25));
        // No dyadic unit: 0.1 needs 2⁻⁵⁵, far below the smallest unit.
        assert_eq!(
            integer_unit(&t, &t, &PerLabelCost::new(0.1, 0.2, 0.3)),
            None
        );
        // Three deletes of 2²⁷ units overflow 2²⁸; one does not.
        let big = (1u64 << 27) as f64;
        assert_eq!(
            integer_unit(&t, &t, &PerLabelCost::new(big, 1.0, 1.0)),
            None
        );
        let one = parse_bracket("{a}").unwrap();
        assert_eq!(
            integer_unit(&one, &one, &PerLabelCost::new(big, 1.0, 1.0)),
            Some(1.0)
        );
        // A closure model names no unit.
        let fns = FnCost {
            del: |_: &String| 1.0,
            ins: |_: &String| 1.0,
            ren: |a: &String, b: &String| f64::from(u8::from(a != b)),
        };
        assert_eq!(integer_unit(&t, &t, &fns), None);
    }

    #[test]
    fn u32_cells_convert_at_the_boundary() {
        let sc = Scale::<u32>::units(0.25);
        assert_eq!(sc.cell(1.5), 6);
        assert_eq!(sc.real(6), 1.5);
        assert_eq!(sc.real(u32::INF), f64::INFINITY);
        assert_eq!(sc.cell(1e300), COST_CAP as u32);
        assert_eq!((u32::INF + u32::INF).cap(), u32::INF);
        let real = Scale::<f64>::REAL;
        assert_eq!(real.cell(0.1), 0.1);
        assert_eq!(real.real(0.1), 0.1);
    }
}
