//! Edit operation cost models (§2.2 of the paper).
//!
//! The tree edit distance is parameterized by three per-node costs:
//! `cd(v)` for deleting node `v`, `ci(w)` for inserting node `w`, and
//! `cr(v, w)` for renaming `v`'s label into `w`'s. A [`CostModel`] supplies
//! these as functions of the labels. Costs must be non-negative, and for the
//! distance to be sensible `rename(a, a)` should be 0.
//!
//! # Units
//!
//! A model may name a *dyadic unit* with [`CostModel::unit`]: a power of
//! two `u` such that every cost it returns is a whole multiple of `u`.
//! Every kernel then runs on `u32` cells counting units, which takes half
//! the memory and about half the time per DP cell of `f64` cells, as long
//! as the pair's total cost (all deletions of the first tree plus all
//! insertions of the second) is at most 2²⁸ units and `u ≥ 2⁻²⁴`. The
//! answers are the same bits either way: a sum of whole multiples of a
//! power of two that small is exact in f64 too. A model without a unit,
//! such as costs of 0.1 (whose smallest power-of-two divisor is 2⁻⁵⁵),
//! stays on `f64` cells, because no integer count of a common unit
//! holds its costs, and f64 sums of them round.

use crate::cell::{Cell, Scale};
use rted_tree::Tree;

/// Supplies the three edit operation costs as functions of node labels.
pub trait CostModel<L> {
    /// Cost of deleting a node labeled `label`.
    fn delete(&self, label: &L) -> f64;
    /// Cost of inserting a node labeled `label`.
    fn insert(&self, label: &L) -> f64;
    /// Cost of renaming a node labeled `from` into label `to`.
    fn rename(&self, from: &L, to: &L) -> f64;

    /// The model's dyadic unit, if it has one: a power of two of which
    /// every cost the model returns is a whole multiple (see the
    /// [module docs](self#units)). `None`, the default, keeps every kernel
    /// on `f64` cells; a unit that some cost is not a multiple of gives
    /// wrong distances.
    fn unit(&self) -> Option<f64> {
        None
    }
}

impl<L, C: CostModel<L> + ?Sized> CostModel<L> for &C {
    #[inline]
    fn delete(&self, label: &L) -> f64 {
        (**self).delete(label)
    }
    #[inline]
    fn insert(&self, label: &L) -> f64 {
        (**self).insert(label)
    }
    #[inline]
    fn rename(&self, from: &L, to: &L) -> f64 {
        (**self).rename(from, to)
    }
    #[inline]
    fn unit(&self) -> Option<f64> {
        (**self).unit()
    }
}

/// The unit cost model used throughout the paper's evaluation: every delete
/// and insert costs 1, a rename costs 1 unless the labels are equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCost;

impl<L: PartialEq> CostModel<L> for UnitCost {
    #[inline]
    fn delete(&self, _label: &L) -> f64 {
        1.0
    }
    #[inline]
    fn insert(&self, _label: &L) -> f64 {
        1.0
    }
    #[inline]
    fn rename(&self, from: &L, to: &L) -> f64 {
        if from == to {
            0.0
        } else {
            1.0
        }
    }
    #[inline]
    fn unit(&self) -> Option<f64> {
        Some(1.0)
    }
}

/// A weighted cost model with uniform per-operation weights: deletes cost
/// `del`, inserts `ins`, renames of distinct labels `ren` (equal labels are
/// free). Useful for asymmetric edit models (e.g. making structure removal
/// cheaper than insertion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLabelCost {
    /// Cost of every delete.
    pub del: f64,
    /// Cost of every insert.
    pub ins: f64,
    /// Cost of renaming two distinct labels.
    pub ren: f64,
}

impl PerLabelCost {
    /// Creates a weighted model; all weights must be non-negative.
    pub fn new(del: f64, ins: f64, ren: f64) -> Self {
        assert!(
            del >= 0.0 && ins >= 0.0 && ren >= 0.0,
            "costs must be non-negative"
        );
        PerLabelCost { del, ins, ren }
    }
}

impl<L: PartialEq> CostModel<L> for PerLabelCost {
    #[inline]
    fn delete(&self, _label: &L) -> f64 {
        self.del
    }
    #[inline]
    fn insert(&self, _label: &L) -> f64 {
        self.ins
    }
    #[inline]
    fn rename(&self, from: &L, to: &L) -> f64 {
        if from == to {
            0.0
        } else {
            self.ren
        }
    }

    /// The largest power of two dividing all three weights: 0.25 for
    /// `1.5, 2.0, 0.75`. `None` when a weight is not finite or only a
    /// subnormal power of two divides it.
    fn unit(&self) -> Option<f64> {
        let mut low = i32::MAX;
        for w in [self.del, self.ins, self.ren] {
            if !w.is_finite() {
                return None;
            }
            if w == 0.0 {
                continue;
            }
            // `w` is `m · 2^(e − 1075)` with a 53-bit `m` (52 for subnormals).
            let bits = w.to_bits();
            let exp = ((bits >> 52) & 0x7ff) as i32;
            let frac = bits & ((1 << 52) - 1);
            let (m, e) = if exp == 0 {
                (frac, 1)
            } else {
                (frac | 1 << 52, exp)
            };
            low = low.min(m.trailing_zeros() as i32 + e - 1075);
        }
        match low {
            i32::MAX => Some(1.0),
            -1022..=1023 => Some(f64::from_bits(((low + 1023) as u64) << 52)),
            _ => None,
        }
    }
}

/// A cost model defined by three closures (handy in tests and examples).
#[derive(Clone)]
pub struct FnCost<D, I, R> {
    /// Delete cost function.
    pub del: D,
    /// Insert cost function.
    pub ins: I,
    /// Rename cost function.
    pub ren: R,
}

impl<L, D, I, R> CostModel<L> for FnCost<D, I, R>
where
    D: Fn(&L) -> f64,
    I: Fn(&L) -> f64,
    R: Fn(&L, &L) -> f64,
{
    #[inline]
    fn delete(&self, label: &L) -> f64 {
        (self.del)(label)
    }
    #[inline]
    fn insert(&self, label: &L) -> f64 {
        (self.ins)(label)
    }
    #[inline]
    fn rename(&self, from: &L, to: &L) -> f64 {
        (self.ren)(from, to)
    }
}

/// Per-node cost tables for one tree under a cost model, plus subtree
/// aggregates, in the call's cells, snapshotted once so the DP hot loops
/// never call back into the model for delete/insert costs.
#[derive(Debug, Clone, Default)]
pub(crate) struct CostTables<T> {
    /// Delete cost per node.
    pub del: Vec<T>,
    /// Insert cost per node.
    pub ins: Vec<T>,
    /// Sum of delete costs over each node's subtree.
    pub sub_del: Vec<T>,
    /// Sum of insert costs over each node's subtree.
    pub sub_ins: Vec<T>,
}

impl<T: Cell> CostTables<T> {
    /// Recomputes the tables for `tree` in place, reusing capacity (no
    /// allocation once the arrays are large enough).
    pub(crate) fn rebuild<L, C: CostModel<L>>(&mut self, tree: &Tree<L>, cm: &C, sc: Scale<T>) {
        let n = tree.len();
        self.del.clear();
        self.ins.clear();
        self.sub_del.clear();
        self.sub_del.resize(n, T::ZERO);
        self.sub_ins.clear();
        self.sub_ins.resize(n, T::ZERO);
        for v in tree.nodes() {
            let d = cm.delete(tree.label(v));
            let i = cm.insert(tree.label(v));
            assert!(d >= 0.0 && i >= 0.0, "edit costs must be non-negative");
            let (d, i) = (sc.cell(d), sc.cell(i));
            self.del.push(d);
            self.ins.push(i);
            let mut sd = d;
            let mut si = i;
            for c in tree.children(v) {
                sd += self.sub_del[c.idx()];
                si += self.sub_ins[c.idx()];
            }
            self.sub_del[v.idx()] = sd;
            self.sub_ins[v.idx()] = si;
        }
    }

    /// Bytes the tables hold.
    pub(crate) fn capacity_bytes(&self) -> usize {
        crate::workspace::bytes(&self.del)
            + crate::workspace::bytes(&self.ins)
            + crate::workspace::bytes(&self.sub_del)
            + crate::workspace::bytes(&self.sub_ins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rted_tree::parse_bracket;

    #[test]
    fn unit_cost_values() {
        let c = UnitCost;
        assert_eq!(CostModel::<&str>::delete(&c, &"a"), 1.0);
        assert_eq!(c.rename(&"a", &"a"), 0.0);
        assert_eq!(c.rename(&"a", &"b"), 1.0);
    }

    #[test]
    fn tables_aggregate_subtrees() {
        let t = parse_bracket("{a{b}{c{d}}}").unwrap();
        let mut tab = CostTables::default();
        tab.rebuild(&t, &UnitCost, Scale::<f64>::REAL);
        let root = t.root();
        assert_eq!(tab.sub_del[root.idx()], 4.0);
        assert_eq!(tab.sub_ins[root.idx()], 4.0);
        // subtree c{d} has two nodes
        assert_eq!(tab.sub_del[2], 2.0);
    }

    #[test]
    fn weighted_model() {
        let c = PerLabelCost::new(2.0, 3.0, 0.5);
        assert_eq!(CostModel::<&str>::delete(&c, &"x"), 2.0);
        assert_eq!(CostModel::<&str>::insert(&c, &"x"), 3.0);
        assert_eq!(c.rename(&"x", &"y"), 0.5);
        assert_eq!(c.rename(&"x", &"x"), 0.0);
    }

    #[test]
    fn per_label_unit_is_the_largest_common_power_of_two() {
        let unit = |d, i, r| CostModel::<&str>::unit(&PerLabelCost::new(d, i, r));
        assert_eq!(unit(1.5, 2.0, 0.75), Some(0.25));
        assert_eq!(unit(1.0, 1.0, 1.0), Some(1.0));
        assert_eq!(unit(4.0, 8.0, 0.0), Some(4.0));
        assert_eq!(unit(0.0, 0.0, 0.0), Some(1.0));
        assert_eq!(unit(0.1, 0.2, 0.3), Some(2f64.powi(-55)));
        assert_eq!(unit(1.0, f64::INFINITY, 1.0), None);
        assert_eq!(unit(1.0, 5e-324, 1.0), None);
        assert_eq!(CostModel::<&str>::unit(&UnitCost), Some(1.0));
    }

    #[test]
    #[should_panic]
    fn negative_costs_rejected() {
        PerLabelCost::new(-1.0, 1.0, 1.0);
    }
}
