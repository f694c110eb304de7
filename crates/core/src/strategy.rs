//! LRH path strategies: the cost formula (Fig. 5) and the O(n²)
//! `OptStrategy` algorithm (Algorithm 2), generalized over a pluggable
//! [`Chooser`].
//!
//! The paper's cost formula counts, for any LRH strategy, the exact number
//! of relevant subproblems GTED computes. `OptStrategy` evaluates the
//! formula bottom-up over all subtree pairs, keeping running cost sums in
//! six arrays so each pair costs O(1). Plugging a constant chooser into the
//! same engine evaluates the formula for a **fixed** strategy instead of the
//! minimum — which is how the benchmark harness obtains the analytic
//! subproblem counts of Zhang-L/R, Klein-H and Demaine-H (Fig. 8,
//! Tables 1–2 of the paper).

use crate::workspace::{Workspace, NO_ROW};
use rted_tree::{NodeId, PathKind, Tree};

/// Which input tree a chosen root-leaf path lies in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The path decomposes the left-hand tree `F`.
    F,
    /// The path decomposes the right-hand tree `G`.
    G,
}

/// One strategy decision: decompose `side` along its `kind` root-leaf path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathChoice {
    /// Tree to decompose.
    pub side: Side,
    /// Path family.
    pub kind: PathKind,
}

impl PathChoice {
    /// Option order used throughout: FL, GL, FR, GR, FH, GH.
    pub const ALL: [PathChoice; 6] = [
        PathChoice {
            side: Side::F,
            kind: PathKind::Left,
        },
        PathChoice {
            side: Side::G,
            kind: PathKind::Left,
        },
        PathChoice {
            side: Side::F,
            kind: PathKind::Right,
        },
        PathChoice {
            side: Side::G,
            kind: PathKind::Right,
        },
        PathChoice {
            side: Side::F,
            kind: PathKind::Heavy,
        },
        PathChoice {
            side: Side::G,
            kind: PathKind::Heavy,
        },
    ];

    /// Compact encoding (index into [`PathChoice::ALL`]).
    #[inline]
    pub fn code(self) -> u8 {
        let k = match self.kind {
            PathKind::Left => 0,
            PathKind::Right => 2,
            PathKind::Heavy => 4,
        };
        k + match self.side {
            Side::F => 0,
            Side::G => 1,
        }
    }

    /// Inverse of [`PathChoice::code`].
    #[inline]
    pub fn from_code(code: u8) -> Self {
        PathChoice::ALL[code as usize]
    }
}

impl std::fmt::Display for PathChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let side = match self.side {
            Side::F => "F",
            Side::G => "G",
        };
        write!(f, "{}:{}", side, self.kind)
    }
}

/// Selects one of the six LRH options for a subtree pair given their exact
/// costs (number of relevant subproblems).
///
/// Cost array order: `[FL, GL, FR, GR, FH, GH]` (see [`PathChoice::ALL`]).
pub trait Chooser {
    /// Returns the code of the chosen option.
    fn pick(&self, size_f: u32, size_g: u32, costs: &[u64; 6]) -> u8;
}

/// The RTED chooser: minimal cost, ties broken in `ALL` order (left/right
/// paths are preferred on ties because their single-path function computes
/// no superfluous subproblems).
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimalChooser;

impl Chooser for OptimalChooser {
    #[inline]
    fn pick(&self, _sf: u32, _sg: u32, costs: &[u64; 6]) -> u8 {
        let mut best = 0u8;
        for i in 1..6 {
            if costs[i as usize] < costs[best as usize] {
                best = i;
            }
        }
        best
    }
}

/// A constant chooser: Zhang-L is `FixedChooser(F, Left)`, Zhang-R is
/// `(F, Right)`, Klein-H is `(F, Heavy)`.
#[derive(Debug, Clone, Copy)]
pub struct FixedChooser(pub PathChoice);

impl Chooser for FixedChooser {
    #[inline]
    fn pick(&self, _sf: u32, _sg: u32, _costs: &[u64; 6]) -> u8 {
        self.0.code()
    }
}

/// The Demaine et al. chooser: heavy path in the larger tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct DemaineChooser;

impl Chooser for DemaineChooser {
    #[inline]
    fn pick(&self, sf: u32, sg: u32, _costs: &[u64; 6]) -> u8 {
        if sf >= sg {
            PathChoice {
                side: Side::F,
                kind: PathKind::Heavy,
            }
            .code()
        } else {
            PathChoice {
                side: Side::G,
                kind: PathKind::Heavy,
            }
            .code()
        }
    }
}

/// Ablation chooser: optimal over a *subset* of the six LRH options.
///
/// Quantifies how much of RTED's advantage each path family contributes
/// (see DESIGN.md's ablation index and the `ablation` benchmark binary):
/// e.g. `SubsetChooser::lr_only()` is the best strategy an algorithm
/// without heavy paths could achieve, and `SubsetChooser::heavy_only()`
/// the best pure-heavy strategy (a per-pair-adaptive Demaine).
#[derive(Debug, Clone, Copy)]
pub struct SubsetChooser {
    /// `allowed[code]` marks option `code` (see [`PathChoice::ALL`]) usable.
    pub allowed: [bool; 6],
}

impl SubsetChooser {
    /// Optimal over left and right paths only (no `∆I` / heavy machinery).
    pub fn lr_only() -> Self {
        SubsetChooser {
            allowed: [true, true, true, true, false, false],
        }
    }

    /// Optimal over heavy paths only (adaptive side choice).
    pub fn heavy_only() -> Self {
        SubsetChooser {
            allowed: [false, false, false, false, true, true],
        }
    }

    /// Optimal over left paths only (adaptive Zhang side).
    pub fn left_only() -> Self {
        SubsetChooser {
            allowed: [true, true, false, false, false, false],
        }
    }

    /// Optimal over strategies that only decompose the first tree
    /// (single-tree strategies à la Dulucq & Touzet).
    pub fn f_side_only() -> Self {
        SubsetChooser {
            allowed: [true, false, true, false, true, false],
        }
    }
}

impl Chooser for SubsetChooser {
    #[inline]
    fn pick(&self, _sf: u32, _sg: u32, costs: &[u64; 6]) -> u8 {
        let mut best: Option<u8> = None;
        for i in 0..6u8 {
            // `map_or`, not `is_none_or`: the latter is stable only since
            // 1.82, above the workspace MSRV.
            if self.allowed[i as usize]
                && best.map_or(true, |b| costs[i as usize] < costs[b as usize])
            {
                best = Some(i);
            }
        }
        best.expect("SubsetChooser needs at least one allowed option")
    }
}

/// A computed path strategy: one [`PathChoice`] per subtree pair, plus the
/// exact number of relevant subproblems GTED will compute under it.
#[derive(Debug, Clone)]
pub struct Strategy {
    ng: usize,
    choices: Vec<u8>,
    /// Exact number of relevant subproblems of GTED under this strategy
    /// (the root value of the Fig.-5 cost recursion).
    pub cost: u64,
}

impl Strategy {
    /// The decision for subtree pair `(F_v, G_w)`.
    #[inline]
    pub fn choice(&self, v: NodeId, w: NodeId) -> PathChoice {
        PathChoice::from_code(self.choices[v.idx() * self.ng + w.idx()])
    }

    /// Surrenders the choice matrix so a [`Workspace`] can reuse its
    /// allocation (see [`Workspace::recycle`]).
    pub(crate) fn into_choices(self) -> Vec<u8> {
        self.choices
    }
}

/// Supplies GTED's per-pair decision. Implemented by precomputed
/// [`Strategy`] matrices, by a constant [`PathChoice`] (Zhang, Klein), and
/// by [`DemaineHeavy`].
pub trait StrategyProvider<L> {
    /// The decision for the pair of subtrees rooted at `v` (in `f`) and `w`
    /// (in `g`).
    fn choose(&self, f: &Tree<L>, g: &Tree<L>, v: NodeId, w: NodeId) -> PathChoice;
}

impl<L> StrategyProvider<L> for Strategy {
    #[inline]
    fn choose(&self, _f: &Tree<L>, _g: &Tree<L>, v: NodeId, w: NodeId) -> PathChoice {
        self.choice(v, w)
    }
}

impl<L> StrategyProvider<L> for PathChoice {
    #[inline]
    fn choose(&self, _f: &Tree<L>, _g: &Tree<L>, _v: NodeId, _w: NodeId) -> PathChoice {
        *self
    }
}

/// The strategy of Demaine et al.: heavy path in the larger subtree.
#[derive(Debug, Clone, Copy, Default)]
pub struct DemaineHeavy;

impl<L> StrategyProvider<L> for DemaineHeavy {
    #[inline]
    fn choose(&self, f: &Tree<L>, g: &Tree<L>, v: NodeId, w: NodeId) -> PathChoice {
        if f.size(v) >= g.size(w) {
            PathChoice {
                side: Side::F,
                kind: PathKind::Heavy,
            }
        } else {
            PathChoice {
                side: Side::G,
                kind: PathKind::Heavy,
            }
        }
    }
}

/// Child-role flags (is this node the leftmost / rightmost / heavy child
/// of its parent?), so the accumulator update is branch-cheap.
fn child_roles_into<L>(t: &Tree<L>, roles: &mut Vec<u8>) {
    roles.clear();
    roles.resize(t.len(), 0);
    for p in t.nodes() {
        let deg = t.degree(p);
        for (i, c) in t.children(p).enumerate() {
            let mut r = 0u8;
            if i == 0 {
                r |= 1; // leftmost
            }
            if i == deg - 1 {
                r |= 2; // rightmost
            }
            roles[c.idx()] = r;
        }
        if let Some(h) = t.heavy_child(p) {
            roles[h.idx()] |= 4;
        }
    }
}

/// Takes a zeroed interleaved row of `len` words from the pool. `width`
/// is the workspace's high-water row width: recycled rows were pre-grown
/// to it (see `compute_strategy_in`), and new rows are born with it, so
/// a warm pool never reallocates here regardless of which slot surfaces.
fn acquire_row(rows: &mut Vec<Vec<u64>>, free: &mut Vec<u32>, len: usize, width: usize) -> u32 {
    match free.pop() {
        Some(slot) => {
            let row = &mut rows[slot as usize];
            row.clear();
            row.resize(len, 0);
            slot
        }
        None => {
            let mut row = Vec::with_capacity(width);
            row.resize(len, 0);
            rows.push(row);
            (rows.len() - 1) as u32
        }
    }
}

/// Algorithm 2 (`OptStrategy`), generalized: evaluates the Fig.-5 cost
/// recursion bottom-up for every pair of subtrees, letting `chooser` pick
/// the option at each pair, and records the chosen paths.
///
/// With [`OptimalChooser`] this is exactly the paper's Algorithm 2 and runs
/// in O(|F|·|G|) time; with a fixed chooser it returns the exact
/// subproblem count of that fixed strategy.
///
/// Auxiliary memory is the O(|F|·|G|) choice **bytes** plus O(|F|)
/// recycled cost rows (see [`compute_strategy_in`]); the three dense u64
/// cost matrices of the textbook formulation are never materialized.
pub fn compute_strategy<L, Ch: Chooser>(f: &Tree<L>, g: &Tree<L>, chooser: &Ch) -> Strategy {
    compute_strategy_in(f, g, chooser, &mut Workspace::new())
}

/// [`compute_strategy`] drawing all scratch memory from a [`Workspace`]
/// (allocation-free after warm-up except for the returned choice matrix,
/// whose storage the caller can hand back via [`Workspace::recycle`]).
///
/// The Fig.-5 recursion reads a pair's running cost sums (`Lv`/`Rv`/`Hv`)
/// exactly twice: once when the pair itself is evaluated, and once more —
/// in the same evaluation — when the F-node is the leftmost / rightmost /
/// heavy child of its parent and the sums carry over instead of the
/// minimum. Rows are therefore recycled: a node's row is acquired when its
/// first child accumulates into it and released as soon as the node's own
/// pairs are evaluated, bounding live rows by the number of F-nodes with a
/// completed child below the current one (≤ depth + 1, worst case |F|)
/// instead of the dense 3·|F| rows. Rows interleave the `[L, R, H]` sums
/// per G-node, so each pair touches one cache line instead of three
/// matrices.
pub fn compute_strategy_in<L, Ch: Chooser>(
    f: &Tree<L>,
    g: &Tree<L>,
    chooser: &Ch,
    ws: &mut Workspace,
) -> Strategy {
    let nf = f.len();
    let ng = g.len();
    ws.counts_f.rebuild(f);
    ws.counts_g.rebuild(g);
    child_roles_into(f, &mut ws.froles);
    child_roles_into(g, &mut ws.groles);

    let mut choices = std::mem::take(&mut ws.choices);
    choices.clear();
    choices.resize(nf * ng, 0);

    // Interleaved row stride: [L, R, H] per G-node.
    let rw3 = 3 * ng;
    // Disjoint field borrows: the pool, the zero stand-in row and the
    // G-side accumulators are used side by side below.
    let Workspace {
        counts_f: cf,
        counts_g: cg,
        froles,
        groles,
        lw,
        rw,
        hw,
        rows,
        row_free,
        row_of,
        row_width,
        zero_row,
        ..
    } = ws;
    // Keep every pooled row grown to the high-water width: after this,
    // `acquire_row` never reallocates no matter which slot the free list
    // pops, so a reused workspace reaches its allocation fixed point the
    // first time it sees each problem size — not after some
    // acquisition-order-dependent number of passes.
    *row_width = (*row_width).max(rw3);
    let row_width = *row_width;
    for row in rows.iter_mut() {
        let need = row_width.saturating_sub(row.len());
        row.reserve(need);
    }
    lw.clear();
    lw.resize(ng, 0);
    rw.clear();
    rw.resize(ng, 0);
    hw.clear();
    hw.resize(ng, 0);
    row_of.clear();
    row_of.resize(nf, NO_ROW);
    row_free.clear();
    row_free.extend(0..rows.len() as u32);
    zero_row.clear();
    zero_row.resize(rw3, 0);

    let mut root_cost = 0u64;

    // Explicit index loop: `v` is simultaneously a postorder id and the
    // row offset into `choices`/`froles`.
    #[allow(clippy::needless_range_loop)]
    for v in 0..nf {
        lw.iter_mut().for_each(|x| *x = 0);
        rw.iter_mut().for_each(|x| *x = 0);
        hw.iter_mut().for_each(|x| *x = 0);
        let vid = NodeId(v as u32);
        let size_f = f.size(vid);
        let szf = size_f as u64;
        let af = cf.full[v];
        let flf = cf.left[v];
        let frf = cf.right[v];
        let fparent = f.parent(vid);
        let roles = froles[v];

        // The node's own accumulator row; leaves never accumulated
        // anything and read the shared all-zeros row instead.
        let vslot = row_of[v];
        // Taking the row out of the pool (`Vec::new` never allocates)
        // sidesteps aliasing with the parent-row borrow below.
        let vrow_owned: Vec<u64> = if vslot != NO_ROW {
            std::mem::take(&mut rows[vslot as usize])
        } else {
            Vec::new()
        };
        let vrow: &[u64] = if vslot != NO_ROW {
            &vrow_owned
        } else {
            &zero_row[..]
        };

        // The parent's accumulator row, acquired on first touch. The root
        // gets a throwaway row so the inner loop stays branch-free.
        let pslot = match fparent {
            Some(p) => {
                let pi = p.idx();
                if row_of[pi] == NO_ROW {
                    row_of[pi] = acquire_row(rows, row_free, rw3, row_width);
                }
                row_of[pi]
            }
            None => acquire_row(rows, row_free, rw3, row_width),
        };
        let prow: &mut [u64] = &mut rows[pslot as usize];

        for w in 0..ng {
            let wid = NodeId(w as u32);
            let size_g = g.size(wid);
            let szg = size_g as u64;
            let o = 3 * w;
            let costs: [u64; 6] = [
                szf * cg.left[w] + vrow[o],      // F, Left
                szg * flf + lw[w],               // G, Left
                szf * cg.right[w] + vrow[o + 1], // F, Right
                szg * frf + rw[w],               // G, Right
                szf * cg.full[w] + vrow[o + 2],  // F, Heavy
                szg * af + hw[w],                // G, Heavy
            ];
            let pick = chooser.pick(size_f, size_g, &costs);
            let cmin = costs[pick as usize];
            choices[v * ng + w] = pick;

            prow[o] += if roles & 1 != 0 { vrow[o] } else { cmin };
            prow[o + 1] += if roles & 2 != 0 { vrow[o + 1] } else { cmin };
            prow[o + 2] += if roles & 4 != 0 { vrow[o + 2] } else { cmin };

            if let Some(p) = g.parent(wid) {
                let pw = p.idx();
                let groles_w = groles[w];
                lw[pw] += if groles_w & 1 != 0 { lw[w] } else { cmin };
                rw[pw] += if groles_w & 2 != 0 { rw[w] } else { cmin };
                hw[pw] += if groles_w & 4 != 0 { hw[w] } else { cmin };
            }
            if v == nf - 1 && w == ng - 1 {
                root_cost = cmin;
            }
        }

        // This node's pairs are done: its row is dead, recycle it.
        if vslot != NO_ROW {
            rows[vslot as usize] = vrow_owned;
            row_free.push(vslot);
        }
        if fparent.is_none() {
            row_free.push(pslot);
        }
    }

    Strategy {
        ng,
        choices,
        cost: root_cost,
    }
}

/// The original dense formulation of Algorithm 2 — three full `nf × ng`
/// u64 cost matrices — kept verbatim as the equivalence oracle for the
/// row-recycled [`compute_strategy_in`].
#[cfg(test)]
pub(crate) fn compute_strategy_dense<L, Ch: Chooser>(
    f: &Tree<L>,
    g: &Tree<L>,
    chooser: &Ch,
) -> Strategy {
    let nf = f.len();
    let ng = g.len();
    let cf = rted_tree::counts::DecompCounts::new(f);
    let cg = rted_tree::counts::DecompCounts::new(g);

    let mut froles = Vec::new();
    let mut groles = Vec::new();
    child_roles_into(f, &mut froles);
    child_roles_into(g, &mut groles);

    // Cost-sum arrays over pairs (Lv/Rv/Hv) and per-G-node (Lw/Rw/Hw,
    // reset for every v).
    let mut lv = vec![0u64; nf * ng];
    let mut rv = vec![0u64; nf * ng];
    let mut hv = vec![0u64; nf * ng];
    let mut lw = vec![0u64; ng];
    let mut rw = vec![0u64; ng];
    let mut hw = vec![0u64; ng];
    let mut choices = vec![0u8; nf * ng];
    let mut root_cost = 0u64;

    #[allow(clippy::needless_range_loop)]
    for v in 0..nf {
        lw.iter_mut().for_each(|x| *x = 0);
        rw.iter_mut().for_each(|x| *x = 0);
        hw.iter_mut().for_each(|x| *x = 0);
        let vid = NodeId(v as u32);
        let size_f = f.size(vid);
        let szf = size_f as u64;
        let af = cf.full[v];
        let flf = cf.left[v];
        let frf = cf.right[v];
        let fparent = f.parent(vid);
        for w in 0..ng {
            let wid = NodeId(w as u32);
            let size_g = g.size(wid);
            let szg = size_g as u64;
            let idx = v * ng + w;
            let costs: [u64; 6] = [
                szf * cg.left[w] + lv[idx],  // F, Left
                szg * flf + lw[w],           // G, Left
                szf * cg.right[w] + rv[idx], // F, Right
                szg * frf + rw[w],           // G, Right
                szf * cg.full[w] + hv[idx],  // F, Heavy
                szg * af + hw[w],            // G, Heavy
            ];
            let pick = chooser.pick(size_f, size_g, &costs);
            let cmin = costs[pick as usize];
            choices[idx] = pick;

            if let Some(p) = fparent {
                let pidx = p.idx() * ng + w;
                let roles = froles[v];
                lv[pidx] += if roles & 1 != 0 { lv[idx] } else { cmin };
                rv[pidx] += if roles & 2 != 0 { rv[idx] } else { cmin };
                hv[pidx] += if roles & 4 != 0 { hv[idx] } else { cmin };
            }
            if let Some(p) = g.parent(wid) {
                let pw = p.idx();
                let roles = groles[w];
                lw[pw] += if roles & 1 != 0 { lw[w] } else { cmin };
                rw[pw] += if roles & 2 != 0 { rw[w] } else { cmin };
                hw[pw] += if roles & 4 != 0 { hw[w] } else { cmin };
            }
            if v == nf - 1 && w == ng - 1 {
                root_cost = cmin;
            }
        }
    }

    Strategy {
        ng,
        choices,
        cost: root_cost,
    }
}

/// Computes the optimal LRH strategy (RTED's first phase, Algorithm 2).
pub fn optimal_strategy<L>(f: &Tree<L>, g: &Tree<L>) -> Strategy {
    compute_strategy(f, g, &OptimalChooser)
}

/// The exact number of relevant subproblems of GTED under `chooser`'s
/// strategy — the analytic counterpart of the executor's instrumented
/// counter.
pub fn strategy_cost<L, Ch: Chooser>(f: &Tree<L>, g: &Tree<L>, chooser: &Ch) -> u64 {
    compute_strategy(f, g, chooser).cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use rted_tree::parse_bracket;

    #[test]
    fn example4_all_costs_equal_eight() {
        // §6.2 Example 4: F = {3{1}{2}}, G = {2{1}}. All six options cost 8.
        let f = parse_bracket("{3{1}{2}}").unwrap();
        let g = parse_bracket("{2{1}}").unwrap();
        for choice in PathChoice::ALL {
            let cost = strategy_cost(&f, &g, &FixedChooser(choice));
            assert_eq!(cost, 8, "{choice}");
        }
        let opt = optimal_strategy(&f, &g);
        assert_eq!(opt.cost, 8);
    }

    #[test]
    fn optimal_never_worse_than_fixed() {
        let cases = [
            ("{a{b{c}{d}}{e}}", "{x{y}{z{w{q}}}}"),
            ("{A{C}{B{G}{E{F}}{D}}}", "{A{B{D}{E{F}}}{C{G}}}"),
            ("{a{b{c{d{e{f}}}}}}", "{a{b}{c}{d}{e}{f}}"),
        ];
        for (a, b) in cases {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let opt = optimal_strategy(&f, &g).cost;
            for choice in PathChoice::ALL {
                let fixed = strategy_cost(&f, &g, &FixedChooser(choice));
                assert!(opt <= fixed, "{a} vs {b}: opt {opt} > {choice} {fixed}");
            }
            let dem = strategy_cost(&f, &g, &DemaineChooser);
            assert!(opt <= dem);
        }
    }

    #[test]
    fn fixed_single_side_strategy_cost_is_product() {
        // For the constant F-Left strategy the recursion unrolls to
        // |F(F,ΓL)| × |F(G,ΓL)| (G is never decomposed).
        use rted_tree::counts::DecompCounts;
        let f = parse_bracket("{a{b{c}{d}}{e{f}{g}}}").unwrap();
        let g = parse_bracket("{A{C}{B{G}{E{F}}{D}}}").unwrap();
        let cf = DecompCounts::new(&f);
        let cg = DecompCounts::new(&g);
        let zl = strategy_cost(
            &f,
            &g,
            &FixedChooser(PathChoice {
                side: Side::F,
                kind: PathKind::Left,
            }),
        );
        assert_eq!(zl, cf.left_of(f.root()) * cg.left_of(g.root()));
        let zr = strategy_cost(
            &f,
            &g,
            &FixedChooser(PathChoice {
                side: Side::F,
                kind: PathKind::Right,
            }),
        );
        assert_eq!(zr, cf.right_of(f.root()) * cg.right_of(g.root()));
    }

    #[test]
    fn single_nodes_cost_one() {
        let f = parse_bracket("{a}").unwrap();
        let g = parse_bracket("{b}").unwrap();
        assert_eq!(optimal_strategy(&f, &g).cost, 1);
    }

    #[test]
    fn code_roundtrip() {
        for c in PathChoice::ALL {
            assert_eq!(PathChoice::from_code(c.code()), c);
        }
    }

    #[test]
    fn strategy_matrix_has_choice_for_every_pair() {
        let f = parse_bracket("{a{b}{c{d}}}").unwrap();
        let g = parse_bracket("{x{y{z}}}").unwrap();
        let s = optimal_strategy(&f, &g);
        for v in f.nodes() {
            for w in g.nodes() {
                let _ = s.choice(v, w); // must not panic
            }
        }
    }

    /// Asserts the recycled strategy equals the dense oracle bit for bit:
    /// same cost and the same choice at every pair, for every chooser.
    fn assert_matches_dense(f: &Tree<String>, g: &Tree<String>, ctx: &str) {
        fn check<Ch: Chooser>(f: &Tree<String>, g: &Tree<String>, ch: &Ch, ctx: &str, ci: u32) {
            let dense = compute_strategy_dense(f, g, ch);
            let recycled = compute_strategy(f, g, ch);
            assert_eq!(recycled.cost, dense.cost, "{ctx}: cost, chooser {ci}");
            for v in f.nodes() {
                for w in g.nodes() {
                    assert_eq!(
                        recycled.choice(v, w),
                        dense.choice(v, w),
                        "{ctx}: choice ({v},{w}), chooser {ci}"
                    );
                }
            }
        }
        check(f, g, &OptimalChooser, ctx, 0);
        check(f, g, &DemaineChooser, ctx, 1);
        check(f, g, &SubsetChooser::lr_only(), ctx, 2);
        check(f, g, &FixedChooser(PathChoice::ALL[4]), ctx, 3);
    }

    #[test]
    fn recycled_matches_dense_on_fixed_cases() {
        let cases = [
            ("{a}", "{b}"),
            ("{a{b{c}{d}}{e}}", "{x{y}{z{w{q}}}}"),
            ("{A{C}{B{G}{E{F}}{D}}}", "{A{B{D}{E{F}}}{C{G}}}"),
            ("{a{b{c{d{e{f}}}}}}", "{a{b}{c}{d}{e}{f}}"),
            ("{a{a}{a}{a}}", "{a{a{a}}}"),
        ];
        for (a, b) in cases {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            assert_matches_dense(&f, &g, &format!("{a} vs {b}"));
        }
    }

    /// Random ordered tree over a 3-letter alphabet: node `i ≥ 1` becomes
    /// the next child of a uniformly chosen earlier node.
    fn random_tree(rng: &mut impl rand::RngExt, n: usize) -> Tree<String> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 1..n {
            let p = rng.random_range(0..i);
            children[p].push(i as u32);
        }
        // Postorder walk: emit each node's label and child count.
        let mut labels = Vec::with_capacity(n);
        let mut degrees = Vec::with_capacity(n);
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            let ch = &children[v as usize];
            if *i < ch.len() {
                let c = ch[*i];
                *i += 1;
                stack.push((c, 0));
            } else {
                labels.push(format!("{}", (v * 7 + 3) % 3));
                degrees.push(ch.len() as u32);
                stack.pop();
            }
        }
        Tree::from_postorder_degrees(labels, &degrees).unwrap()
    }

    #[test]
    fn recycled_matches_dense_on_random_trees() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5712_ec0d);
        for case in 0..60 {
            let nf = rng.random_range(1..18);
            let ng = rng.random_range(1..18);
            let f = random_tree(&mut rng, nf);
            let g = random_tree(&mut rng, ng);
            assert_matches_dense(&f, &g, &format!("random case {case}"));
        }
    }

    #[test]
    fn recycled_strategy_reuses_one_workspace() {
        // One workspace across differently-sized pairs must keep matching
        // the dense oracle (stale state from a bigger pair is invisible).
        let mut ws = Workspace::new();
        let cases = [
            ("{A{C}{B{G}{E{F}}{D}}}", "{a{b{c{d{e{f}}}}}}"),
            ("{a}", "{b{c}}"),
            ("{a{b}{c}{d}{e}}", "{x{y{z}}}"),
        ];
        for (a, b) in cases {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let dense = compute_strategy_dense(&f, &g, &OptimalChooser);
            let recycled = compute_strategy_in(&f, &g, &OptimalChooser, &mut ws);
            assert_eq!(recycled.cost, dense.cost, "{a} vs {b}");
            for v in f.nodes() {
                for w in g.nodes() {
                    assert_eq!(recycled.choice(v, w), dense.choice(v, w), "{a} vs {b}");
                }
            }
            ws.recycle(recycled);
        }
    }

    #[test]
    fn live_rows_stay_far_below_dense() {
        // A chain keeps ≤ 2 live rows; a full binary tree ≤ depth + 1. The
        // dense formulation would keep 3·|F| rows (here |F| = 31 / 63).
        let chain = {
            let mut s = String::from("{a");
            for _ in 0..62 {
                s.push_str("{a");
            }
            s.push_str(&"}".repeat(63));
            parse_bracket(&s).unwrap()
        };
        let g = parse_bracket("{x{y}{z}}").unwrap();
        let mut ws = Workspace::new();
        compute_strategy_in(&chain, &g, &OptimalChooser, &mut ws);
        assert!(
            ws.strategy_rows_peak() <= 3,
            "chain peaked at {} live rows",
            ws.strategy_rows_peak()
        );

        fn full_binary(depth: u32) -> String {
            if depth == 0 {
                "{l}".to_string()
            } else {
                format!("{{i{}{}}}", full_binary(depth - 1), full_binary(depth - 1))
            }
        }
        let fb = parse_bracket(&full_binary(4)).unwrap(); // 31 nodes
        let mut ws = Workspace::new();
        compute_strategy_in(&fb, &g, &OptimalChooser, &mut ws);
        assert!(
            ws.strategy_rows_peak() <= 6, // depth + root throwaway
            "full binary peaked at {} live rows",
            ws.strategy_rows_peak()
        );
    }
}
