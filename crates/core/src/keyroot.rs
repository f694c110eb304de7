//! The keyroot sheet: the one forest-distance recurrence behind every
//! left/right-path DP of the crate.
//!
//! Zhang–Shasha fills one sheet per A-keyroot × B-keyroot pair; `∆L`/`∆R`
//! (§4.3) fill those of one A-keyroot, the whole subtree; the bounded
//! verifier fills Zhang–Shasha's sheets inside a band; the mapping
//! backtrace refills single sheets to walk them. [`sheet`] is monomorphised
//! over the caller's three [`SheetHooks`]: the rename cost, and where
//! subtree distances are read and written.
//!
//! The sheet of the view-rank pair `(i, j)` holds the forest distances of
//! the prefixes `[l(i)..x] × [l(j)..y]` row-major in rows of
//! `w = j − l(j) + 2`: `(x, y)` is at `(x − l(i) + 1) · w + y − l(j) + 1`.

use crate::view::SubtreeView;
use rted_tree::NodeId;

/// One side's per-rank rows (index 0 is padding): view-leftmost leaves,
/// nodes, and delete (A side) or insert (B side) costs; plus its keyroots.
#[derive(Debug, Default)]
pub(crate) struct Ranks {
    pub lml: Vec<u32>,
    pub node: Vec<NodeId>,
    pub cost: Vec<f64>,
    pub keyroots: Vec<u32>,
}

impl Ranks {
    /// Loads the rows of view `v` with per-node costs `cost`.
    pub fn load<L>(&mut self, v: &SubtreeView<'_, L>, cost: impl Fn(NodeId) -> f64) {
        self.node.clear();
        self.node.push(NodeId(0));
        self.node.extend((1..=v.n).map(|r| v.node(r)));
        self.lml.clear();
        self.lml.push(0);
        self.lml.extend((1..=v.n).map(|r| v.lml(r)));
        self.cost.clear();
        self.cost.extend(self.node.iter().map(|&u| cost(u)));
    }
}

/// Pooled buffers of the keyroot DPs, kept in the workspace.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub a: Ranks,
    pub b: Ranks,
    pub fd: Vec<f64>,
    pub rows: Rows,
}

/// Row buffers of [`sheet`].
#[derive(Debug, Default)]
pub(crate) struct Rows {
    /// Per-cell minima of the delete/rename/subtree-match candidates.
    cand: Vec<f64>,
    /// Scratch for [`SheetHooks::td_row`].
    td: Vec<f64>,
}

/// A diagonal band, as half-widths in sheet-local coordinates
/// `x' = x − l(i) + 1`, `y' = y − l(j) + 1`: `(x', y')` is in band iff
/// `x' − y' ≤ del` and `y' − x' ≤ ins`. Cells outside are never computed
/// and read as `+∞`.
#[derive(Clone, Copy)]
pub(crate) struct Band {
    pub del: i64,
    pub ins: i64,
}

impl Band {
    /// A half-width wider than any sheet.
    pub const WIDE: i64 = i64::MAX / 4;
    const FULL: Band = Band {
        del: Band::WIDE,
        ins: Band::WIDE,
    };
}

/// Where one kind of sheet gets its rename costs and subtree distances.
pub(crate) trait SheetHooks {
    /// Cost of renaming A-rank `x` into B-rank `y`.
    fn rename(&self, x: u32, y: u32) -> f64;

    /// A slice whose entry `k` is δ(x, lj + k), for the `lj + k ≤ j` that
    /// earlier sheets computed; `buf` is scratch for hooks that gather.
    fn td_row<'s>(&'s self, x: u32, lj: u32, j: u32, buf: &'s mut Vec<f64>) -> &'s [f64];

    /// Records δ(x, y) = `v`.
    fn set_td(&mut self, x: u32, y: u32, v: f64);

    /// Sees each final row `x` with its computed columns `lo..=hi`
    /// (sheet-local); `false` abandons the sheet.
    #[inline]
    fn row_done(&mut self, _x: u32, _row: &[f64], _lo: usize, _hi: usize) -> bool {
        true
    }
}

/// Fills the sheet of the rank pair `(i, j)` into `fd`, inside `band` if
/// one is given. Every computed cell is written before it is read, so `fd`
/// is only grown, never cleared. Returns the cells computed (row and
/// column 0 excluded) and `false` if [`SheetHooks::row_done`] abandoned it.
pub(crate) fn sheet<H: SheetHooks>(
    h: &mut H,
    a: &Ranks,
    b: &Ranks,
    ij: (u32, u32),
    band: Option<Band>,
    fd: &mut Vec<f64>,
    rows: &mut Rows,
) -> (u64, bool) {
    match band {
        None => fill::<H, false>(h, a, b, ij, Band::FULL, fd, rows),
        Some(band) => fill::<H, true>(h, a, b, ij, band, fd, rows),
    }
}

/// [`sheet`]; the subtree-match fence is compiled in only when `BANDED`.
fn fill<H: SheetHooks, const BANDED: bool>(
    h: &mut H,
    a: &Ranks,
    b: &Ranks,
    (i, j): (u32, u32),
    band: Band,
    fd: &mut Vec<f64>,
    rows: &mut Rows,
) -> (u64, bool) {
    let li = a.lml[i as usize];
    let lj = b.lml[j as usize];
    let cols = (j - lj + 1) as usize;
    let w = cols + 1;
    let need = (i - li + 2) as usize * w;
    fd.resize(fd.len().max(need), 0.0);
    rows.cand.resize(rows.cand.len().max(cols), 0.0);
    let Rows { cand, td: td_buf } = rows;
    let cand = &mut cand[..cols];
    // Column index `k` is B-rank `lj + k`, sheet column `k + 1`.
    let b_lml = &b.lml[lj as usize..=j as usize];
    let b_ins = &b.cost[lj as usize..=j as usize];
    // A subtree match adds δ to the cell `(jx, jy)` before both subtrees,
    // which was never computed if it lies outside the band: +∞ then.
    let fence = |jx: usize, jy: usize, v: f64| {
        let d = jx as i64 - jy as i64;
        if !BANDED || (d <= band.del && -d <= band.ins) {
            v
        } else {
            f64::INFINITY
        }
    };

    // Row 0 (the empty A-prefix), then a +∞ fence for the next row's
    // delete read.
    let hi0 = band.ins.min(cols as i64) as usize;
    fd[0] = 0.0;
    for k in 0..hi0 {
        fd[k + 1] = fd[k] + b_ins[k];
    }
    if hi0 < cols {
        fd[hi0 + 1] = f64::INFINITY;
    }

    let mut cells = 0u64;
    for x in li..=i {
        let xp = (x - li + 1) as i64;
        let lo = (xp - band.del).max(0);
        if lo > cols as i64 {
            // This row and every later one lie outside the band.
            break;
        }
        let lo = lo as usize;
        let hi = (xp + band.ins).min(cols as i64) as usize;
        let dx = a.cost[x as usize];
        let at = (x - li + 1) as usize * w;
        let (above, rest) = fd.split_at_mut(at);
        let cur = &mut rest[..w];
        let prev = &above[at - w..];
        // Subtree-match source row: the A-prefix before x's subtree.
        let jx = (a.lml[x as usize] - li) as usize;
        let src = &above[jx * w..(jx + 1) * w];
        if lo == 0 {
            cur[0] = prev[0] + dx;
        } else {
            // +∞ fence for the first in-band cell's insert read.
            cur[lo - 1] = f64::INFINITY;
        }
        let first = lo.max(1) - 1;

        // Pass 1: delete, rename and subtree-match candidates read rows
        // above only, so they stream into `cand` as pure min/add work.
        let td = &h.td_row(x, lj, j, td_buf)[..cols];
        if jx == 0 {
            // x is on l(i)'s path: rename where the B-prefix is a subtree.
            for k in first..hi {
                let jy = (b_lml[k] - lj) as usize;
                let t = if jy == 0 {
                    prev[k] + h.rename(x, lj + k as u32)
                } else {
                    fence(0, jy, src[jy] + td[k])
                };
                cand[k] = (prev[k + 1] + dx).min(t);
            }
        } else {
            for k in first..hi {
                let jy = (b_lml[k] - lj) as usize;
                cand[k] = (prev[k + 1] + dx).min(fence(jx, jy, src[jy] + td[k]));
            }
        }
        // Pass 2: the insert chain, the row's one loop-carried dependence.
        // `min` is associative, so the values equal a fused loop's.
        let mut run = cur[first];
        for k in first..hi {
            let v = cand[k].min(run + b_ins[k]);
            cur[k + 1] = v;
            run = v;
        }
        if hi < cols {
            cur[hi + 1] = f64::INFINITY;
        }
        cells += (hi - first) as u64;
        if jx == 0 {
            for k in first..hi {
                if b_lml[k] == lj {
                    h.set_td(x, lj + k as u32, cur[k + 1]);
                }
            }
        }
        if !h.row_done(x, cur, lo, hi) {
            return (cells, false);
        }
    }
    (cells, true)
}
