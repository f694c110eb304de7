//! Single-path function `∆I` (§4.3): the Demaine-style "compute period" DP
//! for arbitrary (in GTED: heavy) root-leaf paths, in O(n²) space.
//!
//! `∆I(F, G, γ, D)` computes δ(F_v, G_w) for every node `v` on the path `γ`
//! of `F` and every `w ∈ G`, computing exactly `|F| × |A(G)|` relevant
//! subproblems (Lemma 4), where `A(G)` is the full decomposition of `G`.
//!
//! # How it works
//!
//! **B-side (G) forests.** Every forest of the full decomposition `A(G)` is
//! `S(a, b) = {x : lpost(x) ≤ a ∧ rpost(x) ≤ b}` for a unique canonical
//! pair, where `lpost`/`rpost` are the (mirror) postorder ranks local to the
//! subtree (see `rted_tree::decompose::canonical_pairs`). Removing the
//! rightmost root maps `(a, b)` to set-index `(a − 1, b)`; removing the
//! rightmost root's subtree to `(a − size, b)`; symmetrically on the left
//! with `b`. Any set index maps back to a value by **rank**: the forest
//! `{lpost ≤ a', rpost ≤ b}` is determined within family `b` by its member
//! count `cnt(a', b)`, so DP rows store one value per canonical pair and
//! resolve set indices through the `cnt` table.
//!
//! **A-side (F) forests.** The relevant subforests of `F` w.r.t. `γ` form a
//! linear sequence — one node removed per step (Lemma 2) — grouped into
//! periods along the path. Walking the path bottom-up, each period turns
//! the row of δ(children-forest(p), ·) into δ(subtree(p), ·) ("stage T"),
//! then re-adds the right siblings of the path child one node at a time
//! ("stage R", removal direction *right* since the leftmost root is the
//! path node), then the left siblings ("stage L", direction *left*).
//!
//! Within stage R the B-side recursion never leaves family `b` while the
//! forest has ≥ 2 roots; the only cross-family dependency is through
//! single-tree forests, whose "root removed" values are kept in a `kids`
//! side table (δ(row forest, children-forest(x)) for every `x ∈ G`). This
//! is what bounds memory by O(|F|·|G| + |A(G)|) while still computing each
//! relevant subproblem exactly once.
//!
//! # Memory discipline
//!
//! Every buffer — the B-side tables, the two DP row slots, and the stage
//! scratch — lives in the executor's [`Workspace`](crate::Workspace) and is
//! only ever length-reset: rows rotate between the `current` and `spare`
//! slots by `mem::swap`, so a whole `∆I` invocation allocates nothing once
//! the workspace is warm. The B-side tables, including each stage
//! direction's per-member tables, depend only on the B subtree and the
//! orientation, so consecutive invocations on the same B side (all of
//! Klein-H's, most of RTED's) build them once.
//!
//! # Cells
//!
//! Rows, `kids`, the stage sheet and the B-side insert costs hold the
//! call's [`Cell`] type: `u32` cost units when the cost model names a
//! dyadic unit, `f64` otherwise. No value here is ever `+∞`, and every
//! difference taken (`sum_ins − sub_ins`) is of a forest's insert cost
//! and one of its subtrees', so never negative.

#![allow(clippy::needless_range_loop, clippy::needless_late_init)]
// The DP kernels below are written as explicit index loops over
// canonical-pair arrays; iterator rewrites obscure the index
// arithmetic the comments reference.

use crate::cell::Cell;
use crate::cost::CostModel;
use crate::gted::Gted;
use crate::workspace::{bytes, RlScratch, Row};
use rted_tree::{NodeId, Tree};

/// Precomputed B-side (the non-decomposed tree) canonical-forest tables.
///
/// One instance per cell type lives in the [`Workspace`](crate::Workspace);
/// it is rebuilt in place when a `∆I` invocation's B side differs from the
/// previous one's in the same GTED run.
#[derive(Debug, Default)]
pub(crate) struct BSide<T> {
    m: usize,
    /// Global node id by local lpost rank (index 1..=m).
    node_l: Vec<u32>,
    /// Global node id by local rpost rank.
    node_r: Vec<u32>,
    /// Local rpost of the node with local lpost `a`.
    rb: Vec<u32>,
    /// Local lpost of the node with local rpost `b`.
    lb: Vec<u32>,
    /// Subtree size by local lpost / local rpost.
    sz_l: Vec<u32>,
    sz_r: Vec<u32>,
    /// `cnt[a * (m+1) + b]` = |{x : lpost(x) ≤ a ∧ rpost(x) ≤ b}|.
    cnt: Vec<u32>,
    /// Canonical lpost members per rpost family `b`, ascending, concatenated.
    mem_a: Vec<u32>,
    mem_a_off: Vec<usize>,
    /// Canonical rpost members per lpost family `a`, ascending, concatenated.
    mem_b: Vec<u32>,
    mem_b_off: Vec<usize>,
    /// Row-vector offset of family `b` (canonical pairs laid out family by
    /// family); `start_b[m+1]` = |A(G)|.
    start_b: Vec<usize>,
    /// Insert cost by local lpost / local rpost (orientation applied).
    ins_l: Vec<T>,
    ins_r: Vec<T>,
    /// Subtree insert-cost sums by local lpost.
    sub_ins_l: Vec<T>,
    /// Member tables of stage R (families `b`) and stage L (families `a`).
    right: Members<T>,
    left: Members<T>,
}

/// The per-member tables of one removal direction, parallel to its
/// member lists: stage R's families are the rpost families `b` with
/// members from `mem_a`, stage L's the lpost families `a` with members
/// from `mem_b`. They depend on the B side only, so a `∆I` run builds
/// them once for all its stages, and the per-cell work is table reads.
#[derive(Debug, Default)]
pub(crate) struct Members<T> {
    /// The extreme root `w` of the member's forest on the removal side.
    wnode: Vec<u32>,
    /// Insert cost of `w`.
    insw: Vec<T>,
    /// Column, within the family, of the forest less `w`'s subtree (0 for
    /// the anchor, the first member).
    jump: Vec<u32>,
    /// Row-vector position of each member (stage L only; stage R's
    /// families are laid out contiguously in member order).
    pos: Vec<usize>,
    /// `(column, slot)` of each member that is the children forest of
    /// the node at local lpost `slot`; family `f`'s from `kid_off[f]`.
    kid: Vec<(u32, u32)>,
    kid_off: Vec<usize>,
}

impl<T: Cell> Members<T> {
    fn build(&mut self, bs: &BSide<T>, left: bool) {
        let m = bs.m;
        self.wnode.clear();
        self.insw.clear();
        self.jump.clear();
        self.pos.clear();
        self.kid.clear();
        self.kid_off.clear();
        self.kid_off.resize(m + 2, 0);
        for f in 1..=m as u32 {
            self.kid_off[f as usize] = self.kid.len();
            let (fam, low) = if left {
                (bs.fam_b(f), bs.sz_l[f as usize])
            } else {
                (bs.fam_a(f), bs.sz_r[f as usize])
            };
            for (ci, &mb) in fam.iter().enumerate() {
                let (a, b) = if left { (f, mb) } else { (mb, f) };
                let (w, szw, ins) = if left {
                    let b = b as usize;
                    (bs.node_r[b], bs.sz_r[b], bs.ins_r[b])
                } else {
                    let a = a as usize;
                    (bs.node_l[a], bs.sz_l[a], bs.ins_l[a])
                };
                self.wnode.push(w);
                self.insw.push(ins);
                self.jump.push(if ci == 0 {
                    0
                } else if left {
                    bs.cnt_at(a, b - szw) - low
                } else {
                    bs.cnt_at(a - szw, b) - low
                });
                if left {
                    self.pos.push(bs.pos(a, b));
                }
                let pa = a as usize + 1;
                if pa <= m && bs.rb[pa] == b + 1 {
                    self.kid.push((ci as u32, pa as u32));
                }
            }
        }
        self.kid_off[m + 1] = self.kid.len();
    }

    fn capacity_bytes(&self) -> usize {
        bytes(&self.wnode)
            + bytes(&self.insw)
            + bytes(&self.jump)
            + bytes(&self.pos)
            + bytes(&self.kid)
            + bytes(&self.kid_off)
    }
}

impl<T: Cell> BSide<T> {
    pub(crate) fn capacity_bytes(&self) -> usize {
        bytes(&self.node_l)
            + bytes(&self.node_r)
            + bytes(&self.rb)
            + bytes(&self.lb)
            + bytes(&self.sz_l)
            + bytes(&self.sz_r)
            + bytes(&self.cnt)
            + bytes(&self.mem_a)
            + bytes(&self.mem_a_off)
            + bytes(&self.mem_b)
            + bytes(&self.mem_b_off)
            + bytes(&self.start_b)
            + bytes(&self.ins_l)
            + bytes(&self.ins_r)
            + bytes(&self.sub_ins_l)
            + self.right.capacity_bytes()
            + self.left.capacity_bytes()
    }

    /// Rebuilds the tables for the B-side subtree at `b_root`, reusing all
    /// capacity.
    fn rebuild<L, C: CostModel<L>>(
        &mut self,
        exec: &Gted<'_, L, C, T>,
        b_root: NodeId,
        swapped: bool,
    ) {
        let tb: &Tree<L> = exec.tree_b(swapped);
        let m = tb.size(b_root) as usize;
        self.m = m;
        let first_l = tb.subtree_first(b_root).0;
        let first_r = tb.rpost(b_root) + 1 - m as u32;

        self.node_l.clear();
        self.node_l.resize(m + 1, 0);
        self.node_r.clear();
        self.node_r.resize(m + 1, 0);
        self.rb.clear();
        self.rb.resize(m + 1, 0);
        self.lb.clear();
        self.lb.resize(m + 1, 0);
        self.sz_l.clear();
        self.sz_l.resize(m + 1, 0);
        self.sz_r.clear();
        self.sz_r.resize(m + 1, 0);
        self.ins_l.clear();
        self.ins_l.resize(m + 1, T::ZERO);
        self.ins_r.clear();
        self.ins_r.resize(m + 1, T::ZERO);
        self.sub_ins_l.clear();
        self.sub_ins_l.resize(m + 1, T::ZERO);
        for a in 1..=m as u32 {
            let v = NodeId(first_l + a - 1);
            let b = tb.rpost(v) - first_r + 1;
            self.node_l[a as usize] = v.0;
            self.rb[a as usize] = b;
            self.node_r[b as usize] = v.0;
            self.lb[b as usize] = a;
            self.sz_l[a as usize] = tb.size(v);
            self.sz_r[b as usize] = tb.size(v);
            self.ins_l[a as usize] = exec.ins_b(v, swapped);
            self.ins_r[b as usize] = exec.ins_b(v, swapped);
            self.sub_ins_l[a as usize] = exec.sub_ins_b(v, swapped);
        }

        // Membership counts.
        let stride = m + 1;
        self.cnt.clear();
        self.cnt.resize(stride * stride, 0);
        for a in 1..=m {
            let r = self.rb[a] as usize;
            for b in 0..=m {
                self.cnt[a * stride + b] = self.cnt[(a - 1) * stride + b] + u32::from(r <= b);
            }
        }

        // Canonical member lists and family offsets.
        self.mem_a.clear();
        self.mem_a_off.clear();
        self.mem_a_off.resize(m + 2, 0);
        self.start_b.clear();
        self.start_b.resize(m + 2, 0);
        for b in 1..=m {
            self.mem_a_off[b] = self.mem_a.len();
            self.start_b[b] = self.start_b[b - 1]
                + if b >= 2 {
                    self.cnt[m * stride + b - 1] as usize - self.sz_r[b - 1] as usize + 1
                } else {
                    0
                };
            for a in self.lb[b] as usize..=m {
                if self.rb[a] as usize <= b {
                    self.mem_a.push(a as u32);
                }
            }
        }
        self.mem_a_off[m + 1] = self.mem_a.len();
        self.start_b[m + 1] =
            self.start_b[m] + self.cnt[m * stride + m] as usize - self.sz_r[m] as usize + 1;

        self.mem_b.clear();
        self.mem_b_off.clear();
        self.mem_b_off.resize(m + 2, 0);
        for a in 1..=m {
            self.mem_b_off[a] = self.mem_b.len();
            for b in self.rb[a] as usize..=m {
                if self.lb[b] as usize <= a {
                    self.mem_b.push(b as u32);
                }
            }
        }
        self.mem_b_off[m + 1] = self.mem_b.len();

        for left in [false, true] {
            let mut members = std::mem::take(if left {
                &mut self.left
            } else {
                &mut self.right
            });
            members.build(self, left);
            *(if left {
                &mut self.left
            } else {
                &mut self.right
            }) = members;
        }
    }

    #[inline]
    fn cnt_at(&self, a: u32, b: u32) -> u32 {
        self.cnt[a as usize * (self.m + 1) + b as usize]
    }

    /// Total number of canonical pairs, |A(G)|.
    #[inline]
    fn total(&self) -> usize {
        self.start_b[self.m + 1]
    }

    /// Position of canonical pair `(a, b)` in a row vector.
    #[inline]
    fn pos(&self, a: u32, b: u32) -> usize {
        debug_assert!(
            self.rb[a as usize] <= b && self.lb[b as usize] <= a,
            "({a},{b}) not canonical"
        );
        // Rank of the first canonical member of family b is |subtree(y)|.
        self.start_b[b as usize] + (self.cnt_at(a, b) - self.sz_r[b as usize]) as usize
    }

    /// Canonical members `a` of family `b`.
    #[inline]
    fn fam_a(&self, b: u32) -> &[u32] {
        &self.mem_a[self.mem_a_off[b as usize]..self.mem_a_off[b as usize + 1]]
    }

    /// Canonical members `b` of family `a`.
    #[inline]
    fn fam_b(&self, a: u32) -> &[u32] {
        &self.mem_b[self.mem_b_off[a as usize]..self.mem_b_off[a as usize + 1]]
    }
}

impl<T: Cell> Row<T> {
    /// δ(row forest, children forest of node at local lpost `a`): for
    /// leaves the children forest is empty.
    #[inline]
    fn kid(&self, bs: &BSide<T>, a: u32) -> T {
        if bs.sz_l[a as usize] == 1 {
            self.col0
        } else {
            self.kids[a as usize]
        }
    }
}

/// Marks `val` as the children-forest value of a parent node if the
/// canonical pair `(a, b)` is exactly `(lpost(x) − 1, rpost(x) − 1)` for
/// some node `x` (whose children the forest then is).
#[inline]
fn note_kid<T: Cell>(bs: &BSide<T>, kids: &mut [T], a: u32, b: u32, val: T) {
    let pa = a as usize + 1;
    if pa <= bs.m && bs.rb[pa] == b + 1 {
        kids[pa] = val;
    }
}

/// δ(∅, ·) row: pure insertion costs, written into `out`.
fn empty_a_row_into<T: Cell>(bs: &BSide<T>, out: &mut Row<T>) {
    out.vals.clear();
    out.kids.clear();
    out.kids.resize(bs.m + 1, T::ZERO);
    out.col0 = T::ZERO;
    for b in 1..=bs.m as u32 {
        let mut sum = T::ZERO;
        for (i, &a) in bs.fam_a(b).iter().enumerate() {
            if i == 0 {
                sum = bs.sub_ins_l[a as usize]; // S = subtree(y)
            } else {
                sum += bs.ins_l[a as usize];
            }
            out.vals.push(sum);
            note_kid(bs, &mut out.kids, a, b, sum);
        }
    }
    // Children-forest insert sums are also directly available.
    for a in 1..=bs.m {
        if bs.sz_l[a] > 1 {
            out.kids[a] = bs.sub_ins_l[a] - bs.ins_l[a];
        }
    }
}

/// Stage T: from δ(children-forest(p), ·) compute δ(subtree(p), ·), writing
/// the new tree-tree distances δ(subtree(p), subtree(w)) into `D` and the
/// resulting row into `out`.
fn stage_t_into<L, C: CostModel<L>, T: Cell>(
    exec: &mut Gted<'_, L, C, T>,
    bs: &BSide<T>,
    p: NodeId,
    top_prev: &Row<T>,
    out: &mut Row<T>,
    swapped: bool,
) {
    let del_p = exec.del_a(p, swapped);
    out.vals.clear();
    out.kids.clear();
    out.kids.resize(bs.m + 1, T::ZERO);
    out.col0 = exec.sub_del_a(p, swapped);
    let col0 = out.col0;
    let mut cells = 0u64;
    for b in 1..=bs.m as u32 {
        let mut sum_ins = T::ZERO;
        let fam = bs.fam_a(b);
        for (i, &a) in fam.iter().enumerate() {
            let x = NodeId(bs.node_l[a as usize]);
            let val;
            if i == 0 {
                // S = subtree(x): both sides are trees — delete / insert /
                // rename (Fig. 2, tree-tree case).
                sum_ins = bs.sub_ins_l[a as usize];
                let s_minus_w = if bs.sz_l[a as usize] == 1 {
                    col0
                } else {
                    out.kids[a as usize]
                };
                val = (top_prev.vals[out.vals.len()] + del_p)
                    .min(s_minus_w + bs.ins_l[a as usize])
                    .min(top_prev.kid(bs, a) + exec.ren_ab(p, x, swapped));
                exec.d_set(p, x, swapped, val);
            } else {
                // S has ≥ 2 roots; direction right, w = rightmost root = x.
                sum_ins += bs.ins_l[a as usize];
                let prev_col = out.vals[out.vals.len() - 1]; // set (a−1, b)
                                                             // subtree(x) anchors family rb(x): its first position.
                let subtree_x = out.vals[bs.start_b[bs.rb[a as usize] as usize]];
                val = (top_prev.vals[out.vals.len()] + del_p)
                    .min(prev_col + bs.ins_l[a as usize])
                    .min(subtree_x + (sum_ins - bs.sub_ins_l[a as usize]));
            }
            // Both rows list the canonical pairs in position order.
            debug_assert_eq!(out.vals.len(), bs.pos(a, b));
            out.vals.push(val);
            note_kid(bs, &mut out.kids, a, b, val);
            cells += 1;
        }
    }
    exec.stats.subproblems += cells;
}

/// Stage R (`left == false`): re-add the right siblings of the path child
/// one node at a time (removal direction right). Stage L (`left == true`):
/// re-add the left siblings (direction left). `add` lists the nodes in
/// re-addition order: ascending postorder for stage R, ascending mirror
/// postorder for stage L — each added node becomes the new extreme root.
/// The resulting top row is written into `out`.
#[allow(clippy::too_many_arguments)]
fn stage_rl_into<L, C: CostModel<L>, T: Cell>(
    exec: &mut Gted<'_, L, C, T>,
    bs: &BSide<T>,
    base: &Row<T>,
    add: &[NodeId],
    swapped: bool,
    left: bool,
    scratch: &mut RlScratch<T>,
    out: &mut Row<T>,
) {
    let ta = exec.tree_a(swapped);
    let r_rows = add.len();
    let m = bs.m;

    // δ(F-row, ∅) per row.
    let col0 = &mut scratch.col0;
    col0.clear();
    col0.push(base.col0);
    for (j, &v) in add.iter().enumerate() {
        let next = col0[j] + exec.del_a(v, swapped);
        col0.push(next);
    }
    // Per-row children-forest values; row 0 comes from the base row.
    let kstride = m + 1;
    let kids = &mut scratch.kids;
    kids.clear();
    kids.resize((r_rows + 1) * kstride, T::ZERO);
    kids[..kstride].copy_from_slice(&base.kids);

    scratch.sz_v.clear();
    scratch.sz_v.extend(add.iter().map(|&v| ta.size(v)));
    scratch.del_v.clear();
    for &v in add {
        let d = exec.del_a(v, swapped);
        scratch.del_v.push(d);
    }
    let sz_v = &scratch.sz_v;
    let del_v = &scratch.del_v;

    // Stage L writes output positions out of order and needs the full row
    // pre-sized; stage R appends families contiguously (family order is
    // position order), skipping the zero prefill.
    out.vals.clear();
    if left {
        out.vals.resize(bs.total(), T::ZERO);
    }
    // Stage buffer: (r_rows + 1) × (max family width).
    let mut wmax = 0usize;
    for fam_idx in 1..=m as u32 {
        let w = if left {
            bs.fam_b(fam_idx).len()
        } else {
            bs.fam_a(fam_idx).len()
        };
        wmax = wmax.max(w);
    }
    let stage = &mut scratch.stage;
    stage.clear();
    stage.resize((r_rows + 1) * wmax, T::ZERO);
    let mut cells = 0u64;

    for fam_idx in 1..=m as u32 {
        let fam: &[u32] = if left {
            bs.fam_b(fam_idx)
        } else {
            bs.fam_a(fam_idx)
        };
        let width = fam.len();
        if width == 0 {
            continue;
        }
        let (off, mt) = if left {
            (bs.mem_b_off[fam_idx as usize], &bs.left)
        } else {
            (bs.mem_a_off[fam_idx as usize], &bs.right)
        };
        let m_wnode = &mt.wnode[off..off + width];
        let m_insw = &mt.insw[off..off + width];
        let m_jump = &mt.jump[off..off + width];
        let m_kid = &mt.kid[mt.kid_off[fam_idx as usize]..mt.kid_off[fam_idx as usize + 1]];
        // Row 0 = base row restricted to this family.
        for ci in 0..width {
            stage[ci] = base.vals[if left {
                mt.pos[off + ci]
            } else {
                bs.start_b[fam_idx as usize] + ci
            }];
        }
        // ci == 0 anchors the family: its `S − w` term reads the
        // children-forest slot (or the empty column when w is a leaf).
        let (szw0, kidx0) = if left {
            let b = fam[0] as usize;
            (bs.sz_r[b], fam_idx as usize)
        } else {
            let a = fam[0] as usize;
            (bs.sz_l[a], bs.lb[fam_idx as usize] as usize)
        };
        let cand = &mut scratch.cand;
        cand.clear();
        cand.resize(width, T::ZERO);
        for j in 1..=r_rows {
            let v = add[j - 1];
            let szv = sz_v[j - 1] as usize;
            let dv = del_v[j - 1];
            let jrow = j * wmax;
            let prow = (j - 1) * wmax;
            let jsrc = (j - szv) * wmax;
            // δ(subtree(v), subtree(w)) is `d[dbase + w · dstep]`.
            let (d, dbase, dstep) = exec.d_line(v, swapped);
            let dvw = |w: u32| {
                let x = d[dbase + w as usize * dstep];
                debug_assert!(!x.is_unset(), "D({v},{w}) read before computed");
                x
            };
            // ci == 0: S is the single subtree anchoring this family.
            let s_minus_w = if szw0 == 1 {
                col0[j]
            } else {
                kids[j * kstride + kidx0]
            };
            let mut run = (stage[prow] + dv)
                .min(s_minus_w + m_insw[0])
                .min(dvw(m_wnode[0]) + col0[j - szv]);
            // ci ≥ 1, S has ≥ 2 roots: the delete and match candidates
            // read earlier rows only, so they are one pass of independent
            // loads ahead of the insert chain, the row's one loop-carried
            // dependence (`min` is associative: a fused loop's values).
            for ci in 1..width {
                let jump = stage[jsrc + m_jump[ci] as usize];
                cand[ci] = (stage[prow + ci] + dv).min(dvw(m_wnode[ci]) + jump);
            }
            stage[jrow] = run;
            for ci in 1..width {
                run = cand[ci].min(run + m_insw[ci]);
                stage[jrow + ci] = run;
            }
            for &(ci, slot) in m_kid.iter() {
                kids[j * kstride + slot as usize] = stage[jrow + ci as usize];
            }
            cells += width as u64;
        }
        // Capture the stage's top row into the output row.
        let top = r_rows * wmax;
        if left {
            for ci in 0..width {
                out.vals[mt.pos[off + ci]] = stage[top + ci];
            }
        } else {
            out.vals.extend_from_slice(&stage[top..top + width]);
        }
    }
    exec.stats.subproblems += cells;

    out.kids.clear();
    out.kids.extend_from_slice(&kids[r_rows * kstride..]);
    out.col0 = col0[r_rows];
}

/// Runs `∆I` for the A-side subtree at `a_root` decomposed along `path`
/// (root-leaf, `path[0] == a_root`) against the B-side subtree at `b_root`.
pub(crate) fn run<L, C: CostModel<L>, T: Cell>(
    exec: &mut Gted<'_, L, C, T>,
    a_root: NodeId,
    b_root: NodeId,
    path: &[NodeId],
    swapped: bool,
) {
    debug_assert_eq!(
        path.first(),
        Some(&a_root),
        "path must start at the subtree root"
    );
    // Take all scratch from the workspace up front; the two row slots
    // rotate by swap so no stage ever allocates.
    let (mut bs, mut cur, mut spare, mut scratch) = {
        let b = T::bufs(exec.scratch());
        (
            std::mem::take(&mut b.bside),
            std::mem::take(&mut b.row_cur),
            std::mem::take(&mut b.row_spare),
            std::mem::take(&mut b.rl),
        )
    };
    let (mut children, mut add_r, mut add_l) = {
        let ws = exec.scratch();
        (
            std::mem::take(&mut ws.children),
            std::mem::take(&mut ws.add_r),
            std::mem::take(&mut ws.add_l),
        )
    };
    // GTED runs many `∆I` against one B subtree: its tables are kept.
    if exec.i_b != Some((b_root, swapped)) {
        bs.rebuild(exec, b_root, swapped);
        exec.i_b = Some((b_root, swapped));
    }
    let ta = exec.tree_a(swapped);

    // `cur` plays the role of δ(previous top row, ·), starting at δ(∅, ·).
    empty_a_row_into(&bs, &mut cur);
    for i in (0..path.len()).rev() {
        let p = path[i];
        stage_t_into(exec, &bs, p, &cur, &mut spare, swapped);
        std::mem::swap(&mut cur, &mut spare);
        if i == 0 {
            break;
        }
        let parent = path[i - 1];
        children.clear();
        children.extend(ta.children(parent));
        let t = children.iter().position(|&c| c == p).expect("path child");

        // Right siblings' nodes in ascending postorder (stage R re-adds the
        // rightmost-removed nodes in reverse removal order).
        add_r.clear();
        for &c in &children[t + 1..] {
            add_r.extend(ta.subtree_nodes(c));
        }
        // Left siblings' nodes in ascending mirror postorder.
        add_l.clear();
        for &c in children[..t].iter().rev() {
            let first_r = ta.rpost(c) + 1 - ta.size(c);
            for r in first_r..=ta.rpost(c) {
                add_l.push(ta.by_rpost(r));
            }
        }

        if !add_r.is_empty() {
            stage_rl_into(
                exec,
                &bs,
                &cur,
                &add_r,
                swapped,
                false,
                &mut scratch,
                &mut spare,
            );
            std::mem::swap(&mut cur, &mut spare);
        }
        if !add_l.is_empty() {
            stage_rl_into(
                exec,
                &bs,
                &cur,
                &add_l,
                swapped,
                true,
                &mut scratch,
                &mut spare,
            );
            std::mem::swap(&mut cur, &mut spare);
        }
    }

    let ws = exec.scratch();
    ws.children = children;
    ws.add_r = add_r;
    ws.add_l = add_l;
    let b = T::bufs(ws);
    b.bside = bs;
    b.row_cur = cur;
    b.row_spare = spare;
    b.rl = scratch;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Scale;
    use crate::cost::UnitCost;
    use rted_tree::counts::DecompCounts;
    use rted_tree::parse_bracket;

    /// Builds the B-side tables for `s` without leaking: the throwaway
    /// executor only borrows the locals for the duration of the build
    /// (`BSide` owns all its arrays).
    fn bside_for(s: &str) -> (BSide<f64>, rted_tree::Tree<String>) {
        let g = parse_bracket(s).unwrap();
        let f = parse_bracket("{x}").unwrap();
        let mut bs = BSide::default();
        let exec = Gted::new(&f, &g, &UnitCost, Scale::REAL, None);
        bs.rebuild(&exec, g.root(), false);
        drop(exec);
        (bs, g)
    }

    #[test]
    fn canonical_pair_total_matches_lemma1() {
        for s in [
            "{a}",
            "{a{b}}",
            "{a{b}{c}}",
            "{A{C}{B{G}{E{F}}{D}}}",
            "{a{b{c{d{e}}}}}",
            "{a{b}{c}{d}{e}}",
        ] {
            let (bs, g) = bside_for(s);
            let counts = DecompCounts::new(&g);
            assert_eq!(bs.total() as u64, counts.full_of(g.root()), "{s}");
            // Family lists partition the canonical pairs.
            let fam_total: usize = (1..=bs.m as u32).map(|b| bs.fam_a(b).len()).sum();
            assert_eq!(fam_total, bs.total(), "{s}");
            let fam_total_b: usize = (1..=bs.m as u32).map(|a| bs.fam_b(a).len()).sum();
            assert_eq!(fam_total_b, bs.total(), "{s}");
        }
    }

    #[test]
    fn positions_are_a_bijection() {
        let (bs, _) = bside_for("{A{C}{B{G}{E{F}}{D}}}");
        let mut seen = vec![false; bs.total()];
        for b in 1..=bs.m as u32 {
            for &a in bs.fam_a(b) {
                let p = bs.pos(a, b);
                assert!(!seen[p], "position {p} reused at ({a},{b})");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn lpost_rpost_tables_consistent() {
        let (bs, g) = bside_for("{a{b{c}{d}}{e{f}}}");
        for a in 1..=bs.m {
            let b = bs.rb[a] as usize;
            assert_eq!(bs.lb[b], a as u32);
            assert_eq!(bs.node_l[a], bs.node_r[b]);
            assert_eq!(bs.sz_l[a], bs.sz_r[b]);
        }
        // cnt grows to m at (m, m).
        assert_eq!(bs.cnt_at(bs.m as u32, bs.m as u32) as usize, bs.m);
        // cnt of a subtree's canonical pair equals its size.
        for a in 1..=bs.m as u32 {
            let b = bs.rb[a as usize];
            assert_eq!(bs.cnt_at(a, b), bs.sz_l[a as usize]);
        }
        drop(g);
    }

    #[test]
    fn empty_row_is_insert_costs() {
        let (bs, g) = bside_for("{a{b}{c{d}}}");
        let mut row = Row::default();
        empty_a_row_into(&bs, &mut row);
        assert_eq!(row.col0, 0.0);
        // Full-tree pair: inserting everything costs n under unit costs.
        let a = bs.m as u32;
        let b = bs.rb[a as usize];
        assert_eq!(row.vals[bs.pos(a, b)], g.len() as f64);
        // Children forest of the root costs n - 1.
        assert_eq!(row.kid(&bs, a), (g.len() - 1) as f64);
    }

    #[test]
    fn rebuild_reuses_capacity_across_sizes() {
        // A big build followed by a small one must leave consistent small
        // tables (stale tails from the big build are invisible).
        let g_big = parse_bracket("{A{C}{B{G}{E{F}}{D}}}").unwrap();
        let g_small = parse_bracket("{a{b}}").unwrap();
        let f = parse_bracket("{x}").unwrap();
        let mut bs = BSide::<f64>::default();
        let exec = Gted::new(&f, &g_big, &UnitCost, Scale::REAL, None);
        bs.rebuild(&exec, g_big.root(), false);
        drop(exec);
        let big_total = bs.total();
        let exec = Gted::new(&f, &g_small, &UnitCost, Scale::REAL, None);
        bs.rebuild(&exec, g_small.root(), false);
        drop(exec);
        assert_eq!(bs.m, 2);
        assert_eq!(
            bs.total() as u64,
            DecompCounts::new(&g_small).full_of(g_small.root())
        );
        assert!(bs.total() < big_total);
    }
}
