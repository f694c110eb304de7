//! Optimal edit mapping recovery and edit scripts.
//!
//! The distance algorithms report only the cost; applications (XML diff,
//! change detection — the paper's §1 motivation) need the *edit script*:
//! which nodes were deleted, inserted, or mapped (kept/renamed). This
//! module recovers an optimal mapping along the optimal trace in two
//! phases. The distance phase runs the cheapest exact kernel
//! ([`Algorithm::cheapest_exact`]): each of Zhang-L, Zhang-R and RTED
//! leaves the distance of every subtree pair behind. The backtrace then
//! refills the forest DP of each subtree pair it visits with the shared
//! keyroot sheet routine (reading those distances, writing none back) and
//! walks it from the top cell, descending into matched subtree pairs.
//! Subtree distances do not depend on the kernel that computed them, and
//! the backtrace's tie-breaking reads only sheet values, so the script is
//! the same whichever kernel ran.
//!
//! Two entry points produce an [`EditMapping`]:
//!
//! * [`edit_mapping`] — self-contained, allocates its own scratch;
//! * [`edit_mapping_in`] — draws every buffer (keyroot DP tables,
//!   forest-DP sheets, the backtrace frame stack) from a reused
//!   [`Workspace`], so a **warm call allocates only the returned script**
//!   (one `Vec` for the ops — enforced by a counting-allocator test).
//!   This is the serving layer's `diff` path.
//!
//! [`EditMapping::script`] resolves the mapping against the two trees
//! into an [`EditScript`]: ordered, label-resolved operations
//! (delete / insert / rename / keep) plus summary counts — the
//! self-contained product the CLI, the serve protocol, and the examples
//! present to users.
//!
//! A valid edit mapping `M` is a set of node pairs that is one-to-one and
//! preserves both postorder (left-to-right) order and the ancestor
//! relation; its cost is `Σ cd(v)` over unmapped `v ∈ F` + `Σ ci(w)` over
//! unmapped `w ∈ G` + `Σ cr(v, w)` over pairs — the tree edit distance is
//! the minimum over all valid mappings (Tai 1979).

use crate::cell::{with_cells, Cell, Scale};
use crate::cost::CostModel;
use crate::keyroot::{self, Ranks, SheetHooks};
use crate::rted::Algorithm;
use crate::view::SubtreeView;
use crate::workspace::Workspace;
use rted_tree::{NodeId, Tree};

/// One edit operation of a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// Delete node `v` of the first tree.
    Delete(NodeId),
    /// Insert node `w` of the second tree.
    Insert(NodeId),
    /// Map node `v` to node `w` (a rename when labels differ, otherwise a
    /// kept node).
    Map(NodeId, NodeId),
}

/// An optimal edit mapping between two trees.
#[derive(Debug, Clone, PartialEq)]
pub struct EditMapping {
    /// All operations; every node of both trees appears exactly once.
    pub ops: Vec<EditOp>,
    /// The mapping's cost (equals the tree edit distance).
    pub cost: f64,
}

impl EditMapping {
    /// The mapped pairs only.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.ops.iter().filter_map(|op| match op {
            EditOp::Map(v, w) => Some((*v, *w)),
            _ => None,
        })
    }

    /// Deleted nodes of the first tree.
    pub fn deletions(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ops.iter().filter_map(|op| match op {
            EditOp::Delete(v) => Some(*v),
            _ => None,
        })
    }

    /// Inserted nodes of the second tree.
    pub fn insertions(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ops.iter().filter_map(|op| match op {
            EditOp::Insert(w) => Some(*w),
            _ => None,
        })
    }

    /// Recomputes the cost of this mapping under `cm`.
    pub fn cost_under<L, C: CostModel<L>>(&self, f: &Tree<L>, g: &Tree<L>, cm: &C) -> f64 {
        self.ops
            .iter()
            .map(|op| match op {
                EditOp::Delete(v) => cm.delete(f.label(*v)),
                EditOp::Insert(w) => cm.insert(g.label(*w)),
                EditOp::Map(v, w) => cm.rename(f.label(*v), g.label(*w)),
            })
            .sum()
    }

    /// Resolves this mapping against the two trees into a label-carrying
    /// [`EditScript`]. A mapped pair becomes a `Rename` when the labels
    /// differ and a `Keep` otherwise — label equality, not the cost
    /// model, decides, so the classification is stable across models.
    pub fn script<L: PartialEq + std::fmt::Display>(&self, f: &Tree<L>, g: &Tree<L>) -> EditScript {
        let mut script = EditScript {
            ops: Vec::with_capacity(self.ops.len()),
            cost: self.cost,
            ..EditScript::default()
        };
        for op in &self.ops {
            script.ops.push(match op {
                EditOp::Delete(v) => {
                    script.deletes += 1;
                    ScriptOp::Delete {
                        node: v.idx(),
                        label: f.label(*v).to_string(),
                    }
                }
                EditOp::Insert(w) => {
                    script.inserts += 1;
                    ScriptOp::Insert {
                        node: w.idx(),
                        label: g.label(*w).to_string(),
                    }
                }
                EditOp::Map(v, w) => {
                    let (a, b) = (f.label(*v), g.label(*w));
                    if a == b {
                        script.keeps += 1;
                        ScriptOp::Keep {
                            from: v.idx(),
                            to: w.idx(),
                            label: a.to_string(),
                        }
                    } else {
                        script.renames += 1;
                        ScriptOp::Rename {
                            from: v.idx(),
                            to: w.idx(),
                            old: a.to_string(),
                            new: b.to_string(),
                        }
                    }
                }
            });
        }
        script
    }

    /// Checks the Tai mapping conditions: one-to-one, order-preserving,
    /// ancestor-preserving, and that every node appears exactly once.
    /// O(k²) — intended for tests and debugging.
    pub fn validate<L>(&self, f: &Tree<L>, g: &Tree<L>) -> Result<(), String> {
        let mut seen_f = vec![false; f.len()];
        let mut seen_g = vec![false; g.len()];
        let mark = |arr: &mut Vec<bool>, i: usize, side: &str| {
            if arr[i] {
                return Err(format!("{side} node {i} appears twice"));
            }
            arr[i] = true;
            Ok(())
        };
        for op in &self.ops {
            match op {
                EditOp::Delete(v) => mark(&mut seen_f, v.idx(), "F")?,
                EditOp::Insert(w) => mark(&mut seen_g, w.idx(), "G")?,
                EditOp::Map(v, w) => {
                    mark(&mut seen_f, v.idx(), "F")?;
                    mark(&mut seen_g, w.idx(), "G")?;
                }
            }
        }
        if !seen_f.iter().all(|&b| b) || !seen_g.iter().all(|&b| b) {
            return Err("some node missing from the script".into());
        }
        let pairs: Vec<(NodeId, NodeId)> = self.pairs().collect();
        for (i, &(v1, w1)) in pairs.iter().enumerate() {
            for &(v2, w2) in &pairs[i + 1..] {
                // Postorder order preservation.
                if (v1 < v2) != (w1 < w2) {
                    return Err(format!("order violated: ({v1},{w1}) vs ({v2},{w2})"));
                }
                // Ancestor preservation.
                let f_anc = f.in_subtree(v2, v1) || f.in_subtree(v1, v2);
                let g_anc = g.in_subtree(w2, w1) || g.in_subtree(w1, w2);
                let f_v1_anc_v2 = f.in_subtree(v2, v1);
                let g_w1_anc_w2 = g.in_subtree(w2, w1);
                if f_anc != g_anc || f_v1_anc_v2 != g_w1_anc_w2 {
                    return Err(format!("ancestry violated: ({v1},{w1}) vs ({v2},{w2})"));
                }
            }
        }
        Ok(())
    }
}

/// One resolved operation of an [`EditScript`]. Node ids are postorder
/// positions in the respective tree (`from`/`node` in the first tree,
/// `to`/`node` in the second).
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptOp {
    /// Remove a node of the first tree (children are promoted).
    Delete {
        /// Postorder id in the first tree.
        node: usize,
        /// The removed node's label.
        label: String,
    },
    /// Add a node of the second tree.
    Insert {
        /// Postorder id in the second tree.
        node: usize,
        /// The added node's label.
        label: String,
    },
    /// A mapped pair whose labels differ: relabel `old` to `new`.
    Rename {
        /// Postorder id in the first tree.
        from: usize,
        /// Postorder id in the second tree.
        to: usize,
        /// Label before.
        old: String,
        /// Label after.
        new: String,
    },
    /// A mapped pair with equal labels: the node survives unchanged.
    Keep {
        /// Postorder id in the first tree.
        from: usize,
        /// Postorder id in the second tree.
        to: usize,
        /// The shared label.
        label: String,
    },
}

/// A resolved edit script: ordered label-carrying operations plus summary
/// counts — the product of [`EditMapping::script`]. Self-contained (owns
/// its labels), so it can outlive the trees it was derived from; this is
/// what the serve protocol ships and the CLI prints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EditScript {
    /// All operations, left-to-right; every node of both trees appears
    /// exactly once.
    pub ops: Vec<ScriptOp>,
    /// The mapping's cost under the model it was extracted with (equals
    /// the tree edit distance).
    pub cost: f64,
    /// Number of `Delete` ops.
    pub deletes: usize,
    /// Number of `Insert` ops.
    pub inserts: usize,
    /// Number of `Rename` ops.
    pub renames: usize,
    /// Number of `Keep` ops.
    pub keeps: usize,
}

impl EditScript {
    /// Operations that actually change the tree (everything but `Keep`).
    pub fn changes(&self) -> usize {
        self.deletes + self.inserts + self.renames
    }

    /// One-line summary, e.g. `2 delete, 1 insert, 0 rename, 5 keep`.
    pub fn summary(&self) -> String {
        format!(
            "{} delete, {} insert, {} rename, {} keep",
            self.deletes, self.inserts, self.renames, self.keeps
        )
    }

    /// Human-readable script, one operation per line (the `rted diff`
    /// text format).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            match op {
                ScriptOp::Delete { label, .. } => out.push_str(&format!("delete {label}\n")),
                ScriptOp::Insert { label, .. } => out.push_str(&format!("insert {label}\n")),
                ScriptOp::Rename { old, new, .. } => {
                    out.push_str(&format!("rename {old} -> {new}\n"))
                }
                ScriptOp::Keep { label, .. } => out.push_str(&format!("keep   {label}\n")),
            }
        }
        out
    }
}

/// One frame of the iterative backtrace: a subtree pair `(x, y)` whose
/// forest DP has been materialized in the workspace sheet at this frame's
/// depth, currently backtraced at `(a, b)`. Lives in the
/// [`Workspace`] so the stack is reused across calls.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TraceFrame {
    /// Subtree roots (view-local ranks = postorder + 1).
    x: u32,
    y: u32,
    /// Leftmost leaves of the two subtrees.
    lx: u32,
    ly: u32,
    /// Current backtrace position.
    a: u32,
    b: u32,
}

/// The read-only inputs of the backtrace, left in the workspace by the
/// distance phase: the subtree-distance matrix and the per-rank leftmost
/// leaves and delete/insert costs of both trees' left views (ranks are
/// postorder + 1).
struct TraceCtx<'a, L, C, T> {
    f: &'a Tree<L>,
    g: &'a Tree<L>,
    cm: &'a C,
    sc: Scale<T>,
    /// The subtree distances: δ(x, y) at `x · stride + y − skip`.
    td: &'a [T],
    stride: usize,
    skip: usize,
    a: &'a Ranks<T>,
    b: &'a Ranks<T>,
}

impl<L, C: CostModel<L>, T: Cell> TraceCtx<'_, L, C, T> {
    #[inline]
    fn td_at(&self, x: u32, y: u32) -> T {
        self.td[x as usize * self.stride + y as usize - self.skip]
    }
}

/// The backtrace refills a sheet from the finished subtree distances and
/// writes none back.
impl<L, C: CostModel<L>, T: Cell> SheetHooks<T> for TraceCtx<'_, L, C, T> {
    #[inline]
    fn rename(&self, x: u32, y: u32) -> T {
        self.sc.cell(
            self.cm
                .rename(self.f.label(NodeId(x - 1)), self.g.label(NodeId(y - 1))),
        )
    }

    #[inline]
    fn td_row<'s>(&'s self, x: u32, lj: u32, _j: u32, _buf: &'s mut Vec<T>) -> &'s [T] {
        &self.td[x as usize * self.stride + lj as usize - self.skip..]
    }

    #[inline]
    fn set_td(&mut self, _x: u32, _y: u32, _v: T) {}
}

/// Re-runs the forest DP for the subtree pair `(x, y)` into the pooled
/// sheet at depth `frames.len()` and pushes the frame, positioned at its
/// top cell. Returns the number of DP cells computed.
fn push_frame<L, C: CostModel<L>, T: Cell>(
    cx: &mut TraceCtx<'_, L, C, T>,
    sheets: &mut Vec<Vec<T>>,
    frames: &mut Vec<TraceFrame>,
    rows: &mut keyroot::Rows<T>,
    x: u32,
    y: u32,
) -> u64 {
    let depth = frames.len();
    if sheets.len() == depth {
        sheets.push(Vec::new());
    }
    let (a, b) = (cx.a, cx.b);
    let fd = &mut sheets[depth];
    let (cells, _) = keyroot::sheet(cx, a, b, (x, y), None, fd, rows);
    let (lx, ly) = (a.lml[x as usize], b.lml[y as usize]);
    let corner = (x - lx + 2) as usize * (y - ly + 2) as usize - 1;
    debug_assert!(T::tie(fd[corner], cx.td_at(x, y)), "trace DP mismatch");
    frames.push(TraceFrame {
        x,
        y,
        lx,
        ly,
        a: x,
        b: y,
    });
    cells
}

/// The backtrace driver: walks the frame stack, emitting one operation
/// per step (in right-to-left order — the caller reverses). A
/// subtree-match transition suspends the current frame at its resume
/// position and descends into a child frame; the parent's sheet stays
/// live in its pool slot until the child (and its descendants) finish.
/// A step is co-optimal when [`Cell::tie`] says so: equality on `u32`
/// cells, a 10⁻⁹ relative tolerance on `f64` ones.
fn backtrace<L, C: CostModel<L>, T: Cell>(
    cx: &mut TraceCtx<'_, L, C, T>,
    sheets: &mut Vec<Vec<T>>,
    frames: &mut Vec<TraceFrame>,
    rows: &mut keyroot::Rows<T>,
    ops: &mut Vec<EditOp>,
) -> u64 {
    frames.clear();
    let (nf, ng) = (cx.f.len() as u32, cx.g.len() as u32);
    let mut cells = push_frame(cx, sheets, frames, rows, nf, ng);
    'frames: while let Some(fi) = frames.len().checked_sub(1) {
        let TraceFrame {
            x,
            y,
            lx,
            ly,
            mut a,
            mut b,
        } = frames[fi];
        loop {
            if a < lx && b < ly {
                frames.pop();
                continue 'frames;
            }
            if a < lx {
                for j in ly..=b {
                    ops.push(EditOp::Insert(NodeId(j - 1)));
                }
                frames.pop();
                continue 'frames;
            }
            if b < ly {
                for i in lx..=a {
                    ops.push(EditOp::Delete(NodeId(i - 1)));
                }
                frames.pop();
                continue 'frames;
            }
            let sheet = &sheets[fi];
            let w = (y - ly + 2) as usize;
            let at = |a: u32, b: u32| ((a + 1 - lx) as usize) * w + (b + 1 - ly) as usize;
            let cur = sheet[at(a, b)];
            if T::tie(cur, sheet[at(a - 1, b)] + cx.a.cost[a as usize]) {
                ops.push(EditOp::Delete(NodeId(a - 1)));
                a -= 1;
                continue;
            }
            if T::tie(cur, sheet[at(a, b - 1)] + cx.b.cost[b as usize]) {
                ops.push(EditOp::Insert(NodeId(b - 1)));
                b -= 1;
                continue;
            }
            let la = cx.a.lml[a as usize];
            let lb = cx.b.lml[b as usize];
            if la == lx && lb == ly {
                debug_assert!(T::tie(cur, sheet[at(a - 1, b - 1)] + cx.rename(a, b)));
                ops.push(EditOp::Map(NodeId(a - 1), NodeId(b - 1)));
                a -= 1;
                b -= 1;
                continue;
            }
            debug_assert!(T::tie(cur, sheet[at(la - 1, lb - 1)] + cx.td_at(a, b)));
            // Cannot be the frame's own root: there la == lx && lb == ly.
            debug_assert!(!(a == x && b == y), "subtree match at the DP origin");
            // Suspend this frame at its resume position, descend into the
            // matched subtree pair.
            frames[fi].a = la - 1;
            frames[fi].b = lb - 1;
            cells += push_frame(cx, sheets, frames, rows, a, b);
            continue 'frames;
        }
    }
    cells
}

/// Computes an optimal edit mapping, drawing **all** scratch — the
/// distance kernel's DP, the backtrace's forest-DP sheets, and the frame
/// stack — from `ws`. The distance phase runs
/// [`Algorithm::cheapest_exact`]. A warm call (same or smaller pair
/// through the same workspace) allocates only the returned script's ops
/// vector; this is the serving layer's `diff` hot path. Results are
/// identical to [`edit_mapping`].
pub fn edit_mapping_in<L, C: CostModel<L>>(
    f: &Tree<L>,
    g: &Tree<L>,
    cm: &C,
    ws: &mut Workspace,
) -> EditMapping {
    edit_mapping_with(f, g, cm, Algorithm::cheapest_exact(f, g), ws)
}

/// [`edit_mapping_in`] with the distance phase run by `kernel`. Every
/// exact algorithm leaves all subtree distances behind, so the mapping
/// does not depend on `kernel`; only the work does.
pub(crate) fn edit_mapping_with<L, C: CostModel<L>>(
    f: &Tree<L>,
    g: &Tree<L>,
    cm: &C,
    kernel: Algorithm,
    ws: &mut Workspace,
) -> EditMapping {
    with_cells!(f, g, cm, |sc| trace(f, g, cm, kernel, ws, sc))
}

/// [`edit_mapping_with`] on `T` cells: the distance phase, then the
/// backtrace over the `T` subtree distances it left.
fn trace<L, C: CostModel<L>, T: Cell>(
    f: &Tree<L>,
    g: &Tree<L>,
    cm: &C,
    kernel: Algorithm,
    ws: &mut Workspace,
    sc: Scale<T>,
) -> EditMapping {
    let run = kernel.compute_cells(f, g, cm, ws, sc);
    let (nf, ng) = (f.len(), g.len());
    let mut frames = std::mem::take(&mut ws.trace_frames);
    let b = T::bufs(ws);
    let kr = &mut b.keyroot;
    if kernel != Algorithm::ZhangL {
        // Only Zhang-L leaves the left views' ranks loaded.
        let (ftab, gtab) = (&b.ftab, &b.gtab);
        kr.a.load(&SubtreeView::new(f, f.root(), false), |v| ftab.del[v.idx()]);
        kr.b.load(&SubtreeView::new(g, g.root(), false), |w| gtab.ins[w.idx()]);
    }
    // Where the kernel left δ(x, y), as (matrix, stride, skip).
    let (td, stride, skip): (&[T], usize, usize) = match kernel {
        Algorithm::ZhangL => (&b.d, ng + 1, 0),
        Algorithm::ZhangR => {
            // Zhang-R's `td` is indexed by mirror ranks. Reorder it into
            // left ranks once, in the buffer of its root pair's sheet,
            // which the run left (|F| + 1) · (|G| + 1) long and done with.
            let w = ng + 1;
            kr.fd.resize(kr.fd.len().max((nf + 1) * w), T::ZERO);
            for x in 1..=nf {
                let xr = f.rpost(NodeId(x as u32 - 1)) as usize + 1;
                let src = &b.d[xr * w..(xr + 1) * w];
                for (y, cell) in kr.fd[x * w + 1..(x + 1) * w].iter_mut().enumerate() {
                    *cell = src[g.rpost(NodeId(y as u32)) as usize + 1];
                }
            }
            (&kr.fd, w, 0)
        }
        // GTED's `D`, row-major `[v][w]` by postorder id = rank − 1.
        _ => (&b.d, ng, ng + 1),
    };
    let mut ops = Vec::with_capacity(nf + ng);
    // Disjoint field borrows: the DP products the kernel left in the
    // workspace are read-only inputs; the sheets, frames and sheet rows
    // are the only mutable scratch.
    let mut cx = TraceCtx {
        f,
        g,
        cm,
        sc,
        td,
        stride,
        skip,
        a: &kr.a,
        b: &kr.b,
    };
    let trace_cells = backtrace(
        &mut cx,
        &mut b.trace_sheets,
        &mut frames,
        &mut kr.rows,
        &mut ops,
    );
    ops.reverse(); // backtrace emits from the right; present left-to-right
    ws.trace_frames = frames;
    ws.note_run(run.subproblems + trace_cells);
    EditMapping {
        ops,
        cost: run.distance,
    }
}

/// Computes an optimal edit mapping (and its cost, the tree edit distance).
///
/// Runs the cheapest exact kernel once for the subtree distances, then
/// backtraces. For integer-valued cost models (including
/// [`crate::UnitCost`]) the result is exact; for general `f64` costs the
/// backtrace uses a small tolerance.
///
/// This is a thin wrapper over [`edit_mapping_in`] with a throwaway
/// [`Workspace`]; callers extracting many mappings should hold a
/// workspace and call the `_in` variant.
///
/// ```
/// use rted_core::mapping::{edit_mapping, EditOp};
/// use rted_core::UnitCost;
/// use rted_tree::parse_bracket;
///
/// let f = parse_bracket("{a{b}{c}}").unwrap();
/// let g = parse_bracket("{a{c}}").unwrap();
/// let m = edit_mapping(&f, &g, &UnitCost);
/// assert_eq!(m.cost, 1.0);
/// assert_eq!(m.pairs().count(), 2); // a→a, c→c
/// ```
pub fn edit_mapping<L, C: CostModel<L>>(f: &Tree<L>, g: &Tree<L>, cm: &C) -> EditMapping {
    edit_mapping_in(f, g, cm, &mut Workspace::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{PerLabelCost, UnitCost};
    use rted_tree::parse_bracket;

    fn mapping(a: &str, b: &str) -> (EditMapping, Tree<String>, Tree<String>) {
        let f = parse_bracket(a).unwrap();
        let g = parse_bracket(b).unwrap();
        let m = edit_mapping(&f, &g, &UnitCost);
        (m, f, g)
    }

    #[test]
    fn identity_mapping() {
        let (m, f, g) = mapping("{a{b}{c{d}}}", "{a{b}{c{d}}}");
        assert_eq!(m.cost, 0.0);
        assert_eq!(m.pairs().count(), 4);
        m.validate(&f, &g).unwrap();
        assert_eq!(m.cost_under(&f, &g, &UnitCost), 0.0);
    }

    #[test]
    fn single_delete() {
        let (m, f, g) = mapping("{a{b}{c}}", "{a{c}}");
        assert_eq!(m.cost, 1.0);
        m.validate(&f, &g).unwrap();
        assert_eq!(m.deletions().count(), 1);
        assert_eq!(m.insertions().count(), 0);
        // The deleted node is b (postorder id 0).
        assert_eq!(m.deletions().next(), Some(NodeId(0)));
    }

    #[test]
    fn rename_detected() {
        let (m, f, g) = mapping("{a{b}{c}}", "{a{b}{x}}");
        assert_eq!(m.cost, 1.0);
        m.validate(&f, &g).unwrap();
        // c (id 1) maps to x (id 1) as a rename.
        assert!(m.pairs().any(|(v, w)| v == NodeId(1) && w == NodeId(1)));
    }

    #[test]
    fn inner_delete_promotes_children() {
        let (m, f, g) = mapping("{a{b{c}{d}}}", "{a{c}{d}}");
        assert_eq!(m.cost, 1.0);
        m.validate(&f, &g).unwrap();
        // b deleted; c and d mapped.
        assert_eq!(m.pairs().count(), 3);
    }

    #[test]
    fn script_cost_matches_distance_on_random_trees() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Random trees via random attachment in postorder-safe form.
            let n1 = rng.random_range(1..28usize);
            let n2 = rng.random_range(1..28usize);
            let mk = |n: usize, rng: &mut StdRng| {
                let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
                for i in 1..n {
                    let p = rng.random_range(0..i) as u32;
                    children[p as usize].push(i as u32);
                }
                let mut degrees = Vec::with_capacity(n);
                let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
                while let Some(&mut (v, ref mut i)) = stack.last_mut() {
                    let ch = &children[v as usize];
                    if *i < ch.len() {
                        let c = ch[*i];
                        *i += 1;
                        stack.push((c, 0));
                    } else {
                        degrees.push(ch.len() as u32);
                        stack.pop();
                    }
                }
                let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..4u32)).collect();
                Tree::from_postorder_degrees(labels, &degrees).unwrap()
            };
            let f = mk(n1, &mut rng);
            let g = mk(n2, &mut rng);
            let m = edit_mapping(&f, &g, &UnitCost);
            let want = crate::zs::zs_distance(&f, &g, &UnitCost);
            assert_eq!(m.cost, want, "seed {seed}");
            assert_eq!(m.cost_under(&f, &g, &UnitCost), want, "seed {seed}");
            m.validate(&f, &g)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn weighted_model_script() {
        let f = parse_bracket("{a{b}}").unwrap();
        let g = parse_bracket("{a{x}}").unwrap();
        // Rename cheap: map b→x.
        let cheap = PerLabelCost::new(1.0, 1.0, 0.25);
        let m = edit_mapping(&f, &g, &cheap);
        assert_eq!(m.cost, 0.25);
        assert_eq!(m.pairs().count(), 2);
        // Rename expensive: delete + insert instead.
        let dear = PerLabelCost::new(1.0, 1.0, 5.0);
        let m = edit_mapping(&f, &g, &dear);
        assert_eq!(m.cost, 2.0);
        assert_eq!(m.pairs().count(), 1); // only the roots map
        m.validate(&f, &g).unwrap();
    }

    #[test]
    fn every_node_accounted_once() {
        let (m, f, g) = mapping("{a{b{c}{d}}{e}}", "{x{y}{z{q{r}}}}");
        let total = m.ops.len();
        let mapped = m.pairs().count();
        assert_eq!(total, f.len() + g.len() - mapped);
        m.validate(&f, &g).unwrap();
    }

    #[test]
    fn reused_workspace_matches_fresh_per_pair() {
        // One workspace threaded through pairs of very different sizes
        // and both cost models must reproduce the self-contained result
        // exactly — ops and cost.
        let pairs = [
            ("{a{b}{c{d}}}", "{a{b{d}}{c}}"),
            ("{a}", "{x{y}{z{w{q}}}}"),
            ("{a{b{c}{d}}{e}}", "{x{y}{z{q{r}}}}"),
            ("{r{a{x}}{b}}", "{r{a}{b{x}}}"),
        ];
        let asym = PerLabelCost::new(1.5, 2.0, 0.75);
        let mut ws = Workspace::new();
        for (a, b) in pairs {
            let f: Tree<String> = parse_bracket(a).unwrap();
            let g: Tree<String> = parse_bracket(b).unwrap();
            let fresh = edit_mapping(&f, &g, &UnitCost);
            let reused = edit_mapping_in(&f, &g, &UnitCost, &mut ws);
            assert_eq!(reused, fresh, "{a} vs {b}");
            let fresh = edit_mapping(&f, &g, &asym);
            let reused = edit_mapping_in(&f, &g, &asym, &mut ws);
            assert_eq!(reused, fresh, "{a} vs {b} (asym)");
            reused.validate(&f, &g).unwrap();
            assert!(f64::tie(reused.cost_under(&f, &g, &asym), reused.cost));
        }
    }

    #[test]
    fn deep_nesting_reuses_pooled_sheets() {
        // A pair whose backtrace descends through nested subtree matches
        // (several live frames at once), run twice through one workspace:
        // the sheet pool must hold one sheet per live depth and the
        // second run must agree with the first.
        let f: Tree<String> =
            parse_bracket("{r{s{a{b}{c}}{d}}{t{a{b}{c}}{e}}{u{a{b}{c}}}}").unwrap();
        let g: Tree<String> =
            parse_bracket("{r{s{a{b}{c}}}{t{a{b}{x}}{e}}{v{a{b}{c}}{q}}}").unwrap();
        let mut ws = Workspace::new();
        let first = edit_mapping_in(&f, &g, &UnitCost, &mut ws);
        first.validate(&f, &g).unwrap();
        assert_eq!(first.cost, crate::zs::zs_distance(&f, &g, &UnitCost));
        let second = edit_mapping_in(&f, &g, &UnitCost, &mut ws);
        assert_eq!(second, first);
    }

    #[test]
    fn script_resolves_labels_and_counts() {
        let (m, f, g) = mapping("{a{b}{c}}", "{a{b}{x}{d}}");
        let s = m.script(&f, &g);
        assert_eq!(s.cost, m.cost);
        assert_eq!(s.deletes + s.inserts + s.renames + s.keeps, s.ops.len());
        assert_eq!(s.ops.len(), f.len() + g.len() - m.pairs().count());
        // b and a survive; c→x renames or c deletes + x inserts — either
        // way d is inserted and the counts foot with the cost.
        assert!(s
            .ops
            .iter()
            .any(|op| matches!(op, ScriptOp::Insert { label, .. } if label == "d")));
        assert_eq!(
            s.deletes as f64 + s.inserts as f64 + s.renames as f64,
            s.cost
        );
        assert_eq!(s.changes(), s.deletes + s.inserts + s.renames);
        // Text rendering mentions every op on its own line.
        let text = s.render_text();
        assert_eq!(text.lines().count(), s.ops.len());
        assert!(text.contains("keep   a"));
        assert!(text.contains("insert d"));
        assert_eq!(
            s.summary(),
            format!(
                "{} delete, {} insert, {} rename, {} keep",
                s.deletes, s.inserts, s.renames, s.keeps
            )
        );
    }

    /// A tree of `labels.len()` nodes: node `i ≥ 1` hangs under one of
    /// the `reach` nodes inserted just before it (`reach = 1` is a chain,
    /// a large `reach` uniform random attachment).
    fn reach_tree(labels: &[u8], picks: &[u32], reach: u32) -> Tree<u8> {
        let parents: Vec<u32> = (1..labels.len() as u32)
            .map(|i| i - 1 - picks[i as usize - 1] % Ord::min(reach, i))
            .collect();
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); labels.len()];
        for (i, &p) in parents.iter().enumerate() {
            children[p as usize].push(i as u32 + 1);
        }
        // Postorder: children before parents, siblings left to right.
        let mut post_labels = Vec::with_capacity(labels.len());
        let mut degrees = Vec::with_capacity(labels.len());
        let mut stack = vec![(0u32, 0usize)];
        while let Some((v, k)) = stack.pop() {
            if let Some(&c) = children[v as usize].get(k) {
                stack.push((v, k + 1));
                stack.push((c, 0));
            } else {
                post_labels.push(labels[v as usize]);
                degrees.push(k as u32);
            }
        }
        Tree::from_postorder_degrees(post_labels, &degrees).unwrap()
    }

    fn arb_shape(max: usize) -> impl proptest::strategy::Strategy<Value = Tree<u8>> {
        use proptest::prelude::*;
        (2..=max, 1..=max as u32).prop_flat_map(|(n, reach)| {
            (
                proptest::collection::vec(0u8..3, n),
                proptest::collection::vec(any::<u32>(), n - 1),
            )
                .prop_map(move |(labels, picks)| reach_tree(&labels, &picks, reach))
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The distance phase's kernel changes only the work: every exact
        /// algorithm's subtree distances give the same ops as Zhang-L's,
        /// and the rule's pick gives the same as all of them.
        #[test]
        fn ops_do_not_depend_on_the_distance_kernel(f in arb_shape(36), g in arb_shape(36)) {
            let asym = PerLabelCost::new(1.5, 2.0, 0.75);
            let mut ws = Workspace::new();
            for (a, b) in [(&f, &g), (&g, &f)] {
                let want = edit_mapping_with(a, b, &UnitCost, Algorithm::ZhangL, &mut ws);
                let want_asym = edit_mapping_with(a, b, &asym, Algorithm::ZhangL, &mut ws);
                for kernel in Algorithm::ALL {
                    let got = edit_mapping_with(a, b, &UnitCost, kernel, &mut ws);
                    proptest::prop_assert_eq!(&got, &want, "{} (unit)", kernel);
                    let got = edit_mapping_with(a, b, &asym, kernel, &mut ws);
                    proptest::prop_assert_eq!(&got, &want_asym, "{} (asym)", kernel);
                }
                proptest::prop_assert_eq!(&edit_mapping_in(a, b, &UnitCost, &mut ws), &want);
                proptest::prop_assert_eq!(&edit_mapping_in(a, b, &asym, &mut ws), &want_asym);
            }
        }
    }

    #[test]
    fn identity_script_is_all_keeps() {
        let (m, f, g) = mapping("{a{b}{c{d}}}", "{a{b}{c{d}}}");
        let s = m.script(&f, &g);
        assert_eq!(s.keeps, 4);
        assert_eq!(s.changes(), 0);
        assert_eq!(s.render_text(), "keep   b\nkeep   d\nkeep   c\nkeep   a\n");
    }
}
