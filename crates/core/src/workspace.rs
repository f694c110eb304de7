//! Reusable scratch memory for the TED hot path.
//!
//! Every distance computation needs the same family of buffers: the
//! subtree-distance matrix, per-tree cost tables, the GTED work stack, the
//! keyroot sheet with its per-rank rows, and the `∆I` rows and tables. A
//! [`Workspace`] owns one instance of each — the DP-cell buffers once per
//! cell type, `f64` and `u32` (see [`CostModel::unit`](crate::CostModel::unit)),
//! of which a call uses one — handed out by `mem::take` and
//! returned when the borrowing phase finishes. Buffers are only ever
//! **length-reset** (`clear` + `resize`), never freed, so the second and
//! every later computation through the same workspace performs **zero heap
//! allocations** — each buffer is bound to one fixed use site, execution is
//! deterministic, and `Vec` capacity is monotone, so a repeated input meets
//! a buffer that is already big enough at every step.
//!
//! Entry points that accept a workspace:
//!
//! * [`Executor::with_workspace`](crate::gted::Executor::with_workspace) —
//!   a GTED execution borrowing its matrix and scratch from the workspace;
//! * [`Algorithm::run_in`](crate::rted::Algorithm::run_in) — any of the
//!   five algorithms, allocation-free after warm-up;
//! * [`compute_strategy_in`](crate::strategy::compute_strategy_in) — the
//!   row-recycled strategy computation.
//!
//! One workspace serves arbitrarily many pairs (sizes may vary — buffers
//! grow to the largest pair seen) but only one computation at a time:
//! every entry point takes `&mut Workspace`, so concurrent use is ruled
//! out by borrowing. Give each worker thread its own workspace (the index
//! crate's `WorkspacePool` does exactly that).

use crate::cell::Cell;
use crate::cost::CostTables;
use rted_tree::counts::DecompCounts;
use rted_tree::NodeId;

/// Bytes `v` holds.
pub(crate) fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Slot sentinel for the strategy row pool.
pub(crate) const NO_ROW: u32 = u32::MAX;

/// Scratch buffers of the heavy-path single-path function `∆I` whose
/// lifetime is one `stage_rl` invocation.
#[derive(Debug, Default)]
pub(crate) struct RlScratch<T> {
    /// δ(F-row, ∅) per re-addition row.
    pub col0: Vec<T>,
    /// Per-row children-forest values, `(rows + 1) × (m + 1)`.
    pub kids: Vec<T>,
    /// Subtree size per re-added node.
    pub sz_v: Vec<u32>,
    /// Delete cost per re-added node.
    pub del_v: Vec<T>,
    /// The family-sliced DP sheet, `(rows + 1) × wmax`.
    pub stage: Vec<T>,
    /// Per row, the minimum of each member's delete and match candidates,
    /// computed before the sequential insert chain.
    pub cand: Vec<T>,
}

impl<T> RlScratch<T> {
    fn capacity_bytes(&self) -> usize {
        bytes(&self.col0)
            + bytes(&self.kids)
            + bytes(&self.sz_v)
            + bytes(&self.del_v)
            + bytes(&self.stage)
            + bytes(&self.cand)
    }
}

/// One DP row of `∆I`: δ(fixed A-forest, ·) over all canonical B-forests.
///
/// Lives in the workspace so the two row slots (`current` and `spare`)
/// rotate by `mem::swap` instead of reallocating per stage.
#[derive(Debug, Default)]
pub(crate) struct Row<T> {
    /// Values per canonical pair, family-`b` layout.
    pub vals: Vec<T>,
    /// `kids[a]` = δ(row forest, children-forest of node with local lpost
    /// `a`); meaningful for non-leaf nodes only.
    pub kids: Vec<T>,
    /// δ(row forest, empty forest).
    pub col0: T,
}

/// The buffers of a [`Workspace`] that hold DP cells or costs, for one
/// cell type.
#[derive(Debug, Default)]
pub(crate) struct Bufs<T> {
    /// Subtree distance matrix: GTED's `D`, row-major `[v_F][w_G]`, or
    /// Zhang–Shasha's view-local `td`.
    pub d: Vec<T>,
    /// Cost tables of the left-hand tree.
    pub ftab: CostTables<T>,
    /// Cost tables of the right-hand tree.
    pub gtab: CostTables<T>,
    /// Keyroot sheet scratch (Zhang–Shasha, `∆L`/`∆R`, bounded; the
    /// mapping backtrace reads both trees' left-view per-rank rows here).
    pub keyroot: crate::keyroot::Scratch<T>,
    /// The precomputed `∆I` B-side canonical-forest tables.
    pub bside: crate::spf_i::BSide<T>,
    /// Current top row of the `∆I` period DP.
    pub row_cur: Row<T>,
    /// Spare row rotated in by `mem::swap` at every stage.
    pub row_spare: Row<T>,
    pub rl: RlScratch<T>,
    /// Forest-DP sheet pool for the mapping backtrace: sheet `i` belongs
    /// to the frame at nesting depth `i` of the subtree-match recursion
    /// (a parent's sheet stays live while its children are traced, so one
    /// shared sheet is not enough). Slots are never freed and only ever
    /// grow, so slot capacity is monotone and a repeated
    /// pair meets sheets that are already big enough — the same
    /// order-independence discipline as the strategy row pool.
    pub trace_sheets: Vec<Vec<T>>,
}

impl<T: Cell> Bufs<T> {
    fn capacity_bytes(&self) -> usize {
        bytes(&self.d)
            + self.ftab.capacity_bytes()
            + self.gtab.capacity_bytes()
            + self.keyroot.capacity_bytes()
            + self.bside.capacity_bytes()
            + [&self.row_cur, &self.row_spare]
                .iter()
                .map(|r| bytes(&r.vals) + bytes(&r.kids))
                .sum::<usize>()
            + self.rl.capacity_bytes()
            + bytes(&self.trace_sheets)
            + self.trace_sheets.iter().map(bytes).sum::<usize>()
    }
}

/// Reusable scratch memory for TED computations (see the module docs).
///
/// `Default`/[`Workspace::new`] build an empty workspace; buffers grow on
/// first use and are retained for the workspace's lifetime.
#[derive(Debug, Default)]
pub struct Workspace {
    // ---- DP cells and costs, per cell type.
    pub(crate) wide: Bufs<f64>,
    pub(crate) narrow: Bufs<u32>,

    // ---- executor state (driver stack).
    /// GTED work stack: `(v, w, code)` with `code == EXPAND` or an spf
    /// path-choice code.
    pub(crate) stack: Vec<(u32, u32, u8)>,
    /// Relevant-subtree scratch for strategy expansion.
    pub(crate) subs: Vec<NodeId>,
    /// Root-leaf path scratch for `∆I` dispatch.
    pub(crate) path: Vec<NodeId>,

    // ---- `∆I` scratch.
    /// Children of the current path node.
    pub(crate) children: Vec<NodeId>,
    /// Right siblings' nodes in re-addition order.
    pub(crate) add_r: Vec<NodeId>,
    /// Left siblings' nodes in re-addition order.
    pub(crate) add_l: Vec<NodeId>,

    // ---- strategy (Algorithm 2) scratch.
    pub(crate) counts_f: DecompCounts,
    pub(crate) counts_g: DecompCounts,
    pub(crate) froles: Vec<u8>,
    pub(crate) groles: Vec<u8>,
    pub(crate) lw: Vec<u64>,
    pub(crate) rw: Vec<u64>,
    pub(crate) hw: Vec<u64>,
    /// Row pool: interleaved `[L, R, H]` cost sums, one live row per
    /// F-node that has started accumulating child contributions.
    pub(crate) rows: Vec<Vec<u64>>,
    /// Free slots of `rows`.
    pub(crate) row_free: Vec<u32>,
    /// F-node → `rows` slot (`NO_ROW` when the node has no live row).
    pub(crate) row_of: Vec<u32>,
    /// High-water row width (`3 · |G|` over all runs): every pooled row
    /// is kept grown to this capacity, and new rows are born with it, so
    /// the pool's warm state is independent of the order pairs were
    /// served in. Without it, which under-sized recycled row a node pops
    /// depends on acquisition history, and a long-lived workspace serving
    /// mixed tree sizes keeps re-growing rows long after every size has
    /// been seen once — stray allocations a serving layer's zero-alloc
    /// contract trips over.
    pub(crate) row_width: usize,
    /// All-zeros stand-in row for leaves (which never accumulate).
    pub(crate) zero_row: Vec<u64>,
    /// Recyclable storage for [`Strategy::choices`]; taken by
    /// `compute_strategy_in`, returned via [`Workspace::recycle`].
    pub(crate) choices: Vec<u8>,

    // ---- edit-mapping backtrace scratch (see `mapping::edit_mapping_in`).
    /// Explicit frame stack of the backtrace (replaces recursion, so the
    /// per-level state lives here instead of on the call stack).
    pub(crate) trace_frames: Vec<crate::mapping::TraceFrame>,

    // ---- lifetime counters (observability).
    /// TED computations served by this workspace over its lifetime.
    pub(crate) ted_runs: u64,
    /// Relevant subproblems computed across all runs.
    pub(crate) subproblems_total: u64,
}

/// Lifetime counters of one [`Workspace`], for observability.
///
/// Plain values read with `&self` — the workspace is single-threaded by
/// construction (every entry point takes `&mut Workspace`), so these are
/// ordinary integers, not atomics. A serving layer that pools workspaces
/// across workers reads each worker's counters and *feeds the deltas
/// upward* into its shared metrics after each request, instead of core
/// publishing through process-global state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// TED computations served by this workspace ([`Algorithm::run_in`]
    /// calls, including strategy-only reruns). Growth beyond the first
    /// run measures workspace *reuse* — runs answered from warm buffers.
    ///
    /// [`Algorithm::run_in`]: crate::rted::Algorithm::run_in
    pub ted_runs: u64,
    /// Relevant subproblems (DP cells) computed across all runs.
    pub subproblems: u64,
    /// Peak number of live strategy rows ever pooled (see
    /// [`Workspace::strategy_rows_peak`]).
    pub strategy_rows_peak: usize,
}

impl Workspace {
    /// An empty workspace; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Returns a [`Strategy`](crate::strategy::Strategy)'s choice matrix to
    /// the workspace so the next
    /// [`compute_strategy_in`](crate::strategy::compute_strategy_in) call
    /// reuses its allocation.
    pub fn recycle(&mut self, strategy: crate::strategy::Strategy) {
        self.choices = strategy.into_choices();
    }

    /// Peak number of live strategy rows ever pooled — the `O(n)` (in
    /// practice: tree-depth-ish) row count the recycled Algorithm 2 keeps
    /// instead of the dense `n_F` rows. Exposed for tests and diagnostics.
    pub fn strategy_rows_peak(&self) -> usize {
        self.rows.len()
    }

    /// Bytes this workspace's buffers hold, by capacity: what it keeps
    /// allocated between calls. Buffers only grow, so this is the high
    /// water mark of the pairs served so far.
    pub fn capacity_bytes(&self) -> usize {
        self.wide.capacity_bytes()
            + self.narrow.capacity_bytes()
            + bytes(&self.stack)
            + bytes(&self.subs)
            + bytes(&self.path)
            + bytes(&self.children)
            + bytes(&self.add_r)
            + bytes(&self.add_l)
            + [&self.counts_f, &self.counts_g]
                .iter()
                .map(|c| bytes(&c.sum_sizes) + bytes(&c.full) + bytes(&c.left) + bytes(&c.right))
                .sum::<usize>()
            + bytes(&self.froles)
            + bytes(&self.groles)
            + bytes(&self.lw)
            + bytes(&self.rw)
            + bytes(&self.hw)
            + bytes(&self.rows)
            + self.rows.iter().map(bytes).sum::<usize>()
            + bytes(&self.row_free)
            + bytes(&self.row_of)
            + bytes(&self.zero_row)
            + bytes(&self.choices)
            + bytes(&self.trace_frames)
    }

    /// This workspace's lifetime counters (see [`WorkspaceStats`]).
    pub fn lifetime_stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            ted_runs: self.ted_runs,
            subproblems: self.subproblems_total,
            strategy_rows_peak: self.rows.len(),
        }
    }

    /// Folds one completed run into the lifetime counters. Called by
    /// [`Algorithm::run_in`](crate::rted::Algorithm::run_in); plain
    /// integer adds, so the zero-allocation contract is untouched.
    #[inline]
    pub(crate) fn note_run(&mut self, subproblems: u64) {
        self.ted_runs += 1;
        self.subproblems_total += subproblems;
    }
}
