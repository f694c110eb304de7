//! Reusable scratch memory for the TED hot path.
//!
//! Every distance computation needs the same family of buffers: the
//! subtree-distance matrix, per-tree cost tables, the GTED work stack, the
//! keyroot sheet with its per-rank rows, and the `∆I` rows and tables. A
//! [`Workspace`] owns one instance of each, handed out by `mem::take` and
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

use crate::cost::CostTables;
use rted_tree::counts::DecompCounts;
use rted_tree::NodeId;

/// Slot sentinel for the strategy row pool.
pub(crate) const NO_ROW: u32 = u32::MAX;

/// Scratch buffers of the heavy-path single-path function `∆I` whose
/// lifetime is one `stage_rl` invocation.
#[derive(Debug, Default)]
pub(crate) struct RlScratch {
    /// δ(F-row, ∅) per re-addition row.
    pub col0: Vec<f64>,
    /// Per-row children-forest values, `(rows + 1) × (m + 1)`.
    pub kids: Vec<f64>,
    /// Subtree size per re-added node.
    pub sz_v: Vec<u32>,
    /// Delete cost per re-added node.
    pub del_v: Vec<f64>,
    /// The family-sliced DP sheet, `(rows + 1) × wmax`.
    pub stage: Vec<f64>,
    /// Per-family member tables, invariant across the re-addition rows:
    /// extreme-root node id, insert cost, jump column, and children-forest
    /// slot (`u32::MAX` when the member feeds no slot). Hoisted out of the
    /// row loop so the per-cell work is branch-free table reads.
    pub m_wnode: Vec<u32>,
    pub m_insw: Vec<f64>,
    pub m_jump: Vec<u32>,
    pub m_kid: Vec<u32>,
    /// Delete-stream row: `stage[prev row] + del(v)` bulk-computed per row
    /// as a pure min/add stream before the sequential pass.
    pub cand: Vec<f64>,
}

/// One DP row of `∆I`: δ(fixed A-forest, ·) over all canonical B-forests.
///
/// Lives in the workspace so the two row slots (`current` and `spare`)
/// rotate by `mem::swap` instead of reallocating per stage.
#[derive(Debug, Default)]
pub(crate) struct Row {
    /// Values per canonical pair, family-`b` layout.
    pub vals: Vec<f64>,
    /// `kids[a]` = δ(row forest, children-forest of node with local lpost
    /// `a`); meaningful for non-leaf nodes only.
    pub kids: Vec<f64>,
    /// δ(row forest, empty forest).
    pub col0: f64,
}

/// Reusable scratch memory for TED computations (see the module docs).
///
/// `Default`/[`Workspace::new`] build an empty workspace; buffers grow on
/// first use and are retained for the workspace's lifetime.
#[derive(Debug, Default)]
pub struct Workspace {
    // ---- executor state (matrix + cost tables + driver stack).
    /// Subtree distance matrix, row-major `[v_F][w_G]`.
    pub(crate) d: Vec<f64>,
    /// Cost tables of the left-hand tree.
    pub(crate) ftab: CostTables,
    /// Cost tables of the right-hand tree.
    pub(crate) gtab: CostTables,
    /// GTED work stack: `(v, w, code)` with `code == EXPAND` or an spf
    /// path-choice code.
    pub(crate) stack: Vec<(u32, u32, u8)>,
    /// Relevant-subtree scratch for strategy expansion.
    pub(crate) subs: Vec<NodeId>,
    /// Root-leaf path scratch for `∆I` dispatch.
    pub(crate) path: Vec<NodeId>,

    // ---- keyroot sheet scratch (Zhang–Shasha, `∆L`/`∆R`, bounded; the
    // mapping backtrace reads both trees' left-view per-rank rows here).
    pub(crate) keyroot: crate::keyroot::Scratch,

    // ---- `∆I` scratch.
    /// The precomputed B-side canonical-forest tables.
    pub(crate) bside: crate::spf_i::BSide,
    /// Current top row of the period DP.
    pub(crate) row_cur: Row,
    /// Spare row rotated in by `mem::swap` at every stage.
    pub(crate) row_spare: Row,
    pub(crate) rl: RlScratch,
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
    /// Forest-DP sheet pool for the mapping backtrace: sheet `i` belongs
    /// to the frame at nesting depth `i` of the subtree-match recursion
    /// (a parent's sheet stays live while its children are traced, so one
    /// shared sheet is not enough). Slots are never freed and only ever
    /// grow, so slot capacity is monotone and a repeated
    /// pair meets sheets that are already big enough — the same
    /// order-independence discipline as the strategy row pool above.
    pub(crate) trace_sheets: Vec<Vec<f64>>,
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
