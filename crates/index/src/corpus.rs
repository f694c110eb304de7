//! The pre-analyzed tree corpus.
//!
//! Every tree is analyzed exactly once when it enters the corpus: its
//! [`TreeSketch`] (size, depth, leaf/internal counts, label histogram) is
//! computed at insert time, and the corpus keeps a size-sorted view so
//! queries can restrict themselves to a contiguous size window instead of
//! scanning all entries.
//!
//! # Identity and mutation
//!
//! Entry ids are assigned sequentially at insert time and are **stable
//! forever**: [`TreeCorpus::remove`] leaves a hole rather than renumbering,
//! and ids are never reused — so query results, on-disk segments
//! ([`crate::store`]) and application-side references all agree on what an
//! id means across arbitrarily many updates and compactions. The only
//! structure maintained under mutation is the size-sorted view, updated in
//! place in O(log n) search + O(n) shift per operation — no re-analysis of
//! any other tree.
//!
//! Queries borrow the corpus concurrently from many threads; mutation
//! requires `&mut` (single-writer, as usual in Rust).

use rted_core::bounds::TreeSketch;
use rted_core::pqgram::{PqGramProfile, PqParams, PqScratch};
use rted_tree::Tree;
use std::sync::Arc;

/// One corpus entry: the tree plus its insert-time analysis.
#[derive(Debug, Clone)]
pub struct CorpusEntry<L> {
    tree: Tree<L>,
    sketch: TreeSketch<L>,
}

impl<L> CorpusEntry<L> {
    /// Reassembles an entry from previously computed parts (used by the
    /// persistence layer to skip re-analysis on load).
    pub(crate) fn from_parts(tree: Tree<L>, sketch: TreeSketch<L>) -> Self {
        CorpusEntry { tree, sketch }
    }

    /// Analyzes a tree into an entry — the insert-time analysis, runnable
    /// before the entry has a corpus slot. Callers that must serialize or
    /// hand off an entry *before* committing the in-memory insert (the
    /// durable store, the serving layer's insert path) build entries here
    /// and pass them to [`TreeCorpus::insert_entry`], so each tree is
    /// analyzed exactly once.
    pub fn analyze(tree: Tree<L>) -> Self
    where
        L: Eq + std::hash::Hash + Clone,
    {
        let sketch = TreeSketch::new(&tree);
        CorpusEntry { tree, sketch }
    }

    /// The stored tree.
    #[inline]
    pub fn tree(&self) -> &Tree<L> {
        &self.tree
    }

    /// The precomputed per-tree summary.
    #[inline]
    pub fn sketch(&self) -> &TreeSketch<L> {
        &self.sketch
    }
}

/// A collection of pre-analyzed trees with stable ids.
///
/// Ids are the 0-based insertion positions; removed ids stay reserved (see
/// the module docs). All query results refer to trees by these ids.
#[derive(Debug, Clone)]
pub struct TreeCorpus<L> {
    /// Slot per ever-assigned id; `None` marks a removed tree. Entries are
    /// `Arc`-shared so cloning the corpus (copy-on-write snapshot forks in
    /// the serving layer) is O(n) pointer copies, not a deep re-analysis.
    entries: Vec<Option<Arc<CorpusEntry<L>>>>,
    /// Number of live (non-removed) entries.
    live: usize,
    /// Live entry ids sorted by (subtree size, id) — the size-window
    /// accelerator.
    by_size: Vec<u32>,
}

impl<L: Eq + std::hash::Hash + Clone> TreeCorpus<L> {
    /// Builds a corpus, analyzing every tree once (profile scratch is
    /// shared across the whole build — one arena, not one per tree).
    pub fn build(trees: impl IntoIterator<Item = Tree<L>>) -> Self {
        let mut scratch = PqScratch::default();
        let entries: Vec<Option<CorpusEntry<L>>> = trees
            .into_iter()
            .map(|tree| {
                let sketch = TreeSketch::with_pq(&tree, PqParams::default(), &mut scratch);
                Some(CorpusEntry { tree, sketch })
            })
            .collect();
        Self::from_raw_parts(entries)
    }

    /// Recomputes every live entry's pq-gram profile under `params` (one
    /// shared scratch arena). The profiles stored in a persistent corpus
    /// are fixed at build time; callers that want different gram lengths —
    /// e.g. the CLI's `--pq P,Q` — re-profile the loaded corpus in memory.
    /// All profiles in a corpus must share params, or the pq-gram stage
    /// degrades to a zero bound on mixed pairs.
    pub fn recompute_profiles(&mut self, params: PqParams) {
        let mut scratch = PqScratch::default();
        for slot in self.entries.iter_mut().flatten() {
            // Entries may be shared with snapshot forks; re-profile a
            // private copy so concurrent readers keep a consistent view.
            let entry = Arc::make_mut(slot);
            entry.sketch.pq = PqGramProfile::compute_in(&entry.tree, params, &mut scratch);
        }
    }

    /// Rebuilds a corpus from per-id slots (`None` = removed id), deriving
    /// the live count and size-sorted view. Used by the persistence layer.
    pub(crate) fn from_raw_parts(entries: Vec<Option<CorpusEntry<L>>>) -> Self {
        let entries: Vec<Option<Arc<CorpusEntry<L>>>> =
            entries.into_iter().map(|slot| slot.map(Arc::new)).collect();
        let mut by_size: Vec<u32> = (0..entries.len() as u32)
            .filter(|&id| entries[id as usize].is_some())
            .collect();
        let live = by_size.len();
        by_size.sort_by_key(|&id| (Self::slot(&entries, id).sketch.size, id));
        TreeCorpus {
            entries,
            live,
            by_size,
        }
    }

    /// Inserts a tree, analyzing it once; returns its newly assigned id.
    ///
    /// O(log n) to locate + O(n) to shift the size-sorted view; no other
    /// entry is touched.
    pub fn insert(&mut self, tree: Tree<L>) -> usize {
        self.insert_entry(CorpusEntry::analyze(tree))
    }

    /// Inserts an already-analyzed entry (avoids re-analysis when the
    /// caller had to build the entry up front, e.g. to serialize it before
    /// committing the in-memory mutation).
    ///
    /// Profiles under different gram lengths are incomparable (zero
    /// bound), so if the corpus was re-profiled
    /// ([`recompute_profiles`](Self::recompute_profiles)) and the entry
    /// arrives with other params — `CorpusEntry::analyze` uses the
    /// defaults — its profile is recomputed to match before insertion,
    /// keeping the corpus-wide uniformity invariant.
    pub fn insert_entry(&mut self, entry: CorpusEntry<L>) -> usize {
        let id = self.entries.len();
        self.insert_arc_at(id, Arc::new(entry));
        id
    }

    /// Inserts an already-analyzed, shared entry at an **explicit id**,
    /// padding the id space with vacant slots when `id` skips past the
    /// current bound. Sharded serving needs this: global ids are striped
    /// across shards, and a crash between per-shard WAL appends can leave
    /// one shard's local id sequence with a permanent hole (recovery
    /// derives the next global id from the surviving maximum, so the lost
    /// local id is skipped forever — exactly like a removed id).
    ///
    /// # Panics
    ///
    /// Panics if `id` names a live entry (ids are never reused).
    pub fn insert_arc_at(&mut self, id: usize, mut entry: Arc<CorpusEntry<L>>) {
        if let Some((_, first)) = self.iter().next() {
            let params = first.sketch.pq.params();
            if entry.sketch.pq.params() != params {
                let owned = Arc::make_mut(&mut entry);
                owned.sketch.pq =
                    PqGramProfile::compute_in(&owned.tree, params, &mut PqScratch::default());
            }
        }
        assert!(id < u32::MAX as usize, "corpus id space exhausted");
        assert!(
            id >= self.entries.len() || self.entries[id].is_none(),
            "corpus id {id} already live (ids are never reused)"
        );
        while self.entries.len() < id {
            self.entries.push(None);
        }
        let key = (entry.sketch.size, id as u32);
        let pos = self
            .by_size
            .partition_point(|&e| (Self::slot(&self.entries, e).sketch.size, e) < key);
        self.by_size.insert(pos, id as u32);
        if id == self.entries.len() {
            self.entries.push(Some(entry));
        } else {
            self.entries[id] = Some(entry);
        }
        self.live += 1;
    }

    /// Removes the tree with id `id`, returning its entry, or `None` if the
    /// id was never assigned or already removed. The id stays reserved.
    pub fn remove(&mut self, id: usize) -> Option<Arc<CorpusEntry<L>>> {
        // Locate the id in the size-sorted view *before* vacating its slot:
        // the binary search probes neighbouring ids through their (still
        // live) entries, and may probe `id` itself.
        let key = (self.entries.get(id)?.as_ref()?.sketch.size, id as u32);
        let pos = self
            .by_size
            .partition_point(|&e| (Self::slot(&self.entries, e).sketch.size, e) < key);
        debug_assert_eq!(self.by_size.get(pos), Some(&(id as u32)));
        self.by_size.remove(pos);
        self.live -= 1;
        self.entries[id].take()
    }
}

impl<L> TreeCorpus<L> {
    #[inline]
    fn slot(entries: &[Option<Arc<CorpusEntry<L>>>], id: u32) -> &CorpusEntry<L> {
        entries[id as usize]
            .as_deref()
            .expect("by_size holds only live ids")
    }

    /// Number of live trees.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` iff the corpus holds no live trees.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// One past the largest id ever assigned (the next id
    /// [`insert`](Self::insert) will hand out). `len() < id_bound()`
    /// whenever trees have been removed.
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.entries.len()
    }

    /// Number of reserved-but-vacant ids (`id_bound() − len()`). Note for
    /// compaction triggers: holes are *permanent* — ids are never reused,
    /// so this count survives [`crate::CorpusStore::compact`] — whereas
    /// the file's reclaimable tombstone backlog
    /// ([`crate::CorpusStore::file_tombstones`]) resets to zero. Keying a
    /// compaction threshold off `holes()` would re-fire forever on an
    /// already-compact store; key it off the file backlog instead.
    #[inline]
    pub fn holes(&self) -> usize {
        self.entries.len() - self.live
    }

    /// The entry with id `id`, or `None` if it was removed or never
    /// assigned.
    #[inline]
    pub fn get(&self, id: usize) -> Option<&CorpusEntry<L>> {
        self.entries.get(id).and_then(|slot| slot.as_deref())
    }

    /// The ids of `ids` that are live here, each once, in first-occurrence
    /// order — the removal rule of every durable remove. Dead, unassigned
    /// and repeated ids are dropped, so a batch never tombstones an id
    /// twice (the loader rejects tombstones for non-live ids).
    pub fn live_unique(&self, ids: &[usize]) -> Vec<usize> {
        let mut seen = std::collections::HashSet::new();
        ids.iter()
            .copied()
            .filter(|&id| self.get(id).is_some() && seen.insert(id))
            .collect()
    }

    /// The shared handle to entry `id`, or `None` if it was removed or
    /// never assigned. Lets callers pin an entry beyond the corpus borrow
    /// (e.g. serving a tree out of a snapshot that may be superseded).
    #[inline]
    pub fn get_arc(&self, id: usize) -> Option<&Arc<CorpusEntry<L>>> {
        self.entries.get(id).and_then(|slot| slot.as_ref())
    }

    /// The entry with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a live tree.
    #[inline]
    pub fn entry(&self, id: usize) -> &CorpusEntry<L> {
        self.get(id)
            .unwrap_or_else(|| panic!("no live corpus tree with id {id}"))
    }

    /// The tree with id `id` (panics like [`entry`](Self::entry)).
    #[inline]
    pub fn tree(&self, id: usize) -> &Tree<L> {
        &self.entry(id).tree
    }

    /// The sketch of tree `id` (panics like [`entry`](Self::entry)).
    #[inline]
    pub fn sketch(&self, id: usize) -> &TreeSketch<L> {
        &self.entry(id).sketch
    }

    /// All live `(id, entry)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CorpusEntry<L>)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_deref().map(|e| (id, e)))
    }

    /// Live entry ids sorted by (size, id).
    #[inline]
    pub fn by_size(&self) -> &[u32] {
        &self.by_size
    }

    /// The contiguous slice of [`by_size`](Self::by_size) whose tree sizes
    /// lie strictly within `tau` of `center`: candidates a size lower
    /// bound of `tau` cannot prune. With `tau = ∞` this is every entry.
    pub fn size_window(&self, center: usize, tau: f64) -> &[u32] {
        let lo = self.by_size.partition_point(|&id| {
            (Self::slot(&self.entries, id).sketch.size as f64) <= center as f64 - tau
        });
        let hi = self.by_size.partition_point(|&id| {
            (Self::slot(&self.entries, id).sketch.size as f64) < center as f64 + tau
        });
        // With tau <= 0 nothing can match and the two cuts cross (`lo`
        // skips past sizes == center, `hi` stops before them): clamp to
        // an empty window instead of slicing backwards.
        &self.by_size[lo..hi.max(lo)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rted_tree::parse_bracket;

    fn t(s: &str) -> Tree<String> {
        parse_bracket(s).unwrap()
    }

    fn sizes_in_view(c: &TreeCorpus<String>) -> Vec<(usize, u32)> {
        c.by_size()
            .iter()
            .map(|&id| (c.sketch(id as usize).size, id))
            .collect()
    }

    #[test]
    fn insert_maintains_sorted_view() {
        let mut c = TreeCorpus::build(vec![t("{a{b}{c}}"), t("{x}")]);
        assert_eq!(c.len(), 2);
        let id = c.insert(t("{p{q}}"));
        assert_eq!(id, 2);
        assert_eq!(c.len(), 3);
        let sizes = sizes_in_view(&c);
        let mut sorted = sizes.clone();
        sorted.sort();
        assert_eq!(sizes, sorted);
        assert_eq!(sizes, vec![(1, 1), (2, 2), (3, 0)]);
    }

    #[test]
    fn remove_leaves_stable_ids() {
        let mut c = TreeCorpus::build(vec![t("{a}"), t("{b{c}}"), t("{d{e}{f}}")]);
        assert!(c.remove(1).is_some());
        assert!(c.remove(1).is_none(), "double remove");
        assert_eq!(c.len(), 2);
        assert_eq!(c.id_bound(), 3);
        assert!(c.get(1).is_none());
        assert_eq!(c.tree(2).len(), 3);
        // Ids are never reused.
        assert_eq!(c.insert(t("{z}")), 3);
        assert_eq!(sizes_in_view(&c), vec![(1, 0), (1, 3), (3, 2)]);
    }

    #[test]
    fn insert_arc_at_pads_crash_holes() {
        let mut c = TreeCorpus::build(vec![t("{a}")]);
        c.insert_arc_at(3, Arc::new(CorpusEntry::analyze(t("{b{c}}"))));
        assert_eq!(c.len(), 2);
        assert_eq!(c.id_bound(), 4);
        assert_eq!(c.holes(), 2);
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_none());
        assert_eq!(c.tree(3).len(), 2);
        // Padded ids stay permanently vacant; plain inserts append after.
        assert_eq!(c.insert(t("{z}")), 4);
        assert_eq!(sizes_in_view(&c), vec![(1, 0), (1, 4), (2, 3)]);
    }

    #[test]
    fn iter_skips_holes() {
        let mut c = TreeCorpus::build(vec![t("{a}"), t("{b}"), t("{c}")]);
        c.remove(0);
        let ids: Vec<usize> = c.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn live_unique_keeps_first_live_occurrences() {
        let mut c = TreeCorpus::build(vec![t("{a}"), t("{b}"), t("{c}"), t("{d}")]);
        c.remove(1);
        assert_eq!(c.live_unique(&[3, 1, 0, 3, 99, 0, 2]), vec![3, 0, 2]);
        assert!(c.live_unique(&[1, 4]).is_empty());
    }

    #[test]
    #[should_panic(expected = "no live corpus tree with id 0")]
    fn entry_panics_on_removed_id() {
        let mut c = TreeCorpus::build(vec![t("{a}")]);
        c.remove(0);
        c.entry(0);
    }

    #[test]
    fn size_window_ignores_removed() {
        let mut c = TreeCorpus::build(vec![t("{a{b}{c}}"), t("{x{y}{z}}"), t("{q}")]);
        c.remove(0);
        let w: Vec<u32> = c.size_window(3, 1.0).to_vec();
        assert_eq!(w, vec![1]);
    }
}
