//! The durable corpus store: an on-disk [`TreeCorpus`] with incremental
//! updates.
//!
//! Two layers live here:
//!
//! * [`CorpusLog`] — the file half alone: it tracks the backing file and
//!   appends segments / rewrites it, but does **not** own a corpus. A
//!   long-lived service that already owns the corpus (inside its query
//!   index) keeps only the log, so the trees exist in memory exactly
//!   once.
//! * [`CorpusStore`] — the convenient pairing of a log with its own
//!   in-memory corpus, for batch tools (the `rted index` CLI) and tests.
//!
//! Mutations are **append-only**: inserting trees appends one trees
//! segment, removing trees appends one tombstones segment, and only the
//! fixed-size header is rewritten in place (to bump the live count / next
//! id) — the cost of an update is proportional to the update, not to the
//! corpus. [`compact`](CorpusStore::compact) rewrites the file as a single
//! canonical segment when the tombstone / segment backlog is worth
//! reclaiming, preserving every live id.
//!
//! # Durability model
//!
//! Appends are ordered *segment bytes → fsync → header → fsync*: the
//! segment must be durable **before** the header acknowledges it,
//! otherwise a reordered write-back could persist a header whose counts
//! point past data that never hit the disk. With that ordering a crash
//! leaves one of exactly three states: the old file (append not started /
//! segment not yet durable — the torn segment bytes, if any, fail their
//! checksum), the old header with a complete durable segment behind it,
//! or the fully committed update. The first is clean after tail
//! truncation; the second is recovered *with* the update by
//! [`CorpusStore::open_repair`]; the strict [`CorpusStore::open`] rejects
//! both rather than serve a half-applied update silently. Compaction and
//! creation go through a temporary file, an atomic rename, and a
//! directory fsync (so the rename itself is durable). The store assumes a
//! single writer; concurrent writers can interleave appends and produce a
//! file the loader rejects, but never a file it silently mis-reads.

use crate::corpus::{CorpusEntry, TreeCorpus};
use crate::persist::{
    encode_corpus, salvage_corpus, tombstones_segment, trees_segment, CorpusFile, Header,
    PersistError, RepairReport, HEADER_LEN,
};
use rted_tree::Tree;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Observability hooks for the log's write path, installed by a serving
/// layer via [`CorpusLog::set_obs`]. All handles are pre-registered
/// lock-free metrics ([`rted_obs`]); recording adds a few relaxed atomic
/// RMWs to each (already fsync-dominated) durable write and never
/// allocates.
#[derive(Debug, Clone)]
pub struct WalObs {
    /// Latency of whole committed appends (segment write + both fsyncs +
    /// header rewrite), in nanoseconds.
    pub append: Arc<rted_obs::Histogram>,
    /// Latency of each individual `fsync` (`File::sync_all`), in
    /// nanoseconds — two per append.
    pub fsync: Arc<rted_obs::Histogram>,
    /// Bytes reclaimed by compaction rewrites (old file length minus
    /// rewritten length, when positive).
    pub bytes_reclaimed: Arc<rted_obs::Counter>,
}

/// Saturating nanoseconds since `start`.
#[inline]
fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How [`CorpusStore::open_with`] treats a file that strict validation
/// rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Reject anything but a fully consistent file (the historical
    /// behavior — right for tools that must never mask corruption).
    Strict,
    /// Tail-scan salvage: recover the longest prefix of complete, valid
    /// segments, truncate the torn tail, and rewrite the header to match
    /// — the right mode for a service that must come back up after a
    /// crash mid-update instead of abandoning the whole corpus.
    Repair,
}

/// The `(next_id, live)` pair a corpus file header records. Appends carry
/// the pre- and post-mutation counts so the log can both commit the new
/// header and roll back to the old one on failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LogCounts {
    next_id: u64,
    live: u64,
}

impl LogCounts {
    fn of<L>(corpus: &TreeCorpus<L>) -> Self {
        LogCounts {
            next_id: corpus.id_bound() as u64,
            live: corpus.len() as u64,
        }
    }

    fn header(self) -> Header {
        Header::new(self.next_id, self.live)
    }
}

/// The file half of a durable corpus: append-only segment writes and
/// atomic rewrites against one backing path, with no corpus of its own.
///
/// The caller owns the corpus and keeps it consistent with the log by
/// appending **before** applying the same mutation in memory (so an I/O
/// failure leaves both sides on the old state). Each append takes the
/// corpus as it stands *before* the mutation and derives the header's
/// old and new counts from it, so callers never compute counts
/// themselves. [`CorpusStore`] packages the whole discipline.
#[derive(Debug)]
pub struct CorpusLog {
    path: PathBuf,
    /// Segments in the backing file — tracked in memory (the log is the
    /// file's single writer) so status queries never re-read the file.
    segments: usize,
    /// Tombstone records in the backing file: the compaction backlog.
    /// Unlike the corpus's *hole* count (which survives compaction — ids
    /// are never reused), this resets to zero on rewrite, so it is the
    /// correct trigger for threshold-driven compaction.
    tombstones: usize,
    /// Optional write-path metrics (`None` = unobserved, the batch-tool
    /// default).
    obs: Option<WalObs>,
}

impl CorpusLog {
    /// Writes `corpus` to `path` (replacing any existing file) and returns
    /// the log for it.
    pub fn create(
        path: impl Into<PathBuf>,
        corpus: &TreeCorpus<String>,
    ) -> Result<Self, PersistError> {
        let path = path.into();
        write_atomic(&path, &encode_corpus(corpus))?;
        Ok(CorpusLog {
            path,
            segments: usize::from(!corpus.is_empty()),
            tombstones: 0,
            obs: None,
        })
    }

    /// Installs write-path metrics hooks (see [`WalObs`]).
    pub fn set_obs(&mut self, obs: WalObs) {
        self.obs = Some(obs);
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of segments currently in the backing file (no I/O).
    pub fn segment_count(&self) -> usize {
        self.segments
    }

    /// Tombstone records currently in the backing file (no I/O). This is
    /// the backlog [`rewrite`](Self::rewrite) reclaims — the quantity a
    /// threshold-driven compactor should compare against the live count.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Appends one trees segment for `entries` — `(id, entry)` pairs, ids
    /// ascending and not live in `before`, the corpus this insert
    /// mutates. The committed header advances `next_id` past the largest
    /// id (skipped ids become permanent holes). On failure the file is
    /// rolled back and nothing is durable; an empty batch appends nothing.
    pub fn append_trees(
        &mut self,
        before: &TreeCorpus<String>,
        entries: &[(usize, &CorpusEntry<String>)],
    ) -> Result<(), PersistError> {
        let old = LogCounts::of(before);
        let new = LogCounts {
            next_id: entries
                .iter()
                .fold(old.next_id, |b, &(id, _)| b.max(id as u64 + 1)),
            live: old.live + entries.len() as u64,
        };
        self.append(&trees_segment(entries), old, new)
    }

    /// Appends one tombstones segment for `ids`, which must be live and
    /// distinct in `before` (see [`TreeCorpus::live_unique`]). On failure
    /// the file is rolled back and nothing is durable; an empty batch
    /// appends nothing.
    pub fn append_tombstones(
        &mut self,
        before: &TreeCorpus<String>,
        ids: &[usize],
    ) -> Result<(), PersistError> {
        let old = LogCounts::of(before);
        let new = LogCounts {
            next_id: old.next_id,
            live: old.live - ids.len() as u64,
        };
        self.append(&tombstones_segment(ids), old, new)?;
        self.tombstones += ids.len();
        Ok(())
    }

    /// Rewrites the file as a single canonical trees segment for `corpus`,
    /// dropping tombstones and superseded records — compaction. Ids are
    /// preserved. Atomic: goes through a temporary file and rename.
    pub fn rewrite(&mut self, corpus: &TreeCorpus<String>) -> Result<(), PersistError> {
        let bytes = encode_corpus(corpus);
        let old_len = self
            .obs
            .as_ref()
            .and_then(|_| std::fs::metadata(&self.path).ok())
            .map(|m| m.len());
        write_atomic(&self.path, &bytes)?;
        if let (Some(obs), Some(old_len)) = (&self.obs, old_len) {
            obs.bytes_reclaimed
                .add(old_len.saturating_sub(bytes.len() as u64));
        }
        self.segments = usize::from(!corpus.is_empty());
        self.tombstones = 0;
        Ok(())
    }

    /// Appends one segment, then rewrites the header in place with the
    /// post-mutation counts. See the module docs for the crash-consistency
    /// argument behind the write/fsync order. On any failure the file is
    /// rolled back — truncated to its previous length *and* the
    /// pre-append header restored (a failed sync can leave the new header
    /// in place even though the segment was dropped) — so a retried
    /// update neither stacks a duplicate segment onto an orphan nor
    /// strands a readable corpus behind a mismatched header. Unchanged
    /// counts mean an empty batch: nothing is written.
    fn append(
        &mut self,
        segment: &[u8],
        old: LogCounts,
        new: LogCounts,
    ) -> Result<(), PersistError> {
        if old == new {
            return Ok(());
        }
        let io = |e: std::io::Error| {
            PersistError::Io(format!("cannot update {}: {e}", self.path.display()))
        };
        let started = Instant::now();
        let obs = self.obs.as_ref();
        let timed_sync = |file: &std::fs::File| {
            let t0 = Instant::now();
            let result = file.sync_all();
            if let Some(obs) = obs {
                obs.fsync.record(ns_since(t0));
            }
            result
        };
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(io)?;
        let old_len = file.seek(SeekFrom::End(0)).map_err(io)?;
        let result = (|| {
            file.write_all(segment)?;
            // Write-ordering barrier: the segment must be durable BEFORE
            // the header acknowledges it. Without this intermediate fsync
            // the kernel may write back the (small, page-0) header update
            // first; a crash in that window persists a header whose
            // counts point past data that never reached the disk — a file
            // even tail-repair can only recover by dropping the update.
            // With it, a crash leaves either the old header (torn or
            // complete segment behind it — both repairable) or the fully
            // committed update.
            timed_sync(&file)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&new.header().encode())?;
            timed_sync(&file)
        })();
        if result.is_err() {
            // Best-effort rollback to the exact pre-append file image:
            // drop the appended bytes and restore the old header. If even
            // this fails, the strict loader still rejects the
            // inconsistent file (and repair-open recovers it), so nothing
            // is silently wrong.
            let _ = file.set_len(old_len);
            let _ = file
                .seek(SeekFrom::Start(0))
                .and_then(|_| file.write_all(&old.header().encode()));
            let _ = file.sync_all();
        } else {
            self.segments += 1;
            if let Some(obs) = obs {
                obs.append.record(ns_since(started));
            }
        }
        result.map_err(io)
    }
}

/// A [`TreeCorpus`] backed by an on-disk segment file.
pub struct CorpusStore {
    log: CorpusLog,
    corpus: TreeCorpus<String>,
}

impl CorpusStore {
    /// Builds a corpus from `trees` (analyzing each once) and writes it to
    /// `path`, replacing any existing file.
    pub fn create(
        path: impl Into<PathBuf>,
        trees: impl IntoIterator<Item = Tree<String>>,
    ) -> Result<Self, PersistError> {
        Self::create_from(path, TreeCorpus::build(trees))
    }

    /// Writes an existing corpus to `path`, replacing any existing file.
    pub fn create_from(
        path: impl Into<PathBuf>,
        corpus: TreeCorpus<String>,
    ) -> Result<Self, PersistError> {
        let log = CorpusLog::create(path, &corpus)?;
        Ok(CorpusStore { log, corpus })
    }

    /// Opens an existing corpus file, replaying its segments (strict
    /// validation — see [`Recovery::Strict`]). No per-tree analysis runs —
    /// sketches come from the file.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, PersistError> {
        Self::open_with(path, Recovery::Strict).map(|(store, _)| store)
    }

    /// [`open`](Self::open) with tail-scan salvage: a file torn by a crash
    /// mid-update reopens with every complete segment intact instead of
    /// being rejected wholesale. Returns the repair report alongside the
    /// store; `report.bytes_dropped == 0 && !report.header_rewritten`
    /// means the file was already clean.
    pub fn open_repair(path: impl Into<PathBuf>) -> Result<(Self, RepairReport), PersistError> {
        Self::open_with(path, Recovery::Repair)
    }

    /// Opens an existing corpus file under the given [`Recovery`] mode.
    /// In `Strict` mode the report is the trivial clean report. A file
    /// whose header is unusable (another format version, say) is refused
    /// in either mode and left untouched.
    pub fn open_with(
        path: impl Into<PathBuf>,
        recovery: Recovery,
    ) -> Result<(Self, RepairReport), PersistError> {
        let path = path.into();
        let file = CorpusFile::read(&path)?;
        let (corpus, segments, tombstones, report) = match file.corpus_owned_with_stats() {
            Ok((corpus, stats)) => {
                let report = RepairReport {
                    segments_recovered: stats.segments,
                    bytes_dropped: 0,
                    header_rewritten: false,
                    live: corpus.len() as u64,
                    next_id: corpus.id_bound() as u64,
                };
                (corpus, stats.segments, stats.tombstones, report)
            }
            Err(err) if recovery == Recovery::Strict => return Err(err),
            Err(_) => {
                let salvage = salvage_corpus(file.bytes())?;
                // Make the recovery durable: truncate the torn tail and
                // stamp the recomputed header, so the next strict open
                // (and every subsequent append) starts from a clean file.
                repair_file(&path, salvage.keep_len, &salvage.header)?;
                let segments = salvage.report.segments_recovered;
                (salvage.corpus, segments, salvage.tombstones, salvage.report)
            }
        };
        let log = CorpusLog {
            path,
            segments,
            tombstones,
            obs: None,
        };
        Ok((CorpusStore { log, corpus }, report))
    }

    /// The live in-memory corpus (always consistent with the file).
    pub fn corpus(&self) -> &TreeCorpus<String> {
        &self.corpus
    }

    /// Consumes the store, yielding the corpus (e.g. to build a
    /// [`crate::TreeIndex`]).
    pub fn into_corpus(self) -> TreeCorpus<String> {
        self.corpus
    }

    /// Consumes the store, yielding the corpus and the file log
    /// separately — for a service that hands the corpus to its query
    /// index and keeps only the log for durability (one corpus in memory,
    /// not two).
    pub fn into_parts(self) -> (TreeCorpus<String>, CorpusLog) {
        (self.corpus, self.log)
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Inserts trees, analyzing each once and appending a single trees
    /// segment; returns the assigned ids (ascending).
    ///
    /// The segment is written (and fsynced) **before** the in-memory
    /// corpus is touched, so an I/O failure leaves the store exactly as it
    /// was — a retry re-assigns the same ids instead of silently diverging
    /// from the file.
    pub fn insert_all(
        &mut self,
        trees: impl IntoIterator<Item = Tree<String>>,
    ) -> Result<Vec<usize>, PersistError> {
        let new: Vec<CorpusEntry<String>> = trees.into_iter().map(CorpusEntry::analyze).collect();
        let base = self.corpus.id_bound();
        let pairs: Vec<_> = new.iter().enumerate().map(|(i, e)| (base + i, e)).collect();
        self.log.append_trees(&self.corpus, &pairs)?;
        Ok(new
            .into_iter()
            .map(|entry| self.corpus.insert_entry(entry))
            .collect())
    }

    /// Removes the given ids, appending a single tombstones segment.
    /// Ids that are not live (never assigned, already removed, or repeated
    /// in `ids`) are skipped ([`TreeCorpus::live_unique`]); returns how
    /// many trees were actually removed. Like
    /// [`insert_all`](Self::insert_all), the disk write happens first — on
    /// error nothing was removed.
    pub fn remove_all(&mut self, ids: &[usize]) -> Result<usize, PersistError> {
        let removed = self.corpus.live_unique(ids);
        self.log.append_tombstones(&self.corpus, &removed)?;
        for &id in &removed {
            self.corpus.remove(id);
        }
        Ok(removed.len())
    }

    /// Rewrites the file as a single canonical trees segment, dropping
    /// tombstones and superseded records. Ids are preserved — compaction
    /// is invisible to queries and to previously handed-out ids. Atomic:
    /// goes through a temporary file and rename.
    pub fn compact(&mut self) -> Result<(), PersistError> {
        self.log.rewrite(&self.corpus)
    }

    /// Number of segments currently in the backing file (tracked in
    /// memory; no I/O).
    pub fn segment_count(&self) -> usize {
        self.log.segment_count()
    }

    /// Tombstone records currently in the backing file — the compaction
    /// backlog (resets on [`compact`](Self::compact); contrast with
    /// [`TreeCorpus::holes`], which never shrinks).
    pub fn file_tombstones(&self) -> usize {
        self.log.tombstone_count()
    }
}

/// Truncates `path` to `keep_len` and stamps `header` — the durable half
/// of a tail salvage.
fn repair_file(path: &Path, keep_len: usize, header: &Header) -> Result<(), PersistError> {
    let io = |e: std::io::Error| PersistError::Io(format!("cannot repair {}: {e}", path.display()));
    debug_assert!(keep_len >= HEADER_LEN);
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(io)?;
    file.set_len(keep_len as u64).map_err(io)?;
    file.seek(SeekFrom::Start(0)).map_err(io)?;
    file.write_all(&header.encode()).map_err(io)?;
    file.sync_all().map_err(io)
}

/// Writes `bytes` to `path` via a sibling temporary file and an atomic
/// rename, so readers never observe a half-written file; the containing
/// directory is then fsynced so the rename itself survives a crash. The
/// temporary name extends the full file name (`corpus.idx` →
/// `corpus.idx.tmp`), so stores on distinct files never collide on their
/// temp file.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let io = |e: std::io::Error| PersistError::Io(format!("cannot write {}: {e}", path.display()));
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| PersistError::Io(format!("invalid corpus path {}", path.display())))?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = std::fs::File::create(&tmp).map_err(io)?;
        file.write_all(bytes).map_err(io)?;
        file.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp, path).map_err(io)?;
    sync_parent_dir(path).map_err(io)
}

/// Fsyncs the directory containing `path` (the rename's durability). On
/// non-Unix platforms directory handles cannot be fsynced; the rename is
/// still atomic, just not crash-durable, matching platform convention.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rted_tree::parse_bracket;

    fn t(s: &str) -> Tree<String> {
        parse_bracket(s).unwrap()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rted-store-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn create_open_roundtrip() {
        let path = scratch("roundtrip.idx");
        let store = CorpusStore::create(&path, vec![t("{a{b}{c}}"), t("{x{y}}")]).unwrap();
        assert_eq!(store.corpus().len(), 2);
        let reopened = CorpusStore::open(&path).unwrap();
        assert_eq!(reopened.corpus().len(), 2);
        assert_eq!(reopened.corpus().tree(0).len(), 3);
        assert_eq!(rted_tree::to_bracket(reopened.corpus().tree(1)), "{x{y}}");
    }

    #[test]
    fn updates_append_segments_and_survive_reopen() {
        let path = scratch("updates.idx");
        let mut store = CorpusStore::create(&path, vec![t("{a}"), t("{b{c}}")]).unwrap();
        assert_eq!(store.segment_count(), 1);

        let ids = store.insert_all(vec![t("{d{e}{f}}"), t("{g}")]).unwrap();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(store.segment_count(), 2);

        assert_eq!(store.remove_all(&[1, 1, 99]).unwrap(), 1);
        assert_eq!(store.segment_count(), 3);
        assert_eq!(store.file_tombstones(), 1);

        let reopened = CorpusStore::open(&path).unwrap();
        assert_eq!(reopened.corpus().len(), 3);
        assert!(reopened.corpus().get(1).is_none());
        assert_eq!(reopened.corpus().id_bound(), 4);
        // Reopen recovers the tombstone backlog from the file.
        assert_eq!(reopened.file_tombstones(), 1);

        // No-op updates append nothing.
        let mut store = reopened;
        assert_eq!(store.insert_all(Vec::new()).unwrap(), Vec::<usize>::new());
        assert_eq!(store.remove_all(&[1]).unwrap(), 0);
        assert_eq!(store.segment_count(), 3);
    }

    /// The write-first promise: a failed append (here the backing file
    /// is gone, so its open fails) returns `Err` and leaves the corpus
    /// untouched, and once `compact` has recreated the file the retries
    /// re-assign the same ids.
    #[test]
    fn failed_appends_change_nothing_and_retries_reuse_ids() {
        let path = scratch("failed-append.idx");
        let trees = vec![t("{a}"), t("{b{c}}"), t("{d}"), t("{e{f}}")];
        let mut store = CorpusStore::create(&path, trees).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(store.insert_all(vec![t("{x{y}}")]).is_err());
        assert!(store.remove_all(&[0, 2]).is_err());
        assert_eq!((store.corpus().len(), store.corpus().id_bound()), (4, 4));
        assert!(store.corpus().get(0).is_some() && store.corpus().get(2).is_some());
        assert_eq!((store.segment_count(), store.file_tombstones()), (1, 0));

        store.compact().unwrap();
        assert_eq!(store.insert_all(vec![t("{x{y}}")]).unwrap(), vec![4]);
        assert_eq!(store.remove_all(&[0, 2]).unwrap(), 2);
        let reopened = CorpusStore::open(&path).unwrap();
        let ids: Vec<usize> = reopened.corpus().iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }

    #[test]
    fn compaction_preserves_ids_and_shrinks() {
        let path = scratch("compact.idx");
        let mut store =
            CorpusStore::create(&path, (0..8).map(|i| t(&format!("{{n{i}{{x}}}}")))).unwrap();
        store.remove_all(&[0, 2, 4]).unwrap();
        store.insert_all(vec![t("{fresh{leaf}}")]).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        let live_before: Vec<usize> = store.corpus().iter().map(|(id, _)| id).collect();
        assert_eq!(store.file_tombstones(), 3);

        store.compact().unwrap();
        assert_eq!(store.segment_count(), 1);
        // The backlog is reclaimed; the corpus's id holes remain.
        assert_eq!(store.file_tombstones(), 0);
        assert_eq!(store.corpus().holes(), 3);
        assert!(std::fs::metadata(&path).unwrap().len() < before);

        let reopened = CorpusStore::open(&path).unwrap();
        let live_after: Vec<usize> = reopened.corpus().iter().map(|(id, _)| id).collect();
        assert_eq!(live_before, live_after);
        // Ids keep advancing past the compacted holes.
        let mut store = reopened;
        assert_eq!(store.insert_all(vec![t("{later}")]).unwrap(), vec![9]);
    }

    #[test]
    fn torn_tail_reopens_via_repair() {
        let path = scratch("torn.idx");
        let mut store = CorpusStore::create(&path, vec![t("{a{b}}"), t("{c}")]).unwrap();
        store.insert_all(vec![t("{d{e}{f}}")]).unwrap();
        let committed = std::fs::read(&path).unwrap();

        // Crash mid-append: a partial segment beyond the committed image.
        let mut torn = committed.clone();
        torn.extend_from_slice(&committed[HEADER_LEN..HEADER_LEN + 11]);
        std::fs::write(&path, &torn).unwrap();

        // Strict open rejects; repair recovers every committed segment.
        assert!(CorpusStore::open(&path).is_err());
        let (store, report) = CorpusStore::open_repair(&path).unwrap();
        assert_eq!(report.segments_recovered, 2);
        assert_eq!(report.bytes_dropped, 11);
        assert_eq!(store.corpus().len(), 3);
        // The repair is durable: the next strict open succeeds.
        let clean = CorpusStore::open(&path).unwrap();
        assert_eq!(clean.corpus().len(), 3);
        assert_eq!(std::fs::read(&path).unwrap(), committed);
    }

    #[test]
    fn stale_header_with_complete_segment_recovers_the_update() {
        let path = scratch("stale-header.idx");
        let mut store = CorpusStore::create(&path, vec![t("{a{b}}")]).unwrap();
        let old_image = std::fs::read(&path).unwrap();
        store.insert_all(vec![t("{x{y}{z}}")]).unwrap();
        let new_image = std::fs::read(&path).unwrap();

        // Crash between the segment fsync and the header write: the new
        // segment is fully durable but the header still carries the old
        // counts.
        let mut torn = new_image.clone();
        torn[..HEADER_LEN].copy_from_slice(&old_image[..HEADER_LEN]);
        std::fs::write(&path, &torn).unwrap();

        assert!(CorpusStore::open(&path).is_err());
        let (store, report) = CorpusStore::open_repair(&path).unwrap();
        // The complete segment is salvaged — the update survives even
        // though the header never acknowledged it.
        assert_eq!(report.segments_recovered, 2);
        assert_eq!(report.bytes_dropped, 0);
        assert!(report.header_rewritten);
        assert_eq!(store.corpus().len(), 2);
        assert_eq!(rted_tree::to_bracket(store.corpus().tree(1)), "{x{y}{z}}");
        assert_eq!(std::fs::read(&path).unwrap(), new_image);
    }

    #[test]
    fn repair_on_clean_file_is_a_no_op() {
        let path = scratch("clean.idx");
        let mut store = CorpusStore::create(&path, vec![t("{a}"), t("{b{c}}")]).unwrap();
        store.remove_all(&[0]).unwrap();
        let image = std::fs::read(&path).unwrap();
        let (store, report) = CorpusStore::open_repair(&path).unwrap();
        assert_eq!(report.bytes_dropped, 0);
        assert!(!report.header_rewritten);
        assert_eq!(report.segments_recovered, 2);
        assert_eq!(store.corpus().len(), 1);
        assert_eq!(store.file_tombstones(), 1);
        assert_eq!(std::fs::read(&path).unwrap(), image);
    }
}
