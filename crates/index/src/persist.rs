//! The versioned binary on-disk corpus format.
//!
//! A corpus file is a fixed header followed by a sequence of self-checking
//! segments, replayed in order on load:
//!
//! ```text
//! file    := header segment*
//! header  := magic("RTEDIDX\0") version:u32 flags:u32
//!            next_id:u64 live:u64 reserved:u64 checksum:u64
//! segment := kind:u32 payload_len:u64 checksum:u64 payload
//! ```
//!
//! All integers are little-endian. The header checksum is FNV-1a 64 over
//! the 40 bytes preceding it; a segment checksum covers its kind, length
//! and payload, so any single corrupted byte anywhere in the file is
//! detected (each FNV-1a step `h ← (h ⊕ b)·p` is bijective in `h` and
//! injective in `b`, so one flipped byte always changes the digest).
//!
//! Two segment kinds exist:
//!
//! * **trees** ([`SEG_TREES`]) — a shared string table (labels interned in
//!   first-occurrence order) followed by tree records. Each record stores
//!   the tree as flat postorder arrays — per-node label ids and degrees,
//!   the RTED-native encoding (every decomposition strategy in the paper
//!   operates on postorder/left-path arrays) — plus its precomputed
//!   [`TreeSketch`] (max depth, leaf count, histogram as `(label_id,
//!   count)` pairs sorted by id, then the serialized pq-gram profile:
//!   `p`, `q`, then the two sorted gram-hash arrays), so loading **skips
//!   the O(n) per-tree analysis** entirely.
//! * **tombstones** ([`SEG_TOMBSTONES`]) — ids removed since the previous
//!   segment. Ids are stable across removals and compaction (see
//!   [`crate::corpus`]), which is what lets updates be appended instead of
//!   rewriting the file — see [`crate::store`].
//!
//! # Versions and feature flags
//!
//! There is one record layout: format version 2 with stored pq-gram
//! profiles, and [`Header`] alone decides it. Any other version is
//! refused with [`PersistError::UnsupportedVersion`]; version-1 files
//! are rebuilt from their source trees (`rted index build`). The header's
//! `flags` word is a **feature-flags** field: each bit declares a
//! record-layout extension, so future sketch additions claim a fresh bit
//! instead of a version bump. Bit 0 ([`FLAG_PQ_PROFILES`]) is required,
//! and a reader that meets a missing or unknown bit rejects the file with
//! a clear error instead of mis-framing records.
//!
//! Encoding is canonical: for a given corpus state, [`encode_corpus`]
//! always produces the same bytes (string table in first-occurrence order,
//! trees in ascending id order, histograms sorted by label id), so
//! save→load→save is byte-identical — a property the test-suite checks.
//!
//! # Zero-copy loads
//!
//! [`CorpusFile::corpus`] reconstructs a `TreeCorpus<&str>` whose labels
//! **borrow** from the loaded byte buffer — no label bytes are copied or
//! allocated. [`CorpusFile::corpus_owned`] produces the independent
//! `TreeCorpus<String>` the long-lived [`crate::TreeIndex`] engine needs.
//!
//! # Trust model
//!
//! Checksums make accidental corruption (truncation, bit rot, concurrent
//! writers) detectable, and every structural invariant is re-validated on
//! load — malformed input yields a [`PersistError`], never a panic or a
//! silently wrong corpus. The numeric *sketch* fields are trusted as
//! written (verifying them would re-run the analysis the format exists to
//! skip); a file from a buggy or hostile writer can thus carry sketches
//! that make filters unsound, exactly as a hostile in-memory `TreeSketch`
//! would.

use crate::corpus::{CorpusEntry, TreeCorpus};
use rted_core::bounds::{LabelHistogram, TreeSketch};
use rted_core::pqgram::{PqGramProfile, PqParams};
use rted_tree::Tree;
use std::collections::HashMap;

/// First eight bytes of every corpus file.
pub const MAGIC: [u8; 8] = *b"RTEDIDX\0";
/// The one format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 2;
/// Header feature flag, required: tree records carry serialized pq-gram
/// profiles (p, q, and the two sorted gram-hash arrays) after their
/// histogram. Feature bits describe *record layout extensions*, so future
/// sketch additions claim a new bit instead of a new version; readers
/// reject unknown bits rather than mis-framing records.
pub const FLAG_PQ_PROFILES: u32 = 1 << 0;
/// Every feature flag this build understands.
pub const KNOWN_FLAGS: u32 = FLAG_PQ_PROFILES;
/// Size of the fixed file header in bytes.
pub const HEADER_LEN: usize = 48;
/// Size of a segment header (kind + payload length + checksum) in bytes.
pub const SEGMENT_HEADER_LEN: usize = 20;

/// Segment kind: tree records with a shared string table.
pub const SEG_TREES: u32 = 1;
/// Segment kind: removed tree ids.
pub const SEG_TOMBSTONES: u32 = 2;

/// FNV-1a 64-bit offset basis (the streaming digest's initial state).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Streaming FNV-1a 64 update: folds `bytes` into state `h`. Feeding two
/// slices in sequence equals hashing their concatenation, so callers never
/// need to copy bytes together just to checksum them.
fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit digest (the format's checksum function).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Errors loading or validating a corpus file. Every variant is a rejected
/// file — the loader never silently mis-reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Underlying I/O failure, or a set of files that cannot be opened as
    /// asked, such as a shard layout under another shard count (message
    /// includes the path).
    Io(String),
    /// The file does not start with [`MAGIC`] — not a corpus file.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A stored checksum does not match the recomputed digest.
    ChecksumMismatch {
        /// What the checksum covered (`"header"` or `"segment"`).
        what: &'static str,
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
    },
    /// The file ends before a declared structure is complete.
    Truncated {
        /// The structure that was cut short.
        context: &'static str,
    },
    /// A structural invariant is violated (duplicate id, dangling
    /// tombstone, malformed tree, live-count mismatch, ...).
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "{msg}"),
            PersistError::BadMagic => write!(f, "not a corpus file (bad magic)"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported corpus format version {found} (this build reads version {supported})"
            ),
            PersistError::ChecksumMismatch {
                what,
                stored,
                computed,
            } => write!(
                f,
                "{what} checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — file is corrupt"
            ),
            PersistError::Truncated { context } => {
                write!(f, "file truncated inside {context}")
            }
            PersistError::Corrupt(msg) => write!(f, "corrupt corpus file: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn corrupt<T>(msg: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError::Corrupt(msg.into()))
}

/// The decoded fixed file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version (always [`FORMAT_VERSION`]).
    pub version: u32,
    /// Feature flags ([`FLAG_PQ_PROFILES`] set, no unknown bits).
    pub flags: u32,
    /// The id the next inserted tree will receive (ids are never reused).
    pub next_id: u64,
    /// Live tree count after replaying every segment.
    pub live: u64,
}

impl Header {
    /// The current-format header for a file with the given counts.
    pub fn new(next_id: u64, live: u64) -> Header {
        Header {
            version: FORMAT_VERSION,
            flags: FLAG_PQ_PROFILES,
            next_id,
            live,
        }
    }

    /// Serializes the header, computing its checksum.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[..8].copy_from_slice(&MAGIC);
        buf[8..12].copy_from_slice(&self.version.to_le_bytes());
        buf[12..16].copy_from_slice(&self.flags.to_le_bytes());
        buf[16..24].copy_from_slice(&self.next_id.to_le_bytes());
        buf[24..32].copy_from_slice(&self.live.to_le_bytes());
        // bytes 32..40 reserved (zero)
        let checksum = fnv1a(&buf[..40]);
        buf[40..48].copy_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Parses and validates the header at the start of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Header, PersistError> {
        if buf.len() < HEADER_LEN {
            if buf.len() >= MAGIC.len() && buf[..MAGIC.len()] != MAGIC {
                return Err(PersistError::BadMagic);
            }
            return Err(PersistError::Truncated { context: "header" });
        }
        if buf[..8] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let stored = u64::from_le_bytes(buf[40..48].try_into().unwrap());
        let computed = fnv1a(&buf[..40]);
        if stored != computed {
            return Err(PersistError::ChecksumMismatch {
                what: "header",
                stored,
                computed,
            });
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let flags = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        // Unknown feature bits mean the record layout has extensions this
        // build cannot frame, and a missing bit 0 means records without
        // the profiles it expects: reject either instead of mis-reading.
        if flags & !KNOWN_FLAGS != 0 {
            return corrupt(format!(
                "unknown feature flag bits {:#010x} for format version {version} \
                 (file written by a newer build?)",
                flags & !KNOWN_FLAGS
            ));
        }
        if flags & FLAG_PQ_PROFILES == 0 {
            return corrupt(format!(
                "required feature flag bits {FLAG_PQ_PROFILES:#010x} (pq-gram profiles) \
                 missing for format version {version}"
            ));
        }
        Ok(Header::new(
            u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        ))
    }
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Name of the structure being read, for truncation errors.
    context: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], context: &'static str) -> Self {
        Reader {
            buf,
            pos: 0,
            context,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(PersistError::Truncated {
                context: self.context,
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Unread bytes — the upper bound any declared element count can
    /// honestly describe. Pre-allocations must be capped by this so a
    /// crafted count cannot force a huge allocation before the bounds
    /// checks reject it.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Wraps a payload in a segment header (kind, length, checksum over all
/// three parts).
pub(crate) fn segment_bytes(kind: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN + payload.len());
    put_u32(&mut out, kind);
    put_u64(&mut out, payload.len() as u64);
    let digest = fnv1a_update(fnv1a_update(FNV_OFFSET, &out[..12]), payload);
    put_u64(&mut out, digest);
    out.extend_from_slice(payload);
    out
}

/// Encodes a trees segment (string table + records) for `entries`, which
/// must be in ascending id order for canonical output.
pub(crate) fn trees_segment<'a>(entries: &[(usize, &'a CorpusEntry<String>)]) -> Vec<u8> {
    // Intern labels in first-occurrence order (trees in id order, nodes in
    // postorder) — deterministic for a given corpus state.
    let mut table: Vec<&'a str> = Vec::new();
    let mut label_ids: HashMap<&'a str, u32> = HashMap::new();
    for (_, entry) in entries {
        let tree = entry.tree();
        for v in tree.nodes() {
            let label = tree.label(v).as_str();
            if !label_ids.contains_key(label) {
                label_ids.insert(label, table.len() as u32);
                table.push(label);
            }
        }
    }

    let mut payload = Vec::new();
    put_u32(&mut payload, table.len() as u32);
    for label in &table {
        put_u32(&mut payload, label.len() as u32);
        payload.extend_from_slice(label.as_bytes());
    }

    put_u32(&mut payload, entries.len() as u32);
    for &(id, entry) in entries {
        let tree = entry.tree();
        let sketch = entry.sketch();
        put_u64(&mut payload, id as u64);
        put_u32(&mut payload, tree.len() as u32);
        for v in tree.nodes() {
            put_u32(&mut payload, label_ids[tree.label(v).as_str()]);
        }
        for d in tree.postorder_degrees() {
            put_u32(&mut payload, d);
        }
        put_u32(&mut payload, sketch.max_depth);
        put_u32(&mut payload, sketch.leaves as u32);
        // Histogram sorted by label id — the canonical order (HashMap
        // iteration order would break byte-identical re-encoding).
        let mut hist: Vec<(u32, u32)> = sketch
            .histogram
            .counts()
            .map(|(label, count)| (label_ids[label.as_str()], count))
            .collect();
        hist.sort_unstable();
        put_u32(&mut payload, hist.len() as u32);
        for (label_id, count) in hist {
            put_u32(&mut payload, label_id);
            put_u32(&mut payload, count);
        }
        // pq-gram profile: params, then the two sorted gram arrays.
        // Lengths are not stored — they are determined by the node count
        // and the params (n + p − 1 / n + q − 1).
        let pq = &sketch.pq;
        put_u32(&mut payload, pq.params().p);
        put_u32(&mut payload, pq.params().q);
        for &g in pq.pre_grams() {
            put_u64(&mut payload, g);
        }
        for &g in pq.post_grams() {
            put_u64(&mut payload, g);
        }
    }
    segment_bytes(SEG_TREES, &payload)
}

/// Encodes a tombstones segment for the given removed ids.
pub(crate) fn tombstones_segment(ids: &[usize]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + 8 * ids.len());
    put_u32(&mut payload, ids.len() as u32);
    for &id in ids {
        put_u64(&mut payload, id as u64);
    }
    segment_bytes(SEG_TOMBSTONES, &payload)
}

/// Serializes a corpus as a complete file image: header plus a single
/// trees segment holding every live entry. This is the canonical (compact)
/// encoding — re-encoding a loaded corpus reproduces it byte for byte.
pub fn encode_corpus(corpus: &TreeCorpus<String>) -> Vec<u8> {
    let header = Header::new(corpus.id_bound() as u64, corpus.len() as u64);
    let mut out = header.encode().to_vec();
    if !corpus.is_empty() {
        let entries: Vec<_> = corpus.iter().collect();
        out.extend_from_slice(&trees_segment(&entries));
    }
    out
}

/// Per-id slot table the segment decoders replay into.
///
/// In strict mode every id must fall below the header's `next_id`; in grow
/// mode (tail salvage, see [`salvage_corpus`]) the table expands to hold
/// ids a *stale* header does not cover yet — the signature state of a
/// crash between a segment append and its header rewrite.
struct SlotTable<L> {
    slots: Vec<Option<CorpusEntry<L>>>,
    grow: bool,
}

impl<L> SlotTable<L> {
    fn new(reserved: usize, grow: bool) -> Result<Self, PersistError> {
        // One slot per ever-assigned id is the corpus's own in-memory
        // layout (removed ids stay reserved), so the allocation is
        // legitimate for any honest file and cannot be bounded by the file
        // size (compaction makes next_id independent of it). `try_reserve`
        // converts direct allocation failure into an error instead of an
        // abort.
        let mut slots: Vec<Option<CorpusEntry<L>>> = Vec::new();
        slots.try_reserve_exact(reserved).map_err(|_| {
            PersistError::Corrupt(format!("cannot allocate id table for next_id {reserved}"))
        })?;
        slots.resize_with(reserved, || None);
        Ok(SlotTable { slots, grow })
    }

    fn is_live(&self, id: usize) -> bool {
        self.slots.get(id).is_some_and(|s| s.is_some())
    }

    /// Validates that a tree record may claim `id` (called during the
    /// parse phase, before anything is committed).
    fn check_tree_id(&self, id: usize) -> Result<(), PersistError> {
        if id >= self.slots.len() && !self.grow {
            return corrupt(format!("tree id {id} exceeds header next_id"));
        }
        if id >= u32::MAX as usize {
            return corrupt(format!("tree id {id} exceeds the id space"));
        }
        Ok(())
    }

    /// Grows the table to cover `max_id` (grow mode only; a no-op when it
    /// already does). Runs **before** any record of a segment is
    /// committed, so allocation failure leaves the table untouched.
    fn reserve_through(&mut self, max_id: usize) -> Result<(), PersistError> {
        if max_id < self.slots.len() {
            return Ok(());
        }
        debug_assert!(self.grow, "check_tree_id bounds ids in strict mode");
        let extra = max_id + 1 - self.slots.len();
        self.slots.try_reserve(extra).map_err(|_| {
            PersistError::Corrupt(format!("cannot allocate id table through id {max_id}"))
        })?;
        self.slots.resize_with(max_id + 1, || None);
        Ok(())
    }
}

/// Decodes one trees-segment payload, materializing labels through `make`
/// (identity for the zero-copy path, `to_string` for the owned path).
///
/// Application is **atomic**: the whole payload is parsed and validated
/// before the first slot is written, so a payload that fails mid-way
/// leaves `slots` exactly as it was — which is what lets the salvage path
/// keep the state of the last good segment when a later one is torn.
fn decode_trees_payload<'a, L, F>(
    payload: &'a [u8],
    make: &F,
    slots: &mut SlotTable<L>,
) -> Result<(), PersistError>
where
    L: Eq + std::hash::Hash + Clone,
    F: Fn(&'a str) -> L,
{
    let mut r = Reader::new(payload, "trees segment");
    let table_len = r.u32()? as usize;
    // Each table entry occupies ≥ 4 payload bytes (its length prefix), so
    // cap the pre-allocation by what the payload can actually hold — a
    // crafted count must not force a many-GB allocation before the
    // per-entry reads reject it.
    let mut table: Vec<&'a str> = Vec::with_capacity(table_len.min(r.remaining() / 4));
    for _ in 0..table_len {
        let len = r.u32()? as usize;
        let bytes = r.take(len)?;
        let label = std::str::from_utf8(bytes)
            .map_err(|_| PersistError::Corrupt("string table entry is not UTF-8".into()))?;
        table.push(label);
    }
    let tree_count = r.u32()?;
    let mut batch: Vec<(usize, CorpusEntry<L>)> = Vec::new();
    // O(1) in-batch duplicate detection: slot occupancy only covers ids
    // from *earlier* segments (this batch commits after the full parse),
    // and a linear rescan of the batch would make loading a compacted
    // million-tree segment quadratic.
    let mut batch_ids: std::collections::HashSet<usize> = std::collections::HashSet::new();
    for _ in 0..tree_count {
        let id = r.u64()? as usize;
        let n = r.u32()? as usize;
        if n == 0 {
            return corrupt(format!("tree {id} has zero nodes"));
        }
        // Each node occupies ≥ 8 payload bytes (label id + degree): a node
        // count the remaining payload cannot hold is rejected before any
        // n-sized allocation, so a crafted `n` cannot force an abort.
        if n > r.remaining() / 8 {
            return corrupt(format!(
                "tree {id} claims {n} nodes but only {} payload bytes remain",
                r.remaining()
            ));
        }
        let mut labels: Vec<L> = Vec::with_capacity(n);
        for _ in 0..n {
            let label_id = r.u32()? as usize;
            let label = *table.get(label_id).ok_or_else(|| {
                PersistError::Corrupt(format!(
                    "tree {id} references label id {label_id} outside the string table"
                ))
            })?;
            labels.push(make(label));
        }
        let mut degrees: Vec<u32> = Vec::with_capacity(n);
        for _ in 0..n {
            degrees.push(r.u32()?);
        }
        let tree = Tree::from_postorder_degrees(labels, &degrees)
            .map_err(|e| PersistError::Corrupt(format!("tree {id}: {e}")))?;

        let max_depth = r.u32()?;
        let leaves = r.u32()? as usize;
        if leaves > n {
            return corrupt(format!(
                "tree {id}: sketch claims {leaves} leaves in {n} nodes"
            ));
        }
        let hist_len = r.u32()? as usize;
        let mut pairs: Vec<(L, u32)> = Vec::with_capacity(hist_len.min(n));
        for _ in 0..hist_len {
            let label_id = r.u32()? as usize;
            let count = r.u32()?;
            let label = *table.get(label_id).ok_or_else(|| {
                PersistError::Corrupt(format!(
                    "tree {id} histogram references label id {label_id} outside the string table"
                ))
            })?;
            pairs.push((make(label), count));
        }
        let histogram = LabelHistogram::from_counts(pairs);
        if histogram.size() != n {
            return corrupt(format!(
                "tree {id}: histogram covers {} nodes, tree has {n}",
                histogram.size()
            ));
        }
        let p = r.u32()?;
        let q = r.u32()?;
        if p == 0 || q == 0 {
            return corrupt(format!(
                "tree {id}: pq-gram params must be >= 1, got ({p},{q})"
            ));
        }
        let pre_len = n + p as usize - 1;
        let post_len = n + q as usize - 1;
        // Each gram occupies 8 payload bytes: reject counts the remaining
        // payload cannot hold before any allocation, so a crafted p/q
        // cannot force an abort.
        if pre_len.saturating_add(post_len) > r.remaining() / 8 {
            return corrupt(format!(
                "tree {id} claims {} pq-grams but only {} payload bytes remain",
                pre_len + post_len,
                r.remaining()
            ));
        }
        let mut pre: Vec<u64> = Vec::with_capacity(pre_len);
        for _ in 0..pre_len {
            pre.push(r.u64()?);
        }
        let mut post: Vec<u64> = Vec::with_capacity(post_len);
        for _ in 0..post_len {
            post.push(r.u64()?);
        }
        let pq = PqGramProfile::from_parts(PqParams::new(p, q), pre, post);
        let sketch = TreeSketch::from_parts(n, max_depth, leaves, histogram, pq);

        slots.check_tree_id(id)?;
        if slots.is_live(id) || !batch_ids.insert(id) {
            return corrupt(format!("duplicate tree id {id}"));
        }
        batch.push((id, CorpusEntry::from_parts(tree, sketch)));
    }
    if !r.done() {
        return corrupt("trailing bytes after the last tree record".to_string());
    }
    // Commit phase: every record validated, grow once, then write slots.
    if let Some(max_id) = batch.iter().map(|&(id, _)| id).max() {
        slots.reserve_through(max_id)?;
    }
    for (id, entry) in batch {
        slots.slots[id] = Some(entry);
    }
    Ok(())
}

/// Decodes a tombstones-segment payload, vacating the named slots and
/// returning how many. Like [`decode_trees_payload`], application is
/// atomic: ids are parsed and validated first, vacated only once the
/// whole payload checks out.
fn decode_tombstones_payload<L>(
    payload: &[u8],
    slots: &mut SlotTable<L>,
) -> Result<usize, PersistError> {
    let mut r = Reader::new(payload, "tombstones segment");
    let count = r.u32()?;
    let mut batch: Vec<usize> = Vec::with_capacity((count as usize).min(r.remaining() / 8));
    let mut batch_ids: std::collections::HashSet<usize> = std::collections::HashSet::new();
    for _ in 0..count {
        let id = r.u64()? as usize;
        if id >= slots.slots.len() {
            return corrupt(format!("tombstone id {id} exceeds header next_id"));
        }
        if !slots.is_live(id) || !batch_ids.insert(id) {
            return corrupt(format!("tombstone for id {id}, which is not live"));
        }
        batch.push(id);
    }
    if !r.done() {
        return corrupt("trailing bytes after the last tombstone".to_string());
    }
    let count = batch.len();
    for id in batch {
        slots.slots[id] = None;
    }
    Ok(count)
}

/// One decoded-and-applied segment: where the next one starts, and how
/// many tombstone records this one carried.
struct SegmentInfo {
    end: usize,
    tombstones: usize,
}

/// Validates and applies the segment starting at `pos`: bounds, checksum,
/// then the kind-specific payload decoder. Thanks to the decoders'
/// parse-then-commit discipline, an `Err` leaves `slots` untouched.
fn decode_segment<'a, L, F>(
    buf: &'a [u8],
    pos: usize,
    make: &F,
    slots: &mut SlotTable<L>,
) -> Result<SegmentInfo, PersistError>
where
    L: Eq + std::hash::Hash + Clone,
    F: Fn(&'a str) -> L,
{
    let rest = &buf[pos..];
    if rest.len() < SEGMENT_HEADER_LEN {
        return Err(PersistError::Truncated {
            context: "segment header",
        });
    }
    let kind = u32::from_le_bytes(rest[0..4].try_into().unwrap());
    let payload_len = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    let stored = u64::from_le_bytes(rest[12..20].try_into().unwrap());
    let payload_len = usize::try_from(payload_len)
        .ok()
        .filter(|&l| l <= rest.len() - SEGMENT_HEADER_LEN)
        .ok_or(PersistError::Truncated {
            context: "segment payload",
        })?;
    let payload = &rest[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + payload_len];
    let computed = fnv1a_update(fnv1a_update(FNV_OFFSET, &rest[..12]), payload);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch {
            what: "segment",
            stored,
            computed,
        });
    }
    let tombstones = match kind {
        SEG_TREES => {
            decode_trees_payload(payload, make, slots)?;
            0
        }
        SEG_TOMBSTONES => decode_tombstones_payload(payload, slots)?,
        other => return corrupt(format!("unknown segment kind {other}")),
    };
    Ok(SegmentInfo {
        end: pos + SEGMENT_HEADER_LEN + payload_len,
        tombstones,
    })
}

/// Counts of what a full strict decode replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStats {
    /// Segments in the file.
    pub segments: usize,
    /// Tombstone records across all segments (the compaction backlog).
    pub tombstones: usize,
}

/// Decodes a full file image into a corpus, materializing labels via
/// `make`. Validates the header, every segment checksum, and every
/// structural invariant; checks the replayed live count against the
/// header.
fn decode_corpus_full<'a, L, F>(
    buf: &'a [u8],
    make: F,
) -> Result<(TreeCorpus<L>, FileStats), PersistError>
where
    L: Eq + std::hash::Hash + Clone,
    F: Fn(&'a str) -> L,
{
    let header = Header::decode(buf)?;
    if header.next_id >= u32::MAX as u64 {
        return corrupt(format!("next_id {} exceeds the id space", header.next_id));
    }
    let mut slots = SlotTable::new(header.next_id as usize, false)?;
    let mut stats = FileStats {
        segments: 0,
        tombstones: 0,
    };
    let mut pos = HEADER_LEN;
    while pos < buf.len() {
        let info = decode_segment(buf, pos, &make, &mut slots)?;
        stats.segments += 1;
        stats.tombstones += info.tombstones;
        pos = info.end;
    }

    let live = slots.slots.iter().filter(|s| s.is_some()).count();
    if live as u64 != header.live {
        return corrupt(format!(
            "header records {} live trees but segments replay to {live} \
             (file written by an interrupted or conflicting writer?)",
            header.live
        ));
    }
    Ok((TreeCorpus::from_raw_parts(slots.slots), stats))
}

/// What a tail-scan salvage pass recovered from a (possibly torn) corpus
/// file. All-zero `bytes_dropped` with `header_rewritten == false` means
/// the file was already clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairReport {
    /// Complete, valid segments recovered (replayed into the corpus).
    pub segments_recovered: usize,
    /// Bytes dropped from the torn tail (0 for a clean file).
    pub bytes_dropped: u64,
    /// Whether the stored header disagreed with the replayed segments —
    /// the stale-header signature of an interrupted update — and had to
    /// be recomputed from the recovered segments.
    pub header_rewritten: bool,
    /// Live trees after recovery.
    pub live: u64,
    /// Recovered id bound (never below the stored header's `next_id`, so
    /// ids that may exist in application references are never reissued).
    pub next_id: u64,
}

/// The outcome of [`salvage_corpus`]: the recovered corpus plus what a
/// repairer must write back to make the file clean again.
pub struct Salvage {
    /// The corpus replayed from the recovered segment prefix.
    pub corpus: TreeCorpus<String>,
    /// Length of the valid prefix (header + recovered segments); a
    /// repairer truncates the file to this length.
    pub keep_len: usize,
    /// Header consistent with the recovered segments; a repairer writes
    /// this over the stored one when `report.header_rewritten`.
    pub header: Header,
    /// Tombstone records within the recovered segments.
    pub tombstones: usize,
    /// What happened, for operator-facing reporting.
    pub report: RepairReport,
}

/// Tail-scans a corpus file image, salvaging the longest prefix of
/// complete, valid segments and dropping the torn tail — the recovery
/// mode for files left behind by a crash mid-append.
///
/// Unlike the strict loader this accepts ids beyond the stored header's
/// `next_id` (a crash *between* segment append and header rewrite leaves
/// a complete, durable segment the stale header does not acknowledge; its
/// data is valid and is kept) and recomputes the live count from the
/// replayed segments instead of trusting the header.
///
/// Errors only when the header itself is unusable (torn below
/// [`HEADER_LEN`], bad magic, checksum-corrupt, wrong version) — there is
/// no data to salvage without a header. Corruption *behind* a valid
/// prefix (e.g. a bit flip in an early segment) truncates from that point:
/// salvage is a prefix operation, never a skip-over-holes one, because
/// tombstones and superseding inserts only make sense replayed in order.
pub fn salvage_corpus(buf: &[u8]) -> Result<Salvage, PersistError> {
    let header = Header::decode(buf)?;
    if header.next_id >= u32::MAX as u64 {
        return corrupt(format!("next_id {} exceeds the id space", header.next_id));
    }
    let make = |s: &str| s.to_string();
    let mut slots = SlotTable::new(header.next_id as usize, true)?;
    let mut keep_len = HEADER_LEN;
    let mut segments = 0;
    let mut tombstones = 0;
    while keep_len < buf.len() {
        match decode_segment(buf, keep_len, &make, &mut slots) {
            Ok(info) => {
                segments += 1;
                tombstones += info.tombstones;
                keep_len = info.end;
            }
            // The torn tail: everything from here on is dropped. The
            // failed decode did not touch `slots` (parse-then-commit).
            Err(_) => break,
        }
    }
    let live = slots.slots.iter().filter(|s| s.is_some()).count() as u64;
    let next_id = slots.slots.len() as u64;
    let recovered = Header::new(next_id, live);
    let report = RepairReport {
        segments_recovered: segments,
        bytes_dropped: (buf.len() - keep_len) as u64,
        header_rewritten: recovered != header,
        live,
        next_id,
    };
    Ok(Salvage {
        corpus: TreeCorpus::from_raw_parts(slots.slots),
        keep_len,
        header: recovered,
        tombstones,
        report,
    })
}

/// A corpus file image loaded into memory, ready to be decoded.
///
/// Reading validates only the header; [`corpus`](Self::corpus) /
/// [`corpus_owned`](Self::corpus_owned) perform the full checksum and
/// structure validation as they decode.
pub struct CorpusFile {
    buf: Vec<u8>,
}

impl CorpusFile {
    /// Reads a corpus file from disk and validates its header.
    pub fn read(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        let path = path.as_ref();
        let buf = std::fs::read(path)
            .map_err(|e| PersistError::Io(format!("cannot read {}: {e}", path.display())))?;
        Self::from_bytes(buf)
    }

    /// Wraps an in-memory file image, validating its header.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self, PersistError> {
        Header::decode(&buf)?;
        Ok(CorpusFile { buf })
    }

    /// The validated file header.
    pub fn header(&self) -> Header {
        Header::decode(&self.buf).expect("header validated on construction")
    }

    /// The raw file image.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Decodes the zero-copy corpus: labels are `&str` slices **borrowing
    /// from this file's buffer** — no label bytes are copied.
    pub fn corpus(&self) -> Result<TreeCorpus<&str>, PersistError> {
        decode_corpus_full(&self.buf, |s| s).map(|(c, _)| c)
    }

    /// Decodes an owned corpus (labels copied into `String`s), suitable
    /// for handing to a long-lived [`crate::TreeIndex`].
    pub fn corpus_owned(&self) -> Result<TreeCorpus<String>, PersistError> {
        decode_corpus_full(&self.buf, |s| s.to_string()).map(|(c, _)| c)
    }

    /// [`corpus_owned`](Self::corpus_owned) plus replay counters
    /// (segments, tombstone backlog) — what a store or serving layer
    /// needs to decide when compaction is worth it.
    pub fn corpus_owned_with_stats(&self) -> Result<(TreeCorpus<String>, FileStats), PersistError> {
        decode_corpus_full(&self.buf, |s| s.to_string())
    }
}
