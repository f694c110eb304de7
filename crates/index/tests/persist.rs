//! Property tests for the on-disk corpus format: encode/decode is a
//! lossless, canonical bijection on corpus states; loaded corpora answer
//! queries identically to freshly built ones; damaged files are rejected,
//! never mis-read.
//!
//! Trees come from the paper's `Shape` generators with string labels (the
//! CLI's label type), and corpora are exercised *after* random incremental
//! insert/remove sequences, so the properties cover the id-stable holes
//! the append-only store produces.

use proptest::prelude::*;
use rted_datasets::shapes::Shape;
use rted_index::{
    encode_corpus, salvage_corpus, CorpusFile, CorpusStore, PersistError, Recovery, TreeCorpus,
    TreeIndex,
};
use rted_tree::{to_bracket, Tree};

fn arb_shape_tree(max: usize) -> impl Strategy<Value = Tree<String>> {
    (0..Shape::ALL.len(), 1..=max, any::<u32>()).prop_map(|(s, n, seed)| {
        Shape::ALL[s]
            .generate(n, seed as u64)
            .map_labels(|l| format!("L{l}"))
    })
}

/// A corpus that has lived: built, then hit with interleaved inserts and
/// removes (biased 2:1 towards inserts so it stays non-trivial).
fn arb_mutated_corpus(
    max_trees: usize,
    max_nodes: usize,
) -> impl Strategy<Value = TreeCorpus<String>> {
    (
        proptest::collection::vec(arb_shape_tree(max_nodes), 1..=max_trees),
        proptest::collection::vec(
            (any::<bool>(), any::<u32>(), arb_shape_tree(max_nodes)),
            0..8,
        ),
    )
        .prop_map(|(initial, ops)| {
            let mut corpus = TreeCorpus::build(initial);
            for (is_remove, pick, tree) in ops {
                if is_remove && corpus.len() > 1 {
                    // Remove some live id (deterministic pick).
                    let live: Vec<usize> = corpus.iter().map(|(id, _)| id).collect();
                    corpus.remove(live[pick as usize % live.len()]);
                } else {
                    corpus.insert(tree);
                }
            }
            corpus
        })
}

/// Structural equality of two corpora: same ids, same trees, same sketch
/// values.
fn assert_corpus_eq(a: &TreeCorpus<String>, b: &TreeCorpus<String>) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.id_bound(), b.id_bound());
    assert_eq!(a.by_size(), b.by_size());
    for (id, ea) in a.iter() {
        let eb = b.get(id).expect("id live in both");
        assert_eq!(to_bracket(ea.tree()), to_bracket(eb.tree()), "tree {id}");
        assert_eq!(ea.sketch().size, eb.sketch().size);
        assert_eq!(ea.sketch().max_depth, eb.sketch().max_depth);
        assert_eq!(ea.sketch().leaves, eb.sketch().leaves);
        assert_eq!(ea.sketch().internal, eb.sketch().internal);
        assert_eq!(
            ea.sketch().histogram.lower_bound(&eb.sketch().histogram),
            0.0,
            "histograms of tree {id} differ"
        );
        assert_eq!(
            ea.sketch().pq,
            eb.sketch().pq,
            "pq-gram profiles of tree {id} differ"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// encode ∘ decode ∘ encode = encode: saving a loaded corpus
    /// reproduces the file byte for byte (canonical encoding).
    #[test]
    fn save_load_save_is_byte_identical(corpus in arb_mutated_corpus(6, 16)) {
        let bytes = encode_corpus(&corpus);
        let loaded = CorpusFile::from_bytes(bytes.clone())
            .expect("header")
            .corpus_owned()
            .expect("decode");
        assert_corpus_eq(&corpus, &loaded);
        let again = encode_corpus(&loaded);
        prop_assert_eq!(bytes, again);
    }

    /// The borrowed (zero-copy) and owned decoders agree.
    #[test]
    fn zero_copy_load_matches_owned(corpus in arb_mutated_corpus(5, 14)) {
        let bytes = encode_corpus(&corpus);
        let file = CorpusFile::from_bytes(bytes).expect("header");
        let borrowed = file.corpus().expect("borrowed decode");
        let owned = file.corpus_owned().expect("owned decode");
        prop_assert_eq!(borrowed.len(), owned.len());
        prop_assert_eq!(borrowed.by_size(), owned.by_size());
        for (id, e) in borrowed.iter() {
            prop_assert_eq!(
                to_bracket(e.tree()),
                to_bracket(owned.get(id).unwrap().tree())
            );
        }
    }

    /// A loaded corpus answers range, top-k and join queries identically
    /// to the in-memory corpus it was saved from — including the sketches
    /// the filter stages read, and the prune counters they produce.
    #[test]
    fn loaded_corpus_answers_identically(
        corpus in arb_mutated_corpus(6, 16),
        q in arb_shape_tree(16),
        tau_int in 1..20usize,
        k in 1..6usize,
    ) {
        let tau = tau_int as f64;
        let loaded = CorpusFile::from_bytes(encode_corpus(&corpus))
            .expect("header")
            .corpus_owned()
            .expect("decode");
        let mem = TreeIndex::from_corpus(corpus);
        let disk = TreeIndex::from_corpus(loaded);

        let (rm, rd) = (mem.range(&q, tau), disk.range(&q, tau));
        prop_assert_eq!(&rm.neighbors, &rd.neighbors);
        prop_assert_eq!(&rm.stats.filter, &rd.stats.filter);

        let (km, kd) = (mem.top_k(&q, k), disk.top_k(&q, k));
        prop_assert_eq!(&km.neighbors, &kd.neighbors);

        let (jm, jd) = (mem.join(tau), disk.join(tau));
        prop_assert_eq!(&jm.matches, &jd.matches);
        prop_assert_eq!(&jm.stats.filter, &jd.stats.filter);
    }

    /// Every strict prefix of a file image is rejected with an error —
    /// truncation can never yield an `Ok` corpus (or a panic).
    #[test]
    fn truncated_files_are_rejected(
        corpus in arb_mutated_corpus(4, 10),
        frac in 0..1000usize,
    ) {
        // The generator keeps at least one live tree, so every strict
        // prefix (even the empty one) must fail to decode.
        assert!(!corpus.is_empty());
        let bytes = encode_corpus(&corpus);
        // frac = 999 reaches len − 1 for any len ≥ 1, so the maximal
        // strict prefix (just the final byte dropped) is covered too.
        let cut = (frac * bytes.len() / 1000).min(bytes.len() - 1);
        let result = CorpusFile::from_bytes(bytes[..cut].to_vec())
            .and_then(|f| f.corpus_owned().map(|c| c.len()));
        prop_assert!(result.is_err(), "accepted a {cut}-byte prefix of {} bytes", bytes.len());
    }

    /// Every single-byte corruption is rejected: each FNV-1a step is
    /// bijective, so one flipped byte always changes a digest, and every
    /// byte of the file is covered by the header or a segment checksum.
    #[test]
    fn corrupted_files_are_rejected(
        corpus in arb_mutated_corpus(4, 10),
        pos_seed in any::<u32>(),
        delta in 1..255u8,
    ) {
        let mut bytes = encode_corpus(&corpus);
        let pos = pos_seed as usize % bytes.len();
        bytes[pos] ^= delta;
        let result = CorpusFile::from_bytes(bytes)
            .and_then(|f| f.corpus_owned().map(|c| c.len()));
        prop_assert!(result.is_err(), "accepted a flip of byte {pos}");
    }
}

/// The empty corpus (and the all-removed corpus) roundtrip too.
#[test]
fn empty_and_emptied_corpora_roundtrip() {
    let empty: TreeCorpus<String> = TreeCorpus::build(Vec::new());
    let loaded = CorpusFile::from_bytes(encode_corpus(&empty))
        .unwrap()
        .corpus_owned()
        .unwrap();
    assert_eq!(loaded.len(), 0);
    assert_eq!(loaded.id_bound(), 0);

    let mut emptied = TreeCorpus::build(vec![rted_tree::parse_bracket("{a{b}}")
        .unwrap()
        .map_labels(|l| l.to_string())]);
    emptied.remove(0);
    let bytes = encode_corpus(&emptied);
    let loaded = CorpusFile::from_bytes(bytes.clone())
        .unwrap()
        .corpus_owned()
        .unwrap();
    assert_eq!(loaded.len(), 0);
    // The removed id stays reserved across the roundtrip.
    assert_eq!(loaded.id_bound(), 1);
    assert_eq!(encode_corpus(&loaded), bytes);
}

/// A crafted header with an absurd id count is rejected with an error —
/// not an attempted multi-terabyte allocation.
#[test]
fn hostile_next_id_is_rejected() {
    let corpus: TreeCorpus<String> = TreeCorpus::build(vec![rted_tree::parse_bracket("{a}")
        .unwrap()
        .map_labels(|l| l.to_string())]);
    let mut bytes = encode_corpus(&corpus);
    // next_id sits at header bytes 16..24; forge it past the u32 id space
    // and re-stamp the header checksum so only the decoder's own sanity
    // check can catch it.
    bytes[16..24].copy_from_slice(&(u64::from(u32::MAX) + 5).to_le_bytes());
    restamp(&mut bytes);
    match CorpusFile::from_bytes(bytes).unwrap().corpus_owned().err() {
        Some(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("id space"), "unexpected message: {msg}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Wrong-version files — a newer build's, or the retired version 1 —
/// are reported as such, not as garbage.
#[test]
fn future_version_is_rejected_with_version_error() {
    let corpus: TreeCorpus<String> = TreeCorpus::build(vec![rted_tree::parse_bracket("{a}")
        .unwrap()
        .map_labels(|l| l.to_string())]);
    for version in [3u8, 1] {
        let mut bytes = encode_corpus(&corpus);
        bytes[8] = version;
        restamp(&mut bytes);
        match CorpusFile::from_bytes(bytes).err() {
            Some(err @ PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, u32::from(version));
                assert_eq!(supported, 2);
                assert!(
                    err.to_string().contains("this build reads version 2"),
                    "{err}"
                );
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
}

/// Unknown feature-flag bits are rejected with a clear error — a file
/// whose records carry layout extensions this build cannot frame must
/// never be guessed at.
#[test]
fn unknown_flag_bits_are_rejected() {
    let corpus: TreeCorpus<String> = TreeCorpus::build(vec![rted_tree::parse_bracket("{a{b}}")
        .unwrap()
        .map_labels(|l| l.to_string())]);
    let mut bytes = encode_corpus(&corpus);
    // Set an undefined flag bit (flags live at header bytes 12..16) and
    // re-stamp the checksum so only the flag validation can reject it.
    bytes[12] |= 0x04;
    restamp(&mut bytes);
    match CorpusFile::from_bytes(bytes).err() {
        Some(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("feature flag"), "unexpected message: {msg}")
        }
        other => panic!("expected Corrupt (unknown flags), got {other:?}"),
    }
}

/// The header alone decides the record layout, so a header without the
/// required profile flag is refused by the loader and by a repairing
/// open — which must leave the file as it found it, not truncate every
/// record as if it were a torn tail.
#[test]
fn cleared_profile_flag_is_refused_and_never_repaired() {
    let trees = ["{a{b}{c}}", "{x{y}}", "{z}"].map(|s| {
        rted_tree::parse_bracket(s)
            .unwrap()
            .map_labels(|l| l.to_string())
    });
    let mut bytes = encode_corpus(&TreeCorpus::build(trees));
    bytes[12] &= !0x01;
    restamp(&mut bytes);
    match CorpusFile::from_bytes(bytes.clone()).err() {
        Some(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("feature flag"), "unexpected message: {msg}")
        }
        other => panic!("expected Corrupt (missing flag), got {other:?}"),
    }
    let path = std::env::temp_dir().join(format!("rted-persist-flag-{}.idx", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    assert!(CorpusStore::open_with(&path, Recovery::Repair).is_err());
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    std::fs::remove_file(&path).unwrap();
}

/// A segment header whose length runs past the end of the address space
/// is a truncated file, not an overflow panic.
#[test]
fn overflowing_segment_length_is_rejected() {
    let mut bytes = encode_corpus(&TreeCorpus::build(Vec::new()));
    bytes.extend_from_slice(&rted_index::persist::SEG_TREES.to_le_bytes());
    bytes.extend_from_slice(&(u64::MAX - 5).to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes()); // segment checksum
    let file = CorpusFile::from_bytes(bytes).unwrap();
    assert_eq!(
        file.corpus_owned_with_stats().err(),
        Some(PersistError::Truncated {
            context: "segment payload"
        })
    );
    // Salvage keeps the valid header and drops the bogus segment.
    let salvage = salvage_corpus(file.bytes()).unwrap();
    assert_eq!(salvage.keep_len, rted_index::persist::HEADER_LEN);
}

/// Re-stamps the header checksum after a test edits header bytes, so only
/// the decoder's own validation can reject the edit.
fn restamp(bytes: &mut [u8]) {
    let checksum = rted_index::persist::fnv1a(&bytes[..40]);
    bytes[40..48].copy_from_slice(&checksum.to_le_bytes());
}
