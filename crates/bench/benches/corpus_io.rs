//! Criterion microbenchmarks: persistence of the rted-index corpus —
//! cold-loading a saved corpus file versus rebuilding it from bracket
//! text, plus the encode (save) path and the zero-copy borrow path.
//!
//! The point of the on-disk format is that a restart pays decode cost, not
//! re-analysis cost: `cold_load` must beat `rebuild` or persistence is not
//! pulling its weight.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rted_datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
use rted_index::{encode_corpus, CorpusFile, CorpusStore, TreeCorpus};
use rted_tree::{parse_bracket, to_bracket, Tree};
use std::hint::black_box;

/// A mixed-shape corpus with string labels (the CLI's label type).
fn corpus_trees(n_trees: usize, tree_size: usize) -> Vec<Tree<String>> {
    let mut trees = Vec::with_capacity(n_trees);
    for i in 0..n_trees {
        let shape = Shape::ALL[i % Shape::ALL.len()];
        let base = shape.generate(tree_size + (i * 7) % 25, i as u64);
        let t = if i % 3 == 0 {
            perturb_labels(&base, 2, DEFAULT_ALPHABET, 1000 + i as u64)
        } else {
            base
        };
        trees.push(t.map_labels(|l| format!("label{l}")));
    }
    trees
}

fn corpus_io(c: &mut Criterion) {
    let mut group = c.benchmark_group("corpus_io");
    group.sample_size(10);

    let n_trees = 150;
    let trees = corpus_trees(n_trees, 40);

    let dir = std::env::temp_dir().join(format!("rted-corpus-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let flat_path = dir.join("corpus.trees");
    let idx_path = dir.join("corpus.idx");

    let flat: String = trees.iter().map(|t| to_bracket(t) + "\n").collect();
    std::fs::write(&flat_path, &flat).expect("write flat corpus");
    CorpusStore::create(&idx_path, trees.clone()).expect("write corpus index");

    // The baseline a restart pays without persistence: parse every bracket
    // line and re-run the per-tree analysis.
    group.bench_with_input(
        BenchmarkId::new("rebuild", n_trees),
        &flat_path,
        |b, path| {
            b.iter(|| {
                let text = std::fs::read_to_string(path).unwrap();
                let trees: Vec<Tree<String>> =
                    text.lines().map(|l| parse_bracket(l).unwrap()).collect();
                black_box(TreeCorpus::build(trees).len())
            });
        },
    );

    // The parse share of `rebuild`: bracket text to trees, no analysis.
    group.bench_with_input(BenchmarkId::new("parse", n_trees), &flat, |b, text| {
        b.iter(|| {
            let trees: Vec<Tree<String>> =
                text.lines().map(|l| parse_bracket(l).unwrap()).collect();
            black_box(trees.len())
        });
    });

    // Cold load: read + decode the binary image, sketches included.
    group.bench_with_input(
        BenchmarkId::new("cold_load_owned", n_trees),
        &idx_path,
        |b, path| {
            b.iter(|| {
                let file = CorpusFile::read(path).unwrap();
                black_box(file.corpus_owned().unwrap().len())
            });
        },
    );

    // Zero-copy cold load: labels borrow from the file buffer.
    group.bench_with_input(
        BenchmarkId::new("cold_load_zero_copy", n_trees),
        &idx_path,
        |b, path| {
            b.iter(|| {
                let file = CorpusFile::read(path).unwrap();
                black_box(file.corpus().unwrap().len())
            });
        },
    );

    // Save path: canonical encode of an in-memory corpus.
    let built = TreeCorpus::build(trees);
    group.bench_with_input(BenchmarkId::new("encode", n_trees), &built, |b, corpus| {
        b.iter(|| black_box(encode_corpus(corpus).len()));
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, corpus_io);
criterion_main!(benches);
