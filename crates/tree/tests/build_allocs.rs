//! Allocation budget of tree construction and serialization.
//!
//! Parsing and decoding build the postorder arrays directly: a label owns
//! its one allocation, and the structure costs a fixed number of arrays
//! however many nodes the tree has. Serializing writes every label straight
//! into the output, so it costs only the output and its walk stack. A
//! per-node intermediate (a nested node, a child list or a label string per
//! node) breaks these budgets at once.
//!
//! The counting allocator tallies the calling thread's `alloc`,
//! `alloc_zeroed` and `realloc` calls, so the parallel test harness cannot
//! charge one test with another's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised, so reading or bumping it never allocates.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOC_CALLS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

use rted_tree::{parse_bracket, to_bracket, Tree};

const N: usize = 1000;

/// A 1000-node tree with short ASCII labels, mixing chains and fans.
fn sample() -> String {
    let mut s = String::new();
    let mut open = 0usize;
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    for i in 0..N {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s.push_str(&format!("{{l{}", i % 7));
        open += 1;
        // Close a few nodes, never the root before the last node.
        let mut closes = (state >> 62) as usize;
        while closes > 0 && open > 1 {
            s.push('}');
            open -= 1;
            closes -= 1;
        }
    }
    s.push_str(&"}".repeat(open));
    s
}

#[test]
fn parse_bracket_allocates_once_per_label() {
    let text = sample();
    let before = allocations();
    let t = parse_bracket(&text).unwrap();
    let used = allocations() - before;
    assert_eq!(t.len(), N);
    assert_eq!(to_bracket(&t), text);
    assert!(
        used <= N as u64 + 64,
        "parse_bracket made {used} allocations for {N} nodes"
    );
}

#[test]
fn degree_decode_allocates_a_fixed_number_of_arrays() {
    let t = parse_bracket(&sample()).unwrap();
    let labels: Vec<String> = t.nodes().map(|v| t.label(v).clone()).collect();
    let degrees = t.postorder_degrees();
    let before = allocations();
    let back = Tree::from_postorder_degrees(labels, &degrees).unwrap();
    let used = allocations() - before;
    assert_eq!(back.len(), N);
    assert!(
        used <= 64,
        "from_postorder_degrees made {used} allocations beyond its labels for {N} nodes"
    );
}

#[test]
fn to_bracket_allocates_a_fixed_number_of_buffers() {
    let text = sample();
    let t = parse_bracket(&text).unwrap();
    let before = allocations();
    let back = to_bracket(&t);
    let used = allocations() - before;
    assert_eq!(back, text);
    assert!(
        used <= 64,
        "to_bracket made {used} allocations for {N} nodes"
    );
}
