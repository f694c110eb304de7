//! Proof of the workspace contract: the **second** computation of a pair
//! through a reused [`Workspace`] performs zero heap allocations.
//!
//! A counting global allocator tallies every `alloc`/`alloc_zeroed`/
//! `realloc` of the calling thread; the test warms a workspace with one
//! run per (algorithm, pair), snapshots the counter, repeats the exact run,
//! and demands the counter did not move. The count is per thread because
//! the harness runs these tests in parallel: a process-wide count would
//! charge each test with its siblings' allocations.

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

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

use rted_core::{Algorithm, PerLabelCost, UnitCost, Workspace};
use rted_tree::{parse_bracket, Tree};

/// Deterministic mixed-shape tree of roughly `n` nodes: chains, fans and
/// bushy sections so every single-path function (∆L, ∆R, ∆I) runs.
fn mixed_tree(n: usize, salt: u64) -> Tree<String> {
    let mut s = String::from("{r");
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut open = 0usize;
    let mut emitted = 1usize;
    while emitted < n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let roll = (state >> 59) as usize;
        if roll < 5 && open > 0 {
            s.push('}');
            open -= 1;
        } else {
            s.push_str(&format!("{{l{}", roll % 3));
            open += 1;
            emitted += 1;
        }
    }
    for _ in 0..open {
        s.push('}');
    }
    s.push('}');
    parse_bracket(&s).unwrap()
}

#[test]
fn second_run_through_workspace_is_allocation_free() {
    let pairs = [
        (mixed_tree(60, 1), mixed_tree(55, 2)),
        (mixed_tree(25, 3), mixed_tree(70, 4)),
    ];
    let asym = PerLabelCost::new(1.5, 2.0, 0.75);
    // No dyadic unit: the f64 instantiation of every kernel.
    let plain = PerLabelCost::new(0.1, 0.2, 0.3);

    let mut ws = Workspace::new();
    for (pi, (f, g)) in pairs.iter().enumerate() {
        for alg in Algorithm::ALL {
            // Warm-up run: buffers grow to this pair's sizes.
            let warm = alg.run_in(f, g, &UnitCost, &mut ws);

            let before = allocations();
            let again = alg.run_in(f, g, &UnitCost, &mut ws);
            let delta = allocations() - before;
            assert_eq!(
                delta, 0,
                "{alg} pair {pi}: second run performed {delta} allocations"
            );
            assert_eq!(again.distance, warm.distance, "{alg} pair {pi}");
            assert_eq!(again.subproblems, warm.subproblems, "{alg} pair {pi}");

            // Also under an asymmetric cost model (different cost tables,
            // same buffers) and on f64 cells.
            for (name, cm) in [("asymmetric", &asym), ("f64", &plain)] {
                alg.run_in(f, g, cm, &mut ws);
                let before = allocations();
                alg.run_in(f, g, cm, &mut ws);
                assert_eq!(
                    allocations() - before,
                    0,
                    "{alg} pair {pi}: {name} second run allocated"
                );
            }
        }
    }
}

#[test]
fn warm_bounded_verify_is_allocation_free() {
    // The budgeted kernel draws every buffer from the same pooled
    // workspace, so warm `ted_at_most_run` calls allocate nothing — in the
    // exact regime, the exceeds regime (frontier abandonment), and the
    // size-reject fast path alike, under both cost models.
    use rted_core::{ted_at_most_run, BoundedResult};
    let pairs = [
        (mixed_tree(60, 31), mixed_tree(55, 32)),
        (mixed_tree(25, 33), mixed_tree(70, 34)),
    ];
    let asym = PerLabelCost::new(1.5, 2.0, 0.75);
    let plain = PerLabelCost::new(0.1, 0.2, 0.3);

    let mut ws = Workspace::new();
    for (pi, (f, g)) in pairs.iter().enumerate() {
        // Budgets on both sides of the threshold: ∞ (exact), generous,
        // and tight enough to reject.
        let d = match ted_at_most_run(f, g, &UnitCost, f64::INFINITY, &mut ws).result {
            BoundedResult::Exact(d) => d,
            BoundedResult::Exceeds(_) => unreachable!("infinite budget"),
        };
        let budgets = [f64::INFINITY, d + 1.0, d / 2.0, 0.5];
        for &tau in &budgets {
            ted_at_most_run(f, g, &UnitCost, tau, &mut ws);
            ted_at_most_run(f, g, &asym, tau, &mut ws);
            ted_at_most_run(f, g, &plain, tau, &mut ws);
        }
        let before = allocations();
        for &tau in &budgets {
            let unit = ted_at_most_run(f, g, &UnitCost, tau, &mut ws).result;
            if tau >= d {
                assert_eq!(unit, BoundedResult::Exact(d), "pair {pi} tau={tau}");
            }
            ted_at_most_run(f, g, &asym, tau, &mut ws);
            ted_at_most_run(f, g, &plain, tau, &mut ws);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "pair {pi}: warm bounded verify performed {delta} allocations"
        );
    }
}

#[test]
fn warm_diff_allocates_only_the_output_script() {
    // The diff-pipeline contract: a warm `edit_mapping_in` routes every
    // scratch buffer — keyroot DP tables, per-depth forest-DP sheets,
    // backtrace frame stack — through the workspace, so the only heap
    // allocation left is the returned op vector itself (reserved once at
    // its final capacity, never regrown).
    use rted_core::edit_mapping_in;
    let pairs = [
        (mixed_tree(60, 21), mixed_tree(55, 22)),
        (mixed_tree(25, 23), mixed_tree(70, 24)),
    ];
    let asym = PerLabelCost::new(1.5, 2.0, 0.75);
    let plain = PerLabelCost::new(0.1, 0.2, 0.3);

    let mut ws = Workspace::new();
    for (pi, (f, g)) in pairs.iter().enumerate() {
        let warm = edit_mapping_in(f, g, &UnitCost, &mut ws);

        let before = allocations();
        let again = edit_mapping_in(f, g, &UnitCost, &mut ws);
        let delta = allocations() - before;
        assert!(
            delta <= 1,
            "pair {pi}: warm diff performed {delta} allocations (only the \
             output vector is allowed)"
        );
        assert_eq!(again, warm, "pair {pi}: warm diff changed the mapping");
        drop(again);

        // Same bound under an asymmetric model (different cost tables,
        // same buffers) and on f64 cells.
        for (name, cm) in [("asymmetric", &asym), ("f64", &plain)] {
            edit_mapping_in(f, g, cm, &mut ws);
            let before = allocations();
            let m = edit_mapping_in(f, g, cm, &mut ws);
            let delta = allocations() - before;
            assert!(
                delta <= 1,
                "pair {pi}: {name} warm diff performed {delta} allocations"
            );
            drop(m);
        }
    }
}

/// A caterpillar of `n ≥ 1` nodes whose spine continues through the last
/// child (`zigzag = false`, right-branch) or alternately through the last
/// and the first child (`zigzag = true`); every spine node has one leaf.
fn caterpillar(n: usize, zigzag: bool) -> Tree<String> {
    let mut s = String::new();
    let mut closes = String::new();
    for i in 0..(n - 1) / 2 {
        if zigzag && i % 2 == 1 {
            // Spine first, the leaf after it (closed by `closes`).
            s.push_str(&format!("{{s{}", i % 3));
            closes.insert_str(0, &format!("{{l{}}}}}", i % 2));
        } else {
            s.push_str(&format!("{{s{}{{l{}}}", i % 3, i % 2));
            closes.insert(0, '}');
        }
    }
    s.push_str(if n % 2 == 0 { "{t{u}}" } else { "{t}" });
    parse_bracket(&(s + &closes)).unwrap()
}

#[test]
fn warm_diff_is_allocation_free_on_every_distance_kernel() {
    // The rule may fill the subtree distances with Zhang-R or RTED
    // instead of Zhang-L; the backtrace then reloads the left-view rows
    // and reads the other matrix, still inside the workspace.
    use rted_core::edit_mapping_in;
    let pairs = [
        (
            caterpillar(41, false),
            caterpillar(38, false),
            Algorithm::ZhangR,
        ),
        (
            caterpillar(61, true),
            caterpillar(57, true),
            Algorithm::Rted,
        ),
    ];
    let mut ws = Workspace::new();
    for (f, g, kernel) in &pairs {
        assert_eq!(Algorithm::cheapest_exact(f, g), *kernel);
        let warm = edit_mapping_in(f, g, &UnitCost, &mut ws);
        let before = allocations();
        let again = edit_mapping_in(f, g, &UnitCost, &mut ws);
        let delta = allocations() - before;
        assert!(
            delta <= 1,
            "{kernel}: warm diff performed {delta} allocations"
        );
        assert_eq!(again, warm, "{kernel}: warm diff changed the mapping");
    }
}

#[test]
fn strategy_computation_is_allocation_free_when_warm() {
    use rted_core::{compute_strategy_in, OptimalChooser};
    let f = mixed_tree(80, 7);
    let g = mixed_tree(64, 8);
    let mut ws = Workspace::new();
    let s = compute_strategy_in(&f, &g, &OptimalChooser, &mut ws);
    let warm_cost = s.cost;
    ws.recycle(s);

    let before = allocations();
    let s = compute_strategy_in(&f, &g, &OptimalChooser, &mut ws);
    let cost = s.cost;
    ws.recycle(s);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "warm strategy run performed {delta} allocations");
    assert_eq!(cost, warm_cost);
}

#[test]
fn workspace_survives_shrinking_and_growing_pairs() {
    // Alternate small and large pairs; once the workspace has seen both,
    // repeats of either are allocation-free.
    let small = (mixed_tree(12, 11), mixed_tree(9, 12));
    let large = (mixed_tree(90, 13), mixed_tree(85, 14));
    let mut ws = Workspace::new();
    for _ in 0..2 {
        Algorithm::Rted.run_in(&small.0, &small.1, &UnitCost, &mut ws);
        Algorithm::Rted.run_in(&large.0, &large.1, &UnitCost, &mut ws);
    }
    let before = allocations();
    Algorithm::Rted.run_in(&small.0, &small.1, &UnitCost, &mut ws);
    Algorithm::Rted.run_in(&large.0, &large.1, &UnitCost, &mut ws);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warm alternating runs performed {delta} allocations"
    );
}

#[test]
fn one_pass_over_a_mixed_workload_reaches_the_allocation_fixed_point() {
    // The serving-layer contract: a worker's workspace sees a mixed bag
    // of pairs once, and every later request — in any order — allocates
    // nothing. This is strictly stronger than repeating one pair: the
    // strategy row pool recycles rows across pairs of different widths,
    // and before rows were kept grown to the high-water width, which
    // under-sized row a node popped depended on acquisition order, so
    // stray reallocations kept firing long after warm-up.
    let trees: Vec<Tree<String>> = (0..8).map(|i| mixed_tree(30 + 5 * i, i as u64)).collect();
    let pairs = [(0usize, 1usize), (2, 5), (6, 3), (7, 4)];
    let mut ws = Workspace::new();
    for &(l, r) in &pairs {
        Algorithm::Rted.run_in(&trees[l], &trees[r], &UnitCost, &mut ws);
    }
    let before = allocations();
    // Several orders, including reversed and interleaved revisits.
    for &(l, r) in pairs.iter().chain(pairs.iter().rev()) {
        Algorithm::Rted.run_in(&trees[l], &trees[r], &UnitCost, &mut ws);
        Algorithm::Rted.run_in(&trees[0], &trees[1], &UnitCost, &mut ws);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warm mixed-workload runs performed {delta} allocations"
    );
}

#[test]
fn sibling_threads_allocating_do_not_count() {
    // Two sibling threads allocate between this thread's two counter
    // reads, around a warm run; the barriers force that interleaving.
    // Only this thread's own allocations may reach its count.
    use std::sync::Barrier;
    let (f, g) = (mixed_tree(60, 41), mixed_tree(55, 42));
    let mut ws = Workspace::new();
    Algorithm::Rted.run_in(&f, &g, &UnitCost, &mut ws);
    let (start, done) = (Barrier::new(3), Barrier::new(3));
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                for _ in 0..1000 {
                    std::hint::black_box(vec![0u8; 64]);
                }
                done.wait();
            });
        }
        let before = allocations();
        start.wait();
        Algorithm::Rted.run_in(&f, &g, &UnitCost, &mut ws);
        done.wait();
        let delta = allocations() - before;
        assert_eq!(delta, 0, "a warm run counted {delta} allocations");
    });
}
