//! Stress tests for the heavy-path single-path function `∆I` — the most
//! intricate component — on shapes that exercise each structural edge case
//! of its period machinery.

use rted_core::strategy::{PathChoice, Side};
use rted_core::zs::zs_distance;
use rted_core::{Executor, UnitCost};
use rted_tree::{parse_bracket, PathKind, Tree, TreeBuilder};

/// Runs Klein (all pairs → heavy path of F), the G-side heavy constant
/// strategy, and Demaine against Zhang–Shasha.
fn check_heavy(f: &Tree<String>, g: &Tree<String>, name: &str) {
    let want = zs_distance(f, g, &UnitCost);
    for choice in [
        PathChoice {
            side: Side::F,
            kind: PathKind::Heavy,
        },
        PathChoice {
            side: Side::G,
            kind: PathKind::Heavy,
        },
    ] {
        let mut exec = Executor::new(f, g, &UnitCost);
        let got = exec.run(&choice);
        assert_eq!(got, want, "{name}: {choice}");
    }
    let mut exec = Executor::new(f, g, &UnitCost);
    let got = exec.run(&rted_core::strategy::DemaineHeavy);
    assert_eq!(got, want, "{name}: Demaine");
}

fn star(n: usize, label: &str) -> Tree<String> {
    let mut b = TreeBuilder::new();
    b.open(label.to_string());
    for i in 0..n - 1 {
        b.leaf(format!("c{}", i % 3));
    }
    b.up();
    b.finish().unwrap()
}

/// A chain of `n` nodes: `n{i % 4}` at depth `n - 1 - i`, leaf `x`.
fn chain(n: usize) -> Tree<String> {
    let mut b = TreeBuilder::new();
    for i in (1..n).rev() {
        b.open(format!("n{}", i % 4));
    }
    b.leaf("x".to_string());
    for _ in 1..n {
        b.up();
    }
    b.finish().unwrap()
}

/// A comb: spine nodes `i`, each with a leaf `s{i % 2}` to the right of
/// the spine (`left`, a left comb) or to its left; the spine ends in `l`.
fn comb(n: usize, left: bool) -> Tree<String> {
    let mut b = TreeBuilder::new();
    for i in (1..n / 2).rev() {
        b.open("i".to_string());
        if !left {
            b.leaf(format!("s{}", i % 2));
        }
    }
    b.leaf("l".to_string());
    for i in 1..n / 2 {
        if left {
            b.leaf(format!("s{}", i % 2));
        }
        b.up();
    }
    b.finish().unwrap()
}

#[test]
fn star_vs_star() {
    // Path of length 1 below the root: one period with many siblings.
    check_heavy(&star(40, "r"), &star(33, "r"), "star×star");
    check_heavy(&star(40, "r"), &star(40, "q"), "star×star same size");
}

#[test]
fn chain_vs_chain() {
    // Max periods, no siblings at all; B-side |A(G)| = |G| (minimal).
    check_heavy(&chain(60), &chain(45), "chain×chain");
}

#[test]
fn chain_vs_star() {
    // A-side all-trivial periods against a B-side with one giant family.
    check_heavy(&chain(50), &star(50, "r"), "chain×star");
    check_heavy(&star(50, "r"), &chain(50), "star×chain");
}

#[test]
fn left_comb_only_left_siblings() {
    // Heavy path = spine; in the left comb every period has exactly one
    // LEFT sibling and none on the right (stage R empty).
    check_heavy(&comb(60, false), &comb(50, false), "rcomb×rcomb");
}

#[test]
fn right_comb_only_right_siblings() {
    check_heavy(&comb(60, true), &comb(50, true), "lcomb×lcomb");
    check_heavy(&comb(60, true), &comb(60, false), "lcomb×rcomb");
}

#[test]
fn wide_shallow_periods() {
    // Path node with many siblings on both sides of the heavy child.
    let mk = |k: usize| {
        let mut b = TreeBuilder::new();
        b.open("root".to_string());
        for i in 0..k {
            if i == k / 2 {
                b.open("h".into())
                    .leaf("u".into())
                    .leaf("v".into())
                    .leaf("w".into())
                    .up();
            }
            b.leaf(format!("a{}", i % 2));
        }
        b.up();
        b.finish().unwrap()
    };
    check_heavy(&mk(12), &mk(9), "wide periods");
}

#[test]
fn heavy_child_not_first_or_last() {
    let f = parse_bracket("{r{a}{h{x{p}{q}}{y}}{b}{c}}").unwrap();
    let g = parse_bracket("{r{a}{b}{h{x}{y{p}{q}}}{c}}").unwrap();
    check_heavy(&f, &g, "middle heavy child");
}

#[test]
fn nested_heavy_paths_switch_sides() {
    // Alternating zig-zag: heavy paths change direction at every level.
    let f = parse_bracket("{a{b{c{d{e}{f}}{g}}{h}}{i}}").unwrap();
    let g = parse_bracket("{a{i}{b{h}{c{g}{d{f}{e}}}}}").unwrap();
    check_heavy(&f, &g, "nested alternating");
}

#[test]
fn singleton_sides() {
    let one = parse_bracket("{z}").unwrap();
    check_heavy(&one, &star(20, "r"), "1×star");
    check_heavy(&star(20, "r"), &one, "star×1");
    check_heavy(&one, &one, "1×1");
}

#[test]
fn duplicate_labels_everywhere() {
    // All-equal labels force the DP to discriminate purely structurally.
    let f = star(25, "x").map_labels(|_| "x".to_string());
    let g = chain(25).map_labels(|_| "x".to_string());
    check_heavy(&f, &g, "all-equal labels");
    // Distance = |25 - 25| structural moves only; sanity bound.
    let d = zs_distance(&f, &g, &UnitCost);
    assert!(d > 0.0 && d < 50.0);
}

#[test]
fn medium_random_cross_validation() {
    // Deterministic LCG-driven random trees, moderately sized so the heavy
    // machinery runs hundreds of periods.
    let mut seed = 0xdead_beefu64;
    let mut rnd = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u32
    };
    for trial in 0..8 {
        let n1 = 40 + (rnd() % 60) as usize;
        let n2 = 40 + (rnd() % 60) as usize;
        let mk = |n: usize, rnd: &mut dyn FnMut() -> u32| {
            let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
            for i in 1..n {
                let p = rnd() % i as u32;
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
            let labels: Vec<String> = (0..n).map(|_| format!("{}", rnd() % 3)).collect();
            Tree::from_postorder_degrees(labels, &degrees).unwrap()
        };
        let f = mk(n1, &mut rnd);
        let g = mk(n2, &mut rnd);
        check_heavy(&f, &g, &format!("random trial {trial}"));
    }
}
