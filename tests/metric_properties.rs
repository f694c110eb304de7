//! Metric and invariance properties of the unit-cost tree edit distance,
//! checked through `ted` (the per-pair exact rule) on randomized inputs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rted::core::{ted, Algorithm, UnitCost};
use rted::datasets::shapes::{perturb_labels, random_tree, relabel_random, DEFAULT_ALPHABET};
use rted::datasets::Shape;
use rted::tree::Tree;

fn rnd(seed: u64, n: usize) -> Tree<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = random_tree(n, 15, 6, &mut rng);
    relabel_random(&t, 5, seed)
}

#[test]
fn identity() {
    for seed in 0..10 {
        let t = rnd(seed, 1 + (seed as usize * 17) % 60);
        assert_eq!(ted(&t, &t), 0.0, "seed {seed}");
    }
}

#[test]
fn symmetry() {
    for seed in 0..20 {
        let f = rnd(seed, 1 + (seed as usize * 11) % 45);
        let g = rnd(seed + 100, 1 + (seed as usize * 19) % 45);
        assert_eq!(ted(&f, &g), ted(&g, &f), "seed {seed}");
    }
}

#[test]
fn triangle_inequality() {
    for seed in 0..12 {
        let a = rnd(seed, 20 + (seed as usize * 3) % 15);
        let b = rnd(seed + 50, 18 + (seed as usize * 5) % 15);
        let c = rnd(seed + 99, 16 + (seed as usize * 7) % 15);
        let ab = ted(&a, &b);
        let bc = ted(&b, &c);
        let ac = ted(&a, &c);
        assert!(ac <= ab + bc + 1e-9, "seed {seed}: {ac} > {ab} + {bc}");
    }
}

#[test]
fn size_bounds() {
    for seed in 0..20 {
        let f = rnd(seed, 1 + (seed as usize * 13) % 50);
        let g = rnd(seed + 31, 1 + (seed as usize * 7) % 50);
        let d = ted(&f, &g);
        let lo = (f.len() as f64 - g.len() as f64).abs();
        let hi = (f.len() + g.len()) as f64;
        assert!(d >= lo && d <= hi, "seed {seed}: {d} outside [{lo}, {hi}]");
    }
}

#[test]
fn mirror_invariance() {
    // TED(F, G) = TED(mirror F, mirror G): reversing sibling order on both
    // sides preserves every mapping.
    for seed in 0..15 {
        let f = rnd(seed, 10 + (seed as usize * 11) % 40);
        let g = rnd(seed + 7, 10 + (seed as usize * 5) % 40);
        assert_eq!(
            ted(&f, &g),
            ted(&f.mirrored(), &g.mirrored()),
            "seed {seed}"
        );
    }
}

#[test]
fn label_permutation_invariance() {
    // Applying one injective relabeling to both trees preserves distances.
    for seed in 0..10 {
        let f = rnd(seed, 25);
        let g = rnd(seed + 3, 25);
        let perm = |l: &u32| (l * 7 + 13) % 101; // injective on 0..=100
        let fp = f.map_labels(perm);
        let gp = g.map_labels(perm);
        assert_eq!(ted(&f, &g), ted(&fp, &gp), "seed {seed}");
    }
}

#[test]
fn k_perturbations_bound_distance() {
    // k label changes yield distance ≤ k.
    for seed in 0..15 {
        let f = rnd(seed, 40);
        let k = (seed as usize % 6) + 1;
        let g = perturb_labels(&f, k, DEFAULT_ALPHABET, seed + 77);
        let d = ted(&f, &g);
        assert!(d <= k as f64, "seed {seed}: {d} > {k}");
    }
}

#[test]
fn subtree_deletion_distance() {
    // Removing a whole subtree costs exactly its size under unit costs
    // when everything else is untouched.
    let f = rted::parse_bracket("{a{b{c}{d}}{e{f}{g{h}}}}").unwrap();
    let g = rted::parse_bracket("{a{b{c}{d}}}").unwrap();
    assert_eq!(ted(&f, &g), 4.0);
}

#[test]
fn distance_zero_iff_equal_structure_and_labels() {
    for seed in 0..10 {
        let f = rnd(seed, 30);
        let g = perturb_labels(&f, 1, 1000 + seed as u32, seed + 1);
        // The perturbation draws from a disjoint alphabet, so it must
        // change something.
        let structurally_equal = f.nodes().all(|v| f.label(v) == g.label(v));
        let d = ted(&f, &g);
        assert_eq!(d == 0.0, structurally_equal, "seed {seed}");
    }
}

#[test]
fn caterpillar_vs_caterpillar_exact() {
    // LB and RB of the same odd size n share the leaf multiset; distance
    // is driven by structure. Sanity: all algorithms agree and the value
    // is stable across sizes (regression guard on adversarial inputs).
    for n in [11usize, 21, 31] {
        let f = Shape::LeftBranch.generate(n, 900);
        let g = Shape::RightBranch.generate(n, 900);
        let d0 = Algorithm::ZhangL.run(&f, &g, &UnitCost).distance;
        for alg in Algorithm::ALL {
            assert_eq!(alg.run(&f, &g, &UnitCost).distance, d0, "{alg} n={n}");
        }
    }
}
