//! Randomized cross-validation scanner: all six constant GTED strategies
//! and RTED against the recursive reference on tens of thousands of random
//! tree pairs. Exits on the first mismatch with a reproducer.
//!
//! ```text
//! cargo run --release -p rted-core --example repro -- [trials] [max_n]
//! ```

use rted_core::reference::reference_ted;
use rted_core::strategy::PathChoice;
use rted_core::{Executor, UnitCost};
use rted_datasets::shapes::tree_from_choices;
use rted_tree::Tree;

/// A random `n`-node tree: node `i` attaches under `rnd() % i`, and node
/// `v` is labelled `v % 3` (insertion order).
fn random_tree(n: usize, rnd: &mut impl FnMut() -> u32) -> Tree<u8> {
    let labels: Vec<u8> = (0..n).map(|v| (v % 3) as u8).collect();
    let choices: Vec<u32> = (1..n).map(|_| rnd()).collect();
    tree_from_choices(&labels, &choices)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trials: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let max_n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(9);

    let mut seed: u64 = 0x1234_5678;
    let mut rnd = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u32
    };
    for trial in 0..trials {
        let n1 = 1 + (rnd() as usize) % max_n;
        let n2 = 1 + (rnd() as usize) % max_n;
        let f = random_tree(n1, &mut rnd);
        let g = random_tree(n2, &mut rnd);
        let want = reference_ted(&f, &g, &UnitCost);
        for choice in PathChoice::ALL {
            let mut exec = Executor::new(&f, &g, &UnitCost);
            let got = exec.run(&choice);
            if got != want {
                println!("MISMATCH trial {trial} choice {choice}: got {got} want {want}");
                println!(
                    "f: {}",
                    rted_tree::to_bracket(&f.map_labels(|l| l.to_string()))
                );
                println!(
                    "g: {}",
                    rted_tree::to_bracket(&g.map_labels(|l| l.to_string()))
                );
                std::process::exit(1);
            }
        }
        let strat = rted_core::optimal_strategy(&f, &g);
        let mut exec = Executor::new(&f, &g, &UnitCost);
        let got = exec.run(&strat);
        if got != want {
            println!("RTED MISMATCH trial {trial}: got {got} want {want}");
            println!(
                "f: {}",
                rted_tree::to_bracket(&f.map_labels(|l| l.to_string()))
            );
            println!(
                "g: {}",
                rted_tree::to_bracket(&g.map_labels(|l| l.to_string()))
            );
            std::process::exit(1);
        }
    }
    println!("ok: {trials} random pairs, all strategies match the reference");
}
