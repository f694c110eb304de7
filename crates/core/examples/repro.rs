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
use rted_tree::Tree;

fn tree_from_choices(n: usize, rnd: &mut impl FnMut() -> u32) -> Tree<u8> {
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 1..n {
        let p = rnd() % i as u32;
        children[p as usize].push(i as u32);
    }
    // Postorder walk: emit each node's label and child count.
    let mut labels = Vec::with_capacity(n);
    let mut degrees = Vec::with_capacity(n);
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        let ch = &children[v as usize];
        if *i < ch.len() {
            let c = ch[*i];
            *i += 1;
            stack.push((c, 0));
        } else {
            labels.push((v % 3) as u8);
            degrees.push(ch.len() as u32);
            stack.pop();
        }
    }
    Tree::from_postorder_degrees(labels, &degrees).unwrap()
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
        let f = tree_from_choices(n1, &mut rnd);
        let g = tree_from_choices(n2, &mut rnd);
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
