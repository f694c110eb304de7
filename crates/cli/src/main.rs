//! `rted` — command-line tree edit distance.
//!
//! ```text
//! rted distance  <TREE1> <TREE2> [--xml] [--algorithm NAME] [--costs D,I,R]
//!                [--at-most T]
//! rted compare   <TREE1> <TREE2> [--xml]
//! rted diff      <TREE1> <TREE2> [--xml] [--costs D,I,R] [--format text|json]
//! rted diff      --index INDEX <ID1> <ID2> [--format text|json]
//! rted generate  <SHAPE> <N> [--seed S]
//! rted join      <FILE> [--tau T] [--algorithm NAME] [--threads N] [--no-filter]
//!                [--pq P,Q]
//! rted search    <FILE> <QUERY> [--tau T] [--algorithm NAME] [--threads N] [--no-filter]
//!                [--pq P,Q]
//! rted topk      <FILE> <QUERY> [--k K] [--algorithm NAME] [--threads N] [--no-filter]
//!                [--pq P,Q]
//! rted index build   <INDEX> <FILE>
//! rted index update  <INDEX> [--add FILE] [--remove IDS]... [--compact]
//! rted index compact <INDEX>
//! rted index repair  <INDEX>
//! rted index info    <INDEX>
//! rted index dump    <INDEX>
//! rted serve   [--index INDEX | FILE] [--socket PATH] [--tcp ADDR]
//!              [--auth-token TOKEN] [--shards N] [--timeout-ms MS]
//!              [--workers N] [--threads N] [--compact-frac F] [--strict]
//!              [--slow-ms MS]
//! rted query   (--socket PATH | --tcp ADDR) [--auth-token TOKEN]
//!              [--explain [--tau T]]
//! rted metrics (--socket PATH | --tcp ADDR) [--auth-token TOKEN] [--json]
//! ```
//!
//! Trees are given inline in bracket notation (`{a{b}{c}}`) or as file
//! paths; `--xml` parses the inputs as XML documents instead.
//!
//! `rted diff` prints the optimal edit script turning TREE1 into TREE2:
//! one `delete`/`insert`/`rename`/`keep` line per node (`--format json`
//! emits the serve protocol's `diff` response line instead — same bytes
//! a `{"op":"diff"}` request gets). With `--index` the operands are two
//! corpus tree ids of a persistent index and the script is unit-cost.
//! `<FILE>` for
//! `join`, `search` and `topk` holds one bracket tree per line and is
//! loaded into an in-memory [`rted_index::TreeIndex`]; alternatively
//! `--index <INDEX>` loads a persistent corpus built with `rted index
//! build` (then `join` takes no positional argument and `search`/`topk`
//! take only the query). `<SHAPE>` is one of `lb rb fb zz mx random`.
//! Index files have one on-disk format, version 2; a file in any other
//! version is refused, and the way forward is to rebuild it from its
//! source trees with `rted index build`.
//!
//! `rted serve` runs the long-lived query service (`rted-serve`): one
//! newline-delimited JSON request per line over stdin/stdout, a Unix
//! socket (`--socket`), and/or a TCP listener (`--tcp ADDR`, which may
//! coexist with `--socket`; stdio is used only when neither is given) —
//! `rted query` is the matching line-pipe client for both. This file
//! only parses the arguments: the transports, the auth handshake, the
//! slow-query log and the client half all live in `rted_serve::front`.
//! TCP connections can be gated by a shared secret (`--auth-token`, or
//! the `RTED_AUTH_TOKEN` environment variable): the first line of each
//! connection must be the token, otherwise the connection is answered
//! with one error line and dropped. `--timeout-ms` applies per-connection
//! read/write timeouts so a stalled peer cannot pin a connection thread
//! forever. A `shutdown` request is answered with `bye`, then every
//! other connection is closed for reading (requests in flight still get
//! their answer) and the process exits. `--socket PATH` replaces only a
//! stale socket at PATH; any other file there is an error. `--shards N`
//! stripes the corpus over N independent index shards (global id `g`
//! lives on shard `g % N`): queries scatter-gather with answers
//! byte-identical to 1-shard serving, and mutations, snapshots and
//! compaction proceed per shard. With `--index` the service is durable
//! and **recovers the corpus on startup** (shard `k > 0` lives at
//! `INDEX.shard{k}`), repairing files torn by a crash mid-update
//! (tail-scan salvage) unless `--strict` demands fully consistent files;
//! what was recovered is reported on stderr. `rted index repair`
//! performs the same salvage as a one-shot offline command.
//!
//! `rted metrics` scrapes a running service's telemetry (`metrics`
//! request): Prometheus text exposition by default, the raw JSON
//! response line with `--json`. With `--slow-ms` the serve front-end
//! logs every request whose wall time (queue wait included) crosses the
//! threshold to stderr, carrying the request's `id` when one was given.
//!
//! Every query command scans the size-sorted corpus linearly through the
//! filter stages, in their construction order. Verification picks the
//! cheapest exact kernel per pair unless `--algorithm` pins one, and
//! `rted distance` answers through the same call (`ted_within`), so it
//! prints the distance `rted diff` and serve's `distance` print.
//! `rted query --explain` asks a running service what a query would run
//! (`{"op":"explain"}`, `--tau T` for a budgeted query), and `rted
//! index info --stats` probes the filter pipeline.
//!
//! Every failure — malformed trees, missing files, unknown or
//! valueless flags, corrupt or version-mismatched index files — exits
//! with code 1 and a one-line `error: ...` message on stderr; a missing
//! or unknown *command* prints the usage text and exits with code 2.

use rted_core::mapping::edit_mapping;
use rted_core::{Algorithm, PerLabelCost, UnitCost, Workspace};
use rted_datasets::xml::parse_xml;
use rted_datasets::Shape;
use rted_index::{CorpusFile, CorpusStore, SearchStats, TreeIndex};
use rted_serve::front;
use rted_tree::{parse_bracket, to_bracket, Tree};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         rted distance <TREE1> <TREE2> [--xml] [--algorithm NAME] [--costs D,I,R]\n  \
         \x20             [--at-most T]\n  \
         rted compare  <TREE1> <TREE2> [--xml]\n  \
         rted diff     <TREE1> <TREE2> [--xml] [--costs D,I,R] [--format text|json]\n  \
         rted diff     --index INDEX <ID1> <ID2> [--format text|json]\n  \
         rted generate <SHAPE> <N> [--seed S]\n  \
         rted join     <FILE> [--tau T] [--algorithm NAME] [--threads N] [--no-filter]\n  \
         rted search   <FILE> <QUERY> [--tau T] [--algorithm NAME] [--threads N] [--no-filter]\n  \
         rted topk     <FILE> <QUERY> [--k K] [--algorithm NAME] [--threads N] [--no-filter]\n  \
         rted index build   <INDEX> <FILE>\n  \
         rted index update  <INDEX> [--add FILE] [--remove IDS]... [--compact]\n  \
         rted index compact <INDEX>\n  \
         rted index repair  <INDEX>\n  \
         rted index info    <INDEX> [--stats]\n  \
         rted index dump    <INDEX>\n  \
         rted serve    [--index INDEX | FILE] [--socket PATH] [--tcp ADDR]\n  \
         \x20             [--auth-token TOKEN] [--shards N] [--timeout-ms MS]\n  \
         \x20             [--workers N] [--threads N] [--compact-frac F] [--strict]\n  \
         \x20             [--slow-ms MS]\n  \
         rted query    (--socket PATH | --tcp ADDR) [--auth-token TOKEN]\n  \
         \x20             [--explain [--tau T]]\n  \
         rted metrics  (--socket PATH | --tcp ADDR) [--auth-token TOKEN] [--json]\n\n\
         join/search/topk also accept --index <INDEX> in place of <FILE>, plus\n\
         --pq P,Q (re-profile with those gram lengths).\n\
         serve/query speak one JSON request per line (see README); ops: range |\n\
         topk | distance | diff | join | insert | remove | status | compact |\n\
         metrics | explain | shutdown. serve --index recovers (and repairs)\n\
         the corpus on startup, a FILE serves from memory only.\n\
         serve --tcp listens on ADDR (may coexist with --socket); --auth-token\n\
         (or RTED_AUTH_TOKEN) gates TCP connections on a shared-secret first\n\
         line; --shards N stripes the corpus over N snapshot-isolated shards\n\
         with scatter-gather queries (answers identical to 1 shard).\n\
         serve --slow-ms logs slow requests to stderr; metrics scrapes the\n\
         service's telemetry (Prometheus text, or the raw line with --json).\n\
         query --explain asks the service what a query would run (one\n\
         {{\"op\":\"explain\"}} round-trip; --tau T for a budgeted query).\n\
         index info --stats probes the filter pipeline and prints per-stage\n\
         prune counts, hit rates, and the verifier mix.\n\
         distance runs the cheapest exact kernel for the pair (the rule of\n\
         diff and of serve's `distance` op, so all print the same value);\n\
         --algorithm pins one instead. --at-most T prints the distance when\n\
         it is <= T, else `exceeds B` with a certified lower bound B: pairs\n\
         above 256 cells run the band-limited kernel, which usually stops\n\
         long before the full computation; smaller or pinned pairs run an\n\
         exact kernel, whose bound B is the exact distance.\n\
         NAME: rted | zhang-l | zhang-r | klein-h | demaine-h\n\
         \x20     (default: the per-pair rule, zhang-l, zhang-r or rted)\n\
         SHAPE: lb | rb | fb | zz | mx | random\n\
         TREE/QUERY: inline bracket notation or a file path\n\
         FILE: one bracket tree per line (an indexed corpus)\n\
         INDEX: a persistent corpus file (`rted index build`; format version 2 only)\n\
         IDS: comma-separated tree ids, e.g. --remove 3,17"
    );
    ExitCode::from(2)
}

/// Flags that consume the following argument as their value.
const VALUE_FLAGS: &[&str] = &[
    "algorithm",
    "costs",
    "seed",
    "tau",
    "k",
    "threads",
    "index",
    "add",
    "remove",
    "socket",
    "workers",
    "compact-frac",
    "pq",
    "slow-ms",
    "format",
    "at-most",
    "tcp",
    "auth-token",
    "shards",
    "timeout-ms",
];

struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(name) = args[i].strip_prefix("--") {
                let value = if VALUE_FLAGS.contains(&name) {
                    args.get(i + 1).cloned()
                } else {
                    None
                };
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(args[i].clone());
            }
            i += 1;
        }
        Opts { positional, flags }
    }

    /// Rejects flags `cmd` does not understand, value flags missing their
    /// value, and duplicated non-repeatable flags — silent typos
    /// (`--taau 3`) or a stale `--tau 2 --tau 9` must not silently change
    /// query semantics. Only `--add`/`--remove` may repeat.
    fn expect_flags(&self, cmd: &str, allowed: &[&str]) -> Result<(), String> {
        const REPEATABLE: &[&str] = &["add", "remove"];
        for (i, (name, value)) in self.flags.iter().enumerate() {
            if !allowed.contains(&name.as_str()) {
                return Err(format!("unknown flag --{name} for `{cmd}`"));
            }
            if VALUE_FLAGS.contains(&name.as_str()) && value.is_none() {
                return Err(format!("flag --{name} needs a value"));
            }
            if !REPEATABLE.contains(&name.as_str())
                && self.flags[..i].iter().any(|(n, _)| n == name)
            {
                return Err(format!("flag --{name} given more than once"));
            }
        }
        Ok(())
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// All values of a repeatable flag, in order.
    fn flag_values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn algorithm_by_name(name: &str) -> Option<Algorithm> {
    match name.to_ascii_lowercase().as_str() {
        "rted" => Some(Algorithm::Rted),
        "zhang-l" | "zhangl" => Some(Algorithm::ZhangL),
        "zhang-r" | "zhangr" => Some(Algorithm::ZhangR),
        "klein-h" | "klein" => Some(Algorithm::KleinH),
        "demaine-h" | "demaine" => Some(Algorithm::DemaineH),
        _ => None,
    }
}

fn shape_by_name(name: &str) -> Option<Shape> {
    match name.to_ascii_lowercase().as_str() {
        "lb" => Some(Shape::LeftBranch),
        "rb" => Some(Shape::RightBranch),
        "fb" => Some(Shape::FullBinary),
        "zz" => Some(Shape::ZigZag),
        "mx" => Some(Shape::Mixed),
        "random" | "rnd" => Some(Shape::Random),
        _ => None,
    }
}

/// Loads a tree argument: inline bracket text, or a file (bracket or XML).
fn load_tree(arg: &str, xml: bool) -> Result<Tree<String>, String> {
    let content = if arg.trim_start().starts_with('{') || (xml && arg.trim_start().starts_with('<'))
    {
        arg.to_string()
    } else {
        std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?
    };
    if xml {
        parse_xml(&content).map_err(|e| e.to_string())
    } else {
        parse_bracket(content.trim()).map_err(|e| e.to_string())
    }
}

/// Loads a one-bracket-tree-per-line corpus file, reporting the offending
/// line on parse errors.
fn load_tree_file(path: &str) -> Result<Vec<Tree<String>>, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    content
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_bracket(l.trim()).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

fn cost_model(opts: &Opts) -> Result<PerLabelCost, String> {
    match opts.flag("costs") {
        None => Ok(PerLabelCost::new(1.0, 1.0, 1.0)),
        Some(spec) => {
            let parts: Vec<f64> = spec
                .split(',')
                .map(|p| p.trim().parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|e| format!("bad --costs {spec}: {e}"))?;
            if parts.len() != 3 {
                return Err(format!("--costs needs D,I,R — got {spec}"));
            }
            Ok(PerLabelCost::new(parts[0], parts[1], parts[2]))
        }
    }
}

fn cmd_distance(opts: &Opts) -> Result<(), String> {
    opts.expect_flags("distance", &["xml", "algorithm", "costs", "at-most"])?;
    if opts.positional.len() != 2 {
        return Err("distance needs two trees".into());
    }
    let xml = opts.has("xml");
    let f = load_tree(&opts.positional[0], xml)?;
    let g = load_tree(&opts.positional[1], xml)?;
    let pinned = match opts.flag("algorithm") {
        None => None,
        Some(name) => Some(algorithm_by_name(name).ok_or(format!("unknown algorithm {name}"))?),
    };
    let cm = cost_model(opts)?;
    let tau = match opts.flag("at-most") {
        None => f64::INFINITY,
        Some(spec) => spec
            .parse::<f64>()
            .ok()
            .filter(|t| !t.is_nan())
            .ok_or(format!("bad --at-most {spec}"))?,
    };
    // The one rule behind serve's `distance`, `rted diff` and the index:
    // the cheapest kernel for the pair, unless `--algorithm` pins one.
    let run = rted_core::ted_within(&f, &g, &cm, tau, pinned, &mut Workspace::new());
    match run.result {
        rted_core::BoundedResult::Exact(d) => println!("{d}"),
        rted_core::BoundedResult::Exceeds(lb) => println!("exceeds {lb}"),
    }
    let kernel = match pinned {
        Some(alg) => alg.name().to_string(),
        None => format!(
            "{:?}",
            run.kernel.expect("an unpinned run names its kernel")
        ),
    };
    let budget = if tau != f64::INFINITY {
        format!(" | at most {tau}")
    } else {
        String::new()
    };
    eprintln!(
        "kernel {kernel} | {} + {} nodes | {} subproblems | early exit: {}{budget}",
        f.len(),
        g.len(),
        run.subproblems,
        run.early_exit
    );
    Ok(())
}

fn cmd_compare(opts: &Opts) -> Result<(), String> {
    opts.expect_flags("compare", &["xml"])?;
    if opts.positional.len() != 2 {
        return Err("compare needs two trees".into());
    }
    let xml = opts.has("xml");
    let f = load_tree(&opts.positional[0], xml)?;
    let g = load_tree(&opts.positional[1], xml)?;
    println!(
        "{:<10} {:>14} {:>12} {:>14}",
        "algorithm", "subproblems", "time", "distance"
    );
    // One workspace serves all five algorithms: after the first run the
    // remaining four verify allocation-free on the warm buffers.
    let mut ws = Workspace::new();
    for alg in Algorithm::ALL {
        let run = alg.run_in(&f, &g, &UnitCost, &mut ws);
        println!(
            "{:<10} {:>14} {:>12?} {:>14}",
            alg.name(),
            run.subproblems,
            run.strategy_time + run.distance_time,
            run.distance
        );
    }
    Ok(())
}

/// `rted diff`: the optimal edit script
/// between two inline/file trees, or — with `--index` — between two
/// corpus trees of a persistent index (unit costs, through the index's
/// pooled workspaces).
fn cmd_diff(opts: &Opts) -> Result<(), String> {
    let script = if opts.has("index") {
        opts.expect_flags("diff", &["index", "format"])?;
        let path = opts.flag("index").unwrap();
        if opts.positional.len() != 2 {
            return Err("diff --index needs two tree ids".into());
        }
        let id = |i: usize| {
            opts.positional[i]
                .parse::<usize>()
                .map_err(|_| format!("bad tree id {}", opts.positional[i]))
        };
        let (left, right) = (id(0)?, id(1)?);
        let corpus = CorpusFile::read(path)
            .and_then(|f| f.corpus_owned())
            .map_err(|e| format!("index {path}: {e}"))?;
        let index = TreeIndex::from_corpus(corpus);
        index
            .diff(left, right)
            .ok_or_else(|| format!("index {path}: no live tree with id {left} or {right}"))?
    } else {
        opts.expect_flags("diff", &["xml", "costs", "format"])?;
        if opts.positional.len() != 2 {
            return Err("diff needs two trees (or --index INDEX and two ids)".into());
        }
        let xml = opts.has("xml");
        let f = load_tree(&opts.positional[0], xml)?;
        let g = load_tree(&opts.positional[1], xml)?;
        let cm = cost_model(opts)?;
        let m = edit_mapping(&f, &g, &cm);
        m.script(&f, &g)
    };
    match opts.flag("format") {
        None | Some("text") => {
            println!("distance {}", script.cost);
            print!("{}", script.render_text());
            eprintln!("{}", script.summary());
        }
        Some("json") => {
            // The exact line a serve `{"op":"diff"}` request would get.
            println!(
                "{}",
                rted_serve::render_response(&rted_serve::Response::Diff(script))
            );
        }
        Some(other) => return Err(format!("--format must be text or json — got {other}")),
    }
    Ok(())
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    opts.expect_flags("generate", &["seed"])?;
    if opts.positional.len() != 2 {
        return Err("generate needs SHAPE and N".into());
    }
    let shape = shape_by_name(&opts.positional[0])
        .ok_or(format!("unknown shape {}", opts.positional[0]))?;
    let n: usize = opts.positional[1]
        .parse()
        .map_err(|_| format!("bad size {}", opts.positional[1]))?;
    let seed: u64 = parsed_flag(opts, "seed", 42)?;
    let t = shape.generate(n.max(1), seed);
    println!("{}", to_bracket(&t.map_labels(|l| l.to_string())));
    Ok(())
}

/// Shared flags of the three query commands. `--xml` is *not* here — it
/// affects only the inline QUERY argument, so `join` (which has none)
/// must reject it rather than accept it inertly.
const QUERY_FLAGS: &[&str] = &["algorithm", "threads", "no-filter", "index", "pq"];

fn cmd_join(opts: &Opts) -> Result<(), String> {
    opts.expect_flags("join", &[QUERY_FLAGS, &["tau"]].concat())?;
    let index = load_query_index(opts, "join", 0)?;
    let tau: f64 = parsed_flag(opts, "tau", f64::INFINITY)?;
    let res = index.join(tau);
    for m in &res.matches {
        println!("{}\t{}\t{}", m.left, m.right, m.distance);
    }
    report_stats(&res.stats, "pairs");
    Ok(())
}

/// Parses a `--pq P,Q` gram-length override.
fn parse_pq(spec: &str) -> Result<rted_core::PqParams, String> {
    let parts: Vec<&str> = spec.split(',').map(str::trim).collect();
    let [p, q] = parts.as_slice() else {
        return Err(format!("--pq needs P,Q — got {spec}"));
    };
    let parse = |s: &str| {
        s.parse::<u32>()
            .ok()
            .filter(|&v| (1..=16).contains(&v))
            .ok_or_else(|| format!("bad --pq {spec}: gram lengths must be 1..=16"))
    };
    Ok(rted_core::PqParams::new(parse(p)?, parse(q)?))
}

/// Loads the corpus for a query command — either the positional flat file
/// or a persistent `--index` file (read-only, via [`CorpusFile`], so a
/// query never touches the file) — honoring the shared `--algorithm`,
/// `--threads`, `--no-filter` and `--pq` flags. `extra` is how many
/// positional arguments follow the corpus (the query, for search/topk).
fn load_query_index(opts: &Opts, cmd: &str, extra: usize) -> Result<TreeIndex<String>, String> {
    let mut corpus = match opts.flag("index") {
        Some(path) => {
            if opts.positional.len() != extra {
                return Err(format!(
                    "{cmd} with --index takes {extra} positional argument(s)"
                ));
            }
            CorpusFile::read(path)
                .and_then(|f| f.corpus_owned())
                .map_err(|e| format!("index {path}: {e}"))?
        }
        None => {
            if opts.positional.len() != extra + 1 {
                return Err(format!("{cmd} needs a corpus FILE (or --index INDEX)"));
            }
            rted_index::TreeCorpus::build(load_tree_file(&opts.positional[0])?)
        }
    };
    if let Some(spec) = opts.flag("pq") {
        // Stored profiles are fixed at build time; an override re-profiles
        // the loaded corpus in memory (the index file is not rewritten).
        corpus.recompute_profiles(parse_pq(spec)?);
    }
    let mut index = TreeIndex::from_corpus(corpus);
    if let Some(name) = opts.flag("algorithm") {
        let alg = algorithm_by_name(name).ok_or(format!("unknown algorithm {name}"))?;
        index = index.with_algorithm(alg);
    }
    if opts.has("no-filter") {
        index = index.unfiltered();
    }
    if let Some(t) = opts.flag("threads") {
        let threads: usize = t.parse().map_err(|_| format!("bad --threads {t}"))?;
        index = index.with_threads(threads);
    }
    Ok(index)
}

/// Parses an optional numeric flag, erroring on malformed values instead
/// of silently falling back to the default.
fn parsed_flag<T: std::str::FromStr>(opts: &Opts, name: &str, default: T) -> Result<T, String> {
    match opts.flag(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{name} {v}")),
    }
}

/// Parses an optional integer flag that must be **at least 1** (worker
/// counts, shard counts, millisecond thresholds): `None` when absent,
/// an error on zero or malformed values.
fn positive_flag<T>(opts: &Opts, name: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    match opts.flag(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .ok()
            .filter(|n| *n >= T::from(1u8))
            .map(Some)
            .ok_or_else(|| format!("bad --{name} {v}")),
    }
}

/// Prints query statistics, including per-filter-stage prune counters.
fn report_stats(stats: &SearchStats, what: &str) {
    let pruned: Vec<String> = stats
        .filter
        .stages
        .iter()
        .filter(|s| s.pruned > 0)
        .map(|s| format!("{} {}", s.stage, s.pruned))
        .collect();
    let pruned = if pruned.is_empty() {
        "none".to_string()
    } else {
        pruned.join(", ")
    };
    eprintln!(
        "{} {what} | {} verified exactly | pruned: {pruned} | {} subproblems | {:?}",
        stats.candidates, stats.verified, stats.subproblems, stats.time
    );
}

/// `rted index info --stats`: probes the filter pipeline with a
/// deterministic workload (up to 16 live trees, each queried at a tight
/// and a loose threshold) and prints the cumulative per-stage prune
/// counters the index keeps for its lifetime — stage order, prune
/// counts, and each stage's hit rate over the candidates that actually
/// reached it — and the kernels verification ran.
fn print_pipeline_stats(corpus: rted_index::TreeCorpus<String>) {
    let index = TreeIndex::from_corpus(corpus);
    for (_, entry) in index.corpus().iter().take(16) {
        for tau in [2.0, 8.0] {
            index.range(entry.tree(), tau);
        }
    }
    let totals = index.totals();
    println!(
        "\npipeline probe  {} range queries, {} candidate pairs",
        totals.range_queries, totals.candidates
    );
    if totals.candidates == 0 {
        println!("filter stages   (empty corpus — nothing to probe)");
        return;
    }
    let mut entering = totals.candidates;
    for stage in &totals.stages {
        let rate = stage.pruned as f64 * 100.0 / entering.max(1) as f64;
        println!(
            "  {:<14} pruned {:>8} of {:>8} entering  ({rate:>5.1}% hit rate)",
            stage.stage, stage.pruned, entering
        );
        entering = entering.saturating_sub(stage.pruned);
    }
    println!(
        "  {:<14} {:>15} verified exactly ({} subproblems, {:.3} ms exact-TED)",
        "exact-ted",
        totals.verified,
        totals.subproblems,
        totals.ted_ns as f64 / 1e6
    );
    println!(
        "  {:<14} {:>15} early exits      ({:.3} ms in bounded kernel)",
        "bounded-ted",
        totals.verify_early_exits,
        totals.verify_bounded_ns as f64 / 1e6
    );
    println!(
        "  {:<14} {:>8} zhang-shasha / {} bounded / {} full-rted pairs",
        "verifier mix", totals.plan_zs_pairs, totals.plan_bounded_pairs, totals.plan_rted_pairs
    );
}

fn cmd_search(opts: &Opts) -> Result<(), String> {
    opts.expect_flags("search", &[QUERY_FLAGS, &["tau", "xml"]].concat())?;
    let index = load_query_index(opts, "search", 1)?;
    let query = load_tree(
        opts.positional.last().ok_or("search needs a QUERY")?,
        opts.has("xml"),
    )?;
    let tau: f64 = parsed_flag(opts, "tau", f64::INFINITY)?;
    let res = index.range(&query, tau);
    for n in &res.neighbors {
        println!("{}\t{}", n.id, n.distance);
    }
    report_stats(&res.stats, "candidates");
    Ok(())
}

fn cmd_topk(opts: &Opts) -> Result<(), String> {
    opts.expect_flags("topk", &[QUERY_FLAGS, &["k", "xml"]].concat())?;
    let index = load_query_index(opts, "topk", 1)?;
    let query = load_tree(
        opts.positional.last().ok_or("topk needs a QUERY")?,
        opts.has("xml"),
    )?;
    let k: usize = parsed_flag(opts, "k", 5)?;
    let res = index.top_k(&query, k);
    for n in &res.neighbors {
        println!("{}\t{}", n.id, n.distance);
    }
    report_stats(&res.stats, "candidates");
    Ok(())
}

/// `rted index <build|update|compact|info|dump> ...` — management of
/// persistent corpus files.
fn cmd_index(opts: &Opts) -> Result<(), String> {
    let sub = opts
        .positional
        .first()
        .ok_or("index needs a subcommand: build | update | compact | repair | info | dump")?;
    let rest = &opts.positional[1..];
    match sub.as_str() {
        "build" => {
            opts.expect_flags("index build", &[])?;
            let [index_path, file] = rest else {
                return Err("index build needs INDEX and FILE".into());
            };
            let trees = load_tree_file(file)?;
            let store = CorpusStore::create(index_path, trees).map_err(|e| e.to_string())?;
            eprintln!(
                "built {index_path}: {} trees, {} bytes (format version {})",
                store.corpus().len(),
                std::fs::metadata(index_path).map(|m| m.len()).unwrap_or(0),
                rted_index::persist::FORMAT_VERSION
            );
            Ok(())
        }
        "update" => {
            opts.expect_flags("index update", &["add", "remove", "compact"])?;
            let [index_path] = rest else {
                return Err("index update needs INDEX".into());
            };
            let removals = parse_id_lists(&opts.flag_values("remove"))?;
            // Parse every input — removals above, and every --add file —
            // *before* the first store mutation: a malformed later file
            // must not leave earlier batches durably applied (a retry of
            // the fixed command would insert them twice).
            let additions: Vec<(&str, Vec<Tree<String>>)> = opts
                .flag_values("add")
                .into_iter()
                .map(|file| Ok((file, load_tree_file(file)?)))
                .collect::<Result<_, String>>()?;
            if additions.is_empty() && removals.is_empty() && !opts.has("compact") {
                return Err("index update needs --add, --remove and/or --compact".into());
            }
            let mut store = CorpusStore::open(index_path).map_err(|e| e.to_string())?;
            for (file, trees) in additions {
                let ids = store.insert_all(trees).map_err(|e| e.to_string())?;
                eprintln!("added {} trees from {file} (ids {:?})", ids.len(), ids);
            }
            if !removals.is_empty() {
                let removed = store.remove_all(&removals).map_err(|e| e.to_string())?;
                eprintln!("removed {removed} of {} requested ids", removals.len());
            }
            if opts.has("compact") {
                store.compact().map_err(|e| e.to_string())?;
                eprintln!("compacted");
            }
            eprintln!(
                "{index_path}: {} live trees, {} segment(s)",
                store.corpus().len(),
                store.segment_count()
            );
            Ok(())
        }
        "compact" => {
            opts.expect_flags("index compact", &[])?;
            let [index_path] = rest else {
                return Err("index compact needs INDEX".into());
            };
            let mut store = CorpusStore::open(index_path).map_err(|e| e.to_string())?;
            store.compact().map_err(|e| e.to_string())?;
            eprintln!(
                "compacted {index_path}: {} live trees, {} bytes",
                store.corpus().len(),
                std::fs::metadata(index_path).map(|m| m.len()).unwrap_or(0)
            );
            Ok(())
        }
        "repair" => {
            opts.expect_flags("index repair", &[])?;
            let [index_path] = rest else {
                return Err("index repair needs INDEX".into());
            };
            let (_, report) = CorpusStore::open_repair(index_path).map_err(|e| e.to_string())?;
            if report.bytes_dropped == 0 && !report.header_rewritten {
                eprintln!(
                    "{index_path}: already clean — {} segment(s), {} live trees",
                    report.segments_recovered, report.live
                );
            } else {
                eprintln!("repaired {index_path}: {}", repair_summary(&report));
            }
            Ok(())
        }
        "info" => {
            opts.expect_flags("index info", &["stats"])?;
            let [index_path] = rest else {
                return Err("index info needs INDEX".into());
            };
            let file = CorpusFile::read(index_path).map_err(|e| e.to_string())?;
            let header = file.header();
            // Full validation (checksums + structure), not just the header.
            let (corpus, stats) = file.corpus_owned_with_stats().map_err(|e| e.to_string())?;
            println!("path            {index_path}");
            println!("format version  {}", header.version);
            println!("feature flags   {:#010x}", header.flags);
            match rted_index::candidates::pqgram::profile_params(&corpus) {
                None => println!("pq profile      none (empty corpus)"),
                Some(params) => println!("pq profile      p={} q={}", params.p, params.q),
            }
            println!("live trees      {}", corpus.len());
            println!("next id         {}", header.next_id);
            println!("segments        {}", stats.segments);
            println!("file bytes      {}", file.bytes().len());
            let nodes: usize = corpus.iter().map(|(_, e)| e.tree().len()).sum();
            println!("total nodes     {nodes}");
            if opts.has("stats") {
                print_pipeline_stats(corpus);
            }
            Ok(())
        }
        "dump" => {
            opts.expect_flags("index dump", &[])?;
            let [index_path] = rest else {
                return Err("index dump needs INDEX".into());
            };
            let file = CorpusFile::read(index_path).map_err(|e| e.to_string())?;
            // Zero-copy load: labels borrow from the file buffer.
            let corpus = file.corpus().map_err(|e| e.to_string())?;
            let mut out = String::new();
            for (id, entry) in corpus.iter() {
                out.push_str(&format!("{id}\t{}\n", to_bracket(entry.tree())));
            }
            print!("{out}");
            Ok(())
        }
        other => Err(format!(
            "unknown index subcommand `{other}` (build | update | compact | repair | info | dump)"
        )),
    }
}

/// `rted serve` — the long-lived query service over stdin/stdout, a
/// Unix socket, and/or an authenticated TCP listener, run by
/// `rted_serve::front`. See the crate docs of `rted-serve` for the
/// protocol.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    opts.expect_flags(
        "serve",
        &[
            "index",
            "socket",
            "tcp",
            "auth-token",
            "shards",
            "timeout-ms",
            "workers",
            "threads",
            "compact-frac",
            "strict",
            "slow-ms",
        ],
    )?;
    let mut config = rted_serve::ServerConfig::default();
    if let Some(w) = positive_flag(opts, "workers")? {
        config.workers = w;
    }
    config.query_threads = parsed_flag(opts, "threads", 1)?;
    if let Some(s) = positive_flag(opts, "shards")? {
        config.shards = s;
    }
    let frac: f64 = parsed_flag(opts, "compact-frac", 0.25)?;
    // A non-positive fraction disables background compaction.
    config.compact_fraction = (frac > 0.0).then_some(frac);
    // Slow-query threshold: off unless asked for. Measured at the
    // front-end around the whole call, so queue wait counts — that is
    // what the client experienced.
    let slow = positive_flag::<u64>(opts, "slow-ms")?.map(std::time::Duration::from_millis);
    // Per-connection read/write timeouts for the TCP front-end: a
    // stalled or vanished peer can hold its connection thread for at
    // most this long per I/O operation. Off unless asked for (a local
    // interactive client may legitimately idle).
    let timeout = positive_flag::<u64>(opts, "timeout-ms")?.map(std::time::Duration::from_millis);

    let server = match opts.flag("index") {
        Some(index_path) => {
            if !opts.positional.is_empty() {
                return Err("serve with --index takes no positional argument".into());
            }
            if !std::path::Path::new(index_path).exists() {
                // A fresh service: start from an empty durable corpus.
                CorpusStore::create(index_path, Vec::<Tree<String>>::new())
                    .map_err(|e| e.to_string())?;
                eprintln!("rted serve: created empty index {index_path}");
            }
            let recovery = if opts.has("strict") {
                rted_serve::Recovery::Strict
            } else {
                rted_serve::Recovery::Repair
            };
            let (server, report) = rted_serve::Server::open(index_path, recovery, config)
                .map_err(|e| format!("index {index_path}: {e}"))?;
            if report.bytes_dropped > 0 || report.header_rewritten {
                eprintln!(
                    "rted serve: repaired {index_path} — {}",
                    repair_summary(&report)
                );
            } else {
                eprintln!(
                    "rted serve: opened {index_path} — {} live trees, {} segment(s)",
                    report.live, report.segments_recovered
                );
            }
            server
        }
        None => {
            let [file] = &opts.positional[..] else {
                return Err("serve needs --index INDEX or a corpus FILE".into());
            };
            let trees = load_tree_file(file)?;
            eprintln!(
                "rted serve: serving {} trees from {file} (in-memory, no durability)",
                trees.len()
            );
            rted_serve::Server::in_memory(trees, config)
        }
    };

    // Bind the TCP listener here so a bad address fails fast
    // (`--tcp 127.0.0.1:0` picks a free port; `front::run` reports it).
    let tcp = opts.flag("tcp").map(|addr| {
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind tcp {addr}: {e}"))
    });
    let front = front::Front {
        socket: opts.flag("socket").map(std::path::PathBuf::from),
        tcp: tcp.transpose()?,
        auth_token: auth_token(opts),
        timeout,
        slow,
    };
    let result = front::run(&server, front);
    // Graceful either way: drain whatever the front-ends accepted.
    server.shutdown();
    result
}

/// The shared secret gating TCP connections: the explicit flag wins
/// over the `RTED_AUTH_TOKEN` environment variable.
fn auth_token(opts: &Opts) -> Option<String> {
    opts.flag("auth-token").map(str::to_string).or_else(|| {
        std::env::var("RTED_AUTH_TOKEN")
            .ok()
            .filter(|t| !t.is_empty())
    })
}

/// Connects `query`/`metrics` to a running service: `--socket PATH`,
/// or `--tcp ADDR` sending the `--auth-token` / `RTED_AUTH_TOKEN` token
/// first when one is given.
fn connect(opts: &Opts, cmd: &str) -> Result<front::Connection, String> {
    let token = auth_token(opts);
    front::connect(match (opts.flag("socket"), opts.flag("tcp")) {
        (Some(path), None) => front::Endpoint::Socket(path),
        (None, Some(addr)) => front::Endpoint::Tcp(addr, token.as_deref()),
        (Some(_), Some(_)) => Err(format!("{cmd}: --socket and --tcp are mutually exclusive"))?,
        (None, None) => Err(format!("{cmd} needs --socket PATH or --tcp ADDR"))?,
    })
}

/// `rted query` — the line-pipe client for a `rted serve` service over
/// its Unix socket or TCP listener: forwards each stdin line as a
/// request, prints each response. Requests are one JSON object per line
/// with an `op` of `range`, `topk`, `distance`, `diff`, `join`,
/// `insert`, `remove`, `status`, `compact`, `metrics`, `explain`, or
/// `shutdown` (a `status` response lists the same set under `ops` for
/// feature detection).
///
/// `--explain` skips stdin entirely: it sends one `{"op":"explain"}`
/// request (with the query budget `--tau T` when given) and prints what
/// a query would run — the filter stage order and whether verification
/// is budgeted.
fn cmd_query(opts: &Opts) -> Result<(), String> {
    use std::io::BufRead;
    opts.expect_flags("query", &["socket", "tcp", "auth-token", "explain", "tau"])?;
    if !opts.positional.is_empty() {
        return Err("query takes no positional arguments".into());
    }
    if opts.has("tau") && !opts.has("explain") {
        return Err(
            "query --tau only modifies --explain; pipe requests via stdin otherwise".into(),
        );
    }
    let mut conn = connect(opts, "query")?;
    if opts.has("explain") {
        let request = match opts.flag("tau") {
            None => r#"{"op":"explain"}"#.to_string(),
            Some(spec) => {
                let tau: f64 = spec
                    .parse::<f64>()
                    .ok()
                    .filter(|t| !t.is_nan())
                    .ok_or(format!("bad --tau {spec}"))?;
                format!(r#"{{"op":"explain","tau":{tau}}}"#)
            }
        };
        println!("{}", conn.exchange(&request)?);
        return Ok(());
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        println!("{}", conn.exchange(&line)?);
    }
    Ok(())
}

/// `rted metrics` — scrapes a running `rted serve` service over its
/// Unix socket or TCP listener. Default output is the Prometheus text
/// exposition (ready for a scrape pipeline or a human eyeball);
/// `--json` prints the raw NDJSON response line with structured values
/// instead.
fn cmd_metrics(opts: &Opts) -> Result<(), String> {
    opts.expect_flags("metrics", &["socket", "tcp", "auth-token", "json"])?;
    if !opts.positional.is_empty() {
        return Err("metrics takes no positional arguments".into());
    }
    let mut conn = connect(opts, "metrics")?;
    let json = opts.has("json");
    let request = if json {
        r#"{"op":"metrics","format":"json"}"#
    } else {
        r#"{"op":"metrics","format":"prometheus"}"#
    };
    let line = conn.exchange(request)?;
    if json {
        println!("{line}");
        return Ok(());
    }
    // Unwrap the exposition string so the output is scrape-ready text.
    let value = rted_serve::json::parse(&line).map_err(|e| format!("bad response: {e}"))?;
    match value
        .get("exposition")
        .and_then(rted_serve::json::Value::as_str)
    {
        Some(text) => print!("{text}"),
        None => Err(format!("unexpected response: {line}"))?,
    }
    Ok(())
}

/// Operator-facing one-liner for a repair outcome — shared by `rted
/// index repair` and the `rted serve` startup report (the serve
/// roundtrip CI script greps this wording, so it must not fork).
fn repair_summary(report: &rted_index::RepairReport) -> String {
    format!(
        "recovered {} segment(s) ({} live trees), dropped {} byte(s) of torn tail{}",
        report.segments_recovered,
        report.live,
        report.bytes_dropped,
        if report.header_rewritten {
            ", header recomputed"
        } else {
            ""
        }
    )
}

/// Parses comma-separated id lists from repeated `--remove` flags.
fn parse_id_lists(specs: &[&str]) -> Result<Vec<usize>, String> {
    let mut ids = Vec::new();
    for spec in specs {
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            ids.push(
                part.parse::<usize>()
                    .map_err(|_| format!("bad tree id `{part}` in --remove {spec}"))?,
            );
        }
    }
    Ok(ids)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let opts = Opts::parse(&args[1..]);
    let result = match cmd.as_str() {
        "distance" => cmd_distance(&opts),
        "compare" => cmd_compare(&opts),
        "diff" => cmd_diff(&opts),
        "generate" => cmd_generate(&opts),
        "join" => cmd_join(&opts),
        "search" => cmd_search(&opts),
        "topk" => cmd_topk(&opts),
        "index" => cmd_index(&opts),
        "serve" => cmd_serve(&opts),
        "query" => cmd_query(&opts),
        "metrics" => cmd_metrics(&opts),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
