//! Chaos harness: the conformance matrix CLI.
//!
//! Runs Table 5 scenarios under deterministic fault injection and checks
//! the two properties the paper's design implies but the other harnesses
//! never stress (see `leaseos_bench::conformance` for the definitions):
//! robustness (no runtime-invariant violations in any cell) and graceful
//! degradation (no policy loses more than `--tolerance` pp of its
//! fault-free savings, measured against the fault-free vanilla baseline,
//! under any fault arm).
//!
//! Three matrix presets:
//!
//! * default — the historical smoke subset: 3 apps × {vanilla, leaseos} ×
//!   1 seed × 8 arms (control, each fault class alone, the correlated
//!   crash storm, all classes concurrently);
//! * `--full` — every Table 5 app × every policy × 3 seeds × 8 arms
//!   (2400 cells);
//! * `--corpus N` — a sampled slice of the generated bug corpus
//!   (`leaseos_apps::corpus`): `--sample K` (default 12) apps evenly
//!   spaced over the first `N` of corpus `--corpus-seed S` (default 42) ×
//!   every policy × 1 seed × 8 arms. Every sampled app's machine-checkable
//!   oracle is also checked after the matrix; an oracle failure is a
//!   conformance failure and prints its `(corpus_seed, index)` one-line
//!   repro on stderr.
//!
//! Every axis can also be overridden per run (`--apps`, `--policies`,
//! `--seeds`, `--arms`, comma-separated; `netdrop` is shorthand for the
//! `network_drop` arm; an app named `corpus:SEED:INDEX` mints that corpus
//! case). `--warm-restart` reverts crash recovery to the legacy warm
//! semantics (restarted models keep their transient state).
//!
//! Cells are cached in a persistent content-addressed store (default
//! `target/leaseos-cache/`, override `--cache-dir`, disable `--no-cache`)
//! keyed by (scenario fingerprint, expanded fault plan, restart semantics,
//! build revision), so a warm `--full` re-run executes nothing and replays
//! byte-identical results. Stdout (header + per-cell table + verdict) is
//! byte-identical between cold and warm runs — cache statistics and failure
//! details go to stderr. Faults ride the telemetry bus as `fault_injected`
//! events, so a `--jsonl` dump of a chaos run is byte-reproducible for a
//! fixed seed — the CI smoke job runs the binary twice and diffs the
//! output.
//!
//! Run: `cargo run --release -p leaseos-bench --bin chaos [--full]
//!       [--corpus N] [--sample K] [--corpus-seed S]
//!       [--seed N] [--seeds A,B,..] [--apps ..] [--policies ..]
//!       [--arms ..] [--mins M] [--mean-secs S] [--tolerance PP]
//!       [--warm-restart] [--threads N] [--jsonl DIR] [--cache-dir DIR]
//!       [--no-cache]`

use std::path::PathBuf;
use std::sync::Arc;

use leaseos_bench::conformance::{
    corpus_oracle_violations, evaluate, render_table, run_matrix, FaultArm, MatrixConfig,
};
use leaseos_bench::{build_rev, slug, PolicyKind, ResultCache, ScenarioRunner};
use leaseos_simkit::{MetricsRegistry, SimDuration};

struct Flags {
    full: bool,
    corpus: Option<u64>,
    sample: u64,
    corpus_seed: u64,
    seed: u64,
    seeds: Option<Vec<u64>>,
    apps: Option<Vec<String>>,
    policies: Option<Vec<PolicyKind>>,
    arms: Option<Vec<FaultArm>>,
    mins: u64,
    mean_secs: u64,
    tolerance_pp: f64,
    warm_restart: bool,
    threads: Option<usize>,
    jsonl: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
}

fn parse_list<T>(raw: &str, parse: impl Fn(&str) -> Result<T, String>) -> Vec<T> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s.trim()).unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

fn parse_flags() -> Flags {
    let mut flags = Flags {
        full: false,
        corpus: None,
        sample: 12,
        corpus_seed: 42,
        seed: 42,
        seeds: None,
        apps: None,
        policies: None,
        arms: None,
        mins: 30,
        mean_secs: 300,
        tolerance_pp: 35.0,
        warm_restart: false,
        threads: None,
        jsonl: None,
        cache_dir: None,
        no_cache: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = || args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
        match arg.as_str() {
            "--full" => flags.full = true,
            "--corpus" => flags.corpus = Some(take().parse().expect("--corpus takes an app count")),
            "--sample" => flags.sample = take().parse().expect("--sample takes an integer"),
            "--corpus-seed" => {
                flags.corpus_seed = take().parse().expect("--corpus-seed takes an integer")
            }
            "--seed" => flags.seed = take().parse().expect("--seed takes an integer"),
            "--seeds" => {
                flags.seeds = Some(parse_list(&take(), |s| {
                    s.parse::<u64>().map_err(|e| format!("bad seed {s:?}: {e}"))
                }))
            }
            "--apps" => flags.apps = Some(parse_list(&take(), |s| Ok(s.to_owned()))),
            "--policies" => flags.policies = Some(parse_list(&take(), PolicyKind::parse)),
            "--arms" => flags.arms = Some(parse_list(&take(), FaultArm::parse)),
            "--mins" => flags.mins = take().parse().expect("--mins takes an integer"),
            "--mean-secs" => {
                flags.mean_secs = take().parse().expect("--mean-secs takes an integer")
            }
            "--tolerance" => {
                flags.tolerance_pp = take().parse().expect("--tolerance takes a number")
            }
            "--warm-restart" => flags.warm_restart = true,
            "--threads" => {
                flags.threads = Some(take().parse().expect("--threads takes an integer"))
            }
            "--jsonl" => flags.jsonl = Some(PathBuf::from(take())),
            "--cache-dir" => flags.cache_dir = Some(PathBuf::from(take())),
            "--no-cache" => flags.no_cache = true,
            other => panic!("unknown flag {other}"),
        }
    }
    flags
}

fn main() {
    let flags = parse_flags();
    let mut config = if let Some(count) = flags.corpus {
        MatrixConfig::corpus(flags.corpus_seed, count, flags.sample, flags.seed)
    } else if flags.full {
        MatrixConfig::full(flags.seed, 3)
    } else {
        MatrixConfig::smoke(flags.seed)
    };
    if let Some(apps) = flags.apps {
        config.apps = apps;
    }
    if let Some(policies) = flags.policies {
        config.policies = policies;
    }
    if let Some(seeds) = flags.seeds {
        config.seeds = seeds;
    }
    if let Some(arms) = flags.arms {
        config.arms = arms;
    }
    config.length = SimDuration::from_mins(flags.mins);
    config.mean_interval = SimDuration::from_secs(flags.mean_secs);
    config.tolerance_pp = flags.tolerance_pp;
    config.cold_restart = !flags.warm_restart;

    // Process-level registry: harness wall-time and cache counters.
    // Deliberately separate from the per-kernel registries, which stay
    // sim-deterministic; everything here is wall-clock flavored.
    let metrics = Arc::new(MetricsRegistry::new());
    metrics.enable();
    let runner = flags
        .threads
        .map(ScenarioRunner::with_threads)
        .unwrap_or_default()
        .with_metrics(metrics.clone());
    let cache = if flags.no_cache {
        None
    } else {
        let dir = flags.cache_dir.unwrap_or_else(ResultCache::default_dir);
        match ResultCache::open(&dir) {
            Ok(mut cache) => {
                cache.attach_metrics(&metrics);
                Some(cache)
            }
            Err(e) => {
                eprintln!(
                    "warning: cannot open result cache at {}: {e}",
                    dir.display()
                );
                None
            }
        }
    };
    let rev = build_rev();

    let run =
        run_matrix(&config, &runner, cache.as_ref(), &rev).unwrap_or_else(|e| panic!("chaos: {e}"));

    if let Some(dir) = &flags.jsonl {
        std::fs::create_dir_all(dir).expect("create JSONL output directory");
        for cell in &run.cells {
            let path = dir.join(format!("{}.jsonl", slug(&cell.label)));
            std::fs::write(&path, &cell.jsonl).expect("write JSONL output file");
        }
    }

    println!(
        "Chaos matrix — {} apps × {} policies × {} seeds × {} arms \
         ({} cells), {} min runs, fault mean interval {} s",
        config.apps.len(),
        config.policies.len(),
        config.seeds.len(),
        config.arms.len(),
        config.cell_count(),
        flags.mins,
        flags.mean_secs
    );
    println!("{}", render_table(&run));
    println!(
        "Faults column joins per-policy injection counts; Δpp columns are each\n\
         policy's savings drift vs its fault-free control arm on the same seed,\n\
         in points of the fault-free vanilla baseline (bound -{:.1} pp; gains\n\
         are expected — faults kill buggy work).",
        flags.tolerance_pp
    );

    if let Some(stats) = &run.cache_stats {
        eprintln!("chaos cache: {stats} (rev {rev})");
    }
    eprint!("{}", metrics.render_prometheus());

    let mut failures = evaluate(&run);

    // Any corpus case on the app axis also gets its machine-checkable
    // oracle checked (waste signature, verdict class, savings band, §7.4
    // zero-disruption). The oracle's kernel seed is pinned at 42 — the
    // seed the corpus savings bands are calibrated against — independent
    // of the matrix's own `--seed`.
    let corpus_cases = run.cases.iter().filter(|c| c.corpus.is_some()).count();
    if corpus_cases > 0 {
        let oracle_failures = corpus_oracle_violations(&run, 42);
        println!(
            "corpus oracles: {}/{corpus_cases} passed",
            corpus_cases - oracle_failures.len()
        );
        failures.extend(oracle_failures);
    }

    if failures.is_empty() {
        println!("chaos: OK — all audits clean, degradation within tolerance");
    } else {
        println!(
            "chaos: FAILED — {} violation(s), see stderr",
            failures.len()
        );
        eprintln!("chaos: FAILED");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
