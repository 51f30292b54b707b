//! Golden tests for the experiment registry: the report of every
//! deterministic experiment is pinned byte for byte under
//! `tests/golden/repro/<name>.txt`, and `baseline` must reprint the
//! committed `BENCH_baseline.json`.
//!
//! A golden is regenerated by the command it pins:
//! `cargo run --release -p leaseos-bench --bin repro -- fig09 \
//!    > tests/golden/repro/fig09.txt`.

use std::fs;
use std::path::{Path, PathBuf};

use leaseos_bench::experiments::{self, Experiment, EXPERIMENTS};

/// Entries without a golden here: `table4` times the wall clock, and
/// `baseline`'s golden is `BENCH_baseline.json` itself.
const UNPINNED: [&str; 2] = ["table4", "baseline"];

/// Pinned entries too slow for a debug build (~42 s and ~19 s on a 2-vCPU
/// host); CI diffs their goldens against a release build instead.
const RELEASE_ONLY: [&str; 2] = ["fig12", "fig13"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/repro")
}

fn report(experiment: &Experiment) -> String {
    (experiment.run)(&[]).unwrap_or_else(|e| panic!("{} failed: {e}", experiment.name))
}

#[test]
fn every_deterministic_experiment_has_a_golden() {
    let missing: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .filter(|name| !UNPINNED.contains(name))
        .filter(|name| !golden_dir().join(format!("{name}.txt")).exists())
        .collect();
    assert!(
        missing.is_empty(),
        "experiments without a golden: {missing:?}"
    );
    for entry in fs::read_dir(golden_dir()).expect("golden dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        assert!(
            experiments::find(name).is_some() && !UNPINNED.contains(&name),
            "{} pins no registry entry",
            path.display()
        );
    }
}

#[test]
fn pinned_reports_match_their_goldens() {
    for experiment in EXPERIMENTS
        .iter()
        .filter(|e| !UNPINNED.contains(&e.name) && !RELEASE_ONLY.contains(&e.name))
    {
        let path = golden_dir().join(format!("{}.txt", experiment.name));
        let golden = fs::read_to_string(&path).expect("golden exists");
        assert_eq!(
            report(experiment),
            golden,
            "{} drifted from {} — regenerate it if the change is intentional",
            experiment.name,
            path.display()
        );
    }
}

#[test]
fn baseline_reprints_the_committed_bench_baseline() {
    let committed =
        fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_baseline.json"))
            .expect("BENCH_baseline.json");
    assert_eq!(report(experiments::find("baseline").unwrap()), committed);
}
