//! Diagnosis CLI: "which app, holding what, burned the battery?"
//!
//! Two modes share one report pipeline (see `leaseos_bench::dumpsys`):
//!
//! * **Live** — run a Table 5 scenario with tracing enabled and report on
//!   the telemetry it produced:
//!   `cargo run --release -p leaseos-bench --bin dumpsys -- \
//!      --app Facebook --policy vanilla --seed 42 --mins 30`
//! * **Recorded** — ingest a telemetry JSONL some earlier run wrote (e.g.
//!   `table5 --jsonl dir/` or `chaos --jsonl dir/`):
//!   `cargo run --release -p leaseos-bench --bin dumpsys -- \
//!      --jsonl dir/Facebook_w_o-lease_Pixel-XL_42.jsonl`
//!
//! `--format {text,json,csv,folded}` picks the rendering (default text) —
//! `folded` emits inferno-compatible flame-graph stacks — and
//! `--jsonl-out FILE` saves a live run's telemetry for later re-ingestion.
//! Reports are deterministic: same scenario and seed, same bytes.
//!
//! A resident daemon serves the same live report through its `dumpsys`
//! command (`daemon --connect SOCK --request '{"v":1,"cmd":"dumpsys",…}'
//! --extract output`).

use std::path::PathBuf;

use leaseos_bench::dumpsys::{live_jsonl, scenario_label, Format, Report};
use leaseos_bench::PolicyKind;

struct Flags {
    app: String,
    policy: PolicyKind,
    seed: u64,
    mins: u64,
    jsonl: Option<PathBuf>,
    jsonl_out: Option<PathBuf>,
    format: Format,
}

fn parse_flags() -> Flags {
    let mut flags = Flags {
        app: "Facebook".to_owned(),
        policy: PolicyKind::Vanilla,
        seed: 42,
        mins: 30,
        jsonl: None,
        jsonl_out: None,
        format: Format::Text,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = || args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
        match arg.as_str() {
            "--app" => flags.app = take(),
            "--policy" => {
                flags.policy = PolicyKind::parse(&take()).unwrap_or_else(|e| panic!("{e}"))
            }
            "--seed" => flags.seed = take().parse().expect("--seed takes an integer"),
            "--mins" => flags.mins = take().parse().expect("--mins takes an integer"),
            "--jsonl" => flags.jsonl = Some(PathBuf::from(take())),
            "--jsonl-out" => flags.jsonl_out = Some(PathBuf::from(take())),
            "--format" => flags.format = Format::parse(&take()).unwrap_or_else(|e| panic!("{e}")),
            other => panic!("unknown flag {other}"),
        }
    }
    flags
}

fn main() {
    let flags = parse_flags();
    let (label, jsonl) = match &flags.jsonl {
        Some(path) => {
            let data = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            (path.display().to_string(), data)
        }
        None => (
            scenario_label(&flags.app, flags.policy, flags.seed, flags.mins),
            live_jsonl(&flags.app, flags.policy, flags.seed, flags.mins),
        ),
    };
    if let Some(out) = &flags.jsonl_out {
        std::fs::write(out, &jsonl).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    }
    let report = Report::from_jsonl(&label, &jsonl).unwrap_or_else(|e| panic!("ingest: {e}"));
    print!("{}", report.render(flags.format));
    if !report.violations.is_empty() {
        std::process::exit(1);
    }
}
