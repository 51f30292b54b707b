//! Golden-file and determinism tests for the `dumpsys` diagnosis report.
//!
//! The report is a debugging artifact people will diff, so its bytes are
//! part of the contract: the same scenario and seed must render the same
//! report whether the run is live or re-ingested, whether the harness used
//! one worker thread or many, and across repeated runs. The checked-in
//! goldens under `tests/golden/` pin the exact rendering; CI re-renders
//! and diffs them (see `.github/workflows/ci.yml`).
//!
//! Regenerate after an intentional format change (same for
//! json/csv/folded):
//! `cargo run --release -p leaseos-bench --bin dumpsys -- \
//!    --app Facebook --policy vanilla --seed 42 --mins 5 --format text \
//!    > tests/golden/dumpsys_facebook_vanilla_5min.txt`

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use leaseos_apps::buggy::table5_cases;
use leaseos_bench::dumpsys::{live_report, scenario_label, Format, Report};
use leaseos_bench::{PolicyKind, ScenarioRunner, ScenarioSpec};
use leaseos_simkit::{DeviceProfile, JsonValue, JsonlSink, SimDuration};

/// Short scenario so the goldens stay readable and the tests fast.
const MINS: u64 = 5;

fn golden_report() -> Report {
    live_report("Facebook", PolicyKind::Vanilla, 42, MINS)
}

#[test]
fn report_matches_checked_in_goldens() {
    let report = golden_report();
    assert_eq!(
        report.render(Format::Text),
        include_str!("golden/dumpsys_facebook_vanilla_5min.txt"),
        "text golden drifted — regenerate if the change is intentional"
    );
    assert_eq!(
        report.render(Format::Json),
        include_str!("golden/dumpsys_facebook_vanilla_5min.json"),
        "json golden drifted — regenerate if the change is intentional"
    );
    assert_eq!(
        report.render(Format::Csv),
        include_str!("golden/dumpsys_facebook_vanilla_5min.csv"),
        "csv golden drifted — regenerate if the change is intentional"
    );
    assert_eq!(
        report.render(Format::Folded),
        include_str!("golden/dumpsys_facebook_vanilla_5min.folded"),
        "folded golden drifted — regenerate if the change is intentional"
    );
}

#[test]
fn two_same_seed_runs_render_identical_bytes() {
    let first = golden_report();
    let second = golden_report();
    for format in [Format::Text, Format::Json, Format::Csv, Format::Folded] {
        assert_eq!(first.render(format), second.render(format));
    }
}

/// The flame-graph view must not invent or lose energy: summing every
/// folded frame (values are nanojoules) has to land back on the meter
/// total, and a recorded run must fold to the same bytes as a live one.
#[test]
fn folded_stacks_conserve_energy_live_and_recorded() {
    let live = golden_report();
    let folded = live.render(Format::Folded);
    assert!(!folded.is_empty(), "a 5-minute run should produce spans");
    let mut sum_nj: u64 = 0;
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("folded line is `stack value`");
        assert!(stack.starts_with("all;"), "bad stack root in {line:?}");
        sum_nj += value.parse::<u64>().expect("folded value is an integer");
    }
    let sum_mj = sum_nj as f64 / 1e6;
    assert!(
        (sum_mj - live.meter_total_mj).abs() < 1e-3,
        "folded frames sum to {sum_mj} mJ but the meter saw {} mJ",
        live.meter_total_mj
    );

    let jsonl = leaseos_bench::dumpsys::live_jsonl("Facebook", PolicyKind::Vanilla, 42, MINS);
    let label = scenario_label("Facebook", PolicyKind::Vanilla, 42, MINS);
    let recorded = Report::from_jsonl(&label, &jsonl).unwrap();
    assert_eq!(recorded.render(Format::Folded), folded);
}

#[test]
fn leaseos_report_is_deterministic_too() {
    let first = live_report("Facebook", PolicyKind::LeaseOs, 42, MINS);
    let second = live_report("Facebook", PolicyKind::LeaseOs, 42, MINS);
    assert_eq!(first.render(Format::Json), second.render(Format::Json));
    assert!(
        !first.lease_edges.is_empty(),
        "a LeaseOS run should record lease transitions"
    );
    assert!(first.violations.is_empty(), "{:?}", first.violations);
}

/// Runs the pinned scenarios through the parallel harness and returns each
/// run's telemetry JSONL, in spec order.
fn harness_jsonl(threads: usize) -> Vec<String> {
    let cases = table5_cases();
    let mut specs = Vec::new();
    for (app, policy) in [
        ("Facebook", PolicyKind::Vanilla),
        ("Facebook", PolicyKind::LeaseOs),
        ("GPSLogger", PolicyKind::LeaseOs),
    ] {
        let case = cases.iter().find(|c| c.name == app).unwrap();
        specs.push(ScenarioSpec {
            label: scenario_label(app, policy, 42, MINS),
            app: Arc::new(case.build),
            policy: Arc::new(move || policy.build()),
            device: DeviceProfile::pixel_xl(),
            env: Arc::new(case.environment),
            seed: 42,
            length: SimDuration::from_mins(MINS),
        });
    }
    ScenarioRunner::with_threads(threads).run(&specs, |_, spec| {
        let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::<u8>::new())));
        let handle = sink.clone();
        let run = spec.execute_with(move |kernel| {
            kernel.enable_tracing();
            kernel.set_audit_interval(Some(256));
            kernel.telemetry().attach(handle);
        });
        drop(run);
        let bytes = sink.borrow().get_ref().clone();
        String::from_utf8(bytes).expect("telemetry is UTF-8")
    })
}

#[test]
fn reports_are_byte_identical_across_harness_thread_counts() {
    let single = harness_jsonl(1);
    let parallel = harness_jsonl(4);
    assert_eq!(single.len(), parallel.len());
    for (i, (a, b)) in single.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "JSONL for spec {i} differs between 1 and 4 threads");
        let report = Report::from_jsonl("threads", a).expect("harness telemetry parses");
        let reparsed = Report::from_jsonl("threads", b).expect("harness telemetry parses");
        assert_eq!(report.render(Format::Text), reparsed.render(Format::Text));
        assert_eq!(
            report.render(Format::Folded),
            reparsed.render(Format::Folded)
        );
    }
}

/// Every line of a recorded cell and of a traced live stream re-renders
/// unchanged through the parser and `JsonValue::to_json`: the two
/// encoders write each number the same way.
#[test]
fn recorded_lines_re_render_unchanged() {
    let live = leaseos_bench::dumpsys::live_jsonl("K-9", PolicyKind::Vanilla, 42, 30);
    let recorded = include_str!("golden/chaos_cell_facebook_leaseos_all_42.jsonl");
    for stream in [recorded, &live] {
        assert!(stream.lines().count() > 500);
        for line in stream.lines() {
            let parsed = JsonValue::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(parsed.to_json(), line);
        }
    }
}

#[test]
fn recorded_ingestion_matches_the_live_pipeline() {
    // A report built from a "recording" (the raw JSONL string) must be
    // identical to the live report, modulo the scenario label.
    let jsonl = leaseos_bench::dumpsys::live_jsonl("Facebook", PolicyKind::Vanilla, 42, MINS);
    let label = scenario_label("Facebook", PolicyKind::Vanilla, 42, MINS);
    let recorded = Report::from_jsonl(&label, &jsonl).unwrap();
    assert_eq!(recorded, golden_report());
}
