//! The Table 5 mitigation matrix and what it must not cost: the 20 buggy
//! apps under each policy (Table 5 and its pinned headline numbers), the
//! §7.4 usability of legitimate heavy apps, and the ablation and
//! LHB-threshold sweep that measure both sides at once.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

use leaseos::{Classifier, ClassifierConfig, LeaseOs, LeasePolicy};
use leaseos_apps::buggy::table5_cases;
use leaseos_apps::normal::{Haven, RunKeeper, Spotify};
use leaseos_baselines::PureThrottle;
use leaseos_simkit::{EventKind, JsonlSink, SimDuration};

use super::{no_args, parse_value};
use crate::conformance::run_matrix;
use crate::harness::normal_apps;
use crate::{
    f1, f2, reduction_pct, slug, Matrix, MatrixConfig, PolicyBuilder, PolicyKind, ScenarioRun,
    ScenarioRunner, TextTable, RUN_LENGTH,
};

/// Adds every Table 5 case, with its trigger environment, as a row.
fn with_table5_cases(matrix: Matrix) -> Matrix {
    table5_cases().into_iter().fold(matrix, |m, case| {
        m.app(case.name, Arc::new(case.build), Arc::new(case.environment))
    })
}

/// Every Table 5 case under the four Table 5 policies, 30 minutes per run.
fn table5_matrix(seeds: Vec<u64>) -> Matrix {
    let matrix = with_table5_cases(Matrix::new(RUN_LENGTH).seeds(seeds));
    PolicyKind::TABLE5.into_iter().fold(matrix, |m, policy| {
        m.policy(policy.label(), Arc::new(move || policy.build()))
    })
}

/// The three §7.4 legitimate heavy apps, 30 minutes each on seed 31.
fn normal_matrix() -> Matrix {
    normal_apps().into_iter().fold(
        Matrix::new(RUN_LENGTH).seeds(vec![31]),
        |m, (name, app, env)| m.app(name, app, env),
    )
}

/// A §7.4 app's useful output (track points, stream chunks or events
/// logged) and the interruptions its policy imposed: LeaseOS deferrals or
/// pure-throttling revocations, zero under any other policy.
fn useful_output(run: &ScenarioRun) -> (u64, u64) {
    let (kernel, app) = (&run.kernel, run.app);
    let output = kernel
        .app_model::<RunKeeper>(app)
        .map(|a| a.points_logged)
        .or_else(|| kernel.app_model::<Spotify>(app).map(|a| a.chunks_played))
        .or_else(|| kernel.app_model::<Haven>(app).map(|a| a.events_logged))
        .unwrap_or(0);
    let policy = kernel.policy().as_any();
    let interruptions = match policy.downcast_ref::<LeaseOs>() {
        Some(os) => os
            .manager()
            .lease_reports(run.end)
            .iter()
            .map(|r| r.deferrals)
            .sum(),
        None => policy
            .downcast_ref::<PureThrottle>()
            .map_or(0, PureThrottle::revocations),
    };
    (output, interruptions)
}

/// LeaseOS with the default lease policy and a custom classifier.
fn with_classifier(config: ClassifierConfig) -> LeaseOs {
    LeaseOs::with_policy_and_classifier(LeasePolicy::default(), Classifier::with_config(config))
}

/// Average app-power reduction (%) `policy` achieves over vanilla across
/// the 20 Table 5 apps.
fn mitigation_avg(runner: &ScenarioRunner, policy: PolicyBuilder) -> f64 {
    let matrix = with_table5_cases(Matrix::new(RUN_LENGTH))
        .policy("vanilla", Arc::new(|| PolicyKind::Vanilla.build()))
        .policy("variant", policy);
    let powers = runner.run_each(&matrix.specs(), |_, run| run.app_power_mw());
    let mut total = 0.0;
    for pair in powers.chunks_exact(2) {
        total += 100.0 * (pair[0] - pair[1]) / pair[0];
    }
    total / (powers.len() / 2) as f64
}

/// Average useful-output retention (%) of the §7.4 apps under `policy`
/// relative to vanilla, and the interruptions it imposed on them.
fn retention(runner: &ScenarioRunner, policy: PolicyBuilder) -> (f64, u64) {
    let matrix = normal_matrix()
        .policy("vanilla", Arc::new(|| PolicyKind::Vanilla.build()))
        .policy("variant", policy);
    let outputs = runner.run_each(&matrix.specs(), |_, run| useful_output(&run));
    let (mut retention, mut interruptions) = (0.0, 0);
    for pair in outputs.chunks_exact(2) {
        let ((base, _), (treated, interrupted)) = (pair[0], pair[1]);
        retention += 100.0 * treated as f64 / base.max(1) as f64;
        interruptions += interrupted;
    }
    (retention / (outputs.len() / 2) as f64, interruptions)
}

/// The paper's Table 5: power consumption of 20 real-world buggy apps
/// under vanilla Android, LeaseOS, aggressive Doze, and DefDroid, with
/// per-app and average reduction percentages.
///
/// An optional positional argument averages each cell over that many seeds
/// (default 1, i.e. the deterministic committed run). `--threads <n>`
/// overrides the worker count (default: all cores), `--jsonl <dir>`
/// writes one telemetry JSONL file per scenario into `dir`, and
/// `--attribution` traces every run and appends wasted-energy columns
/// (vanilla vs LeaseOS, mJ over the run) from the span ledger — the
/// utilitarian view of the same table.
pub(super) fn table5(args: &[String]) -> Result<String, String> {
    let (mut seeds, mut threads, mut jsonl, mut attribution) = (1u64, None, None, false);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => threads = Some(parse_value(arg, args.next())?),
            "--jsonl" => jsonl = Some(parse_value::<PathBuf>(arg, args.next())?),
            "--attribution" => attribution = true,
            flag if flag.starts_with('-') => return Err(format!("unexpected argument {flag:?}")),
            _ => seeds = parse_value("the seed count", Some(arg))?,
        }
    }
    let seeds = seeds.max(1);
    if let Some(dir) = &jsonl {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let runner = threads
        .map(ScenarioRunner::with_threads)
        .unwrap_or_default();
    let specs = table5_matrix((0..seeds).map(|s| 42 + s).collect()).specs();
    // Per cell: average app power, and (when `--attribution` traces the
    // run) the span ledger's wasted-energy total.
    let results = runner.run(&specs, |_, spec| {
        let sink = jsonl
            .as_ref()
            .map(|_| Rc::new(RefCell::new(JsonlSink::new(Vec::new()))));
        let run = spec.execute_with(|kernel| {
            if attribution {
                kernel.enable_tracing();
            }
            if let Some(sink) = &sink {
                kernel.telemetry().attach(sink.clone());
            }
        });
        let wasted_mj = run
            .kernel
            .tracing()
            .map(|spans| spans.total_wasted_mj())
            .unwrap_or(0.0);
        if let (Some(dir), Some(sink)) = (&jsonl, &sink) {
            let path = dir.join(format!("{}.jsonl", slug(&spec.label)));
            std::fs::write(&path, sink.borrow().get_ref())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok((run.app_power_mw(), wasted_mj))
    });
    let results = results.into_iter().collect::<Result<Vec<_>, String>>()?;
    // Row-major: case → policy → seed. Average each (case, policy) cell.
    let n_pol = PolicyKind::TABLE5.len();
    let cell = |case: usize, policy: usize| -> (f64, f64) {
        let start = (case * n_pol + policy) * seeds as usize;
        let slice = &results[start..start + seeds as usize];
        let power = slice.iter().fold(0.0, |acc, (p, _)| acc + p) / seeds as f64;
        let wasted = slice.iter().fold(0.0, |acc, (_, w)| acc + w) / seeds as f64;
        (power, wasted)
    };

    let mut header = vec![
        "App",
        "Res.",
        "Behav.",
        "w/o lease",
        "w/ lease",
        "Doze*",
        "DefDroid",
        "LeaseOS%",
        "Doze%",
        "DefDroid%",
        "paper L%",
    ];
    if attribution {
        header.extend(["waste w/o mJ", "waste w/ mJ"]);
    }
    let mut table = TextTable::new(header);
    let cases = table5_cases();
    let (mut sum_lease, mut sum_doze, mut sum_dd) = (0.0, 0.0, 0.0);
    let (mut sum_waste_base, mut sum_waste_lease) = (0.0, 0.0);
    for (i, case) in cases.iter().enumerate() {
        let (base, waste_base) = cell(i, 0);
        let (lease, waste_lease) = cell(i, 1);
        let (doze, _) = cell(i, 2);
        let (dd, _) = cell(i, 3);
        let (rl, rz, rd) = (
            reduction_pct(base, lease),
            reduction_pct(base, doze),
            reduction_pct(base, dd),
        );
        sum_lease += rl;
        sum_doze += rz;
        sum_dd += rd;
        sum_waste_base += waste_base;
        sum_waste_lease += waste_lease;
        let mut row = vec![
            case.name.to_owned(),
            case.resource.to_string(),
            case.behavior.to_string(),
            f2(base),
            f2(lease),
            f2(doze),
            f2(dd),
            f2(rl),
            f2(rz),
            f2(rd),
            f2(case.paper.lease_reduction_pct()),
        ];
        if attribution {
            row.extend([f2(waste_base), f2(waste_lease)]);
        }
        table.row(row);
    }
    let n = cases.len() as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 5 — mitigating real-world energy misbehaviour (power in mW, 30 min runs)\n{}",
        table.render()
    );
    let _ = writeln!(
        out,
        "Average reduction:  LeaseOS {:.2}%   Doze* {:.2}%   DefDroid {:.2}%\n\
         Paper averages:     LeaseOS 92.62%   Doze* 69.64%   DefDroid 62.04%",
        sum_lease / n,
        sum_doze / n,
        sum_dd / n
    );
    if attribution {
        let _ = writeln!(
            out,
            "Wasted energy:      w/o lease {:.2} mJ total   w/ lease {:.2} mJ total   \
             ({:.2}% eliminated)",
            sum_waste_base,
            sum_waste_lease,
            reduction_pct(sum_waste_base, sum_waste_lease)
        );
    }
    let _ = writeln!(
        out,
        "\n\
         Note: deferral intervals escalate (25 s doubling to a 5 min cap) for repeat\n\
         offenders, per the §5.1 average-τ analysis; absolute mW values are power-model\n\
         approximations — the reproduced result is the per-app reductions and the\n\
         ordering LeaseOS > Doze > DefDroid."
    );
    Ok(out)
}

/// The paper's §7.4 usability comparison: three normal background apps
/// that use resources heavily but legitimately — RunKeeper (fitness
/// tracking), Spotify (music streaming), Haven (intrusion monitoring) — run
/// under LeaseOS and under a pure time-based throttling scheme
/// ("essentially leases with only a single term").
///
/// The paper's result: under LeaseOS all three keep functioning (leases are
/// continuously renewed because the resources are well utilized); under
/// pure throttling all three are disrupted — tracking, streaming, and
/// monitoring stop.
pub(super) fn usability(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    let matrix = [
        PolicyKind::Vanilla,
        PolicyKind::LeaseOs,
        PolicyKind::PureThrottle,
    ]
    .into_iter()
    .fold(normal_matrix(), |m, policy| {
        m.policy(policy.cli_name(), Arc::new(move || policy.build()))
    });
    let outputs = ScenarioRunner::new().run_each(&matrix.specs(), |_, run| useful_output(&run));
    let mut table = TextTable::new([
        "app",
        "vanilla",
        "LeaseOS",
        "LeaseOS %",
        "interr.",
        "Throttle",
        "Throttle %",
        "interr. ",
    ]);
    let units = ["track points", "stream chunks", "events logged"];
    for (((name, ..), unit), runs) in normal_apps()
        .into_iter()
        .zip(units)
        .zip(outputs.chunks_exact(3))
    {
        let [(base, _), (lease, lease_int), (thr, thr_int)] = [runs[0], runs[1], runs[2]];
        table.row([
            format!("{name} ({unit})"),
            base.to_string(),
            lease.to_string(),
            f1(100.0 * lease as f64 / base as f64),
            lease_int.to_string(),
            thr.to_string(),
            f1(100.0 * thr as f64 / base as f64),
            thr_int.to_string(),
        ]);
    }
    Ok(format!(
        "§7.4 usability — normal heavy apps under LeaseOS vs pure time-based throttling\n\
         (30 min runs; output relative to vanilla; interruptions = deferrals/revocations)\n\
         {}\n\
         Paper: LeaseOS renews continuously (no disruption); under pure throttling all\n\
         three apps experienced disruption — tracking, streaming, monitoring stopped.\n",
        table.render()
    ))
}

/// An ablation variant: its name and the LeaseOS it builds.
type Variant = (&'static str, fn() -> LeaseOs);

/// Ablation study over LeaseOS's design choices (the knobs `DESIGN.md`
/// §3.3 calls out), measuring for each variant:
///
/// * **mitigation** — average wasted-power reduction over the 20 Table 5
///   buggy apps (higher is better);
/// * **usability** — useful-output retention and deferral count for the
///   three §7.4 legitimate heavy apps (100% / 0 is the goal);
/// * **bookkeeping** — policy operations over a 30-minute Spotify stream,
///   the overhead the §5.2 adaptive terms exist to cut, counted off the
///   kernel's telemetry bus.
///
/// | variant | what is removed |
/// |---|---|
/// | `full` | nothing — the shipped defaults |
/// | `no-escalation` | deferral intervals stay at the base 25 s |
/// | `no-adaptive-term` | terms stay at 5 s even for long-normal apps |
/// | `no-evidence-window` | utility judged on single terms (sparse evidence starves) |
/// | `holding-time-only` | the classifier degenerates to a holding-time threshold (a DefDroid-style judge inside the lease machinery) |
pub(super) fn ablation(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    let variants: [Variant; 5] = [
        ("full", LeaseOs::new),
        ("no-escalation", || {
            LeaseOs::with_policy(LeasePolicy {
                deferral_growth: 1.0,
                deferral_cap: SimDuration::from_secs(25),
                ..LeasePolicy::default()
            })
        }),
        ("no-adaptive-term", || {
            LeaseOs::with_policy(LeasePolicy {
                ladder: Vec::new(),
                ..LeasePolicy::default()
            })
        }),
        ("no-evidence-window", || {
            // A window no longer than one default term: every term is
            // judged on its own 5-second slice.
            with_classifier(ClassifierConfig {
                evidence_window: SimDuration::from_secs(5),
                ..ClassifierConfig::default()
            })
        }),
        ("holding-time-only", || {
            // Any term that mostly holds the resource is judged
            // Long-Holding, regardless of use or utility — the strawman
            // the paper's §2.3 argues against.
            with_classifier(ClassifierConfig {
                lhb_max_utilization: f64::INFINITY,
                ..ClassifierConfig::default()
            })
        }),
    ];
    let runner = ScenarioRunner::new();
    let mut table = TextTable::new([
        "variant",
        "mitigation %",
        "usability retention %",
        "legit deferrals",
        "bookkeeping ops",
    ]);
    for (name, build) in variants {
        let policy: PolicyBuilder = Arc::new(move || Box::new(build()));
        let mitigation = mitigation_avg(&runner, policy.clone());
        let (retained, deferrals) = retention(&runner, policy.clone());
        // Bookkeeping is counted on Spotify streaming alone.
        let [_, (spotify, app, env), _] = normal_apps();
        let streaming = Matrix::new(RUN_LENGTH)
            .seeds(vec![31])
            .app(spotify, app, env)
            .policy(name, policy);
        let ops = runner.run_each(&streaming.specs(), |_, run| {
            run.kernel.telemetry().count(EventKind::PolicyOp)
        })[0];
        table.row([
            name.to_owned(),
            f1(mitigation),
            f1(retained),
            deferrals.to_string(),
            ops.to_string(),
        ]);
    }
    Ok(format!(
        "Ablation — LeaseOS design choices (20 buggy apps + 3 legitimate apps, 30 min)\n\
         {}\n\
         Reading: escalation buys the last ~15 points of mitigation; the adaptive term\n\
         ladder cuts steady-state bookkeeping severalfold; the evidence window and the\n\
         utility metrics are what keep legitimate apps undisrupted — a holding-time-only\n\
         judge reaches similar mitigation by breaking them.\n",
        table.render()
    ))
}

/// Sensitivity sweep over the Long-Holding utilization threshold — the one
/// classifier constant whose value the paper pins empirically ("ultralow
/// utilization (<1%)", §2.3).
///
/// For each candidate threshold we measure the same two axes as the
/// ablation: mitigation over the 20 Table 5 apps and usability over the
/// §7.4 legitimate apps. The paper's observation predicts a wide plateau:
/// buggy holders sit at ≈0% utilization and legitimate ones well above 5%,
/// so any threshold in between behaves identically — and the cliff on the
/// high side is exactly where a holding-time mindset begins.
pub(super) fn threshold_sweep(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    let runner = ScenarioRunner::new();
    let mut table = TextTable::new(["threshold", "mitigation %", "usability retention %"]);
    for threshold in [0.005, 0.01, 0.02, 0.05, 0.10, 0.30] {
        // An `Arc` closure because the builder captures the swept value.
        let policy: PolicyBuilder = Arc::new(move || {
            Box::new(with_classifier(ClassifierConfig {
                lhb_max_utilization: threshold,
                ..ClassifierConfig::default()
            }))
        });
        table.row([
            format!("{threshold}"),
            f1(mitigation_avg(&runner, policy.clone())),
            f1(retention(&runner, policy).0),
        ]);
    }
    Ok(format!(
        "LHB utilization-threshold sweep (paper §2.3: the signature is <1%)\n\
         {}\n\
         The plateau below ~5% is why the paper's classifier is robust: buggy holders\n\
         measure ≈0% utilization, legitimate ones ≥5%, and nothing lives in between.\n",
        table.render()
    ))
}

/// One traced run's headline numbers.
struct Headline {
    app_power_mw: f64,
    wasted_mj: f64,
    events: u64,
}

/// The pinned headline numbers `BENCH_baseline.json` holds, printed as
/// that file's exact JSON (`repro baseline > BENCH_baseline.json`
/// regenerates it).
///
/// Everything in the file is deterministic for a fixed `--seed` (default
/// 42): Table 5 average reductions and wasted-energy totals from the
/// traced matrix, the pinned Facebook diagnosis cell (power, waste,
/// telemetry event count), and the chaos harness's control reductions plus
/// its worst fault-induced drift. Every run is audited, and a violation
/// fails the experiment. Wall-clock overhead is deliberately *not* recorded
/// here — it is machine-dependent; the `telemetry_overhead` Criterion bench
/// tracks it, and the disabled-bus arm is the zero-allocation fast path
/// that bounds the <1% claim by construction.
pub(super) fn baseline(args: &[String]) -> Result<String, String> {
    let (mut seed, mut threads) = (42, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = parse_value(arg, args.next())?,
            "--threads" => threads = Some(parse_value(arg, args.next())?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let runner = threads
        .map(ScenarioRunner::with_threads)
        .unwrap_or_default();
    let cases = table5_cases();

    // Table 5 matrix, every run traced so wasted energy is measured at the
    // span ledger, exactly as `table5 --attribution` reports it.
    let table5 = runner.run(&table5_matrix(vec![seed]).specs(), |_, spec| {
        let run = spec.execute_with(|kernel| {
            kernel.enable_tracing();
            kernel.set_audit_interval(Some(256));
        });
        let violations = run.kernel.audit();
        if !violations.is_empty() {
            return Err(format!(
                "audit violations in {}: {violations:?}",
                spec.label
            ));
        }
        Ok(Headline {
            app_power_mw: run.app_power_mw(),
            wasted_mj: run
                .kernel
                .tracing()
                .map(|s| s.total_wasted_mj())
                .unwrap_or(0.0),
            events: run.kernel.telemetry().total_count(),
        })
    });
    let table5 = table5.into_iter().collect::<Result<Vec<_>, String>>()?;
    let n_pol = PolicyKind::TABLE5.len();
    let cell = |case: usize, policy: usize| -> &Headline { &table5[case * n_pol + policy] };

    let n = cases.len() as f64;
    let mut avg = [0.0f64; 3]; // leaseos, doze, defdroid
    let (mut waste_vanilla, mut waste_leaseos) = (0.0, 0.0);
    for i in 0..cases.len() {
        let base = cell(i, 0).app_power_mw;
        for (j, slot) in avg.iter_mut().enumerate() {
            *slot += reduction_pct(base, cell(i, j + 1).app_power_mw);
        }
        waste_vanilla += cell(i, 0).wasted_mj;
        waste_leaseos += cell(i, 1).wasted_mj;
    }

    // Chaos matrix: the conformance smoke preset (3 apps × {vanilla,
    // leaseos} × 6 fault arms including `all`), enumerated by the same
    // module the chaos binary runs, so the arms can never drift apart.
    // Records control reductions plus the worst savings drift any fault
    // arm causes, in points of the fault-free vanilla baseline —
    // mirroring the chaos binary's Δpp columns.
    let chaos_cfg = MatrixConfig::smoke(seed);
    let chaos_run = run_matrix(&chaos_cfg, &runner, None, "baseline")
        .map_err(|e| format!("chaos smoke matrix: {e}"))?;
    if let Some(cell) = chaos_run.cells.iter().find(|c| !c.violations.is_empty()) {
        return Err(format!(
            "audit violations in {}: {:?}",
            cell.label, cell.violations
        ));
    }
    let mut control_red = Vec::new();
    let mut max_drift: f64 = 0.0;
    for a in 0..chaos_cfg.apps.len() {
        let base = chaos_run.cell(a, 0, 0, 0).app_power_mw;
        let treated_control = chaos_run.cell(a, 1, 0, 0).app_power_mw;
        control_red.push(reduction_pct(base, treated_control));
        if base <= 0.0 {
            continue;
        }
        for arm in 1..chaos_cfg.arms.len() {
            let treated = chaos_run.cell(a, 1, 0, arm).app_power_mw;
            let drift = 100.0 * (treated_control - treated) / base;
            max_drift = max_drift.max(drift.abs());
        }
    }

    // The pinned diagnosis cell the attribution tests pin ≥90% blame on.
    let fb = cases
        .iter()
        .position(|c| c.name == "Facebook")
        .expect("Facebook is a Table 5 case");
    let fb_vanilla = cell(fb, 0);
    let fb_leaseos = cell(fb, 1);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"run_mins\": {},", RUN_LENGTH.as_secs_f64() / 60.0);
    let _ = writeln!(json, "  \"table5\": {{");
    let _ = writeln!(json, "    \"avg_reduction_pct\": {{");
    let _ = writeln!(json, "      \"leaseos\": {:.2},", avg[0] / n);
    let _ = writeln!(json, "      \"doze\": {:.2},", avg[1] / n);
    let _ = writeln!(json, "      \"defdroid\": {:.2}", avg[2] / n);
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"wasted_mj_total\": {{");
    let _ = writeln!(json, "      \"vanilla\": {waste_vanilla:.2},");
    let _ = writeln!(json, "      \"leaseos\": {waste_leaseos:.2}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(
        json,
        "    \"wasted_eliminated_pct\": {:.2}",
        reduction_pct(waste_vanilla, waste_leaseos)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"facebook\": {{");
    for (label, c, comma) in [("vanilla", fb_vanilla, ","), ("leaseos", fb_leaseos, "")] {
        let _ = writeln!(json, "    \"{label}\": {{");
        let _ = writeln!(json, "      \"app_power_mw\": {:.2},", c.app_power_mw);
        let _ = writeln!(json, "      \"wasted_mj\": {:.2},", c.wasted_mj);
        let _ = writeln!(json, "      \"telemetry_events\": {}", c.events);
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"chaos\": {{");
    let _ = writeln!(json, "    \"control_reduction_pct\": {{");
    for (i, name) in chaos_cfg.apps.iter().enumerate() {
        let comma = if i + 1 < chaos_cfg.apps.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "      \"{name}\": {:.2}{comma}", control_red[i]);
    }
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"max_savings_drift_pp\": {max_drift:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"overhead\": {{");
    let _ = writeln!(
        json,
        "    \"note\": \"wall-clock overhead is machine-dependent; see the \
         telemetry_overhead Criterion bench — the disabled arm is the zero-sink \
         fast path the <1% criterion is judged against\""
    );
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    Ok(json)
}
