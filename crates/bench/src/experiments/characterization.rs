//! The paper's §2 characterization: the misbehaviour traces, the
//! behaviour-type matrix, the prevalence study and the cross-phone
//! variance observation.

use std::fmt::Write as _;
use std::sync::Arc;

use leaseos::BehaviorType;
use leaseos_apps::buggy::cpu::{K9Mail, Kontalk};
use leaseos_apps::buggy::gps::BetterWeather;
use leaseos_apps::study::{aggregate, study_cases};
use leaseos_framework::{AppModel, Kernel, ResourceKind};
use leaseos_simkit::{
    DeviceProfile, Environment, Schedule, SeriesSet, SimDuration, SimTime, TimeSeries,
};

use super::no_args;
use crate::{f1, f2, Matrix, PolicyKind, ScenarioRunner, TextTable, RUN_LENGTH};

/// Runs `app` alone for 56 minutes under vanilla with the per-app
/// 60-second profiler on.
fn profile(app: Box<dyn AppModel>, env: Environment, device: DeviceProfile) -> SeriesSet {
    let mut kernel = Kernel::vanilla(device, env, 5);
    kernel.enable_profiler(SimDuration::from_secs(60));
    let id = kernel.add_app(app);
    kernel.run_until(SimTime::from_mins(56));
    kernel.profile_of(id).expect("profile").clone()
}

fn render_series(out: &mut String, title: &str, set: &SeriesSet, columns: &[(&str, &str)]) {
    let _ = writeln!(out, "{title}");
    let mut table = TextTable::new(
        std::iter::once("minute".to_owned())
            .chain(columns.iter().map(|(_, label)| (*label).to_owned())),
    );
    let series: Vec<&TimeSeries> = columns
        .iter()
        .map(|(name, _)| set.get(name).expect("the profiler records every column"))
        .collect();
    for i in 0..series[0].len() {
        let mut cells = vec![f1(series[0].samples()[i].0.as_mins_f64())];
        cells.extend(series.iter().map(|s| f2(s.samples()[i].1)));
        table.row(cells);
    }
    let _ = writeln!(out, "{}", table.render());
}

/// (mean, max) of one profiled series.
fn summarize(set: &SeriesSet, name: &str) -> (f64, f64) {
    let s = set.get(name).expect("series");
    (s.mean().unwrap_or(0.0), s.max().unwrap_or(0.0))
}

/// The paper's §2.3 characterization traces:
///
/// * Figure 1 — BetterWeather's GPS try duration every 60 s (weak signal);
/// * Figure 2 — K-9's wakelock holding time and CPU usage per 60 s in a
///   connected environment with a bad mail server;
/// * Figure 3 — Kontalk's wakelock holding time and CPU/WL ratio on two
///   phones (Nexus 6, Galaxy S4);
/// * Figure 4 — K-9's wakelock holding time and CPU usage per 60 s when
///   disconnected (CPU ratio can exceed 100 %).
///
/// All traces come from the same per-app 60-second profiler the paper's
/// measurement tool implements (§2.1).
pub(super) fn figures_1_to_4(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    let mut out = String::new();
    // Figure 1 — BetterWeather, weak GPS, Nexus-class phone.
    let fig1 = profile(
        Box::new(BetterWeather::new()),
        Environment::weak_gps_building(),
        DeviceProfile::nexus_6(),
    );
    render_series(
        &mut out,
        "Figure 1 — BetterWeather GPS try duration per 60 s (no GPS lock possible)",
        &fig1,
        &[("gps_try_s", "gps_try_s")],
    );
    let (mean, _) = summarize(&fig1, "gps_try_s");
    let _ = writeln!(
        out,
        "mean try duration: {:.1} s/min ({:.0}% of each interval; paper: ~60%)\n",
        mean,
        100.0 * mean / 60.0
    );

    // Figure 2 — K-9, connected + bad server, low-end phone.
    let fig2 = profile(
        Box::new(K9Mail::new()),
        Environment::connected_bad_server(),
        DeviceProfile::moto_g(),
    );
    render_series(
        &mut out,
        "Figure 2 — buggy K-9: wakelock hold & CPU per 60 s (bad mail server)",
        &fig2,
        &[
            ("wakelock_hold_s", "wakelock_s"),
            ("cpu_s", "cpu_s"),
            ("cpu_wl_ratio", "ratio"),
        ],
    );
    let (ratio_mean, _) = summarize(&fig2, "cpu_wl_ratio");
    let _ = writeln!(
        out,
        "mean CPU/wakelock ratio: {ratio_mean:.3} (paper: ultralow-to-moderate, well under 1)\n"
    );

    // Figure 3 — Kontalk on two phones.
    for device in [DeviceProfile::nexus_6(), DeviceProfile::galaxy_s4()] {
        let name = device.name;
        let fig3 = profile(Box::new(Kontalk::new()), Environment::unattended(), device);
        let (wl_mean, _) = summarize(&fig3, "wakelock_hold_s");
        let (ratio_mean, ratio_max) = summarize(&fig3, "cpu_wl_ratio");
        let _ = writeln!(
            out,
            "Figure 3 ({name}) — Kontalk: mean hold {wl_mean:.1} s/min, CPU/WL ratio mean {ratio_mean:.4} max {ratio_max:.4} (paper: ≤0.01)"
        );
    }
    let _ = writeln!(out);

    // Figure 4 — K-9 disconnected on the Pixel XL.
    let fig4 = profile(
        Box::new(K9Mail::new()),
        Environment::disconnected(),
        DeviceProfile::pixel_xl(),
    );
    render_series(
        &mut out,
        "Figure 4 — buggy K-9: wakelock hold & CPU per 60 s (disconnected)",
        &fig4,
        &[
            ("wakelock_hold_s", "wakelock_s"),
            ("cpu_s", "cpu_s"),
            ("cpu_wl_ratio", "ratio"),
        ],
    );
    let (ratio_mean, ratio_max) = summarize(&fig4, "cpu_wl_ratio");
    let _ = writeln!(
        out,
        "mean CPU/wakelock ratio: {ratio_mean:.2}, max {ratio_max:.2} (paper: high, even exceeding 100%)"
    );
    Ok(out)
}

/// The paper's Table 1: which energy-misbehaviour types can occur for
/// which resources.
pub(super) fn table1(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    let mut table = TextTable::new(["Resource", "FAB", "LHB", "LUB", "EUB", "Normal"]);
    let mark = |b: BehaviorType, kind: ResourceKind| if b.applies_to(kind) { "Y" } else { "x" };
    for kind in ResourceKind::ALL {
        let listener_note = if kind.is_listener_based() { "Y*" } else { "Y" };
        table.row([
            kind.to_string(),
            mark(BehaviorType::FrequentAsk, kind).to_owned(),
            // Listener resources have the different LHB semantic the paper
            // footnotes with ✓*: utilization of the delivered data, not of
            // the physical resource.
            if BehaviorType::LongHolding.applies_to(kind) {
                listener_note.to_owned()
            } else {
                "x".to_owned()
            },
            mark(BehaviorType::LowUtility, kind).to_owned(),
            mark(BehaviorType::ExcessiveUse, kind).to_owned(),
            mark(BehaviorType::Normal, kind).to_owned(),
        ]);
    }
    Ok(format!(
        "Table 1 — energy-misbehaviour applicability (Y = can occur, Y* = different semantic)\n\
         {}\n\
         Paper: FAB only for GPS; LHB has listener semantics for GPS/sensors; all else applies everywhere.\n",
        table.render()
    ))
}

/// The paper's Table 2: prevalence of each misbehaviour type across the
/// §2.5 study of 109 real-world cases, plus Findings 1 and 2. The paper's
/// raw case list is unpublished, so the dataset is synthesized with the
/// published marginal counts.
pub(super) fn table2(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    let t = aggregate(&study_cases());
    let mut table = TextTable::new(["Type", "Bug", "Config.", "Enhance.", "N/A", "Total", "Pct."]);
    for (name, row) in [
        ("FAB", &t.fab),
        ("LHB", &t.lhb),
        ("LUB", &t.lub),
        ("EUB", &t.eub),
        ("N/A", &t.na),
    ] {
        table.row([
            name.to_owned(),
            row.bug.to_string(),
            row.config.to_string(),
            row.enhancement.to_string(),
            row.unknown.to_string(),
            row.total().to_string(),
            format!("{}%", f1(t.pct(row))),
        ]);
    }
    let (mitigable, eub) = t.finding1();
    let (bug_share, eub_nonbug) = t.finding2();
    Ok(format!(
        "Table 2 — prevalence of energy-misbehaviour types in {} real-world cases\n\
         {}\n\
         Finding 1: FAB+LHB+LUB occupy {mitigable:.0}% of cases; EUB occupies {eub:.0}% (paper: 58% / 31%)\n\
         Finding 2: {bug_share:.0}% of FAB/LHB/LUB are Bugs; {eub_nonbug:.0}% of EUB are non-Bug (paper: 80% / 77%)\n\
         \n\
         Note: the paper's raw case list is unpublished; this dataset is synthesized\n\
         with the published marginal counts and aggregated by the same pipeline.\n",
        t.total(),
        table.render()
    ))
}

/// The §2.3 cross-ecosystem observation: "the absolute holding time and
/// frequency of abnormal intervals differ by 2×, because of the variance in
/// the ecosystems and hardware … Using [absolute holding time] as a
/// classifier can flag a normal app as misbehaving", while the *ratio*
/// metrics stay put.
///
/// Runs the buggy K-9 (bad-server trigger) on all six device profiles and
/// reports the absolute CPU seconds per minute (which swing widely with
/// device speed) next to the LeaseOS reduction ratio (which does not).
pub(super) fn device_variance(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    let devices = DeviceProfile::all();
    let matrix = Matrix::new(RUN_LENGTH)
        .seeds(vec![7])
        .devices(devices.clone())
        .app(
            "K-9",
            Arc::new(|| Box::new(K9Mail::new()) as Box<dyn AppModel>),
            Arc::new(|| {
                let mut env = Environment::connected_bad_server();
                env.user_present = Schedule::new(false);
                env
            }),
        )
        .policy("vanilla", Arc::new(|| PolicyKind::Vanilla.build()))
        .policy("leaseos", Arc::new(|| PolicyKind::LeaseOs.build()));
    // Row-major with one app: vanilla across all devices, then LeaseOS.
    let results = ScenarioRunner::new().run_each(&matrix.specs(), |_, run| {
        let cpu_ms = run
            .kernel
            .ledger()
            .app_opt(run.app)
            .map(|a| a.cpu_ms)
            .unwrap_or(0);
        (run.app_power_mw(), cpu_ms as f64)
    });
    let mut table = TextTable::new([
        "device",
        "cpu s/min",
        "app mW (vanilla)",
        "app mW (LeaseOS)",
        "reduction %",
    ]);
    let mut reductions: Vec<f64> = Vec::new();
    let mut cpu_rates: Vec<f64> = Vec::new();
    for (i, device) in devices.iter().enumerate() {
        let (base, cpu_ms) = results[i];
        let (treated, _) = results[devices.len() + i];
        let cpu_per_min = cpu_ms / 1_000.0 / RUN_LENGTH.as_mins_f64();
        let reduction = 100.0 * (base - treated) / base;
        reductions.push(reduction);
        cpu_rates.push(cpu_per_min);
        table.row([
            device.name.to_owned(),
            f1(cpu_per_min),
            f2(base),
            f2(treated),
            f1(reduction),
        ]);
    }
    let spread = |v: &[f64]| {
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        max / min
    };
    Ok(format!(
        "Device variance — buggy K-9 (bad server) across six phones\n\
         {}\n\
         absolute CPU rate varies {:.1}x across devices (paper §2.3: ~2x);\n\
         LeaseOS's reduction ratio varies only {:.2}x — the utility metrics are\n\
         portable across ecosystems, absolute thresholds are not.\n",
        table.render(),
        spread(&cpu_rates),
        spread(&reductions)
    ))
}
