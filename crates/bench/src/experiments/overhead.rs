//! What leases cost and what they buy end to end: lease activity under
//! normal use (Figure 11, §7.2), system power overhead (Figure 13),
//! interaction latency (Figure 14), lease-operation latency (Table 4) and
//! battery life (§7.6).

use std::fmt::Write as _;
use std::time::Instant;

use leaseos::{LeaseManager, LeaseOs, UsageSnapshot};
use leaseos_apps::buggy::gps::GpsLogger;
use leaseos_apps::synthetic::InteractionFlow;
use leaseos_apps::workload::{InteractiveApp, Profile, Scenario};
use leaseos_framework::{AppId, Kernel, ObjId, ResourceKind};
use leaseos_simkit::{stats, Battery, DeviceProfile, Environment, Schedule, SimDuration, SimTime};

use super::no_args;
use crate::harness::system_power_mw;
use crate::{f1, f2, PolicyKind, TextTable};

/// Installs every app of `scenario` on a Pixel XL and runs them under
/// `policy` for the scenario's duration, which it returns with the kernel.
fn run_scenario(scenario: Scenario, policy: PolicyKind, seed: u64) -> (Kernel, SimDuration) {
    let mut kernel = Kernel::new(
        DeviceProfile::pixel_xl(),
        scenario.env,
        policy.build(),
        seed,
    );
    for app in scenario.apps {
        kernel.add_app(app);
    }
    kernel.run_until(SimTime::ZERO + scenario.duration);
    (kernel, scenario.duration)
}

/// The paper's Figure 11 and the §7.2 lease-activity analysis: the number
/// of active leases over one hour of normal usage (30 minutes of actively
/// using popular apps, then 30 minutes untouched).
///
/// Paper summary: 160 leases created; most short-lived with a median active
/// period of 5 s but a max of 18 minutes; average 4 terms per lease, max 52.
pub(super) fn fig11(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    let (kernel, length) = run_scenario(Scenario::normal_hour(), PolicyKind::LeaseOs, 2024);
    let end = SimTime::ZERO + length;
    let os = kernel
        .policy()
        .as_any()
        .downcast_ref::<LeaseOs>()
        .expect("the scenario runs under LeaseOS");
    let manager = os.manager();

    // Per-minute active-lease series (sampled from the event-driven series).
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 11 — active leases over one hour (30 min active use, then idle)"
    );
    let mut table = TextTable::new(["minute", "active leases"]);
    let samples = manager.active_series().samples();
    let (mut last, mut idx) = (0.0, 0);
    for minute in (0..=60).step_by(5) {
        let t = SimTime::from_mins(minute);
        while idx < samples.len() && samples[idx].0 <= t {
            last = samples[idx].1;
            idx += 1;
        }
        table.row([minute.to_string(), format!("{last:.0}")]);
    }
    let _ = writeln!(out, "{}", table.render());

    let reports = manager.lease_reports(end);
    let actives: Vec<f64> = reports.iter().map(|r| r.active_secs).collect();
    let terms: Vec<f64> = reports.iter().map(|r| r.terms as f64).collect();
    let median_active = stats::median(&actives).unwrap_or(0.0);
    let max_active = actives.iter().copied().fold(0.0, f64::max);
    let max_terms = terms.iter().copied().fold(0.0, f64::max);
    let _ = writeln!(
        out,
        "§7.2 lease activity summary (paper values in parentheses):\n  \
         leases created:        {} (160)\n  \
         median active period:  {} s (5 s)\n  \
         max active period:     {} min (18 min)\n  \
         mean terms per lease:  {} (4)\n  \
         max terms:             {max_terms:.0} (52)",
        manager.created_count(),
        f1(median_active),
        f1(max_active / 60.0),
        f1(stats::mean(&terms).unwrap_or(0.0)),
    );
    if median_active >= 120.0 {
        return Err(format!(
            "most leases must be short-lived, but the median is {median_active} s"
        ));
    }
    Ok(out)
}

/// A Figure 13 usage setting: its name and its workload.
type Setting = (&'static str, fn() -> Scenario);

/// The paper's Figure 13: system power-consumption overhead of LeaseOS
/// under five usage settings — idle (screen off, stock apps), no
/// interaction (screen on), YouTube, 10 apps in turn, 30 apps in turn —
/// each run 8 times, reporting mean ± sd and the LeaseOS overhead.
///
/// The paper's claim: LeaseOS introduces negligible overhead (<1%).
pub(super) fn fig13(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    const SEEDS: u64 = 8;
    let settings: [Setting; 5] = [
        ("Idle", Scenario::idle),
        ("No Interaction", Scenario::screen_no_interaction),
        ("Use YouTube", Scenario::youtube),
        ("Use 10 apps", || Scenario::multi_app(10)),
        ("Use 30 apps", || Scenario::multi_app(30)),
    ];
    let mut table = TextTable::new([
        "setting",
        "w/o lease",
        "sd",
        "with lease",
        "sd",
        "overhead %",
    ]);
    for (name, build) in settings {
        // (mean, sd) of the system power over the eight seeds.
        let power = |policy: PolicyKind| {
            let runs: Vec<f64> = (0..SEEDS)
                .map(|s| {
                    let (kernel, length) = run_scenario(build(), policy, 100 + s);
                    system_power_mw(&kernel, length)
                })
                .collect();
            let sd = stats::std_dev(&runs).expect("eight runs");
            (stats::mean(&runs).expect("eight runs"), sd)
        };
        let (vm, vs) = power(PolicyKind::Vanilla);
        let (lm, ls) = power(PolicyKind::LeaseOs);
        let overhead = 100.0 * (lm - vm) / vm;
        table.row([
            name.to_owned(),
            f2(vm),
            f2(vs),
            f2(lm),
            f2(ls),
            f2(overhead),
        ]);
    }
    Ok(format!(
        "Figure 13 — system power (mW) with and without lease, {SEEDS} runs each\n\
         {}\n\
         Paper: LeaseOS introduces negligible overhead (<1%), slightly larger variance.\n",
        table.render()
    ))
}

/// The paper's Figure 14: average end-to-end interaction latency for three
/// representative apps whose flows cross a lease-backed resource — a
/// sensor app (button → reading → UI), a wakelock app (button → lock +
/// network sync → UI), and a GPS app (button → fix → UI).
///
/// Paper numbers (ms): sensor 57.1 → 57.6, wakelock 2785.4 → 2787.8,
/// GPS 2207.1 → 2215.1 — i.e. sub-millisecond-to-few-ms additions.
///
/// The simulated flow latency is measured in-sim; the lease column adds the
/// modeled bookkeeping cost of the lease operations on the flow's critical
/// path (one acquire + one close/release at 1 ms each, cf.
/// `LeaseOs::overhead`), matching how the real system pays Table 4's
/// per-op latencies inline.
pub(super) fn fig14(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    const CRITICAL_PATH_MS: f64 = 2.0;
    let latency_ms = |kind: ResourceKind, policy: PolicyKind| {
        let mut env = Environment::new();
        env.in_motion = Schedule::new(true);
        let mut kernel = Kernel::new(DeviceProfile::pixel_xl(), env, policy.build(), 77);
        let id = kernel.add_app(Box::new(InteractionFlow::new(kind)));
        kernel.run_until(SimTime::from_mins(10));
        let flow = kernel.app_model::<InteractionFlow>(id).expect("flow");
        if flow.completed <= 10 {
            return Err(format!("{kind}: only {} flows completed", flow.completed));
        }
        Ok(flow.mean_latency_ms().expect("flows completed"))
    };
    let mut table = TextTable::new([
        "app",
        "w/o lease",
        "with lease",
        "delta",
        "paper w/o",
        "paper w/",
    ]);
    let rows = [
        (ResourceKind::Sensor, "Sensor app", 57.1, 57.6),
        (ResourceKind::Wakelock, "Wakelock app", 2785.4, 2787.8),
        (ResourceKind::Gps, "GPS app", 2207.1, 2215.1),
    ];
    for (kind, label, paper_base, paper_lease) in rows {
        let base = latency_ms(kind, PolicyKind::Vanilla)?;
        let lease = latency_ms(kind, PolicyKind::LeaseOs)? + CRITICAL_PATH_MS;
        table.row([
            label.to_owned(),
            f1(base),
            f1(lease),
            f1(lease - base),
            f1(paper_base),
            f1(paper_lease),
        ]);
    }
    Ok(format!(
        "Figure 14 — end-to-end interaction latency (ms)\n\
         {}\n\
         Lease operations add a few milliseconds at most — they are off the hot path\n\
         except for the acquire/release interpositions themselves (paper §7.6).\n",
        table.render()
    ))
}

/// The paper's Table 4: average latency of the major lease operations —
/// create, check (accept), check (reject), and the term-end update — using
/// the paper's micro-benchmark shape (an app acquires and releases
/// resources 20 times; each operation is timed).
///
/// The paper measures 0.357 / 0.498 / 0.388 / 4.79 ms on a phone, where the
/// cost is dominated by binder IPC; this in-process reproduction measures
/// the same operations in nanoseconds (no IPC), so the comparison is about
/// *shape*: update is the most expensive (it computes the utility metrics),
/// create and checks are cheap. Precise statistics come from the Criterion
/// bench (`cargo bench -p leaseos-bench --bench lease_ops`). The report
/// times the wall clock, so it is the one experiment without a golden.
pub(super) fn table4(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    const ROUNDS: u64 = 20_000;
    let per_op_ns = |start: Instant| start.elapsed().as_nanos() as f64 / ROUNDS as f64;

    // Create.
    let t0 = Instant::now();
    let mut manager = LeaseManager::new();
    for i in 0..ROUNDS {
        manager.create(
            ResourceKind::Wakelock,
            AppId(10_001),
            ObjId(i),
            UsageSnapshot::default(),
            SimTime::from_millis(i),
        );
    }
    let create_ns = per_op_ns(t0);

    // Check (accept): the lease exists and is active.
    let id = manager.lease_of_obj(ObjId(0)).expect("created above");
    let t0 = Instant::now();
    let accepted = (0..ROUNDS).filter(|_| manager.check(id)).count() as u64;
    let check_acc_ns = per_op_ns(t0);
    assert_eq!(accepted, ROUNDS);

    // Check (reject): unknown lease.
    let t0 = Instant::now();
    let rejected = (0..ROUNDS)
        .filter(|i| !manager.check(leaseos::LeaseId(10_000_000 + i)))
        .count() as u64;
    let check_rej_ns = per_op_ns(t0);
    assert_eq!(rejected, ROUNDS);

    // Update (term-end processing with metric computation).
    let t0 = Instant::now();
    for i in 0..ROUNDS {
        let lease = manager.lease_of_obj(ObjId(i)).expect("created above");
        let ms = 5_000 + i;
        let busy = UsageSnapshot {
            held: true,
            held_ms: ms,
            effective_ms: ms,
            cpu_ms: ms / 3,
            ui_updates: ms / 5_000,
            ..UsageSnapshot::default()
        };
        let _ = manager.process_check(lease, busy, SimTime::from_secs(3600 + i));
    }
    let update_ns = per_op_ns(t0);

    let mut table = TextTable::new([
        "operation",
        "this repro (ns)",
        "paper (ms, with binder IPC)",
    ]);
    for (op, ns, paper) in [
        ("Create", create_ns, "0.357"),
        ("Check (Acc)", check_acc_ns, "0.498"),
        ("Check (Rej)", check_rej_ns, "0.388"),
        ("Update", update_ns, "4.79"),
    ] {
        table.row([op.to_owned(), f2(ns), paper.to_owned()]);
    }
    Ok(format!(
        "Table 4 — average latency of major lease operations\n\
         {}\n\
         Shape check: update/create ratio = {:.1}x (paper: {:.1}x) — the term-end update\n\
         dominates because it computes the utility metrics; checks are cache hits.\n",
        table.render(),
        update_ns / create_ns,
        4.79 / 0.357
    ))
}

/// The paper's §7.6 end-to-end battery test: with one buggy GPS app
/// installed, a day of mixed usage (music, video, browsing, standby) runs
/// the battery down in ~12 hours on vanilla Android versus ~15 hours under
/// LeaseOS.
///
/// We simulate a 4-hour representative slice of the paper's day — ninety
/// minutes of active use (music + apps), then standby, which dominates a
/// real day and is where the buggy GPS app's drain matters most — and
/// project full-battery life from the measured average power. Absolute
/// projected hours run long because the model omits cellular-standby
/// draw; the extension *ratio* is the result.
pub(super) fn battery(args: &[String]) -> Result<String, String> {
    no_args(args)?;
    let day_slice_power = |policy: PolicyKind| {
        let mut env = Environment::new();
        env.user_present = Schedule::new(true);
        env.user_present.set_from(SimTime::from_mins(90), false);
        let app = |name: &str, profile: Profile, gap_mins: u64| {
            Box::new(InteractiveApp::new(
                name,
                profile,
                SimDuration::from_mins(gap_mins),
            ))
        };
        let scenario = Scenario {
            env,
            // The resident buggy GPS app drains throughout, next to one
            // long music stream and a couple of interactive apps.
            apps: vec![
                Box::new(GpsLogger::new()),
                app("music", Profile::Music, 5),
                app("video", Profile::Video, 5),
                app("browser", Profile::Browser, 3),
            ],
            duration: SimDuration::from_hours(4),
        };
        let (kernel, length) = run_scenario(scenario, policy, 55);
        system_power_mw(&kernel, length)
    };
    let battery = Battery::for_device(&DeviceProfile::pixel_xl());
    let vanilla = day_slice_power(PolicyKind::Vanilla);
    let lease = day_slice_power(PolicyKind::LeaseOs);
    let life_v = battery.life_at(vanilla).as_hours_f64();
    let life_l = battery.life_at(lease).as_hours_f64();
    let gain = life_l / life_v;
    let out = format!(
        "§7.6 end-to-end battery test — mixed day with one buggy GPS app installed\n  \
         avg power, vanilla Android: {} mW\n  \
         avg power, LeaseOS:         {} mW\n  \
         projected battery life:     {} h vs {} h (paper: ~12 h vs ~15 h)\n  \
         battery-life extension:     {}x (paper: 1.25x)\n",
        f1(vanilla),
        f1(lease),
        f1(life_v),
        f1(life_l),
        f1(gain)
    );
    if gain <= 1.05 {
        return Err(format!("LeaseOS must extend battery life, got {gain}x"));
    }
    Ok(out)
}
