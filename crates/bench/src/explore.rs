//! The `explore` scenario report as a library: run any Table 5 case (or a
//! normal app) under any policy, on any device, for any duration, and
//! render the resulting accounting as one deterministic text block.
//!
//! The `explore` binary used to own this logic; it moved here so the report
//! has two byte-identical front doors — the one-shot bin and the daemon's
//! `explore` command ([`crate::daemon`]). Everything user-visible goes into
//! the returned string; advisory warnings (unknown device or policy falling
//! back to a default) go to stderr, which is not part of the report.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use leaseos::LeaseOs;
use leaseos_apps::buggy::table5_cases;
use leaseos_baselines::{DefDroid, Doze, PureThrottle, VanillaPolicy};
use leaseos_framework::{AppModel, Kernel, ResourcePolicy};
use leaseos_simkit::{DeviceProfile, Environment, RingBufferSink, SimDuration, SimTime};

use crate::harness::normal_apps;

/// Everything one explore run needs, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreParams {
    /// Table 5 case name (case-insensitive) or `runkeeper`/`spotify`/`haven`.
    pub app: String,
    /// Policy name (`vanilla`, `leaseos`, `doze`, `doze-stock`, `defdroid`,
    /// `throttle`); unknown names warn and fall back to `leaseos`.
    pub policy: String,
    /// Device name (`pixel-xl`, `nexus-6`, …); unknown names warn and fall
    /// back to `pixel-xl`.
    pub device: String,
    /// Simulated minutes.
    pub minutes: u64,
    /// Kernel RNG seed.
    pub seed: u64,
    /// Print the last `trace` kernel trace entries (0 = no trace).
    pub trace: usize,
    /// Render the open/closed causal span tree.
    pub spans: bool,
}

impl Default for ExploreParams {
    fn default() -> Self {
        ExploreParams {
            app: "Torch".to_owned(),
            policy: "leaseos".to_owned(),
            device: "pixel-xl".to_owned(),
            minutes: 30,
            seed: 42,
            trace: 0,
            spans: false,
        }
    }
}

/// Resolves a device name, warning (stderr) and defaulting to Pixel XL on
/// an unknown one — the historical `explore` CLI behaviour.
pub fn device(name: &str) -> DeviceProfile {
    match name {
        "pixel-xl" => DeviceProfile::pixel_xl(),
        "nexus-6" => DeviceProfile::nexus_6(),
        "nexus-5x" => DeviceProfile::nexus_5x(),
        "nexus-4" => DeviceProfile::nexus_4(),
        "galaxy-s4" => DeviceProfile::galaxy_s4(),
        "moto-g" => DeviceProfile::moto_g(),
        other => {
            eprintln!("unknown device {other}; using pixel-xl");
            DeviceProfile::pixel_xl()
        }
    }
}

/// Resolves a policy name (the explore vocabulary, a superset of
/// [`crate::PolicyKind`]'s: it adds `doze-stock`), warning and defaulting
/// to LeaseOS on an unknown one.
pub fn policy(name: &str) -> Box<dyn ResourcePolicy> {
    match name {
        "vanilla" => Box::new(VanillaPolicy::new()),
        "leaseos" => Box::new(LeaseOs::new()),
        "doze" => Box::new(Doze::aggressive()),
        "doze-stock" => Box::new(Doze::new()),
        "defdroid" => Box::new(DefDroid::new()),
        "throttle" => Box::new(PureThrottle::new()),
        other => {
            eprintln!("unknown policy {other}; using leaseos");
            Box::new(LeaseOs::new())
        }
    }
}

/// Resolves an app name (case-insensitive Table 5 name or one of the
/// normal apps) to its model and trigger environment.
pub fn app_and_env(name: &str) -> Option<(Box<dyn AppModel>, Environment)> {
    let lower = name.to_lowercase();
    if let Some((_, app, env)) = normal_apps()
        .into_iter()
        .find(|(normal, ..)| normal.to_lowercase() == lower)
    {
        return Some((app(), env()));
    }
    table5_cases()
        .into_iter()
        .find(|c| c.name.to_lowercase() == lower)
        .map(|c| ((c.build)(), (c.environment)()))
}

/// The `--list` text: every runnable app.
pub fn list_text() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "buggy apps (Table 5):");
    for case in table5_cases() {
        let _ = writeln!(
            out,
            "  {:<20} {} {}",
            case.name, case.resource, case.behavior
        );
    }
    let _ = writeln!(out, "normal apps: RunKeeper, Spotify, Haven");
    out
}

/// Runs the scenario and renders the full report — the exact text the
/// `explore` binary prints to stdout.
///
/// # Errors
///
/// Reports an app name nothing resolves to (the binary exits 2 on it).
pub fn render(params: &ExploreParams) -> Result<String, String> {
    let Some((app, env)) = app_and_env(&params.app) else {
        return Err(format!("unknown app {:?}; try --list", params.app));
    };

    let run = SimDuration::from_mins(params.minutes);
    let mut kernel = Kernel::new(
        device(&params.device),
        env,
        policy(&params.policy),
        params.seed,
    );
    let ring = if params.trace > 0 {
        let ring = Rc::new(RefCell::new(RingBufferSink::new(params.trace)));
        kernel.telemetry().attach(ring.clone());
        Some(ring)
    } else {
        None
    };
    if params.spans {
        kernel.enable_tracing();
    }
    kernel.enable_profiler(SimDuration::from_secs(60));
    let id = kernel.add_app(app);
    let end = SimTime::ZERO + run;
    kernel.run_until(end);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} under {} on {} for {} min (seed {})",
        params.app, params.policy, params.device, params.minutes, params.seed
    );
    let _ = writeln!(
        out,
        "  app avg power:     {:.2} mW",
        kernel.avg_app_power_mw(id, run)
    );
    let _ = writeln!(
        out,
        "  system avg power:  {:.2} mW",
        kernel.meter().avg_total_power_mw(run)
    );
    if let Some(stats) = kernel.ledger().app_opt(id) {
        let _ = writeln!(
            out,
            "  cpu {:.1}s  exceptions {}  ui {}  interactions {}  net {}/{} ok  data {}  distance {:.0}m",
            stats.cpu_ms as f64 / 1_000.0,
            stats.exceptions,
            stats.ui_updates,
            stats.interactions,
            stats.net_ops - stats.net_failures,
            stats.net_ops,
            stats.data_written,
            stats.distance_m,
        );
    }
    for (obj, o) in kernel.ledger().all_objects().filter(|(_, o)| o.owner == id) {
        let _ = writeln!(
            out,
            "  {obj} {:<16} held {:>8}  effective {:>8}  deliveries {}{}",
            o.kind.to_string(),
            o.held_time(end).to_string(),
            o.effective_held_time(end).to_string(),
            o.deliveries,
            if o.dead { "  (dead)" } else { "" },
        );
    }
    if let Some(os) = kernel.policy().as_any().downcast_ref::<LeaseOs>() {
        for report in os.manager().lease_reports(end) {
            let _ = writeln!(
                out,
                "  lease on {:<16} terms {:>4}  deferrals {:>3}  active {:>7.1}s",
                report.kind.to_string(),
                report.terms,
                report.deferrals,
                report.active_secs,
            );
        }
    }
    // Per-component energy breakdown for the app.
    let _ = writeln!(out, "  energy by component:");
    for component in leaseos_simkit::ComponentKind::ALL {
        let mj = kernel.meter().component_energy_mj(id.consumer(), component);
        if mj > 0.0 {
            let _ = writeln!(out, "    {component:<8} {mj:>12.1} mJ");
        }
    }
    if params.spans {
        if let Some(ledger) = kernel.tracing() {
            let _ = writeln!(
                out,
                "  span tree ({:.3} mJ useful, {:.3} mJ wasted):",
                ledger.total_useful_mj(),
                ledger.total_wasted_mj()
            );
            for line in ledger.render_tree().lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
    if let Some(ring) = ring {
        let ring = ring.borrow();
        let total = ring.dropped() + ring.len() as u64;
        let _ = writeln!(
            out,
            "  kernel trace (last {} of {} entries):",
            ring.len(),
            total
        );
        for event in ring.events() {
            let _ = writeln!(out, "    {event}");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_reports_the_scenario() {
        let params = ExploreParams {
            minutes: 2,
            spans: true,
            ..ExploreParams::default()
        };
        let a = render(&params).unwrap();
        let b = render(&params).unwrap();
        assert_eq!(a, b, "same params, same bytes");
        assert!(a.starts_with("Torch under leaseos on pixel-xl for 2 min (seed 42)\n"));
        assert!(a.contains("app avg power:"));
        assert!(a.contains("energy by component:"));
        assert!(a.contains("span tree ("));
    }

    #[test]
    fn unknown_app_is_an_error_and_list_names_every_case() {
        let err = render(&ExploreParams {
            app: "NotAnApp".into(),
            ..ExploreParams::default()
        })
        .unwrap_err();
        assert!(err.contains("NotAnApp"));
        let list = list_text();
        for case in table5_cases() {
            assert!(list.contains(case.name), "{} listed", case.name);
        }
        assert!(list.contains("normal apps: RunKeeper, Spotify, Haven"));
    }

    #[test]
    fn normal_apps_and_case_insensitive_names_resolve() {
        for name in ["runkeeper", "Spotify", "haven", "torch", "Facebook"] {
            assert!(app_and_env(name).is_some(), "{name} resolves");
        }
        assert!(app_and_env("nonexistent").is_none());
    }
}
