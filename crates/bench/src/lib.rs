//! # leaseos-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see
//! `DESIGN.md` §4 for the full index):
//!
//! | target | regenerates |
//! |---|---|
//! | `figures_1_to_4` | the §2.3 characterization traces (Figs. 1–4) |
//! | `table1` | the misbehaviour applicability matrix |
//! | `table2` | the 109-case prevalence study |
//! | `fig09` | holding time vs lease term (both panels) |
//! | `fig11` | active leases over a normal-usage hour + §7.2 stats |
//! | `fig12` | waste-reduction ratio vs λ |
//! | `fig13` | system power overhead across five usage settings |
//! | `fig14` | end-to-end interaction latency |
//! | `table4` | lease-operation latencies (summary; precise numbers come from the Criterion bench `lease_ops`) |
//! | `table5` | the 20-app mitigation comparison |
//! | `usability` | the §7.4 normal-app disruption comparison |
//! | `battery` | the §7.6 battery-life end-to-end test |
//! | `ablation` | design-choice isolation (escalation, ladder, window, utility) |
//! | `threshold_sweep` | LHB utilization-threshold sensitivity |
//! | `device_variance` | the §2.3 cross-phone variance observation |
//! | `explore` | ad-hoc scenario CLI (`--list` for options) |
//!
//! This library holds what they share: policy construction, the
//! run-one-case loop, and text-table rendering.

#![warn(missing_docs)]

pub mod cache;
pub mod conformance;
pub mod daemon;
pub mod dumpsys;
pub mod explore;
pub mod fleet;
pub mod harness;
pub mod throughput;

pub use cache::{build_rev, CacheKey, CacheStats, KeyBuilder, ResultCache};
pub use conformance::{CaseHandle, FaultArm, MatrixConfig, MatrixRun};
pub use daemon::{CellRequest, DaemonClient, DaemonConfig};
pub use harness::{
    parse_thread_count, AppBuilder, EnvBuilder, Matrix, PolicyBuilder, ScenarioRun, ScenarioRunner,
    ScenarioSpec, WorkerPool,
};

use leaseos::LeaseOs;
use leaseos_apps::buggy::BuggyCase;
use leaseos_baselines::{DefDroid, Doze, PureThrottle, VanillaPolicy};
use leaseos_framework::{Kernel, ResourcePolicy};
use leaseos_simkit::{DeviceProfile, SimDuration, SimTime};

/// The policies the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Vanilla ask-use-release (the "w/o lease" column).
    Vanilla,
    /// LeaseOS with the paper's defaults.
    LeaseOs,
    /// Android Doze, forced on as in the paper's Table 5 footnote.
    DozeAggressive,
    /// DefDroid-style throttling.
    DefDroid,
    /// Pure time-based throttling (§7.4).
    PureThrottle,
}

impl PolicyKind {
    /// All Table 5 policies, in column order.
    pub const TABLE5: [PolicyKind; 4] = [
        PolicyKind::Vanilla,
        PolicyKind::LeaseOs,
        PolicyKind::DozeAggressive,
        PolicyKind::DefDroid,
    ];

    /// Every policy the harness knows: the Table 5 four plus the §7.4
    /// pure-throttle baseline. The conformance matrix sweeps this set.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Vanilla,
        PolicyKind::LeaseOs,
        PolicyKind::DozeAggressive,
        PolicyKind::DefDroid,
        PolicyKind::PureThrottle,
    ];

    /// Builds a fresh policy instance.
    pub fn build(self) -> Box<dyn ResourcePolicy> {
        match self {
            PolicyKind::Vanilla => Box::new(VanillaPolicy::new()),
            PolicyKind::LeaseOs => Box::new(LeaseOs::new()),
            PolicyKind::DozeAggressive => Box::new(Doze::aggressive()),
            PolicyKind::DefDroid => Box::new(DefDroid::new()),
            PolicyKind::PureThrottle => Box::new(PureThrottle::new()),
        }
    }

    /// Parses a CLI policy name (`vanilla`, `leaseos`, `doze`, `defdroid`,
    /// `throttle`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(raw: &str) -> Result<PolicyKind, String> {
        match raw {
            "vanilla" => Ok(PolicyKind::Vanilla),
            "leaseos" => Ok(PolicyKind::LeaseOs),
            "doze" => Ok(PolicyKind::DozeAggressive),
            "defdroid" => Ok(PolicyKind::DefDroid),
            "throttle" => Ok(PolicyKind::PureThrottle),
            other => Err(format!(
                "unknown policy {other:?} (vanilla, leaseos, doze, defdroid, throttle)"
            )),
        }
    }

    /// The CLI name, the exact inverse of [`parse`](Self::parse) — also the
    /// policy's segment in cell labels and cache keys.
    pub fn cli_name(self) -> &'static str {
        match self {
            PolicyKind::Vanilla => "vanilla",
            PolicyKind::LeaseOs => "leaseos",
            PolicyKind::DozeAggressive => "doze",
            PolicyKind::DefDroid => "defdroid",
            PolicyKind::PureThrottle => "throttle",
        }
    }

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Vanilla => "w/o lease",
            PolicyKind::LeaseOs => "LeaseOS",
            PolicyKind::DozeAggressive => "Doze*",
            PolicyKind::DefDroid => "DefDroid",
            PolicyKind::PureThrottle => "Throttle",
        }
    }
}

/// Result of running one buggy case under one policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseRun {
    /// Average app power over the run, mW.
    pub app_power_mw: f64,
    /// Average system-wide power, mW (including modeled policy overhead).
    pub system_power_mw: f64,
}

/// The standard experiment length (the paper runs each for 30 minutes).
pub const RUN_LENGTH: SimDuration = SimDuration::from_mins(30);

/// Runs one Table 5 case under `policy` for [`RUN_LENGTH`] and reports the
/// app's average power.
pub fn run_case(case: &BuggyCase, policy: PolicyKind, seed: u64) -> CaseRun {
    run_case_for(case, policy, seed, RUN_LENGTH)
}

/// Runs one Table 5 case for an explicit duration.
pub fn run_case_for(
    case: &BuggyCase,
    policy: PolicyKind,
    seed: u64,
    length: SimDuration,
) -> CaseRun {
    let mut kernel = Kernel::new(
        DeviceProfile::pixel_xl(),
        (case.environment)(),
        policy.build(),
        seed,
    );
    let app = kernel.add_app((case.build)());
    let end = SimTime::ZERO + length;
    kernel.run_until(end);
    CaseRun {
        app_power_mw: kernel.avg_app_power_mw(app, length),
        system_power_mw: kernel.meter().avg_total_power_mw(length)
            + kernel.policy_overhead_mj() / length.as_secs_f64(),
    }
}

/// Percentage reduction of `treated` relative to `baseline`.
pub fn reduction_pct(baseline: f64, treated: f64) -> f64 {
    100.0 * leaseos_simkit::stats::reduction_ratio(baseline, treated)
}

/// A minimal fixed-width text-table builder for harness output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row arity differs from the header's.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns (first column left-aligned,
    /// the rest right-aligned).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i] - cell.chars().count();
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
            }
            while line.ends_with(' ') {
                line.pop();
            }
            line
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaseos_apps::buggy::table5_cases;

    #[test]
    fn policies_build_with_expected_names() {
        for kind in PolicyKind::TABLE5 {
            let policy = kind.build();
            assert!(!policy.name().is_empty());
        }
        assert_eq!(PolicyKind::LeaseOs.build().name(), "leaseos");
        assert_eq!(PolicyKind::PureThrottle.label(), "Throttle");
    }

    #[test]
    fn every_policy_round_trips_parse_label_and_build() {
        assert_eq!(PolicyKind::ALL[..4], PolicyKind::TABLE5);
        let mut labels = Vec::new();
        let mut names = Vec::new();
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.cli_name()), Ok(kind));
            assert!(!kind.build().name().is_empty());
            labels.push(kind.label());
            names.push(kind.cli_name());
        }
        for list in [&mut labels, &mut names] {
            list.sort_unstable();
            list.dedup();
            assert_eq!(list.len(), PolicyKind::ALL.len(), "no aliasing");
        }
        assert!(PolicyKind::parse("santa").is_err());
    }

    #[test]
    fn torch_case_reduction_matches_lambda_cap() {
        let cases = table5_cases();
        let torch = cases.iter().find(|c| c.name == "Torch").unwrap();
        let base = run_case(torch, PolicyKind::Vanilla, 1);
        let lease = run_case(torch, PolicyKind::LeaseOs, 1);
        let red = reduction_pct(base.app_power_mw, lease.app_power_mw);
        // Escalating deferrals push a permanent holder's reduction well past
        // the fixed-λ cap of 83 %.
        assert!(red > 90.0, "got {red}");
    }

    #[test]
    fn text_table_alignment() {
        let mut t = TextTable::new(["App", "mW"]);
        t.row(["Facebook", "100.6"]);
        t.row(["K-9", "890.4"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("App"));
        assert!(lines[2].contains("Facebook"));
        assert!(lines[3].ends_with("890.4"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mismatched_row_is_rejected() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
    }
}
