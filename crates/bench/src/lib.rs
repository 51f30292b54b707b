//! # leaseos-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation is an entry of the
//! [`experiments`] registry, run by name through the `repro` binary
//! (`repro <name> [args]`; `DESIGN.md` §4 maps each to the paper). The
//! other binaries are tools: `chaos` (the conformance matrix), `fleet`
//! (device populations), `dumpsys` (energy diagnosis), `explore` (ad-hoc
//! scenarios) and `daemon` (the resident query service).
//!
//! This library holds what they share: policy construction, the scenario
//! matrix and runner, the result cache, and text-table rendering.

#![warn(missing_docs)]

pub mod cache;
pub mod conformance;
pub mod daemon;
pub mod dumpsys;
pub mod experiments;
pub mod explore;
pub mod fleet;
pub mod harness;
pub mod throughput;

pub use cache::{build_rev, CacheKey, CacheStats, KeyBuilder, ResultCache};
pub use conformance::{CaseHandle, FaultArm, MatrixConfig, MatrixRun};
pub use daemon::{CellRequest, DaemonClient, DaemonConfig};
pub use harness::{
    parse_thread_count, AppBuilder, EnvBuilder, Matrix, PolicyBuilder, ScenarioRun, ScenarioRunner,
    ScenarioSpec,
};

use leaseos::LeaseOs;
use leaseos_baselines::{DefDroid, Doze, PureThrottle, VanillaPolicy};
use leaseos_framework::ResourcePolicy;
use leaseos_simkit::SimDuration;

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

/// The standard experiment length (the paper runs each for 30 minutes).
pub const RUN_LENGTH: SimDuration = SimDuration::from_mins(30);

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

/// File-safe version of a scenario label (`/` → `_`, space → `-`).
pub fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| match c {
            '/' => '_',
            ' ' => '-',
            c => c,
        })
        .collect()
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
    use std::sync::Arc;

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
        let torch = table5_cases()
            .into_iter()
            .find(|c| c.name == "Torch")
            .unwrap();
        let mut matrix = Matrix::new(RUN_LENGTH).seeds(vec![1]).app(
            torch.name,
            Arc::new(torch.build),
            Arc::new(torch.environment),
        );
        for policy in [PolicyKind::Vanilla, PolicyKind::LeaseOs] {
            matrix = matrix.policy(policy.cli_name(), Arc::new(move || policy.build()));
        }
        let power: Vec<f64> = matrix
            .specs()
            .iter()
            .map(|spec| spec.execute().app_power_mw())
            .collect();
        let red = reduction_pct(power[0], power[1]);
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
