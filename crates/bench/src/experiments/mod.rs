//! The experiment registry: one entry per table or figure of the paper's
//! evaluation, each a function from its arguments to the exact report
//! text. The `repro` binary runs them (`repro <name> [args]`), and
//! `tests/repro_golden.rs` pins every deterministic report byte for byte
//! against `tests/golden/repro/<name>.txt`.
//!
//! Each entry's doc comment carries its rationale: what it regenerates,
//! where it substitutes scale or models a cost, and the caveats.

use std::str::FromStr;

mod characterization;
mod lease_terms;
mod mitigation;
mod overhead;

/// One reproducible experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name `repro` runs it by.
    pub name: &'static str,
    /// One line on what it regenerates.
    pub about: &'static str,
    /// Parses the arguments and returns the report text. Fails on an
    /// argument the experiment does not take, or when one of its own
    /// checks fails.
    pub run: fn(&[String]) -> Result<String, String>,
}

/// Every experiment, in paper order.
pub static EXPERIMENTS: [Experiment; 16] = [
    Experiment {
        name: "figures_1_to_4",
        about: "the §2.3 characterization traces (Figs. 1–4)",
        run: characterization::figures_1_to_4,
    },
    Experiment {
        name: "table1",
        about: "the misbehaviour applicability matrix",
        run: characterization::table1,
    },
    Experiment {
        name: "table2",
        about: "the 109-case prevalence study",
        run: characterization::table2,
    },
    Experiment {
        name: "fig09",
        about: "holding time vs lease term (both panels)",
        run: lease_terms::fig09,
    },
    Experiment {
        name: "fig11",
        about: "active leases over a normal-usage hour + §7.2 stats",
        run: overhead::fig11,
    },
    Experiment {
        name: "fig12",
        about: "waste-reduction ratio vs λ [cases]",
        run: lease_terms::fig12,
    },
    Experiment {
        name: "fig13",
        about: "system power overhead across five usage settings",
        run: overhead::fig13,
    },
    Experiment {
        name: "fig14",
        about: "end-to-end interaction latency",
        run: overhead::fig14,
    },
    Experiment {
        name: "table4",
        about: "lease-operation latencies (wall clock, not pinned)",
        run: overhead::table4,
    },
    Experiment {
        name: "table5",
        about:
            "the 20-app mitigation comparison [seeds] [--threads N] [--jsonl DIR] [--attribution]",
        run: mitigation::table5,
    },
    Experiment {
        name: "usability",
        about: "the §7.4 normal-app disruption comparison",
        run: mitigation::usability,
    },
    Experiment {
        name: "battery",
        about: "the §7.6 battery-life end-to-end test",
        run: overhead::battery,
    },
    Experiment {
        name: "ablation",
        about: "design-choice isolation (escalation, ladder, window, utility)",
        run: mitigation::ablation,
    },
    Experiment {
        name: "threshold_sweep",
        about: "LHB utilization-threshold sensitivity",
        run: mitigation::threshold_sweep,
    },
    Experiment {
        name: "device_variance",
        about: "the §2.3 cross-phone variance observation",
        run: characterization::device_variance,
    },
    Experiment {
        name: "baseline",
        about: "the BENCH_baseline.json headline numbers [--seed N] [--threads N]",
        run: mitigation::baseline,
    },
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Rejects any argument: most experiments take none.
fn no_args(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(arg) => Err(format!("unexpected argument {arg:?}")),
        None => Ok(()),
    }
}

/// Parses a flag's or positional's value.
fn parse_value<T: FromStr>(what: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{what} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{what}: cannot parse {raw:?}"))
}
