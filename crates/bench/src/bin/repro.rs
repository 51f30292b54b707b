//! Regenerates one table or figure of the paper's evaluation:
//!
//! ```console
//! $ cargo run --release -p leaseos-bench --bin repro -- table5 --attribution
//! ```
//!
//! `repro <name> [args]` runs the experiment registry's entry `name`
//! (`leaseos_bench::experiments`) and prints its report on stdout. With no
//! name or an unknown one it lists the names and exits 2; an argument the
//! experiment does not take, or a failed check of its own, exits 1.

use leaseos_bench::experiments::{self, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(experiment) = args.first().and_then(|name| experiments::find(name)) else {
        eprintln!("usage: repro <name> [args], where <name> is one of:");
        for e in &EXPERIMENTS {
            eprintln!("  {:<16} {}", e.name, e.about);
        }
        std::process::exit(2);
    };
    match (experiment.run)(&args[1..]) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("repro {}: {e}", experiment.name);
            std::process::exit(1);
        }
    }
}
