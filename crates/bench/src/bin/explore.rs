//! Interactive exploration CLI: run any Table 5 case (or a normal app)
//! under any policy, on any device, for any duration, and dump the
//! resulting accounting.
//!
//! ```console
//! $ cargo run --release -p leaseos-bench --bin explore -- \
//!       --app K-9 --policy leaseos --device moto-g --minutes 15
//! ```
//!
//! Flags (all optional): `--app <table5 name|runkeeper|spotify|haven>`,
//! `--policy <vanilla|leaseos|doze|doze-stock|defdroid|throttle>`,
//! `--device <pixel-xl|nexus-6|nexus-5x|nexus-4|galaxy-s4|moto-g>`,
//! `--minutes <n>`, `--seed <n>`, `--trace <n>` (print the last n kernel
//! trace entries), `--spans` (render the open/closed causal span tree),
//! `--list` (show available apps). Any other flag is an error.
//!
//! A resident daemon serves the same report through its `explore` command
//! (`daemon --connect SOCK --request '{"v":1,"cmd":"explore",…}' --extract
//! output`).

use leaseos_bench::explore::{self, ExploreParams};

fn main() {
    let mut params = ExploreParams::default();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = || args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
        match arg.as_str() {
            "--app" => params.app = take(),
            "--policy" => params.policy = take(),
            "--device" => params.device = take(),
            "--minutes" => params.minutes = take().parse().expect("--minutes takes an integer"),
            "--seed" => params.seed = take().parse().expect("--seed takes an integer"),
            "--trace" => params.trace = take().parse().expect("--trace takes an integer"),
            "--spans" => params.spans = true,
            "--list" => list = true,
            other => panic!("unknown flag {other}"),
        }
    }
    if list {
        print!("{}", explore::list_text());
        return;
    }

    match explore::render(&params) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
