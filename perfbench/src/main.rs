//! Command-line entry point; see the library docs for what it measures.
//!
//! ```text
//! perfbench --workload <fig4-soleil|relay32-merge|shard2-fanout|reconfig-churn>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! Exit codes: 0 when every output check passed, 1 when a check failed
//! (the result line still prints, with `"correct": false`), 2 for bad
//! arguments or a set-up error (no result line).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match perfbench::Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    let title = format!(
        "perfbench {} seed={} seconds={} {} (available parallelism {})",
        report.workload,
        cfg.seed,
        cfg.seconds,
        if cfg.trace {
            "traced: per-layer ledger"
        } else {
            "untraced: end-to-end"
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    print!("{}", report.text(&title));
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
