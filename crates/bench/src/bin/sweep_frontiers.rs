//! The scenario-sweep budget frontiers (Figure 9/10-style), standalone and
//! durable: `--checkpoint DIR` persists progress, `--resume` continues a
//! killed run bit-identically, `--frontiers-only` prints only the
//! deterministic tables (what the CI kill-and-resume smoke diffs).
//! Unknown flags exit non-zero with this usage message.

use fast_bench::cli::{parse_sweep_cli, SweepCli};
use fast_bench::pareto_figs::sweep_budget_frontiers_with;

const USAGE: &str =
    "usage: sweep_frontiers [--checkpoint DIR] [--resume] [--frontiers-only] [--points]
                       [--fidelity exact|s0] [--keep-fraction F] [--min-full N]
  --checkpoint DIR   save the evaluation cache + scenario ledger under DIR
  --resume           continue a killed run from DIR (requires --checkpoint)
  --frontiers-only   print only the deterministic frontier tables
  --points           print only the frontier-points table (bit patterns;
                     byte-identical iff the frontiers are bit-identical)
  --fidelity TIER    exact (default), or s0: screen trials through the
                     analytical roofline surrogate
  --keep-fraction F  fraction of each round to fully simulate (default 0.25)
  --min-full N       full simulations per round floor (default 2)";

fn main() {
    match parse_sweep_cli(std::env::args().skip(1), true, false) {
        Ok(SweepCli::Help) => println!("{USAGE}"),
        Ok(SweepCli::Run(opts)) => {
            // `print!`, not `println!`: the tables end in '\n' already, and
            // a doubled trailing newline would make `--points` output differ
            // from a served client's byte-for-byte (the CI smoke diffs them).
            let report = sweep_budget_frontiers_with(&opts);
            print!("{report}");
            if !report.ends_with('\n') {
                println!();
            }
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
