//! One worker of a distributed budget sweep: runs shard `INDEX` of `COUNT`
//! of the same scenario matrix `sweep_frontiers` runs, checkpointing into
//! its own directory. Per-scenario results are bit-identical to the same
//! scenarios of a single-process run (each scenario's study is
//! self-contained), so after every shard finishes, `fast-sweep-merge` folds
//! the checkpoint directories into the exact artifact set one process would
//! have produced. A worker killed mid-shard is resumed with `--resume`; a
//! shard's checkpoint cannot be merged until its range is complete.

use fast_bench::cli::{parse_sweep_cli, SweepCli};
use fast_bench::pareto_figs::sweep_budget_frontiers_with;

const USAGE: &str = "usage: fast-sweep-worker --shard INDEX/COUNT --checkpoint DIR \
[--resume] [--frontiers-only] [--fidelity exact|s0] [--keep-fraction F] [--min-full N]
  --shard INDEX/COUNT  run scenario shard INDEX of COUNT (e.g. 0/3)
  --checkpoint DIR     save this shard's evaluation cache + ledger under DIR
  --resume             continue a killed shard run from DIR
  --frontiers-only     print only the deterministic frontier tables
  --fidelity TIER      exact (default), or surrogate-screen trials (s0)
  --keep-fraction F    fraction of each round to fully simulate (default 0.25)
  --min-full N         full simulations per round floor (default 2)";

fn main() {
    match parse_sweep_cli(std::env::args().skip(1), true, true) {
        Ok(SweepCli::Help) => println!("{USAGE}"),
        Ok(SweepCli::Run(opts)) if opts.shard.is_none() => {
            eprintln!("--shard INDEX/COUNT is required (use sweep_frontiers for a full run)");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Ok(SweepCli::Run(opts)) => println!("{}", sweep_budget_frontiers_with(&opts)),
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
