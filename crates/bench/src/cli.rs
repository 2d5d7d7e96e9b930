//! Flag parsing shared by the durable bench binaries (`sweep_frontiers`,
//! `repro_all`, `fast-sweep-worker`, `fast-sweep-merge`), factored out so
//! the reject-unknown-flag behavior is unit tested instead of living
//! duplicated (and untested) in each `main`.
//!
//! Contract: unknown flags, missing flag values, and inconsistent
//! combinations (`--resume` without `--checkpoint`, `--shard` without
//! `--checkpoint`) are **errors** — the binaries print the message plus
//! their usage string and exit non-zero rather than silently ignoring
//! arguments.

use crate::pareto_figs::SweepRunOptions;
use fast_core::{Fidelity, SurrogateTier};
use std::path::PathBuf;

/// Outcome of parsing a durable-sweep command line.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepCli {
    /// Run with the parsed options.
    Run(SweepRunOptions),
    /// `--help`/`-h`: print usage and exit successfully.
    Help,
}

/// Parses an `INDEX/COUNT` shard spec (e.g. `0/3`).
fn parse_shard_spec(value: &str) -> Result<(usize, usize), String> {
    let bad = || format!("--shard wants INDEX/COUNT (e.g. 0/3), got {value:?}");
    let (index, count) = value.split_once('/').ok_or_else(bad)?;
    let index: usize = index.parse().map_err(|_| bad())?;
    let count: usize = count.parse().map_err(|_| bad())?;
    if count == 0 {
        return Err("--shard count must be at least 1".to_string());
    }
    if index >= count {
        return Err(format!("--shard index {index} out of range (shards are 0..{count})"));
    }
    Ok((index, count))
}

/// Parses the `--checkpoint DIR` / `--resume` (and, when
/// `accept_frontiers_only`, `--frontiers-only` and `--points`; when
/// `accept_shard`, `--shard INDEX/COUNT`) flag set, plus the fidelity
/// axis: `--fidelity exact|s0` with optional `--keep-fraction F`
/// (default 0.25) and `--min-full N` (default 2) refinements.
///
/// # Errors
/// Returns a one-line message for an unknown argument, a flag missing its
/// value, a flag where it is not accepted, a malformed shard spec,
/// `--resume`/`--shard` without `--checkpoint`, a keep fraction outside
/// (0, 1], or `--keep-fraction`/`--min-full` without a screened
/// `--fidelity`. Callers print it with their usage string and exit
/// non-zero.
pub fn parse_sweep_cli(
    args: impl IntoIterator<Item = String>,
    accept_frontiers_only: bool,
    accept_shard: bool,
) -> Result<SweepCli, String> {
    let mut opts = SweepRunOptions::default();
    let mut tier: Option<Option<SurrogateTier>> = None;
    let mut keep_fraction: Option<f64> = None;
    let mut min_full: Option<usize> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fidelity" => match args.next().as_deref() {
                Some("exact") => tier = Some(None),
                Some("s0") => tier = Some(Some(SurrogateTier::S0)),
                Some(other) => return Err(format!("--fidelity wants exact or s0, got {other:?}")),
                None => return Err("--fidelity needs exact or s0".to_string()),
            },
            "--keep-fraction" => match args.next() {
                Some(v) if !v.starts_with('-') => {
                    let f: f64 = v
                        .parse()
                        .map_err(|_| format!("--keep-fraction wants a number, got {v:?}"))?;
                    if !(f > 0.0 && f <= 1.0) {
                        return Err(format!("--keep-fraction must be in (0, 1], got {f}"));
                    }
                    keep_fraction = Some(f);
                }
                _ => return Err("--keep-fraction needs a fraction in (0, 1]".to_string()),
            },
            "--min-full" => match args.next() {
                Some(v) if !v.starts_with('-') => {
                    min_full = Some(
                        v.parse().map_err(|_| format!("--min-full wants a count, got {v:?}"))?,
                    );
                }
                _ => return Err("--min-full needs a per-round count".to_string()),
            },
            "--checkpoint" => match args.next() {
                // A flag in the value slot means the directory was
                // forgotten — running a sweep into a directory named
                // "--resume" is not what anyone meant.
                Some(dir) if !dir.starts_with('-') => opts.checkpoint = Some(dir.into()),
                _ => return Err("--checkpoint needs a directory".to_string()),
            },
            "--resume" => opts.resume = true,
            "--frontiers-only" if accept_frontiers_only => opts.frontiers_only = true,
            "--points" if accept_frontiers_only => opts.points = true,
            "--shard" if accept_shard => match args.next() {
                Some(spec) if !spec.starts_with('-') => {
                    opts.shard = Some(parse_shard_spec(&spec)?);
                }
                _ => return Err("--shard needs an INDEX/COUNT value".to_string()),
            },
            "--help" | "-h" => return Ok(SweepCli::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err("--resume requires --checkpoint DIR".to_string());
    }
    if opts.shard.is_some() && opts.checkpoint.is_none() {
        return Err("--shard requires --checkpoint DIR (the shard's mergeable state)".to_string());
    }
    match tier {
        Some(Some(tier)) => {
            opts.fidelity = Fidelity::Screened {
                keep_fraction: keep_fraction.unwrap_or(0.25),
                min_full: min_full.unwrap_or(2),
                tier,
            };
        }
        // `--fidelity exact` (or no flag at all): the refinements have
        // nothing to refine, so passing them is a mistake, not a no-op.
        Some(None) | None => {
            if keep_fraction.is_some() || min_full.is_some() {
                return Err("--keep-fraction/--min-full require --fidelity s0".to_string());
            }
        }
    }
    Ok(SweepCli::Run(opts))
}

/// What a `fast-serve-client` invocation asks the daemon to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAction {
    /// Liveness probe.
    Ping,
    /// Submit the bench matrix (or a domain shard of it) and, unless
    /// `watch` is off, stream progress and print the frontier-points table.
    Submit {
        /// `--domain I/N`: submit only domain shard `I` of `N` (contiguous
        /// slice of the matrix's domain axis; concatenating shard outputs
        /// in index order reproduces the full matrix order).
        domain_shard: Option<(usize, usize)>,
        /// Job display name.
        name: String,
        /// Stream events and wait for the result.
        watch: bool,
    },
    /// Attach to job `id` and wait for its result.
    Watch(u64),
    /// One-shot phase query for job `id`.
    Status(u64),
    /// List every journaled job.
    List,
    /// Drain the queue and stop the daemon.
    Shutdown,
}

/// Outcome of parsing a `fast-serve-client` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeClientCli {
    /// Talk to the daemon at `addr`.
    Run {
        /// `tcp:HOST:PORT` or `unix:PATH` (parsed downstream).
        addr: String,
        /// What to do.
        action: ServeAction,
    },
    /// `--help`/`-h`: print usage and exit successfully.
    Help,
}

/// Parses the `fast-serve-client --addr ADDR [ACTION]` command line.
/// The default action is a watched bench-matrix submission.
///
/// # Errors
/// Returns a one-line message for an unknown flag, a flag missing its
/// value, conflicting actions, a malformed `--domain` spec, or a missing
/// `--addr`.
pub fn parse_serve_client_cli(
    args: impl IntoIterator<Item = String>,
) -> Result<ServeClientCli, String> {
    let mut addr: Option<String> = None;
    let mut action: Option<ServeAction> = None;
    let mut domain_shard: Option<(usize, usize)> = None;
    let mut name: Option<String> = None;
    let mut watch = true;
    let set = |slot: &mut Option<ServeAction>, a: ServeAction| match slot {
        Some(prior) => Err(format!("conflicting actions: {prior:?} then {a:?}")),
        None => {
            *slot = Some(a);
            Ok(())
        }
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| match args.next() {
            Some(v) if !v.starts_with('-') => Ok(v),
            _ => Err(format!("{arg} needs {what}")),
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("tcp:HOST:PORT or unix:PATH")?),
            "--ping" => set(&mut action, ServeAction::Ping)?,
            "--submit" => set(
                &mut action,
                ServeAction::Submit { domain_shard: None, name: String::new(), watch: true },
            )?,
            "--domain" => {
                let spec = value("an INDEX/COUNT value")?;
                let bad = || format!("--domain wants INDEX/COUNT (e.g. 0/3), got {spec:?}");
                let (i, n) = spec.split_once('/').ok_or_else(bad)?;
                let i: usize = i.parse().map_err(|_| bad())?;
                let n: usize = n.parse().map_err(|_| bad())?;
                if n == 0 {
                    return Err("--domain count must be at least 1".to_string());
                }
                if i >= n {
                    return Err(format!("--domain index {i} out of range (shards are 0..{n})"));
                }
                domain_shard = Some((i, n));
            }
            "--name" => name = Some(value("a job name")?),
            "--no-watch" => watch = false,
            "--watch" => {
                let id = value("a job id")?;
                let id = id.parse().map_err(|_| format!("--watch wants a job id, got {id:?}"))?;
                set(&mut action, ServeAction::Watch(id))?;
            }
            "--status" => {
                let id = value("a job id")?;
                let id = id.parse().map_err(|_| format!("--status wants a job id, got {id:?}"))?;
                set(&mut action, ServeAction::Status(id))?;
            }
            "--list" => set(&mut action, ServeAction::List)?,
            "--shutdown" => set(&mut action, ServeAction::Shutdown)?,
            "--help" | "-h" => return Ok(ServeClientCli::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let Some(addr) = addr else {
        return Err("--addr ADDR is required".to_string());
    };
    let action = match action.unwrap_or(ServeAction::Submit {
        domain_shard: None,
        name: String::new(),
        watch: true,
    }) {
        ServeAction::Submit { .. } => {
            let name = name.unwrap_or_else(|| match domain_shard {
                Some((i, n)) => format!("bench-matrix[{i}/{n}]"),
                None => "bench-matrix".to_string(),
            });
            ServeAction::Submit { domain_shard, name, watch }
        }
        other => {
            if domain_shard.is_some() || name.is_some() || !watch {
                return Err("--domain/--name/--no-watch only apply to a submission".to_string());
            }
            other
        }
    };
    Ok(ServeClientCli::Run { addr, action })
}

/// Outcome of parsing a `fast-sweep-merge` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeCli {
    /// Merge the shard checkpoint directories into `out`.
    Run {
        /// Shard checkpoint directories, in the order given.
        inputs: Vec<PathBuf>,
        /// Output directory for the merged artifact set.
        out: PathBuf,
    },
    /// `--help`/`-h`: print usage and exit successfully.
    Help,
}

/// Parses the `fast-sweep-merge --out DIR SHARD_DIR...` command line.
///
/// # Errors
/// Returns a one-line message for an unknown flag, a missing `--out`
/// value, a missing `--out` altogether, or no shard directories. Callers
/// print it with their usage string and exit non-zero.
pub fn parse_merge_cli(args: impl IntoIterator<Item = String>) -> Result<MergeCli, String> {
    let mut out: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) if !dir.starts_with('-') => out = Some(dir.into()),
                _ => return Err("--out needs a directory".to_string()),
            },
            "--help" | "-h" => return Ok(MergeCli::Help),
            flag if flag.starts_with('-') => return Err(format!("unknown argument {flag:?}")),
            dir => inputs.push(dir.into()),
        }
    }
    let Some(out) = out else {
        return Err("--out DIR is required".to_string());
    };
    if inputs.is_empty() {
        return Err("at least one shard checkpoint directory is required".to_string());
    }
    Ok(MergeCli::Run { inputs, out })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], frontiers: bool) -> Result<SweepCli, String> {
        parse_sweep_cli(args.iter().map(ToString::to_string), frontiers, false)
    }

    fn parse_shard(args: &[&str]) -> Result<SweepCli, String> {
        parse_sweep_cli(args.iter().map(ToString::to_string), true, true)
    }

    fn parse_merge(args: &[&str]) -> Result<MergeCli, String> {
        parse_merge_cli(args.iter().map(ToString::to_string))
    }

    #[test]
    fn empty_args_run_with_defaults() {
        assert_eq!(parse(&[], true), Ok(SweepCli::Run(SweepRunOptions::default())));
    }

    #[test]
    fn full_flag_set_parses() {
        let got = parse(&["--checkpoint", "ck", "--resume", "--frontiers-only"], true).unwrap();
        let SweepCli::Run(opts) = got else { panic!("expected Run") };
        assert_eq!(opts.checkpoint, Some(PathBuf::from("ck")));
        assert!(opts.resume);
        assert!(opts.frontiers_only);
    }

    #[test]
    fn unknown_flags_are_errors_not_ignored() {
        for bad in ["--frontier-only", "-x", "extra", "--checkpoint=ck"] {
            let got = parse(&[bad], true);
            assert_eq!(got, Err(format!("unknown argument {bad:?}")), "{bad}");
        }
        // A typo after valid flags must still fail, not run a sweep with
        // the typo silently dropped.
        assert!(parse(&["--checkpoint", "ck", "--resum"], true).is_err());
    }

    #[test]
    fn frontiers_only_is_rejected_where_unsupported() {
        assert_eq!(
            parse(&["--frontiers-only"], false),
            Err("unknown argument \"--frontiers-only\"".to_string())
        );
    }

    #[test]
    fn missing_checkpoint_value_is_an_error() {
        assert_eq!(
            parse(&["--checkpoint"], true),
            Err("--checkpoint needs a directory".to_string())
        );
        // A following flag must not be swallowed as the directory value:
        // `--checkpoint --resume` would otherwise run a cold sweep into a
        // directory literally named "--resume".
        assert_eq!(
            parse(&["--checkpoint", "--resume"], true),
            Err("--checkpoint needs a directory".to_string())
        );
    }

    #[test]
    fn resume_requires_checkpoint() {
        assert_eq!(
            parse(&["--resume"], true),
            Err("--resume requires --checkpoint DIR".to_string())
        );
    }

    #[test]
    fn help_wins() {
        assert_eq!(parse(&["--help"], true), Ok(SweepCli::Help));
        assert_eq!(parse(&["-h"], false), Ok(SweepCli::Help));
    }

    #[test]
    fn shard_parses_with_checkpoint() {
        let got = parse_shard(&["--shard", "1/3", "--checkpoint", "ck"]).unwrap();
        let SweepCli::Run(opts) = got else { panic!("expected Run") };
        assert_eq!(opts.shard, Some((1, 3)));
        assert_eq!(opts.checkpoint, Some(PathBuf::from("ck")));
    }

    #[test]
    fn shard_requires_checkpoint() {
        assert_eq!(
            parse_shard(&["--shard", "0/3"]),
            Err("--shard requires --checkpoint DIR (the shard's mergeable state)".to_string())
        );
    }

    #[test]
    fn shard_is_rejected_where_unsupported() {
        assert_eq!(
            parse(&["--shard", "0/3"], true),
            Err("unknown argument \"--shard\"".to_string())
        );
    }

    #[test]
    fn malformed_shard_specs_are_errors() {
        for bad in ["3", "a/b", "1/", "/3", "1/2/3", "-1/3"] {
            let got = parse_shard(&["--shard", bad, "--checkpoint", "ck"]);
            assert!(got.is_err(), "{bad}: {got:?}");
        }
        assert_eq!(
            parse_shard(&["--shard", "0/0", "--checkpoint", "ck"]),
            Err("--shard count must be at least 1".to_string())
        );
        assert_eq!(
            parse_shard(&["--shard", "3/3", "--checkpoint", "ck"]),
            Err("--shard index 3 out of range (shards are 0..3)".to_string())
        );
        // A following flag must not be swallowed as the shard spec.
        assert_eq!(
            parse_shard(&["--shard", "--checkpoint"]),
            Err("--shard needs an INDEX/COUNT value".to_string())
        );
    }

    fn parse_serve(args: &[&str]) -> Result<ServeClientCli, String> {
        parse_serve_client_cli(args.iter().map(ToString::to_string))
    }

    #[test]
    fn fidelity_flags_parse_with_defaults_and_overrides() {
        let SweepCli::Run(opts) = parse(&["--fidelity", "s0"], true).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(
            opts.fidelity,
            Fidelity::Screened { keep_fraction: 0.25, min_full: 2, tier: SurrogateTier::S0 }
        );

        let SweepCli::Run(opts) =
            parse(&["--fidelity", "s0", "--keep-fraction", "0.125", "--min-full", "4"], true)
                .unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(
            opts.fidelity,
            Fidelity::Screened { keep_fraction: 0.125, min_full: 4, tier: SurrogateTier::S0 }
        );
        // Any other tier name is an error naming the accepted values.
        assert_eq!(
            parse(&["--fidelity", "s1"], true),
            Err("--fidelity wants exact or s0, got \"s1\"".to_string())
        );

        let SweepCli::Run(opts) = parse(&["--fidelity", "exact"], true).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(opts.fidelity, Fidelity::Exact);
    }

    #[test]
    fn fidelity_misuse_is_rejected() {
        assert!(parse(&["--fidelity"], true).is_err());
        assert!(parse(&["--fidelity", "s2"], true).is_err());
        // Refinements without a screened tier are mistakes, not no-ops.
        assert_eq!(
            parse(&["--keep-fraction", "0.5"], true),
            Err("--keep-fraction/--min-full require --fidelity s0".to_string())
        );
        assert_eq!(
            parse(&["--fidelity", "exact", "--min-full", "3"], true),
            Err("--keep-fraction/--min-full require --fidelity s0".to_string())
        );
        // The fraction must be a usable probability mass.
        assert!(parse(&["--fidelity", "s0", "--keep-fraction", "0"], true).is_err());
        assert!(parse(&["--fidelity", "s0", "--keep-fraction", "1.5"], true).is_err());
        assert!(parse(&["--fidelity", "s0", "--keep-fraction", "nan"], true).is_err());
        assert!(parse(&["--fidelity", "s0", "--min-full", "x"], true).is_err());
        // A following flag must not be swallowed as a value.
        assert!(parse(&["--fidelity", "s0", "--keep-fraction", "--resume"], true).is_err());
    }

    #[test]
    fn points_parses_where_frontiers_only_does() {
        let got = parse(&["--points"], true).unwrap();
        let SweepCli::Run(opts) = got else { panic!("expected Run") };
        assert!(opts.points);
        assert_eq!(parse(&["--points"], false), Err("unknown argument \"--points\"".to_string()));
    }

    #[test]
    fn serve_client_defaults_to_a_watched_submission() {
        let got = parse_serve(&["--addr", "tcp:127.0.0.1:4114"]).unwrap();
        assert_eq!(
            got,
            ServeClientCli::Run {
                addr: "tcp:127.0.0.1:4114".to_string(),
                action: ServeAction::Submit {
                    domain_shard: None,
                    name: "bench-matrix".to_string(),
                    watch: true,
                },
            }
        );
    }

    #[test]
    fn serve_client_domain_shard_names_itself() {
        let got = parse_serve(&["--addr", "unix:/tmp/s.sock", "--domain", "1/3"]).unwrap();
        let ServeClientCli::Run { action, .. } = got else { panic!("expected Run") };
        assert_eq!(
            action,
            ServeAction::Submit {
                domain_shard: Some((1, 3)),
                name: "bench-matrix[1/3]".to_string(),
                watch: true,
            }
        );
    }

    #[test]
    fn serve_client_parses_every_action() {
        let addr = ["--addr", "tcp:h:1"];
        let run = |extra: &[&str]| {
            let args: Vec<&str> = addr.iter().chain(extra).copied().collect();
            let ServeClientCli::Run { action, .. } = parse_serve(&args).unwrap() else {
                panic!("expected Run");
            };
            action
        };
        assert_eq!(run(&["--ping"]), ServeAction::Ping);
        assert_eq!(run(&["--watch", "7"]), ServeAction::Watch(7));
        assert_eq!(run(&["--status", "2"]), ServeAction::Status(2));
        assert_eq!(run(&["--list"]), ServeAction::List);
        assert_eq!(run(&["--shutdown"]), ServeAction::Shutdown);
        assert_eq!(
            run(&["--submit", "--name", "n", "--no-watch"]),
            ServeAction::Submit { domain_shard: None, name: "n".to_string(), watch: false }
        );
    }

    #[test]
    fn serve_client_rejects_misuse() {
        assert_eq!(parse_serve(&["--ping"]), Err("--addr ADDR is required".to_string()));
        assert!(parse_serve(&["--addr", "a", "--ping", "--list"]).is_err());
        assert!(parse_serve(&["--addr", "a", "--list", "--domain", "0/3"]).is_err());
        assert!(parse_serve(&["--addr", "a", "--domain", "3/3"]).is_err());
        assert!(parse_serve(&["--addr", "a", "--domain", "x/y"]).is_err());
        assert!(parse_serve(&["--addr", "a", "--watch", "nope"]).is_err());
        assert!(parse_serve(&["--addr", "a", "--bogus"]).is_err());
        assert_eq!(parse_serve(&["-h"]), Ok(ServeClientCli::Help));
    }

    #[test]
    fn merge_cli_parses_out_and_positional_dirs() {
        let got = parse_merge(&["--out", "merged", "s0", "s1", "s2"]).unwrap();
        assert_eq!(
            got,
            MergeCli::Run {
                inputs: vec!["s0".into(), "s1".into(), "s2".into()],
                out: PathBuf::from("merged"),
            }
        );
        // Flag order does not matter.
        let got = parse_merge(&["s0", "--out", "merged", "s1"]).unwrap();
        let MergeCli::Run { inputs, .. } = got else { panic!("expected Run") };
        assert_eq!(inputs, vec![PathBuf::from("s0"), PathBuf::from("s1")]);
    }

    #[test]
    fn merge_cli_rejects_missing_pieces() {
        assert_eq!(parse_merge(&["s0"]), Err("--out DIR is required".to_string()));
        assert_eq!(
            parse_merge(&["--out", "merged"]),
            Err("at least one shard checkpoint directory is required".to_string())
        );
        assert_eq!(parse_merge(&["--out"]), Err("--out needs a directory".to_string()));
        assert_eq!(parse_merge(&["--out", "--help"]), Err("--out needs a directory".to_string()));
        assert_eq!(
            parse_merge(&["--out", "m", "s0", "--bogus"]),
            Err("unknown argument \"--bogus\"".to_string())
        );
        assert_eq!(parse_merge(&["-h"]), Ok(MergeCli::Help));
    }
}
