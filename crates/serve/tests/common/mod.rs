//! Shared scaffolding for the `fast-serve` integration battery: spawning
//! (and SIGKILLing) real server processes, tiny sweep specs, and the
//! in-process expected results the served ones must match bit-for-bit.
//!
//! Each integration test binary compiles this module independently and
//! uses a different subset of it, so unused-item lints are off.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use fast_core::{
    points_table, BudgetLevel, Fidelity, JobSpec, Objective, OptimizerKind, ScenarioMatrix,
    SweepConfig, SweepRunner,
};
use fast_models::{EfficientNet, Workload, WorkloadDomain};
use fast_serve::{Client, ListenAddr};

/// A unique scratch directory per call, under the target-adjacent tempdir.
pub fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fast-serve-test-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A running `fast-serve` daemon on an ephemeral localhost port.
///
/// Dropping it SIGKILLs the process — tests that want a graceful drain call
/// [`Client::shutdown`] themselves; tests that want a crash call
/// [`ServerProc::kill`] at the moment of their choosing.
pub struct ServerProc {
    child: Child,
    /// The resolved listen address parsed from the startup line.
    pub addr: ListenAddr,
}

impl ServerProc {
    /// Spawns `fast-serve --journal {journal} --listen tcp:127.0.0.1:0`
    /// plus `extra` flags, and blocks until the daemon prints its
    /// listening line.
    pub fn spawn(journal: &Path, extra: &[&str]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fast-serve"))
            .arg("--journal")
            .arg(journal)
            .args(["--listen", "tcp:127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fast-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("startup line");
        let addr = line
            .trim()
            .strip_prefix("fast-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line {line:?}"));
        let addr = ListenAddr::parse(addr).expect("parseable listen address");
        ServerProc { child, addr }
    }

    /// Connects a fresh client.
    pub fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to test server")
    }

    /// SIGKILL — the crash the journal must survive. (`Child::kill` sends
    /// SIGKILL on Unix: no handlers, no flushing, no goodbyes.)
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// The daemon's pid, for pid-derived test jitter.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A small single-scenario spec: `domain` at the paper budget under one
/// objective. `trials`/`batch` size the round count (`trials / batch`
/// rounds), which is what kill-timing tests care about.
pub fn spec_one(name: &str, domain: WorkloadDomain, trials: usize, batch: usize) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        matrix: ScenarioMatrix {
            budgets: vec![BudgetLevel::scaled(1.0)],
            objectives: vec![Objective::Qps],
            domains: vec![domain],
        },
        config: SweepConfig {
            trials,
            optimizer: OptimizerKind::Random,
            seed: 0x5EED,
            batch,
            seeds: Vec::new(),
            fidelity: Fidelity::Exact,
        },
    }
}

/// A two-scenario spec (two budget levels over one domain) — enough
/// structure for a scenario *boundary* to exist mid-job.
pub fn spec_two_budgets(name: &str, trials: usize, batch: usize) -> JobSpec {
    let mut spec = spec_one(name, b0(), trials, batch);
    spec.matrix.budgets = vec![BudgetLevel::scaled(1.0), BudgetLevel::scaled(0.75)];
    spec
}

/// The cheapest interesting domain.
pub fn b0() -> WorkloadDomain {
    WorkloadDomain::per_model(Workload::EfficientNet(EfficientNet::B0))
}

/// What an uninterrupted single-process run of `spec` produces, as the
/// canonical frontier-points table. Every served result — concurrent,
/// killed-and-resumed, cache-corrupted — must print this exact string.
pub fn expected_points(spec: &JobSpec) -> String {
    let runner = SweepRunner::new(spec.matrix.clone(), spec.config.clone());
    let result = runner.run();
    let records: Vec<_> = result.scenarios.iter().map(|s| s.record()).collect();
    points_table(&records)
}

/// Renders a served outcome's scenarios the same way.
pub fn outcome_points(outcome: &fast_serve::JobOutcome) -> String {
    points_table(&outcome.scenarios)
}

/// Rewrites the surrogate-tier byte of an encoded screened spec to tag 1,
/// the wire tag of a tier this build no longer has. The tier is the last
/// byte of a `JobSpec` encoding: the fidelity closes the sweep config, which
/// closes the spec.
pub fn retire_tier(spec_bytes: &mut [u8]) {
    let tier = spec_bytes.last_mut().expect("non-empty spec encoding");
    assert_eq!(*tier, 0, "a screened spec ends in the S0 tier tag");
    *tier = 1;
}
