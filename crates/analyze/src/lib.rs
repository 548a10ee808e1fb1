//! # ncdrf-analyze — static analysis for the NCDRF workspace
//!
//! Four pieces, one goal: catch concurrency and wire-protocol bugs in
//! the pool + farm substrate *before* they need a failing production
//! run to show themselves.
//!
//! * **Interleaving model checker** — [`check`] runs a scenario closure
//!   under the deterministic virtual scheduler of the vendored
//!   `parking_lot` stand-in's `model-check` feature
//!   ([`parking_lot::model`]): real threads, serialised one-at-a-time,
//!   with every scheduling decision enumerated by bounded DFS. The
//!   scenarios in [`scenarios`] drive the *real* `ncdrf_exec::Pool` and
//!   `ncdrf_farm::Farm` through their submit / claim / deliver / tick
//!   protocols and assert the lease-protocol invariants (counters
//!   counted exactly once, no double-complete, no lost cell, results
//!   index-ordered) in every explored schedule.
//! * **Happens-before layer** — [`hb::Analysis`] replays each explored
//!   trace through vector clocks, reporting unordered conflicting
//!   accesses as race candidates and nested lock acquisitions as a
//!   lock-order graph whose cycles are acquisition-order inversions.
//! * **Repo-invariant lint** — [`lint`] (binary: `ncdrf_lint`), a
//!   token-level scanner for the invariants earlier PRs fixed bugs
//!   against: no stray wall-clock reads, no float formatting on the
//!   wire, no panics in daemon request handling, kind/version constants
//!   shared between renderers and parsers.
//! * **Artifact auditor** — [`audit`] (binary: `ncdrf_analyze audit`),
//!   structural no-execution checks over a directory of shard
//!   artifacts.
//! * **Schedule certification** — [`certify`] (binary: `ncdrf_analyze
//!   certify`), offline drivers for the independent `ncdrf-certify`
//!   translation validator: certify-mode re-runs of the golden grids
//!   and per-cell re-certification of artifact directories.

#![warn(missing_docs)]

pub mod audit;
pub mod certify;
pub mod hb;
pub mod lint;
pub mod scenarios;
pub mod sync;

pub use parking_lot::model;

use model::{Config, Exploration};

/// The combined result of one model-checking run: what the exploration
/// concluded (complete? counterexample?) plus the happens-before facts
/// accumulated over every completed trace.
#[derive(Debug)]
pub struct CheckReport {
    /// Schedule enumeration outcome.
    pub exploration: Exploration,
    /// Vector-clock race candidates and the lock-order graph.
    pub analysis: hb::Analysis,
}

impl CheckReport {
    /// Whether the run is fully clean: every schedule explored, no
    /// counterexample, no race candidates, no lock-order cycles.
    pub fn clean(&self) -> bool {
        self.exploration.complete
            && self.exploration.counterexample.is_none()
            && self.analysis.races().count() == 0
            && self.analysis.lock_cycles().is_empty()
    }
}

/// Explores every schedule of `scenario` under `config`, feeding each
/// completed trace through the happens-before analysis.
pub fn check<S>(config: &Config, scenario: S) -> CheckReport
where
    S: Fn() + Send + Sync + 'static,
{
    let mut analysis = hb::Analysis::new();
    let exploration = model::explore(config, scenario, |trace| analysis.absorb(trace));
    CheckReport {
        exploration,
        analysis,
    }
}
