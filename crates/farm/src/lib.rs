//! # ncdrf-farm — the resident sweep-farm daemon
//!
//! A long-lived scheduler over the sharded sweep substrate: jobs name a
//! grid (`preset_sweep` + optional budget override), the farm leases
//! the grid's cells to workers in expirable slices, heals failed or
//! lost cells on a tick cadence via the same `unresolved → reissue →
//! merge` protocol the CLI uses, and serves job status and the merged
//! report over a tiny HTTP/1.1 + JSON API. Every served report is
//! byte-identical to what `Sweep::run_sequential` + `shard_runner
//! merge` would produce — counters included — which the farm test
//! suite and the `farm-verify` CI job assert.
//!
//! The moving parts:
//!
//! * [`Farm`] — the state machine: bounded job queue (submits beyond
//!   [`FarmConfig::queue_cap`] get HTTP 429), cell leases with
//!   millisecond deadlines, at-least-once delivery reconciled through
//!   [`ncdrf::SweepShard::reconcile`] so duplicates never double-count
//!   [`ncdrf::CacheStats`], an artifact-directory watcher, and an
//!   incremental re-merge cache keyed on [`ncdrf::GridSignature`]
//!   (exact resubmits complete instantly; resume-compatible ones seed
//!   their spill descents). All methods take `now` explicitly — the
//!   farm owns no clock.
//! * [`worker`] — the other side of the lease protocol:
//!   [`LeaseOffer`], its wire round-trip, and [`evaluate_lease`]
//!   which rebuilds the sweep from the offer's signature and evaluates
//!   exactly the leased cells.
//! * [`api`] — the HTTP surface as a pure `(method, path, body, now) →
//!   (status, body)` function; [`http`] is the `std::net` shell around
//!   it, plus the blocking client workers use.
//! * [`clock`] — the injected wall clock the daemon shell feeds `now`
//!   from: [`Clock::System`] in production, [`Clock::manual`] in tests
//!   and model-checker scenarios. The farm state machine itself never
//!   reads time.
//!
//! The `farm_daemon` binary wires these together: serve, tick, and
//! optionally run an in-process local worker backend.

#![warn(missing_docs)]

pub mod api;
pub mod clock;
mod farm;
pub mod http;
pub mod worker;

pub use clock::Clock;
pub use farm::{
    parse_report, DeliverReceipt, Farm, FarmConfig, FarmError, JobSpec, JobState, JobStatus,
    SubmitReceipt, TickReport,
};
pub use http::{request, serve, serve_with_clock, FarmServer};
pub use worker::{evaluate_lease, now_millis, LeaseOffer};
