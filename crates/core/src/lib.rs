//! # ncdrf — Non-Consistent Dual Register Files
//!
//! A full reproduction of *"Non-Consistent Dual Register Files to Reduce
//! Register Pressure"* (J. Llosa, M. Valero, E. Ayguadé, HPCA 1995) as a
//! Rust library.
//!
//! The paper proposes building a clustered VLIW's register file from two
//! independently-addressed subfiles: values consumed by both clusters are
//! replicated ("global"), values consumed by one cluster live only in
//! that cluster's subfile ("left-only"/"right-only"). Because most
//! register instances are read once, this halves read-port pressure *and*
//! lowers each subfile's register requirement, which reduces spill code
//! in software-pipelined loops — improving performance and memory-traffic
//! density. A greedy post-scheduling pass that swaps same-cycle,
//! same-unit-type operations across clusters reduces the requirement
//! further.
//!
//! This crate is the facade over the full pipeline:
//!
//! | crate | role |
//! |---|---|
//! | [`ncdrf_ddg`] | loop dependence graphs (executable) |
//! | [`ncdrf_machine`] | VLIW machine models + register-file cost models |
//! | [`ncdrf_sched`] | iterative modulo scheduling |
//! | [`ncdrf_regalloc`] | rotating-file allocation, unified & dual |
//! | [`ncdrf_swap`] | the greedy cluster-swapping pass |
//! | [`ncdrf_spill`] | the §5.4 naive spiller |
//! | [`ncdrf_corpus`] | the benchmark loop population |
//! | [`ncdrf_vliw`] | cycle-accurate executor + equivalence oracle |
//! | [`ncdrf_exec`] | work-stealing sweep executor with panic isolation |
//!
//! # Quickstart
//!
//! Experiments are driven through a [`Session`] (one machine, one
//! schedule cache — every model comparison schedules each loop once) or,
//! corpus-wide, a [`Sweep`]:
//!
//! ```
//! use ncdrf::{ModelId, Session};
//! use ncdrf::corpus::kernels;
//! use ncdrf::machine::Machine;
//!
//! # fn main() -> Result<(), ncdrf::PipelineError> {
//! let session = Session::new(Machine::clustered(3, 1));
//! let loop_ = kernels::livermore::hydro();
//!
//! let unified = session.analyze(&loop_, ModelId::UNIFIED)?;
//! let swapped = session.analyze(&loop_, ModelId::SWAPPED)?;
//! assert!(swapped.regs <= unified.regs);
//! // Both analyses shared one scheduling run.
//! assert_eq!(session.cache_stats().misses, 1);
//! # Ok(())
//! # }
//! ```
//!
//! Reproducing a paper figure is a [`Sweep`] plus a [`Render`] backend:
//!
//! ```no_run
//! use ncdrf::{Render, ReportFormat, Sweep, PAPER_MODELS};
//! use ncdrf::corpus::Corpus;
//!
//! # fn main() -> Result<(), ncdrf::PipelineError> {
//! let corpus = Corpus::standard();
//! let report = Sweep::new(&corpus)
//!     .clustered_latencies([3, 6])
//!     .models(PAPER_MODELS)
//!     .budgets([32, 64])
//!     .run()?;
//! println!("{}", report.render(ReportFormat::Text));
//! std::fs::write("fig8_9.csv", report.render(ReportFormat::Csv)).unwrap();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod artifact;
mod certify;
mod distribution;
mod experiment;
pub mod json;
mod model;
mod pipeline;
mod report;
mod session;
mod shard;
mod sweep;

pub use artifact::{
    machine_from_name, named_corpus, preset_sweep, read_shard, read_shards, rebuild_corpus,
    rebuild_grid, rebuild_machines, scan_artifacts, sweep_for_signature, write_artifact,
    ArtifactError,
};
pub use certify::{
    CellCertifier, CellFault, CertifyViolation, RULE_DEPENDENCE, RULE_FU_BINDING,
    RULE_MRT_OVERFLOW, RULE_REQUIREMENT, RULE_SPILL_SHAPE, RULE_UNIT_CONFLICT,
};
pub use distribution::{default_points, Cumulative, Observation, TABLE1_POINTS};
pub use experiment::{
    relative_performance, BudgetOutcome, DistributionCurve, Table1Row, FIG89_CONFIGS,
};
pub use model::{
    resolve_models, CompressedSpec, ModelId, ModelRegistry, ModelSpec, PortLimitedSpec,
    RegistryError, RequirementCtx, COMPRESSED_CAPACITY, PAPER_FINITE_MODELS, PAPER_MODELS,
    PORT_LIMITED_READ_PORTS,
};
pub use pipeline::{
    analyze, evaluate, requirement, ConfigError, LoopAnalysis, LoopEval, ModelRequirement,
    PipelineError, PipelineOptions, PipelineStage,
};
pub use report::{
    parse_grid_signature, parse_partial_sweep, parse_sweep_report, parse_sweep_shard,
    render_grid_signature, BudgetMetric, BudgetTable, DistributionPanel, Render, ReportFormat,
    ReportParseError,
};
pub use session::{BaseSchedule, CacheStats, Session, TrajectoryExport};
pub use shard::{CellTrajectory, GridSignature, MachineSig, Provenance, ShardRole, SweepShard};
pub use sweep::{certify_shard, certify_shard_on, shard_tasks, PartialSweep, Sweep, SweepReport};

/// Re-export of the corpus crate.
pub use ncdrf_corpus as corpus;
/// Re-export of the dependence-graph crate.
pub use ncdrf_ddg as ddg;
/// Re-export of the execution-pool crate.
pub use ncdrf_exec as exec;
/// Re-export of the machine-model crate.
pub use ncdrf_machine as machine;
/// Re-export of the register-allocation crate.
pub use ncdrf_regalloc as regalloc;
/// Re-export of the modulo-scheduling crate.
pub use ncdrf_sched as sched;
/// Re-export of the spiller crate.
pub use ncdrf_spill as spill;
/// Re-export of the swapping-pass crate.
pub use ncdrf_swap as swap;
/// Re-export of the VLIW-executor crate.
pub use ncdrf_vliw as vliw;
