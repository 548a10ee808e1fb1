//! The [`Sweep`] builder: declarative corpus experiments over a
//! machine grid × model set × budget set, each `(machine, loop)` cell
//! evaluated in its own [`Session`].
//!
//! One `Sweep` reproduces any of the paper's tables and figures: every
//! `(machine, loop)` pair is scheduled exactly once no matter how many
//! models or budgets are evaluated on it.
//!
//! Execution is handled by the [`ncdrf_exec`] subsystem. One executor
//! serves every pooled run mode — [`Sweep::run`], [`Sweep::run_partial`],
//! [`Sweep::shard`] and [`Sweep::issue_cells`]: it flattens the grid into
//! `(machine, loop)` cells and serves them from one work-stealing
//! [`Pool`], so machine-level and loop-level parallelism compose instead
//! of machines queueing behind each other. Every cache a session keeps is
//! keyed by the loop, so a cell's session holds all the reuse there is,
//! and it dies with the cell. [`Sweep::run_partial`] additionally makes
//! the grid fault-tolerant — one failing pair is reported by name
//! instead of discarding the rest.
//!
//! ```
//! use ncdrf::{Render, ReportFormat, Sweep, PAPER_MODELS};
//! use ncdrf::corpus::Corpus;
//! use ncdrf::machine::Machine;
//!
//! # fn main() -> Result<(), ncdrf::PipelineError> {
//! let corpus = Corpus::small().take(8);
//! // Figures 8/9, one configuration: four models, 32 registers.
//! let report = Sweep::new(&corpus)
//!     .machine(Machine::clustered(3, 1))
//!     .models(PAPER_MODELS)
//!     .budget(32)
//!     .run()?;
//! assert_eq!(report.outcomes.len(), 4);
//! println!("{}", report.render(ReportFormat::Text));
//! # Ok(())
//! # }
//! ```

use crate::artifact::ArtifactError;
use crate::certify::{CellCertifier, CellFault};
use crate::distribution::{Cumulative, Observation, TABLE1_POINTS};
use crate::experiment::{relative_performance, BudgetOutcome, DistributionCurve, Table1Row};
use crate::model::{ModelId, PAPER_MODELS};
use crate::pipeline::{ConfigError, LoopAnalysis, LoopEval, PipelineError, PipelineOptions};
use crate::session::{CacheStats, Session, TrajectoryExport};
use crate::shard::{CellTrajectory, GridSignature, ShardCell, ShardRole};
use ncdrf_corpus::Corpus;
use ncdrf_ddg::Loop;
use ncdrf_exec::Pool;
use ncdrf_machine::Machine;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Builder for a corpus experiment over machines × models × budgets.
///
/// * adding [`points`](Sweep::points) produces register-requirement
///   [`DistributionCurve`]s (the Figure 6/7 and Table 1 pipeline:
///   unlimited registers, no spilling);
/// * adding [`budgets`](Sweep::budgets) produces [`BudgetOutcome`]s (the
///   Figure 8/9 pipeline: finite file, spiller active).
///
/// Both can be requested in one sweep; they share the schedule cache.
#[derive(Debug, Clone)]
pub struct Sweep<'c> {
    corpus: &'c Corpus,
    machines: Vec<Machine>,
    models: Vec<ModelId>,
    points: Vec<u32>,
    budgets: Vec<u32>,
    opts: PipelineOptions,
    pool: Option<Arc<Pool>>,
    persist: bool,
    certifier: Option<Arc<dyn CellCertifier>>,
}

impl<'c> Sweep<'c> {
    /// Starts a sweep over `corpus` with no machines, all four models,
    /// and no points/budgets.
    pub fn new(corpus: &'c Corpus) -> Self {
        Sweep {
            corpus,
            machines: Vec::new(),
            models: PAPER_MODELS.to_vec(),
            points: Vec::new(),
            budgets: Vec::new(),
            opts: PipelineOptions::default(),
            pool: None,
            persist: false,
            certifier: None,
        }
    }

    /// Adds one machine to the grid.
    pub fn machine(mut self, machine: Machine) -> Self {
        self.machines.push(machine);
        self
    }

    /// Adds machines to the grid.
    pub fn machines<I: IntoIterator<Item = Machine>>(mut self, machines: I) -> Self {
        self.machines.extend(machines);
        self
    }

    /// Adds the paper's two-cluster evaluation machines for the given
    /// latencies ([`Machine::clustered`] with one load/store unit per
    /// cluster).
    pub fn clustered_latencies<I: IntoIterator<Item = u32>>(mut self, latencies: I) -> Self {
        self.machines
            .extend(latencies.into_iter().map(|lat| Machine::clustered(lat, 1)));
        self
    }

    /// Adds the unified `PxLy` machines of Table 1 for `(x, latency)`
    /// pairs.
    pub fn pxly_configs<I: IntoIterator<Item = (u32, u32)>>(mut self, configs: I) -> Self {
        self.machines
            .extend(configs.into_iter().map(|(x, lat)| Machine::pxly(x, lat)));
        self
    }

    /// Replaces the model set (default: the paper's four, in presentation
    /// order). Any registered model drops into the same grid machinery.
    pub fn models<I: IntoIterator<Item = ModelId>>(mut self, models: I) -> Self {
        self.models = models.into_iter().collect();
        self
    }

    /// Sets the register-count sample points for distribution curves.
    pub fn points<I: IntoIterator<Item = u32>>(mut self, points: I) -> Self {
        self.points = points.into_iter().collect();
        self
    }

    /// Adds one register budget for spill evaluation.
    pub fn budget(mut self, budget: u32) -> Self {
        self.budgets.push(budget);
        self
    }

    /// Adds register budgets for spill evaluation.
    pub fn budgets<I: IntoIterator<Item = u32>>(mut self, budgets: I) -> Self {
        self.budgets.extend(budgets);
        self
    }

    /// Replaces the budget set wholesale ([`Sweep::budget`] and
    /// [`Sweep::budgets`] *append*). For callers that start from a
    /// preset grid and need to override — not extend — its ladder, e.g.
    /// a farm job resubmitted with new budgets.
    pub fn replace_budgets<I: IntoIterator<Item = u32>>(mut self, budgets: I) -> Self {
        self.budgets = budgets.into_iter().collect();
        self
    }

    /// Replaces the pipeline options.
    pub fn options(mut self, opts: PipelineOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Runs this sweep on a shared, persistent [`Pool`] instead of a
    /// pool created (and torn down) per `run`/`shard` call. A process
    /// executing several sweeps — a budget ladder, one grid per figure,
    /// a repeated bench — passes one `Arc<Pool>` to all of them and
    /// reuses the same parked worker threads throughout. Results are
    /// bit-identical for any pool and worker count.
    pub fn pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Persist each cell's spill-trajectory checkpoints (victim
    /// choices, served requirements — not the rewritten loops) into the
    /// shard artifacts this sweep produces, so a later
    /// [`Sweep::reissue`] — possibly at smaller budgets — resumes the
    /// recorded descents across processes instead of respilling from
    /// zero. Off by default: artifacts stay minimal, and a heal of a
    /// trajectory-free artifact re-evaluates cells exactly as an
    /// unfaulted run would (which is what keeps healed merges
    /// byte-identical to the sequential reference, counters included).
    pub fn persist_trajectories(mut self, persist: bool) -> Self {
        self.persist = persist;
        self
    }

    /// Certifies every cell this sweep evaluates: each [`Session`] the
    /// sweep constructs — per-cell sessions and the per-machine sessions
    /// of [`Sweep::run_sequential`] alike — runs with
    /// [`Session::certify`] set, so every analysis, evaluation and
    /// replayed spill checkpoint is re-verified from first principles
    /// before it contributes to a report or shard artifact. A violation surfaces as a per-cell
    /// [`crate::PipelineStage::Certify`] error through the usual
    /// fault-tolerance channels.
    pub fn certify(mut self, certifier: Arc<dyn CellCertifier>) -> Self {
        self.certifier = Some(certifier);
        self
    }

    /// The pool this sweep's grids run on: the shared one when set,
    /// otherwise a fresh per-call pool.
    fn executor(&self) -> Arc<Pool> {
        self.pool.clone().unwrap_or_else(|| Arc::new(Pool::new()))
    }

    /// Every task of the grid, in grid (machine-major, corpus) order.
    fn all_tasks(&self) -> Vec<u64> {
        (0..(self.machines.len() * self.corpus.len()) as u64).collect()
    }

    /// Rejects configurations that can only produce a silently-empty
    /// report: no machines, no models, or no workload (neither points
    /// nor budgets).
    fn validate(&self) -> Result<(), PipelineError> {
        if self.machines.is_empty() {
            return Err(PipelineError::config(ConfigError::EmptyMachineGrid));
        }
        if self.models.is_empty() {
            return Err(PipelineError::config(ConfigError::EmptyModelSet));
        }
        if self.points.is_empty() && self.budgets.is_empty() {
            return Err(PipelineError::config(ConfigError::EmptyWorkload));
        }
        Ok(())
    }

    /// Runs the sweep on the work-stealing executor, every `(machine,
    /// loop)` pair as an independent task in its own [`Session`]. A
    /// failing pair cancels the tasks that have not started yet — the
    /// all-or-nothing contract doesn't pay for a grid it is about to
    /// discard.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an empty machine grid, model set or
    /// workload, otherwise a per-loop failure naming the loop (see
    /// [`PipelineError::loop_name`]) — the grid-order (machine-major,
    /// corpus-order) first among the pairs that ran. For a report that
    /// survives individual failures, use [`Sweep::run_partial`].
    pub fn run(&self) -> Result<SweepReport, PipelineError> {
        self.validate()?;
        let cells = self.run_cells(&self.all_tasks(), &HashSet::new(), &HashMap::new(), true);
        // Cancelled cells are left out, so the first failure among the
        // cells that ran is the first real error in grid order; without
        // one, nothing was cancelled and the grid is complete.
        if let Some(e) = cells.iter().find_map(|c| c.outcome.as_ref().err()) {
            return Err(e.clone());
        }
        Ok(assemble_grid(&self.signature(), &cells).report)
    }

    /// Runs the sweep fault-tolerantly: every `(machine, loop)` pair that
    /// succeeds contributes to the report, and every failure is returned
    /// by name instead of discarding the rest of the grid. A machine's
    /// aggregates (curves, outcomes) are computed over its surviving
    /// loops; a machine whose **every** loop failed contributes no
    /// aggregates at all (all-zero curves and vacuously-ideal outcomes
    /// would misreport a dead machine as perfect). Cells run on the same
    /// executor as [`Sweep::shard`] and assemble through the same code as
    /// [`crate::SweepShard::merge`], so a merge of a whole-grid shard
    /// equals this result, counters and error list included.
    ///
    /// Configuration errors (empty machine grid / model set / workload)
    /// surface in the error list with an empty report.
    pub fn run_partial(&self) -> PartialSweep {
        if let Err(e) = self.validate() {
            return PartialSweep {
                report: SweepReport::default(),
                errors: vec![e],
            };
        }
        let cells = self.run_cells(&self.all_tasks(), &HashSet::new(), &HashMap::new(), false);
        assemble_grid(&self.signature(), &cells)
    }

    /// Reference implementation: the same grid evaluated strictly
    /// sequentially on the calling thread (machine-major, corpus order),
    /// with one [`Session`] per machine shared by all its loops.
    /// [`Sweep::run`] is bit-identical to this for every worker count
    /// (the `tests/sweep_parallel.rs` stress test and the goldens assert
    /// it), which also checks that sharing a session across loops
    /// changes no result.
    ///
    /// # Errors
    ///
    /// Exactly as [`Sweep::run`].
    pub fn run_sequential(&self) -> Result<SweepReport, PipelineError> {
        self.validate()?;
        let signature = self.signature();
        let want_points = !self.points.is_empty();
        let mut report = SweepReport::default();
        for (mi, machine) in self.machines.iter().enumerate() {
            let session = new_session(machine, self.opts, self.certifier.as_ref(), None);
            let mut cells = Vec::with_capacity(self.corpus.len());
            for l in self.corpus.iter() {
                cells.push(eval_cell(
                    &session,
                    l,
                    &self.models,
                    &self.budgets,
                    want_points,
                )?);
            }
            assemble_cells(
                &mut report,
                &signature,
                mi,
                &cells.iter().collect::<Vec<_>>(),
            );
            report.scheduling.absorb(session.cache_stats());
        }
        Ok(report)
    }

    /// Runs shard `index` of `count` of the flattened `(machine, loop)`
    /// task grid and returns its raw, serializable results.
    ///
    /// The grid is split round-robin ([`shard_tasks`]): cell `t` (machine
    /// `t / loops`, loop `t % loops`, machine-major) belongs to shard
    /// `t % count`, so for every `i in 0..count` the shards partition the
    /// grid exactly — no overlap, no gaps — and machines and loops spread
    /// evenly across shards. Each shard is fault-tolerant like
    /// [`Sweep::run_partial`]: a failing pair becomes a per-cell error,
    /// not a dead shard.
    ///
    /// Shards carry **raw per-cell results** (all-integer payloads), not
    /// aggregated curves: [`crate::SweepShard::merge`] reassembles them
    /// through the exact assembly code of [`Sweep::run_sequential`], so
    /// the merged report is bit-identical to an unsharded run — including
    /// after a JSON round trip through [`crate::Render`] and
    /// [`crate::parse_sweep_shard`].
    ///
    /// # Errors
    ///
    /// The usual grid [`ConfigError`]s, plus
    /// [`ConfigError::InvalidShard`] when `count` is zero or `index` is
    /// not below `count`.
    pub fn shard(&self, index: u32, count: u32) -> Result<crate::SweepShard, PipelineError> {
        self.shard_with_faults(index, count, &[])
    }

    /// [`Sweep::shard`] with **fault injection**: the cells whose
    /// flattened task indices appear in `faults` are not evaluated at
    /// all — they are recorded as failed (a contained "injected fault"
    /// panic) with zeroed cache counters, exactly as if their worker had
    /// crashed before starting. Task indices outside this shard's slice
    /// (including outside the grid) are ignored, so one fault list can
    /// be passed to every runner of a matrix.
    ///
    /// This is the deliberate-failure half of the heal pipeline: CI (and
    /// `tests/failure_injection.rs`) injects per-cell failures here,
    /// heals them via [`Sweep::reissue`] + [`crate::SweepShard::merge`],
    /// and asserts the healed report is byte-identical to
    /// [`Sweep::run_sequential`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Sweep::shard`].
    pub fn shard_with_faults(
        &self,
        index: u32,
        count: u32,
        faults: &[u64],
    ) -> Result<crate::SweepShard, PipelineError> {
        self.validate()?;
        if count == 0 || index >= count {
            return Err(PipelineError::config(ConfigError::InvalidShard {
                index,
                count,
            }));
        }
        let total = self.machines.len() * self.corpus.len();
        let tasks: Vec<u64> = shard_tasks(total, index, count).map(|t| t as u64).collect();
        let faults: HashSet<u64> = faults.iter().copied().collect();
        let cells = self.run_cells(&tasks, &faults, &HashMap::new(), false);
        Ok(crate::SweepShard::assemble_parts(
            self.signature(),
            index,
            count,
            ShardRole::Shard,
            cells,
        ))
    }

    /// Re-runs exactly the given grid cells — the failed/missing set a
    /// prior merge reported (see [`crate::SweepShard::unresolved`]) —
    /// and returns them as a **heal artifact**
    /// ([`crate::ShardRole::Heal`]) that
    /// [`crate::SweepShard::merge`] accepts as a complement of the
    /// faulted shard set: its cells fill the gaps and supersede the
    /// failures, and the healed merge is byte-identical to a run that
    /// never failed.
    ///
    /// Cells run on the sweep's executor ([`Sweep::pool`] when set, so
    /// a scheduler healing many grids reuses one pool). When the `seeds`
    /// artifacts carry persisted trajectories for a reissued cell
    /// (see [`Sweep::persist_trajectories`]), they are imported into the
    /// cell's session first: budgets a recorded checkpoint serves cost
    /// nothing, and deeper budgets *resume* the recorded descent — this
    /// is what makes a reissue of a previously-evaluated grid at
    /// **smaller budgets** cheaper than re-spilling from scratch
    /// (visible as `traj_resumes > 0` and fewer `spill_steps` in the
    /// heal artifact's counters). Seeds must cover the same corpus,
    /// machines and options ([`crate::GridSignature::resumes`]); their
    /// points, budgets and model sets are free to differ, because spill
    /// descents are budget-independent.
    ///
    /// # Errors
    ///
    /// The usual grid [`ConfigError`]s, plus
    /// [`ConfigError::UnknownCell`] when `missing` names a cell outside
    /// this grid and [`ConfigError::IncompatibleShards`] when a seed
    /// artifact is not resume-compatible.
    pub fn reissue(
        &self,
        missing: &[u64],
        seeds: &[crate::SweepShard],
    ) -> Result<crate::SweepShard, PipelineError> {
        self.issue_cells(missing, &[], seeds)
    }

    /// [`Sweep::reissue`] generalized to arbitrary cell issues with
    /// **fault injection**: evaluates exactly the cells in `tasks` and
    /// returns them as a heal artifact, recording the cells whose
    /// indices also appear in `faults` as failed without evaluating
    /// them (as [`Sweep::shard_with_faults`] does for a primary shard;
    /// fault indices outside `tasks` are ignored). This is the farm
    /// daemon's worker entry point — a lease is an arbitrary task list,
    /// not an `i/n` round-robin slice, and the daemon injects faults
    /// only on a job's *initial* issue so its heal cadence has
    /// something real to recover.
    ///
    /// Trajectory seeding and all guarantees are exactly as
    /// [`Sweep::reissue`]; `reissue(missing, seeds)` is
    /// `issue_cells(missing, &[], seeds)`.
    ///
    /// # Errors
    ///
    /// Exactly as [`Sweep::reissue`].
    pub fn issue_cells(
        &self,
        tasks: &[u64],
        faults: &[u64],
        seeds: &[crate::SweepShard],
    ) -> Result<crate::SweepShard, PipelineError> {
        self.validate()?;
        let signature = self.signature();
        for s in seeds {
            if !signature.resumes(s.signature()) {
                return Err(PipelineError::config(ConfigError::IncompatibleShards));
            }
        }
        let total = signature.total_tasks() as u64;
        let mut tasks: Vec<u64> = tasks.to_vec();
        tasks.sort_unstable();
        tasks.dedup();
        if let Some(&task) = tasks.iter().find(|&&t| t >= total) {
            return Err(PipelineError::config(ConfigError::UnknownCell { task }));
        }
        let faults: HashSet<u64> = faults
            .iter()
            .copied()
            .filter(|t| tasks.contains(t))
            .collect();
        // First seed naming a task wins (callers pass artifacts in
        // provenance order); a cell's own trajectories beat nothing.
        let mut imports: HashMap<u64, &[CellTrajectory]> = HashMap::new();
        for s in seeds {
            for cell in &s.cells {
                if !cell.trajectories.is_empty() {
                    imports.entry(cell.task).or_insert(&cell.trajectories);
                }
            }
        }
        let cells = self.run_cells(&tasks, &faults, &imports, false);
        Ok(crate::SweepShard::assemble_parts(
            signature,
            0,
            0,
            ShardRole::Heal,
            cells,
        ))
    }

    /// The one pooled executor: evaluates the given grid cells, each in
    /// its own [`Session`] that dies with the cell, so a cell's base
    /// schedule, descent tree and trajectories are freed as soon as it
    /// ends. Cache reuse is entirely per-cell (caches key on the cell's
    /// own loop), so per-cell sessions give the results of one shared
    /// session *and* give each [`ShardCell`] its own honest counters —
    /// which is what lets a merge drop a superseded cell's work without
    /// arithmetic. Faulted cells are not evaluated (zeroed counters,
    /// injected-fault error); imported trajectories seed the cell's
    /// session before evaluation.
    ///
    /// With `fail_fast`, the first failing or panicking cell cancels
    /// every cell that has not started yet, and cancelled cells are left
    /// out of the result.
    fn run_cells(
        &self,
        tasks: &[u64],
        faults: &HashSet<u64>,
        imports: &HashMap<u64, &[CellTrajectory]>,
        fail_fast: bool,
    ) -> Vec<ShardCell> {
        let loops = self.corpus.loops();
        let n = loops.len();
        if tasks.is_empty() {
            return Vec::new();
        }
        let want_points = !self.points.is_empty();
        let cancelled = AtomicBool::new(false);
        // A cell that never ran to the end reports the failure and no
        // work, like a crashed runner.
        let crashed = |task: u64, message: &str| {
            let loop_name = loops[task as usize % n].name().to_owned();
            ShardCell {
                task,
                outcome: Err(PipelineError::panic(&loop_name, message)),
                loop_name,
                scheduling: CacheStats::default(),
                trajectories: Vec::new(),
            }
        };
        let raw = self.executor().run(tasks.len(), |k| {
            if cancelled.load(Ordering::Relaxed) {
                return None;
            }
            let t = tasks[k];
            if faults.contains(&t) {
                return Some(crashed(t, "injected fault"));
            }
            let (mi, li) = (t as usize / n, t as usize % n);
            let l = &loops[li];
            let seeds = imports.get(&t).map(|&trajectories| (l, trajectories));
            let session = new_session(
                &self.machines[mi],
                self.opts,
                self.certifier.as_ref(),
                seeds,
            );
            // Catch a panic here as well as in the pool, so it cancels
            // like an error; the payload is re-raised for the pool to
            // record as the cell's `TaskPanic`.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eval_cell(&session, l, &self.models, &self.budgets, want_points)
            }));
            if fail_fast && !matches!(outcome, Ok(Ok(_))) {
                cancelled.store(true, Ordering::Relaxed);
            }
            let outcome = outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            let trajectories = if self.persist {
                session
                    .export_trajectories()
                    .into_iter()
                    .map(|t| CellTrajectory {
                        model: t.model,
                        snapshot: t.snapshot,
                    })
                    .collect()
            } else {
                Vec::new()
            };
            Some(ShardCell {
                task: t,
                loop_name: l.name().to_owned(),
                scheduling: session.cache_stats(),
                outcome,
                trajectories,
            })
        });
        raw.into_iter()
            .zip(tasks)
            .filter_map(|(r, &t)| r.unwrap_or_else(|p| Some(crashed(t, &p.message))))
            .collect()
    }

    /// The grid signature shards carry so a merge can prove they came
    /// from the same sweep. Public so a scheduler (the farm daemon) can
    /// identify, cache and lease a grid without evaluating any of it.
    pub fn signature(&self) -> crate::GridSignature {
        crate::GridSignature {
            corpus: self.corpus.name().to_owned(),
            loops: self.corpus.iter().map(|l| l.name().to_owned()).collect(),
            machines: self
                .machines
                .iter()
                .map(|m| crate::MachineSig {
                    name: m.name().to_owned(),
                    latency: fp_latency(m),
                    ports: m.memory_ports() as u32,
                })
                .collect(),
            models: self.models.clone(),
            points: self.points.clone(),
            budgets: self.budgets.clone(),
            options: format!("{:?}", self.opts),
        }
    }
}

/// Assembles a grid from every one of its cells, given in grid
/// (machine-major, corpus) order: per machine, the surviving cells
/// aggregate and the failures list, and the cache counters sum over
/// every cell. The one assembly of [`Sweep::run`], [`Sweep::run_partial`]
/// and [`crate::SweepShard::merge`], so they cannot drift apart.
pub(crate) fn assemble_grid<'a>(
    signature: &GridSignature,
    cells: impl IntoIterator<Item = &'a ShardCell>,
) -> PartialSweep {
    let mut cells = cells.into_iter();
    let mut out = PartialSweep::default();
    for mi in 0..signature.machines.len() {
        let mut ok = Vec::with_capacity(signature.loops.len());
        for cell in cells.by_ref().take(signature.loops.len()) {
            out.report.scheduling.absorb(cell.scheduling);
            match &cell.outcome {
                Ok(c) => ok.push(c),
                Err(e) => out.errors.push(e.clone()),
            }
        }
        assemble_cells(&mut out.report, signature, mi, &ok);
    }
    out
}

/// Folds machine `mi`'s surviving cells (in corpus order) into a report.
/// Shared verbatim by [`assemble_grid`] and [`Sweep::run_sequential`], so
/// a merged or pooled report is bit-identical to the sequential one
/// because every floating-point operation happens here, over the same
/// values in the same order.
///
/// A machine left with zero surviving cells by a non-empty corpus (i.e.
/// every pair failed) gets no curves or outcomes. An empty corpus still
/// assembles its (empty) aggregates, matching the sequential reference.
fn assemble_cells(
    report: &mut SweepReport,
    signature: &GridSignature,
    mi: usize,
    cells: &[&LoopCell],
) {
    let machine = &signature.machines[mi];
    let (config, latency) = (machine.name.as_str(), machine.latency);
    let (models, points, budgets) = (&signature.models, &signature.points, &signature.budgets);
    let machine_is_dead = cells.is_empty() && !signature.loops.is_empty();
    if machine_is_dead {
        return;
    }
    if !points.is_empty() {
        for (mi, &model) in models.iter().enumerate() {
            let rows: Vec<&LoopAnalysis> = cells.iter().map(|c| &c.analyses[mi]).collect();
            report
                .distributions
                .push(curve_from_rows(config, model, latency, points, &rows));
        }
    }
    let ports = machine.ports as u128;
    for (bi, &budget) in budgets.iter().enumerate() {
        let ideal_cycles: u128 = cells.iter().map(|c| c.evals[bi].ideal.cycles()).sum();
        for (mi, &model) in models.iter().enumerate() {
            let rows = || cells.iter().map(|c| &c.evals[bi].rows[mi]);
            let cycles: u128 = rows().map(|r| r.cycles()).sum();
            let accesses: u128 = rows().map(|r| r.accesses()).sum();
            let loops_spilled = rows().filter(|r| r.spilled > 0).count();
            report.outcomes.push(BudgetOutcome {
                config: config.to_owned(),
                model,
                latency,
                registers: budget,
                cycles,
                accesses,
                relative_performance: relative_performance(ideal_cycles, cycles),
                traffic_density: if cycles == 0 {
                    0.0
                } else {
                    accesses as f64 / (cycles * ports) as f64
                },
                loops_spilled,
            });
        }
    }
}

/// Certifies a shard artifact offline: rebuilds the grid its signature
/// names and runs [`certify_shard_on`] on it.
///
/// # Errors
///
/// [`ArtifactError::Grid`] when the signature names a corpus or machine
/// this build cannot reconstruct.
pub fn certify_shard(
    shard: &crate::SweepShard,
    certifier: Arc<dyn CellCertifier>,
) -> Result<Vec<CellFault>, ArtifactError> {
    let (corpus, machines) = crate::rebuild_grid(shard.signature())?;
    Ok(certify_shard_on(shard, &corpus, &machines, certifier))
}

/// Certifies a shard artifact on its grid: `corpus` and `machines` as
/// [`crate::rebuild_grid`] builds them from the shard's signature, so a
/// caller that keeps the grid (the farm keeps one per job) certifies
/// every delivery without rebuilding it.
///
/// Re-evaluates every **healthy** cell under a certify-mode
/// [`Session`] (the certifier re-verifies every schedule, requirement
/// and spill rewrite from first principles), and compares the fresh
/// result against the artifact's claimed payload. Failed cells carry no
/// claims and are skipped — [`crate::SweepShard::unresolved`] already
/// reports them.
///
/// When the artifact persisted spill trajectories for a cell, they are
/// imported first, so the recorded checkpoints are what gets replayed
/// and certified — exactly the bytes a heal or reissue would trust.
///
/// Returns one [`CellFault`] per cell whose re-evaluation was rejected
/// by the certifier, failed outright, or produced a different payload
/// than the artifact claims. An empty vector means every healthy cell
/// certified clean. A cell whose task or loop does not fit the grid is
/// a fault too.
pub fn certify_shard_on(
    shard: &crate::SweepShard,
    corpus: &Corpus,
    machines: &[Machine],
    certifier: Arc<dyn CellCertifier>,
) -> Vec<CellFault> {
    let sig = shard.signature();
    let loops = corpus.loops();
    let n = loops.len();
    let want_points = !sig.points.is_empty();
    let mut faults = Vec::new();
    let mut fault = |cell: &ShardCell, machine: &str, detail: String| {
        faults.push(CellFault {
            task: cell.task,
            loop_name: cell.loop_name.clone(),
            machine: machine.to_owned(),
            detail,
        });
    };
    for cell in &shard.cells {
        let Ok(claimed) = &cell.outcome else {
            continue;
        };
        let t = cell.task as usize;
        let (mi, li) = (t / n.max(1), t % n.max(1));
        if n == 0 || mi >= machines.len() {
            fault(
                cell,
                "?",
                "task index outside the signature's grid".to_owned(),
            );
            continue;
        }
        let l = &loops[li];
        let machine = &machines[mi];
        if cell.loop_name != l.name() {
            fault(
                cell,
                machine.name(),
                format!(
                    "artifact names loop `{}` but task {} is loop `{}`",
                    cell.loop_name,
                    cell.task,
                    l.name()
                ),
            );
            continue;
        }
        let session = new_session(
            machine,
            PipelineOptions::default(),
            Some(&certifier),
            Some((l, &cell.trajectories)),
        );
        match eval_cell(&session, l, &sig.models, &sig.budgets, want_points) {
            Err(e) => fault(cell, machine.name(), e.to_string()),
            Ok(fresh) if &fresh != claimed => fault(
                cell,
                machine.name(),
                "certified re-evaluation disagrees with the artifact's payload".to_owned(),
            ),
            Ok(_) => {}
        }
    }
    faults
}

/// The task indices of shard `index` of `count` over a `total`-cell
/// grid: every `t in 0..total` with `t % count == index`, ascending.
///
/// For any `count >= 1` the shards `0..count` partition `0..total`
/// exactly (each task in exactly one shard) — property-tested in
/// `tests/proptest_shard.rs`.
///
/// # Panics
///
/// Panics if `count` is zero (there is no empty partition of a non-empty
/// grid).
pub fn shard_tasks(total: usize, index: u32, count: u32) -> impl Iterator<Item = usize> {
    assert!(count > 0, "shard count must be positive");
    (index as usize..total).step_by(count as usize)
}

/// One session over `machine` with `opts` and, when set, the certifier,
/// seeded with a loop's persisted trajectories when `seeds` names them:
/// the single construction point of every session a sweep or a
/// certification builds, so certify mode cannot silently miss a path.
fn new_session(
    machine: &Machine,
    opts: PipelineOptions,
    certifier: Option<&Arc<dyn CellCertifier>>,
    seeds: Option<(&Loop, &[CellTrajectory])>,
) -> Session {
    let mut session = Session::new(machine.clone()).options(opts);
    if let Some(c) = certifier {
        session = session.certify(Arc::clone(c));
    }
    if let Some((l, trajectories)) = seeds {
        session.import_trajectories(trajectories.iter().map(|ct| TrajectoryExport {
            loop_name: l.name().to_owned(),
            model: ct.model,
            snapshot: ct.snapshot.clone(),
        }));
    }
    session
}

/// One `(machine, loop)` cell of the flattened grid: everything the sweep
/// needs from that pair, for every requested model and budget. This is
/// the unit a [`crate::SweepShard`] serializes — all-integer payloads, so
/// a JSON round trip is exact and merged reports reassemble
/// bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoopCell {
    /// One analysis per model (empty when no sample points were set).
    pub(crate) analyses: Vec<LoopAnalysis>,
    /// One entry per budget.
    pub(crate) evals: Vec<BudgetCell>,
}

/// One budget's evaluations of a single loop.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BudgetCell {
    /// The [`ModelId::IDEAL`] anchor evaluation (always computed, so
    /// relative performance stays anchored even when the model set omits
    /// the ideal model).
    pub(crate) ideal: LoopEval,
    /// One evaluation per model, in model-set order.
    pub(crate) rows: Vec<LoopEval>,
}

/// The order a cell evaluates its budgets in: **descending by value**
/// (ties in request order). Since a trajectory extended for a small
/// budget answers every larger budget from its checkpoints, descending
/// order makes each `(loop, model)`'s spill descent strictly
/// incremental: every budget after a pair's first either *hits* the
/// cached trajectory or *resumes* it, and no spill step is ever
/// recomputed. Report order is untouched — results are emitted in
/// request order — and so is sharding (a cell's budgets always execute
/// together on one worker, because the task grid is `(machine, loop)`).
fn descending_budget_order(budgets: &[u32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..budgets.len()).collect();
    order.sort_by(|&a, &b| budgets[b].cmp(&budgets[a]).then(a.cmp(&b)));
    order
}

/// Evaluates one `(machine, loop)` pair: all model analyses (when the
/// sweep samples distribution points) and all `(budget, model)`
/// evaluations, sharing the session's schedule and spill-trajectory
/// caches and the loop's descent tree. Budgets are *evaluated* in
/// descending order (see [`descending_budget_order`]) and *reported* in
/// request order.
fn eval_cell(
    session: &Session,
    l: &Loop,
    models: &[ModelId],
    budgets: &[u32],
    want_points: bool,
) -> Result<LoopCell, PipelineError> {
    let analyses = if want_points {
        models
            .iter()
            .map(|&m| session.analyze(l, m))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    let mut evals: Vec<Option<BudgetCell>> = budgets.iter().map(|_| None).collect();
    for bi in descending_budget_order(budgets) {
        let budget = budgets[bi];
        let ideal = session.evaluate(l, ModelId::IDEAL, budget)?;
        let rows = models
            .iter()
            .map(|&m| {
                if m == ModelId::IDEAL {
                    Ok(ideal.clone())
                } else {
                    session.evaluate(l, m, budget)
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        evals[bi] = Some(BudgetCell { ideal, rows });
    }
    let evals = evals
        .into_iter()
        .map(|cell| cell.expect("every budget index evaluated"))
        .collect();
    Ok(LoopCell { analyses, evals })
}

/// Result of [`Sweep::run_partial`]: the report over every surviving
/// `(machine, loop)` pair, plus one error per failed pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialSweep {
    /// Aggregates over the pairs that succeeded.
    pub report: SweepReport,
    /// One error per failed pair (or a single configuration error), in
    /// grid (machine-major, corpus) order.
    pub errors: Vec<PipelineError>,
}

impl PartialSweep {
    /// Whether every `(machine, loop)` pair succeeded.
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
    }

    /// Converts to the all-or-nothing contract of [`Sweep::run`]: the
    /// report if complete, otherwise the first error.
    ///
    /// # Errors
    ///
    /// The first recorded failure.
    pub fn into_result(self) -> Result<SweepReport, PipelineError> {
        match self.errors.into_iter().next() {
            None => Ok(self.report),
            Some(e) => Err(e),
        }
    }

    /// Order-stable merge of partial sweeps over **disjoint grids** (for
    /// example one sweep per machine family, split across CI jobs):
    /// reports merge as [`SweepReport::merge`] and the error lists
    /// concatenate in argument order.
    ///
    /// Every input's errors and cache counters are carried over exactly
    /// once — a machine whose failures appear in several inputs keeps one
    /// error per failed *pair*, and its `CacheStats` are summed, not
    /// overwritten or repeated.
    ///
    /// This does **not** re-aggregate rows: inputs whose grids overlap
    /// (the same machine's curves in two inputs) are simply concatenated.
    /// To reassemble one sweep from loop-level shards — which requires
    /// re-aggregation — use [`Sweep::shard`] and
    /// [`crate::SweepShard::merge`]; merging shards of one machine
    /// through this method would double-count that machine, which is why
    /// shards carry raw cells instead of reports.
    pub fn merge<I: IntoIterator<Item = PartialSweep>>(parts: I) -> PartialSweep {
        let mut out = PartialSweep::default();
        for p in parts {
            out.report = SweepReport::merge([std::mem::take(&mut out.report), p.report]);
            out.errors.extend(p.errors);
        }
        out
    }
}

/// Typed result of [`Sweep::run`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepReport {
    /// One curve per `(machine, model)` when sample points were set, in
    /// machine-major order.
    pub distributions: Vec<DistributionCurve>,
    /// One outcome per `(machine, budget, model)` when budgets were set,
    /// in machine-major, budget-middle order.
    pub outcomes: Vec<BudgetOutcome>,
    /// Aggregated schedule-cache counters over all sessions: `misses` is
    /// the number of scheduling runs, `hits` the number the cache saved.
    pub scheduling: CacheStats,
}

impl SweepReport {
    /// Order-stable merge of reports over **disjoint grids**: the curve
    /// and outcome series concatenate in argument order (so two sweeps
    /// over different machine sets merge into one machine-major report)
    /// and the schedule-cache counters sum.
    ///
    /// Merging is associative — `merge([merge([a, b]), c])`,
    /// `merge([a, merge([b, c])])` and `merge([a, b, c])` are
    /// bit-identical (concatenation and `u64` addition both are) — which
    /// is property-tested in `tests/proptest_shard.rs`. Like
    /// [`PartialSweep::merge`], this concatenates rather than
    /// re-aggregates; loop-level shards of a *single* grid merge through
    /// [`crate::SweepShard::merge`] instead.
    pub fn merge<I: IntoIterator<Item = SweepReport>>(reports: I) -> SweepReport {
        let mut out = SweepReport::default();
        for r in reports {
            out.distributions.extend(r.distributions);
            out.outcomes.extend(r.outcomes);
            out.scheduling.absorb(r.scheduling);
        }
        out
    }

    /// Derives Table 1 rows (allocatable percentages at the
    /// [`TABLE1_POINTS`] register counts) from every distribution curve
    /// that sampled all three Table 1 points.
    ///
    /// Both the curve filter and the sampled columns derive from
    /// [`TABLE1_POINTS`], so the two can never disagree about which
    /// register counts Table 1 reports.
    pub fn table1(&self) -> Vec<Table1Row> {
        self.distributions
            .iter()
            .filter(|c| {
                TABLE1_POINTS
                    .iter()
                    .all(|p| c.static_dist.points.contains(p))
            })
            .map(|c| Table1Row {
                config: c.config.clone(),
                loops_within: TABLE1_POINTS.map(|p| c.static_dist.at(p)),
                cycles_within: TABLE1_POINTS.map(|p| c.dynamic_dist.at(p)),
            })
            .collect()
    }

    /// The distribution curves of one machine configuration.
    pub fn curves_for(&self, config: &str) -> Vec<&DistributionCurve> {
        self.distributions
            .iter()
            .filter(|c| c.config == config)
            .collect()
    }

    /// The budget outcomes of one machine configuration and budget.
    pub fn outcomes_for(&self, config: &str, budget: u32) -> Vec<&BudgetOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.config == config && o.registers == budget)
            .collect()
    }
}

/// The floating-point-unit latency of a machine (its slowest group; the
/// memory ports have latency 1 in every preset).
pub(crate) fn fp_latency(machine: &Machine) -> u32 {
    machine
        .groups()
        .iter()
        .map(|g| g.latency)
        .max()
        .unwrap_or(0)
}

/// Builds one distribution curve from per-loop analyses (corpus order).
fn curve_from_rows(
    config: &str,
    model: ModelId,
    latency: u32,
    points: &[u32],
    rows: &[&LoopAnalysis],
) -> DistributionCurve {
    let static_obs: Vec<Observation> = rows
        .iter()
        .map(|r| Observation {
            regs: r.regs,
            weight: 1.0,
        })
        .collect();
    let dyn_obs: Vec<Observation> = rows
        .iter()
        .map(|r| Observation {
            regs: r.regs,
            weight: r.cycles() as f64,
        })
        .collect();
    DistributionCurve {
        config: config.to_owned(),
        model,
        latency,
        static_dist: Cumulative::new(points, &static_obs),
        dynamic_dist: Cumulative::new(points, &dyn_obs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PAPER_FINITE_MODELS;

    fn tiny() -> Corpus {
        Corpus::small().take(10)
    }

    /// Pins the certify wiring itself: a certify-mode sweep must invoke
    /// the certifier for every produced cell (a silently-dropped hook
    /// would make certify mode a no-op), and a rejecting certifier must
    /// refuse the run. The real validator's behaviour is covered by
    /// `ncdrf-certify` and `tests/certify_mutations.rs`; this guards the
    /// plumbing with stub certifiers.
    #[test]
    fn certify_mode_invokes_the_certifier_on_every_path() {
        use crate::certify::CertifyViolation;
        use ncdrf_ddg::Loop;
        use ncdrf_sched::Schedule;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Debug, Default)]
        struct Stub {
            calls: AtomicUsize,
            reject: bool,
        }
        impl CellCertifier for Stub {
            fn certify_analysis(
                &self,
                _: &Loop,
                _: &Machine,
                _: &Schedule,
                _: &crate::LoopAnalysis,
            ) -> Result<(), CertifyViolation> {
                self.calls.fetch_add(1, Ordering::SeqCst);
                if self.reject {
                    return Err(CertifyViolation::new("stub", "rejects everything"));
                }
                Ok(())
            }
            #[allow(clippy::too_many_arguments)]
            fn certify_eval(
                &self,
                _: &Loop,
                _: &Machine,
                _: &Loop,
                _: &Schedule,
                _: &[String],
                _: usize,
                _: usize,
                _: &crate::LoopEval,
            ) -> Result<(), CertifyViolation> {
                self.calls.fetch_add(1, Ordering::SeqCst);
                if self.reject {
                    return Err(CertifyViolation::new("stub", "rejects everything"));
                }
                Ok(())
            }
            fn certify_checkpoint(
                &self,
                _: usize,
                _: &Loop,
                _: &Machine,
                _: &Schedule,
                _: crate::ModelId,
                _: u32,
            ) -> Result<(), CertifyViolation> {
                self.calls.fetch_add(1, Ordering::SeqCst);
                if self.reject {
                    return Err(CertifyViolation::new("stub", "rejects everything"));
                }
                Ok(())
            }
        }

        let corpus = tiny();
        let recipe = |certifier: Arc<dyn CellCertifier>| {
            Sweep::new(&corpus)
                .clustered_latencies([3])
                .models(PAPER_FINITE_MODELS)
                .points([16, 32])
                .budgets([16])
                .certify(certifier)
        };

        let counting = Arc::new(Stub::default());
        let sweep = recipe(Arc::clone(&counting) as Arc<dyn CellCertifier>);
        sweep.run().expect("an accepting certifier changes nothing");
        let parallel_calls = counting.calls.swap(0, Ordering::SeqCst);
        assert!(parallel_calls > 0, "run() never invoked the certifier");
        sweep
            .run_sequential()
            .expect("an accepting certifier changes nothing");
        assert_eq!(
            counting.calls.load(Ordering::SeqCst),
            parallel_calls,
            "run_sequential certifies the same cells as run"
        );

        let rejecting = recipe(Arc::new(Stub {
            calls: AtomicUsize::new(0),
            reject: true,
        }));
        let err = rejecting
            .run_sequential()
            .expect_err("a rejecting certifier refuses the sweep");
        assert!(
            err.to_string().contains("certification failed"),
            "unexpected refusal: {err}"
        );
    }

    #[test]
    fn grid_sweep_produces_machine_major_results() {
        let corpus = tiny();
        let report = Sweep::new(&corpus)
            .clustered_latencies([3, 6])
            .models(PAPER_FINITE_MODELS)
            .points([16, 32])
            .run()
            .unwrap();
        assert_eq!(report.distributions.len(), 6);
        assert_eq!(report.distributions[0].config, "C2L3");
        assert_eq!(report.distributions[3].config, "C2L6");
        assert_eq!(report.distributions[0].latency, 3);
        assert_eq!(report.distributions[3].latency, 6);
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn sweep_schedules_once_per_loop_machine_pair() {
        let corpus = tiny();
        let report = Sweep::new(&corpus)
            .machine(Machine::clustered(3, 1))
            .models(PAPER_MODELS)
            .points([16, 32, 64])
            .budgets([32, 64])
            .run()
            .unwrap();
        // 4 models analysed + ideal anchor + (4 models × 2 budgets)
        // evaluated, all on ONE scheduling run per loop.
        assert_eq!(report.scheduling.misses, corpus.len() as u64);
        assert!(report.scheduling.hits > 0);
        assert_eq!(report.outcomes.len(), 8);
    }

    #[test]
    fn table1_rows_derive_from_curves() {
        let corpus = tiny();
        let report = Sweep::new(&corpus)
            .pxly_configs([(1, 3), (2, 6)])
            .models([ModelId::UNIFIED])
            .points(TABLE1_POINTS)
            .run()
            .unwrap();
        let rows = report.table1();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].config, "P1L3");
        assert_eq!(rows[1].config, "P2L6");
        for r in &rows {
            assert!(r.loops_within[0] <= r.loops_within[1]);
            assert!(r.loops_within[1] <= r.loops_within[2]);
        }
    }

    #[test]
    fn budget_outcomes_keep_model_order_and_anchor_ideal() {
        let corpus = tiny();
        let report = Sweep::new(&corpus)
            .machine(Machine::clustered(6, 1))
            .models([ModelId::SWAPPED, ModelId::IDEAL])
            .budget(16)
            .run()
            .unwrap();
        assert_eq!(report.outcomes[0].model, ModelId::SWAPPED);
        assert_eq!(report.outcomes[1].model, ModelId::IDEAL);
        assert_eq!(report.outcomes[1].relative_performance, 1.0);
        assert!(report.outcomes[0].relative_performance <= 1.0 + 1e-12);
    }

    #[test]
    fn relative_performance_anchored_without_ideal_in_model_set() {
        let corpus = tiny();
        let report = Sweep::new(&corpus)
            .machine(Machine::clustered(6, 1))
            .models([ModelId::UNIFIED])
            .budget(12)
            .run()
            .unwrap();
        let o = &report.outcomes[0];
        assert!(o.relative_performance > 0.0 && o.relative_performance <= 1.0 + 1e-12);
    }

    #[test]
    fn empty_machine_grid_is_a_named_config_error() {
        let corpus = tiny();
        let err = Sweep::new(&corpus).budget(32).run().unwrap_err();
        assert!(err.is_config());
        assert_eq!(
            err.stage,
            crate::pipeline::PipelineStage::Config(crate::ConfigError::EmptyMachineGrid)
        );
        assert!(err.to_string().contains("no machines"), "{err}");
        // The fault-tolerant entry point reports the same error instead
        // of an empty report.
        let partial = Sweep::new(&corpus).budget(32).run_partial();
        assert_eq!(partial.errors, vec![err]);
        assert_eq!(partial.report, SweepReport::default());
    }

    #[test]
    fn empty_model_set_is_a_named_config_error() {
        let corpus = tiny();
        let err = Sweep::new(&corpus)
            .machine(Machine::clustered(3, 1))
            .models([] as [ModelId; 0])
            .points([16])
            .run()
            .unwrap_err();
        assert!(err.is_config());
        assert!(err.to_string().contains("no models"), "{err}");
    }

    #[test]
    fn empty_workload_is_a_named_config_error() {
        let corpus = tiny();
        let err = Sweep::new(&corpus)
            .machine(Machine::clustered(3, 1))
            .run()
            .unwrap_err();
        assert!(err.is_config());
        assert!(err.to_string().contains("no workload"), "{err}");
    }

    #[test]
    fn dead_machine_contributes_no_aggregates_in_partial_runs() {
        use ncdrf_corpus::kernels;
        use ncdrf_machine::{FuClass, FuGroup};
        // Every corpus loop needs a multiplier, so this machine fails all
        // of them; it must not appear as a vacuously-ideal row.
        let no_mul = Machine::new(
            "NOMUL",
            vec![
                FuGroup::unified(FuClass::Adder, 3, 2),
                FuGroup::unified(FuClass::MemPort, 1, 2),
            ],
            1,
        )
        .unwrap();
        let corpus = Corpus::from_loops("mul-only", vec![kernels::blas::vscale()]);
        let partial = Sweep::new(&corpus)
            .machines([no_mul, Machine::clustered(3, 1)])
            .models([ModelId::UNIFIED])
            .points([16])
            .budget(16)
            .run_partial();
        assert_eq!(partial.errors.len(), 1);
        assert_eq!(partial.errors[0].loop_name, "vscale");
        // Only the live machine's aggregates exist.
        assert_eq!(partial.report.distributions.len(), 1);
        assert_eq!(partial.report.distributions[0].config, "C2L3");
        assert_eq!(partial.report.outcomes.len(), 1);
        assert_eq!(partial.report.outcomes[0].config, "C2L3");
    }

    #[test]
    fn failing_run_cancels_remaining_grid_work() {
        use ncdrf_corpus::kernels;
        use ncdrf_machine::{FuClass, FuGroup};
        let no_mul = Machine::new(
            "NOMUL",
            vec![
                FuGroup::unified(FuClass::Adder, 3, 2),
                FuGroup::unified(FuClass::MemPort, 1, 2),
            ],
            1,
        )
        .unwrap();
        // `vscale` fails first; with one worker and fail-fast, the
        // remaining cells must be cancelled, not evaluated.
        let corpus = Corpus::from_loops(
            "fails-first",
            vec![
                kernels::blas::vscale(),
                kernels::blas::vadd(),
                kernels::blas::vsum(),
            ],
        );
        let sweep = Sweep::new(&corpus)
            .machine(no_mul)
            .models([ModelId::UNIFIED])
            .budget(16)
            .pool(Arc::new(Pool::with_workers(1)));
        let ran = sweep.run_cells(&sweep.all_tasks(), &HashSet::new(), &HashMap::new(), true);
        assert_eq!(ran.len(), 1, "the cells after the failure are skipped");
        assert_eq!(ran[0].task, 0);
        assert_eq!(ran[0].outcome.as_ref().unwrap_err().loop_name, "vscale");
        // And the public contract still surfaces the real error.
        assert_eq!(sweep.run().unwrap_err().loop_name, "vscale");
        // Without fail-fast the same grid evaluates everything.
        let partial = sweep.run_partial();
        assert_eq!(partial.errors.len(), 1);
        assert_eq!(partial.report.outcomes.len(), 1, "survivors aggregated");
    }

    #[test]
    fn table1_columns_derive_from_the_points_constant() {
        let corpus = tiny();
        let report = Sweep::new(&corpus)
            .pxly_configs([(1, 3)])
            .models([ModelId::UNIFIED])
            .points(TABLE1_POINTS)
            .run()
            .unwrap();
        let rows = report.table1();
        assert_eq!(rows.len(), 1);
        let curve = &report.distributions[0];
        // Every reported column is the curve sampled at the matching
        // TABLE1_POINTS entry — the linkage the old hardcoded
        // at(16)/at(32)/at(64) could silently break.
        for (i, &p) in TABLE1_POINTS.iter().enumerate() {
            assert_eq!(rows[0].loops_within[i], curve.static_dist.at(p));
            assert_eq!(rows[0].cycles_within[i], curve.dynamic_dist.at(p));
        }
    }

    #[test]
    fn parallel_run_matches_sequential_reference() {
        let corpus = tiny();
        let sweep = Sweep::new(&corpus)
            .clustered_latencies([3, 6])
            .models(PAPER_MODELS)
            .points([16, 32])
            .budgets([16, 48])
            .pool(Arc::new(Pool::with_workers(4)));
        let par = sweep.run().unwrap();
        let seq = sweep.run_sequential().unwrap();
        assert_eq!(par, seq, "executor must be bit-identical to sequential");
        assert_eq!(par.scheduling.misses, 2 * corpus.len() as u64);
    }

    #[test]
    fn run_partial_keeps_surviving_pairs_and_names_failures() {
        use ncdrf_corpus::kernels;
        use ncdrf_machine::{FuClass, FuGroup};
        // No multiplier: `vscale` (y = a*x) cannot schedule, the
        // mul-free loops can.
        let no_mul = Machine::new(
            "NOMUL",
            vec![
                FuGroup::unified(FuClass::Adder, 3, 2),
                FuGroup::unified(FuClass::MemPort, 1, 2),
            ],
            1,
        )
        .unwrap();
        let corpus = Corpus::from_loops(
            "mixed",
            vec![
                kernels::blas::vadd(),
                kernels::blas::vscale(),
                kernels::blas::vsum(),
            ],
        );
        let sweep = Sweep::new(&corpus)
            .machines([no_mul, Machine::clustered(3, 1)])
            .models([ModelId::UNIFIED])
            .points([16, 64])
            .budget(16);

        // The all-or-nothing contract aborts on the bad pair...
        let err = sweep.run().unwrap_err();
        assert_eq!(err.loop_name, "vscale");

        // ...the fault-tolerant contract returns everything else.
        let partial = sweep.run_partial();
        assert_eq!(partial.errors.len(), 1, "exactly one failing pair");
        assert_eq!(partial.errors[0].loop_name, "vscale");
        assert!(!partial.is_complete());
        // Both machines still contribute every curve and outcome.
        assert_eq!(partial.report.distributions.len(), 2);
        assert_eq!(partial.report.outcomes.len(), 2);
        // The clustered machine lost nothing; NOMUL aggregates cover its
        // two surviving loops.
        let clustered = partial.report.curves_for("C2L3");
        assert_eq!(clustered.len(), 1);
        let seq = Sweep::new(&corpus)
            .machine(Machine::clustered(3, 1))
            .models([ModelId::UNIFIED])
            .points([16, 64])
            .budget(16)
            .run_sequential()
            .unwrap();
        assert_eq!(clustered[0], &seq.distributions[0]);
        assert_eq!(partial.report.outcomes_for("C2L3", 16)[0], &seq.outcomes[0]);
    }

    #[test]
    fn errors_from_sweeps_name_the_loop() {
        use ncdrf_machine::{FuClass, FuGroup};
        // A machine with no adder cannot serve most corpus loops; the
        // sweep must surface the first failing loop by name.
        let no_adder = Machine::new(
            "NOADD",
            vec![
                FuGroup::unified(FuClass::Multiplier, 3, 2),
                FuGroup::unified(FuClass::MemPort, 1, 2),
            ],
            1,
        )
        .unwrap();
        let corpus = tiny();
        let err = Sweep::new(&corpus)
            .machine(no_adder)
            .models([ModelId::UNIFIED])
            .points([16])
            .run()
            .unwrap_err();
        assert!(
            corpus.iter().any(|l| l.name() == err.loop_name),
            "error names a corpus loop: {err}"
        );
        assert!(err.to_string().contains(&err.loop_name));
    }
}
