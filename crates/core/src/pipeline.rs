//! The per-loop evaluation pipeline:
//! schedule → (swap) → classify → allocate → (spill until fits).
//!
//! The free functions [`analyze`] and [`evaluate`] run the pipeline from
//! scratch for one `(loop, model)` pair. Experiment drivers that compare
//! several models or budgets on the same loops should use
//! [`crate::Session`], which schedules each loop once and derives every
//! model's result from the cached base schedule.

use crate::model::{ModelId, ModelSpec, RequirementCtx};
use ncdrf_ddg::Loop;
use ncdrf_machine::{Machine, MachineError};
use ncdrf_regalloc::{
    allocate_dual_in, allocate_unified_in, classify, classify_from, lifetimes, max_live,
    DualPressure, FitPolicy, Lifetime,
};
use ncdrf_sched::{modulo_schedule_with, Schedule, ScheduleError};
use ncdrf_spill::{
    spill_until_fits, ClassInput, ClassKey, ClassRequirement, Requirement, ScheduleFacts,
    SpillError, SpillOptions, SpillResult,
};
use ncdrf_swap::{swap_pass_on, SwapOptions};
use std::fmt;
use std::sync::Arc;

/// Options threaded through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineOptions {
    /// Swapping-pass knobs (used by models whose spec
    /// [`swaps`](crate::ModelSpec::swaps), e.g. [`ModelId::SWAPPED`]).
    pub swap: SwapOptions,
    /// Spiller knobs (used by budgeted evaluation). `spill.scheduler`
    /// also drives base scheduling, so analysis and evaluation see the
    /// same schedules.
    pub spill: SpillOptions,
}

/// A pipeline failure, carrying **which loop** failed alongside the
/// failing stage — so a corpus sweep that dies names its culprit instead
/// of reporting a bare scheduler error.
///
/// Configuration failures (an empty sweep grid, say) happen before any
/// loop is touched; they leave `loop_name` empty and render without the
/// `loop` prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineError {
    /// Name of the loop the pipeline was processing (empty for
    /// [`PipelineStage::Config`] errors, which precede any loop).
    pub loop_name: String,
    /// The stage that failed, with its cause.
    pub stage: PipelineStage,
}

/// The pipeline stage that produced a [`PipelineError`].
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineStage {
    /// Modulo scheduling failed.
    Schedule(ScheduleError),
    /// The machine cannot serve the loop.
    Machine(MachineError),
    /// The spiller failed.
    Spill(SpillError),
    /// The experiment configuration is invalid (no loop involved).
    Config(ConfigError),
    /// A worker panicked while processing the loop; the payload is the
    /// stringified panic message. The panic was contained by the
    /// execution pool — other loops in the same run still completed.
    Panic(String),
    /// An error parsed back from a serialized report (its structured
    /// stage was rendered to text when the producing process emitted
    /// JSON). The payload is the original stage message verbatim, so a
    /// round-tripped report renders identically.
    Remote(String),
    /// Certification rejected the cell: an independent
    /// [`CellCertifier`](crate::CellCertifier) re-derived the paper's
    /// constraints and found the produced artifact violates one. The
    /// payload renders the violation (rule id plus locator).
    Certify(String),
}

/// An invalid experiment configuration, detected before any loop runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The sweep's machine grid is empty — nothing would be evaluated.
    EmptyMachineGrid,
    /// The sweep's model set is empty — every result series would be
    /// silently empty.
    EmptyModelSet,
    /// The sweep requests neither distribution points nor spill budgets,
    /// so there is nothing to compute.
    EmptyWorkload,
    /// A shard specification is out of range: `count` is zero or `index`
    /// is not below `count`.
    InvalidShard {
        /// The requested shard index.
        index: u32,
        /// The requested shard count.
        count: u32,
    },
    /// Shards being merged were produced from different grids (machines,
    /// models, points, budgets, corpus or pipeline options differ) or
    /// disagree about the shard count.
    IncompatibleShards,
    /// Two shards being merged claim the same shard index or the same
    /// grid cell.
    OverlappingShards,
    /// The merge input does not cover the full grid: no shards at all, a
    /// shard index absent, or a grid cell reported by no shard.
    MissingShards,
    /// An artifact declares a grid larger than any real corpus sweep
    /// (`machines × loops` beyond the supported ceiling) — grids that
    /// size only come from corrupt artifacts, and honouring them would
    /// mean grid-proportional allocations an attacker controls.
    OversizedGrid {
        /// The declared number of grid cells.
        cells: usize,
    },
    /// A cell index passed to `Sweep::reissue` lies outside the sweep's
    /// grid — the caller's missing-cell list belongs to another grid.
    UnknownCell {
        /// The offending flattened task index.
        task: u64,
    },
    /// A model name does not resolve through the
    /// [`ModelRegistry`](crate::ModelRegistry) — a job spec, preset or
    /// artifact names a model this process never registered.
    UnknownModel {
        /// The unresolvable model name.
        name: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyMachineGrid => write!(
                f,
                "the sweep has no machines; add one via `machine`, `machines`, \
                 `clustered_latencies` or `pxly_configs`"
            ),
            ConfigError::EmptyModelSet => write!(
                f,
                "the sweep has no models; pass a non-empty set to `models` \
                 (the default is `PAPER_MODELS`)"
            ),
            ConfigError::EmptyWorkload => write!(
                f,
                "the sweep has no workload; request distribution points \
                 via `points` and/or spill budgets via `budget`/`budgets`"
            ),
            ConfigError::InvalidShard { index, count } => write!(
                f,
                "invalid shard {index}/{count}: the count must be positive \
                 and the index below it"
            ),
            ConfigError::IncompatibleShards => write!(
                f,
                "shards disagree about the grid (machines, models, points, \
                 budgets, corpus, options or shard count differ); only \
                 shards of one sweep merge"
            ),
            ConfigError::OverlappingShards => write!(
                f,
                "two shards claim the same shard index or grid cell; each \
                 cell must be reported by exactly one shard"
            ),
            ConfigError::MissingShards => write!(
                f,
                "the shard set does not cover the full grid; every shard \
                 index and every grid cell must be present exactly once"
            ),
            ConfigError::OversizedGrid { cells } => write!(
                f,
                "the artifact declares a {cells}-cell grid, beyond any real \
                 corpus sweep; refusing a likely-corrupt artifact"
            ),
            ConfigError::UnknownCell { task } => write!(
                f,
                "cell {task} lies outside the sweep's grid; the reissue \
                 list belongs to a different grid"
            ),
            ConfigError::UnknownModel { name } => write!(
                f,
                "`{name}` names no registered model; register it through \
                 `ModelRegistry::register` or fix the spelling"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl PipelineError {
    /// Builds an error for the named loop from any stage cause.
    pub fn new(loop_name: impl Into<String>, stage: impl Into<PipelineStage>) -> Self {
        PipelineError {
            loop_name: loop_name.into(),
            stage: stage.into(),
        }
    }

    /// Builds a configuration error (no loop involved).
    pub fn config(err: ConfigError) -> Self {
        PipelineError {
            loop_name: String::new(),
            stage: PipelineStage::Config(err),
        }
    }

    /// Builds a contained-panic error for the named loop.
    pub fn panic(loop_name: impl Into<String>, message: impl Into<String>) -> Self {
        PipelineError {
            loop_name: loop_name.into(),
            stage: PipelineStage::Panic(message.into()),
        }
    }

    /// Whether this is a configuration error (and thus names no loop).
    pub fn is_config(&self) -> bool {
        matches!(self.stage, PipelineStage::Config(_))
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.loop_name.is_empty() {
            write!(f, "{}", self.stage)
        } else {
            write!(f, "loop `{}`: {}", self.loop_name, self.stage)
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.stage {
            PipelineStage::Schedule(e) => Some(e),
            PipelineStage::Machine(e) => Some(e),
            PipelineStage::Spill(e) => Some(e),
            PipelineStage::Config(e) => Some(e),
            PipelineStage::Panic(_) | PipelineStage::Remote(_) | PipelineStage::Certify(_) => None,
        }
    }
}

impl fmt::Display for PipelineStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineStage::Schedule(e) => write!(f, "scheduling failed: {e}"),
            PipelineStage::Machine(e) => write!(f, "machine mismatch: {e}"),
            PipelineStage::Spill(e) => write!(f, "spilling failed: {e}"),
            PipelineStage::Config(e) => write!(f, "invalid configuration: {e}"),
            PipelineStage::Panic(msg) => write!(f, "worker panicked: {msg}"),
            PipelineStage::Remote(msg) => f.write_str(msg),
            PipelineStage::Certify(msg) => write!(f, "certification failed: {msg}"),
        }
    }
}

impl From<ConfigError> for PipelineStage {
    fn from(e: ConfigError) -> Self {
        PipelineStage::Config(e)
    }
}

impl From<ScheduleError> for PipelineStage {
    fn from(e: ScheduleError) -> Self {
        PipelineStage::Schedule(e)
    }
}

impl From<MachineError> for PipelineStage {
    fn from(e: MachineError) -> Self {
        PipelineStage::Machine(e)
    }
}

impl From<SpillError> for PipelineStage {
    fn from(e: SpillError) -> Self {
        PipelineStage::Spill(e)
    }
}

/// Result of analysing one loop under one model with **unlimited
/// registers** (the Figure 6/7 pipeline).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopAnalysis {
    /// Loop name.
    pub name: String,
    /// Evaluation model.
    pub model: ModelId,
    /// Achieved initiation interval.
    pub ii: u32,
    /// Register requirement of the model (per subfile for dual models;
    /// `0` for [`ModelId::IDEAL`], which needs none by definition).
    pub regs: u32,
    /// MaxLive lower bound (unified view), for reference.
    pub max_live: u32,
    /// Per-class pressures for dual models (the Table 3/4 quantities).
    pub pressure: Option<DualPressure>,
    /// Total iterations this loop executes (its corpus weight).
    pub iterations: u64,
}

impl LoopAnalysis {
    /// Estimated execution cycles: `iterations * II` (the paper's §5.3
    /// execution-time estimate for the dynamic figures).
    pub fn cycles(&self) -> u128 {
        self.iterations as u128 * self.ii as u128
    }
}

/// Computes the register requirement of `model` for an already-scheduled
/// loop, possibly mutating the schedule (swapping).
///
/// # Errors
///
/// Returns [`MachineError::Unserved`] if the machine cannot execute some
/// operation.
pub fn requirement(
    l: &Loop,
    machine: &Machine,
    sched: &mut Schedule,
    model: ModelId,
    opts: &PipelineOptions,
) -> Result<u32, MachineError> {
    let mut req = ModelRequirement::new(model, opts);
    if req.spec.is_ideal() {
        return Ok(0);
    }
    let (consumers, facts) = (l.consumers(), ScheduleFacts::default());
    let shared = Arc::new(sched.clone());
    let class = req.allocate(&ClassInput::new(l, machine, &shared, &consumers, &facts))?;
    let regs = req.effective(l, &class);
    if !Arc::ptr_eq(&class.sched, &shared) {
        *sched = Arc::unwrap_or_clone(class.sched);
    }
    Ok(regs)
}

/// The per-model hook: the model's effective requirement from a raw one.
fn effective(spec: &dyn ModelSpec, l: &Loop, ii: u32, raw: u32, lifetimes: &[Lifetime]) -> u32 {
    spec.effective_requirement(raw, &RequirementCtx { l, ii, lifetimes })
}

/// The requirement of one model, split for the spill descent: the class
/// part (swap pass, unified or dual allocation, on the schedule's shared
/// lifetimes and placement order) is memoised per descent state and
/// shared by every model of the same class, and the model's
/// [`ModelSpec::effective_requirement`] hook runs on top. [`requirement`]
/// is this on a one-off [`ClassInput`]. The non-swapping classes also
/// have a class lower bound, which lets an escalation ladder skip
/// allocating rungs that cannot fit.
pub struct ModelRequirement {
    spec: Arc<dyn ModelSpec>,
    swap: SwapOptions,
}

impl ModelRequirement {
    /// The requirement of `model` under `opts`' swap options.
    pub fn new(model: ModelId, opts: &PipelineOptions) -> ModelRequirement {
        ModelRequirement {
            spec: model.spec(),
            swap: opts.swap,
        }
    }
}

impl Requirement for ModelRequirement {
    /// One class per (swaps, dual) pair; the ideal model computes
    /// nothing worth sharing. Within a session every model runs with the
    /// same swap options, so the key need not carry them.
    fn class(&self) -> Option<ClassKey> {
        let spec = &self.spec;
        (!spec.is_ideal())
            .then(|| ClassKey(u32::from(spec.swaps()) << 1 | u32::from(spec.is_dual())))
    }

    fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError> {
        if self.spec.is_ideal() {
            return Ok(ClassRequirement {
                sched: Arc::clone(input.sched),
                lifetimes: Arc::new([]),
                raw: 0,
            });
        }
        let lifetimes = input.lifetimes()?;
        let sched = if self.spec.swaps() {
            let (mut swapped, swap) = (Schedule::clone(input.sched), self.swap);
            let (l, machine, consumers) = (input.l, input.machine, input.consumers);
            swap_pass_on(l, machine, &mut swapped, swap, &lifetimes, consumers);
            Arc::new(swapped)
        } else {
            Arc::clone(input.sched)
        };
        // The swap pass moves no lifetime, so the placement order of the
        // input schedule is that of the swapped one.
        let order = input.order()?;
        let raw = if self.spec.is_dual() {
            let classes = classify_from(input.consumers, input.machine, &sched, &lifetimes);
            allocate_dual_in(&order, &lifetimes, &classes).regs
        } else {
            allocate_unified_in(&order, &lifetimes, FitPolicy::FirstFit).regs
        };
        Ok(ClassRequirement {
            sched,
            lifetimes,
            raw,
        })
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        if self.spec.is_ideal() {
            return 0;
        }
        effective(
            &*self.spec,
            l,
            class.sched.ii(),
            class.raw,
            &class.lifetimes,
        )
    }

    /// Where the allocator's search starts, on the lifetimes `allocate`
    /// reads: MaxLive on the unified file, the larger subfile pressure on
    /// the dual one. The swapping classes, whose cost is the swap pass
    /// itself, and the ideal model have none.
    fn bound(&mut self, input: &ClassInput<'_>) -> Result<Option<ClassRequirement>, MachineError> {
        if self.spec.is_ideal() || self.spec.swaps() {
            return Ok(None);
        }
        let (sched, lifetimes) = (input.sched, input.lifetimes()?);
        let raw = if self.spec.is_dual() {
            let classes = classify_from(input.consumers, input.machine, sched, &lifetimes);
            DualPressure::new(&lifetimes, &classes, sched.ii()).requirement_bound()
        } else {
            max_live(&lifetimes, sched.ii())
        };
        Ok(Some(ClassRequirement {
            sched: Arc::clone(sched),
            lifetimes,
            raw,
        }))
    }
}

/// Schedules `l` and computes the `model` register requirement with
/// unlimited registers (no spilling), without any caching.
///
/// Prefer [`crate::Session::analyze`] when analysing the same loop under
/// several models: it schedules once and derives each model's result.
///
/// # Errors
///
/// Returns a schedule-stage [`PipelineError`] if no schedule exists
/// within the default II search.
pub fn analyze(
    l: &Loop,
    machine: &Machine,
    model: ModelId,
    opts: &PipelineOptions,
) -> Result<LoopAnalysis, PipelineError> {
    let fail = |stage: PipelineStage| PipelineError {
        loop_name: l.name().to_owned(),
        stage,
    };
    let mut sched =
        modulo_schedule_with(l, machine, opts.spill.scheduler).map_err(|e| fail(e.into()))?;
    let regs = requirement(l, machine, &mut sched, model, opts).map_err(|e| fail(e.into()))?;
    let lts = lifetimes(l, machine, &sched).map_err(|e| fail(e.into()))?;
    let pressure = if model.spec().is_dual() {
        let classes = classify(l, machine, &sched, &lts);
        Some(DualPressure::new(&lts, &classes, sched.ii()))
    } else {
        None
    };
    Ok(LoopAnalysis {
        name: l.name().to_owned(),
        model,
        ii: sched.ii(),
        regs,
        max_live: max_live(&lts, sched.ii()),
        pressure,
        iterations: l.weight().iterations(),
    })
}

/// Result of evaluating one loop under one model with a **finite register
/// file** (the Figure 8/9 pipeline): spill code is inserted until the
/// requirement fits the budget.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopEval {
    /// Loop name.
    pub name: String,
    /// Evaluation model.
    pub model: ModelId,
    /// Register budget (per subfile for dual models).
    pub budget: u32,
    /// Final initiation interval (after any spill-induced rescheduling).
    pub ii: u32,
    /// Final register requirement.
    pub regs: u32,
    /// Whether the loop fit the budget.
    pub fits: bool,
    /// Values spilled.
    pub spilled: usize,
    /// Memory operations per iteration in the final loop body.
    pub mem_ops: usize,
    /// Memory ports of the machine.
    pub ports: u32,
    /// Total iterations (corpus weight).
    pub iterations: u64,
}

impl LoopEval {
    /// Estimated execution cycles `iterations * II`.
    pub fn cycles(&self) -> u128 {
        self.iterations as u128 * self.ii as u128
    }

    /// Total memory accesses over the whole execution.
    pub fn accesses(&self) -> u128 {
        self.iterations as u128 * self.mem_ops as u128
    }

    /// Steady-state density of memory traffic: bus slots used per cycle,
    /// as a fraction of `II * ports`.
    pub fn density(&self) -> f64 {
        if self.ii == 0 || self.ports == 0 {
            0.0
        } else {
            self.mem_ops as f64 / (self.ii as f64 * self.ports as f64)
        }
    }
}

/// Builds a [`LoopEval`] from a finished spill run (or, for
/// [`ModelId::IDEAL`], from the base schedule).
pub(crate) fn eval_from_spill(l: &Loop, model: ModelId, budget: u32, r: &SpillResult) -> LoopEval {
    LoopEval {
        name: l.name().to_owned(),
        model,
        budget,
        ii: r.sched.ii(),
        regs: r.regs,
        fits: r.fits,
        spilled: r.spilled.len(),
        mem_ops: r.l.memory_ops(),
        ports: 0, // caller fills in
        iterations: l.weight().iterations(),
    }
}

/// Evaluates `l` under `model` with `budget` registers, inserting spill
/// code per the paper's §5.4 until the requirement fits, without any
/// caching.
///
/// Prefer [`crate::Session::evaluate`] when evaluating the same loop
/// under several models or budgets.
///
/// [`ModelId::IDEAL`] ignores the budget (it reports the unconstrained
/// II).
///
/// # Errors
///
/// Propagates scheduling and spilling failures, naming the loop.
pub fn evaluate(
    l: &Loop,
    machine: &Machine,
    model: ModelId,
    budget: u32,
    opts: &PipelineOptions,
) -> Result<LoopEval, PipelineError> {
    let fail = |stage: PipelineStage| PipelineError {
        loop_name: l.name().to_owned(),
        stage,
    };
    if model.spec().is_ideal() {
        let sched =
            modulo_schedule_with(l, machine, opts.spill.scheduler).map_err(|e| fail(e.into()))?;
        return Ok(LoopEval {
            name: l.name().to_owned(),
            model,
            budget,
            ii: sched.ii(),
            regs: 0,
            fits: true,
            spilled: 0,
            mem_ops: l.memory_ops(),
            ports: machine.memory_ports() as u32,
            iterations: l.weight().iterations(),
        });
    }

    let opts_copy = *opts;
    let mut req = move |l: &Loop, m: &Machine, s: &mut Schedule| -> Result<u32, MachineError> {
        requirement(l, m, s, model, &opts_copy)
    };
    let r =
        spill_until_fits(l, machine, budget, &mut req, opts.spill).map_err(|e| fail(e.into()))?;
    let mut eval = eval_from_spill(l, model, budget, &r);
    eval.ports = machine.memory_ports() as u32;
    Ok(eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_corpus::kernels;
    use ncdrf_machine::Machine;

    #[test]
    fn dual_requirement_never_exceeds_unified() {
        let machine = Machine::clustered(3, 1);
        let opts = PipelineOptions::default();
        for l in kernels::all() {
            let uni = analyze(&l, &machine, ModelId::UNIFIED, &opts).unwrap();
            let part = analyze(&l, &machine, ModelId::PARTITIONED, &opts).unwrap();
            assert!(
                part.regs <= uni.regs,
                "{}: partitioned {} > unified {}",
                l.name(),
                part.regs,
                uni.regs
            );
        }
    }

    #[test]
    fn swapped_requirement_never_exceeds_partitioned_bound() {
        // The swap pass greedily reduces the MaxLive bound; the exact
        // allocation tracks it closely. Allow equality.
        let machine = Machine::clustered(6, 1);
        let opts = PipelineOptions::default();
        for l in kernels::all().into_iter().take(20) {
            let part = analyze(&l, &machine, ModelId::PARTITIONED, &opts).unwrap();
            let swap = analyze(&l, &machine, ModelId::SWAPPED, &opts).unwrap();
            assert!(
                swap.regs <= part.regs + 1,
                "{}: swapped {} much worse than partitioned {}",
                l.name(),
                swap.regs,
                part.regs
            );
        }
    }

    #[test]
    fn ideal_has_zero_requirement() {
        let machine = Machine::clustered(3, 1);
        let l = kernels::blas::daxpy();
        let a = analyze(&l, &machine, ModelId::IDEAL, &PipelineOptions::default()).unwrap();
        assert_eq!(a.regs, 0);
        assert!(a.cycles() > 0);
    }

    #[test]
    fn requirement_at_least_max_live_unified() {
        let machine = Machine::clustered(6, 1);
        let opts = PipelineOptions::default();
        for l in kernels::all().into_iter().take(15) {
            let a = analyze(&l, &machine, ModelId::UNIFIED, &opts).unwrap();
            assert!(a.regs >= a.max_live);
        }
    }

    #[test]
    fn evaluate_with_ample_budget_matches_analyze() {
        let machine = Machine::clustered(3, 1);
        let opts = PipelineOptions::default();
        let l = kernels::livermore::hydro();
        let a = analyze(&l, &machine, ModelId::UNIFIED, &opts).unwrap();
        let e = evaluate(&l, &machine, ModelId::UNIFIED, 512, &opts).unwrap();
        assert!(e.fits);
        assert_eq!(e.spilled, 0);
        assert_eq!(e.ii, a.ii);
        assert_eq!(e.regs, a.regs);
    }

    #[test]
    fn evaluate_with_tight_budget_spills() {
        let machine = Machine::clustered(6, 1);
        let opts = PipelineOptions::default();
        let l = kernels::recurrences::chain8();
        let a = analyze(&l, &machine, ModelId::UNIFIED, &opts).unwrap();
        assert!(a.regs > 4, "chain8 should be pressured");
        let e = evaluate(&l, &machine, ModelId::UNIFIED, 4, &opts).unwrap();
        assert!(e.fits);
        assert!(e.spilled > 0 || e.ii > a.ii);
        if e.spilled > 0 {
            assert!(e.mem_ops > l.memory_ops());
        }
    }

    #[test]
    fn density_accounts_for_spill_traffic() {
        let machine = Machine::clustered(6, 1);
        let opts = PipelineOptions::default();
        let l = kernels::recurrences::wide8();
        let free = evaluate(&l, &machine, ModelId::UNIFIED, 512, &opts).unwrap();
        let tight = evaluate(&l, &machine, ModelId::UNIFIED, 6, &opts).unwrap();
        if tight.spilled > 0 && tight.ii == free.ii {
            assert!(tight.density() > free.density());
        }
        // Densities are valid fractions.
        assert!(free.density() > 0.0 && free.density() <= 1.0);
    }

    #[test]
    fn pressure_reported_only_for_dual_models() {
        let machine = Machine::clustered(3, 1);
        let opts = PipelineOptions::default();
        let l = kernels::blas::daxpy();
        assert!(analyze(&l, &machine, ModelId::UNIFIED, &opts)
            .unwrap()
            .pressure
            .is_none());
        assert!(analyze(&l, &machine, ModelId::PARTITIONED, &opts)
            .unwrap()
            .pressure
            .is_some());
    }

    #[test]
    fn new_families_transform_the_unified_requirement() {
        let machine = Machine::clustered(3, 1);
        let opts = PipelineOptions::default();
        for l in kernels::all().into_iter().take(10) {
            let uni = analyze(&l, &machine, ModelId::UNIFIED, &opts).unwrap();
            let port = analyze(&l, &machine, ModelId::PORT_LIMITED, &opts).unwrap();
            let comp = analyze(&l, &machine, ModelId::COMPRESSED, &opts).unwrap();
            // Port pressure can only raise the requirement; compression
            // scales it down by exactly ceil(3/4).
            assert!(port.regs >= uni.regs, "{}", l.name());
            assert_eq!(comp.regs, (uni.regs * 3).div_ceil(4), "{}", l.name());
            assert_eq!(port.ii, uni.ii);
        }
    }

    #[test]
    fn pipeline_errors_name_the_failing_loop() {
        use ncdrf_machine::{FuClass, FuGroup};
        // A machine with no adder cannot serve daxpy; the error must
        // carry the loop's name and the failing stage.
        let no_adder = Machine::new(
            "NOADD",
            vec![
                FuGroup::unified(FuClass::Multiplier, 3, 2),
                FuGroup::unified(FuClass::MemPort, 1, 2),
            ],
            1,
        )
        .unwrap();
        let l = kernels::blas::daxpy();
        let a_err =
            analyze(&l, &no_adder, ModelId::UNIFIED, &PipelineOptions::default()).unwrap_err();
        assert_eq!(a_err.loop_name, "daxpy");
        assert!(matches!(a_err.stage, PipelineStage::Schedule(_)));
        let e_err = evaluate(
            &l,
            &no_adder,
            ModelId::UNIFIED,
            32,
            &PipelineOptions::default(),
        )
        .unwrap_err();
        assert_eq!(e_err.loop_name, "daxpy");
        assert!(matches!(e_err.stage, PipelineStage::Spill(_)));
        assert!(e_err.to_string().contains("daxpy"), "{e_err}");
    }
}
