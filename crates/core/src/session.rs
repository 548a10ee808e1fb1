//! The [`Session`] experiment driver: schedule each loop **once**, derive
//! every model's result from the cached base schedule.
//!
//! The paper's experiments compare the same scheduled loop under four
//! register-file models (Ideal / Unified / Partitioned / Swapped), across
//! several register budgets. Modulo scheduling dominates the pipeline
//! cost, yet it depends only on `(loop, machine)` — not on the model or
//! the budget. A `Session` owns one machine and a per-loop cache of base
//! schedules (plus their lifetimes), so a four-model comparison schedules
//! once instead of four times:
//!
//! ```
//! use ncdrf::{ModelId, Session};
//! use ncdrf::corpus::kernels;
//! use ncdrf::machine::Machine;
//!
//! # fn main() -> Result<(), ncdrf::PipelineError> {
//! let session = Session::new(Machine::clustered(3, 1));
//! let l = kernels::livermore::hydro();
//! let unified = session.analyze(&l, ModelId::UNIFIED)?;
//! let swapped = session.analyze(&l, ModelId::SWAPPED)?; // cache hit: no rescheduling
//! assert!(swapped.regs <= unified.regs);
//! assert_eq!(session.cache_stats().hits, 1);
//! # Ok(())
//! # }
//! ```
//!
//! Budgeted evaluations that need spill code walk one spill trajectory
//! per `(loop, model)`, and the trajectories of one loop share that
//! loop's [`DescentTree`]: each spill state (rewritten loop and fresh
//! schedule), each II-escalation rung schedule and each allocation
//! class's requirement on them is computed once per loop, whichever
//! model reaches it first. Each trajectory keeps only its scalars, its
//! own stopping point and its post-requirement schedules, and the
//! counters in [`CacheStats`] stay per model. A session keeps the shared
//! states of its four most recently spilled loops only, so what it
//! retains stays bounded in whatever order it visits loops and models.
//! A [`crate::Sweep`] evaluates each `(machine, loop)` cell in its own
//! session, so a cell's caches and descent tree die with the cell.
//!
//! Sessions are `Sync`: corpus-level sweeps run loops in parallel against
//! one shared cache (see [`Session::analyze_corpus`]).

use crate::certify::CellCertifier;
use crate::model::ModelId;
use crate::pipeline::{
    eval_from_spill, LoopAnalysis, LoopEval, ModelRequirement, PipelineError, PipelineOptions,
    PipelineStage,
};
use ncdrf_corpus::Corpus;
use ncdrf_ddg::Loop;
use ncdrf_exec::Pool;
use ncdrf_machine::Machine;
use ncdrf_regalloc::{classify_from, max_live, DualPressure, Lifetime};
use ncdrf_sched::{modulo_schedule_with, Schedule};
use ncdrf_spill::{
    ClassRequirement, DescentStats, DescentTree, Requirement, SpillTrajectory, TrajectorySnapshot,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many loops' descent trees a session keeps open for sharing
/// between the models of a loop. A [`Session::evaluate`] call that
/// spills opens its loop's tree; opening one more releases the least
/// recently opened (see [`DescentTree::release`]). Only sharing is lost
/// — results and [`CacheStats`] do not change. Four covers a driver that
/// visits loops one at a time on up to four threads; a driver that
/// visits the whole corpus per model could only share by keeping every
/// loop's states, which is what this bound prevents. A
/// [`crate::Sweep`] cell's session visits one loop, so the bound never
/// closes its tree.
const OPEN_TREES: usize = 4;

/// Per-(loop, model) spill trajectories, individually locked so distinct
/// pairs extend concurrently while same-pair evaluations serialise.
type TrajectoryCache = Mutex<HashMap<(String, ModelId), Arc<Mutex<SpillTrajectory>>>>;

/// Persisted trajectory snapshots imported from shard artifacts, served
/// lazily (see [`Session::evaluate`]).
type SnapshotCache = Mutex<HashMap<(String, ModelId), Arc<TrajectorySnapshot>>>;

/// One `(loop, model)` spill trajectory exported from — or to be
/// imported into — a session's trajectory cache. This is the unit a
/// `SweepShard` (format v4) persists so re-runs at new budgets resume
/// the recorded descents across processes.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryExport {
    /// Name of the loop the trajectory belongs to.
    pub loop_name: String,
    /// The model whose requirement function drove the descent.
    pub model: ModelId,
    /// The serializable checkpoint record.
    pub snapshot: TrajectorySnapshot,
}

/// A loop's cached model-independent artifacts: the base modulo schedule
/// and its lifetimes.
#[derive(Debug, Clone)]
pub struct BaseSchedule {
    /// The base (pre-swap, pre-spill) modulo schedule.
    pub sched: Schedule,
    /// Value lifetimes of the base schedule, shared with the descent
    /// tree's root.
    pub lifetimes: Arc<[Lifetime]>,
}

/// A loop's descent tree, the class part of a model's requirement on its
/// base schedule, and the model's requirement.
type BaseRequirement = (Arc<DescentTree>, Arc<ClassRequirement>, u32);

/// A loop's cached artifacts: the base schedule with its lifetimes, and
/// the descent tree every model's spill trajectory of the loop walks. The
/// tree's root is the unspilled loop on the base schedule; its class memo
/// holds each allocation class's base requirement (and, for the swap
/// class, the post-swap schedule).
#[derive(Debug, Clone)]
struct LoopCache {
    base: Arc<BaseSchedule>,
    tree: Arc<DescentTree>,
}

/// Hit/miss counters of a session's schedule and spill-trajectory
/// caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Schedule requests served from the cache — base-schedule lookups
    /// plus post-swap lookups that skipped a rerun of the swap pass.
    pub hits: u64,
    /// Base requests that ran the scheduler.
    pub misses: u64,
    /// Budgeted evaluations served **entirely** from an existing spill
    /// trajectory's checkpoints — the trajectory took no spill step and
    /// the II-escalation fallback did not answer (an escalated
    /// evaluation goes through its ladder, so it is never a hit).
    pub traj_hits: u64,
    /// Budgeted evaluations that *resumed* an existing trajectory:
    /// extension started from the deepest prior checkpoint instead of
    /// respilling from zero.
    pub traj_resumes: u64,
    /// Spill steps (victim selection + rewrite + reschedule +
    /// allocation) the trajectories took, counted per model: a step
    /// whose state the loop's descent tree already held counts too.
    /// Without trajectory reuse a multi-budget sweep pays this once
    /// **per budget**; with it, once per `(loop, model)` — the
    /// `tests/session_cache.rs` ladder test counter-asserts the saving.
    pub spill_steps: u64,
}

impl CacheStats {
    /// Accumulates another counter set (used when summing sessions,
    /// shards and merged reports — all five counters are per-cell and
    /// therefore sum exactly across any partition of the grid).
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.traj_hits += other.traj_hits;
        self.traj_resumes += other.traj_resumes;
        self.spill_steps += other.spill_steps;
    }
}

/// The one-line summary every report and figure binary prints (pinned
/// by the golden text fixtures) — one source of truth for the five
/// counters.
impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} runs, {} hits | spill trajectories: {} steps, {} hits, {} resumes",
            self.misses, self.hits, self.spill_steps, self.traj_hits, self.traj_resumes
        )
    }
}

/// An experiment session over one machine: a schedule cache plus the
/// pipeline options shared by every analysis/evaluation it runs.
///
/// Loops are keyed by name; corpora keep names unique. Results are
/// bit-identical to the uncached per-call pipeline ([`crate::analyze`] /
/// [`crate::evaluate`]) because base scheduling is deterministic for a
/// given `(loop, machine, options)`.
#[derive(Debug)]
pub struct Session {
    machine: Machine,
    opts: PipelineOptions,
    /// Per-loop base schedules and descent trees.
    cache: Mutex<HashMap<String, LoopCache>>,
    /// The open descent trees, least recently opened first; at most
    /// [`OPEN_TREES`].
    open: Mutex<VecDeque<Arc<DescentTree>>>,
    /// Per-(loop, model) spill trajectories: the §5.4 descent taken
    /// once per model, checkpointed, and resumed by every budget that
    /// needs it (see [`Session::evaluate`]). The models of one loop walk
    /// the loop's shared descent tree. The two-level locking lets
    /// distinct `(loop, model)` pairs extend their trajectories
    /// concurrently.
    trajectories: TrajectoryCache,
    /// Imported (persisted) trajectory snapshots, keyed like the live
    /// cache. Served directly while a recorded checkpoint answers the
    /// budget; *materialised* into `trajectories` (verified replay) the
    /// first time a budget needs the descent extended.
    imported: SnapshotCache,
    /// Optional independent validator: when set, every analysis and
    /// evaluation this session returns — and every checkpoint a snapshot
    /// replay restores — is re-certified from first principles, and a
    /// violation fails the cell with [`PipelineStage::Certify`].
    certifier: Option<Arc<dyn CellCertifier>>,
    hits: AtomicU64,
    misses: AtomicU64,
    traj_hits: AtomicU64,
    traj_resumes: AtomicU64,
    spill_steps: AtomicU64,
}

impl Session {
    /// Creates a session for `machine` with default [`PipelineOptions`].
    pub fn new(machine: Machine) -> Self {
        Session {
            machine,
            opts: PipelineOptions::default(),
            cache: Mutex::new(HashMap::new()),
            open: Mutex::new(VecDeque::new()),
            trajectories: Mutex::new(HashMap::new()),
            imported: Mutex::new(HashMap::new()),
            certifier: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            traj_hits: AtomicU64::new(0),
            traj_resumes: AtomicU64::new(0),
            spill_steps: AtomicU64::new(0),
        }
    }

    /// Replaces the session's pipeline options (builder style).
    pub fn options(mut self, opts: PipelineOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Attaches an independent certifier (builder style): every
    /// analysis and evaluation this session returns is re-validated
    /// against the paper's constraints, imported-snapshot evaluations
    /// take the full replay path so each restored checkpoint is
    /// certified, and any violation fails the cell with
    /// [`PipelineStage::Certify`]. Scalar results and
    /// [`CacheStats`] counters are unchanged by certification — only
    /// violations are observable.
    pub fn certify(mut self, certifier: Arc<dyn CellCertifier>) -> Self {
        self.certifier = Some(certifier);
        self
    }

    /// The attached certifier, if any.
    pub fn certifier(&self) -> Option<&Arc<dyn CellCertifier>> {
        self.certifier.as_ref()
    }

    /// The session's machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The session's pipeline options.
    pub fn pipeline_options(&self) -> &PipelineOptions {
        &self.opts
    }

    /// Cache hit/miss counters so far — schedule caches *and* the spill
    /// trajectory cache.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            traj_hits: self.traj_hits.load(Ordering::Relaxed),
            traj_resumes: self.traj_resumes.load(Ordering::Relaxed),
            spill_steps: self.spill_steps.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached schedule, every descent tree **and** every
    /// cached spill trajectory (live and imported; counters are kept).
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
        self.open.lock().clear();
        self.trajectories.lock().clear();
        self.imported.lock().clear();
    }

    /// What the loops' descent trees computed and reused so far, summed
    /// over every cached loop.
    pub fn descent_stats(&self) -> DescentStats {
        let mut stats = DescentStats::default();
        for entry in self.cache.lock().values() {
            stats.absorb(entry.tree.stats());
        }
        stats
    }

    /// Marks `l`'s descent tree as the most recently opened, releasing
    /// the least recently opened one beyond [`OPEN_TREES`].
    fn open_tree(&self, l: &Loop) {
        let Some(tree) = self.cache.lock().get(l.name()).map(|e| Arc::clone(&e.tree)) else {
            return;
        };
        let mut open = self.open.lock();
        if let Some(i) = open.iter().position(|t| Arc::ptr_eq(t, &tree)) {
            open.remove(i);
        }
        open.push_back(tree);
        let closed = if open.len() > OPEN_TREES {
            open.pop_front()
        } else {
            None
        };
        drop(open);
        if let Some(tree) = closed {
            tree.release();
        }
    }

    /// Serializes the session's spill-trajectory cache: every live
    /// trajectory's checkpoint record plus every imported snapshot not
    /// yet shadowed by a live descent, sorted by `(loop, model)` so
    /// artifacts carrying the export are byte-stable.
    ///
    /// Importing the result into a fresh session (of the same machine
    /// and options) makes that session resume the recorded descents —
    /// across budgets and across processes — instead of respilling from
    /// zero; see [`Session::import_trajectories`].
    pub fn export_trajectories(&self) -> Vec<TrajectoryExport> {
        let mut by_key: HashMap<(String, ModelId), TrajectorySnapshot> = self
            .imported
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), (**v).clone()))
            .collect();
        for (k, v) in self.trajectories.lock().iter() {
            by_key.insert(k.clone(), v.lock().snapshot());
        }
        let mut out: Vec<TrajectoryExport> = by_key
            .into_iter()
            .map(|((loop_name, model), snapshot)| TrajectoryExport {
                loop_name,
                model,
                snapshot,
            })
            .collect();
        // `ModelId` orders by registration index, which reproduces the old
        // `PAPER_MODELS` rank for the paper four — export listings stay
        // byte-stable across the registry redesign.
        out.sort_by(|a, b| (a.loop_name.as_str(), a.model).cmp(&(b.loop_name.as_str(), b.model)));
        out
    }

    /// Seeds the session's trajectory cache with persisted snapshots
    /// (typically parsed out of a shard artifact). Snapshots are served
    /// lazily: a budget a recorded checkpoint fits is answered from the
    /// record alone, and the first budget that needs the descent
    /// extended triggers a verified replay (see
    /// [`SpillTrajectory::replay`]) before resuming — so a stale or
    /// foreign snapshot fails loudly at that point instead of silently
    /// changing results. Live trajectories always take precedence over
    /// imports for the same `(loop, model)`.
    ///
    /// Snapshots are budget-independent; the caller is responsible for
    /// importing only snapshots recorded on this session's machine and
    /// pipeline options (`Sweep::reissue` checks this at the artifact
    /// level).
    pub fn import_trajectories<I: IntoIterator<Item = TrajectoryExport>>(&self, imports: I) {
        let mut map = self.imported.lock();
        for t in imports {
            map.insert((t.loop_name, t.model), Arc::new(t.snapshot));
        }
    }

    fn fail(l: &Loop, stage: impl Into<PipelineStage>) -> PipelineError {
        PipelineError::new(l.name(), stage)
    }

    /// The cached base schedule of `l`, scheduling it on a miss.
    ///
    /// Scheduling runs outside the cache lock, so parallel corpus sweeps
    /// schedule distinct loops concurrently. If two threads race on the
    /// same loop the first insert wins (both results are identical —
    /// scheduling is deterministic).
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures, naming the loop.
    pub fn base(&self, l: &Loop) -> Result<Arc<BaseSchedule>, PipelineError> {
        Ok(self.cached(l)?.base)
    }

    /// The cached artifacts of `l`, scheduling it on a miss; counts one
    /// cache hit or miss.
    fn cached(&self, l: &Loop) -> Result<LoopCache, PipelineError> {
        if let Some(hit) = self.cache.lock().get(l.name()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let sched = modulo_schedule_with(l, &self.machine, self.opts.spill.scheduler)
            .map_err(|e| Self::fail(l, e))?;
        let tree = DescentTree::new(
            l.to_owned(),
            sched.to_owned(),
            self.machine.clone(),
            self.opts.spill.scheduler,
        );
        let lts = tree.base_lifetimes().map_err(|e| Self::fail(l, e))?;
        let entry = LoopCache {
            base: Arc::new(BaseSchedule {
                sched,
                lifetimes: lts,
            }),
            tree: Arc::new(tree),
        };
        Ok(self
            .cache
            .lock()
            .entry(l.name().to_owned())
            .or_insert(entry)
            .clone())
    }

    /// `model`'s requirement on the cached base schedule of `l`: the
    /// class part from the descent tree's root memo (allocated on a
    /// miss), then the model's hook, with the loop's tree. The class
    /// result carries the model's schedule — the post-swap one for
    /// swapping models — and its lifetimes.
    ///
    /// Counts one cache hit or miss: a memoised swapping class is a hit
    /// of its own (it skips the scheduler *and* the swap pass); every
    /// other request counts its base-schedule lookup.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and machine failures, naming the loop.
    fn base_requirement(&self, l: &Loop, model: ModelId) -> Result<BaseRequirement, PipelineError> {
        let mut req = ModelRequirement::new(model, &self.opts);
        if model.spec().swaps() {
            let peek = self.cache.lock().get(l.name()).cloned();
            if let Some(entry) = peek {
                if let Some(class) = req.class().and_then(|k| entry.tree.memoised_base_class(k)) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    let regs = req.effective(l, &class);
                    return Ok((entry.tree, class, regs));
                }
            }
        }
        let tree = self.cached(l)?.tree;
        let (class, regs) = tree
            .base_requirement(&mut req)
            .map_err(|e| Self::fail(l, e))?;
        Ok((tree, class, regs))
    }

    /// Analyses `l` under `model` with unlimited registers, reusing the
    /// cached base (or post-swap) schedule.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and machine failures, naming the loop.
    pub fn analyze(&self, l: &Loop, model: ModelId) -> Result<LoopAnalysis, PipelineError> {
        let spec = model.spec();
        if spec.is_ideal() {
            let base = self.base(l)?;
            return self.analysis(l, model, 0, &base.sched, &base.lifetimes, None);
        }
        let (tree, class, regs) = self.base_requirement(l, model)?;
        let (sched, lts) = (&*class.sched, &class.lifetimes);
        let pressure = spec.is_dual().then(|| {
            let classes = classify_from(tree.base_consumers(), &self.machine, sched, lts);
            DualPressure::new(lts, &classes, sched.ii())
        });
        self.analysis(l, model, regs, sched, lts, pressure)
    }

    /// The certified [`LoopAnalysis`] of `l` under `model` on `sched`.
    fn analysis(
        &self,
        l: &Loop,
        model: ModelId,
        regs: u32,
        sched: &Schedule,
        lts: &[Lifetime],
        pressure: Option<DualPressure>,
    ) -> Result<LoopAnalysis, PipelineError> {
        let analysis = LoopAnalysis {
            name: l.name().to_owned(),
            model,
            ii: sched.ii(),
            regs,
            max_live: max_live(lts, sched.ii()),
            pressure,
            iterations: l.weight().iterations(),
        };
        if let Some(c) = &self.certifier {
            c.certify_analysis(l, &self.machine, sched, &analysis)
                .map_err(|v| {
                    Self::fail(l, PipelineStage::Certify(format!("model `{model}`: {v}")))
                })?;
        }
        Ok(analysis)
    }

    /// Runs the attached certifier (if any) over a finished evaluation,
    /// passing through the evaluation on success.
    #[allow(clippy::too_many_arguments)]
    fn certified(
        &self,
        original: &Loop,
        final_l: &Loop,
        sched: &Schedule,
        spilled: &[String],
        spill_stores: usize,
        spill_loads: usize,
        eval: LoopEval,
    ) -> Result<LoopEval, PipelineError> {
        if let Some(c) = &self.certifier {
            c.certify_eval(
                original,
                &self.machine,
                final_l,
                sched,
                spilled,
                spill_stores,
                spill_loads,
                &eval,
            )
            .map_err(|v| {
                Self::fail(
                    original,
                    PipelineStage::Certify(format!(
                        "model `{}` @ budget {}: {v}",
                        eval.model, eval.budget
                    )),
                )
            })?;
        }
        Ok(eval)
    }

    /// The cached spill trajectory of `(l, model)`, creating (and
    /// caching) it on first use at the root of the loop's descent tree —
    /// the unspilled loop on the cached base schedule, the same seeding
    /// the per-budget `spill_until_fits_seeded` call uses — and the
    /// returned flag says whether this call created the entry (for
    /// hit/resume accounting).
    ///
    /// # Errors
    ///
    /// Propagates scheduling and requirement failures, naming the loop.
    /// A failed creation caches nothing.
    fn trajectory(
        &self,
        l: &Loop,
        model: ModelId,
    ) -> Result<(Arc<Mutex<SpillTrajectory>>, bool), PipelineError> {
        let key = (l.name().to_owned(), model);
        if let Some(hit) = self.trajectories.lock().get(&key) {
            return Ok((hit.clone(), false));
        }
        // Construct outside the map lock so distinct loops build
        // concurrently; a racing duplicate is bit-identical (the whole
        // pipeline is deterministic), so first-insert-wins is sound.
        let tree = self.cached(l)?.tree;
        let traj = SpillTrajectory::in_tree(
            &tree,
            &mut ModelRequirement::new(model, &self.opts),
            self.opts.spill,
        )
        .map_err(|e| Self::fail(l, e))?;
        let entry = Arc::new(Mutex::new(traj));
        let mut map = self.trajectories.lock();
        let created = !map.contains_key(&key);
        Ok((map.entry(key).or_insert(entry).clone(), created))
    }

    /// Materialises an imported snapshot into a live trajectory: a
    /// verified replay of the recorded descent (see
    /// [`SpillTrajectory::replay`]), committed to the live cache and
    /// removed from the import map. Two racing materialisations replay
    /// identically; first insert wins.
    ///
    /// # Errors
    ///
    /// Propagates replay failures — including snapshot-mismatch errors
    /// for stale or foreign records — naming the loop.
    fn materialize(
        &self,
        l: &Loop,
        model: ModelId,
        snap: &TrajectorySnapshot,
    ) -> Result<Arc<Mutex<SpillTrajectory>>, PipelineError> {
        let key = (l.name().to_owned(), model);
        let tree = self.cached(l)?.tree;
        let mut req = ModelRequirement::new(model, &self.opts);
        // With a certifier attached, every restored checkpoint is
        // re-validated during the replay; a violation aborts the
        // materialisation like any snapshot mismatch, naming the
        // checkpoint and the violated rule.
        let (machine, certifier) = (&self.machine, self.certifier.as_deref());
        let mut checker = |step: usize, cl: &Loop, sched: &Schedule, regs: u32| {
            certifier.map_or(Ok(()), |c| {
                c.certify_checkpoint(step, cl, machine, sched, model, regs)
                    .map_err(|v| v.to_string())
            })
        };
        let traj = SpillTrajectory::replay_in_tree(
            &tree,
            snap,
            &mut req,
            self.opts.spill,
            Some(&mut checker),
        )
        .map_err(|e| Self::fail(l, e))?;
        let entry = Arc::new(Mutex::new(traj));
        let entry = self
            .trajectories
            .lock()
            .entry(key.clone())
            .or_insert(entry)
            .clone();
        self.imported.lock().remove(&key);
        Ok(entry)
    }

    /// The evaluation a recorded snapshot checkpoint reproduces:
    /// checkpoint `k` (0 = base) carries exactly the scalars
    /// [`crate::pipeline::eval_from_spill`] reads off a real
    /// [`ncdrf_spill::SpillResult`], so the result is bit-identical to
    /// evaluating the materialised trajectory — without rebuilding it.
    fn eval_from_snapshot(
        &self,
        l: &Loop,
        model: ModelId,
        budget: u32,
        snap: &TrajectorySnapshot,
        k: usize,
    ) -> LoopEval {
        let (regs, ii, mem_ops) = if k == 0 {
            (snap.base_regs, snap.base_ii, snap.base_mem_ops)
        } else {
            let s = &snap.steps[k - 1];
            (s.regs, s.ii, s.mem_ops)
        };
        LoopEval {
            name: l.name().to_owned(),
            model,
            budget,
            ii,
            regs,
            fits: regs <= budget,
            spilled: k,
            mem_ops,
            ports: self.machine.memory_ports() as u32,
            iterations: l.weight().iterations(),
        }
    }

    /// Evaluates `l` under `model` with a `budget`-register file.
    ///
    /// Loops whose cached-schedule requirement already fits the budget —
    /// the common case — return directly without touching the spiller.
    /// The rest are served from the session's cached
    /// [`SpillTrajectory`] for `(l, model)`: a budget that an earlier
    /// (larger-budget) evaluation already spilled past is answered from
    /// the checkpoints, and a deeper budget **resumes** the descent from
    /// the deepest checkpoint instead of respilling from zero — the
    /// trajectory hit/resume counters in [`CacheStats`] make the reuse
    /// visible. Results are bit-identical to the uncached
    /// [`crate::evaluate`] either way (pinned by the
    /// `trajectory_identity` differential suite).
    ///
    /// # Errors
    ///
    /// Propagates scheduling and spilling failures, naming the loop. A
    /// failure while extending the trajectory for this budget does not
    /// poison the cached prefix: budgets it already serves (and other
    /// models' trajectories) keep working.
    pub fn evaluate(
        &self,
        l: &Loop,
        model: ModelId,
        budget: u32,
    ) -> Result<LoopEval, PipelineError> {
        let no_spill_eval = |sched: &Schedule, regs: u32| LoopEval {
            name: l.name().to_owned(),
            model,
            budget,
            ii: sched.ii(),
            regs,
            fits: true,
            spilled: 0,
            mem_ops: l.memory_ops(),
            ports: self.machine.memory_ports() as u32,
            iterations: l.weight().iterations(),
        };
        // Fast path: the requirement of the cached schedule, computed
        // without cloning the loop or entering the spiller. This equals
        // the spiller's round-1 requirement (the swap pass is
        // deterministic), so `regs <= budget` short-circuits exactly the
        // evaluations the spiller would have returned unchanged.
        if model.spec().is_ideal() {
            let base = self.base(l)?;
            let eval = no_spill_eval(&base.sched, 0);
            return self.certified(l, l, &base.sched, &[], 0, 0, eval);
        }
        let (_, req_base, regs) = self.base_requirement(l, model)?;
        if regs <= budget {
            let eval = no_spill_eval(&req_base.sched, regs);
            return self.certified(l, l, &req_base.sched, &[], 0, 0, eval);
        }
        // Slow path: real spilling, via the cached trajectory (seeded
        // from the cached base schedule; the swapped model re-derives
        // its swap from the base, exactly as the uncached pipeline
        // does). The entry lock serialises same-pair evaluations; the
        // grid executor never co-schedules those, so sweeps don't
        // contend here. An *imported* snapshot (persisted by a prior
        // run's shard artifact) serves budgets its recorded checkpoints
        // fit without recomputing anything, and is replayed into a live
        // trajectory the first time a budget needs the descent resumed.
        self.open_tree(l);
        let key = (l.name().to_owned(), model);
        let live = self.trajectories.lock().get(&key).cloned();
        // Bound lookups (guards dropped immediately): `materialize`
        // re-locks the import map to retire the snapshot it consumed.
        let snap = match &live {
            Some(_) => None,
            None => self.imported.lock().get(&key).cloned(),
        };
        let (traj, created) = match live {
            Some(t) => (t, false),
            None => match snap {
                Some(snap) => {
                    // Integrity anchor before trusting any recorded
                    // scalar: the snapshot's base checkpoint must
                    // reproduce this session's own (just-computed) base
                    // requirement, II and memory-op count. This rejects
                    // foreign snapshots — wrong machine, options or
                    // spill heuristic — loudly and for free; tampering
                    // *within* a matching base is only caught when the
                    // record is replayed (or by the merge-level
                    // `--verify-against-sequential` gate).
                    if snap.base_regs != regs
                        || snap.base_ii != req_base.sched.ii()
                        || snap.base_mem_ops != l.memory_ops()
                    {
                        return Err(Self::fail(
                            l,
                            ncdrf_spill::SpillError::Snapshot(format!(
                                "imported base checkpoint records regs {} / II {} / {} mem \
                                 ops, this session computes {} / {} / {}",
                                snap.base_regs,
                                snap.base_ii,
                                snap.base_mem_ops,
                                regs,
                                req_base.sched.ii(),
                                l.memory_ops()
                            )),
                        ));
                    }
                    // In certify mode recorded scalars are never served
                    // directly: the shortcut below is skipped, so the
                    // snapshot is replayed (certifying every restored
                    // checkpoint) and the budget is answered from the
                    // live trajectory. The result and the cache counters
                    // are identical either way — a replayed-checkpoint
                    // serve recomputes no spill step and counts as the
                    // same trajectory hit.
                    if self.certifier.is_none() {
                        if let Some(k) = snap.first_fit(budget) {
                            self.traj_hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(self.eval_from_snapshot(l, model, budget, &snap, k));
                        }
                        if snap.exhausted && !self.opts.spill.escalate_ii {
                            // The recorded descent ended without fitting
                            // and there is no fallback: the terminal
                            // checkpoint is the honest (unfit) answer,
                            // exactly as the live path serves it.
                            self.traj_hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(self.eval_from_snapshot(
                                l,
                                model,
                                budget,
                                &snap,
                                snap.steps_recorded(),
                            ));
                        }
                    }
                    // This budget needs the descent extended (or the
                    // II-escalation fallback): replay the record into a
                    // live trajectory and resume below.
                    (self.materialize(l, model, &snap)?, false)
                }
                None => self.trajectory(l, model)?,
            },
        };
        let mut req = ModelRequirement::new(model, &self.opts);
        let (r, resume) = traj
            .lock()
            .evaluate(&self.machine, budget, &mut req)
            .map_err(|e| Self::fail(l, e))?;
        self.spill_steps
            .fetch_add(resume.steps_computed as u64, Ordering::Relaxed);
        if !created {
            if resume.steps_computed > 0 {
                self.traj_resumes.fetch_add(1, Ordering::Relaxed);
            } else if !resume.escalated {
                // An escalated call is served by the trajectory's
                // escalation ladder (and extends the ladder when no
                // recorded rung fits) even when it added no checkpoints;
                // counting it as a hit would misreport repeated
                // below-floor budgets as free.
                self.traj_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut eval = eval_from_spill(l, model, budget, &r);
        eval.ports = self.machine.memory_ports() as u32;
        self.certified(
            l,
            &r.l,
            &r.sched,
            &r.spilled,
            r.spill_stores,
            r.spill_loads,
            eval,
        )
    }

    /// [`Session::analyze`] over every loop of `corpus`, in parallel,
    /// preserving corpus order.
    ///
    /// # Errors
    ///
    /// Returns the first per-loop failure in corpus order.
    pub fn analyze_corpus(
        &self,
        corpus: &Corpus,
        model: ModelId,
    ) -> Result<Vec<LoopAnalysis>, PipelineError> {
        try_map_loops(corpus, |l| self.analyze(l, model))
    }

    /// [`Session::evaluate`] over every loop of `corpus`, in parallel,
    /// preserving corpus order.
    ///
    /// # Errors
    ///
    /// Returns the first per-loop failure in corpus order.
    pub fn evaluate_corpus(
        &self,
        corpus: &Corpus,
        model: ModelId,
        budget: u32,
    ) -> Result<Vec<LoopEval>, PipelineError> {
        try_map_loops(corpus, |l| self.evaluate(l, model, budget))
    }
}

/// Runs the fallible per-loop closure over a corpus on a fresh pool,
/// preserving corpus order and returning the first failure (a contained
/// worker panic surfaces as [`PipelineStage::Panic`], naming the loop).
fn try_map_loops<R, F>(corpus: &Corpus, f: F) -> Result<Vec<R>, PipelineError>
where
    R: Send,
    F: Fn(&Loop) -> Result<R, PipelineError> + Sync,
{
    let loops = corpus.loops();
    Pool::new()
        .run(loops.len(), |i| f(&loops[i]))
        .into_iter()
        .zip(loops)
        .map(|(r, l)| match r {
            Ok(per_loop) => per_loop,
            Err(p) => Err(PipelineError::panic(l.name(), p.message)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PAPER_FINITE_MODELS, PAPER_MODELS};
    use ncdrf_corpus::{kernels, Corpus};

    #[test]
    fn four_model_analysis_schedules_once() {
        let session = Session::new(Machine::clustered(3, 1));
        let l = kernels::livermore::hydro();
        for model in PAPER_MODELS {
            session.analyze(&l, model).unwrap();
        }
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 1, "one scheduling run for four models");
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn evaluate_reuses_the_analysis_schedule() {
        let session = Session::new(Machine::clustered(6, 1));
        let l = kernels::blas::daxpy();
        session.analyze(&l, ModelId::UNIFIED).unwrap();
        for model in PAPER_MODELS {
            session.evaluate(&l, model, 32).unwrap();
        }
        assert_eq!(session.cache_stats().misses, 1);
    }

    #[test]
    fn parallel_corpus_sweep_schedules_each_loop_once() {
        let corpus = Corpus::small().take(12);
        let session = Session::new(Machine::clustered(3, 1));
        for model in PAPER_FINITE_MODELS {
            let rows = session.analyze_corpus(&corpus, model).unwrap();
            // One row per loop, in corpus order.
            let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            let want: Vec<&str> = corpus.iter().map(|l| l.name()).collect();
            assert_eq!(names, want);
        }
        let stats = session.cache_stats();
        assert_eq!(stats.misses, corpus.len() as u64);
        assert_eq!(stats.hits, 2 * corpus.len() as u64);
    }

    #[test]
    fn session_evaluate_matches_uncached_evaluate() {
        let machine = Machine::clustered(6, 1);
        let session = Session::new(machine.clone());
        let opts = PipelineOptions::default();
        for l in Corpus::small().take(10).iter() {
            for model in PAPER_MODELS {
                for budget in [12, 64] {
                    let cached = session.evaluate(l, model, budget).unwrap();
                    let fresh =
                        crate::pipeline::evaluate(l, &machine, model, budget, &opts).unwrap();
                    assert_eq!(cached, fresh, "{} {model:?} @{budget}", l.name());
                }
            }
        }
    }

    #[test]
    fn repeated_swapped_analyses_count_as_hits() {
        let session = Session::new(Machine::clustered(6, 1));
        let l = kernels::livermore::hydro();
        session.analyze(&l, ModelId::SWAPPED).unwrap();
        // First request: one scheduling run, swap pass filled lazily.
        assert_eq!(
            session.cache_stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                ..CacheStats::default()
            }
        );
        session.analyze(&l, ModelId::SWAPPED).unwrap();
        session.analyze(&l, ModelId::SWAPPED).unwrap();
        // Each repeat is served entirely from the swapped cache and must
        // be visible as reuse, not invisible work.
        assert_eq!(
            session.cache_stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn budget_ladder_resumes_the_spill_trajectory() {
        let machine = Machine::clustered(6, 1);
        let session = Session::new(machine);
        let l = kernels::recurrences::chain8();
        let free = session.analyze(&l, ModelId::UNIFIED).unwrap().regs;
        assert!(free > 4, "chain8 should be pressured");

        // A descending budget ladder: the first rung creates and extends
        // the trajectory, every later rung hits or resumes it.
        let top = session.evaluate(&l, ModelId::UNIFIED, free - 1).unwrap();
        assert!(top.spilled > 0);
        let deepest = session.evaluate(&l, ModelId::UNIFIED, 4).unwrap();
        let between = session.evaluate(&l, ModelId::UNIFIED, free - 1).unwrap();
        assert_eq!(between, top, "checkpoint-served repeat is identical");
        let stats = session.cache_stats();
        assert_eq!(
            stats.traj_hits + stats.traj_resumes,
            2,
            "both follow-up rungs reused the trajectory"
        );
        assert!(stats.traj_hits >= 1, "the repeat rung was a pure hit");
        // The whole ladder computed exactly the deepest rung's steps.
        assert_eq!(stats.spill_steps, deepest.spilled as u64);

        // clear_cache drops the trajectory too: the same evaluation
        // recomputes its steps from zero.
        session.clear_cache();
        let again = session.evaluate(&l, ModelId::UNIFIED, 4).unwrap();
        assert_eq!(again, deepest);
        assert_eq!(
            session.cache_stats().spill_steps,
            2 * deepest.spilled as u64,
            "a cleared trajectory cache recomputes the descent"
        );
    }

    #[test]
    fn escalated_evaluations_are_not_counted_as_hits() {
        let session = Session::new(Machine::clustered(6, 1));
        let l = kernels::recurrences::chain8();
        // Budget 1 sits below the descent's floor: the trajectory
        // exhausts and every evaluation re-runs the per-budget
        // escalation scan.
        let first = session.evaluate(&l, ModelId::UNIFIED, 1).unwrap();
        let after_first = session.cache_stats();
        let second = session.evaluate(&l, ModelId::UNIFIED, 1).unwrap();
        assert_eq!(second, first);
        let after_second = session.cache_stats();
        // The repeat recomputed escalation work — neither a hit nor a
        // resume, and no new spill steps.
        assert_eq!(after_second.traj_hits, after_first.traj_hits);
        assert_eq!(after_second.traj_resumes, after_first.traj_resumes);
        assert_eq!(after_second.spill_steps, after_first.spill_steps);
        // A checkpoint-served budget still counts as a real hit.
        let free = session.analyze(&l, ModelId::UNIFIED).unwrap().regs;
        session.evaluate(&l, ModelId::UNIFIED, free - 1).unwrap();
        assert_eq!(session.cache_stats().traj_hits, after_second.traj_hits + 1);
    }

    #[test]
    fn trajectories_are_isolated_per_model() {
        let session = Session::new(Machine::clustered(6, 1));
        let l = kernels::recurrences::chain8();
        let e_uni = session.evaluate(&l, ModelId::UNIFIED, 4).unwrap();
        let before = session.cache_stats();
        // A different model neither hits nor resumes the unified
        // trajectory: it builds its own.
        session.evaluate(&l, ModelId::PARTITIONED, 4).unwrap();
        let after = session.cache_stats();
        assert_eq!(after.traj_hits, before.traj_hits);
        assert_eq!(after.traj_resumes, before.traj_resumes);
        // And the unified one is still intact: the deep budget repeats
        // identically, and a checkpoint-served budget is a pure hit.
        let repeat = session.evaluate(&l, ModelId::UNIFIED, 4).unwrap();
        assert_eq!(repeat, e_uni);
        let free = session.analyze(&l, ModelId::UNIFIED).unwrap().regs;
        let hits = session.cache_stats().traj_hits;
        session.evaluate(&l, ModelId::UNIFIED, free - 1).unwrap();
        assert_eq!(session.cache_stats().traj_hits, hits + 1);
    }

    #[test]
    fn imported_snapshots_serve_and_resume_across_sessions() {
        let machine = Machine::clustered(6, 1);
        let opts = PipelineOptions::default();
        let first = Session::new(machine.clone());
        let l = kernels::recurrences::chain8();
        let free = first.analyze(&l, ModelId::UNIFIED).unwrap().regs;
        assert!(free > 5, "chain8 should be pressured");
        let top = first.evaluate(&l, ModelId::UNIFIED, free - 1).unwrap();
        assert!(top.spilled > 0);
        let exported = first.export_trajectories();
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].loop_name, "chain8");
        assert_eq!(exported[0].model, ModelId::UNIFIED);

        // A fresh session importing the record serves the recorded
        // budget from the checkpoint scalars alone: bit-identical, no
        // spill step recomputed, counted as a trajectory hit.
        let second = Session::new(machine.clone());
        second.import_trajectories(exported.clone());
        let served = second.evaluate(&l, ModelId::UNIFIED, free - 1).unwrap();
        assert_eq!(served, top);
        let stats = second.cache_stats();
        assert_eq!(stats.spill_steps, 0);
        assert_eq!(stats.traj_hits, 1);
        assert_eq!(stats.traj_resumes, 0);

        // A deeper budget resumes the persisted descent: the replayed
        // prefix is not recounted, so the whole ladder costs fewer
        // steps than a from-scratch evaluation.
        let deep = second.evaluate(&l, ModelId::UNIFIED, 4).unwrap();
        let fresh = crate::pipeline::evaluate(&l, &machine, ModelId::UNIFIED, 4, &opts).unwrap();
        assert_eq!(deep, fresh);
        let stats = second.cache_stats();
        assert_eq!(stats.traj_resumes, 1);
        assert!(stats.spill_steps > 0);
        assert!(
            (stats.spill_steps as usize) < fresh.spilled,
            "resume must cost only the extension ({} vs {} from scratch)",
            stats.spill_steps,
            fresh.spilled
        );

        // The extended descent exports again; a third session serves
        // any budget the record reaches as a pure hit (zero recomputed
        // steps)...
        let third = Session::new(machine.clone());
        let exported = second.export_trajectories();
        let floor = exported[0].snapshot.min_regs();
        third.import_trajectories(exported);
        let at_floor = third.evaluate(&l, ModelId::UNIFIED, floor).unwrap();
        assert_eq!(
            at_floor,
            crate::pipeline::evaluate(&l, &machine, ModelId::UNIFIED, floor, &opts).unwrap()
        );
        assert_eq!(third.cache_stats().spill_steps, 0);
        assert_eq!(third.cache_stats().traj_hits, 1);
        // ...and a below-floor budget still answers bit-identically:
        // the imported record is materialised and the per-budget
        // escalation fallback recomputes, which — exactly like the live
        // path — is neither a hit nor a resume.
        assert_eq!(third.evaluate(&l, ModelId::UNIFIED, 4).unwrap(), fresh);
        assert_eq!(third.cache_stats().spill_steps, 0);
        assert_eq!(third.cache_stats().traj_hits, 1);
        assert_eq!(third.cache_stats().traj_resumes, 0);
    }

    #[test]
    fn corrupt_imported_snapshots_fail_loudly_on_materialisation() {
        let machine = Machine::clustered(6, 1);
        let first = Session::new(machine.clone());
        let l = kernels::recurrences::chain8();
        let free = first.analyze(&l, ModelId::UNIFIED).unwrap().regs;
        first.evaluate(&l, ModelId::UNIFIED, free - 1).unwrap();
        let mut exported = first.export_trajectories();
        for step in &mut exported[0].snapshot.steps {
            step.regs = step.regs.saturating_add(13);
        }

        let second = Session::new(machine.clone());
        second.import_trajectories(exported.clone());
        // Budget 4 fits no (doctored) checkpoint, so the session must
        // replay — and the replay must catch the corruption.
        let err = second.evaluate(&l, ModelId::UNIFIED, 4).unwrap_err();
        assert_eq!(err.loop_name, "chain8");
        assert!(
            err.to_string().contains("does not replay"),
            "snapshot corruption must be named: {err}"
        );

        // A foreign *base* checkpoint is rejected before any recorded
        // scalar is served, even for budgets a (doctored) step would
        // have answered without a replay.
        let mut foreign = exported;
        for t in &mut foreign {
            t.snapshot.base_regs += 1;
        }
        let third = Session::new(machine);
        third.import_trajectories(foreign);
        let err = third.evaluate(&l, ModelId::UNIFIED, free - 1).unwrap_err();
        assert_eq!(err.loop_name, "chain8");
        assert!(
            err.to_string().contains("base checkpoint"),
            "foreign base must be rejected at serve time: {err}"
        );
    }

    #[test]
    fn clear_cache_forces_rescheduling() {
        let session = Session::new(Machine::clustered(3, 1));
        let l = kernels::blas::dot();
        session.analyze(&l, ModelId::UNIFIED).unwrap();
        session.clear_cache();
        session.analyze(&l, ModelId::UNIFIED).unwrap();
        assert_eq!(session.cache_stats().misses, 2);
    }

    /// Driven model by model over a corpus, a session keeps the shared
    /// states of at most `OPEN_TREES` loops, and every result equals the
    /// one a session of that model alone gives.
    #[test]
    fn directly_driven_sessions_keep_a_bounded_number_of_trees_open() {
        let machine = Machine::clustered(3, 1);
        let corpus = Corpus::small().take(60);
        let models = [ModelId::UNIFIED, ModelId::PORT_LIMITED, ModelId::COMPRESSED];
        let session = Session::new(machine.clone());
        let open = |s: &Session| {
            let cache = s.cache.lock();
            let trees = cache.values().map(|e| e.tree.stats());
            trees.filter(|t| t.indexed > 0).count()
        };
        for model in models {
            let alone = Session::new(machine.clone());
            for budget in [16, 8] {
                for l in corpus.iter() {
                    let e = session.evaluate(l, model, budget).unwrap();
                    assert_eq!(e, alone.evaluate(l, model, budget).unwrap());
                    assert!(open(&session) <= OPEN_TREES);
                }
            }
        }
        let cache = session.cache.lock();
        let spilled = cache
            .values()
            .filter(|e| e.tree.stats().states_computed > 0);
        assert!(spilled.count() > OPEN_TREES, "the slice must spill");
        drop(cache);
        assert!(session.open.lock().len() <= OPEN_TREES);
    }

    #[test]
    fn base_failure_names_the_loop() {
        use ncdrf_machine::{FuClass, FuGroup};
        let no_adder = Machine::new(
            "NOADD",
            vec![
                FuGroup::unified(FuClass::Multiplier, 3, 2),
                FuGroup::unified(FuClass::MemPort, 1, 2),
            ],
            1,
        )
        .unwrap();
        let session = Session::new(no_adder);
        let l = kernels::blas::daxpy();
        let err = session.analyze(&l, ModelId::UNIFIED).unwrap_err();
        assert_eq!(err.loop_name, "daxpy");
        assert!(matches!(err.stage, PipelineStage::Schedule(_)));
    }
}
