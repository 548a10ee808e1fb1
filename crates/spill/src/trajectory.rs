//! Resumable spill trajectories: the §5.4 descent as a checkpointed,
//! budget-independent sequence.
//!
//! The spill loop's *path* — which value is spilled next, what the
//! rewritten loop and its schedule look like, what the requirement drops
//! to — depends only on the loop, the machine, the requirement function
//! and the [`SpillOptions`]; the register budget only decides **where
//! along that path the loop stops** (and whether the II-escalation
//! fallback runs once the path is exhausted). A multi-budget experiment
//! that re-runs [`crate::spill_until_fits`] per budget therefore redoes
//! the same rewrites: the budget-32 run retraces every step of the
//! budget-64 run before doing its own extra ones.
//!
//! A [`SpillTrajectory`] computes each step **once** and checkpoints it.
//! Evaluating a budget scans the checkpoints for the first one that fits
//! and only extends the trajectory when none does, so a descending
//! budget ladder (64 → 48 → 32 → 16) costs exactly the steps of the
//! deepest budget. [`SpillTrajectory::evaluate`] is bit-identical to
//! [`crate::spill_until_fits_seeded`] at every budget — the repository's
//! `trajectory_identity` differential suite and `proptest_spill`
//! property tests pin this, including via the `vliw` execution oracle.
//!
//! The states themselves belong to a [`DescentTree`], not to the
//! trajectory: the path also depends on the requirement only through
//! the schedule victims are picked from, so the trajectories of several
//! register models of one loop walk one tree, and each state, rung
//! schedule and memoised class requirement is computed once for all of
//! them (the `shared_descent` differential suite pins that sharing
//! changes no result).
//!
//! ```
//! use ncdrf_ddg::{LoopBuilder, Weight};
//! use ncdrf_machine::Machine;
//! use ncdrf_sched::modulo_schedule;
//! use ncdrf_spill::{requirement_unified, SpillOptions, SpillTrajectory};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = LoopBuilder::new("chain");
//! let x = b.array_in("x");
//! let z = b.array_out("z");
//! let l1 = b.load("L1", x, 0);
//! let l2 = b.load("L2", x, 1);
//! let m = b.mul("M", l1.now(), l2.now());
//! let a = b.add("A", m.now(), l1.now());
//! b.store("S", z, 0, a.now());
//! let lp = b.finish(Weight::default())?;
//!
//! let machine = Machine::clustered(6, 1);
//! let base = modulo_schedule(&lp, &machine)?;
//! let mut traj = SpillTrajectory::from_base(
//!     &lp, &machine, base, &mut requirement_unified, SpillOptions::default())?;
//! // A descending ladder: later budgets resume where earlier ones stopped.
//! let (r64, _) = traj.evaluate(&machine, 64, &mut requirement_unified)?;
//! let (r8, s8) = traj.evaluate(&machine, 8, &mut requirement_unified)?;
//! assert!(r64.fits && r8.fits);
//! assert!(r8.spilled.len() >= r64.spilled.len());
//! assert_eq!(s8.steps_computed, r8.spilled.len() - r64.spilled.len());
//! # Ok(())
//! # }
//! ```

use crate::descent::{DescentState, DescentTree};
use crate::escalation::{EscalationLadder, SpillTally};
use crate::spiller::{select_victim, Exclusion, Xorshift64};
use crate::{Requirement, SpillError, SpillOptions, SpillResult};
use ncdrf_ddg::{Loop, OpId};
use ncdrf_machine::Machine;
use ncdrf_sched::Schedule;
use std::sync::Arc;

/// Per-checkpoint certification hook for
/// [`SpillTrajectory::replay_with_checker`]: sees the step index (0 is
/// the unspilled base), the (rewritten) loop, the post-requirement
/// schedule and the requirement; an `Err` aborts the replay.
pub type CheckpointChecker<'a> =
    &'a mut dyn FnMut(usize, &Loop, &Schedule, u32) -> Result<(), String>;

/// The heavy state of a checkpoint: the descent state (shared with every
/// trajectory of the same tree that reached it) and this trajectory's
/// own post-requirement schedule. Retained only on the **record-minima
/// frontier** (see [`SpillCheckpoint::loop_state`]); every other
/// checkpoint keeps just its scalars.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointState {
    /// The state at this point of the descent.
    pub(crate) state: Arc<DescentState>,
    /// Its schedule, **after** the requirement ran (the swapped model's
    /// requirement applies the swap pass, and victim selection reads this
    /// post-requirement schedule — exactly as each round of the fresh
    /// driver does). The state's fresh schedule itself when the
    /// requirement does not rewrite it.
    sched: Arc<Schedule>,
}

impl PartialEq for CheckpointState {
    fn eq(&self, other: &Self) -> bool {
        self.state.l == other.state.l && self.sched == other.sched
    }
}

/// One committed step of a spill trajectory: the scalar record of the
/// loop after `k` spills, plus — on the record-minima frontier only —
/// the rewritten loop and schedule themselves.
///
/// The first-fit scan serves a budget from the *first* checkpoint whose
/// requirement fits, so any servable checkpoint is a **strict record
/// minimum** of the requirement sequence (every earlier checkpoint
/// demanded strictly more registers). Checkpoints off that frontier can
/// never be served; they drop their loop/schedule as soon as the descent
/// moves past them and keep only the scalars (which the snapshot format,
/// replay verification and per-step accounting still need). The
/// *terminal* checkpoint always retains state — it is the resume point
/// for deeper budgets and the base of the II-escalation fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillCheckpoint {
    /// Rewritten loop + schedule, on the frontier; pruned elsewhere.
    pub(crate) state: Option<CheckpointState>,
    /// Register requirement at this checkpoint.
    pub regs: u32,
    /// Initiation interval of this checkpoint's (post-requirement)
    /// schedule.
    pub ii: u32,
    /// Memory operations per iteration of the (rewritten) loop body.
    pub mem_ops: usize,
    /// The value spilled to reach this checkpoint (`None` for checkpoint
    /// zero, which is the unspilled loop).
    pub victim: Option<String>,
    /// Cumulative spill stores added up to and including this step.
    pub spill_stores: usize,
    /// Cumulative reload loads added up to and including this step.
    pub spill_loads: usize,
}

impl SpillCheckpoint {
    /// The rewritten loop, when this checkpoint retains it: checkpoints
    /// on the record-minima frontier (strict new lows the first-fit scan
    /// can serve — checkpoint 0 included) and the terminal checkpoint.
    /// `None` for interior checkpoints the scan can never serve.
    pub fn loop_state(&self) -> Option<&Loop> {
        self.state.as_ref().map(|s| &s.state.l)
    }

    /// The checkpoint's (post-requirement) schedule, under the same
    /// retention rule as [`SpillCheckpoint::loop_state`].
    pub fn schedule(&self) -> Option<&Schedule> {
        self.state.as_ref().map(|s| &*s.sched)
    }

    /// Whether this checkpoint retains its loop/schedule state.
    pub fn is_frontier(&self) -> bool {
        self.state.is_some()
    }

    /// The checkpoint `requirement` yields on `state`, reached from
    /// `prev` (`None` at the root) by spilling `victim`.
    fn reached(
        tree: &DescentTree,
        state: Arc<DescentState>,
        prev: Option<&SpillCheckpoint>,
        victim: Option<String>,
        requirement: &mut dyn Requirement,
    ) -> Result<SpillCheckpoint, SpillError> {
        let (class, regs) = tree.requirement(&state, &state.fresh, requirement)?;
        let (stores, loads) = prev.map_or((0, 0), |p| (p.spill_stores, p.spill_loads));
        Ok(SpillCheckpoint {
            regs,
            ii: class.sched.ii(),
            mem_ops: state.l.memory_ops(),
            victim,
            spill_stores: stores + state.stats.stores_added,
            spill_loads: loads + state.stats.loads_added,
            state: Some(CheckpointState {
                sched: Arc::clone(&class.sched),
                state,
            }),
        })
    }

    /// The retained state; only the frontier and terminal checkpoints
    /// are ever asked.
    fn retained(&self) -> &CheckpointState {
        self.state
            .as_ref()
            .expect("the frontier and terminal checkpoints retain their state")
    }
}

/// One step of a serialized trajectory: the victim choice plus the
/// scalar observations needed to *serve* the checkpoint (and to verify a
/// replay) without carrying the rewritten loop or its schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStep {
    /// Name of the value spilled at this step.
    pub victim: String,
    /// Register requirement after the step.
    pub regs: u32,
    /// Initiation interval of the step's (post-requirement) schedule.
    pub ii: u32,
    /// Memory operations per iteration of the rewritten loop body.
    pub mem_ops: usize,
    /// Cumulative spill stores added up to and including this step.
    pub spill_stores: usize,
    /// Cumulative reload loads added up to and including this step.
    pub spill_loads: usize,
}

/// A serializable checkpoint record of a [`SpillTrajectory`]: the victim
/// choices, served requirements and per-step scalars — **not** the
/// rewritten loops or schedules. Enough to
///
/// * answer any budget a recorded checkpoint fits, without recomputing
///   anything ([`TrajectorySnapshot::first_fit`] plus the step scalars
///   reproduce the evaluation result exactly), and
/// * resume the descent: [`SpillTrajectory::replay`] re-derives the full
///   checkpoint states by replaying the recorded victims (skipping
///   victim selection), verifying each step against the recorded
///   requirement, so deeper budgets extend instead of respilling from
///   zero.
///
/// The descent is budget-independent, so a snapshot taken under one
/// budget set serves any other; it is only tied to the loop, machine,
/// requirement model and [`SpillOptions`] it was recorded under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectorySnapshot {
    /// Requirement of checkpoint 0 (the unspilled loop on the base
    /// schedule).
    pub base_regs: u32,
    /// II of the base checkpoint's (post-requirement) schedule.
    pub base_ii: u32,
    /// Memory operations per iteration of the unspilled loop.
    pub base_mem_ops: usize,
    /// The committed spill steps, in descent order.
    pub steps: Vec<SnapshotStep>,
    /// Whether the descent had exhausted (no further victim, or
    /// `max_spills` reached) when the snapshot was taken.
    pub exhausted: bool,
    /// PRNG state after the last committed victim selection, so a
    /// resumed [`crate::SpillPolicy::Random`] descent draws the same
    /// stream a fresh run would.
    pub rng: u64,
}

impl TrajectorySnapshot {
    /// The first recorded checkpoint whose requirement fits `budget`
    /// (`0` is the base checkpoint, `k > 0` the `k`-th spill step) — the
    /// state a fresh spill run at that budget would stop at.
    pub fn first_fit(&self, budget: u32) -> Option<usize> {
        if self.base_regs <= budget {
            return Some(0);
        }
        self.steps
            .iter()
            .position(|s| s.regs <= budget)
            .map(|i| i + 1)
    }

    /// Number of recorded spill steps.
    pub fn steps_recorded(&self) -> usize {
        self.steps.len()
    }

    /// The smallest register requirement any recorded checkpoint
    /// reached.
    pub fn min_regs(&self) -> u32 {
        self.steps
            .iter()
            .map(|s| s.regs)
            .min()
            .map_or(self.base_regs, |m| m.min(self.base_regs))
    }
}

/// What a [`SpillTrajectory::evaluate`] call cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeStats {
    /// Spill steps this call appended to the trajectory. Zero means the
    /// trajectory did not move. The count is logical: a step whose state
    /// the [`DescentTree`] already held (another model's trajectory
    /// computed it) still counts here.
    pub steps_computed: usize,
    /// Whether the II-escalation fallback answered: the exhausted
    /// descent could not fit this budget, so the call was served from the
    /// trajectory's escalation ladder. The ladder's rungs are
    /// budget-independent and recorded once, and it is extended when no
    /// recorded rung fits. Such a call is *not* a pure checkpoint hit
    /// even when `steps_computed` is zero.
    pub escalated: bool,
}

/// A checkpointed, resumable run of the paper's §5.4 spill loop.
///
/// A trajectory walks a [`DescentTree`]: [`SpillTrajectory::from_base`]
/// gives it a private one, [`SpillTrajectory::in_tree`] lets the
/// trajectories of several register models of one loop share theirs.
/// [`evaluate`](Self::evaluate) any number of budgets in any order; every
/// step of the descent is taken at most once per trajectory, and at most
/// once per tree. Results are bit-identical to a fresh
/// [`crate::spill_until_fits_seeded`] per budget.
#[derive(Debug, Clone)]
pub struct SpillTrajectory {
    opts: SpillOptions,
    /// The states this trajectory walks, shared with every other
    /// trajectory of the same tree.
    tree: Arc<DescentTree>,
    /// Checkpoint `k` is the state after `k` spills; checkpoint 0 always
    /// exists (the unspilled loop on the seeded base schedule).
    checkpoints: Vec<SpillCheckpoint>,
    /// Values excluded from victim selection so far (spilled values and
    /// the reloads they introduced), exactly as the fresh driver tracks.
    excluded: Exclusion,
    /// PRNG state for [`crate::SpillPolicy::Random`], advanced once per
    /// committed victim selection so a resumed run draws the same stream
    /// a fresh run would.
    rng: Xorshift64,
    /// No further victim exists (or `max_spills` was reached): the
    /// descent cannot be extended, only escalated.
    exhausted: bool,
    /// The II-escalation rungs of the terminal state, created by the
    /// first escalated evaluation and shared by every later one (the
    /// terminal state no longer changes once the descent is exhausted).
    ladder: Option<EscalationLadder>,
    /// Victim-selection candidates, reused across extension steps.
    candidates: Vec<u32>,
}

impl SpillTrajectory {
    /// Starts a trajectory, on a private [`DescentTree`], from an
    /// already-computed base schedule of the unmodified loop (see
    /// [`crate::spill_until_fits_seeded`] for the seeding contract:
    /// `base` must be a schedule of `l` on `machine` under
    /// `opts.scheduler`).
    ///
    /// # Errors
    ///
    /// Returns [`SpillError::Machine`] when the requirement fails on the
    /// base schedule.
    pub fn from_base(
        l: &Loop,
        machine: &Machine,
        base: Schedule,
        requirement: &mut dyn Requirement,
        opts: SpillOptions,
    ) -> Result<SpillTrajectory, SpillError> {
        let tree = DescentTree::new(l.to_owned(), base, machine.clone(), opts.scheduler);
        SpillTrajectory::in_tree(&Arc::new(tree), requirement, opts)
    }

    /// Starts a trajectory at the root of a shared `tree`, on the tree's
    /// machine.
    ///
    /// # Errors
    ///
    /// Returns [`SpillError::Machine`] when the requirement fails on the
    /// base schedule.
    ///
    /// # Panics
    ///
    /// When `opts.scheduler` is not the tree's scheduler options.
    pub fn in_tree(
        tree: &Arc<DescentTree>,
        requirement: &mut dyn Requirement,
        opts: SpillOptions,
    ) -> Result<SpillTrajectory, SpillError> {
        assert_eq!(
            tree.scheduler(),
            opts.scheduler,
            "a trajectory schedules with its tree's scheduler options"
        );
        let root = Arc::clone(tree.root());
        let base = SpillCheckpoint::reached(tree, root, None, None, requirement)?;
        Ok(SpillTrajectory {
            opts,
            tree: Arc::clone(tree),
            checkpoints: vec![base],
            excluded: Exclusion::default(),
            rng: Xorshift64::for_policy(opts.policy),
            exhausted: false,
            ladder: None,
            candidates: Vec::new(),
        })
    }

    /// Serializes this trajectory's committed state into its
    /// checkpoint record: victim choices, served requirements and the
    /// per-step scalars — not the rewritten loops or schedules (see
    /// [`TrajectorySnapshot`]).
    pub fn snapshot(&self) -> TrajectorySnapshot {
        let base = &self.checkpoints[0];
        TrajectorySnapshot {
            base_regs: base.regs,
            base_ii: base.ii,
            base_mem_ops: base.mem_ops,
            steps: self.checkpoints[1..]
                .iter()
                .map(|c| SnapshotStep {
                    victim: c.victim.clone().expect("steps past 0 have victims"),
                    regs: c.regs,
                    ii: c.ii,
                    mem_ops: c.mem_ops,
                    spill_stores: c.spill_stores,
                    spill_loads: c.spill_loads,
                })
                .collect(),
            exhausted: self.exhausted,
            rng: self.rng.0,
        }
    }

    /// Rebuilds a live trajectory, on a private [`DescentTree`], from a
    /// persisted snapshot by *replaying* the recorded victims: each step
    /// re-runs the rewrite, reschedule and requirement — but not victim
    /// selection — and is verified against the recorded
    /// requirement/II/memory-op scalars, so a stale or foreign snapshot
    /// fails loudly instead of silently diverging. The restored
    /// trajectory is bit-identical to the one the snapshot was taken from
    /// and can be extended to deeper budgets exactly where the recorded
    /// descent left off.
    ///
    /// `l`, `base` and `opts` follow the [`SpillTrajectory::from_base`]
    /// seeding contract and must match what the snapshot was recorded
    /// under.
    ///
    /// # Errors
    ///
    /// [`SpillError::Snapshot`] when the snapshot does not replay on
    /// this loop (wrong base requirement, a recorded victim that no
    /// longer exists, or a step whose replayed scalars disagree);
    /// otherwise the usual scheduling/requirement errors of the replayed
    /// steps.
    pub fn replay(
        l: &Loop,
        machine: &Machine,
        base: Schedule,
        snapshot: &TrajectorySnapshot,
        requirement: &mut dyn Requirement,
        opts: SpillOptions,
    ) -> Result<SpillTrajectory, SpillError> {
        SpillTrajectory::replay_with_checker(l, machine, base, snapshot, requirement, opts, None)
    }

    /// [`SpillTrajectory::replay`] with an optional per-checkpoint
    /// certification hook: after each restored checkpoint passes the
    /// recorded-scalar verification, `checker` sees its step index (0 is
    /// the unspilled base), the (rewritten) loop, the post-requirement
    /// schedule and the requirement. A checker rejection aborts the
    /// replay as [`SpillError::Snapshot`], carrying the checker's
    /// message — the restored prefix is discarded, exactly as for a
    /// scalar mismatch.
    ///
    /// # Errors
    ///
    /// Everything [`SpillTrajectory::replay`] returns, plus checker
    /// rejections.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_with_checker(
        l: &Loop,
        machine: &Machine,
        base: Schedule,
        snapshot: &TrajectorySnapshot,
        requirement: &mut dyn Requirement,
        opts: SpillOptions,
        checker: Option<CheckpointChecker<'_>>,
    ) -> Result<SpillTrajectory, SpillError> {
        let tree = DescentTree::new(l.to_owned(), base, machine.clone(), opts.scheduler);
        SpillTrajectory::replay_in_tree(&Arc::new(tree), snapshot, requirement, opts, checker)
    }

    /// [`SpillTrajectory::replay_with_checker`] on a shared `tree`, on
    /// the tree's machine: replayed steps reuse every state the tree
    /// already holds.
    ///
    /// # Errors
    ///
    /// Everything [`SpillTrajectory::replay_with_checker`] returns.
    ///
    /// # Panics
    ///
    /// As [`SpillTrajectory::in_tree`].
    pub fn replay_in_tree(
        tree: &Arc<DescentTree>,
        snapshot: &TrajectorySnapshot,
        requirement: &mut dyn Requirement,
        opts: SpillOptions,
        mut checker: Option<CheckpointChecker<'_>>,
    ) -> Result<SpillTrajectory, SpillError> {
        let mut traj = SpillTrajectory::in_tree(tree, requirement, opts)?;
        let base_cp = &traj.checkpoints[0];
        if base_cp.regs != snapshot.base_regs {
            return Err(SpillError::Snapshot(format!(
                "base requirement is {}, the snapshot recorded {}",
                base_cp.regs, snapshot.base_regs
            )));
        }
        if let Some(c) = checker.as_mut() {
            let at = base_cp.retained();
            c(0, &at.state.l, &at.sched, base_cp.regs).map_err(SpillError::Snapshot)?;
        }
        for (i, step) in snapshot.steps.iter().enumerate() {
            let last = traj.checkpoints.last().expect("checkpoint 0 exists");
            let parent = Arc::clone(&last.retained().state);
            let victim = parent
                .l
                .iter_ops()
                .find(|(_, op)| op.name() == step.victim)
                .map(|(id, _)| id)
                .ok_or_else(|| {
                    SpillError::Snapshot(format!(
                        "step {}: no value named `{}` to respill",
                        i + 1,
                        step.victim
                    ))
                })?;
            let next = traj.tree.child(&parent, victim)?;
            let checkpoint = SpillCheckpoint::reached(
                &traj.tree,
                next,
                Some(last),
                Some(step.victim.clone()),
                requirement,
            )?;
            if checkpoint.regs != step.regs
                || checkpoint.ii != step.ii
                || checkpoint.mem_ops != step.mem_ops
            {
                return Err(SpillError::Snapshot(format!(
                    "step {} replays to regs {} / II {} / {} mem ops, the snapshot \
                     recorded {} / {} / {}",
                    i + 1,
                    checkpoint.regs,
                    checkpoint.ii,
                    checkpoint.mem_ops,
                    step.regs,
                    step.ii,
                    step.mem_ops
                )));
            }
            if let Some(c) = checker.as_mut() {
                let at = checkpoint.retained();
                c(i + 1, &at.state.l, &at.sched, checkpoint.regs).map_err(SpillError::Snapshot)?;
            }
            traj.commit(victim, checkpoint);
        }
        // The PRNG advanced once per committed selection in the recorded
        // run; the replay skipped selection, so restore the stream
        // directly. The exhausted flag is state, not derivable.
        traj.rng = Xorshift64(snapshot.rng);
        traj.exhausted = snapshot.exhausted;
        Ok(traj)
    }

    /// The committed checkpoints, from the unspilled loop onward.
    pub fn checkpoints(&self) -> &[SpillCheckpoint] {
        &self.checkpoints
    }

    /// Number of spill steps taken so far.
    pub fn steps(&self) -> usize {
        self.checkpoints.len() - 1
    }

    /// Whether the descent ran out of spillable values (or hit
    /// `max_spills`) — deeper budgets can only be served by the
    /// II-escalation fallback.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// The smallest register requirement any checkpoint reached.
    pub fn min_regs(&self) -> u32 {
        self.checkpoints
            .iter()
            .map(|c| c.regs)
            .min()
            .expect("checkpoint 0 always exists")
    }

    /// The options this trajectory was built with.
    pub fn options(&self) -> SpillOptions {
        self.opts
    }

    /// The first checkpoint whose requirement fits `budget` — the state
    /// a fresh spill run at that budget would stop at.
    fn first_fit(&self, budget: u32) -> Option<usize> {
        self.checkpoints.iter().position(|c| c.regs <= budget)
    }

    /// The spilled-value names up to checkpoint `k`, in spill order.
    fn spilled_names(&self, k: usize) -> Vec<String> {
        self.checkpoints[1..=k]
            .iter()
            .map(|c| c.victim.clone().expect("steps past 0 have victims"))
            .collect()
    }

    /// Materialises the [`SpillResult`] a fresh run stopping at
    /// checkpoint `k` would return. `rounds` is `k + 1`: the fresh
    /// driver runs one schedule/allocate round per state it visits.
    /// `k` is always a first-fit hit or the terminal checkpoint, both of
    /// which retain their state (see [`SpillCheckpoint::loop_state`]).
    fn result_at(&self, k: usize, budget: u32) -> SpillResult {
        let cp = &self.checkpoints[k];
        let at = cp.retained();
        SpillResult {
            l: at.state.l.to_owned(),
            sched: Schedule::to_owned(&at.sched),
            regs: cp.regs,
            fits: cp.regs <= budget,
            spilled: self.spilled_names(k),
            spill_stores: cp.spill_stores,
            spill_loads: cp.spill_loads,
            rounds: k + 1,
        }
    }

    /// Appends a checkpoint reached by spilling `victim`: excludes the
    /// victim and its reloads from later selection and prunes the
    /// checkpoint that stopped being terminal.
    fn commit(&mut self, victim: OpId, checkpoint: SpillCheckpoint) {
        self.excluded
            .spilled(victim, &checkpoint.retained().state.reloads);
        self.checkpoints.push(checkpoint);
        self.prune_interior();
    }

    /// Takes one more spill step, committing it only if the whole step
    /// (victim selection, rewrite, reschedule, requirement) succeeds.
    /// Returns `Ok(false)` when the descent is exhausted.
    ///
    /// A failing step leaves the trajectory exactly as it was — the
    /// committed prefix stays valid for budgets it already serves, and a
    /// retry deterministically repeats (and re-fails) the same step,
    /// matching what a fresh run at the same budget would do.
    fn advance(&mut self, requirement: &mut dyn Requirement) -> Result<bool, SpillError> {
        if self.exhausted {
            return Ok(false);
        }
        if self.steps() >= self.opts.max_spills {
            self.exhausted = true;
            return Ok(false);
        }
        // Work on a copy of the PRNG; commit at the end.
        let mut rng = self.rng;
        let last = self.checkpoints.last().expect("checkpoint 0 exists");
        let at = last.retained();
        let lts = self.tree.lifetimes(&at.state, &at.sched)?;
        let victim = select_victim(
            &at.state.l,
            &at.state.consumers,
            &lts,
            at.sched.ii(),
            &self.excluded,
            self.opts.policy,
            &mut rng,
            &mut self.candidates,
        );
        let Some(victim) = victim else {
            self.exhausted = true;
            return Ok(false);
        };
        let name = at.state.l.op(victim).name().to_owned();
        let next = self.tree.child(&at.state, victim)?;
        let checkpoint =
            SpillCheckpoint::reached(&self.tree, next, Some(last), Some(name), requirement)?;
        self.rng = rng;
        self.commit(victim, checkpoint);
        Ok(true)
    }

    /// Applies the retention rule to the checkpoint that just stopped
    /// being terminal: it keeps its loop/schedule only if it set a
    /// **strict** new requirement low (the first-fit scan picks the
    /// *first* fitting checkpoint, so a non-strict low can never be
    /// served — an earlier, equally-low checkpoint shadows it).
    /// Checkpoint 0 is always its own record minimum.
    fn prune_interior(&mut self) {
        let idx = self.checkpoints.len() - 2;
        if idx == 0 {
            return;
        }
        let prior_min = self.checkpoints[..idx]
            .iter()
            .map(|c| c.regs)
            .min()
            .expect("checkpoint 0 exists");
        if self.checkpoints[idx].regs >= prior_min {
            self.checkpoints[idx].state = None;
        }
    }

    /// Evaluates `budget`: serves it from the first fitting checkpoint,
    /// extending the trajectory only as far as this budget needs. When
    /// the descent exhausts without fitting, the fallback of the fresh
    /// driver answers: II escalation under [`SpillOptions::escalate_ii`]
    /// (served from the trajectory's rung ladder, which later budgets
    /// share), an honest unfit result otherwise.
    ///
    /// The returned [`SpillResult`] is bit-identical to
    /// [`crate::spill_until_fits_seeded`] with the same base schedule,
    /// requirement and options; [`ResumeStats`] reports how many steps
    /// this call appended.
    ///
    /// # Errors
    ///
    /// Exactly the errors the fresh driver would produce at this budget.
    /// A failed extension does not invalidate the committed prefix:
    /// other budgets (and other models' trajectories) are unaffected.
    ///
    /// # Panics
    ///
    /// When `machine` is not the machine of the trajectory's
    /// [`DescentTree`] (the one [`SpillTrajectory::from_base`] was given).
    pub fn evaluate(
        &mut self,
        machine: &Machine,
        budget: u32,
        requirement: &mut dyn Requirement,
    ) -> Result<(SpillResult, ResumeStats), SpillError> {
        let own = self.tree.machine();
        assert!(
            std::ptr::eq(machine, own) || machine == own,
            "a trajectory evaluates on its tree's machine"
        );
        let mut stats = ResumeStats::default();
        loop {
            if let Some(k) = self.first_fit(budget) {
                return Ok((self.result_at(k, budget), stats));
            }
            if !self.advance(requirement)? {
                break;
            }
            stats.steps_computed += 1;
        }
        // Exhausted and nothing fits: the fresh driver's fallback, served
        // from the terminal state's escalation ladder (budget-independent
        // rungs, recorded once and extended lazily).
        let terminal = self.checkpoints.len() - 1;
        if self.opts.escalate_ii {
            stats.escalated = true;
            let last = &self.checkpoints[terminal];
            let tally = SpillTally {
                spilled: self.spilled_names(terminal),
                spill_stores: last.spill_stores,
                spill_loads: last.spill_loads,
                rounds: terminal + 1,
            };
            let state = &last.retained().state;
            let ladder = self
                .ladder
                .get_or_insert_with(|| EscalationLadder::new(&self.tree, state));
            let r = ladder.serve(&self.tree, state, budget, requirement, tally)?;
            return Ok((r, stats));
        }
        Ok((self.result_at(terminal, budget), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{requirement_unified, spill_until_fits_seeded, SpillPolicy};
    use ncdrf_ddg::{LoopBuilder, Weight};
    use ncdrf_sched::modulo_schedule;

    /// High-pressure loop (mirrors the spiller's own test kernel).
    fn pressured() -> Loop {
        let mut b = LoopBuilder::new("pressured");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l1 = b.load("L1", x, 0);
        let l2 = b.load("L2", x, 1);
        let m1 = b.mul("M1", l1.now(), l2.now());
        let m2 = b.mul("M2", m1.now(), l1.now());
        let a1 = b.add("A1", m2.now(), l2.now());
        let a2 = b.add("A2", a1.now(), l1.now());
        b.store("S", z, 0, a2.now());
        b.finish(Weight::new(50, 2)).unwrap()
    }

    fn traj(l: &Loop, machine: &Machine, opts: SpillOptions) -> SpillTrajectory {
        let base = modulo_schedule(l, machine).unwrap();
        SpillTrajectory::from_base(l, machine, base, &mut requirement_unified, opts).unwrap()
    }

    /// A trajectory runs on its tree's machine and scheduler options; a
    /// caller cannot hand it others.
    #[test]
    #[should_panic(expected = "a trajectory evaluates on its tree's machine")]
    fn evaluating_on_another_machine_panics() {
        let l = pressured();
        let mut t = traj(&l, &Machine::clustered(6, 1), SpillOptions::default());
        let _ = t.evaluate(&Machine::clustered(3, 1), 8, &mut requirement_unified);
    }

    #[test]
    #[should_panic(expected = "a trajectory schedules with its tree's scheduler options")]
    fn joining_a_tree_with_other_scheduler_options_panics() {
        let (l, machine) = (pressured(), Machine::clustered(6, 1));
        let opts = SpillOptions::default();
        let base = modulo_schedule(&l, &machine).unwrap();
        let tree = DescentTree::new(l, base, machine, opts.scheduler);
        let mut other = opts;
        other.scheduler.budget_ratio += 1;
        let _ = SpillTrajectory::in_tree(&Arc::new(tree), &mut requirement_unified, other);
    }

    #[test]
    fn ladder_matches_fresh_at_every_rung() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions::default();
        let mut t = traj(&l, &machine, opts);
        for budget in [64, 12, 8, 6, 4, 2] {
            let (continued, _) = t
                .evaluate(&machine, budget, &mut requirement_unified)
                .unwrap();
            let base = modulo_schedule(&l, &machine).unwrap();
            let fresh =
                spill_until_fits_seeded(&l, &machine, base, budget, &mut requirement_unified, opts)
                    .unwrap();
            assert_eq!(continued, fresh, "budget {budget}");
        }
    }

    #[test]
    fn ascending_and_descending_orders_agree() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions::default();
        let budgets = [4, 6, 8, 12, 64];
        let mut down = traj(&l, &machine, opts);
        let mut up = traj(&l, &machine, opts);
        for &b in budgets.iter().rev() {
            let (rd, _) = down
                .evaluate(&machine, b, &mut requirement_unified)
                .unwrap();
            let (ru, _) = up.evaluate(&machine, b, &mut requirement_unified).unwrap();
            assert_eq!(rd, ru, "budget {b}");
        }
        for &b in &budgets {
            let (rd, sd) = down
                .evaluate(&machine, b, &mut requirement_unified)
                .unwrap();
            let (ru, su) = up.evaluate(&machine, b, &mut requirement_unified).unwrap();
            assert_eq!(rd, ru);
            assert_eq!(sd.steps_computed, 0, "everything already computed");
            assert_eq!(su.steps_computed, 0);
        }
    }

    #[test]
    fn descending_ladder_computes_each_step_once() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let mut t = traj(&l, &machine, SpillOptions::default());
        let mut total = 0;
        for budget in [64, 12, 8, 6] {
            let (r, s) = t
                .evaluate(&machine, budget, &mut requirement_unified)
                .unwrap();
            total += s.steps_computed;
            assert_eq!(r.spilled.len(), total, "steps accumulate, never repeat");
        }
        assert_eq!(t.steps(), total);
    }

    #[test]
    fn random_policy_resumes_the_same_stream() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions {
            policy: SpillPolicy::Random(0xfeed),
            ..SpillOptions::default()
        };
        let mut t = traj(&l, &machine, opts);
        for budget in [64, 10, 6, 4] {
            let (continued, _) = t
                .evaluate(&machine, budget, &mut requirement_unified)
                .unwrap();
            let base = modulo_schedule(&l, &machine).unwrap();
            let fresh =
                spill_until_fits_seeded(&l, &machine, base, budget, &mut requirement_unified, opts)
                    .unwrap();
            assert_eq!(continued, fresh, "budget {budget}");
        }
    }

    #[test]
    fn exhausted_descent_escalates_per_budget() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions::default();
        let mut t = traj(&l, &machine, opts);
        let (r, s) = t.evaluate(&machine, 1, &mut requirement_unified).unwrap();
        assert!(t.is_exhausted() || r.fits);
        let base = modulo_schedule(&l, &machine).unwrap();
        let fresh =
            spill_until_fits_seeded(&l, &machine, base, 1, &mut requirement_unified, opts).unwrap();
        assert_eq!(r, fresh);
        // A repeat of the below-floor budget is answered by the escalation
        // ladder (recomputing the served rung) and must say so — it is not
        // a checkpoint hit.
        if t.is_exhausted() {
            assert!(s.escalated);
            let (r2, s2) = t.evaluate(&machine, 1, &mut requirement_unified).unwrap();
            assert_eq!(r2, r);
            assert!(s2.escalated);
            assert_eq!(s2.steps_computed, 0);
        }
        // A later, larger budget is still served from the checkpoints.
        let (r64, s64) = t.evaluate(&machine, 64, &mut requirement_unified).unwrap();
        assert!(r64.fits);
        assert_eq!(s64.steps_computed, 0);
        assert!(!s64.escalated);
    }

    /// A fresh seeded spill run at `budget`: the reference every ladder
    /// answer must equal.
    fn fresh(l: &Loop, machine: &Machine, budget: u32, opts: SpillOptions) -> SpillResult {
        let base = modulo_schedule(l, machine).unwrap();
        spill_until_fits_seeded(l, machine, base, budget, &mut requirement_unified, opts).unwrap()
    }

    /// The budgets below the descent's floor: each one escalates.
    fn below_floor(l: &Loop, machine: &Machine, opts: SpillOptions) -> Vec<u32> {
        let mut t = traj(l, machine, opts);
        t.evaluate(machine, 0, &mut requirement_unified).unwrap();
        assert!(t.is_exhausted());
        (0..t.min_regs()).collect()
    }

    #[test]
    fn ladder_serves_below_floor_budgets_in_any_order() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions::default();
        let below = below_floor(&l, &machine, opts);
        assert!(below.len() >= 3, "floor too low to exercise the ladder");
        let descending: Vec<u32> = below.iter().rev().copied().collect();
        let repeated: Vec<u32> = below
            .iter()
            .chain(&descending)
            .chain(&below)
            .copied()
            .collect();
        for order in [descending, below.clone(), repeated] {
            let mut t = traj(&l, &machine, opts);
            for &budget in &order {
                let (served, stats) = t
                    .evaluate(&machine, budget, &mut requirement_unified)
                    .unwrap();
                assert!(stats.escalated, "budget {budget} is below the floor");
                assert_eq!(
                    served,
                    fresh(&l, &machine, budget, opts),
                    "budget {budget} in {order:?}"
                );
            }
        }
    }

    #[test]
    fn ladder_with_nothing_fitting_serves_the_fresh_result_twice() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions::default();
        let expected = fresh(&l, &machine, 0, opts);
        assert!(!expected.fits);
        let mut t = traj(&l, &machine, opts);
        for _ in 0..2 {
            let (served, stats) = t.evaluate(&machine, 0, &mut requirement_unified).unwrap();
            assert!(stats.escalated);
            assert_eq!(served, expected);
        }
    }

    #[test]
    fn ladder_computes_each_rung_once() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions::default();
        let floor = *below_floor(&l, &machine, opts).last().unwrap() + 1;
        let mut t = traj(&l, &machine, opts);
        // Evaluates `budget`, returning the result and the II of every
        // schedule the requirement function saw.
        let counted = |t: &mut SpillTrajectory, budget: u32| {
            let mut seen = Vec::new();
            let mut counting = |l: &Loop, m: &Machine, s: &mut Schedule| {
                seen.push(s.ii());
                requirement_unified(l, m, s)
            };
            let (r, _) = t.evaluate(&machine, budget, &mut counting).unwrap();
            (r, seen)
        };
        let (first, _) = counted(&mut t, floor - 1);
        assert!(first.fits && first.regs > 0);
        // A smaller budget the first fit cannot serve computes only the
        // rungs above it, in order, and stops at the one it serves.
        let second_budget = first.regs - 1;
        let (second, seen) = counted(&mut t, second_budget);
        assert_eq!(second, fresh(&l, &machine, second_budget, opts));
        assert!(!seen.is_empty());
        assert!(seen.iter().all(|&ii| ii > first.sched.ii()), "{seen:?}");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
        assert_eq!(seen.last(), Some(&second.sched.ii()));
        // A repeated budget recomputes only the rung it serves.
        let (again, seen) = counted(&mut t, second_budget);
        assert_eq!(again, second);
        assert_eq!(seen, [second.sched.ii()]);
        // So does the first budget, from its recorded rung.
        let (first_again, seen) = counted(&mut t, floor - 1);
        assert_eq!(first_again, first);
        assert_eq!(seen, [first.sched.ii()]);
    }

    #[test]
    fn no_escalation_reports_unfit_like_fresh() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions {
            escalate_ii: false,
            ..SpillOptions::default()
        };
        let mut t = traj(&l, &machine, opts);
        let (r, _) = t.evaluate(&machine, 1, &mut requirement_unified).unwrap();
        let base = modulo_schedule(&l, &machine).unwrap();
        let fresh =
            spill_until_fits_seeded(&l, &machine, base, 1, &mut requirement_unified, opts).unwrap();
        assert_eq!(r, fresh);
        assert!(!r.fits);
    }

    #[test]
    fn snapshot_replays_to_a_bit_identical_trajectory() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions::default();
        let mut t = traj(&l, &machine, opts);
        t.evaluate(&machine, 6, &mut requirement_unified).unwrap();
        let snap = t.snapshot();
        assert_eq!(snap.steps.len(), t.steps());
        assert_eq!(snap.min_regs(), t.min_regs());

        let base = modulo_schedule(&l, &machine).unwrap();
        let restored =
            SpillTrajectory::replay(&l, &machine, base, &snap, &mut requirement_unified, opts)
                .unwrap();
        assert_eq!(restored.checkpoints(), t.checkpoints());
        assert_eq!(restored.is_exhausted(), t.is_exhausted());
        // The restored descent serves and extends exactly like the
        // original: every rung matches a fresh run.
        let mut restored = restored;
        for budget in [12, 6, 4, 2] {
            let (continued, _) = restored
                .evaluate(&machine, budget, &mut requirement_unified)
                .unwrap();
            let seed = modulo_schedule(&l, &machine).unwrap();
            let fresh =
                spill_until_fits_seeded(&l, &machine, seed, budget, &mut requirement_unified, opts)
                    .unwrap();
            assert_eq!(continued, fresh, "budget {budget}");
        }
    }

    #[test]
    fn replay_resumes_the_random_policy_stream() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions {
            policy: SpillPolicy::Random(0xbead),
            ..SpillOptions::default()
        };
        let mut t = traj(&l, &machine, opts);
        t.evaluate(&machine, 8, &mut requirement_unified).unwrap();
        let snap = t.snapshot();
        let base = modulo_schedule(&l, &machine).unwrap();
        let mut restored =
            SpillTrajectory::replay(&l, &machine, base, &snap, &mut requirement_unified, opts)
                .unwrap();
        // Extending past the snapshot draws the same random victims a
        // fresh run would.
        let (continued, _) = restored
            .evaluate(&machine, 2, &mut requirement_unified)
            .unwrap();
        let seed = modulo_schedule(&l, &machine).unwrap();
        let fresh =
            spill_until_fits_seeded(&l, &machine, seed, 2, &mut requirement_unified, opts).unwrap();
        assert_eq!(continued, fresh);
    }

    #[test]
    fn first_fit_on_the_snapshot_matches_the_trajectory() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let mut t = traj(&l, &machine, SpillOptions::default());
        t.evaluate(&machine, 4, &mut requirement_unified).unwrap();
        let snap = t.snapshot();
        for budget in [0, 2, 4, 6, 8, 12, 64] {
            assert_eq!(snap.first_fit(budget), t.first_fit(budget), "{budget}");
        }
    }

    #[test]
    fn corrupt_snapshots_fail_replay_loudly() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions::default();
        let mut t = traj(&l, &machine, opts);
        t.evaluate(&machine, 6, &mut requirement_unified).unwrap();
        let snap = t.snapshot();
        assert!(!snap.steps.is_empty());
        let base = || modulo_schedule(&l, &machine).unwrap();

        // A foreign base requirement.
        let mut wrong_base = snap.clone();
        wrong_base.base_regs += 1;
        let err = SpillTrajectory::replay(
            &l,
            &machine,
            base(),
            &wrong_base,
            &mut requirement_unified,
            opts,
        )
        .unwrap_err();
        assert!(matches!(err, SpillError::Snapshot(_)), "{err}");

        // A victim that does not exist.
        let mut wrong_victim = snap.clone();
        wrong_victim.steps[0].victim = "NOPE".into();
        let err = SpillTrajectory::replay(
            &l,
            &machine,
            base(),
            &wrong_victim,
            &mut requirement_unified,
            opts,
        )
        .unwrap_err();
        assert!(err.to_string().contains("NOPE"), "{err}");

        // A step whose recorded requirement disagrees with the replay.
        let mut wrong_regs = snap.clone();
        wrong_regs.steps[0].regs += 7;
        let err = SpillTrajectory::replay(
            &l,
            &machine,
            base(),
            &wrong_regs,
            &mut requirement_unified,
            opts,
        )
        .unwrap_err();
        assert!(matches!(err, SpillError::Snapshot(_)), "{err}");
    }

    #[test]
    fn only_the_frontier_retains_loop_state() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let mut t = traj(&l, &machine, SpillOptions::default());
        t.evaluate(&machine, 2, &mut requirement_unified).unwrap();
        let cps = t.checkpoints();
        let mut min = u32::MAX;
        for (k, c) in cps.iter().enumerate() {
            let record = c.regs < min;
            min = min.min(c.regs);
            let terminal = k == cps.len() - 1;
            assert_eq!(
                c.is_frontier(),
                record || terminal,
                "checkpoint {k}: regs {} against prior min",
                c.regs
            );
            assert_eq!(c.loop_state().is_some(), c.is_frontier());
            assert_eq!(c.schedule().is_some(), c.is_frontier());
        }
        // Every budget is still served bit-identically from the pruned
        // trajectory (first-fit only ever lands on the frontier).
        let opts = SpillOptions::default();
        for budget in [64, 12, 8, 6, 4, 2] {
            let (continued, _) = t
                .evaluate(&machine, budget, &mut requirement_unified)
                .unwrap();
            let base = modulo_schedule(&l, &machine).unwrap();
            let fresh =
                spill_until_fits_seeded(&l, &machine, base, budget, &mut requirement_unified, opts)
                    .unwrap();
            assert_eq!(continued, fresh, "budget {budget}");
        }
    }

    #[test]
    fn max_spills_caps_the_trajectory() {
        let l = pressured();
        let machine = Machine::clustered(6, 1);
        let opts = SpillOptions {
            max_spills: 2,
            escalate_ii: false,
            ..SpillOptions::default()
        };
        let mut t = traj(&l, &machine, opts);
        let (r, _) = t.evaluate(&machine, 1, &mut requirement_unified).unwrap();
        assert!(r.spilled.len() <= 2);
        assert!(t.steps() <= 2);
        assert!(t.is_exhausted());
    }
}
