//! The descent tree: the spill states of one loop, computed once and
//! shared by every trajectory that walks them.
//!
//! Of the four parts of a §5.4 spill step — victim choice, rewrite,
//! reschedule, requirement — only the requirement reads the register
//! model. The rewrite depends on the parent loop and the victim alone,
//! and the reschedule runs from scratch on the rewritten loop, so the
//! state a step reaches is a function of `(parent state, victim)`.
//! Trajectories of different models over the same loop (one
//! [`DescentTree`] per loop) therefore walk the same states and differ
//! only in where they stop.
//!
//! Each [`DescentState`] holds what no model changes: the rewritten
//! loop, its fresh (pre-requirement) schedule, the step's reloads and
//! rewrite stats, and the schedules of its II-escalation rungs. Every
//! schedule also memoises the class part of the requirement — lifetimes
//! and raw allocation — per [`ClassKey`], so the models of one class
//! (say `unified`, `port-limited` and `compressed`) allocate each state
//! and rung once and differ only in their [`Requirement::effective`]
//! hook. A requirement without a class (every plain closure) is
//! recomputed on each call and never memoised.
//!
//! A rung may also hold the class's lower bound
//! ([`Requirement::bound`]), memoised next to the class memo. An
//! escalation ladder asks `DescentTree::requirement_within` whether a
//! rung can fit a budget; when the bound, through the model's monotone
//! hook, already exceeds it, the rung is settled as at-least-the-bound
//! with no allocation. A bound never enters the class memo.
//!
//! Classes and bounds read their inputs through a [`ClassInput`]. Each
//! state builds its loop's consumer lists once, and each schedule (fresh
//! or rung) carries its [`ScheduleFacts`]: the value lifetimes and
//! their First-Fit placement order, filled by the first class or bound
//! that reads them. The unified, partitioned and swapped classes, a
//! bound and victim choice on one schedule therefore share one lifetime
//! computation and one placement order; the swap pass rebinds units
//! only, so the swapped classes read the facts of the schedule they
//! swapped.
//!
//! A rung is *flat* when its IMS attempt was flat (its schedule is, up to
//! its II, the schedule of every higher II; see `ncdrf_sched`'s
//! [`Rung`]) and the loop reads no register operand of an earlier
//! iteration, so every lifetime ends by the rung's II at every higher II
//! too. The class contract of [`Requirement`] then makes the class part
//! the same on every rung above a flat one, which lets an escalation
//! ladder record that tail without scheduling it.
//!
//! A tree owns a small pool of scheduler contexts. The fresh schedule of
//! every new state and every escalation serve's analysed loop borrow one
//! and return it, so a descent sizes the scheduler's arenas once, not
//! once per state. A context rebuilds its state from each loop it is
//! given, so a borrowed one schedules exactly what a fresh one does. The
//! pool never holds more contexts than were borrowed at once, a release
//! empties it, and a tree that never spills holds none: the base schedule
//! is computed before the tree, so a session that caches the trees of a
//! whole corpus keeps no context per loop.
//!
//! States are keyed by their parent's tree-local id, never by a loop
//! name, so two loops that share a name cannot share states. A tree owns
//! the machine and the scheduler options its states are built with, so
//! no caller can hand a trajectory of the tree a different pair.
//! [`DescentTree::release`] drops the index and every memo except the
//! root's class memo and base lifetimes — on indexed states and on the
//! states trajectories still retain alike; trajectories keep the states
//! they retain (their record-minima frontier and terminal checkpoint)
//! alive on their own.

use crate::rewrite::{rewrite, RewriteStats};
use crate::SpillError;
use ncdrf_ddg::{Consumers, Loop, OpId};
use ncdrf_machine::{Machine, MachineError};
use ncdrf_regalloc::{lifetimes_into, Lifetime, PlacementOrder};
use ncdrf_sched::{PreparedLoop, Rung, SchedContext, Schedule, ScheduleError, SchedulerOptions};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// The memo key of an allocation class. Two requirements that report the
/// same key must compute the same [`ClassRequirement`] on every loop and
/// schedule of a tree; the tree then computes it once per schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassKey(pub u32);

/// The class part of a register requirement on one schedule: the schedule
/// the class allocated (rewritten by classes such as the swap pass), its
/// value lifetimes and the raw register count.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRequirement {
    /// The post-requirement schedule: the input schedule itself for
    /// classes that do not rewrite it. Victim selection reads it.
    pub sched: Arc<Schedule>,
    /// Value lifetimes of `sched` (empty when the class does not expose
    /// them), shared with the schedule's [`ScheduleFacts`].
    pub lifetimes: Arc<[Lifetime]>,
    /// The raw (pre-hook) requirement.
    pub raw: u32,
}

/// The allocation facts of one schedule: its value lifetimes and their
/// First-Fit placement order, each computed on first use and shared by
/// every class allocated on the schedule. A swap pass only rebinds
/// units, so the facts of a schedule are also those of its swapped copy.
#[derive(Debug, Default)]
pub struct ScheduleFacts {
    lifetimes: Mutex<Option<Arc<[Lifetime]>>>,
    order: Mutex<Option<Arc<PlacementOrder>>>,
}

impl ScheduleFacts {
    /// Forgets the placement order, and the lifetimes too unless
    /// `keep_lifetimes`.
    fn forget(&self, keep_lifetimes: bool) {
        *lock(&self.order) = None;
        if !keep_lifetimes {
            *lock(&self.lifetimes) = None;
        }
    }
}

/// What a [`Requirement`] allocates on: a schedule of a loop, the loop's
/// consumer lists and the schedule's [`ScheduleFacts`]. A descent tree
/// builds the consumer lists once per state and the facts once per
/// schedule, so every class and bound on a schedule reads the same ones.
#[derive(Debug, Clone, Copy)]
pub struct ClassInput<'a> {
    /// The loop.
    pub l: &'a Loop,
    /// The machine `sched` was built for.
    pub machine: &'a Machine,
    /// A schedule of `l` on `machine`.
    pub sched: &'a Arc<Schedule>,
    /// The consumer lists of `l` (see [`Loop::consumers`]).
    pub consumers: &'a Consumers,
    facts: &'a ScheduleFacts,
}

impl<'a> ClassInput<'a> {
    /// The input for `sched`. `consumers` must be `l.consumers()`, and
    /// `facts` empty or filled on this same schedule.
    pub fn new(
        l: &'a Loop,
        machine: &'a Machine,
        sched: &'a Arc<Schedule>,
        consumers: &'a Consumers,
        facts: &'a ScheduleFacts,
    ) -> Self {
        ClassInput {
            l,
            machine,
            sched,
            consumers,
            facts,
        }
    }

    /// The value lifetimes of `sched`, computed on the first call.
    ///
    /// # Errors
    ///
    /// [`MachineError`] when the machine cannot serve the loop; nothing
    /// is kept, so a later call fails the same way.
    pub fn lifetimes(&self) -> Result<Arc<[Lifetime]>, MachineError> {
        let mut slot = lock(&self.facts.lifetimes);
        if let Some(lts) = &*slot {
            return Ok(Arc::clone(lts));
        }
        let mut lts = Vec::new();
        lifetimes_into(self.l, self.machine, self.sched, self.consumers, &mut lts)?;
        Ok(Arc::clone(slot.insert(lts.into())))
    }

    /// The placement order of [`ClassInput::lifetimes`] at the II of
    /// `sched`, built on the first call.
    ///
    /// # Errors
    ///
    /// The error of [`ClassInput::lifetimes`].
    pub fn order(&self) -> Result<Arc<PlacementOrder>, MachineError> {
        let lts = self.lifetimes()?;
        let mut slot = lock(&self.facts.order);
        let order =
            slot.get_or_insert_with(|| Arc::new(PlacementOrder::new(&lts, self.sched.ii())));
        Ok(Arc::clone(order))
    }
}

/// A register requirement split into a memoisable class part and a
/// per-model hook.
///
/// Every `FnMut(&Loop, &Machine, &mut Schedule) -> Result<u32,
/// MachineError>` closure is a requirement: an unshared class (no
/// [`ClassKey`]) whose result is recomputed on each call, with the
/// identity hook.
pub trait Requirement {
    /// The allocation class whose result the tree may memoise and share,
    /// or `None` when nothing may be memoised.
    ///
    /// A requirement with a class also promises that its class part —
    /// `raw` and `lifetimes`, and its errors — is the same on two
    /// schedules of a loop that differ only in II when every lifetime
    /// ends by the smaller II. An escalation ladder relies on it to
    /// record the rungs above a flat rung without scheduling them; a
    /// requirement without a class scans every rung.
    fn class(&self) -> Option<ClassKey>;

    /// The class part on `input.sched`.
    ///
    /// # Errors
    ///
    /// [`MachineError`] when the machine cannot serve the loop.
    fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError>;

    /// The model's requirement from its class result. Must be a pure
    /// function of its arguments, monotone non-decreasing in
    /// `class.raw`: applied to a [`Requirement::bound`] it then bounds
    /// the model's requirement from below. Must also be non-increasing
    /// in the II of `class.sched` for a fixed `raw` and fixed lifetimes:
    /// on the rungs above a flat rung, whose class parts are equal, the
    /// last rung's requirement is then the least.
    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32;

    /// A lower bound on the class part on `input.sched`, cheaper than
    /// [`Requirement::allocate`]: its `sched` and `lifetimes` are exactly
    /// what `allocate` returns, and its `raw` is at most `allocate`'s.
    /// `None` (the default) when the class has no such bound. Must fail
    /// exactly when `allocate` fails on the same input, with the same
    /// error, so a ladder that skips a rung on its bound fails where an
    /// allocating one would.
    ///
    /// # Errors
    ///
    /// [`MachineError`] when the machine cannot serve the loop.
    fn bound(&mut self, input: &ClassInput<'_>) -> Result<Option<ClassRequirement>, MachineError> {
        let _ = input;
        Ok(None)
    }
}

/// A requirement as far as it is known: exact, or bounded from below by
/// a floor that already exceeds the budget asked about — a
/// [`Requirement::bound`], or the end rung's requirement for a rung an
/// escalation ladder skipped above a flat rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Regs {
    Exact(u32),
    AtLeast(u32),
}

/// A requirement settled against a budget: exact, with its class part,
/// or a lower bound above the budget.
pub(crate) enum Settled {
    Exact(Arc<ClassRequirement>, u32),
    AtLeast(u32),
}

impl<F> Requirement for F
where
    F: FnMut(&Loop, &Machine, &mut Schedule) -> Result<u32, MachineError>,
{
    fn class(&self) -> Option<ClassKey> {
        None
    }

    fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError> {
        let mut sched = Schedule::clone(input.sched);
        let raw = self(input.l, input.machine, &mut sched)?;
        Ok(ClassRequirement {
            sched: Arc::new(sched),
            lifetimes: Arc::new([]),
            raw,
        })
    }

    fn effective(&mut self, _l: &Loop, class: &ClassRequirement) -> u32 {
        class.raw
    }
}

/// Locks a tree mutex. Every critical section only reads or inserts
/// finished values, so a panicking holder leaves consistent data behind.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Class results memoised on one schedule, one per [`ClassKey`].
type ClassMemo = Mutex<Vec<(ClassKey, Arc<ClassRequirement>)>>;

fn find(memo: &ClassMemo, key: ClassKey) -> Option<Arc<ClassRequirement>> {
    lock(memo)
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, c)| Arc::clone(c))
}

/// A schedule, its allocation facts and the class requirements memoised
/// on it.
#[derive(Debug)]
pub(crate) struct Scheduled {
    pub(crate) sched: Arc<Schedule>,
    /// Lifetimes and placement order, filled by the first class or bound
    /// that reads them.
    facts: ScheduleFacts,
    /// Whether this is a flat rung (see the module docs): every higher
    /// II schedules the same starts and units, and every lifetime ends
    /// by this II. Never set on a fresh schedule.
    pub(crate) flat: bool,
    classes: ClassMemo,
    /// Class lower bounds ([`Requirement::bound`]) of classes with no
    /// exact entry in `classes` yet; never read as exact.
    bounds: ClassMemo,
}

impl Scheduled {
    fn new(sched: Schedule, flat: bool) -> Scheduled {
        Scheduled {
            sched: Arc::new(sched),
            facts: ScheduleFacts::default(),
            flat,
            classes: Mutex::default(),
            bounds: Mutex::default(),
        }
    }

    fn memoised(&self, key: ClassKey) -> Option<Arc<ClassRequirement>> {
        find(&self.classes, key)
    }
}

/// One state of a descent: the loop after some spills, and everything
/// computed on it that no register model changes.
#[derive(Debug)]
pub(crate) struct DescentState {
    /// Tree-local identity, the parent half of a child's key.
    id: u64,
    /// The (rewritten) loop.
    pub(crate) l: Loop,
    /// Its consumer lists, shared by every schedule of the state.
    pub(crate) consumers: Consumers,
    /// Its fresh schedule, before any requirement ran.
    pub(crate) fresh: Scheduled,
    /// The reloads the step into this state introduced (none at the
    /// root).
    pub(crate) reloads: Vec<OpId>,
    /// What the step into this state added (zero at the root).
    pub(crate) stats: RewriteStats,
    /// II-escalation rungs by II: the rung's schedule, or `None` when
    /// the loop does not schedule at that II.
    rungs: Mutex<BTreeMap<u32, Option<Arc<Scheduled>>>>,
    /// Whether the tree's memo list holds this state (it holds every
    /// state with a rung or a class memo).
    listed: AtomicBool,
}

impl DescentState {
    fn new(id: u64, l: Loop, fresh: Schedule, reloads: Vec<OpId>, stats: RewriteStats) -> Self {
        DescentState {
            id,
            consumers: l.consumers(),
            l,
            fresh: Scheduled::new(fresh, false),
            reloads,
            stats,
            rungs: Mutex::default(),
            listed: AtomicBool::new(false),
        }
    }
}

/// Computed-versus-reused counts of a [`DescentTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DescentStats {
    /// Spill steps whose state this tree computed (rewrite + reschedule).
    pub states_computed: u64,
    /// Spill steps served from a state the tree already held.
    pub states_reused: u64,
    /// Escalation rungs scheduled.
    pub rungs_computed: u64,
    /// Escalation rungs served from the rung table.
    pub rungs_reused: u64,
    /// Escalation rungs a ladder recorded without scheduling them: the
    /// tail above a flat rung that cannot fit its budget.
    pub rungs_skipped: u64,
    /// Class requirements computed (every call of an unshared class
    /// counts here).
    pub classes_computed: u64,
    /// Class requirements served from a memo.
    pub classes_reused: u64,
    /// Rung requirements settled by a class lower bound above the
    /// budget, with no allocation.
    pub classes_bounded: u64,
    /// States the index holds right now (the root is not counted).
    pub indexed: u64,
}

impl DescentStats {
    /// Accumulates another tree's counts.
    pub fn absorb(&mut self, other: DescentStats) {
        self.states_computed += other.states_computed;
        self.states_reused += other.states_reused;
        self.rungs_computed += other.rungs_computed;
        self.rungs_reused += other.rungs_reused;
        self.rungs_skipped += other.rungs_skipped;
        self.classes_computed += other.classes_computed;
        self.classes_reused += other.classes_reused;
        self.classes_bounded += other.classes_bounded;
        self.indexed += other.indexed;
    }
}

#[derive(Debug, Default)]
struct Index {
    /// The id the next computed state takes; never reused, so a key
    /// cannot name a dropped state's successor.
    next_id: u64,
    children: HashMap<(u64, OpId), Arc<DescentState>>,
}

#[derive(Debug, Default)]
struct Counters {
    states_computed: AtomicU64,
    states_reused: AtomicU64,
    rungs_computed: AtomicU64,
    rungs_reused: AtomicU64,
    rungs_skipped: AtomicU64,
    classes_computed: AtomicU64,
    classes_reused: AtomicU64,
    classes_bounded: AtomicU64,
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Scheduler contexts a tree lends to its scheduling (see the module
/// docs).
#[derive(Debug, Default)]
struct Contexts(Mutex<Vec<SchedContext>>);

impl Contexts {
    /// A pooled context, or a fresh one when all are lent.
    fn take(&self) -> SchedContext {
        lock(&self.0).pop().unwrap_or_default()
    }

    /// Returns a context to the pool.
    fn put(&self, ctx: SchedContext) {
        lock(&self.0).push(ctx);
    }

    /// Schedules `l` on a pooled context; a failed schedule returns the
    /// context too, since every call rebuilds its state.
    fn schedule(
        &self,
        l: &Loop,
        machine: &Machine,
        opts: SchedulerOptions,
    ) -> Result<Schedule, ScheduleError> {
        let mut ctx = self.take();
        let sched = ctx.schedule(l, machine, opts);
        self.put(ctx);
        sched
    }
}

/// The shared spill descent of one loop: its unspilled root state and an
/// index of every state reached from it, keyed by `(parent, victim)`.
///
/// Computation runs outside the locks; when two threads race on one
/// state the first insert wins (both results are identical — every part
/// of a state is deterministic).
#[derive(Debug)]
pub struct DescentTree {
    machine: Machine,
    scheduler: SchedulerOptions,
    root: Arc<DescentState>,
    index: Mutex<Index>,
    /// Every state holding a rung, a class memo or allocation facts,
    /// indexed or not, so [`DescentTree::release`] reaches the memos of
    /// states only a trajectory still holds.
    memoised: Mutex<Vec<Weak<DescentState>>>,
    counters: Counters,
    contexts: Contexts,
}

impl DescentTree {
    /// A tree rooted at the unspilled `l` with its base schedule. `base`
    /// must be a schedule of `l` on `machine` produced with `scheduler`
    /// (the seeding contract of [`crate::spill_until_fits_seeded`]).
    pub fn new(
        l: Loop,
        base: Schedule,
        machine: Machine,
        scheduler: SchedulerOptions,
    ) -> DescentTree {
        let stats = RewriteStats {
            stores_added: 0,
            loads_added: 0,
        };
        DescentTree {
            machine,
            scheduler,
            root: Arc::new(DescentState::new(0, l, base, Vec::new(), stats)),
            index: Mutex::new(Index {
                next_id: 1,
                children: HashMap::new(),
            }),
            memoised: Mutex::default(),
            counters: Counters::default(),
            contexts: Contexts::default(),
        }
    }

    /// The machine every state of this tree is scheduled and allocated
    /// on.
    pub(crate) fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The scheduler options every state of this tree is scheduled with.
    pub(crate) fn scheduler(&self) -> SchedulerOptions {
        self.scheduler
    }

    /// `requirement` on the root's base schedule, memoised by class.
    ///
    /// # Errors
    ///
    /// The class part's [`MachineError`].
    pub fn base_requirement(
        &self,
        requirement: &mut dyn Requirement,
    ) -> Result<(Arc<ClassRequirement>, u32), MachineError> {
        self.requirement(&self.root, &self.root.fresh, requirement)
    }

    /// The root's memoised result for `key`, without computing it.
    pub fn memoised_base_class(&self, key: ClassKey) -> Option<Arc<ClassRequirement>> {
        self.root.fresh.memoised(key)
    }

    /// The value lifetimes of the root's base schedule: the ones every
    /// class on that schedule reads, computed on the first call.
    ///
    /// # Errors
    ///
    /// [`MachineError`] when the machine cannot serve the loop.
    pub fn base_lifetimes(&self) -> Result<Arc<[Lifetime]>, MachineError> {
        self.lifetimes(&self.root, &self.root.fresh.sched)
    }

    /// The consumer lists of the unspilled loop, built once with the
    /// tree.
    pub fn base_consumers(&self) -> &Consumers {
        &self.root.consumers
    }

    /// Ends sharing for now: drops the index, the pooled scheduler
    /// contexts and every memo except the root's class memo and base
    /// lifetimes, on indexed and retained states alike. States a
    /// trajectory retains stay alive through the trajectory; anything
    /// computed later is indexed and memoised again.
    pub fn release(&self) {
        lock(&self.contexts.0).clear();
        let children = std::mem::take(&mut lock(&self.index).children);
        let memoised = std::mem::take(&mut *lock(&self.memoised));
        for state in memoised.iter().filter_map(Weak::upgrade) {
            // Unlisted before clearing: a memo inserted meanwhile lists
            // its state again (see `memoise`).
            state.listed.store(false, Ordering::SeqCst);
            lock(&state.rungs).clear();
            let root = Arc::ptr_eq(&state, &self.root);
            state.fresh.facts.forget(root);
            if !root {
                lock(&state.fresh.classes).clear();
                lock(&state.fresh.bounds).clear();
            }
        }
        drop(children);
    }

    /// Lists `state` as holding a memo; called after every insert.
    fn memoise(&self, state: &Arc<DescentState>) {
        if !state.listed.swap(true, Ordering::SeqCst) {
            let mut list = lock(&self.memoised);
            // Forget dropped states before the list grows, so it stays
            // within twice the memoised states alive.
            if list.len() == list.capacity() {
                list.retain(|w| w.strong_count() > 0);
            }
            list.push(Arc::downgrade(state));
        }
    }

    /// What this tree computed and reused so far.
    pub fn stats(&self) -> DescentStats {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DescentStats {
            states_computed: get(&c.states_computed),
            states_reused: get(&c.states_reused),
            rungs_computed: get(&c.rungs_computed),
            rungs_reused: get(&c.rungs_reused),
            rungs_skipped: get(&c.rungs_skipped),
            classes_computed: get(&c.classes_computed),
            classes_reused: get(&c.classes_reused),
            classes_bounded: get(&c.classes_bounded),
            indexed: lock(&self.index).children.len() as u64,
        }
    }

    /// Counts `n` escalation rungs a ladder recorded without scheduling.
    pub(crate) fn skipped(&self, n: u64) {
        self.counters.rungs_skipped.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn root(&self) -> &Arc<DescentState> {
        &self.root
    }

    /// The class input on `at`, a schedule of `state`.
    fn input<'a>(&'a self, state: &'a DescentState, at: &'a Scheduled) -> ClassInput<'a> {
        ClassInput::new(
            &state.l,
            &self.machine,
            &at.sched,
            &state.consumers,
            &at.facts,
        )
    }

    /// The value lifetimes of `sched`, a schedule of `state`: the fresh
    /// schedule's facts when `sched` has its starts (a class that only
    /// rebinds units, such as the swap pass, keeps them), computed
    /// alone otherwise.
    ///
    /// # Errors
    ///
    /// [`MachineError`] when the machine cannot serve the loop.
    pub(crate) fn lifetimes(
        &self,
        state: &Arc<DescentState>,
        sched: &Schedule,
    ) -> Result<Arc<[Lifetime]>, MachineError> {
        let fresh = &state.fresh;
        let same_starts = std::ptr::eq(sched, &*fresh.sched)
            || (sched.ii() == fresh.sched.ii()
                && (0..state.l.ops().len())
                    .map(OpId::from_index)
                    .all(|op| sched.start(op) == fresh.sched.start(op)));
        if !same_starts {
            let mut lts = Vec::new();
            lifetimes_into(&state.l, &self.machine, sched, &state.consumers, &mut lts)?;
            return Ok(lts.into());
        }
        let lts = self.input(state, fresh).lifetimes()?;
        self.memoise(state);
        Ok(lts)
    }

    /// The state reached by spilling `victim` out of `parent`: looked up,
    /// or computed (rewrite + fresh schedule) and indexed. A failing step
    /// is not recorded, so a retry fails the same way.
    pub(crate) fn child(
        &self,
        parent: &DescentState,
        victim: OpId,
    ) -> Result<Arc<DescentState>, SpillError> {
        let key = (parent.id, victim);
        if let Some(hit) = lock(&self.index).children.get(&key) {
            bump(&self.counters.states_reused);
            return Ok(Arc::clone(hit));
        }
        let (l, reloads, stats) =
            rewrite(&parent.l, victim).map_err(|e| SpillError::Rewrite(e.to_string()))?;
        let fresh = self.contexts.schedule(&l, &self.machine, self.scheduler)?;
        bump(&self.counters.states_computed);
        let mut index = lock(&self.index);
        let id = index.next_id;
        index.next_id += 1;
        let state = index
            .children
            .entry(key)
            .or_insert_with(|| Arc::new(DescentState::new(id, l, fresh, reloads, stats)));
        Ok(Arc::clone(state))
    }

    /// `requirement` on `at` (the fresh schedule or a rung of `state`):
    /// the class part from the memo when the requirement has a class,
    /// then the model hook.
    pub(crate) fn requirement(
        &self,
        state: &Arc<DescentState>,
        at: &Scheduled,
        requirement: &mut dyn Requirement,
    ) -> Result<(Arc<ClassRequirement>, u32), MachineError> {
        let key = requirement.class();
        let class = match key.and_then(|k| at.memoised(k)) {
            Some(class) => {
                bump(&self.counters.classes_reused);
                class
            }
            None => self.allocate(state, at, requirement)?,
        };
        let regs = requirement.effective(&state.l, &class);
        Ok((class, regs))
    }

    /// `requirement` on `at` when all that matters yet is whether it fits
    /// `budget`: [`Settled::AtLeast`] when the class bound already puts
    /// the model's requirement above `budget` (nothing is allocated), the
    /// exact requirement otherwise. The bound is memoised next to the
    /// class memo, and an exact allocation that follows reads the same
    /// schedule facts.
    pub(crate) fn requirement_within(
        &self,
        state: &Arc<DescentState>,
        at: &Scheduled,
        requirement: &mut dyn Requirement,
        budget: u32,
    ) -> Result<Settled, MachineError> {
        let (l, key) = (&state.l, requirement.class());
        if let Some(class) = key.and_then(|k| at.memoised(k)) {
            bump(&self.counters.classes_reused);
            let regs = requirement.effective(l, &class);
            return Ok(Settled::Exact(class, regs));
        }
        let bound = match key.and_then(|k| find(&at.bounds, k)) {
            Some(bound) => Some(bound),
            None => {
                let bound = requirement.bound(&self.input(state, at))?;
                self.memoise(state);
                bound.map(|bound| match key {
                    Some(k) => self.insert(state, &at.bounds, k, Arc::new(bound)),
                    None => Arc::new(bound),
                })
            }
        };
        let lb = bound.as_deref().map(|b| requirement.effective(l, b));
        if let Some(lb) = lb.filter(|&lb| lb > budget) {
            bump(&self.counters.classes_bounded);
            return Ok(Settled::AtLeast(lb));
        }
        let class = self.allocate(state, at, requirement)?;
        let regs = requirement.effective(l, &class);
        debug_assert!(
            lb.is_none_or(|lb| lb <= regs),
            "bound {lb:?} above the exact requirement {regs}"
        );
        Ok(Settled::Exact(class, regs))
    }

    /// Computes the class part on `at` and memoises it when the
    /// requirement has a class, in place of any bound of that class; a
    /// racing insert wins.
    fn allocate(
        &self,
        state: &Arc<DescentState>,
        at: &Scheduled,
        requirement: &mut dyn Requirement,
    ) -> Result<Arc<ClassRequirement>, MachineError> {
        let class = Arc::new(requirement.allocate(&self.input(state, at))?);
        bump(&self.counters.classes_computed);
        // Lists the state for `release`, which drops the facts the
        // allocation filled.
        self.memoise(state);
        let Some(key) = requirement.class() else {
            return Ok(class);
        };
        let class = self.insert(state, &at.classes, key, class);
        let mut bounds = lock(&at.bounds);
        debug_assert!(
            bounds.iter().all(|(k, b)| *k != key || b.raw <= class.raw),
            "class bound above the exact {}",
            class.raw
        );
        bounds.retain(|(k, _)| *k != key);
        Ok(class)
    }

    /// Inserts `class` under `key` into `memo`, a memo of a schedule of
    /// `state`, unless a racing insert got there first; returns the
    /// entry that stays.
    fn insert(
        &self,
        state: &Arc<DescentState>,
        memo: &ClassMemo,
        key: ClassKey,
        class: Arc<ClassRequirement>,
    ) -> Arc<ClassRequirement> {
        let mut entries = lock(memo);
        if let Some((_, raced)) = entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(raced);
        }
        entries.push((key, Arc::clone(&class)));
        drop(entries);
        self.memoise(state);
        class
    }

    /// The escalation rung of `state` at `ii`: its schedule, or `None`
    /// when the loop does not schedule there. A miss schedules on
    /// `prepared`, the state's loop analysed once on a pooled context,
    /// which the first miss of a caller fills in and
    /// [`DescentTree::restore`] returns.
    pub(crate) fn rung<'s>(
        &'s self,
        state: &'s Arc<DescentState>,
        ii: u32,
        prepared: &mut Option<PreparedLoop<'s>>,
    ) -> Result<Option<Arc<Scheduled>>, MachineError> {
        if let Some(hit) = lock(&state.rungs).get(&ii) {
            bump(&self.counters.rungs_reused);
            return Ok(hit.as_ref().map(Arc::clone));
        }
        let prepared = match prepared {
            Some(prepared) => prepared,
            None => {
                let ctx = self.contexts.take();
                prepared.insert(PreparedLoop::in_context(ctx, &state.l, &self.machine)?)
            }
        };
        let rung = prepared
            .schedule_at_ii(ii, self.scheduler)
            .map(|Rung { sched, flat }| {
                Arc::new(Scheduled::new(
                    sched,
                    flat && !state.l.has_carried_operand(),
                ))
            });
        bump(&self.counters.rungs_computed);
        let rung = lock(&state.rungs)
            .entry(ii)
            .or_insert(rung)
            .as_ref()
            .map(Arc::clone);
        self.memoise(state);
        Ok(rung)
    }

    /// Returns the context of a serve's analysed loop to the pool.
    pub(crate) fn restore(&self, prepared: Option<PreparedLoop<'_>>) {
        if let Some(prepared) = prepared {
            self.contexts.put(prepared.into_context());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{requirement_unified, SpillOptions, SpillTrajectory};
    use ncdrf_ddg::{LoopBuilder, Weight};
    use ncdrf_regalloc::allocate_unified;
    use ncdrf_sched::modulo_schedule_with;

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

    /// The unified class with a scaling hook: `num/den` of the raw
    /// requirement, rounded up.
    struct Scaled(u32, u32);

    impl Requirement for Scaled {
        fn class(&self) -> Option<ClassKey> {
            Some(ClassKey(0))
        }
        fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError> {
            let lts = input.lifetimes()?;
            let raw = allocate_unified(&lts, input.sched.ii()).regs;
            Ok(ClassRequirement {
                sched: Arc::clone(input.sched),
                lifetimes: lts,
                raw,
            })
        }
        fn effective(&mut self, _l: &Loop, class: &ClassRequirement) -> u32 {
            (class.raw * self.0).div_ceil(self.1)
        }
    }

    fn tree(l: &Loop, machine: &Machine) -> Arc<DescentTree> {
        let opts = SchedulerOptions::default();
        let base = modulo_schedule_with(l, machine, opts).unwrap();
        Arc::new(DescentTree::new(l.to_owned(), base, machine.clone(), opts))
    }

    /// Every budget, deep enough to exhaust and escalate.
    const LADDER: [u32; 6] = [64, 12, 8, 6, 2, 1];

    #[test]
    fn models_of_one_class_share_states_rungs_and_requirements() {
        let (l, machine) = (pressured(), Machine::clustered(6, 1));
        let t = tree(&l, &machine);
        let opts = SpillOptions::default();
        let mut hooks = [Scaled(1, 1), Scaled(3, 4), Scaled(5, 4)];
        for hook in &mut hooks {
            let mut shared = SpillTrajectory::in_tree(&t, hook, opts).unwrap();
            let mut alone = SpillTrajectory::from_base(
                &l,
                &machine,
                modulo_schedule_with(&l, &machine, opts.scheduler).unwrap(),
                hook,
                opts,
            )
            .unwrap();
            for budget in LADDER {
                let a = shared.evaluate(&machine, budget, hook).unwrap();
                let b = alone.evaluate(&machine, budget, hook).unwrap();
                assert_eq!(a, b, "budget {budget}");
            }
            assert_eq!(shared.snapshot(), alone.snapshot());
        }
        let s = t.stats();
        assert!(
            s.states_reused > 0 && s.rungs_reused > 0 && s.classes_reused > 0,
            "{s:?}"
        );
    }

    #[test]
    fn release_leaves_only_the_retained_states_alive() {
        let (l, machine) = (pressured(), Machine::clustered(6, 1));
        let t = tree(&l, &machine);
        let opts = SpillOptions::default();
        let mut trajs: Vec<SpillTrajectory> = [Scaled(1, 1), Scaled(3, 4)]
            .into_iter()
            .map(|mut hook| {
                let mut traj = SpillTrajectory::in_tree(&t, &mut hook, opts).unwrap();
                for budget in LADDER {
                    traj.evaluate(&machine, budget, &mut hook).unwrap();
                }
                traj
            })
            .collect();
        let mut closure = requirement_unified;
        let mut plain = SpillTrajectory::in_tree(&t, &mut closure, opts).unwrap();
        plain.evaluate(&machine, 1, &mut closure).unwrap();
        trajs.push(plain);
        assert!(t.stats().indexed > 0);

        t.release();
        assert_released(&t, &trajs);
        // Released trajectories still serve and extend bit-identically,
        // memoising on the states they retain; a second release clears
        // those memos although no index reaches the states.
        let mut hook = Scaled(1, 1);
        for budget in LADDER {
            let mut fresh = SpillTrajectory::from_base(
                &l,
                &machine,
                modulo_schedule_with(&l, &machine, opts.scheduler).unwrap(),
                &mut hook,
                opts,
            )
            .unwrap();
            assert_eq!(
                trajs[0].evaluate(&machine, budget, &mut hook).unwrap().0,
                fresh.evaluate(&machine, budget, &mut hook).unwrap().0
            );
        }
        assert!(!lock(&t.memoised).is_empty());
        t.release();
        assert_released(&t, &trajs);
    }

    /// After a release the index is empty, and every state still alive
    /// is held by exactly the checkpoints that retain it (and the tree,
    /// for the root), with no memo but the root's class memo.
    fn assert_released(t: &DescentTree, trajs: &[SpillTrajectory]) {
        assert_eq!(t.stats().indexed, 0);
        assert!(lock(&t.memoised).is_empty());
        let mut alive: Vec<(&Arc<DescentState>, usize)> = Vec::new();
        for cp in trajs.iter().flat_map(|t| t.checkpoints()) {
            let Some(state) = cp.state.as_ref().map(|s| &s.state) else {
                continue;
            };
            match alive.iter_mut().find(|(s, _)| Arc::ptr_eq(s, state)) {
                Some((_, refs)) => *refs += 1,
                None => alive.push((state, 1)),
            }
        }
        for (state, refs) in alive {
            let root = Arc::ptr_eq(state, t.root());
            assert_eq!(Arc::strong_count(state), refs + usize::from(root));
            assert!(lock(&state.rungs).is_empty());
            assert_eq!(lock(&state.fresh.classes).is_empty(), !root);
        }
    }

    #[test]
    fn states_are_keyed_by_parent_and_victim() {
        let machine = Machine::clustered(6, 1);
        let l = pressured();
        let t = tree(&l, &machine);
        let victim = l.find_op("L1").unwrap();
        let a = t.child(t.root(), victim).unwrap();
        let b = t.child(t.root(), victim).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Every state carries the loop's name; only the parent tells the
        // same victim apart: spilling M1 after L1 and after A1 reaches
        // two different states.
        let c = t.child(t.root(), l.find_op("A1").unwrap()).unwrap();
        let m1 = l.find_op("M1").unwrap();
        let x = t.child(&a, m1).unwrap();
        let y = t.child(&c, m1).unwrap();
        assert!(!Arc::ptr_eq(&x, &y) && x.l.name() == y.l.name());
        assert_ne!(x.l, y.l);
        let s = t.stats();
        assert_eq!((s.states_computed, s.states_reused, s.indexed), (4, 1, 4));
    }

    /// Two models of one class down the budget ladder, into escalation.
    fn descend(t: &Arc<DescentTree>, machine: &Machine) {
        let opts = SpillOptions::default();
        for mut hook in [Scaled(1, 1), Scaled(3, 4)] {
            let mut traj = SpillTrajectory::in_tree(t, &mut hook, opts).unwrap();
            for budget in LADDER {
                traj.evaluate(machine, budget, &mut hook).unwrap();
            }
        }
    }

    /// Every small-corpus loop descends on one chain of pooled contexts:
    /// each tree starts from the contexts the previous loop's tree (of
    /// other sizes) returned, the one on top having just failed to
    /// schedule the loop under a cap below its II. Every state's fresh
    /// schedule and every computed rung equals a fresh context's, and
    /// the counts are those of the descent before contexts were pooled.
    #[test]
    fn pooled_contexts_schedule_what_fresh_ones_do() {
        let corpus = ncdrf_corpus::Corpus::small();
        let one_port = Machine::clustered_n(1, 3, 1);
        // `DescentStats` (computed, reused) of states, rungs and classes,
        // skipped rungs and indexed states, as the descent counted them
        // when each state scheduled on a fresh context.
        let pinned = [
            (
                Machine::clustered(6, 1),
                [1606, 1606, 4276, 4729, 21605, 5995, 6448, 0, 1606],
            ),
            (
                one_port,
                [1606, 1606, 1090, 1456, 16545, 2809, 3175, 0, 1606],
            ),
        ];
        for (machine, want) in pinned {
            let opts = SchedulerOptions::default();
            let mut carried: Vec<SchedContext> = Vec::new();
            let mut stats = DescentStats::default();
            for l in corpus.iter() {
                let base = modulo_schedule_with(l, &machine, opts).unwrap();
                let capped = SchedulerOptions {
                    max_ii: Some(base.ii() - 1),
                    ..opts
                };
                let t = Arc::new(DescentTree::new(l.to_owned(), base, machine.clone(), opts));
                let mut ctx = carried.pop().unwrap_or_default();
                assert!(matches!(
                    ctx.schedule(l, &machine, capped),
                    Err(ScheduleError::NoSchedule { .. })
                ));
                carried.push(ctx);
                lock(&t.contexts.0).append(&mut carried);
                descend(&t, &machine);

                let index = lock(&t.index);
                for state in index.children.values().chain([t.root()]) {
                    let fresh = modulo_schedule_with(&state.l, &machine, opts).unwrap();
                    assert_eq!(*state.fresh.sched, fresh, "`{}`", l.name());
                    for (&ii, rung) in lock(&state.rungs).iter() {
                        let fresh = SchedContext::new()
                            .schedule_at_ii(&state.l, &machine, ii, opts)
                            .unwrap();
                        let rung = rung.as_ref().map(|r| &*r.sched);
                        assert_eq!(rung, fresh.as_ref(), "`{}` at II {ii}", l.name());
                    }
                }
                drop(index);
                stats.absorb(t.stats());
                carried = std::mem::take(&mut *lock(&t.contexts.0));
            }
            let got = [
                stats.states_computed,
                stats.states_reused,
                stats.rungs_computed,
                stats.rungs_reused,
                stats.rungs_skipped,
                stats.classes_computed,
                stats.classes_reused,
                stats.classes_bounded,
                stats.indexed,
            ];
            assert_eq!(got, want, "{}", machine.name());
        }
    }
}
