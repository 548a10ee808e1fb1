//! The greedy cluster-swapping post-pass of the paper's §4.1 and §5.2.
//!
//! After modulo scheduling binds every operation to a functional-unit
//! instance (and therefore to a cluster), the classification of values into
//! global / left-only / right-only is fixed — and often suboptimal: a value
//! whose two consumers landed in different clusters must be replicated
//! (global), and the per-cluster local pressures may be unbalanced.
//!
//! The paper's remedy is a *post-scheduling* pass that **swaps pairs of
//! operations across clusters**. A swap is legal when both operations are
//! scheduled in the same kernel cycle and use the same kind of functional
//! unit (§4.1). Swapping pursues two goals, both of which lower the dual
//! register requirement (the maximum over the two subfiles):
//!
//! * turning global values into locals (fewer replicated registers), and
//! * balancing left-only against right-only pressure.
//!
//! Following §5.2, the pass is **greedy**: each step evaluates every legal
//! candidate, applies the one with the largest reduction of the estimated
//! requirement, and repeats until no candidate improves it. The estimate is
//! the MaxLive lower bound per subfile (the paper uses the same bound
//! "due to the cost involved to allocate registers"); an exact-allocation
//! scoring mode is provided for the ablation study.
//!
//! # Example
//!
//! ```
//! use ncdrf_ddg::{LoopBuilder, Weight};
//! use ncdrf_machine::Machine;
//! use ncdrf_sched::modulo_schedule;
//! use ncdrf_swap::swap_pass;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = LoopBuilder::new("dot");
//! let x = b.array_in("x");
//! let y = b.array_in("y");
//! let lx = b.load("LX", x, 0);
//! let ly = b.load("LY", y, 0);
//! let m = b.mul("M", lx.now(), ly.now());
//! let s = b.reserve_add("S");
//! b.bind(s, [m.now(), s.prev(1)]);
//! let lp = b.finish(Weight::default())?;
//!
//! let machine = Machine::clustered(3, 1);
//! let mut sched = modulo_schedule(&lp, &machine)?;
//! let outcome = swap_pass(&lp, &machine, &mut sched)?;
//! assert!(outcome.after <= outcome.before);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use ncdrf_ddg::{Consumers, Loop, OpId};
use ncdrf_machine::{ClusterId, Machine, MachineError, UnitRef};
use ncdrf_regalloc::{
    allocate_dual, allocate_dual_in, lifetimes_into, max_live_subset, Lifetime, PlacementOrder,
    ValueClass,
};
use ncdrf_sched::Schedule;
use std::fmt;

/// How swap candidates are scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scoring {
    /// Estimate the post-swap requirement with the MaxLive lower bound per
    /// subfile (the paper's choice, §5.2: cheap, and what a compiler would
    /// afford).
    #[default]
    MaxLiveBound,
    /// Run the full First-Fit dual allocation for every candidate
    /// (expensive; used by the `ablation_swap_scoring` bench).
    ExactAlloc,
}

/// Tuning knobs for the swapping pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapOptions {
    /// Candidate scoring policy.
    pub scoring: Scoring,
    /// Also consider *moving* a single operation to an idle unit of the
    /// same group in the other cluster (a swap with an empty slot). The
    /// paper's §4.1 swaps op pairs; moves are a strict generalisation that
    /// the same greedy framework admits, enabled by default.
    pub allow_moves: bool,
    /// Safety bound on the number of applied actions (the greedy loop
    /// strictly decreases the requirement, so it terminates regardless;
    /// this is a belt-and-braces guard).
    pub max_steps: usize,
}

impl Default for SwapOptions {
    fn default() -> Self {
        SwapOptions {
            scoring: Scoring::MaxLiveBound,
            allow_moves: true,
            max_steps: 10_000,
        }
    }
}

/// One applied rebinding action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapAction {
    /// The two operations exchanged their functional-unit instances.
    Pair(OpId, OpId),
    /// The operation moved to an idle instance in the given cluster.
    Move(OpId, ClusterId),
}

impl fmt::Display for SwapAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapAction::Pair(a, b) => write!(f, "swap {a} <-> {b}"),
            SwapAction::Move(op, c) => write!(f, "move {op} -> {c}"),
        }
    }
}

/// The result of a swapping pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapOutcome {
    /// Estimated register requirement before the pass (per the scoring
    /// policy's estimator).
    pub before: u32,
    /// Estimated requirement after the pass.
    pub after: u32,
    /// Actions applied, in order.
    pub actions: Vec<SwapAction>,
}

impl SwapOutcome {
    /// Requirement reduction achieved (`before - after`).
    pub fn gain(&self) -> u32 {
        self.before.saturating_sub(self.after)
    }
}

/// Runs the greedy swapping pass with default options, mutating `sched`'s
/// unit bindings in place.
///
/// # Errors
///
/// Returns [`MachineError::Unserved`] if the machine cannot execute some
/// operation of `l` (impossible for schedules produced against the same
/// machine).
pub fn swap_pass(
    l: &Loop,
    machine: &Machine,
    sched: &mut Schedule,
) -> Result<SwapOutcome, MachineError> {
    swap_pass_with(l, machine, sched, SwapOptions::default())
}

/// Runs the greedy swapping pass with explicit options.
///
/// On single-cluster machines the pass is a no-op (there is nothing to
/// swap across).
///
/// # Errors
///
/// Returns [`MachineError::Unserved`] if the machine cannot execute some
/// operation of `l`.
pub fn swap_pass_with(
    l: &Loop,
    machine: &Machine,
    sched: &mut Schedule,
    opts: SwapOptions,
) -> Result<SwapOutcome, MachineError> {
    let consumers = l.consumers();
    let mut lts = Vec::new();
    lifetimes_into(l, machine, sched, &consumers, &mut lts)?;
    Ok(swap_pass_on(l, machine, sched, opts, &lts, &consumers))
}

/// [`swap_pass_with`] on facts the caller computed once and shares:
/// `lts`, the lifetimes of `sched` (see [`lifetimes`]), and `consumers`,
/// the consumer lists of `l` (see [`Loop::consumers`]).
///
/// The pass only rebinds units ([`Schedule::swap_units`],
/// [`Schedule::rebind`]); lifetimes depend on start times and per-kind
/// latencies alone, so `lts` are also the lifetimes of the schedule the
/// pass leaves behind.
///
/// [`lifetimes`]: ncdrf_regalloc::lifetimes
pub fn swap_pass_on(
    l: &Loop,
    machine: &Machine,
    sched: &mut Schedule,
    opts: SwapOptions,
    lts: &[Lifetime],
    consumers: &Consumers,
) -> SwapOutcome {
    let mut clusters = cluster_vec(l, machine, sched);
    let mut scorer = match opts.scoring {
        Scoring::MaxLiveBound => {
            Scorer::Bound(BoundScorer::new(l, lts, consumers, &clusters, sched.ii()))
        }
        Scoring::ExactAlloc => Scorer::Exact(PlacementOrder::new(lts, sched.ii())),
    };
    let mut current = scorer.score(lts, consumers, &clusters, &[]);
    let before = current;
    let mut actions = Vec::new();

    if machine.clusters() >= 2 {
        let mut bindings = Bindings::new(l, machine, sched);
        while actions.len() < opts.max_steps {
            let Some((best, action)) = best_candidate(
                machine,
                sched,
                &bindings,
                lts,
                consumers,
                &clusters,
                current,
                opts,
                &mut scorer,
            ) else {
                break;
            };
            apply(machine, sched, &mut bindings, &mut clusters, action);
            if let Scorer::Bound(s) = &mut scorer {
                match action {
                    SwapAction::Pair(a, b) => {
                        s.commit(lts, consumers, &clusters, &[a.index(), b.index()])
                    }
                    SwapAction::Move(a, _) => s.commit(lts, consumers, &clusters, &[a.index()]),
                }
            }
            debug_assert_eq!(
                score_from(lts, consumers, &clusters, sched.ii(), opts.scoring),
                best
            );
            current = best;
            actions.push(action);
        }
    }

    SwapOutcome {
        before,
        after: current,
        actions,
    }
}

/// Classifies lifetimes given an explicit per-op cluster assignment.
///
/// This mirrors [`ncdrf_regalloc::classify`] but reads clusters from a
/// vector instead of a schedule, so the swapping pass can evaluate
/// hypothetical assignments without mutating the schedule.
pub fn classify_with_clusters(
    lifetimes: &[Lifetime],
    consumers: &Consumers,
    clusters: &[ClusterId],
) -> Vec<ValueClass> {
    lifetimes
        .iter()
        .map(|lt| class_of(&consumers[lt.op.index()], clusters))
        .collect()
}

/// Class of one value from its consumer list and a cluster assignment.
fn class_of(consumers_of_v: &[(OpId, u32)], clusters: &[ClusterId]) -> ValueClass {
    let mut seen = [false, false];
    for &(c, _) in consumers_of_v {
        seen[clusters[c.index()].index().min(1)] = true;
    }
    match seen {
        [true, true] => ValueClass::Global,
        [false, true] => ValueClass::Only(ClusterId::RIGHT),
        _ => ValueClass::Only(ClusterId::LEFT),
    }
}

/// A candidate scorer: the incremental bound, or the exact dual
/// allocation from the schedule's placement order (built once: a swap
/// changes classes, never lifetimes).
enum Scorer {
    Bound(BoundScorer),
    Exact(PlacementOrder),
}

impl Scorer {
    /// The score under the hypothetical assignment `clusters`, which
    /// differs from the scorer's own only in the clusters of
    /// `changed_ops`.
    fn score(
        &mut self,
        lts: &[Lifetime],
        consumers: &Consumers,
        clusters: &[ClusterId],
        changed_ops: &[usize],
    ) -> u32 {
        match self {
            Scorer::Bound(s) => s.score_candidate(lts, consumers, clusters, changed_ops),
            Scorer::Exact(order) => {
                let classes = classify_with_clusters(lts, consumers, clusters);
                allocate_dual_in(order, lts, &classes).regs
            }
        }
    }
}

/// Incremental [`Scoring::MaxLiveBound`] scorer.
///
/// The bound is `max` over the two subfiles of the per-row live count,
/// where a value occupies its class's subfiles (globals occupy both). A
/// value of length `len` contributes `len / II` instances to every
/// kernel row and one more to the circular run of `len % II` rows from
/// `start % II`; the scorer keeps the every-row part as one count per
/// subfile and the runs as per-row counts, so patching a value costs
/// `O(len % II)` and no division by II.
///
/// Swapping operations `a` and `b` can only change the classes of values
/// *consumed by* `a` or `b`, so instead of reclassifying every value and
/// re-sweeping all lifetimes per candidate, the scorer patches just the
/// affected values' contributions and rescans the rows: `O(deg · II)`
/// per candidate in the worst case, with scores identical to
/// [`requirement_bound`].
struct BoundScorer {
    ii: u32,
    classes: Vec<ValueClass>,
    /// Instances on every row, per subfile (`ClusterId::index().min(1)`).
    every: [i64; 2],
    /// Per-row counts of the partial runs, per subfile.
    live: [Vec<i64>; 2],
    /// Lifetime indices consumed by each operation.
    consumed_by: Vec<Vec<usize>>,
    /// The class changes of the candidate being scored, reused.
    changes: Vec<(usize, ValueClass, ValueClass)>,
}

impl BoundScorer {
    fn new(
        l: &Loop,
        lts: &[Lifetime],
        consumers: &Consumers,
        clusters: &[ClusterId],
        ii: u32,
    ) -> Self {
        let classes = classify_with_clusters(lts, consumers, clusters);
        let mut consumed_by: Vec<Vec<usize>> = vec![Vec::new(); l.ops().len()];
        for (vi, lt) in lts.iter().enumerate() {
            for &(c, _) in &consumers[lt.op.index()] {
                consumed_by[c.index()].push(vi);
            }
        }
        let mut scorer = BoundScorer {
            ii,
            classes: classes.clone(),
            every: [0; 2],
            live: [vec![0; ii as usize], vec![0; ii as usize]],
            consumed_by,
            changes: Vec::new(),
        };
        for (lt, &class) in lts.iter().zip(&classes) {
            scorer.contribute(lt, class, 1);
        }
        scorer
    }

    /// Adds (`sign = 1`) or removes (`sign = -1`) a value's live-count
    /// contribution under `class`.
    fn contribute(&mut self, lt: &Lifetime, class: ValueClass, sign: i64) {
        if lt.is_empty() {
            return;
        }
        let files: &[usize] = match class {
            ValueClass::Global => &[0, 1],
            ValueClass::Only(c) => &[c.index().min(1)],
        };
        let (len, ii) = (lt.len(), self.ii);
        let first = (lt.start % ii) as usize;
        let extra = (len % ii) as usize;
        // The run of `extra` rows from `first`, split where it wraps.
        let rows = ii as usize;
        let (head, wrapped) = (
            first..rows.min(first + extra),
            0..(first + extra).saturating_sub(rows),
        );
        for &f in files {
            self.every[f] += sign * i64::from(len / ii);
            let live = &mut self.live[f];
            for t in head.clone().chain(wrapped.clone()) {
                live[t] += sign;
            }
        }
    }

    /// The current bound (matches [`requirement_bound`]).
    fn score(&self) -> u32 {
        let peak = |f: usize| self.every[f] + self.live[f].iter().copied().max().unwrap_or(0);
        peak(0).max(peak(1)).max(0) as u32
    }

    /// Fills `changes` with the class changes caused by re-clustering
    /// `changed_ops` under `clusters`, deduplicated (a value consumed by
    /// both swapped ops appears once).
    fn class_changes(
        &self,
        lts: &[Lifetime],
        consumers: &Consumers,
        clusters: &[ClusterId],
        changed_ops: &[usize],
        changes: &mut Vec<(usize, ValueClass, ValueClass)>,
    ) {
        changes.clear();
        for &op in changed_ops {
            for &v in &self.consumed_by[op] {
                if changes.iter().any(|&(seen, _, _)| seen == v) {
                    continue;
                }
                let old = self.classes[v];
                let new = class_of(&consumers[lts[v].op.index()], clusters);
                if new != old {
                    changes.push((v, old, new));
                }
            }
        }
    }

    /// The bound under the hypothetical assignment `clusters` (state is
    /// restored before returning).
    fn score_candidate(
        &mut self,
        lts: &[Lifetime],
        consumers: &Consumers,
        clusters: &[ClusterId],
        changed_ops: &[usize],
    ) -> u32 {
        let mut changes = std::mem::take(&mut self.changes);
        self.class_changes(lts, consumers, clusters, changed_ops, &mut changes);
        for &(v, old, new) in &changes {
            self.contribute(&lts[v], old, -1);
            self.contribute(&lts[v], new, 1);
        }
        let s = self.score();
        for &(v, old, new) in &changes {
            self.contribute(&lts[v], new, -1);
            self.contribute(&lts[v], old, 1);
        }
        self.changes = changes;
        s
    }

    /// Makes an applied action's class changes permanent. `clusters` is
    /// the post-action assignment.
    fn commit(
        &mut self,
        lts: &[Lifetime],
        consumers: &Consumers,
        clusters: &[ClusterId],
        changed_ops: &[usize],
    ) {
        let mut changes = std::mem::take(&mut self.changes);
        self.class_changes(lts, consumers, clusters, changed_ops, &mut changes);
        for &(v, old, new) in &changes {
            self.contribute(&lts[v], old, -1);
            self.contribute(&lts[v], new, 1);
            self.classes[v] = new;
        }
        self.changes = changes;
    }
}

/// The per-subfile requirement estimate used by the greedy pass with
/// [`Scoring::MaxLiveBound`]: the larger of the two subfiles' MaxLive
/// (globals counted in both).
pub fn requirement_bound(lifetimes: &[Lifetime], classes: &[ValueClass], ii: u32) -> u32 {
    let left = max_live_paired(lifetimes, classes, ii, ClusterId::LEFT);
    let right = max_live_paired(lifetimes, classes, ii, ClusterId::RIGHT);
    left.max(right)
}

fn cluster_vec(l: &Loop, machine: &Machine, sched: &Schedule) -> Vec<ClusterId> {
    l.iter_ops()
        .map(|(id, _)| sched.cluster(id, machine))
        .collect()
}

fn score_from(
    lts: &[Lifetime],
    consumers: &Consumers,
    clusters: &[ClusterId],
    ii: u32,
    scoring: Scoring,
) -> u32 {
    let classes = classify_with_clusters(lts, consumers, clusters);
    match scoring {
        Scoring::MaxLiveBound => requirement_bound(lts, &classes, ii),
        Scoring::ExactAlloc => allocate_dual(lts, &classes, ii).regs,
    }
}

fn max_live_paired(lts: &[Lifetime], classes: &[ValueClass], ii: u32, cluster: ClusterId) -> u32 {
    let kept: Vec<Lifetime> = lts
        .iter()
        .zip(classes)
        .filter(|(_, c)| c.occupies(cluster))
        .map(|(lt, _)| *lt)
        .collect();
    max_live_subset(&kept, ii, |_| true)
}

/// The unit bindings the candidate search reads, kept across the pass:
/// the legal pairs (same group, same kernel row), which no swap or move
/// changes because both keep every op's group and row, and which unit
/// instances are busy at which kernel row, which a move changes.
struct Bindings {
    pairs: Vec<(usize, usize)>,
    /// Each op's kernel row.
    row: Vec<u32>,
    /// The flat index of each group's first instance.
    first: Vec<usize>,
    /// `busy[(first[group] + instance) * II + row]`: an op is bound there.
    busy: Vec<bool>,
    ii: usize,
}

impl Bindings {
    fn new(l: &Loop, machine: &Machine, sched: &Schedule) -> Self {
        let n = l.ops().len();
        let ii = sched.ii() as usize;
        let mut first = Vec::with_capacity(machine.groups().len());
        let mut units = 0;
        for group in machine.groups() {
            first.push(units);
            units += group.count();
        }
        let row: Vec<u32> = (0..n)
            .map(|a| sched.kernel_slot(OpId::from_index(a)))
            .collect();
        let mut bindings = Bindings {
            pairs: Vec::new(),
            row,
            first,
            busy: vec![false; units * ii],
            ii,
        };
        for a in 0..n {
            let unit = sched.unit(OpId::from_index(a));
            let at = bindings.at(unit, a);
            bindings.busy[at] = true;
            for b in (a + 1)..n {
                if unit.group == sched.unit(OpId::from_index(b)).group
                    && bindings.row[a] == bindings.row[b]
                {
                    bindings.pairs.push((a, b));
                }
            }
        }
        bindings
    }

    /// The index into `busy` of `unit` at the kernel row of op `a`.
    fn at(&self, unit: UnitRef, a: usize) -> usize {
        (self.first[unit.group] + unit.instance) * self.ii + self.row[a] as usize
    }

    /// The first idle instance of `op`'s group at `op`'s kernel row whose
    /// cluster differs from `from` (deterministic choice).
    fn idle_in_other_cluster(
        &self,
        machine: &Machine,
        sched: &Schedule,
        op: OpId,
        from: ClusterId,
    ) -> Option<UnitRef> {
        let group = sched.unit(op).group;
        (0..machine.groups()[group].count())
            .map(|instance| UnitRef { group, instance })
            .find(|&u| machine.cluster_of(u) != from && !self.busy[self.at(u, op.index())])
    }
}

/// Finds the best improving candidate, if any, returning its post-action
/// score and the action.
#[allow(clippy::too_many_arguments)]
fn best_candidate(
    machine: &Machine,
    sched: &Schedule,
    bindings: &Bindings,
    lts: &[Lifetime],
    consumers: &Consumers,
    clusters: &[ClusterId],
    current: u32,
    opts: SwapOptions,
    scorer: &mut Scorer,
) -> Option<(u32, SwapAction)> {
    let mut best: Option<(u32, SwapAction)> = None;
    let consider = |score: u32, action: SwapAction, best: &mut Option<(u32, SwapAction)>| {
        if score < current && best.is_none_or(|(b, _)| score < b) {
            *best = Some((score, action));
        }
    };

    let mut scratch = clusters.to_vec();
    let mut score_scratch =
        |scratch: &[ClusterId], changed: &[usize]| scorer.score(lts, consumers, scratch, changed);

    // Pair swaps: same group, same kernel slot, different clusters.
    for &(a, b) in &bindings.pairs {
        if clusters[a] == clusters[b] {
            continue;
        }
        scratch.swap(a, b);
        let s = score_scratch(&scratch, &[a, b]);
        scratch.swap(a, b);
        let action = SwapAction::Pair(OpId::from_index(a), OpId::from_index(b));
        consider(s, action, &mut best);
    }

    // Moves: op -> idle same-group instance in another cluster, same slot.
    if opts.allow_moves {
        for (a, &from) in clusters.iter().enumerate() {
            let ida = OpId::from_index(a);
            if let Some(dest) = bindings.idle_in_other_cluster(machine, sched, ida, from) {
                let target = machine.cluster_of(dest);
                scratch[a] = target;
                let s = score_scratch(&scratch, &[a]);
                scratch[a] = from;
                consider(s, SwapAction::Move(ida, target), &mut best);
            }
        }
    }

    best
}

fn apply(
    machine: &Machine,
    sched: &mut Schedule,
    bindings: &mut Bindings,
    clusters: &mut [ClusterId],
    action: SwapAction,
) {
    match action {
        SwapAction::Pair(a, b) => {
            sched.swap_units(a, b);
            clusters.swap(a.index(), b.index());
        }
        SwapAction::Move(op, target) => {
            let dest = bindings
                .idle_in_other_cluster(machine, sched, op, clusters[op.index()])
                .expect("candidate search found an idle instance");
            debug_assert_eq!(machine.cluster_of(dest), target);
            let (from, to) = (
                bindings.at(sched.unit(op), op.index()),
                bindings.at(dest, op.index()),
            );
            bindings.busy[from] = false;
            bindings.busy[to] = true;
            sched.rebind(op, dest);
            clusters[op.index()] = target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_certify::certify_schedule;
    use ncdrf_ddg::{LoopBuilder, Weight};
    use ncdrf_regalloc::{classify, lifetimes};
    use ncdrf_sched::modulo_schedule;

    /// A variant of the paper's §4 example loop (Figure 2), not Figure 2
    /// itself (`ncdrf-corpus`'s `kernels::fig2`, which this crate does
    /// not depend on): `y` is read and written in place (`S7` stores to
    /// `y`, not `z`), `M3 = L2*r` (Figure 2: `L1*r`), `A4 = M3+t`
    /// (Figure 2: `M3+L2`) and `M5 = A4*L1` (Figure 2: `A4*t`). Same op
    /// count and kinds: 2 loads, 2 muls, 2 adds, 1 store.
    fn fig2_variant() -> Loop {
        let mut b = LoopBuilder::new("fig2_variant");
        let r = b.invariant("r", 0.5);
        let t = b.invariant("t", 1.5);
        let x = b.array_in("x");
        let y = b.array_inout("y");
        let l1 = b.load("L1", x, 0);
        let l2 = b.load("L2", y, 0);
        let m3 = b.mul("M3", l2.now(), r);
        let a4 = b.add("A4", m3.now(), t);
        let m5 = b.mul("M5", a4.now(), l1.now());
        let a6 = b.add("A6", m5.now(), l1.now());
        b.store("S7", y, 0, a6.now());
        b.finish(Weight::new(100, 1)).unwrap()
    }

    #[test]
    fn swap_never_increases_requirement() {
        let l = fig2_variant();
        let machine = Machine::clustered(3, 2);
        let mut sched = modulo_schedule(&l, &machine).unwrap();
        let out = swap_pass(&l, &machine, &mut sched).unwrap();
        assert!(out.after <= out.before);
        certify_schedule(&l, &machine, &sched).unwrap();
    }

    #[test]
    fn swap_preserves_schedule_validity() {
        let l = fig2_variant();
        let machine = Machine::clustered(6, 1);
        let mut sched = modulo_schedule(&l, &machine).unwrap();
        let _ = swap_pass(&l, &machine, &mut sched).unwrap();
        certify_schedule(&l, &machine, &sched).unwrap();
    }

    #[test]
    fn unified_machine_is_noop() {
        let l = fig2_variant();
        let machine = Machine::pxly(2, 3);
        let mut sched = modulo_schedule(&l, &machine).unwrap();
        let before = sched.clone();
        let out = swap_pass(&l, &machine, &mut sched).unwrap();
        assert!(out.actions.is_empty());
        assert_eq!(sched, before);
    }

    #[test]
    fn outcome_matches_final_classification() {
        let l = fig2_variant();
        let machine = Machine::clustered(3, 2);
        let mut sched = modulo_schedule(&l, &machine).unwrap();
        let out = swap_pass(&l, &machine, &mut sched).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let classes = classify(&l, &machine, &sched, &lts);
        assert_eq!(out.after, requirement_bound(&lts, &classes, sched.ii()));
    }

    #[test]
    fn gain_is_before_minus_after() {
        let l = fig2_variant();
        let machine = Machine::clustered(3, 2);
        let mut sched = modulo_schedule(&l, &machine).unwrap();
        let out = swap_pass(&l, &machine, &mut sched).unwrap();
        assert_eq!(out.gain(), out.before - out.after);
    }

    #[test]
    fn exact_scoring_not_worse_than_bound() {
        let l = fig2_variant();
        let machine = Machine::clustered(3, 2);

        let mut s1 = modulo_schedule(&l, &machine).unwrap();
        swap_pass_with(
            &l,
            &machine,
            &mut s1,
            SwapOptions {
                scoring: Scoring::MaxLiveBound,
                ..SwapOptions::default()
            },
        )
        .unwrap();

        let mut s2 = modulo_schedule(&l, &machine).unwrap();
        swap_pass_with(
            &l,
            &machine,
            &mut s2,
            SwapOptions {
                scoring: Scoring::ExactAlloc,
                ..SwapOptions::default()
            },
        )
        .unwrap();

        let exact_req = |s: &Schedule| {
            let lts = lifetimes(&l, &machine, s).unwrap();
            let classes = classify(&l, &machine, s, &lts);
            allocate_dual(&lts, &classes, s.ii()).regs
        };
        // Exact scoring optimises the real objective directly, so it should
        // end at least as low as the bound-guided pass on this small loop.
        assert!(exact_req(&s2) <= exact_req(&s1));
    }

    #[test]
    fn pairs_only_mode_applies_only_pairs() {
        let l = fig2_variant();
        let machine = Machine::clustered(3, 2);
        let mut sched = modulo_schedule(&l, &machine).unwrap();
        let out = swap_pass_with(
            &l,
            &machine,
            &mut sched,
            SwapOptions {
                allow_moves: false,
                ..SwapOptions::default()
            },
        )
        .unwrap();
        assert!(out
            .actions
            .iter()
            .all(|a| matches!(a, SwapAction::Pair(_, _))));
        certify_schedule(&l, &machine, &sched).unwrap();
    }

    #[test]
    fn max_steps_limits_actions() {
        let l = fig2_variant();
        let machine = Machine::clustered(6, 2);
        let mut sched = modulo_schedule(&l, &machine).unwrap();
        let out = swap_pass_with(
            &l,
            &machine,
            &mut sched,
            SwapOptions {
                max_steps: 1,
                ..SwapOptions::default()
            },
        )
        .unwrap();
        assert!(out.actions.len() <= 1);
    }

    #[test]
    fn classify_with_clusters_matches_schedule_classify() {
        let l = fig2_variant();
        let machine = Machine::clustered(3, 2);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let from_sched = classify(&l, &machine, &sched, &lts);
        let clusters = cluster_vec(&l, &machine, &sched);
        let from_vec = classify_with_clusters(&lts, &l.consumers(), &clusters);
        assert_eq!(from_sched, from_vec);
    }

    #[test]
    fn display_of_actions() {
        let a = SwapAction::Pair(OpId::from_index(1), OpId::from_index(2));
        assert_eq!(a.to_string(), "swap op1 <-> op2");
        let m = SwapAction::Move(OpId::from_index(3), ClusterId::RIGHT);
        assert_eq!(m.to_string(), "move op3 -> right");
    }
}
