//! The II-escalation fallback of the spill loop, as a budget-independent
//! rung ladder.
//!
//! When spilling alone cannot fit a budget, the loop is re-scheduled at
//! increasing II until the requirement drops under the budget (it
//! eventually does — at II equal to the sequential length at most a
//! handful of values overlap). The scan runs on the *terminal* state of
//! an exhausted descent, which no budget changes, so every rung `(II,
//! regs)` is the same for every budget: only where the scan stops
//! differs.
//!
//! An [`EscalationLadder`] records a trajectory's rungs as scalars the
//! first time a budget reaches them. A later budget is served by the
//! first recorded rung that fits, and the ladder is extended lazily when
//! none does. The rung schedules themselves live in the terminal state's
//! rung table of the [`DescentTree`], so every model whose descent ends
//! in that state schedules each rung once, and a memoised requirement
//! class allocates each rung once. A serve analyses the terminal loop
//! for IMS once, on the first rung it schedules, on a scheduler context
//! borrowed from the tree's pool.
//!
//! A rung is allocated only when it might fit. Where the requirement has
//! a class lower bound ([`crate::Requirement::bound`]: MaxLive for the
//! unified class), a rung whose bound, through the model's monotone hook,
//! already exceeds the budget is recorded as `AtLeast(lb)` and the scan
//! moves on; it is resolved to its exact requirement, in II order, only
//! when a later budget reaches `lb`, or when it is the last rung that
//! scheduled and no rung fits. A rung the bound skips cannot fit.
//!
//! A rung is scheduled only when it might fit. Above a *flat* rung (its
//! IMS attempt repeats, up to II, at every higher II, and every lifetime
//! ends by its II; see the descent module) every rung has the same
//! schedule and, by the class contract of [`crate::Requirement::class`],
//! the same class part, and the model's hook only falls as II grows. So
//! when a flat rung of a classed requirement does not fit, the ladder
//! settles the end rung: if that does not fit either, no rung of the tail
//! can, and the rungs between are recorded as at least the end rung's
//! requirement without being scheduled; a later budget that reaches it
//! resolves them in II order like any `AtLeast` rung. If the end rung
//! fits, the tail is scanned rung by rung. A requirement without a class
//! always scans.
//!
//! Neither shortcut changes a result: the served rung — and every result
//! — is bit-identical to a full allocating scan from the base II at every
//! budget, in any order. The fresh driver [`crate::spill_until_fits`]
//! serves its one budget from a one-shot ladder on a tree rooted at its
//! exhausted loop.

use crate::descent::{DescentState, DescentTree, Regs, Settled};
use crate::{ClassRequirement, Requirement, SpillError, SpillResult};
use ncdrf_sched::{PreparedLoop, Schedule};
use std::sync::Arc;

/// What the exhausted descent contributes to an escalated result: the
/// spill record of its terminal checkpoint and the rounds it ran.
pub(crate) struct SpillTally {
    pub(crate) spilled: Vec<String>,
    pub(crate) spill_stores: usize,
    pub(crate) spill_loads: usize,
    pub(crate) rounds: usize,
}

/// A recorded rung by index, with its class part and requirement when
/// the call that returns it computed them.
type Recorded = (usize, Option<(Arc<ClassRequirement>, u32)>);

/// The terminal loop, analysed for IMS on a context of the tree's pool
/// on the first rung a serve schedules; the serve returns the context.
type Prepared<'s> = Option<PreparedLoop<'s>>;

/// One trajectory's II-escalation rungs of its terminal state. Scalars
/// only: the schedules are in the state's rung table.
#[derive(Debug, Clone)]
pub(crate) struct EscalationLadder {
    /// II of the terminal state's fresh schedule; the scan starts above
    /// it.
    base_ii: u32,
    /// The last II the scan tries.
    end_ii: u32,
    /// The next II to compute; `end_ii + 1` once the ladder is complete.
    next_ii: u32,
    /// `(ii, regs)` of every computed or skipped II that schedules,
    /// ascending; a rung is [`Regs::AtLeast`] until a budget that
    /// reaches its floor resolves it.
    rungs: Vec<(u32, Regs)>,
}

impl EscalationLadder {
    /// Starts the ladder of `state`, a state of `tree`, bounding the
    /// scan by the loop's sequential length.
    pub(crate) fn new(tree: &DescentTree, state: &DescentState) -> EscalationLadder {
        let base_ii = state.fresh.sched.ii();
        let seq_len: u32 = state
            .l
            .ops()
            .iter()
            .map(|op| tree.machine().latency(op.kind()).unwrap_or(1) + 1)
            .sum::<u32>()
            + 1;
        EscalationLadder {
            base_ii,
            end_ii: seq_len.max(base_ii + 1),
            next_ii: base_ii + 1,
            rungs: Vec::new(),
        }
    }

    /// The result of escalating `state` (the state this ladder was built
    /// on) for `budget`: the first rung that fits, or — when none does —
    /// the last rung that scheduled (the fresh schedule if none did),
    /// marked unfit. `rounds` adds one round per II tried up to the
    /// served rung.
    ///
    /// # Errors
    ///
    /// The scheduling or requirement error of the first rung that fails;
    /// the rungs before it stay recorded, and a retry re-fails the same
    /// rung.
    pub(crate) fn serve(
        &mut self,
        tree: &DescentTree,
        state: &Arc<DescentState>,
        budget: u32,
        requirement: &mut dyn Requirement,
        tally: SpillTally,
    ) -> Result<SpillResult, SpillError> {
        let mut prepared = None;
        let served = self.serve_on(&mut prepared, tree, state, budget, requirement, tally);
        tree.restore(prepared);
        served
    }

    /// [`EscalationLadder::serve`], scheduling its rungs on `p`.
    fn serve_on<'s>(
        &mut self,
        p: &mut Prepared<'s>,
        tree: &'s DescentTree,
        state: &'s Arc<DescentState>,
        budget: u32,
        requirement: &mut dyn Requirement,
        tally: SpillTally,
    ) -> Result<SpillResult, SpillError> {
        let served = match self.first_recorded_fit(p, tree, state, budget, requirement)? {
            Some(hit) => Some(hit),
            None => self
                .extend(p, tree, state, budget, requirement)?
                .or_else(|| self.rungs.len().checked_sub(1).map(|last| (last, None))),
        };
        let ((class, regs), tried) = match served {
            Some((i, known)) => {
                let known = match known {
                    Some(known) => known,
                    None => self.resolve(p, tree, state, i, requirement)?,
                };
                let tried = if known.1 <= budget {
                    self.rungs[i].0
                } else {
                    self.end_ii
                };
                (known, tried)
            }
            None => (
                tree.requirement(state, &state.fresh, requirement)?,
                self.end_ii,
            ),
        };
        Ok(SpillResult {
            l: state.l.to_owned(),
            sched: Schedule::to_owned(&class.sched),
            regs,
            fits: regs <= budget,
            spilled: tally.spilled,
            spill_stores: tally.spill_stores,
            spill_loads: tally.spill_loads,
            rounds: tally.rounds + (tried - self.base_ii) as usize,
        })
    }

    /// The first recorded rung that fits `budget`, resolving in II order
    /// every [`Regs::AtLeast`] rung whose bound `budget` reaches.
    fn first_recorded_fit<'s>(
        &mut self,
        prepared: &mut Prepared<'s>,
        tree: &'s DescentTree,
        state: &'s Arc<DescentState>,
        budget: u32,
        requirement: &mut dyn Requirement,
    ) -> Result<Option<Recorded>, SpillError> {
        for i in 0..self.rungs.len() {
            let (regs, known) = match self.rungs[i].1 {
                Regs::Exact(regs) => (regs, None),
                Regs::AtLeast(lb) if lb > budget => continue,
                Regs::AtLeast(_) => {
                    let (class, regs) = self.resolve(prepared, tree, state, i, requirement)?;
                    (regs, Some((class, regs)))
                }
            };
            if regs <= budget {
                return Ok(Some((i, known)));
            }
        }
        Ok(None)
    }

    /// Computes rungs from `next_ii` on, recording each one that
    /// schedules, and stops at the first that fits `budget`. Returns the
    /// last rung this call recorded — the fitting one, or the final rung
    /// when the ladder ran out — or `None` if it recorded none. A rung
    /// is allocated only when its bound admits `budget`, and the tail
    /// above a flat rung is scheduled only when its end rung fits.
    fn extend<'s>(
        &mut self,
        prepared: &mut Prepared<'s>,
        tree: &'s DescentTree,
        state: &'s Arc<DescentState>,
        budget: u32,
        requirement: &mut dyn Requirement,
    ) -> Result<Option<Recorded>, SpillError> {
        let mut last = None;
        // Set once the end rung fits `budget`: the tail is then scanned.
        let mut end_fits = false;
        while self.next_ii <= self.end_ii {
            let ii = self.next_ii;
            let rung = tree.rung(state, ii, prepared)?;
            let settled = match &rung {
                Some(rung) => Some(tree.requirement_within(state, rung, requirement, budget)?),
                None => None,
            };
            self.next_ii = ii + 1;
            let (Some(rung), Some(settled)) = (rung, settled) else {
                continue;
            };
            let (regs, known) = match settled {
                Settled::Exact(class, regs) => (Regs::Exact(regs), Some((class, regs))),
                Settled::AtLeast(lb) => (Regs::AtLeast(lb), None),
            };
            self.rungs.push((ii, regs));
            last = Some((self.rungs.len() - 1, known));
            if matches!(regs, Regs::Exact(r) if r <= budget) {
                break;
            }
            if rung.flat && !end_fits && ii < self.end_ii && requirement.class().is_some() {
                match self.skip_tail(prepared, tree, state, ii, budget, requirement)? {
                    Some(end) => return Ok(Some(end)),
                    None => end_fits = true,
                }
            }
        }
        Ok(last)
    }

    /// Rung `ii` is flat and does not fit `budget`. Settles the end rung,
    /// whose requirement is the least of the tail above `ii`; when it
    /// does not fit either, records the rungs between as at least that
    /// requirement without scheduling them, records the end rung, and
    /// returns it. Returns `None` when the end rung fits: the tail must
    /// be scanned.
    fn skip_tail<'s>(
        &mut self,
        prepared: &mut Prepared<'s>,
        tree: &'s DescentTree,
        state: &'s Arc<DescentState>,
        ii: u32,
        budget: u32,
        requirement: &mut dyn Requirement,
    ) -> Result<Option<Recorded>, SpillError> {
        let end = tree
            .rung(state, self.end_ii, prepared)?
            .expect("a flat rung schedules at every higher II");
        let (regs, floor, known) =
            match tree.requirement_within(state, &end, requirement, budget)? {
                Settled::Exact(_, r) if r <= budget => return Ok(None),
                Settled::Exact(class, r) => (Regs::Exact(r), r, Some((class, r))),
                Settled::AtLeast(lb) => (Regs::AtLeast(lb), lb, None),
            };
        tree.skipped(u64::from(self.end_ii - ii - 1));
        self.rungs
            .extend((ii + 1..self.end_ii).map(|skip| (skip, Regs::AtLeast(floor))));
        self.rungs.push((self.end_ii, regs));
        self.next_ii = self.end_ii + 1;
        Ok(Some((self.rungs.len() - 1, known)))
    }

    /// The exact requirement of recorded rung `i`, which it records.
    fn resolve<'s>(
        &mut self,
        prepared: &mut Prepared<'s>,
        tree: &'s DescentTree,
        state: &'s Arc<DescentState>,
        i: usize,
        requirement: &mut dyn Requirement,
    ) -> Result<(Arc<ClassRequirement>, u32), SpillError> {
        let (ii, recorded) = self.rungs[i];
        let rung = tree
            .rung(state, ii, prepared)?
            .expect("a recorded rung schedules again at the same II");
        let (class, regs) = tree.requirement(state, &rung, requirement)?;
        // An `AtLeast` rung was settled by its class bound or skipped
        // above a flat rung; either floor is at most its requirement.
        debug_assert!(
            match recorded {
                Regs::Exact(r) => r == regs,
                Regs::AtLeast(lb) => lb <= regs,
            },
            "rung at II {ii} recorded as {recorded:?}, recomputed to {regs} registers"
        );
        self.rungs[i].1 = Regs::Exact(regs);
        Ok((class, regs))
    }
}
