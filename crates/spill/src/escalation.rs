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
//! class allocates each rung once. Results are bit-identical to a full
//! scan from the base II at every budget, in any order. The fresh driver
//! [`crate::spill_until_fits`] serves its one budget from a one-shot
//! ladder on a tree rooted at its exhausted loop.

use crate::descent::{DescentState, DescentTree};
use crate::{Requirement, SpillError, SpillResult};
use ncdrf_sched::{SchedContext, Schedule};
use std::sync::Arc;

/// What the exhausted descent contributes to an escalated result: the
/// spill record of its terminal checkpoint and the rounds it ran.
pub(crate) struct SpillTally {
    pub(crate) spilled: Vec<String>,
    pub(crate) spill_stores: usize,
    pub(crate) spill_loads: usize,
    pub(crate) rounds: usize,
}

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
    /// `(ii, regs)` of every computed II that scheduled, ascending.
    rungs: Vec<(u32, u32)>,
}

/// A served rung: its II, post-requirement schedule and requirement.
type Rung = (u32, Arc<Schedule>, u32);

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
        let mut ctx = SchedContext::new();
        let cached = self
            .rungs
            .iter()
            .find(|&&(_, regs)| regs <= budget)
            .map(|&(ii, _)| ii);
        let rung = match cached {
            Some(ii) => Some(self.recompute(&mut ctx, tree, state, ii, requirement)?),
            None => match self.extend(&mut ctx, tree, state, budget, requirement)? {
                extended @ Some(_) => extended,
                None => self
                    .rungs
                    .last()
                    .map(|&(ii, _)| self.recompute(&mut ctx, tree, state, ii, requirement))
                    .transpose()?,
            },
        };
        let tried = |ii: u32| tally.rounds + (ii - self.base_ii) as usize;
        let (sched, regs, rounds) = match rung {
            Some((ii, sched, regs)) if regs <= budget => (sched, regs, tried(ii)),
            Some((_, sched, regs)) => (sched, regs, tried(self.end_ii)),
            None => {
                let (class, regs) = tree.requirement(state, &state.fresh, requirement)?;
                (Arc::clone(&class.sched), regs, tried(self.end_ii))
            }
        };
        Ok(SpillResult {
            l: state.l.to_owned(),
            sched: Schedule::to_owned(&sched),
            regs,
            fits: regs <= budget,
            spilled: tally.spilled,
            spill_stores: tally.spill_stores,
            spill_loads: tally.spill_loads,
            rounds,
        })
    }

    /// Computes rungs from `next_ii` on, recording each one that
    /// schedules, and stops at the first that fits `budget`. Returns the
    /// last rung this call scheduled — the fitting one, or the final rung
    /// when the ladder ran out — or `None` if it scheduled none.
    fn extend(
        &mut self,
        ctx: &mut SchedContext,
        tree: &DescentTree,
        state: &Arc<DescentState>,
        budget: u32,
        requirement: &mut dyn Requirement,
    ) -> Result<Option<Rung>, SpillError> {
        let mut last = None;
        while self.next_ii <= self.end_ii {
            let ii = self.next_ii;
            if let Some(rung) = tree.rung(state, ii, ctx)? {
                let (class, regs) = tree.requirement(state, &rung, requirement)?;
                self.rungs.push((ii, regs));
                last = Some((ii, Arc::clone(&class.sched), regs));
            }
            self.next_ii = ii + 1;
            if last.as_ref().is_some_and(|&(_, _, regs)| regs <= budget) {
                break;
            }
        }
        Ok(last)
    }

    /// The schedule and requirement of the recorded rung at `ii`.
    fn recompute(
        &self,
        ctx: &mut SchedContext,
        tree: &DescentTree,
        state: &Arc<DescentState>,
        ii: u32,
        requirement: &mut dyn Requirement,
    ) -> Result<Rung, SpillError> {
        let rung = tree
            .rung(state, ii, ctx)?
            .expect("a recorded rung schedules again at the same II");
        let (class, regs) = tree.requirement(state, &rung, requirement)?;
        debug_assert!(
            self.rungs.contains(&(ii, regs)),
            "rung at II {ii} recomputed to {regs} registers"
        );
        Ok((ii, Arc::clone(&class.sched), regs))
    }
}
