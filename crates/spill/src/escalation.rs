//! The II-escalation fallback of the spill loop, as a budget-independent
//! rung ladder.
//!
//! When spilling alone cannot fit a budget, the loop is re-scheduled at
//! increasing II until the requirement drops under the budget (it
//! eventually does — at II equal to the sequential length at most a
//! handful of values overlap). The scan runs on the *terminal* loop of an
//! exhausted descent, which no budget changes, so every rung `(II, regs)`
//! is the same for every budget: only where the scan stops differs.
//!
//! An [`EscalationLadder`] records those rungs as scalars the first time
//! a budget reaches them. A later budget is served by the first recorded
//! rung that fits — only that rung's schedule and requirement are
//! recomputed, both deterministic — and the ladder is extended lazily
//! when none does. Results are bit-identical to a full scan from the base
//! II at every budget, in any order.

use crate::{RequirementFn, SpillError, SpillResult};
use ncdrf_ddg::Loop;
use ncdrf_machine::Machine;
use ncdrf_sched::{SchedContext, Schedule, SchedulerOptions};

/// What the exhausted descent contributes to an escalated result: the
/// spill record of its terminal checkpoint and the rounds it ran.
pub(crate) struct SpillTally {
    pub(crate) spilled: Vec<String>,
    pub(crate) spill_stores: usize,
    pub(crate) spill_loads: usize,
    pub(crate) rounds: usize,
}

/// The II-escalation rungs of one terminal loop. Scalars only: the
/// schedule of a served rung is recomputed, never stored.
#[derive(Debug, Clone)]
pub(crate) struct EscalationLadder {
    /// II of the terminal loop's base schedule; the scan starts above it.
    base_ii: u32,
    /// The last II the scan tries.
    end_ii: u32,
    /// The next II to compute; `end_ii + 1` once the ladder is complete.
    next_ii: u32,
    /// `(ii, regs)` of every computed II that scheduled, ascending.
    rungs: Vec<(u32, u32)>,
}

impl EscalationLadder {
    /// Starts the ladder of `l`: schedules its base to find where the
    /// scan begins, and bounds the scan by the loop's sequential length.
    ///
    /// # Errors
    ///
    /// [`SpillError::Schedule`] when the base schedule fails.
    pub(crate) fn new(
        l: &Loop,
        machine: &Machine,
        opts: SchedulerOptions,
    ) -> Result<EscalationLadder, SpillError> {
        let base_ii = SchedContext::new().schedule(l, machine, opts)?.ii();
        let seq_len: u32 = l
            .ops()
            .iter()
            .map(|op| machine.latency(op.kind()).unwrap_or(1) + 1)
            .sum::<u32>()
            + 1;
        Ok(EscalationLadder {
            base_ii,
            end_ii: seq_len.max(base_ii + 1),
            next_ii: base_ii + 1,
            rungs: Vec::new(),
        })
    }

    /// The result of escalating `l` (the loop this ladder was built on)
    /// for `budget`: the first rung that fits, or — when none does — the
    /// last rung that scheduled (the base schedule if none did), marked
    /// unfit. `rounds` adds one round per II tried up to the served rung.
    ///
    /// # Errors
    ///
    /// The scheduling or requirement error of the first rung that fails;
    /// the rungs before it stay recorded, and a retry re-fails the same
    /// rung.
    pub(crate) fn serve(
        &mut self,
        l: &Loop,
        machine: &Machine,
        budget: u32,
        requirement: &mut RequirementFn<'_>,
        opts: SchedulerOptions,
        tally: SpillTally,
    ) -> Result<SpillResult, SpillError> {
        let mut ctx = SchedContext::new();
        let cached = self
            .rungs
            .iter()
            .find(|&&(_, regs)| regs <= budget)
            .map(|&(ii, _)| ii);
        let rung = match cached {
            Some(ii) => Some(self.recompute(&mut ctx, l, machine, ii, requirement, opts)?),
            None => match self.extend(&mut ctx, l, machine, budget, requirement, opts)? {
                extended @ Some(_) => extended,
                None => self
                    .rungs
                    .last()
                    .map(|&(ii, _)| self.recompute(&mut ctx, l, machine, ii, requirement, opts))
                    .transpose()?,
            },
        };
        let tried = |ii: u32| tally.rounds + (ii - self.base_ii) as usize;
        let (sched, regs, rounds) = match rung {
            Some((ii, sched, regs)) if regs <= budget => (sched, regs, tried(ii)),
            Some((_, sched, regs)) => (sched, regs, tried(self.end_ii)),
            None => {
                let mut sched = ctx.schedule(l, machine, opts)?;
                let regs = requirement(l, machine, &mut sched)?;
                (sched, regs, tried(self.end_ii))
            }
        };
        Ok(SpillResult {
            l: l.to_owned(),
            sched,
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
        l: &Loop,
        machine: &Machine,
        budget: u32,
        requirement: &mut RequirementFn<'_>,
        opts: SchedulerOptions,
    ) -> Result<Option<(u32, Schedule, u32)>, SpillError> {
        let mut last = None;
        while self.next_ii <= self.end_ii {
            let ii = self.next_ii;
            if let Some(mut sched) = ctx.schedule_at_ii(l, machine, ii, opts)? {
                let regs = requirement(l, machine, &mut sched)?;
                self.rungs.push((ii, regs));
                last = Some((ii, sched, regs));
            }
            self.next_ii = ii + 1;
            if last.as_ref().is_some_and(|&(_, _, regs)| regs <= budget) {
                break;
            }
        }
        Ok(last)
    }

    /// Recomputes the schedule and requirement of the recorded rung at
    /// `ii`.
    fn recompute(
        &self,
        ctx: &mut SchedContext,
        l: &Loop,
        machine: &Machine,
        ii: u32,
        requirement: &mut RequirementFn<'_>,
        opts: SchedulerOptions,
    ) -> Result<(u32, Schedule, u32), SpillError> {
        let mut sched = ctx
            .schedule_at_ii(l, machine, ii, opts)?
            .expect("a recorded rung schedules again at the same II");
        let regs = requirement(l, machine, &mut sched)?;
        debug_assert!(
            self.rungs.contains(&(ii, regs)),
            "rung at II {ii} recomputed to {regs} registers"
        );
        Ok((ii, sched, regs))
    }
}
