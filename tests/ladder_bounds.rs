//! The escalation ladder's class bounds change no result. A ladder
//! records a rung whose class lower bound (MaxLive, or the larger subfile
//! pressure) already exceeds the budget as `AtLeast` and allocates it
//! only when a later budget reaches the bound. Two checks pin that down:
//!
//! - every bound the ladders of the `extended` preset hand out is at most
//!   the exact requirement, on the class and through the model's hook;
//! - every ladder serve — regs, II, `rounds`, `fits` and errors — equals
//!   the allocating scan of the same requirement with its bound hidden,
//!   over descending and ascending budget ladders, for every built-in
//!   model, with and without a class part that fails on some rungs.

use ncdrf::corpus::Corpus;
use ncdrf::ddg::{Loop, OpKind};
use ncdrf::machine::{Machine, MachineError};
use ncdrf::sched::{modulo_schedule_with, Schedule};
use ncdrf::spill::{ClassKey, ClassRequirement, Requirement, SpillOptions, SpillTrajectory};
use ncdrf::{ModelId, ModelRequirement, PipelineOptions};
use std::sync::Arc;

/// The built-in models: the paper's four, `port-limited` and
/// `compressed`.
const MODELS: [ModelId; 6] = [
    ModelId::IDEAL,
    ModelId::UNIFIED,
    ModelId::PARTITIONED,
    ModelId::SWAPPED,
    ModelId::PORT_LIMITED,
    ModelId::COMPRESSED,
];

/// Budgets from the paper's down to 2, where most cells exhaust their
/// descent and escalate.
const DESCENDING: [u32; 6] = [64, 32, 16, 8, 4, 2];

/// `R` with its class bound hidden: the scan that allocates every rung.
struct Unbounded<R>(R);

impl<R: Requirement> Requirement for Unbounded<R> {
    fn class(&self) -> Option<ClassKey> {
        self.0.class()
    }

    fn allocate(
        &mut self,
        l: &Loop,
        machine: &Machine,
        sched: &Arc<Schedule>,
    ) -> Result<ClassRequirement, MachineError> {
        self.0.allocate(l, machine, sched)
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        self.0.effective(l, class)
    }
}

/// `R` whose class part — bound and allocation alike — fails on every
/// schedule whose II is a multiple of `every`.
struct Faulty<R> {
    inner: R,
    every: u32,
}

impl<R> Faulty<R> {
    fn check(&self, sched: &Schedule) -> Result<(), MachineError> {
        if sched.ii().is_multiple_of(self.every) {
            Err(MachineError::Unserved(OpKind::FpDiv))
        } else {
            Ok(())
        }
    }
}

impl<R: Requirement> Requirement for Faulty<R> {
    fn class(&self) -> Option<ClassKey> {
        self.inner.class()
    }

    fn allocate(
        &mut self,
        l: &Loop,
        machine: &Machine,
        sched: &Arc<Schedule>,
    ) -> Result<ClassRequirement, MachineError> {
        self.check(sched)?;
        self.inner.allocate(l, machine, sched)
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        self.inner.effective(l, class)
    }

    fn bound(
        &mut self,
        l: &Loop,
        machine: &Machine,
        sched: &Arc<Schedule>,
    ) -> Result<Option<ClassRequirement>, MachineError> {
        self.check(sched)?;
        self.inner.bound(l, machine, sched)
    }

    fn tighten(
        &mut self,
        l: &Loop,
        machine: &Machine,
        sched: &Arc<Schedule>,
        bound: &ClassRequirement,
    ) -> Result<ClassRequirement, MachineError> {
        self.inner.tighten(l, machine, sched, bound)
    }
}

/// A model requirement that checks every bound it hands out against the
/// exact requirement on the same schedule.
struct Checked {
    inner: ModelRequirement,
    checked: usize,
}

impl Requirement for Checked {
    fn class(&self) -> Option<ClassKey> {
        self.inner.class()
    }

    fn allocate(
        &mut self,
        l: &Loop,
        machine: &Machine,
        sched: &Arc<Schedule>,
    ) -> Result<ClassRequirement, MachineError> {
        self.inner.allocate(l, machine, sched)
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        self.inner.effective(l, class)
    }

    fn bound(
        &mut self,
        l: &Loop,
        machine: &Machine,
        sched: &Arc<Schedule>,
    ) -> Result<Option<ClassRequirement>, MachineError> {
        let bound = self.inner.bound(l, machine, sched)?;
        if let Some(b) = &bound {
            let exact = self.inner.allocate(l, machine, sched)?;
            let at = format!("`{}` II {}", l.name(), sched.ii());
            assert!(
                b.raw <= exact.raw,
                "{at}: class bound {} > {}",
                b.raw,
                exact.raw
            );
            assert_eq!((&b.sched, &b.lifetimes), (&exact.sched, &exact.lifetimes));
            let (lb, regs) = (self.inner.effective(l, b), self.inner.effective(l, &exact));
            assert!(lb <= regs, "{at}: model bound {lb} > {regs}");
            assert_eq!(self.inner.tighten(l, machine, sched, b)?, exact, "{at}");
            self.checked += 1;
        }
        Ok(bound)
    }

    fn tighten(
        &mut self,
        l: &Loop,
        machine: &Machine,
        sched: &Arc<Schedule>,
        bound: &ClassRequirement,
    ) -> Result<ClassRequirement, MachineError> {
        self.inner.tighten(l, machine, sched, bound)
    }
}

/// A fresh trajectory of `l` on its own tree.
fn trajectory(
    l: &Loop,
    machine: &Machine,
    requirement: &mut dyn Requirement,
    opts: SpillOptions,
) -> Result<SpillTrajectory, String> {
    let base = modulo_schedule_with(l, machine, opts.scheduler).map_err(|e| e.to_string())?;
    SpillTrajectory::from_base(l, machine, base, requirement, opts).map_err(|e| e.to_string())
}

/// Every bound the `extended` preset's ladders compute on the small
/// corpus at L3 is at most the exact requirement: each finite model of
/// the preset on a tree of its own (models sharing a tree share their
/// class bounds, so only the first would see each one), at the preset's
/// budgets 16 and 8 and then at 0, which scans each ladder to its end.
#[test]
fn every_extended_rung_bound_is_at_most_the_exact_requirement() {
    let machine = Machine::clustered(3, 1);
    let opts = PipelineOptions::default();
    for model in [ModelId::UNIFIED, ModelId::PORT_LIMITED, ModelId::COMPRESSED] {
        let mut check = Checked {
            inner: ModelRequirement::new(model, &opts),
            checked: 0,
        };
        for l in Corpus::small().iter() {
            let mut traj = trajectory(l, &machine, &mut check, opts.spill).unwrap();
            for budget in [16, 8, 0] {
                traj.evaluate(&machine, budget, &mut check).unwrap();
            }
        }
        assert!(check.checked > 0, "{model}: no bound was checked");
    }
}

/// How many serves escalated, and how many failed.
#[derive(Default)]
struct Served {
    escalated: u64,
    failed: u64,
}

/// Serves every budget of `ladder` from a bounded and an unbounded
/// trajectory of each built-in model and asserts equal results and
/// errors.
fn assert_serves_match(
    machine: &Machine,
    loops: &[Loop],
    ladder: &[u32],
    fault: Option<u32>,
) -> Served {
    let opts = PipelineOptions::default();
    let mut served = Served::default();
    for l in loops {
        for model in MODELS {
            let every = fault.unwrap_or(u32::MAX);
            let inner = ModelRequirement::new(model, &opts);
            let mut bounded = Faulty { inner, every };
            let inner = Unbounded(ModelRequirement::new(model, &opts));
            let mut unbounded = Faulty { inner, every };
            let b = trajectory(l, machine, &mut bounded, opts.spill);
            let u = trajectory(l, machine, &mut unbounded, opts.spill);
            let (mut b, mut u) = match (b, u) {
                (Ok(b), Ok(u)) => (b, u),
                (b, u) => {
                    assert_eq!(b.err(), u.err(), "`{}` {model}", l.name());
                    continue;
                }
            };
            for &budget in ladder {
                let want = u.evaluate(machine, budget, &mut unbounded);
                let got = b.evaluate(machine, budget, &mut bounded);
                assert_eq!(got, want, "`{}` {model} @{budget}", l.name());
                match want {
                    Ok((_, stats)) => served.escalated += u64::from(stats.escalated),
                    Err(_) => served.failed += 1,
                }
            }
            assert_eq!(b.snapshot(), u.snapshot(), "`{}` {model}", l.name());
        }
    }
    served
}

/// Bounded ladders serve exactly what allocating ladders serve, budget
/// by budget, in both ladder directions, on both clustered machines.
#[test]
fn bounded_ladders_serve_what_allocating_ladders_serve() {
    let loops: Vec<Loop> = Corpus::small().take(16).iter().cloned().collect();
    let ascending: Vec<u32> = DESCENDING.iter().rev().copied().collect();
    for lat in [3, 6] {
        let machine = Machine::clustered(lat, 1);
        for ladder in [&DESCENDING[..], &ascending[..]] {
            let served = assert_serves_match(&machine, &loops, ladder, None);
            assert!(
                served.escalated > 0,
                "L{lat} {ladder:?}: no serve escalated"
            );
            assert_eq!(served.failed, 0);
        }
    }
}

/// A class part that fails on some rungs fails the bounded ladder
/// exactly where it fails the allocating one, and retries re-fail alike.
#[test]
fn bounded_ladders_fail_where_allocating_ladders_fail() {
    let loops: Vec<Loop> = Corpus::small().take(16).iter().cloned().collect();
    let twice: Vec<u32> = DESCENDING.iter().chain(&DESCENDING).copied().collect();
    let machine = Machine::clustered(6, 1);
    for every in [7, 11] {
        let served = assert_serves_match(&machine, &loops, &twice, Some(every));
        assert!(served.failed > 0 && served.escalated > 0, "every {every}");
    }
}
