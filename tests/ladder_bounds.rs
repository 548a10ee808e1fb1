//! The escalation ladder's shortcuts change no result. A ladder records
//! a rung whose class lower bound (MaxLive, or the larger subfile
//! pressure) already exceeds the budget as `AtLeast` and allocates it
//! only when a later budget reaches the bound; above a flat rung that
//! does not fit, it records the tail up to an unfit end rung as `AtLeast`
//! without scheduling it. These checks pin that down:
//!
//! - every bound the ladders of the `extended` preset hand out is at most
//!   the exact requirement, on the class and through the model's hook;
//! - every ladder serve — regs, II, `rounds`, `fits` and errors — equals
//!   a classless scan that schedules and allocates every rung, over
//!   descending and ascending budget ladders, for every built-in model,
//!   with and without a class part that fails on some rungs;
//! - above the first flat rung of every terminal loop an unfit serve
//!   escalates, every rung has the flat rung's schedule and class part,
//!   and the model's requirement never rises.

use ncdrf::corpus::Corpus;
use ncdrf::ddg::{Loop, OpKind};
use ncdrf::machine::{Machine, MachineError};
use ncdrf::sched::{modulo_schedule_with, PreparedLoop, Schedule};
use ncdrf::spill::{
    ClassInput, ClassKey, ClassRequirement, DescentTree, Requirement, ScheduleFacts, SpillOptions,
    SpillTrajectory,
};
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

    fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError> {
        self.0.allocate(input)
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        self.0.effective(l, class)
    }
}

/// `R` without a class: nothing is memoised and no flat tail is
/// skipped, so its ladder schedules every rung it passes.
struct Classless<R>(R);

impl<R: Requirement> Requirement for Classless<R> {
    fn class(&self) -> Option<ClassKey> {
        None
    }

    fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError> {
        self.0.allocate(input)
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        self.0.effective(l, class)
    }

    fn bound(&mut self, input: &ClassInput<'_>) -> Result<Option<ClassRequirement>, MachineError> {
        self.0.bound(input)
    }
}

/// `R` whose class part — bound and allocation alike — fails on every
/// schedule whose II is a multiple of `every`. A class part that fails
/// on some rungs of a flat tail and not on others breaks the class
/// contract, so a classed `Faulty` ladder may skip the rung the scan
/// fails on; the tests run it classless.
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

    fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError> {
        self.check(input.sched)?;
        self.inner.allocate(input)
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        self.inner.effective(l, class)
    }

    fn bound(&mut self, input: &ClassInput<'_>) -> Result<Option<ClassRequirement>, MachineError> {
        self.check(input.sched)?;
        self.inner.bound(input)
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

    fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError> {
        self.inner.allocate(input)
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        self.inner.effective(l, class)
    }

    fn bound(&mut self, input: &ClassInput<'_>) -> Result<Option<ClassRequirement>, MachineError> {
        let bound = self.inner.bound(input)?;
        if let Some(b) = &bound {
            let exact = self.inner.allocate(input)?;
            let (l, sched) = (input.l, input.sched);
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
            // The facts the bound filled change nothing: an allocation
            // on facts of its own is the same.
            let alone = allocate_alone(&mut self.inner, l, input.machine, sched)?;
            assert_eq!(alone, exact, "{at}");
            self.checked += 1;
        }
        Ok(bound)
    }
}

/// `requirement`'s class part on `sched`, a schedule of `l`, on
/// schedule facts of its own.
fn allocate_alone(
    requirement: &mut dyn Requirement,
    l: &Loop,
    machine: &Machine,
    sched: &Arc<Schedule>,
) -> Result<ClassRequirement, MachineError> {
    let (consumers, facts) = (l.consumers(), ScheduleFacts::default());
    requirement.allocate(&ClassInput::new(l, machine, sched, &consumers, &facts))
}

/// A trajectory of `l` on a tree of its own, and the tree.
fn in_own_tree(
    l: &Loop,
    machine: &Machine,
    requirement: &mut dyn Requirement,
    opts: SpillOptions,
) -> Result<(SpillTrajectory, Arc<DescentTree>), String> {
    let base = modulo_schedule_with(l, machine, opts.scheduler).map_err(|e| e.to_string())?;
    let tree = Arc::new(DescentTree::new(
        l.clone(),
        base,
        machine.clone(),
        opts.scheduler,
    ));
    let traj = SpillTrajectory::in_tree(&tree, requirement, opts).map_err(|e| e.to_string())?;
    Ok((traj, tree))
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
            let (mut traj, _) = in_own_tree(l, &machine, &mut check, opts.spill).unwrap();
            for budget in [16, 8, 0] {
                traj.evaluate(&machine, budget, &mut check).unwrap();
            }
        }
        assert!(check.checked > 0, "{model}: no bound was checked");
    }
}

/// What the serves of [`assert_serves_match`] did: how many escalated
/// and how many failed, the escalation rungs the subject's trees skipped,
/// and the terminal loops of its unfit escalated serves.
#[derive(Default)]
struct Served {
    escalated: u64,
    failed: u64,
    skipped: u64,
    unfit: Vec<(Loop, ModelId)>,
}

/// Serves every budget of `ladder` from a trajectory of each built-in
/// model and from the oracle — the classless scan of the same model with
/// its bound hidden, which schedules and allocates every rung — and
/// asserts equal results and errors. With `fault`, both class parts fail
/// on every II that is a multiple of it, and the subject is classless too
/// (see [`Faulty`]).
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
            let mut subject: Box<dyn Requirement> = match fault {
                Some(_) => Box::new(Classless(Faulty { inner, every })),
                None => Box::new(inner),
            };
            let inner = Unbounded(ModelRequirement::new(model, &opts));
            let mut oracle = Classless(Faulty { inner, every });
            let b = in_own_tree(l, machine, &mut *subject, opts.spill);
            let u = in_own_tree(l, machine, &mut oracle, opts.spill);
            let ((mut b, tree), (mut u, _)) = match (b, u) {
                (Ok(b), Ok(u)) => (b, u),
                (b, u) => {
                    assert_eq!(b.err(), u.err(), "`{}` {model}", l.name());
                    continue;
                }
            };
            for &budget in ladder {
                let want = u.evaluate(machine, budget, &mut oracle);
                let got = b.evaluate(machine, budget, &mut *subject);
                assert_eq!(got, want, "`{}` {model} @{budget}", l.name());
                match want {
                    Ok((result, stats)) => {
                        served.escalated += u64::from(stats.escalated);
                        let terminal = (result.l, model);
                        if stats.escalated && !result.fits && !served.unfit.contains(&terminal) {
                            served.unfit.push(terminal);
                        }
                    }
                    Err(_) => served.failed += 1,
                }
            }
            assert_eq!(b.snapshot(), u.snapshot(), "`{}` {model}", l.name());
            served.skipped += tree.stats().rungs_skipped;
        }
    }
    served
}

/// Ladders with class bounds and flat-tail skipping serve exactly what
/// the classless scan of every rung serves, budget by budget, in both
/// ladder directions, on the clustered machines of the `extended` and
/// `fig89` presets; the skipping is real.
#[test]
fn bounded_ladders_serve_what_allocating_ladders_serve() {
    let loops: Vec<Loop> = Corpus::small().take(16).iter().cloned().collect();
    let ascending: Vec<u32> = DESCENDING.iter().rev().copied().collect();
    for lat in [3, 6] {
        let machine = Machine::clustered(lat, 1);
        for ladder in [&DESCENDING[..], &ascending[..]] {
            let served = assert_serves_match(&machine, &loops, ladder, None);
            assert!(
                served.escalated > 0 && served.skipped > 0,
                "L{lat} {ladder:?}: {} serves escalated, {} rungs skipped",
                served.escalated,
                served.skipped
            );
            assert_eq!(served.failed, 0);
        }
    }
}

/// A class part that fails on some rungs fails the bounded ladder
/// exactly where it fails the allocating one, and retries re-fail alike.
/// Such a class part breaks the class contract, so both sides run
/// classless and no tail is skipped.
#[test]
fn bounded_ladders_fail_where_allocating_ladders_fail() {
    let loops: Vec<Loop> = Corpus::small().take(16).iter().cloned().collect();
    let twice: Vec<u32> = DESCENDING.iter().chain(&DESCENDING).copied().collect();
    let machine = Machine::clustered(6, 1);
    for every in [7, 11] {
        let served = assert_serves_match(&machine, &loops, &twice, Some(every));
        assert!(served.failed > 0 && served.escalated > 0, "every {every}");
        assert_eq!(served.skipped, 0);
    }
}

/// The sequential length an escalation ladder scans up to.
fn end_ii(l: &Loop, machine: &Machine) -> u32 {
    l.ops()
        .iter()
        .map(|op| machine.latency(op.kind()).unwrap() + 1)
        .sum::<u32>()
        + 1
}

/// The flat-tail contract on the loops it is used on: for every terminal
/// loop an unfit serve escalated on, every rung above its first flat rung
/// up to the ladder's end has the flat rung's starts and units and its
/// class part — `raw` and lifetimes — and the model's requirement never
/// rises along the tail, so the end rung's is the tail's least.
#[test]
fn a_skipped_tail_has_its_flat_rungs_class_part() {
    let loops: Vec<Loop> = Corpus::small().take(16).iter().cloned().collect();
    let opts = PipelineOptions::default();
    let scheduler = opts.spill.scheduler;
    let mut tails = 0;
    for lat in [3, 6] {
        let machine = Machine::clustered(lat, 1);
        let served = assert_serves_match(&machine, &loops, &DESCENDING, None);
        for (l, model) in &served.unfit {
            let mut requirement = ModelRequirement::new(*model, &opts);
            if requirement.class().is_none() || l.has_carried_operand() {
                continue;
            }
            let base = modulo_schedule_with(l, &machine, scheduler).unwrap().ii();
            let end = end_ii(l, &machine).max(base + 1);
            let mut prepared = PreparedLoop::new(l, &machine).unwrap();
            let Some((flat_ii, flat)) = (base + 1..end).find_map(|ii| {
                let rung = prepared.schedule_at_ii(ii, scheduler)?;
                rung.flat.then(|| (ii, Arc::new(rung.sched)))
            }) else {
                continue;
            };
            let want = allocate_alone(&mut requirement, l, &machine, &flat).unwrap();
            let mut regs = requirement.effective(l, &want);
            for ii in flat_ii + 1..=end {
                let at = format!("L{lat} `{}` {model} II {ii} above {flat_ii}", l.name());
                let rung = prepared.schedule_at_ii(ii, scheduler).expect(&at);
                for (id, _) in l.iter_ops() {
                    let (got, want) = (&rung.sched, &flat);
                    assert_eq!(got.start(id), want.start(id), "{at}");
                    assert_eq!(got.unit(id), want.unit(id), "{at}");
                }
                let got =
                    allocate_alone(&mut requirement, l, &machine, &Arc::new(rung.sched)).unwrap();
                assert_eq!(
                    (got.raw, &got.lifetimes),
                    (want.raw, &want.lifetimes),
                    "{at}"
                );
                let next = requirement.effective(l, &got);
                assert!(next <= regs, "{at}: requirement rose from {regs} to {next}");
                regs = next;
            }
            tails += 1;
        }
    }
    assert!(tails > 0, "no unfit serve ended above a flat rung");
}
