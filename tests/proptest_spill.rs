//! Property tests for spill trajectories.
//!
//! Register-tiling work (arXiv:1406.0582) frames spilling as a monotone
//! pressure-reduction process, and that framing is *almost* right here —
//! with one honest caveat this suite pins down instead of papering over:
//!
//! * **Per-step monotonicity is violated by reschedule noise.** Each
//!   spill rewrites the graph and reschedules from scratch; the reloads'
//!   lifetimes under the new schedule can transiently *raise* the
//!   requirement (`per_step_monotonicity_has_reschedule_counterexamples`
//!   keeps a concrete kernel counterexample on record).
//! * **What continuation actually relies on is budget-independence, not
//!   per-step descent**: the fresh driver stops at the *first* state
//!   fitting its budget, and the step taken from any non-fitting state
//!   does not depend on the budget. Hence the trajectory is prefix-stable
//!   (`resuming_at_any_checkpoint_yields_the_straight_through_tail`) and
//!   first-fit service is bit-identical to a fresh run at every budget
//!   (`continued_results_match_fresh_for_any_budget_order`).
//! * **The *served* requirement is monotone in the budget** — the
//!   user-visible monotonicity theorem: descending budgets can only
//!   tighten the requirement a fitting evaluation reports
//!   (`served_requirements_are_monotone_in_the_budget`).

use ncdrf::corpus::{generate, kernels, GenConfig};
use ncdrf::machine::Machine;
use ncdrf::sched::{modulo_schedule, SchedContext, SchedulerOptions};
use ncdrf::spill::{
    requirement_unified, spill_until_fits_seeded, ClassInput, Requirement, ScheduleFacts,
    SpillOptions, SpillPolicy, SpillTrajectory,
};
use ncdrf::{ModelId, ModelRequirement, PipelineOptions};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_config() -> impl Strategy<Value = GenConfig> {
    (2usize..10, 1usize..4, 0.0f64..0.4, 0.0f64..0.9).prop_map(|(arith, loads, rec, chain)| {
        GenConfig {
            min_arith: arith,
            max_arith: arith + 6,
            min_loads: loads,
            max_loads: loads + 2,
            recurrence_prob: rec,
            chain_bias: chain,
            ..GenConfig::default()
        }
    })
}

/// Drives a fresh trajectory as deep as a 2-register budget needs
/// (every step of the descent for all practical purposes).
fn deep_trajectory(l: &ncdrf::ddg::Loop, machine: &Machine, opts: SpillOptions) -> SpillTrajectory {
    let base = modulo_schedule(l, machine).unwrap();
    let mut t =
        SpillTrajectory::from_base(l, machine, base, &mut requirement_unified, opts).unwrap();
    t.evaluate(machine, 2, &mut requirement_unified).unwrap();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The escalation ladder skips a rung on its class bound, so every
    // bound must be at most the exact class requirement — and, through
    // each model's monotone hook, at most the model's requirement — on
    // the base schedule and on the rungs above it. Allocating after the
    // bound, on the facts it filled, gives exactly the allocation on
    // facts of its own.
    #[test]
    fn class_bounds_never_exceed_exact_requirements(seed in 0u64..5_000, cfg in arb_config(), lat in prop_oneof![Just(3u32), Just(6u32)]) {
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(lat, 1);
        let opts = PipelineOptions::default();
        let base = modulo_schedule(&l, &machine).unwrap();
        let mut ctx = SchedContext::new();
        let consumers = l.consumers();
        let mut bounded = 0;
        for ii in base.ii()..base.ii() + 24 {
            let Some(sched) = ctx
                .schedule_at_ii(&l, &machine, ii, SchedulerOptions::default())
                .unwrap()
            else {
                continue;
            };
            let sched = Arc::new(sched);
            for model in [
                ModelId::IDEAL,
                ModelId::UNIFIED,
                ModelId::PARTITIONED,
                ModelId::SWAPPED,
                ModelId::PORT_LIMITED,
                ModelId::COMPRESSED,
            ] {
                let mut req = ModelRequirement::new(model, &opts);
                let (shared, alone) = (ScheduleFacts::default(), ScheduleFacts::default());
                let input = |facts| ClassInput::new(&l, &machine, &sched, &consumers, facts);
                let Some(bound) = req.bound(&input(&shared)).unwrap() else {
                    continue;
                };
                let exact = req.allocate(&input(&shared)).unwrap();
                prop_assert!(bound.raw <= exact.raw, "{} II {}: {} > {}", model, ii, bound.raw, exact.raw);
                prop_assert!(req.effective(&l, &bound) <= req.effective(&l, &exact));
                // The facts the bound filled change nothing.
                prop_assert_eq!(req.allocate(&input(&alone)).unwrap(), exact);
                bounded += 1;
            }
        }
        prop_assert!(bounded > 0);
    }

    // The user-visible monotonicity theorem: as the budget descends,
    // the requirement a fitting (non-escalated) evaluation serves never
    // rises. (Follows from first-fit service: a smaller budget stops at
    // the same or a later checkpoint, and a later-served checkpoint
    // must fit the smaller budget.)
    #[test]
    fn served_requirements_are_monotone_in_the_budget(seed in 0u64..5_000, cfg in arb_config(), lat in prop_oneof![Just(3u32), Just(6u32)]) {
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(lat, 1);
        let mut t = deep_trajectory(&l, &machine, SpillOptions::default());
        let mut prev: Option<u32> = None;
        let start = t.checkpoints()[0].regs;
        for budget in (2..=start.max(2)).rev() {
            let (r, _) = t.evaluate(&machine, budget, &mut requirement_unified).unwrap();
            if !r.fits {
                continue;
            }
            prop_assert!(r.regs <= budget);
            if let Some(p) = prev {
                prop_assert!(
                    r.regs <= p,
                    "budget {} served {} after a larger budget served {}",
                    budget, r.regs, p
                );
            }
            prev = Some(r.regs);
        }
    }

    // Prefix stability: a trajectory extended budget-by-budget through
    // every intermediate requirement commits exactly the checkpoints a
    // single straight-through run commits — same victims, same rewritten
    // loops, same schedules, same requirements.
    #[test]
    fn resuming_at_any_checkpoint_yields_the_straight_through_tail(seed in 0u64..5_000, cfg in arb_config()) {
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(6, 1);
        let straight = deep_trajectory(&l, &machine, SpillOptions::default());

        let base = modulo_schedule(&l, &machine).unwrap();
        let mut staged = SpillTrajectory::from_base(
            &l, &machine, base, &mut requirement_unified, SpillOptions::default()).unwrap();
        // Stop at every checkpoint of the straight run in turn: budget
        // `regs` is exactly the stopping condition of checkpoint `k`.
        // Compare the scalar records: the staged run's *terminal*
        // checkpoint still retains its loop/schedule while the straight
        // run may have pruned that index off the record-minima frontier,
        // so full structural equality only holds at matched depths (the
        // final assertion below).
        for k in 0..straight.checkpoints().len() {
            let budget = straight.checkpoints()[k].regs;
            let (r, _) = staged.evaluate(&machine, budget, &mut requirement_unified).unwrap();
            prop_assert!(r.fits);
            prop_assert!(staged.checkpoints()[..=k.min(staged.steps())]
                .iter().zip(straight.checkpoints()).all(|(a, b)| {
                    (a.regs, &a.victim, a.ii, a.mem_ops, a.spill_stores, a.spill_loads)
                        == (b.regs, &b.victim, b.ii, b.mem_ops, b.spill_stores, b.spill_loads)
                }));
        }
        let (_, _) = staged.evaluate(&machine, 2, &mut requirement_unified).unwrap();
        prop_assert_eq!(staged.checkpoints(), straight.checkpoints());
        prop_assert_eq!(staged.is_exhausted(), straight.is_exhausted());
    }

    // Every rung of an arbitrary budget ladder, in arbitrary order, is
    // bit-identical to a fresh seeded run at that budget — for the
    // paper's policy and the ablation policies alike.
    #[test]
    fn continued_results_match_fresh_for_any_budget_order(
        seed in 0u64..3_000,
        budgets in (2u32..48, 2u32..48, 2u32..48),
        policy_seed in 0u64..3,
    ) {
        let budgets = [budgets.0, budgets.1, budgets.2];
        let policy = [
            SpillPolicy::LongestLifetime,
            SpillPolicy::FewestUses,
            SpillPolicy::Random(seed | 1),
        ][policy_seed as usize];
        let opts = SpillOptions { policy, ..SpillOptions::default() };
        let l = generate("prop", seed, &GenConfig::default());
        let machine = Machine::clustered(6, 1);
        let base = modulo_schedule(&l, &machine).unwrap();
        let mut t = SpillTrajectory::from_base(
            &l, &machine, base.clone(), &mut requirement_unified, opts).unwrap();
        for &budget in &budgets {
            let (continued, _) = t.evaluate(&machine, budget, &mut requirement_unified).unwrap();
            let fresh = spill_until_fits_seeded(
                &l, &machine, base.clone(), budget, &mut requirement_unified, opts).unwrap();
            prop_assert!(continued == fresh, "budget {} under {:?}", budget, policy);
        }
    }

    // Termination: the descent exhausts (or fits) within `max_spills`
    // steps, and exhaustion is a trajectory-level fact — every budget
    // after it is served from checkpoints or the per-budget fallback,
    // computing zero further steps.
    #[test]
    fn descent_terminates_within_the_spill_cap(seed in 0u64..3_000, cap in 1usize..6) {
        let opts = SpillOptions { max_spills: cap, escalate_ii: false, ..SpillOptions::default() };
        let l = generate("prop", seed, &GenConfig::default());
        let machine = Machine::clustered(6, 1);
        let base = modulo_schedule(&l, &machine).unwrap();
        let mut t = SpillTrajectory::from_base(
            &l, &machine, base, &mut requirement_unified, opts).unwrap();
        let (r, _) = t.evaluate(&machine, 2, &mut requirement_unified).unwrap();
        prop_assert!(t.steps() <= cap);
        prop_assert!(r.fits || t.is_exhausted());
        let (_, again) = t.evaluate(&machine, 2, &mut requirement_unified).unwrap();
        prop_assert_eq!(again.steps_computed, 0);
    }

    // Arena hygiene: one `SchedContext` reused across foreign loops of
    // different sizes, a snapshot replay (which reschedules every
    // recorded victim through a fresh context), and a session cache
    // clear all stay bit-identical to fresh computation — the SoA
    // indices never dangle into a previous run's arena.
    #[test]
    fn arena_reuse_never_dangles_across_cache_clears_and_replay(
        seed in 0u64..2_000,
        cfg in arb_config(),
    ) {
        let l = generate("prop", seed, &cfg);
        let other = generate("prop", seed.wrapping_add(7), &cfg);
        let machine = Machine::clustered(6, 1);

        let mut ctx = SchedContext::new();
        for lp in [&l, &other, &l, &other] {
            let got = ctx.schedule(lp, &machine, SchedulerOptions::default()).unwrap();
            prop_assert_eq!(got, modulo_schedule(lp, &machine).unwrap());
        }

        let t = deep_trajectory(&l, &machine, SpillOptions::default());
        let snap = t.snapshot();
        let base = modulo_schedule(&l, &machine).unwrap();
        let replayed = SpillTrajectory::replay(
            &l, &machine, base, &snap, &mut requirement_unified, SpillOptions::default(),
        ).unwrap();
        prop_assert_eq!(replayed.checkpoints(), t.checkpoints());

        let session = ncdrf::Session::new(machine.clone());
        let before: Vec<_> = [48u32, 16, 6]
            .iter()
            .map(|&b| session.evaluate(&l, ncdrf::ModelId::UNIFIED, b).unwrap())
            .collect();
        session.clear_cache();
        let after: Vec<_> = [48u32, 16, 6]
            .iter()
            .map(|&b| session.evaluate(&l, ncdrf::ModelId::UNIFIED, b).unwrap())
            .collect();
        prop_assert_eq!(before, after);
    }
}

/// Keeps the reschedule-noise counterexample on record: per-step
/// monotonicity of the raw requirement does **not** hold (spilling `LY`
/// out of `axpby` at latency 6 *raises* the requirement, because the
/// rewritten loop's fresh schedule stretches the reload lifetimes), and
/// continuation must therefore serve budgets by first-fit scan, never by
/// assuming the last checkpoint is the tightest. If this test starts
/// failing because the descent became monotone, the first-fit scan in
/// `SpillTrajectory` can be simplified — until then it cannot.
#[test]
fn per_step_monotonicity_has_reschedule_counterexamples() {
    let machine = Machine::clustered(6, 1);
    let mut violations = 0usize;
    for l in kernels::all() {
        let t = deep_trajectory(&l, &machine, SpillOptions::default());
        for w in t.checkpoints().windows(2) {
            if w[1].regs > w[0].regs {
                violations += 1;
            }
        }
        // Whatever the local noise, the descent must still reach its
        // global floor: the minimum over checkpoints never exceeds the
        // starting requirement, and deep budgets that fit are served.
        assert!(t.min_regs() <= t.checkpoints()[0].regs, "{}", l.name());
    }
    assert!(
        violations > 0,
        "per-step descent became monotone; simplify SpillTrajectory::first_fit \
         and retire this counterexample"
    );
}
