//! The differential proof for spill-trajectory continuation: evaluation
//! served from the session's cached trajectory (checkpoint hits, resumed
//! descents, per-budget fallbacks) must be **bit-identical** to the
//! uncached from-scratch pipeline for every `(machine, loop, model,
//! budget)` cell of the Figure 8/9 grid — and the continued spill's
//! rewritten code must *execute* equivalently, which the `vliw`
//! end-to-end oracle checks against the sequential reference.

use ncdrf::corpus::Corpus;
use ncdrf::exec::Pool;
use ncdrf::machine::Machine;
use ncdrf::{evaluate, ModelId, PipelineOptions, Session, Sweep, SweepShard, PAPER_MODELS};
use std::sync::Arc;

/// The fig8/9 budgets (64, 32) extended into a descending ladder so the
/// differential grid exercises checkpoint hits *and* resumed descents.
const LADDER: [u32; 4] = [64, 48, 32, 16];

/// Every cell of the (two-latency × four-model × ladder) grid: cached
/// evaluation equals fresh evaluation, field for field. Budgets descend,
/// so each cell past a pair's first spilling budget is served by
/// continuation — exactly the paths the sweep executor takes.
#[test]
fn fig89_grid_cells_are_bit_identical_seeded_vs_fresh() {
    let opts = PipelineOptions::default();
    let mut reused = 0u64;
    for lat in [3, 6] {
        let machine = Machine::clustered(lat, 1);
        let session = Session::new(machine.clone()).options(opts);
        for l in Corpus::small().take(20).iter() {
            for model in PAPER_MODELS {
                for budget in LADDER {
                    let cached = session.evaluate(l, model, budget).unwrap();
                    let fresh = evaluate(l, &machine, model, budget, &opts).unwrap();
                    assert_eq!(
                        cached,
                        fresh,
                        "{} under {model:?} @{budget} at L{lat}",
                        l.name()
                    );
                }
            }
        }
        let stats = session.cache_stats();
        reused += stats.traj_hits + stats.traj_resumes;
    }
    // Pressure is latency-dependent (L3 barely spills on this slice);
    // what matters is that the grid as a whole took the continuation
    // paths, not just fast paths.
    assert!(reused > 0, "the ladder must actually exercise continuation");
}

/// Ascending budget order must serve the very same results (continuation
/// is order-independent; only the hit/resume attribution shifts).
#[test]
fn budget_order_does_not_change_results() {
    let opts = PipelineOptions::default();
    let machine = Machine::clustered(6, 1);
    let down = Session::new(machine.clone()).options(opts);
    let up = Session::new(machine).options(opts);
    for l in Corpus::small().take(12).iter() {
        for model in PAPER_MODELS {
            let d: Vec<_> = LADDER
                .iter()
                .map(|&b| down.evaluate(l, model, b).unwrap())
                .collect();
            let mut u: Vec<_> = LADDER
                .iter()
                .rev()
                .map(|&b| up.evaluate(l, model, b).unwrap())
                .collect();
            u.reverse();
            assert_eq!(d, u, "{} under {model:?}", l.name());
        }
    }
}

/// The multi-budget ladder sweep: pooled, sequential and sharded+merged
/// execution all agree bit-for-bit — including the new trajectory
/// counters — and the whole ladder computes strictly fewer spill steps
/// than evaluating each budget from scratch (counter-asserted, the
/// acceptance criterion).
#[test]
fn ladder_sweep_is_deterministic_and_spills_less_than_from_scratch() {
    let corpus = Corpus::small().take(16);
    let sweep = Sweep::new(&corpus)
        .clustered_latencies([6])
        .models(PAPER_MODELS)
        .budgets(LADDER)
        .pool(Arc::new(Pool::with_workers(4)));

    let seq = sweep.run_sequential().unwrap();
    let par = sweep.run().unwrap();
    assert_eq!(par, seq, "pooled ladder must match the sequential ladder");

    let shards: Vec<SweepShard> = (0..3)
        .map(|i| sweep.shard(i, 3))
        .collect::<Result<_, _>>()
        .unwrap();
    let merged = SweepShard::merge(&shards).unwrap();
    assert!(merged.is_complete());
    assert_eq!(
        merged.report, seq,
        "sharded ladder must merge bit-identically (budgets stay grouped \
         per (machine, loop) cell, so shard partitioning is untouched)"
    );

    // The baseline: each budget evaluated in its own session, i.e. every
    // budget respills from zero. `spill_steps` counts exactly the spill
    // work, so the comparison is counter-based, not wall-clock-based.
    let from_scratch: u64 = LADDER
        .iter()
        .map(|&b| {
            Sweep::new(&corpus)
                .clustered_latencies([6])
                .models(PAPER_MODELS)
                .budget(b)
                .run_sequential()
                .unwrap()
                .scheduling
                .spill_steps
        })
        .sum();
    assert!(
        seq.scheduling.traj_hits + seq.scheduling.traj_resumes > 0,
        "the ladder must exercise continuation"
    );
    assert!(
        seq.scheduling.spill_steps < from_scratch,
        "continuation must compute fewer steps: ladder {} vs from-scratch {}",
        seq.scheduling.spill_steps,
        from_scratch
    );
}

/// The continued spill's rewritten code *executes* correctly: for every
/// budget the continued result equals the fresh result, and both
/// rewritten loops run through the cycle-accurate executor bit-identically
/// to the sequential reference — under a unified and a dual binding.
#[test]
fn continued_spill_code_executes_equivalently_to_fresh() {
    use ncdrf::regalloc::{allocate_dual, allocate_unified, classify, lifetimes};
    use ncdrf::sched::modulo_schedule;
    use ncdrf::spill::{
        requirement_unified, spill_until_fits_seeded, SpillOptions, SpillTrajectory,
    };
    use ncdrf::vliw::{check_equivalence, Binding};

    let machine = Machine::clustered(6, 1);
    let opts = SpillOptions::default();
    let mut spilled_cells = 0usize;
    for l in Corpus::small().take(12).iter() {
        let base = modulo_schedule(l, &machine).unwrap();
        let mut traj =
            SpillTrajectory::from_base(l, &machine, base.clone(), &mut requirement_unified, opts)
                .unwrap();
        for budget in [24, 12, 8] {
            let (continued, _) = traj
                .evaluate(&machine, budget, &mut requirement_unified)
                .unwrap();
            let fresh = spill_until_fits_seeded(
                l,
                &machine,
                base.clone(),
                budget,
                &mut requirement_unified,
                opts,
            )
            .unwrap();
            assert_eq!(continued, fresh, "{} @{budget}", l.name());
            if continued.spilled.is_empty() {
                continue;
            }
            spilled_cells += 1;
            for r in [&continued, &fresh] {
                let lts = lifetimes(&r.l, &machine, &r.sched).unwrap();
                let uni = allocate_unified(&lts, r.sched.ii());
                check_equivalence(&r.l, &machine, &r.sched, &Binding::unified(&lts, &uni), 16)
                    .unwrap_or_else(|e| panic!("{} @{budget} unified: {e}", l.name()));
                let classes = classify(&r.l, &machine, &r.sched, &lts);
                let dual = allocate_dual(&lts, &classes, r.sched.ii());
                check_equivalence(&r.l, &machine, &r.sched, &Binding::dual(&lts, &dual), 16)
                    .unwrap_or_else(|e| panic!("{} @{budget} dual: {e}", l.name()));
            }
        }
    }
    assert!(
        spilled_cells > 0,
        "the equivalence oracle must actually see spilled loops"
    );
}

/// Session-level identity for the *swapped* model specifically: its
/// requirement function mutates the schedule (the swap pass runs inside
/// requirement evaluation), which is the subtlest path through the
/// trajectory — the checkpointed schedule must be the post-swap one.
#[test]
fn swapped_model_continuation_matches_fresh_across_a_deep_ladder() {
    let opts = PipelineOptions::default();
    let machine = Machine::clustered(6, 1);
    let session = Session::new(machine.clone()).options(opts);
    for l in Corpus::small().take(10).iter() {
        for budget in [32, 10, 6, 4] {
            let cached = session.evaluate(l, ModelId::SWAPPED, budget).unwrap();
            let fresh = evaluate(l, &machine, ModelId::SWAPPED, budget, &opts).unwrap();
            assert_eq!(cached, fresh, "{} swapped @{budget}", l.name());
        }
    }
}
