//! `Session` cache correctness: results derived from the cached base
//! schedule must be bit-identical to the uncached pipeline (fresh
//! `modulo_schedule` per call) across every hand-written kernel, and the
//! cache must actually hit.

use ncdrf::corpus::kernels;
use ncdrf::machine::Machine;
use ncdrf::sched::modulo_schedule;
use ncdrf::{analyze, evaluate, ModelId, PipelineOptions, Session, PAPER_MODELS};

#[test]
fn cached_analysis_is_bit_identical_across_all_kernels() {
    let opts = PipelineOptions::default();
    for lat in [3, 6] {
        let machine = Machine::clustered(lat, 1);
        let session = Session::new(machine.clone()).options(opts);
        for l in kernels::all() {
            for model in PAPER_MODELS {
                let cached = session.analyze(&l, model).unwrap();
                let fresh = analyze(&l, &machine, model, &opts).unwrap();
                assert_eq!(cached, fresh, "{} under {model:?} at L{lat}", l.name());
            }
        }
    }
}

#[test]
fn cached_evaluation_is_bit_identical_across_all_kernels() {
    let opts = PipelineOptions::default();
    let machine = Machine::clustered(6, 1);
    let session = Session::new(machine.clone()).options(opts);
    for l in kernels::all() {
        for model in PAPER_MODELS {
            for budget in [16, 64] {
                let cached = session.evaluate(&l, model, budget).unwrap();
                let fresh = evaluate(&l, &machine, model, budget, &opts).unwrap();
                assert_eq!(cached, fresh, "{} under {model:?} @{budget}", l.name());
            }
        }
    }
}

#[test]
fn cache_identity_holds_with_non_default_scheduler_options() {
    use ncdrf::sched::{Priority, SchedulerOptions};
    let mut opts = PipelineOptions::default();
    opts.spill.scheduler = SchedulerOptions {
        priority: Priority::InputOrder,
        ..SchedulerOptions::default()
    };
    let machine = Machine::clustered(6, 1);
    let session = Session::new(machine.clone()).options(opts);
    for l in kernels::all().into_iter().take(15) {
        for model in PAPER_MODELS {
            let cached = session.analyze(&l, model).unwrap();
            let fresh = analyze(&l, &machine, model, &opts).unwrap();
            assert_eq!(cached, fresh, "{} under {model:?}", l.name());
            let cached = session.evaluate(&l, model, 24).unwrap();
            let fresh = evaluate(&l, &machine, model, 24, &opts).unwrap();
            assert_eq!(cached, fresh, "{} under {model:?} @24", l.name());
        }
    }
}

#[test]
fn cached_base_schedule_matches_fresh_modulo_schedule() {
    let machine = Machine::clustered(3, 1);
    let session = Session::new(machine.clone());
    for l in kernels::all() {
        let base = session.base(&l).unwrap();
        let fresh = modulo_schedule(&l, &machine).unwrap();
        assert_eq!(base.sched, fresh, "{}", l.name());
    }
}

#[test]
fn repeated_swapped_analyses_pin_the_counters() {
    use ncdrf::CacheStats;
    let session = Session::new(Machine::clustered(6, 1));
    let l = kernels::livermore::hydro();

    // First swapped analysis: one scheduling run, no reuse yet.
    session.analyze(&l, ModelId::SWAPPED).unwrap();
    assert_eq!(
        session.cache_stats(),
        CacheStats {
            hits: 0,
            misses: 1,
            ..CacheStats::default()
        }
    );

    // Every repeated swapped analysis is served from the post-swap cache
    // and must count as a hit (it saves scheduling AND the swap pass);
    // before the fix these were invisible and reuse was under-reported.
    for round in 1..=3u64 {
        session.analyze(&l, ModelId::SWAPPED).unwrap();
        assert_eq!(
            session.cache_stats(),
            CacheStats {
                hits: round,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    // A swapped evaluation whose requirement fits the budget touches the
    // swapped cache once more — still one scheduling run total, and no
    // spill trajectory is ever built for a fitting budget.
    session.evaluate(&l, ModelId::SWAPPED, 512).unwrap();
    assert_eq!(
        session.cache_stats(),
        CacheStats {
            hits: 4,
            misses: 1,
            ..CacheStats::default()
        }
    );
}

/// The trajectory counters, pinned exactly: a three-rung descending
/// ladder on one spilling `(loop, model)` pair produces one creation
/// (neither hit nor resume), then — depending on where the checkpoints
/// land — hits and resumes that must sum to the ladder's remaining
/// rungs, with `spill_steps` equal to the deepest rung's spill count.
#[test]
fn trajectory_counters_are_pinned_for_a_descending_ladder() {
    use ncdrf::CacheStats;
    let machine = Machine::clustered(6, 1);
    let session = Session::new(machine.clone());
    let l = kernels::blas::axpby();
    let free = session.analyze(&l, ModelId::UNIFIED).unwrap().regs;
    assert_eq!(session.cache_stats().misses, 1);

    // Budgets straddling the descent: free-1 forces spilling, 4 forces
    // a deep descent, free-1 again is a pure checkpoint hit.
    let top = session.evaluate(&l, ModelId::UNIFIED, free - 1).unwrap();
    let stats = session.cache_stats();
    assert_eq!(
        (stats.traj_hits, stats.traj_resumes),
        (0, 0),
        "creation is neither a hit nor a resume"
    );
    assert_eq!(stats.spill_steps, top.spilled as u64);

    let deep = session.evaluate(&l, ModelId::UNIFIED, 4).unwrap();
    let repeat = session.evaluate(&l, ModelId::UNIFIED, free - 1).unwrap();
    assert_eq!(repeat, top);
    let stats = session.cache_stats();
    assert_eq!(
        stats,
        CacheStats {
            hits: stats.hits,
            misses: 1,
            traj_hits: 1,
            traj_resumes: 1,
            spill_steps: deep.spilled as u64,
        },
        "deep rung resumes, repeated rung hits, steps never recompute"
    );
    // The uncached pipeline would have paid every rung from scratch.
    let from_scratch = (top.spilled + deep.spilled + top.spilled) as u64;
    assert!(stats.spill_steps < from_scratch);
}

#[test]
fn schedule_cache_hits_across_models_and_budgets() {
    let machine = Machine::clustered(6, 1);
    let session = Session::new(machine);
    let loops = kernels::all();
    for l in &loops {
        for model in PAPER_MODELS {
            session.analyze(l, model).unwrap();
        }
    }
    let after_analysis = session.cache_stats();
    assert_eq!(
        after_analysis.misses,
        loops.len() as u64,
        "four-model analysis schedules each loop exactly once"
    );
    assert!(after_analysis.hits >= 2 * loops.len() as u64);

    for l in &loops {
        for model in PAPER_MODELS {
            for budget in [32, 64] {
                session.evaluate(l, model, budget).unwrap();
            }
        }
    }
    let after_eval = session.cache_stats();
    assert_eq!(
        after_eval.misses,
        loops.len() as u64,
        "eight budgeted evaluations add no scheduling runs"
    );
    assert!(after_eval.hits > after_analysis.hits);
}
