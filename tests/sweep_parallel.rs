//! Executor stress tests: the work-stealing `(machine, loop)` grid of
//! [`Sweep::run`] must be bit-identical to the sequential reference for
//! any worker count, schedule each pair exactly once, and degrade
//! per-pair (not per-run) under failures and panics.

use ncdrf::corpus::{kernels, Corpus};
use ncdrf::exec::Pool;
use ncdrf::machine::{FuClass, FuGroup, Machine};
use ncdrf::{LoopEval, PipelineStage, Session, Sweep, PAPER_FINITE_MODELS, PAPER_MODELS};
use std::sync::Arc;

/// The acceptance stress test: a multi-machine × multi-budget sweep over
/// `Corpus::small()`, parallel vs sequential, bit-identical results,
/// exactly `machines × loops` scheduling runs, and the cycle counts of a
/// plain per-cell `Session` evaluation.
#[test]
fn stress_multi_machine_grid_is_bit_identical_and_schedules_once_per_pair() {
    let corpus = Corpus::small();
    let machines = 2u64;
    let sweep = Sweep::new(&corpus)
        .clustered_latencies([3, 6])
        .models(PAPER_MODELS)
        .budgets([24, 48])
        .pool(Arc::new(Pool::with_workers(4)));

    let par = sweep.run().expect("small corpus always schedules");
    let seq = sweep
        .run_sequential()
        .expect("small corpus always schedules");

    assert_eq!(par, seq, "parallel grid must match the sequential path");
    assert_eq!(
        par.scheduling.misses,
        machines * corpus.len() as u64,
        "each (machine, loop) pair is scheduled exactly once"
    );
    assert_eq!(par.outcomes.len(), 2 * 2 * PAPER_MODELS.len());
    // Order stability: outcomes are machine-major, budget-middle,
    // model-minor — exactly the documented report layout.
    assert_eq!(par.outcomes[0].config, "C2L3");
    assert_eq!(par.outcomes.last().unwrap().config, "C2L6");

    // Each outcome's cycle count equals evaluating the corpus one
    // (machine, budget, model) at a time through a plain `Session`.
    let mut outcomes = par.outcomes.iter();
    for latency in [3, 6] {
        let session = Session::new(Machine::clustered(latency, 1));
        for budget in [24, 48] {
            for model in PAPER_MODELS {
                let cycles: u128 = session
                    .evaluate_corpus(&corpus, model, budget)
                    .unwrap()
                    .iter()
                    .map(LoopEval::cycles)
                    .sum();
                let o = outcomes.next().unwrap();
                assert_eq!((o.latency, o.registers, o.model), (latency, budget, model));
                assert_eq!(o.cycles, cycles, "C2L{latency} {model:?} at {budget}");
            }
        }
    }
}

/// Worker count must never change results (stealing reshuffles execution
/// order, not the report).
#[test]
fn every_worker_count_produces_the_same_report() {
    let corpus = Corpus::small().take(12);
    let sweep = Sweep::new(&corpus)
        .clustered_latencies([3])
        .models(PAPER_FINITE_MODELS)
        .points([16, 32, 64])
        .budget(16);
    let reference = sweep.run_sequential().unwrap();
    for workers in [1, 2, 3, 8] {
        let report = sweep
            .clone()
            .pool(Arc::new(Pool::with_workers(workers)))
            .run()
            .unwrap();
        assert_eq!(report, reference, "with {workers} workers");
    }
}

/// One unschedulable `(machine, loop)` pair must not discard the rest of
/// the grid: `run_partial` returns every other result and names the
/// failure.
#[test]
fn one_unschedulable_pair_keeps_every_other_result() {
    // A machine without a multiplier cannot serve `vscale`; every
    // mul-free loop and the full clustered machine still succeed.
    let no_mul = Machine::new(
        "NOMUL",
        vec![
            FuGroup::unified(FuClass::Adder, 3, 2),
            FuGroup::unified(FuClass::MemPort, 1, 2),
        ],
        1,
    )
    .unwrap();
    let corpus = Corpus::from_loops(
        "mixed",
        vec![
            kernels::blas::vadd(),
            kernels::blas::vscale(),
            kernels::blas::vsum(),
        ],
    );
    let partial = Sweep::new(&corpus)
        .machines([no_mul, Machine::clustered(3, 1)])
        .models(PAPER_MODELS)
        .budgets([8, 32])
        .pool(Arc::new(Pool::with_workers(4)))
        .run_partial();

    assert_eq!(partial.errors.len(), 1, "{:?}", partial.errors);
    assert_eq!(partial.errors[0].loop_name, "vscale");
    assert!(matches!(
        partial.errors[0].stage,
        PipelineStage::Schedule(_)
    ));

    // Every (machine, budget, model) series is still present.
    assert_eq!(partial.report.outcomes.len(), 2 * 2 * PAPER_MODELS.len());
    // The machine that lost no loops matches a clean single-machine run.
    let clean = Sweep::new(&corpus)
        .machine(Machine::clustered(3, 1))
        .models(PAPER_MODELS)
        .budgets([8, 32])
        .run_sequential()
        .unwrap();
    for (got, want) in partial
        .report
        .outcomes
        .iter()
        .filter(|o| o.config == "C2L3")
        .zip(&clean.outcomes)
    {
        assert_eq!(got, want);
    }
    // And `into_result` restores the all-or-nothing contract.
    assert!(partial.into_result().is_err());
}
