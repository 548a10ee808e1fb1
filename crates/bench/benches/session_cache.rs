//! Benchmark guard for the `Session` schedule cache: a Figure 8/9-style
//! four-model evaluation of one corpus slice, cached vs uncached.
//!
//! The uncached baseline re-runs modulo scheduling per model (the
//! pre-`Session` API's behaviour); the cached variant schedules each loop
//! once. The printed ratio is the headline: it should comfortably exceed
//! 2x, since scheduling dominates the per-loop pipeline and four models
//! share one run.

// Benchmarks measure wall time by definition.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use ncdrf::corpus::Corpus;
use ncdrf::machine::Machine;
use ncdrf::{analyze, evaluate, PipelineOptions, Session, PAPER_MODELS};
use ncdrf_bench::bench_corpus;
use std::time::Instant;

/// The latency-3 half of the Figure 8/9 grid: four models x two register
/// budgets (32 and 64), as in the paper. The session shares the base
/// schedule, the swap pass and the budget-independent requirements
/// across all eight evaluations; the uncached baseline re-derives
/// everything per (model, budget).
const BUDGETS: [u32; 2] = [32, 64];
const LATENCY: u32 = 3;

fn uncached_four_models(corpus: &Corpus, machine: &Machine, opts: &PipelineOptions) -> u128 {
    let mut total_cycles = 0u128;
    for budget in BUDGETS {
        for model in PAPER_MODELS {
            for l in corpus.iter() {
                total_cycles += evaluate(l, machine, model, budget, opts).unwrap().cycles();
            }
        }
    }
    total_cycles
}

fn cached_four_models(corpus: &Corpus, machine: &Machine, opts: &PipelineOptions) -> u128 {
    let session = Session::new(machine.clone()).options(*opts);
    let mut total_cycles = 0u128;
    for budget in BUDGETS {
        for model in PAPER_MODELS {
            for l in corpus.iter() {
                total_cycles += session.evaluate(l, model, budget).unwrap().cycles();
            }
        }
    }
    total_cycles
}

fn bench(c: &mut Criterion) {
    let corpus = bench_corpus(20);
    let machine = Machine::clustered(LATENCY, 1);
    let opts = PipelineOptions::default();

    // Correctness guard: the cache must not change any result.
    assert_eq!(
        uncached_four_models(&corpus, &machine, &opts),
        cached_four_models(&corpus, &machine, &opts),
        "cached and uncached evaluation disagree"
    );

    // Headline measurement, printed so the bench run doubles as the
    // demonstration of the acceptance criterion (>= 2x).
    let reps = 10u32;
    let t = Instant::now();
    for _ in 0..reps {
        uncached_four_models(&corpus, &machine, &opts);
    }
    let uncached = t.elapsed();
    let t = Instant::now();
    for _ in 0..reps {
        cached_four_models(&corpus, &machine, &opts);
    }
    let cached = t.elapsed();
    println!(
        "\nsession cache: 4-model x 2-budget evaluation {:.1?} uncached vs {:.1?} cached -> {:.2}x speedup\n",
        uncached / reps,
        cached / reps,
        uncached.as_secs_f64() / cached.as_secs_f64().max(1e-12),
    );

    c.bench_function("session_cache/uncached_4_models", |b| {
        b.iter(|| uncached_four_models(&corpus, &machine, &opts))
    });
    c.bench_function("session_cache/cached_4_models", |b| {
        b.iter(|| cached_four_models(&corpus, &machine, &opts))
    });

    // Analysis-only variant (figures 6/7 pipeline): same caching story.
    c.bench_function("session_cache/uncached_4_models_analyze", |b| {
        b.iter(|| {
            for model in PAPER_MODELS {
                for l in corpus.iter() {
                    analyze(l, &machine, model, &opts).unwrap();
                }
            }
        })
    });
    c.bench_function("session_cache/cached_4_models_analyze", |b| {
        b.iter(|| {
            let session = Session::new(machine.clone()).options(opts);
            for model in PAPER_MODELS {
                for l in corpus.iter() {
                    session.analyze(l, model).unwrap();
                }
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
