//! Session-cache speedup grid: uncached vs cached vs cached+pooled
//! four-model evaluation across corpus slices, latencies and register
//! budgets. The pooled column drives the corpus through
//! `Session::evaluate_corpus`, i.e. the work-stealing execution pool; on
//! a single hardware thread it tracks the cached column, on multi-core
//! hosts it adds the loop-level parallel speedup on top of caching.

// A timing scan measures wall time by definition.
#![allow(clippy::disallowed_methods)]

use ncdrf::corpus::Corpus;
use ncdrf::machine::Machine;
use ncdrf::{evaluate, PipelineOptions, Session, PAPER_MODELS};
use std::time::Instant;

fn main() {
    let opts = PipelineOptions::default();
    for (name, skip, n) in [
        ("kernels", 0usize, 20usize),
        ("mixed", 30, 20),
        ("deep", 60, 20),
        ("wide", 78, 10),
        ("recur", 89, 10),
    ] {
        let corpus = Corpus::small().filter({
            let mut i = 0;
            move |_| {
                i += 1;
                i > skip && i <= skip + n
            }
        });
        for lat in [3u32, 6] {
            for budget in [32u32, 64] {
                let machine = Machine::clustered(lat, 1);
                let reps = 5;
                let t = Instant::now();
                for _ in 0..reps {
                    for model in PAPER_MODELS {
                        for l in corpus.iter() {
                            evaluate(l, &machine, model, budget, &opts).unwrap();
                        }
                    }
                }
                let unc = t.elapsed();
                let t = Instant::now();
                for _ in 0..reps {
                    let session = Session::new(machine.clone()).options(opts);
                    for model in PAPER_MODELS {
                        for l in corpus.iter() {
                            session.evaluate(l, model, budget).unwrap();
                        }
                    }
                }
                let cac = t.elapsed();
                let t = Instant::now();
                for _ in 0..reps {
                    let session = Session::new(machine.clone()).options(opts);
                    for model in PAPER_MODELS {
                        session.evaluate_corpus(&corpus, model, budget).unwrap();
                    }
                }
                let pooled = t.elapsed();
                println!(
                    "{name:>8} L{lat} R{budget}: {:>9.1?} -> {:>9.1?} ({:.2}x) -> pooled {:>9.1?} ({:.2}x)",
                    unc / reps,
                    cac / reps,
                    unc.as_secs_f64() / cac.as_secs_f64(),
                    pooled / reps,
                    unc.as_secs_f64() / pooled.as_secs_f64()
                );
            }
        }
    }
}
