//! The swap pass moves no lifetime.
//!
//! A swap or move only rebinds functional units (`Schedule::swap_units`,
//! `Schedule::rebind`); a lifetime depends on start times and per-kind
//! latencies alone. The swapped classes rely on it: they allocate on the
//! lifetimes and conflict windows of the schedule they swapped, computed
//! once per schedule. This pins it on every loop of the small and
//! standard corpora, on L3 and L6, under both scoring modes.

use ncdrf::corpus::Corpus;
use ncdrf::machine::Machine;
use ncdrf::regalloc::lifetimes;
use ncdrf::sched::modulo_schedule;
use ncdrf::swap::{swap_pass_with, Scoring, SwapOptions};

#[test]
fn a_swap_never_moves_a_lifetime() {
    let mut swapped = 0;
    for corpus in [Corpus::small(), Corpus::standard()] {
        for machine in [Machine::clustered(3, 1), Machine::clustered(6, 1)] {
            for l in corpus.iter() {
                let base = modulo_schedule(l, &machine).unwrap();
                let before = lifetimes(l, &machine, &base).unwrap();
                for scoring in [Scoring::MaxLiveBound, Scoring::ExactAlloc] {
                    let mut sched = base.clone();
                    let opts = SwapOptions {
                        scoring,
                        ..SwapOptions::default()
                    };
                    let out = swap_pass_with(l, &machine, &mut sched, opts).unwrap();
                    let after = lifetimes(l, &machine, &sched).unwrap();
                    let at = format!("`{}` on {}, {scoring:?}", l.name(), machine.name());
                    assert_eq!(after, before, "{at}: {:?}", out.actions);
                    swapped += usize::from(!out.actions.is_empty());
                }
            }
        }
    }
    assert!(swapped > 0, "no swap pass applied an action");
}
