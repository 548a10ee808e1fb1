//! Design ablations: what the variants of four of the paper's choices
//! reach on slices of the `small` corpus, on `Machine::clustered(6, 1)`.
//!
//! * allocation fit — First-Fit, which the paper picks "due to its
//!   simplicity" after Rau et al. found the disciplines near-equivalent,
//!   against Best-Fit: total registers over 30 loops;
//! * scheduling priority — Rau's height-based IMS priority against plain
//!   program order: total II and loops scheduled at the MII over 40 loops;
//! * spill victim — the paper's longest-lifetime rule against most
//!   instances, fewest uses and random choice: values spilled and total
//!   II over 20 loops with 16 registers;
//! * swap scoring — the cheap MaxLive lower bound against exact
//!   re-allocation per candidate: total post-swap requirement bound over
//!   25 loops.
//!
//! Takes no arguments; any argument is a usage error (exit 2).

use ncdrf::corpus::Corpus;
use ncdrf::ddg::Loop;
use ncdrf::machine::Machine;
use ncdrf::regalloc::{allocate_unified_with, lifetimes, FitPolicy};
use ncdrf::sched::{mii, modulo_schedule, modulo_schedule_with, Priority, SchedulerOptions};
use ncdrf::spill::{requirement_unified, spill_until_fits, SpillOptions, SpillPolicy};
use ncdrf::swap::{swap_pass_with, Scoring, SwapOptions};

const SERVED: &str =
    "the ablation slices schedule on Machine::clustered(6, 1) and fit 16 registers";

fn main() {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    if let Some(arg) = args.next() {
        eprintln!("error: unknown argument `{arg}`");
        eprintln!("usage: {program}");
        std::process::exit(2);
    }
    let corpus = Corpus::small();
    let machine = Machine::clustered(6, 1);
    fit(&corpus.loops()[..30], &machine);
    priority(&corpus.loops()[..40], &machine);
    spill_policy(&corpus.loops()[..20], &machine);
    swap_scoring(&corpus.loops()[..25], &machine);
}

fn fit(loops: &[Loop], machine: &Machine) {
    let prepared: Vec<_> = loops
        .iter()
        .map(|l| {
            let s = modulo_schedule(l, machine).expect(SERVED);
            let lts = lifetimes(l, machine, &s).expect(SERVED);
            (s.ii(), lts)
        })
        .collect();
    for (name, fit) in [
        ("first_fit", FitPolicy::FirstFit),
        ("best_fit", FitPolicy::BestFit),
    ] {
        let total: u64 = prepared
            .iter()
            .map(|(ii, lts)| allocate_unified_with(lts, *ii, fit).regs as u64)
            .sum();
        println!(
            "{name}: total registers over {} loops = {total}",
            loops.len()
        );
    }
}

fn priority(loops: &[Loop], machine: &Machine) {
    for (name, priority) in [
        ("height", Priority::Height),
        ("input_order", Priority::InputOrder),
    ] {
        let opts = SchedulerOptions {
            priority,
            ..SchedulerOptions::default()
        };
        let mut total_ii = 0u64;
        let mut at_mii = 0usize;
        for l in loops {
            let bound = mii(l, machine).expect(SERVED).mii;
            let s = modulo_schedule_with(l, machine, opts).expect(SERVED);
            total_ii += s.ii() as u64;
            at_mii += usize::from(s.ii() == bound);
        }
        println!(
            "{name}: total II {total_ii}, {at_mii}/{} loops scheduled at the MII",
            loops.len()
        );
    }
}

fn spill_policy(loops: &[Loop], machine: &Machine) {
    let budget = 16;
    for (name, policy) in [
        ("longest_lifetime", SpillPolicy::LongestLifetime),
        ("most_instances", SpillPolicy::MostInstances),
        ("fewest_uses", SpillPolicy::FewestUses),
        ("random", SpillPolicy::Random(7)),
    ] {
        let opts = SpillOptions {
            policy,
            ..SpillOptions::default()
        };
        let mut spills = 0usize;
        let mut total_ii = 0u64;
        for l in loops {
            let r =
                spill_until_fits(l, machine, budget, &mut requirement_unified, opts).expect(SERVED);
            spills += r.spilled.len();
            total_ii += r.sched.ii() as u64;
        }
        println!("{name}: {spills} values spilled, total II {total_ii}");
    }
}

fn swap_scoring(loops: &[Loop], machine: &Machine) {
    for scoring in [Scoring::MaxLiveBound, Scoring::ExactAlloc] {
        let opts = SwapOptions {
            scoring,
            ..SwapOptions::default()
        };
        let mut total = 0u64;
        for l in loops {
            let mut s = modulo_schedule(l, machine).expect(SERVED);
            total += swap_pass_with(l, machine, &mut s, opts)
                .expect(SERVED)
                .after as u64;
        }
        println!("{scoring:?}: total post-swap requirement bound = {total}");
    }
}
