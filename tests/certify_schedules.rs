//! Every schedule the modulo scheduler commits certifies: the base
//! schedule and every rung of an II scan from the base II to base + 12,
//! on one reused `SchedContext` as the spill escalation drives it, under
//! every scheduler option set and on clustered and unified machines.

use ncdrf::corpus::Corpus;
use ncdrf::machine::Machine;
use ncdrf::sched::{Priority, SchedContext, SchedulerOptions};
use ncdrf_certify::certify_schedule;

fn machines() -> [Machine; 5] {
    [
        Machine::clustered(3, 1),
        Machine::clustered(6, 1),
        Machine::clustered(3, 2),
        Machine::pxly(1, 3),
        Machine::pxly(2, 6),
    ]
}

fn all_options() -> [SchedulerOptions; 3] {
    [
        SchedulerOptions::default(),
        SchedulerOptions {
            priority: Priority::InputOrder,
            ..SchedulerOptions::default()
        },
        SchedulerOptions {
            budget_ratio: 1,
            ..SchedulerOptions::default()
        },
    ]
}

#[test]
fn every_rung_of_an_ii_scan_certifies() {
    // Named kernels (recurrences, memory dependences, wide stencils)
    // first, then generated loops.
    let corpus = Corpus::small();
    let mut rungs = 0;
    for machine in machines() {
        for opts in all_options() {
            let mut ctx = SchedContext::new();
            for l in corpus.iter() {
                let at = |ii| format!("{} `{}` II {ii} under {opts:?}", machine.name(), l.name());
                let base = ctx.schedule(l, &machine, opts).unwrap();
                certify_schedule(l, &machine, &base)
                    .unwrap_or_else(|e| panic!("{}: {e}", at(base.ii())));
                for ii in base.ii()..=base.ii() + 12 {
                    let Some(s) = ctx.schedule_at_ii(l, &machine, ii, opts).unwrap() else {
                        continue;
                    };
                    assert_eq!(s.ii(), ii);
                    certify_schedule(l, &machine, &s).unwrap_or_else(|e| panic!("{}: {e}", at(ii)));
                    rungs += 1;
                }
            }
        }
    }
    assert!(rungs > 0);
}
