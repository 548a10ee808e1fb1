//! End-to-end semantic validation: every stage of the pipeline (schedule,
//! classify, allocate, swap, spill) must leave the loop *executable* with
//! results bit-identical to the sequential reference. This is the oracle
//! the paper's numbers silently depend on.

use ncdrf::corpus::Corpus;
use ncdrf::machine::Machine;
use ncdrf::regalloc::{
    allocate_dual, allocate_unified, classify, lifetimes, verify_dual, verify_unified,
};
use ncdrf::sched::modulo_schedule;
use ncdrf::spill::{requirement_unified, spill_until_fits, SpillOptions};
use ncdrf::swap::swap_pass;
use ncdrf::vliw::{check_equivalence, Binding};
use ncdrf_certify::certify_schedule;

const ITERATIONS: u64 = 20;

fn sample() -> Vec<ncdrf::ddg::Loop> {
    // Named kernels + a slice of generated loops.
    Corpus::small().take(60).loops().to_vec()
}

#[test]
fn unified_pipeline_is_semantically_correct() {
    for machine in [Machine::clustered(3, 1), Machine::clustered(6, 1)] {
        for l in sample() {
            let sched = modulo_schedule(&l, &machine).unwrap();
            certify_schedule(&l, &machine, &sched).unwrap();
            let lts = lifetimes(&l, &machine, &sched).unwrap();
            let alloc = allocate_unified(&lts, sched.ii());
            verify_unified(&lts, sched.ii(), &alloc)
                .unwrap_or_else(|(a, b)| panic!("{}: offsets {a} and {b} clash", l.name()));
            check_equivalence(
                &l,
                &machine,
                &sched,
                &Binding::unified(&lts, &alloc),
                ITERATIONS,
            )
            .unwrap_or_else(|e| panic!("{} (unified): {e}", l.name()));
        }
    }
}

#[test]
fn partitioned_pipeline_is_semantically_correct() {
    let machine = Machine::clustered(3, 1);
    for l in sample() {
        let sched = modulo_schedule(&l, &machine).unwrap();
        certify_schedule(&l, &machine, &sched).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let classes = classify(&l, &machine, &sched, &lts);
        let alloc = allocate_dual(&lts, &classes, sched.ii());
        verify_dual(&lts, sched.ii(), &alloc)
            .unwrap_or_else(|(a, b)| panic!("{}: offsets {a} and {b} clash", l.name()));
        check_equivalence(
            &l,
            &machine,
            &sched,
            &Binding::dual(&lts, &alloc),
            ITERATIONS,
        )
        .unwrap_or_else(|e| panic!("{} (partitioned): {e}", l.name()));
    }
}

#[test]
fn swapped_pipeline_is_semantically_correct() {
    let machine = Machine::clustered(6, 1);
    for l in sample() {
        let mut sched = modulo_schedule(&l, &machine).unwrap();
        certify_schedule(&l, &machine, &sched).unwrap();
        swap_pass(&l, &machine, &mut sched).unwrap();
        certify_schedule(&l, &machine, &sched)
            .unwrap_or_else(|e| panic!("{}: swap broke the schedule: {e}", l.name()));
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let classes = classify(&l, &machine, &sched, &lts);
        let alloc = allocate_dual(&lts, &classes, sched.ii());
        check_equivalence(
            &l,
            &machine,
            &sched,
            &Binding::dual(&lts, &alloc),
            ITERATIONS,
        )
        .unwrap_or_else(|e| panic!("{} (swapped): {e}", l.name()));
    }
}

#[test]
fn spilled_loops_are_semantically_correct() {
    // Spill aggressively (tiny budget), then execute the *rewritten* loop
    // and compare against its own sequential reference.
    let machine = Machine::clustered(6, 1);
    for l in sample().into_iter().take(25) {
        let r = spill_until_fits(
            &l,
            &machine,
            6,
            &mut requirement_unified,
            SpillOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", l.name()));
        certify_schedule(&r.l, &machine, &r.sched).unwrap();
        let lts = lifetimes(&r.l, &machine, &r.sched).unwrap();
        let alloc = allocate_unified(&lts, r.sched.ii());
        assert!(alloc.regs <= 6 || !r.fits, "{}: alloc disagrees", l.name());
        check_equivalence(
            &r.l,
            &machine,
            &r.sched,
            &Binding::unified(&lts, &alloc),
            ITERATIONS,
        )
        .unwrap_or_else(|e| panic!("{} (spilled): {e}", l.name()));
    }
}
