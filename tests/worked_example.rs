//! Reproduces the paper's §4 worked example end to end: the Figure 2 loop,
//! the Figure 3/4 schedule, Table 2 (lifetimes), Table 3 (classification
//! before swapping) and Table 4 (after swapping A4 <-> A6).

use ncdrf::corpus::kernels::fig2;
use ncdrf::ddg::{Loop, OpId};
use ncdrf::machine::{ClusterId, Machine, UnitRef};
use ncdrf::regalloc::{
    allocate_dual, allocate_unified, classify, lifetimes, max_live, DualPressure, ValueClass,
};
use ncdrf::sched::{mii, Schedule};
use ncdrf::swap::{requirement_bound, swap_pass};
use ncdrf_certify::certify_schedule;

/// The §4 machine: two clusters, each 1 adder + 1 multiplier (latency 3)
/// and 2 load/store units (latency 1).
fn machine() -> Machine {
    Machine::clustered(3, 2)
}

fn op(l: &Loop, name: &str) -> OpId {
    l.find_op(name).unwrap()
}

/// The paper's Figure 3 schedule (II = 1, stages in Figure 4's brackets
/// minus one): L1,L2 @0, M3 @1, A4 @4, M5 @7, A6 @10, S7 @13.
/// Cluster assignment before swapping: {L1, L2, M3, A4} left,
/// {M5, A6, S7} right.
fn paper_schedule(l: &Loop, m: &Machine) -> Schedule {
    let g_add = m.group_for(ncdrf::ddg::OpKind::FpAdd).unwrap();
    let g_mul = m.group_for(ncdrf::ddg::OpKind::FpMul).unwrap();
    let g_mem = m.group_for(ncdrf::ddg::OpKind::Load).unwrap();
    let unit = |g: usize, i: usize| UnitRef {
        group: g,
        instance: i,
    };
    // Op order: L1, L2, M3, A4, M5, A6, S7.
    let starts = vec![0, 0, 1, 4, 7, 10, 13];
    let units = vec![
        unit(g_mem, 0), // L1 left mem
        unit(g_mem, 1), // L2 left mem
        unit(g_mul, 0), // M3 left mul
        unit(g_add, 0), // A4 left add
        unit(g_mul, 1), // M5 right mul
        unit(g_add, 1), // A6 right add
        unit(g_mem, 2), // S7 right mem
    ];
    Schedule::from_parts(l, m, 1, starts, units)
}

#[test]
fn schedule_matches_paper_shape() {
    let l = fig2();
    let m = machine();
    let sched = paper_schedule(&l, &m);
    certify_schedule(&l, &m, &sched).unwrap();
    assert_eq!(sched.ii(), 1);
    // "The schedule is partitioned into 14 pipestages."
    assert_eq!(sched.stages(), 14);
    // The II equals the MII (saturated adder/multiplier: 2 ops on 2 units).
    assert_eq!(mii(&l, &m).unwrap().mii, 1);
    // Cluster assignment as in Figure 4.
    for (name, cluster) in [
        ("L1", ClusterId::LEFT),
        ("L2", ClusterId::LEFT),
        ("M3", ClusterId::LEFT),
        ("A4", ClusterId::LEFT),
        ("M5", ClusterId::RIGHT),
        ("A6", ClusterId::RIGHT),
        ("S7", ClusterId::RIGHT),
    ] {
        assert_eq!(sched.cluster(op(&l, name), &m), cluster, "{name}");
    }
}

#[test]
fn table2_lifetimes() {
    let l = fig2();
    let m = machine();
    let sched = paper_schedule(&l, &m);
    let lts = lifetimes(&l, &m, &sched).unwrap();
    let lt = |name: &str| lts.iter().find(|lt| lt.op == op(&l, name)).unwrap();

    // Table 2: start/end/lifetime of every loop variant.
    assert_eq!((lt("L1").start, lt("L1").end, lt("L1").len()), (0, 13, 13));
    assert_eq!((lt("L2").start, lt("L2").end, lt("L2").len()), (0, 7, 7));
    assert_eq!((lt("M3").start, lt("M3").end, lt("M3").len()), (1, 7, 6));
    assert_eq!((lt("A4").start, lt("A4").end, lt("A4").len()), (4, 10, 6));
    assert_eq!((lt("M5").start, lt("M5").end, lt("M5").len()), (7, 13, 6));
    assert_eq!((lt("A6").start, lt("A6").end, lt("A6").len()), (10, 14, 4));

    // "The total register requirements of this loop schedule are the sum
    // of lifetimes of all the values ... at least 42 registers."
    let total: u32 = lts.iter().map(|lt| lt.len()).sum();
    assert_eq!(total, 42);
    assert_eq!(max_live(&lts, sched.ii()), 42);
    let alloc = allocate_unified(&lts, sched.ii());
    assert_eq!(alloc.regs, 42);
}

#[test]
fn table3_classification_before_swapping() {
    let l = fig2();
    let m = machine();
    let sched = paper_schedule(&l, &m);
    let lts = lifetimes(&l, &m, &sched).unwrap();
    let classes = classify(&l, &m, &sched, &lts);
    let class_of = |name: &str| {
        let i = lts.iter().position(|lt| lt.op == op(&l, name)).unwrap();
        classes[i]
    };

    // Table 3: L1 global; L2, M3 left-only; A4, M5, A6 right-only.
    assert_eq!(class_of("L1"), ValueClass::Global);
    assert_eq!(class_of("L2"), ValueClass::Only(ClusterId::LEFT));
    assert_eq!(class_of("M3"), ValueClass::Only(ClusterId::LEFT));
    assert_eq!(class_of("A4"), ValueClass::Only(ClusterId::RIGHT));
    assert_eq!(class_of("M5"), ValueClass::Only(ClusterId::RIGHT));
    assert_eq!(class_of("A6"), ValueClass::Only(ClusterId::RIGHT));

    // "13 global registers, 13 left-only registers and 16 right-only
    // registers ... the 'right' cluster has to be able to allocate 29
    // registers (13 global + 16 local)."
    let p = DualPressure::new(&lts, &classes, sched.ii());
    assert_eq!(p.global, 13);
    assert_eq!(p.left, 13);
    assert_eq!(p.right, 16);
    assert_eq!(p.left_total, 26);
    assert_eq!(p.right_total, 29);

    let alloc = allocate_dual(&lts, &classes, sched.ii());
    assert_eq!(alloc.regs, 29);
}

#[test]
fn table4_classification_after_swapping() {
    let l = fig2();
    let m = machine();
    let mut sched = paper_schedule(&l, &m);

    // The paper swaps A4 and A6 (both adds, same kernel cycle).
    sched.swap_units(op(&l, "A4"), op(&l, "A6"));
    certify_schedule(&l, &m, &sched).unwrap();

    let lts = lifetimes(&l, &m, &sched).unwrap();
    let classes = classify(&l, &m, &sched, &lts);

    // Table 4: 19 left-only + 23 right-only, no globals; max cluster 23.
    let p = DualPressure::new(&lts, &classes, sched.ii());
    assert_eq!(p.global, 0);
    assert_eq!(p.left, 19);
    assert_eq!(p.right, 23);
    assert_eq!(p.left_total, 19);
    assert_eq!(p.right_total, 23);

    // "The new schedule requires ... a maximum of 23 registers in one
    // cluster."
    let alloc = allocate_dual(&lts, &classes, sched.ii());
    assert_eq!(alloc.regs, 23);
}

#[test]
fn greedy_swap_pass_matches_or_beats_the_paper() {
    let l = fig2();
    let m = machine();
    let mut sched = paper_schedule(&l, &m);
    let outcome = swap_pass(&l, &m, &mut sched).unwrap();
    assert_eq!(outcome.before, 29);
    assert!(
        outcome.after <= 23,
        "greedy swapping should find the paper's swap (or better), got {}",
        outcome.after
    );
    certify_schedule(&l, &m, &sched).unwrap();

    let lts = lifetimes(&l, &m, &sched).unwrap();
    let classes = classify(&l, &m, &sched, &lts);
    assert_eq!(requirement_bound(&lts, &classes, sched.ii()), outcome.after);
}

#[test]
fn pipelined_execution_matches_reference_in_all_models() {
    use ncdrf::vliw::{check_equivalence, Binding};
    let l = fig2();
    let m = machine();

    // Unified allocation on the paper's schedule.
    let sched = paper_schedule(&l, &m);
    let lts = lifetimes(&l, &m, &sched).unwrap();
    let uni = allocate_unified(&lts, sched.ii());
    check_equivalence(&l, &m, &sched, &Binding::unified(&lts, &uni), 50).unwrap();

    // Dual allocation before swapping.
    let classes = classify(&l, &m, &sched, &lts);
    let dual = allocate_dual(&lts, &classes, sched.ii());
    check_equivalence(&l, &m, &sched, &Binding::dual(&lts, &dual), 50).unwrap();

    // Dual allocation after the paper's swap.
    let mut swapped = paper_schedule(&l, &m);
    swapped.swap_units(op(&l, "A4"), op(&l, "A6"));
    let lts2 = lifetimes(&l, &m, &swapped).unwrap();
    let classes2 = classify(&l, &m, &swapped, &lts2);
    let dual2 = allocate_dual(&lts2, &classes2, swapped.ii());
    assert_eq!(dual2.regs, 23);
    check_equivalence(&l, &m, &swapped, &Binding::dual(&lts2, &dual2), 50).unwrap();
}
