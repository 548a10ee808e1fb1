//! Property-based tests: for arbitrary generated loops the pipeline's
//! invariants must hold — schedules certify, allocations are conflict-free
//! and at least MaxLive, dual never beats MaxLive bounds, swap never
//! increases the requirement estimate, execution matches the reference.

use ncdrf::corpus::{generate, GenConfig};
use ncdrf::machine::Machine;
use ncdrf::regalloc::{
    allocate_dual, allocate_unified, classify, lifetimes, max_live, verify_dual, verify_unified,
};
use ncdrf::sched::{mii, modulo_schedule};
use ncdrf::swap::swap_pass;
use ncdrf::vliw::{check_equivalence, Binding};
use ncdrf_certify::certify_schedule;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = GenConfig> {
    (2usize..10, 1usize..4, 0.0f64..0.4, 0.0f64..0.9, 1u32..3).prop_map(
        |(arith, loads, rec, chain, dist)| GenConfig {
            min_arith: arith,
            max_arith: arith + 6,
            min_loads: loads,
            max_loads: loads + 2,
            recurrence_prob: rec,
            chain_bias: chain,
            max_recurrence_dist: dist,
            ..GenConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedule_and_allocation_invariants(seed in 0u64..10_000, cfg in arb_config(), lat in prop_oneof![Just(3u32), Just(6u32)]) {
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(lat, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();

        // The II respects its lower bound and the schedule certifies.
        let info = mii(&l, &machine).unwrap();
        prop_assert!(sched.ii() >= info.mii);
        certify_schedule(&l, &machine, &sched).unwrap();

        // Unified allocation: conflict-free, >= MaxLive.
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let uni = allocate_unified(&lts, sched.ii());
        prop_assert!(uni.regs >= max_live(&lts, sched.ii()));
        prop_assert!(verify_unified(&lts, sched.ii(), &uni).is_ok());

        // Dual allocation: conflict-free, bounded by the unified size,
        // and at least the per-subfile MaxLive bound.
        let classes = classify(&l, &machine, &sched, &lts);
        let dual = allocate_dual(&lts, &classes, sched.ii());
        prop_assert!(verify_dual(&lts, sched.ii(), &dual).is_ok());
        prop_assert!(dual.regs <= uni.regs);
        prop_assert!(dual.regs >= dual.pressure.requirement_bound());
    }

    #[test]
    fn swap_is_sound_and_never_hurts(seed in 0u64..10_000, cfg in arb_config()) {
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(3, 1);
        let mut sched = modulo_schedule(&l, &machine).unwrap();
        certify_schedule(&l, &machine, &sched).unwrap();
        let out = swap_pass(&l, &machine, &mut sched).unwrap();
        prop_assert!(out.after <= out.before);
        certify_schedule(&l, &machine, &sched).unwrap();
    }

    #[test]
    fn execution_matches_reference(seed in 0u64..5_000, cfg in arb_config()) {
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        certify_schedule(&l, &machine, &sched).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();

        let uni = allocate_unified(&lts, sched.ii());
        check_equivalence(&l, &machine, &sched, &Binding::unified(&lts, &uni), 10)
            .map_err(|e| TestCaseError::fail(format!("unified: {e}")))?;

        let classes = classify(&l, &machine, &sched, &lts);
        let dual = allocate_dual(&lts, &classes, sched.ii());
        check_equivalence(&l, &machine, &sched, &Binding::dual(&lts, &dual), 10)
            .map_err(|e| TestCaseError::fail(format!("dual: {e}")))?;
    }

    #[test]
    fn multi_cluster_generalisation_agrees_with_dual(seed in 0u64..4_000, cfg in arb_config()) {
        use ncdrf::regalloc::{allocate_multi, classify_multi, verify_multi};
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        certify_schedule(&l, &machine, &sched).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();

        let classes = classify(&l, &machine, &sched, &lts);
        let dual = allocate_dual(&lts, &classes, sched.ii());
        let sets = classify_multi(&l, &machine, &sched, &lts);
        let multi = allocate_multi(&lts, &sets, sched.ii(), 2);

        // On two clusters the general allocator is the paper's dual one.
        prop_assert_eq!(dual.regs, multi.regs);
        prop_assert!(verify_multi(&lts, sched.ii(), &multi).is_ok());

        // And the k-cluster pipelined execution is semantically correct.
        check_equivalence(&l, &machine, &sched, &Binding::multi(&lts, &multi, 2), 8)
            .map_err(|e| TestCaseError::fail(format!("multi: {e}")))?;
    }

    #[test]
    fn spiller_converges_and_accounts(seed in 0u64..3_000, budget in 8u32..48) {
        use ncdrf::spill::{requirement_unified, spill_until_fits, SpillOptions};
        let cfg = GenConfig::default();
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(6, 1);
        let r = spill_until_fits(&l, &machine, budget, &mut requirement_unified, SpillOptions::default()).unwrap();
        // The spiller terminates and reports honestly: within budget when
        // it fits, above budget only when every value is already spilled
        // (tiny budgets can sit below a loop's in-flight floor).
        if r.fits {
            prop_assert!(r.regs <= budget);
        } else {
            prop_assert!(r.regs > budget);
            prop_assert!(!r.spilled.is_empty());
        }
        prop_assert_eq!(r.l.memory_ops(), l.memory_ops() + r.added_mem_ops());
        certify_schedule(&r.l, &machine, &r.sched).unwrap();
    }
}
