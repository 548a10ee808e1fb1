//! Failure injection: every checker in the stack must actually *catch*
//! corrupted artifacts — a verifier that never fires is worse than none.

use ncdrf::corpus::kernels;
use ncdrf::machine::{Machine, UnitRef};
use ncdrf::regalloc::{
    allocate_dual, allocate_unified, classify, lifetimes, verify_dual, verify_unified,
};
use ncdrf::sched::{modulo_schedule, Schedule};
use ncdrf::vliw::{check_equivalence, Binding, EquivError};
use ncdrf::{RULE_DEPENDENCE, RULE_UNIT_CONFLICT};
use ncdrf_certify::certify_schedule;

fn setup() -> (ncdrf::ddg::Loop, Machine, Schedule) {
    let l = kernels::livermore::hydro();
    let machine = Machine::clustered(3, 1);
    let sched = modulo_schedule(&l, &machine).unwrap();
    (l, machine, sched)
}

/// Rebuilds a schedule with one op's start cycle shifted by `delta`.
fn shift_start(
    l: &ncdrf::ddg::Loop,
    machine: &Machine,
    sched: &Schedule,
    op: usize,
    delta: i64,
) -> Schedule {
    let n = l.ops().len();
    let starts: Vec<u32> = (0..n)
        .map(|i| {
            let s = sched.start(ncdrf::ddg::OpId::from_index(i)) as i64;
            if i == op {
                (s + delta).max(0) as u32
            } else {
                s as u32
            }
        })
        .collect();
    let units: Vec<UnitRef> = (0..n)
        .map(|i| sched.unit(ncdrf::ddg::OpId::from_index(i)))
        .collect();
    Schedule::from_parts(l, machine, sched.ii(), starts, units)
}

#[test]
fn schedule_verifier_catches_dependence_violations() {
    let (l, machine, sched) = setup();
    let ii = i64::from(sched.ii());
    // Pull the consumer of every tight edge one cycle earlier. Dependences
    // are the certifier's first rule, so each corruption must be named
    // exactly as a dependence violation.
    let mut caught = 0;
    for (from, to, dist) in l.sched_edges() {
        let lat = i64::from(machine.latency(l.op(from).kind()).unwrap());
        let earliest = i64::from(sched.start(from)) + lat - ii * i64::from(dist);
        if from == to || sched.start(to) == 0 || i64::from(sched.start(to)) != earliest {
            continue;
        }
        let bad = shift_start(&l, &machine, &sched, to.index(), -1);
        let err = certify_schedule(&l, &machine, &bad).unwrap_err();
        assert_eq!(err.rule, RULE_DEPENDENCE, "{err}");
        caught += 1;
    }
    assert!(caught > 0, "hydro has no tight dependence edge?");
}

#[test]
fn schedule_verifier_catches_resource_conflicts() {
    let (l, machine, sched) = setup();
    // Two same-group ops already share a kernel row on different unit
    // instances; rebinding one onto the other's instance leaves every
    // start cycle and row count alone, so only the double-booked seat is
    // wrong.
    let ids: Vec<_> = l.iter_ops().map(|(id, _)| id).collect();
    let (a, b) = ids
        .iter()
        .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
        .find(|&(a, b)| {
            a != b
                && sched.unit(a).group == sched.unit(b).group
                && sched.unit(a) != sched.unit(b)
                && sched.kernel_slot(a) == sched.kernel_slot(b)
        })
        .expect("hydro fills some kernel row of a group");
    let n = l.ops().len();
    let starts: Vec<u32> = (0..n)
        .map(|i| sched.start(ncdrf::ddg::OpId::from_index(i)))
        .collect();
    let mut units: Vec<UnitRef> = (0..n)
        .map(|i| sched.unit(ncdrf::ddg::OpId::from_index(i)))
        .collect();
    units[b.index()] = units[a.index()];
    let bad = Schedule::from_parts(&l, &machine, sched.ii(), starts, units);
    let err = certify_schedule(&l, &machine, &bad).unwrap_err();
    assert_eq!(err.rule, RULE_UNIT_CONFLICT, "{err}");
    assert!(
        err.detail.contains(l.op(a).name()) && err.detail.contains(l.op(b).name()),
        "the violation must name both ops: {err}"
    );
}

#[test]
fn unified_verifier_catches_offset_corruption() {
    let (l, machine, sched) = setup();
    let lts = lifetimes(&l, &machine, &sched).unwrap();
    let mut alloc = allocate_unified(&lts, sched.ii());
    if alloc.regs < 2 {
        return;
    }
    // Collapse every offset onto 0: some pair must now clash.
    for o in alloc.offsets.iter_mut() {
        *o = 0;
    }
    assert!(verify_unified(&lts, sched.ii(), &alloc).is_err());
}

#[test]
fn dual_verifier_catches_offset_corruption() {
    let (l, machine, sched) = setup();
    let lts = lifetimes(&l, &machine, &sched).unwrap();
    let classes = classify(&l, &machine, &sched, &lts);
    let mut alloc = allocate_dual(&lts, &classes, sched.ii());
    if alloc.regs < 2 {
        return;
    }
    for o in alloc.offsets.iter_mut() {
        *o = 0;
    }
    assert!(verify_dual(&lts, sched.ii(), &alloc).is_err());
}

#[test]
fn executor_oracle_catches_wrong_class() {
    // Misclassify a global value as local: one cluster reads a stale
    // register, and the memory comparison must fail.
    use ncdrf::machine::ClusterId;
    use ncdrf::regalloc::ValueClass;
    let l = kernels::blas::sqdist();
    let machine = Machine::clustered(3, 1);
    let sched = modulo_schedule(&l, &machine).unwrap();
    let lts = lifetimes(&l, &machine, &sched).unwrap();
    let mut classes = classify(&l, &machine, &sched, &lts);
    let Some(gi) = classes.iter().position(|c| *c == ValueClass::Global) else {
        return; // schedule happened to localise everything: nothing to corrupt
    };
    classes[gi] = ValueClass::Only(ClusterId::LEFT);
    let alloc = allocate_dual(&lts, &classes, sched.ii());
    let r = check_equivalence(&l, &machine, &sched, &Binding::dual(&lts, &alloc), 20);
    assert!(
        matches!(r, Err(EquivError::Mismatch { .. })),
        "misclassification must corrupt execution"
    );
}

#[test]
fn executor_oracle_catches_undersized_file() {
    let (l, machine, sched) = setup();
    let lts = lifetimes(&l, &machine, &sched).unwrap();
    let mut alloc = allocate_unified(&lts, sched.ii());
    if alloc.regs < 3 {
        return;
    }
    // Shrink the file without re-packing: rotation now wraps values onto
    // each other.
    alloc.regs -= 2;
    for o in alloc.offsets.iter_mut() {
        *o %= alloc.regs;
    }
    let r = check_equivalence(&l, &machine, &sched, &Binding::unified(&lts, &alloc), 30);
    assert!(matches!(r, Err(EquivError::Mismatch { .. })));
}

/// A spill failure at one budget must not poison the cached trajectory:
/// budgets the committed prefix already serves keep working (and keep
/// matching the fresh pipeline), other models evaluate untouched, and
/// the failure itself is deterministic.
///
/// The injected fault: cap the scheduler's II search (`max_ii`) at the
/// II of an early spill checkpoint. Spilling adds memory traffic, so on
/// a one-port-per-cluster machine a deeper rewrite needs a larger II —
/// the capped reschedule then fails with `NoSchedule` exactly at that
/// step, while every earlier step (and the base schedule) is untouched.
#[test]
fn spill_failure_at_one_budget_does_not_poison_the_trajectory_cache() {
    use ncdrf::spill::{requirement_unified, SpillOptions, SpillTrajectory};
    use ncdrf::{evaluate, ModelId, PipelineOptions, PipelineStage, Session};

    let l = kernels::blas::axpby();
    let machine = Machine::clustered(6, 1);

    // Probe the unrestricted descent for a step `fail_at` whose II
    // exceeds every II before it, with at least one requirement-lowering
    // step in front — capping `max_ii` just below `fail_at`'s II then
    // reproduces the healthy prefix exactly and fails exactly there.
    let base = modulo_schedule(&l, &machine).unwrap();
    let mut probe = SpillTrajectory::from_base(
        &l,
        &machine,
        base,
        &mut requirement_unified,
        SpillOptions::default(),
    )
    .unwrap();
    probe
        .evaluate(&machine, 2, &mut requirement_unified)
        .unwrap();
    let cps = probe.checkpoints();
    let iis: Vec<u32> = cps.iter().map(|c| c.ii).collect();
    let (fail_at, cap) = (2..cps.len())
        .find_map(|k| {
            let cap = *iis[..k].iter().max().unwrap();
            let healthy = cps[1..k].iter().any(|c| c.regs < cps[0].regs);
            (iis[k] > cap && healthy).then_some((k, cap))
        })
        .expect("spilling a mem-bound loop must grow the II past a healthy prefix");
    // A budget the healthy prefix serves, and one that needs the
    // now-impossible step.
    let good = cps[1..fail_at].iter().map(|c| c.regs).min().unwrap();
    assert!(
        good < cps[0].regs,
        "the good budget must force real spilling"
    );
    let bad = cps[..fail_at].iter().map(|c| c.regs).min().unwrap() - 1;

    let mut opts = PipelineOptions::default();
    opts.spill.scheduler.max_ii = Some(cap);
    let session = Session::new(machine.clone()).options(opts);

    // Healthy prefix first; then the poisoned budget fails...
    let before = session.evaluate(&l, ModelId::UNIFIED, good).unwrap();
    assert_eq!(
        before,
        evaluate(&l, &machine, ModelId::UNIFIED, good, &opts).unwrap()
    );
    let err = session.evaluate(&l, ModelId::UNIFIED, bad).unwrap_err();
    assert_eq!(err.loop_name, l.name());
    assert!(matches!(err.stage, PipelineStage::Spill(_)), "{err}");
    // ...exactly like the uncached pipeline fails.
    let fresh_err = evaluate(&l, &machine, ModelId::UNIFIED, bad, &opts).unwrap_err();
    assert_eq!(
        err, fresh_err,
        "the injected fault must be path-independent"
    );

    // The committed prefix still serves its budgets, bit-identically,
    // and as a cache *hit* (nothing was recomputed, nothing discarded).
    let hits_before = session.cache_stats().traj_hits;
    let after = session.evaluate(&l, ModelId::UNIFIED, good).unwrap();
    assert_eq!(after, before);
    assert_eq!(session.cache_stats().traj_hits, hits_before + 1);

    // Other models are untouched by the unified failure...
    let other = session
        .evaluate(&l, ModelId::PARTITIONED, cps[0].regs)
        .unwrap();
    assert_eq!(
        other,
        evaluate(&l, &machine, ModelId::PARTITIONED, cps[0].regs, &opts).unwrap()
    );
    // ...and the failure stays deterministic on retry.
    assert_eq!(
        session.evaluate(&l, ModelId::UNIFIED, bad).unwrap_err(),
        err
    );
}

/// The heal pipeline end to end, in process: a 4-way sharded run with
/// injected per-cell failures, healed by `Sweep::reissue` +
/// `SweepShard::merge`, must produce a report **byte-identical** to the
/// sequential reference — results, failure list (empty) and summed
/// `CacheStats` alike. The injected cells contribute zero counters and
/// their heal replacements contribute exactly what the sequential run
/// attributes to those cells, so no double counting can hide in the
/// sums.
#[test]
fn injected_cell_failures_heal_to_the_sequential_reference() {
    use ncdrf::corpus::Corpus;
    use ncdrf::{
        parse_sweep_shard, Render, ReportFormat, ShardRole, Sweep, SweepShard, PAPER_MODELS,
    };

    let corpus = Corpus::small().take(8);
    let sweep = Sweep::new(&corpus)
        .clustered_latencies([3, 6])
        .models(PAPER_MODELS)
        .points([16, 32])
        .budgets([32, 12]);
    let seq = sweep.run_sequential().unwrap();

    // Four shards over the 16-cell grid, four cells injected to fail
    // (spread over several shards; round-robin puts task t in shard
    // t % 4). The same fault list goes to every runner — cells outside
    // a runner's shard are ignored.
    let faults = [1u64, 6, 11, 12];
    let shards: Vec<SweepShard> = (0..4)
        .map(|i| sweep.shard_with_faults(i, 4, &faults).unwrap())
        .collect();
    let injected: usize = shards.iter().map(SweepShard::failure_count).sum();
    assert_eq!(injected, faults.len(), "every fault lands in one shard");

    // The faulted merge reports the failures (and is NOT the reference).
    let broken = SweepShard::merge(&shards).unwrap();
    assert_eq!(broken.errors.len(), faults.len());
    assert_ne!(broken.report, seq);

    // `unresolved` names exactly the injected cells; `reissue` re-runs
    // them as a heal artifact.
    let missing = SweepShard::unresolved(&shards).unwrap();
    assert_eq!(missing, faults);
    let heal = sweep.reissue(&missing, &shards).unwrap();
    assert_eq!(heal.role(), ShardRole::Heal);
    assert_eq!(heal.cell_count(), faults.len());
    assert_eq!(heal.failure_count(), 0);

    // Healed merge: byte-identical to the sequential reference,
    // including the summed cache counters.
    let mut all = shards.clone();
    all.push(heal);
    let healed = SweepShard::merge(&all).unwrap();
    assert!(healed.is_complete());
    assert_eq!(healed.report, seq);
    assert_eq!(
        healed.report.render(ReportFormat::Json),
        seq.render(ReportFormat::Json),
        "healed merge must be byte-identical, counters included"
    );
    assert!(SweepShard::unresolved(&all).unwrap().is_empty());

    // And the same holds across the artifact JSON round trip (the
    // cross-process path the CI heal-verify job drives). Failure-free
    // artifacts round-trip to equality; faulted ones differ only in
    // the error's stage representation (structured `Panic` becomes
    // text-verbatim `Remote`), which the healed merge drops anyway.
    let parsed: Vec<SweepShard> = all
        .iter()
        .map(|s| {
            let round = parse_sweep_shard(&s.render(ReportFormat::Json)).unwrap();
            if s.failure_count() == 0 {
                assert_eq!(&round, s);
            }
            round
        })
        .collect();
    assert_eq!(
        SweepShard::merge(&parsed)
            .unwrap()
            .report
            .render(ReportFormat::Json),
        seq.render(ReportFormat::Json)
    );

    // A consolidated artifact stands in for the original set: healing
    // it gives the same bytes (this is what `shard_runner merge
    // --out-artifact` + `reissue --from MERGED.json` do).
    let consolidated = SweepShard::consolidate(&shards).unwrap();
    let missing = SweepShard::unresolved(std::slice::from_ref(&consolidated)).unwrap();
    assert_eq!(missing, faults);
    let heal2 = sweep
        .reissue(&missing, std::slice::from_ref(&consolidated))
        .unwrap();
    let healed2 = SweepShard::merge(&[consolidated, heal2]).unwrap();
    assert_eq!(
        healed2.report.render(ReportFormat::Json),
        seq.render(ReportFormat::Json)
    );
}

/// A reissue of an already-evaluated grid at a **smaller budget**
/// resumes the trajectories the artifact persisted: the results are
/// identical to a from-scratch run, but the recorded descent prefix is
/// never respilled — counter-asserted as `traj_resumes > 0` and fewer
/// `spill_steps` than the sequential reference pays.
#[test]
fn reissue_at_a_smaller_budget_resumes_persisted_trajectories() {
    use ncdrf::corpus::Corpus;
    use ncdrf::{parse_sweep_shard, ModelId, Render, ReportFormat, Session, Sweep, SweepShard};

    let corpus = Corpus::from_loops(
        "pressured",
        vec![
            kernels::recurrences::chain8(),
            kernels::recurrences::wide8(),
        ],
    );
    let machine = Machine::clustered(6, 1);
    let free = corpus
        .iter()
        .map(|l| {
            Session::new(machine.clone())
                .analyze(l, ModelId::UNIFIED)
                .unwrap()
                .regs
        })
        .min()
        .unwrap();
    assert!(free > 5, "the corpus must be register-pressured");

    // First run: budget just under the requirement, descents persisted
    // into the artifact (and through its JSON round trip).
    let first = Sweep::new(&corpus)
        .machine(machine.clone())
        .models([ModelId::UNIFIED])
        .budget(free - 1)
        .persist_trajectories(true);
    let artifact = first.shard(0, 1).unwrap();
    assert!(
        artifact.trajectory_count() > 0,
        "spilling cells must persist their descents"
    );
    let artifact = parse_sweep_shard(&artifact.render(ReportFormat::Json)).unwrap();

    // Second run, smaller budget: a different grid (budgets differ),
    // but resume-compatible (same corpus, machine, options). Reissue
    // the whole grid, seeding from the first artifact.
    let deeper = Sweep::new(&corpus)
        .machine(machine.clone())
        .models([ModelId::UNIFIED])
        .budget(4);
    let seq = deeper.run_sequential().unwrap();
    let every_cell: Vec<u64> = (0..corpus.len() as u64).collect();
    let heal = deeper
        .reissue(&every_cell, std::slice::from_ref(&artifact))
        .unwrap();

    // Results identical to from-scratch...
    let healed = SweepShard::merge(std::slice::from_ref(&heal)).unwrap();
    assert!(healed.is_complete());
    assert_eq!(healed.report.outcomes, seq.outcomes);
    assert_eq!(healed.report.distributions, seq.distributions);

    // ...but the work is not: the persisted prefix was replayed, not
    // respilled, so only the extension's steps were computed.
    let resumed = heal.scheduling();
    assert!(resumed.traj_resumes > 0, "no descent resumed: {resumed:?}");
    assert!(
        resumed.spill_steps < seq.scheduling.spill_steps,
        "resume must cost fewer spill steps ({} vs {} from scratch)",
        resumed.spill_steps,
        seq.scheduling.spill_steps
    );

    // A reissue at the *recorded* budget is served from the checkpoint
    // record alone: zero spill steps, pure trajectory hits.
    let replay = Sweep::new(&corpus)
        .machine(machine)
        .models([ModelId::UNIFIED])
        .budget(free - 1);
    let served = replay.reissue(&every_cell, &[artifact]).unwrap();
    assert_eq!(
        SweepShard::merge(std::slice::from_ref(&served))
            .unwrap()
            .report
            .outcomes,
        first.run_sequential().unwrap().outcomes
    );
    assert_eq!(served.scheduling().spill_steps, 0);
    assert!(served.scheduling().traj_hits > 0);
}

#[test]
fn multi_verifier_catches_corruption() {
    use ncdrf::regalloc::{allocate_multi, classify_multi, verify_multi};
    let l = kernels::spec::eos_heavy();
    let machine = Machine::clustered_n(4, 3, 1);
    let sched = modulo_schedule(&l, &machine).unwrap();
    let lts = lifetimes(&l, &machine, &sched).unwrap();
    let sets = classify_multi(&l, &machine, &sched, &lts);
    let mut alloc = allocate_multi(&lts, &sets, sched.ii(), 4);
    assert!(verify_multi(&lts, sched.ii(), &alloc).is_ok());
    if alloc.regs < 2 {
        return;
    }
    for o in alloc.offsets.iter_mut() {
        *o = 0;
    }
    // All offsets collapsed: intersecting sets must clash somewhere.
    assert!(verify_multi(&lts, sched.ii(), &alloc).is_err());
}
