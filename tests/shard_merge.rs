//! Sharded sweep execution: `Sweep::shard` + `SweepShard::merge` must
//! reassemble the grid bit-identically to the sequential reference for
//! any shard count, in process and across a JSON round trip, and the
//! merge must reject overlapping / missing / incompatible shard sets by
//! name.

use ncdrf::corpus::{kernels, Corpus};
use ncdrf::ddg::Loop;
use ncdrf::machine::{FuClass, FuGroup, Machine};
use ncdrf::sched::Schedule;
use ncdrf::{
    parse_sweep_shard, CellCertifier, CertifyViolation, ConfigError, LoopAnalysis, LoopEval,
    ModelId, PipelineStage, Render, ReportFormat, ShardRole, Sweep, SweepShard, PAPER_MODELS,
};
use std::sync::Arc;

fn grid_sweep(corpus: &Corpus) -> Sweep<'_> {
    Sweep::new(corpus)
        .clustered_latencies([3, 6])
        .models(PAPER_MODELS)
        .points([8, 16, 32])
        .budgets([12, 32])
}

fn shards_of(sweep: &Sweep<'_>, count: u32) -> Vec<SweepShard> {
    (0..count).map(|i| sweep.shard(i, count).unwrap()).collect()
}

#[test]
fn merge_reassembles_bit_identically_for_many_shard_counts() {
    let corpus = Corpus::small().take(10);
    let sweep = grid_sweep(&corpus);
    let seq = sweep.run_sequential().unwrap();
    for count in [1, 2, 4, 7] {
        let shards = shards_of(&sweep, count);
        // Round-robin sharding spreads the grid: with more than one
        // shard, no shard holds the whole grid.
        let total: usize = shards.iter().map(SweepShard::cell_count).sum();
        assert_eq!(total, 2 * corpus.len(), "N={count}");
        if count > 1 {
            assert!(shards.iter().all(|s| s.cell_count() < 2 * corpus.len()));
        }
        let merged = SweepShard::merge(&shards).unwrap();
        assert!(merged.is_complete(), "N={count}");
        assert_eq!(merged.report, seq, "N={count}");
        // Bit-identity, not mere approximate equality: the serialized
        // bytes match too.
        assert_eq!(
            merged.report.render(ReportFormat::Json),
            seq.render(ReportFormat::Json),
            "N={count}"
        );
        // Schedule-cache counters partition across shards: every pair is
        // scheduled in exactly one shard.
        assert_eq!(merged.report.scheduling.misses, 2 * corpus.len() as u64);
    }
}

#[test]
fn merge_after_json_round_trip_is_still_bit_identical() {
    let corpus = Corpus::small().take(8);
    let sweep = grid_sweep(&corpus);
    let seq = sweep.run_sequential().unwrap();
    let parsed: Vec<SweepShard> = shards_of(&sweep, 4)
        .iter()
        .map(|s| {
            let json = s.render(ReportFormat::Json);
            let parsed = parse_sweep_shard(&json).unwrap();
            // A complete shard round-trips exactly (all-integer cells).
            assert_eq!(&parsed, s);
            parsed
        })
        .collect();
    let merged = SweepShard::merge(&parsed).unwrap();
    assert_eq!(merged.report, seq);
    assert_eq!(
        merged.report.render(ReportFormat::Json),
        seq.render(ReportFormat::Json)
    );
}

#[test]
fn merge_is_invariant_under_shard_order() {
    let corpus = Corpus::small().take(6);
    let sweep = grid_sweep(&corpus);
    let mut shards = shards_of(&sweep, 4);
    let reference = SweepShard::merge(&shards).unwrap();
    shards.reverse();
    assert_eq!(SweepShard::merge(&shards).unwrap(), reference);
    shards.swap(0, 2);
    assert_eq!(SweepShard::merge(&shards).unwrap(), reference);
}

fn config_of(err: &ncdrf::PipelineError) -> ConfigError {
    match &err.stage {
        PipelineStage::Config(c) => c.clone(),
        other => panic!("expected a config error, got {other}"),
    }
}

#[test]
fn invalid_shard_specs_are_named_config_errors() {
    let corpus = Corpus::small().take(4);
    let sweep = Sweep::new(&corpus)
        .machine(Machine::clustered(3, 1))
        .models([ModelId::UNIFIED])
        .budget(16);
    for (index, count) in [(0, 0), (3, 3), (7, 2)] {
        let err = sweep.shard(index, count).unwrap_err();
        assert!(err.is_config());
        assert_eq!(config_of(&err), ConfigError::InvalidShard { index, count });
        assert!(err.to_string().contains("invalid shard"), "{err}");
    }
    // Grid validation still precedes shard validation.
    let empty = Sweep::new(&corpus).budget(16).shard(0, 2).unwrap_err();
    assert_eq!(config_of(&empty), ConfigError::EmptyMachineGrid);
}

#[test]
fn merge_rejects_overlapping_missing_and_incompatible_shards() {
    let corpus = Corpus::small().take(5);
    let sweep = Sweep::new(&corpus)
        .machine(Machine::clustered(3, 1))
        .models([ModelId::UNIFIED])
        .budget(16);
    let shards = shards_of(&sweep, 3);

    // No shards at all.
    let err = SweepShard::merge(&[]).unwrap_err();
    assert_eq!(config_of(&err), ConfigError::MissingShards);

    // A shard index absent.
    let err = SweepShard::merge(&shards[..2]).unwrap_err();
    assert_eq!(config_of(&err), ConfigError::MissingShards);

    // The same shard twice.
    let doubled = vec![shards[0].clone(), shards[1].clone(), shards[1].clone()];
    let err = SweepShard::merge(&doubled).unwrap_err();
    assert_eq!(config_of(&err), ConfigError::OverlappingShards);

    // Shards of a different grid (different budget set).
    let other = Sweep::new(&corpus)
        .machine(Machine::clustered(3, 1))
        .models([ModelId::UNIFIED])
        .budget(32);
    let mixed = vec![
        shards[0].clone(),
        shards[1].clone(),
        other.shard(2, 3).unwrap(),
    ];
    let err = SweepShard::merge(&mixed).unwrap_err();
    assert_eq!(config_of(&err), ConfigError::IncompatibleShards);

    // Different shard counts.
    let recount = vec![shards[0].clone(), sweep.shard(1, 2).unwrap()];
    let err = SweepShard::merge(&recount).unwrap_err();
    assert_eq!(config_of(&err), ConfigError::IncompatibleShards);

    // All messages name their condition.
    for (e, needle) in [
        (ConfigError::OverlappingShards, "same shard index"),
        (ConfigError::MissingShards, "cover the full grid"),
        (ConfigError::IncompatibleShards, "disagree about the grid"),
    ] {
        assert!(e.to_string().contains(needle), "{e}");
    }
}

/// A machine whose loops (and failures) spread over several shards must
/// contribute each failed pair exactly once and its cache counters
/// exactly once — the merged result equals `run_partial` on the whole
/// grid, errors included.
#[test]
fn split_machine_failures_and_stats_merge_without_double_counting() {
    // NOMUL fails every loop that multiplies; the corpus mixes failing
    // and passing loops so failures land in multiple shards.
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
            kernels::blas::vscale(), // needs a multiplier → fails on NOMUL
            kernels::blas::vadd(),
            kernels::blas::dot(), // needs a multiplier → fails on NOMUL
            kernels::blas::vsum(),
        ],
    );
    let sweep = Sweep::new(&corpus)
        .machines([no_mul, Machine::clustered(3, 1)])
        .models([ModelId::UNIFIED])
        .points([16, 64])
        .budget(16);

    let whole = sweep.run_partial();
    assert_eq!(whole.errors.len(), 2, "two failing pairs on NOMUL");

    for count in [2, 3] {
        let shards = shards_of(&sweep, count);
        // The failures really do land in more than one shard (tasks 0
        // and 2 differ mod 2 and mod 3... task 0 and 2: 0%2=0, 2%2=0 —
        // so check via counts instead of assuming).
        let failing_shards = shards.iter().filter(|s| s.failure_count() > 0).count();
        let merged = SweepShard::merge(&shards).unwrap();
        assert_eq!(merged.errors, whole.errors, "N={count}");
        assert_eq!(merged.report, whole.report, "N={count}");
        assert_eq!(
            merged.report.scheduling.misses, whole.report.scheduling.misses,
            "N={count}: cache counters summed once, not per shard"
        );
        // Exactly one outcome row for the machine whose cells were
        // split across shards — no duplicate aggregates.
        assert_eq!(merged.report.outcomes_for("C2L3", 16).len(), 1);
        if count == 3 {
            assert!(
                failing_shards >= 2,
                "tasks 0 and 2 land in different shards at N=3"
            );
        }
    }
}

/// A certifier that panics on every spilled evaluation, so each cell
/// that spills panics part-way through its work.
#[derive(Debug)]
struct PanicsOnSpill;

impl CellCertifier for PanicsOnSpill {
    fn certify_analysis(
        &self,
        _: &Loop,
        _: &Machine,
        _: &Schedule,
        _: &LoopAnalysis,
    ) -> Result<(), CertifyViolation> {
        Ok(())
    }
    fn certify_eval(
        &self,
        _: &Loop,
        _: &Machine,
        _: &Loop,
        _: &Schedule,
        spilled: &[String],
        _: usize,
        _: usize,
        _: &LoopEval,
    ) -> Result<(), CertifyViolation> {
        assert!(spilled.is_empty(), "a spilled evaluation");
        Ok(())
    }
    fn certify_checkpoint(
        &self,
        _: usize,
        _: &Loop,
        _: &Machine,
        _: &Schedule,
        _: ModelId,
        _: u32,
    ) -> Result<(), CertifyViolation> {
        Ok(())
    }
}

/// The merge of one whole-grid shard equals `run_partial` — report,
/// cache counters and error list — on a grid whose spilling cells panic
/// and on a clean one. Both evaluate every cell in its own session and
/// assemble through one code path, so a panicking cell counts no work in
/// either.
#[test]
fn a_whole_grid_merge_equals_run_partial() {
    let corpus = Corpus::small().take(10);
    let panicking = Sweep::new(&corpus)
        .clustered_latencies([3])
        .models([ModelId::UNIFIED, ModelId::PORT_LIMITED])
        .budgets([8])
        .certify(Arc::new(PanicsOnSpill));
    let clean = grid_sweep(&corpus);
    for (name, sweep) in [("panicking", &panicking), ("clean", &clean)] {
        let merged = SweepShard::merge(&[sweep.shard(0, 1).unwrap()]).unwrap();
        let partial = sweep.run_partial();
        assert_eq!(
            merged.report.scheduling, partial.report.scheduling,
            "{name}: counters"
        );
        assert_eq!(merged.report, partial.report, "{name}: report");
        assert_eq!(merged.errors, partial.errors, "{name}: errors");
        assert_eq!(partial.errors.is_empty(), name == "clean", "{name}");
    }
}

#[test]
fn shard_summaries_render_in_every_format() {
    let corpus = Corpus::small().take(4);
    let sweep = Sweep::new(&corpus)
        .machine(Machine::clustered(3, 1))
        .models([ModelId::UNIFIED])
        .budget(16);
    let shard = sweep.shard(1, 2).unwrap();
    let text = shard.render(ReportFormat::Text);
    assert!(text.contains("shard 1/2"), "{text}");
    assert!(text.contains("1 machines × 4 loops"), "{text}");
    let csv = shard.render(ReportFormat::Csv);
    assert!(csv.starts_with("task,machine,loop,status\n"), "{csv}");
    assert_eq!(csv.lines().count(), 1 + shard.cell_count());
    let json = shard.render(ReportFormat::Json);
    assert!(json.contains("\"kind\":\"ncdrf-sweep-shard\""));
    // Malformed artifacts are rejected by name.
    assert!(parse_sweep_shard("{\"kind\":\"other\"}")
        .unwrap_err()
        .to_string()
        .contains("not a sweep shard"));
    assert!(parse_sweep_shard("{")
        .unwrap_err()
        .to_string()
        .contains("malformed report"));
}

/// Failed cells round-trip through JSON with their message intact: the
/// merged partial sweep renders identically even though the parsed
/// errors carry an opaque `Remote` stage.
#[test]
fn failures_survive_the_json_round_trip_verbatim() {
    let no_mul = Machine::new(
        "NOMUL",
        vec![
            FuGroup::unified(FuClass::Adder, 3, 2),
            FuGroup::unified(FuClass::MemPort, 1, 2),
        ],
        1,
    )
    .unwrap();
    let corpus = Corpus::from_loops("pair", vec![kernels::blas::vscale(), kernels::blas::vadd()]);
    let sweep = Sweep::new(&corpus)
        .machine(no_mul)
        .models([ModelId::UNIFIED])
        .budget(16);
    let whole = sweep.run_partial();

    let shards: Vec<SweepShard> = shards_of(&sweep, 2)
        .iter()
        .map(|s| parse_sweep_shard(&s.render(ReportFormat::Json)).unwrap())
        .collect();
    let merged = SweepShard::merge(&shards).unwrap();
    assert_eq!(merged.report, whole.report);
    assert_eq!(merged.errors.len(), whole.errors.len());
    for (m, w) in merged.errors.iter().zip(&whole.errors) {
        assert!(matches!(m.stage, PipelineStage::Remote(_)));
        assert_eq!(m.to_string(), w.to_string(), "error text verbatim");
        assert_eq!(m.loop_name, w.loop_name);
    }
    assert_eq!(
        merged.render(ReportFormat::Json),
        whole.render(ReportFormat::Json),
        "rendered artifacts are byte-identical"
    );
}

/// A heal artifact is a *complement*: it may fill the cells of a shard
/// that was lost entirely — the merge that would otherwise report
/// `MissingShards` completes, bit-identically to the intact set.
#[test]
fn complement_heal_covers_a_lost_shard() {
    let corpus = Corpus::small().take(6);
    let sweep = grid_sweep(&corpus);
    let shards = shards_of(&sweep, 4);
    let reference = SweepShard::merge(&shards).unwrap();

    // Shard 1's artifact is lost; without a heal the merge is missing.
    let survivors = vec![shards[0].clone(), shards[2].clone(), shards[3].clone()];
    let err = SweepShard::merge(&survivors).unwrap_err();
    assert_eq!(config_of(&err), ConfigError::MissingShards);

    // `unresolved` names exactly the lost shard's cells; the reissued
    // heal completes the merge bit-identically.
    let missing = SweepShard::unresolved(&survivors).unwrap();
    assert_eq!(missing, shards[1].tasks());
    let heal = sweep.reissue(&missing, &survivors).unwrap();
    let mut healed_set = survivors;
    healed_set.push(heal);
    let healed = SweepShard::merge(&healed_set).unwrap();
    assert!(healed.is_complete());
    assert_eq!(healed, reference);
    assert_eq!(
        healed.report.render(ReportFormat::Json),
        reference.report.render(ReportFormat::Json)
    );
}

/// A heal may only cover what a merge reported failed or missing: a
/// heal cell over a *healthy* cell — and two heal cells on one slot —
/// trip the overlap check.
#[test]
fn heal_artifacts_may_not_cover_healthy_cells() {
    let corpus = Corpus::small().take(5);
    let sweep = Sweep::new(&corpus)
        .machine(Machine::clustered(3, 1))
        .models([ModelId::UNIFIED])
        .budget(16);
    let shards = shards_of(&sweep, 2);
    assert!(SweepShard::unresolved(&shards).unwrap().is_empty());

    // Reissue a cell that is perfectly healthy in shard 0...
    let heal = sweep.reissue(&[0], &shards).unwrap();
    let mut set = shards.clone();
    set.push(heal.clone());
    let err = SweepShard::merge(&set).unwrap_err();
    assert_eq!(config_of(&err), ConfigError::OverlappingShards);

    // ...and two heals for one slot are ambiguous, even next to a
    // faulted primary.
    let faulted: Vec<SweepShard> = (0..2)
        .map(|i| sweep.shard_with_faults(i, 2, &[0]).unwrap())
        .collect();
    let err = SweepShard::merge(&[
        faulted[0].clone(),
        faulted[1].clone(),
        heal.clone(),
        heal.clone(),
    ])
    .unwrap_err();
    assert_eq!(config_of(&err), ConfigError::OverlappingShards);

    // A single heal over the faulted cell is exactly right.
    let healed = SweepShard::merge(&[faulted[0].clone(), faulted[1].clone(), heal]).unwrap();
    assert!(healed.is_complete());
    assert_eq!(
        healed.report,
        SweepShard::merge(&shards).unwrap().report,
        "healed faulted set equals the unfaulted merge"
    );
}

/// Reissue rejects grids it cannot serve: cells outside the grid and
/// seeds from a different (non-resume-compatible) grid.
#[test]
fn reissue_validates_cells_and_seeds() {
    let corpus = Corpus::small().take(4);
    let sweep = Sweep::new(&corpus)
        .machine(Machine::clustered(3, 1))
        .models([ModelId::UNIFIED])
        .budget(16);
    let err = sweep.reissue(&[99], &[]).unwrap_err();
    assert_eq!(config_of(&err), ConfigError::UnknownCell { task: 99 });
    assert!(err.to_string().contains("cell 99"), "{err}");

    // A seed from a different machine grid is not resume-compatible
    // (budget differences are fine — descents are budget-independent).
    let other_machines = Sweep::new(&corpus)
        .machine(Machine::clustered(6, 1))
        .models([ModelId::UNIFIED])
        .budget(16);
    let foreign = other_machines.shard(0, 1).unwrap();
    let err = sweep.reissue(&[0], &[foreign]).unwrap_err();
    assert_eq!(config_of(&err), ConfigError::IncompatibleShards);
    let other_budget = Sweep::new(&corpus)
        .machine(Machine::clustered(3, 1))
        .models([ModelId::UNIFIED])
        .budget(64);
    let budget_seed = other_budget.shard(0, 1).unwrap();
    assert!(sweep.reissue(&[0], &[budget_seed]).is_ok());
}

/// A seed restricted to the issued tasks keeps only their cells that
/// persist trajectories, and issuing with it is byte-identical to
/// issuing with the whole artifact.
#[test]
fn restricted_seeds_issue_exactly_like_the_whole_artifact() {
    let corpus = Corpus::from_loops(
        "pressured",
        vec![
            kernels::recurrences::chain8(),
            kernels::blas::daxpy(),
            kernels::recurrences::wide8(),
        ],
    );
    let first = Sweep::new(&corpus)
        .clustered_latencies([3, 6])
        .models(PAPER_MODELS)
        .budget(16)
        .persist_trajectories(true);
    let seed = first.shard(0, 1).unwrap();
    let with_trajectories: Vec<u64> = (0..seed.cell_count() as u64)
        .filter(|&t| seed.restricted_to(&[t]).cell_count() == 1)
        .collect();
    assert!(
        !with_trajectories.is_empty() && with_trajectories.len() < seed.cell_count(),
        "the grid must mix spilling and non-spilling cells: {with_trajectories:?}"
    );

    let deeper = Sweep::new(&corpus)
        .clustered_latencies([3, 6])
        .models(PAPER_MODELS)
        .budget(4);
    for tasks in [vec![0], vec![1, 4], vec![5, 2, 3], (0..6).collect()] {
        let restricted = seed.restricted_to(&tasks);
        assert_eq!(restricted.role(), ShardRole::Heal);
        let kept = restricted.tasks();
        let expected: Vec<u64> = with_trajectories
            .iter()
            .copied()
            .filter(|t| tasks.contains(t))
            .collect();
        assert_eq!(kept, expected, "tasks {tasks:?}");
        let mut summed = ncdrf::CacheStats::default();
        for &t in &kept {
            summed.absorb(seed.restricted_to(&[t]).scheduling());
        }
        assert_eq!(restricted.scheduling(), summed, "tasks {tasks:?}");

        let whole = deeper
            .issue_cells(&tasks, &[], std::slice::from_ref(&seed))
            .unwrap();
        let lean = deeper.issue_cells(&tasks, &[], &[restricted]).unwrap();
        assert_eq!(
            lean.render(ReportFormat::Json),
            whole.render(ReportFormat::Json),
            "tasks {tasks:?}"
        );
    }
}

/// This build reads only the shard version it writes: older layouts
/// (v3 predates the model registry) and future ones are refused
/// outright, naming the version, rather than half-parsed.
#[test]
fn other_shard_versions_are_refused() {
    let corpus = Corpus::small().take(2);
    let sweep = Sweep::new(&corpus)
        .clustered_latencies([3])
        .models([ncdrf::ModelId::PORT_LIMITED])
        .budget(16);
    let shard = sweep.shard(0, 1).unwrap();
    let v4 = shard.render(ReportFormat::Json);
    assert_eq!(parse_sweep_shard(&v4).as_ref(), Ok(&shard));

    for version in [0, 3, 5, u64::MAX] {
        let other = v4.replace("\"version\":4", &format!("\"version\":{version}"));
        assert_ne!(other, v4, "the artifact must carry the version member");
        let err = parse_sweep_shard(&other).unwrap_err();
        assert!(
            err.to_string().contains(&format!("version {version}")),
            "the rejection names the unsupported version: {err}"
        );
    }
}
