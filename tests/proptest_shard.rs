//! Property tests for the sharding subsystem: shard selection exactly
//! partitions the task grid, report merging is associative, shard
//! merging is permutation-invariant, and the JSON backend round-trips
//! reports losslessly.

use ncdrf::corpus::Corpus;
use ncdrf::machine::Machine;
use ncdrf::{
    parse_sweep_report, shard_tasks, BudgetOutcome, CacheStats, Cumulative, DistributionCurve,
    ModelId, PartialSweep, PipelineError, Render, ReportFormat, Sweep, SweepReport, SweepShard,
    PAPER_MODELS,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// SplitMix64 step: cheap deterministic stream for building synthetic
/// reports out of one proptest-drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A finite, fraction-rich f64 (ratios produce long mantissas, which is
/// exactly what shortest-round-trip formatting must preserve).
fn mix_f64(state: &mut u64) -> f64 {
    let num = mix(state) >> 11;
    let den = (mix(state) >> 40) + 1;
    num as f64 / den as f64
}

fn synth_curve(state: &mut u64) -> DistributionCurve {
    let points: Vec<u32> = (0..(mix(state) % 3 + 1))
        .map(|_| (mix(state) % 256) as u32)
        .collect();
    let percents =
        |state: &mut u64| -> Vec<f64> { points.iter().map(|_| mix_f64(state)).collect() };
    DistributionCurve {
        config: format!("M{}", mix(state) % 10),
        model: PAPER_MODELS[(mix(state) % 4) as usize],
        latency: (mix(state) % 9) as u32,
        static_dist: Cumulative {
            points: points.clone(),
            percent: percents(state),
        },
        dynamic_dist: Cumulative {
            points: points.clone(),
            percent: percents(state),
        },
    }
}

fn synth_outcome(state: &mut u64) -> BudgetOutcome {
    BudgetOutcome {
        config: format!("M{}", mix(state) % 10),
        model: PAPER_MODELS[(mix(state) % 4) as usize],
        latency: (mix(state) % 9) as u32,
        registers: (mix(state) % 128) as u32,
        // Deliberately beyond 2^53: exact only if the JSON backend never
        // routes integers through f64.
        cycles: ((mix(state) as u128) << 64) | mix(state) as u128,
        accesses: ((mix(state) as u128) << 64) | mix(state) as u128,
        relative_performance: mix_f64(state),
        traffic_density: mix_f64(state),
        loops_spilled: (mix(state) % 100) as usize,
    }
}

fn synth_report(seed: u64) -> SweepReport {
    let state = &mut seed.clone();
    SweepReport {
        distributions: (0..mix(state) % 3).map(|_| synth_curve(state)).collect(),
        outcomes: (0..mix(state) % 3).map(|_| synth_outcome(state)).collect(),
        scheduling: CacheStats {
            hits: mix(state) % 1_000_000,
            misses: mix(state) % 1_000_000,
            traj_hits: mix(state) % 1_000_000,
            traj_resumes: mix(state) % 1_000_000,
            spill_steps: mix(state) % 1_000_000,
        },
    }
}

fn synth_partial(seed: u64) -> PartialSweep {
    let state = &mut (seed ^ 0xDEAD_BEEF).clone();
    PartialSweep {
        report: synth_report(seed),
        errors: (0..mix(state) % 3)
            .map(|i| PipelineError::panic(format!("loop{i}"), format!("boom {}", mix(state) % 50)))
            .collect(),
    }
}

/// Four shards of one small real sweep plus their merged reference,
/// computed once (scheduling real loops per proptest case would dominate
/// the suite's runtime).
fn shard_fixture() -> &'static (Vec<SweepShard>, PartialSweep) {
    static FIXTURE: OnceLock<(Vec<SweepShard>, PartialSweep)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::small().take(6);
        let sweep = Sweep::new(&corpus)
            .machines([Machine::clustered(3, 1), Machine::clustered(6, 1)])
            .models([ModelId::UNIFIED, ModelId::SWAPPED])
            .points([16, 32])
            .budget(16);
        let shards: Vec<SweepShard> = (0..4).map(|i| sweep.shard(i, 4).unwrap()).collect();
        let reference = SweepShard::merge(&shards).unwrap();
        (shards, reference)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // `shard(i, n)` for `i in 0..n` partitions the flattened task grid
    // exactly: no overlap, no gaps, every shard ascending.
    #[test]
    fn shard_tasks_partition_the_grid_exactly(total in 0usize..400, count in 1u32..12) {
        let mut seen = vec![0u8; total];
        for index in 0..count {
            let tasks: Vec<usize> = shard_tasks(total, index, count).collect();
            for w in tasks.windows(2) {
                prop_assert!(w[0] < w[1], "shard {index} not ascending");
            }
            for t in tasks {
                prop_assert!(t < total, "task {t} outside the grid");
                seen[t] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "grid not covered exactly once");
    }

    // `SweepReport::merge` is associative: grouping never changes the
    // merged report, bit for bit.
    #[test]
    fn report_merge_is_associative(sa in 0u64..1 << 62, sb in 0u64..1 << 62, sc in 0u64..1 << 62) {
        let (a, b, c) = (synth_report(sa), synth_report(sb), synth_report(sc));
        let left = SweepReport::merge([SweepReport::merge([a.clone(), b.clone()]), c.clone()]);
        let right = SweepReport::merge([a.clone(), SweepReport::merge([b.clone(), c.clone()])]);
        let flat = SweepReport::merge([a, b, c]);
        prop_assert_eq!(&left, &flat);
        prop_assert_eq!(&right, &flat);
    }

    // `PartialSweep::merge` is associative too, and never loses or
    // repeats errors or cache counters.
    #[test]
    fn partial_merge_is_associative_and_lossless(sa in 0u64..1 << 62, sb in 0u64..1 << 62, sc in 0u64..1 << 62) {
        let (a, b, c) = (synth_partial(sa), synth_partial(sb), synth_partial(sc));
        let counts = (
            a.errors.len() + b.errors.len() + c.errors.len(),
            a.report.scheduling.hits + b.report.scheduling.hits + c.report.scheduling.hits,
        );
        let left = PartialSweep::merge([PartialSweep::merge([a.clone(), b.clone()]), c.clone()]);
        let right = PartialSweep::merge([a.clone(), PartialSweep::merge([b.clone(), c.clone()])]);
        let flat = PartialSweep::merge([a, b, c]);
        prop_assert_eq!(&left, &flat);
        prop_assert_eq!(&right, &flat);
        prop_assert_eq!(flat.errors.len(), counts.0);
        prop_assert_eq!(flat.report.scheduling.hits, counts.1);
    }

    // The JSON backend round-trips reports losslessly:
    // `parse(render_json(report)) == report`, including cycle counters
    // beyond 2^53 and fraction-rich floats.
    #[test]
    fn report_json_round_trips(seed in 0u64..1 << 62) {
        let report = synth_report(seed);
        let json = report.render(ReportFormat::Json);
        let parsed = parse_sweep_report(&json).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&parsed, &report);
        // And the re-rendered bytes are identical.
        prop_assert_eq!(parsed.render(ReportFormat::Json), json);
    }

    // `SweepShard::merge` is invariant under permutation of its input.
    #[test]
    fn shard_merge_is_permutation_invariant(seed in 0u64..1 << 62) {
        let (shards, reference) = shard_fixture();
        let mut permuted = shards.clone();
        let state = &mut seed.clone();
        for i in (1..permuted.len()).rev() {
            permuted.swap(i, (mix(state) % (i as u64 + 1)) as usize);
        }
        let merged = SweepShard::merge(&permuted)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&merged, reference);
    }
}
