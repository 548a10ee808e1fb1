//! The paper's qualitative result shapes, checked on a reduced corpus:
//! who wins, in which direction, and where the models converge. Driven
//! through the `Sweep` API.

use ncdrf::corpus::Corpus;
use ncdrf::{ModelId, Sweep, PAPER_FINITE_MODELS, PAPER_MODELS, TABLE1_POINTS};

fn corpus() -> Corpus {
    Corpus::small()
}

#[test]
fn table1_pressure_grows_with_latency_and_width() {
    let c = corpus().take(70);
    let rows = Sweep::new(&c)
        .pxly_configs([(1, 3), (2, 3), (1, 6), (2, 6)])
        .models([ModelId::UNIFIED])
        .points(TABLE1_POINTS)
        .run()
        .unwrap()
        .table1();
    assert_eq!(rows.len(), 4);
    for row in &rows {
        // Monotone in the register budget: a loop that fits in 16
        // registers fits in 32 and 64.
        assert!(row.loops_within[0] <= row.loops_within[1], "{}", row.config);
        assert!(row.loops_within[1] <= row.loops_within[2], "{}", row.config);
    }
    let at32 = |name: &str| rows.iter().find(|r| r.config == name).unwrap().loops_within[1];
    // More latency -> fewer loops fit in 32 registers. (Width alone may
    // not hurt on a small corpus, but latency reliably does — the paper's
    // Table 1 diagonal.)
    assert!(at32("P1L3") >= at32("P1L6"));
    assert!(at32("P2L3") >= at32("P2L6"));
    assert!(at32("P1L3") >= at32("P2L6"));
}

#[test]
fn figures_6_7_model_ordering_holds_pointwise() {
    let points = [8u32, 16, 24, 32, 48, 64, 96, 128];
    let c = corpus();
    let report = Sweep::new(&c)
        .clustered_latencies([3, 6])
        .models(PAPER_FINITE_MODELS)
        .points(points)
        .run()
        .unwrap();
    for lat in [3, 6] {
        let get = |m: ModelId| {
            report
                .distributions
                .iter()
                .find(|c| c.model == m && c.latency == lat)
                .unwrap()
        };
        let uni = get(ModelId::UNIFIED);
        let part = get(ModelId::PARTITIONED);
        let swap = get(ModelId::SWAPPED);
        for (i, &point) in points.iter().enumerate() {
            // Partitioned dominates unified (its requirement is <=).
            assert!(
                part.static_dist.percent[i] >= uni.static_dist.percent[i],
                "static L{lat} at {point}"
            );
            assert!(
                part.dynamic_dist.percent[i] >= uni.dynamic_dist.percent[i],
                "dynamic L{lat} at {point}"
            );
            // Swapping only reduces requirements further (tolerance-free
            // in aggregate; tiny pointwise regressions are possible with
            // the exact allocator, so allow 2 percentage points).
            assert!(
                swap.static_dist.percent[i] + 2.0 >= part.static_dist.percent[i],
                "swap static L{lat} at {point}"
            );
        }
    }
}

#[test]
fn figure_8_shape_with_64_registers() {
    // With 64 registers the dual models run at (or very near) ideal
    // performance; unified trails at high latency.
    let c = corpus().take(70);
    let report = Sweep::new(&c)
        .clustered_latencies([6])
        .models(PAPER_MODELS)
        .budget(64)
        .run()
        .unwrap();
    let perf = |m: ModelId| {
        report
            .outcomes
            .iter()
            .find(|o| o.model == m)
            .unwrap()
            .relative_performance
    };
    assert_eq!(perf(ModelId::IDEAL), 1.0);
    assert!(perf(ModelId::PARTITIONED) >= perf(ModelId::UNIFIED));
    assert!(perf(ModelId::SWAPPED) >= perf(ModelId::UNIFIED));
    assert!(perf(ModelId::PARTITIONED) > 0.95, "dual ~ ideal at 64 regs");
}

#[test]
fn figure_8_shape_with_32_registers() {
    // With 32 registers at latency 6 the unified model loses noticeably;
    // the dual models hold up better.
    let c = corpus().take(70);
    let report = Sweep::new(&c)
        .clustered_latencies([6])
        .models(PAPER_MODELS)
        .budget(32)
        .run()
        .unwrap();
    let get = |m: ModelId| report.outcomes.iter().find(|o| o.model == m).unwrap();
    // The ideal model is the upper bound: every model's relative
    // performance is at most 1 and no model runs in fewer cycles.
    let ideal = get(ModelId::IDEAL);
    assert_eq!(ideal.relative_performance, 1.0);
    for o in &report.outcomes {
        assert!(o.relative_performance <= 1.0 + 1e-12, "{}", o.model);
        assert!(o.cycles >= ideal.cycles, "{}", o.model);
    }
    assert!(
        get(ModelId::PARTITIONED).relative_performance
            >= get(ModelId::UNIFIED).relative_performance
    );
    assert!(get(ModelId::UNIFIED).loops_spilled >= get(ModelId::PARTITIONED).loops_spilled);
}

#[test]
fn figure_9_dual_models_reduce_traffic_density() {
    let c = corpus().take(70);
    let report = Sweep::new(&c)
        .clustered_latencies([3])
        .models(PAPER_MODELS)
        .budget(32)
        .run()
        .unwrap();
    let density = |m: ModelId| {
        report
            .outcomes
            .iter()
            .find(|o| o.model == m)
            .unwrap()
            .traffic_density
    };
    // Less spill code -> lower density of memory traffic (L3/R32 panel;
    // the paper's exception is L6/R32 where all models converge).
    assert!(density(ModelId::PARTITIONED) <= density(ModelId::UNIFIED) + 1e-9);
    assert!(density(ModelId::SWAPPED) <= density(ModelId::UNIFIED) + 1e-9);
    // And nobody goes below the no-spill floor of the ideal model.
    assert!(density(ModelId::PARTITIONED) >= density(ModelId::IDEAL) - 1e-9);
}

#[test]
fn grid_sweep_amortizes_scheduling() {
    // The whole Figure 8/9 grid in one sweep: scheduling runs exactly
    // once per (loop, machine), regardless of 4 models x 2 budgets.
    let c = corpus().take(30);
    let report = Sweep::new(&c)
        .clustered_latencies([3, 6])
        .models(PAPER_MODELS)
        .budgets([32, 64])
        .run()
        .unwrap();
    assert_eq!(report.outcomes.len(), 16);
    assert_eq!(report.scheduling.misses, 2 * c.len() as u64);
}
