//! Experiment result types shared by [`crate::Sweep`] reports.
//!
//! The typed results ([`Table1Row`], [`DistributionCurve`],
//! [`BudgetOutcome`]) are produced by [`crate::Sweep::run`] and rendered
//! through [`crate::Render`].

use crate::model::ModelId;

/// Performance of a finite-register model relative to the ideal model:
/// `ideal_cycles / cycles`, so `1.0` means "as fast as infinite
/// registers" and smaller is worse.
///
/// Degenerate cases are explicit rather than masked:
///
/// * both totals zero (an empty corpus, or all-zero iteration weights):
///   every model is vacuously ideal — `1.0`;
/// * `cycles == 0` with `ideal_cycles > 0`: the finite model claims zero
///   cost where the unconstrained ideal pays some — impossible for a
///   correct spiller (spilling never removes work), so this surfaces as
///   `f64::INFINITY` instead of silently reporting parity.
pub fn relative_performance(ideal_cycles: u128, cycles: u128) -> f64 {
    match (ideal_cycles, cycles) {
        (0, 0) => 1.0,
        (_, 0) => f64::INFINITY,
        _ => ideal_cycles as f64 / cycles as f64,
    }
}

// ---------------------------------------------------------------------
// Typed experiment results
// ---------------------------------------------------------------------

/// One row of Table 1: for a `PxLy` unified machine, the share of loops
/// (and of estimated execution cycles) allocatable without spilling within
/// 16/32/64 registers.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Machine preset name (`P1L3`, ...).
    pub config: String,
    /// Percent of loops allocatable with ≤16/32/64 registers.
    pub loops_within: [f64; 3],
    /// Percent of estimated cycles those loops represent.
    pub cycles_within: [f64; 3],
}

/// One curve of Figure 6 (static) and Figure 7 (dynamic): a model's
/// cumulative distribution of loops / cycles over register requirements.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionCurve {
    /// Machine preset name (`C2L3`, `P1L6`, ...).
    pub config: String,
    /// Evaluation model (registry ID; rendered by its stable wire name).
    pub model: ModelId,
    /// Functional-unit latency of the machine.
    pub latency: u32,
    /// Static (loop-count-weighted) cumulative distribution.
    pub static_dist: crate::distribution::Cumulative,
    /// Dynamic (cycle-weighted) cumulative distribution.
    pub dynamic_dist: crate::distribution::Cumulative,
}

/// One bar of Figures 8–9: a model's corpus-wide performance and memory
/// traffic density for one (machine, registers) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetOutcome {
    /// Machine preset name (`C2L3`, ...).
    pub config: String,
    /// Evaluation model (registry ID; rendered by its stable wire name).
    pub model: ModelId,
    /// Functional-unit latency.
    pub latency: u32,
    /// Register budget (per file).
    pub registers: u32,
    /// Total estimated cycles over the corpus (Σ iterations × II).
    pub cycles: u128,
    /// Total memory accesses over the corpus (Σ iterations × memory ops).
    pub accesses: u128,
    /// Performance relative to the ideal model (see
    /// [`relative_performance`]).
    pub relative_performance: f64,
    /// Corpus-wide density of memory traffic: accesses per bus slot.
    pub traffic_density: f64,
    /// Loops that needed spill code.
    pub loops_spilled: usize,
}

/// The four (latency, registers) configurations of Figures 8–9.
pub const FIG89_CONFIGS: [(u32, u32); 4] = [(3, 32), (6, 32), (3, 64), (6, 64)];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::TABLE1_POINTS;
    use crate::model::{PAPER_FINITE_MODELS, PAPER_MODELS};
    use crate::session::Session;
    use crate::sweep::Sweep;
    use ncdrf_corpus::Corpus;
    use ncdrf_machine::Machine;

    fn tiny_corpus() -> Corpus {
        Corpus::small().take(12)
    }

    #[test]
    fn sweep_analyze_covers_corpus() {
        let c = tiny_corpus();
        let session = Session::new(Machine::clustered(3, 1));
        let rows = session.analyze_corpus(&c, ModelId::UNIFIED).unwrap();
        assert_eq!(rows.len(), c.len());
    }

    #[test]
    fn table1_shape() {
        let c = tiny_corpus();
        let rows = Sweep::new(&c)
            .pxly_configs([(1, 3), (2, 6)])
            .models([ModelId::UNIFIED])
            .points(TABLE1_POINTS)
            .run()
            .unwrap()
            .table1();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            // Monotone in the register budget.
            assert!(row.loops_within[0] <= row.loops_within[1]);
            assert!(row.loops_within[1] <= row.loops_within[2]);
        }
    }

    #[test]
    fn figures_6_7_partitioned_dominates_unified() {
        let c = Corpus::small().take(25);
        let curves = Sweep::new(&c)
            .clustered_latencies([3])
            .models(PAPER_FINITE_MODELS)
            .points([8, 16, 32, 64])
            .run()
            .unwrap()
            .distributions;
        let uni = curves.iter().find(|c| c.model == ModelId::UNIFIED).unwrap();
        let part = curves
            .iter()
            .find(|c| c.model == ModelId::PARTITIONED)
            .unwrap();
        // At every sampled point, at least as many loops fit under the
        // partitioned model (its requirement is never larger).
        for (u, p) in uni
            .static_dist
            .percent
            .iter()
            .zip(&part.static_dist.percent)
        {
            assert!(p >= u, "partitioned curve must lie left of unified");
        }
    }

    #[test]
    fn figures_8_9_ideal_is_upper_bound() {
        let c = tiny_corpus();
        let outcomes = Sweep::new(&c)
            .clustered_latencies([3])
            .models(PAPER_MODELS)
            .budget(16)
            .run()
            .unwrap()
            .outcomes;
        let ideal = outcomes.iter().find(|o| o.model == ModelId::IDEAL).unwrap();
        assert_eq!(ideal.relative_performance, 1.0);
        for o in &outcomes {
            assert!(o.relative_performance <= 1.0 + 1e-12);
            assert!(o.cycles >= ideal.cycles);
        }
    }

    #[test]
    fn relative_performance_quadrants() {
        // Normal case: ideal is faster or equal.
        assert_eq!(relative_performance(500, 1000), 0.5);
        assert_eq!(relative_performance(1000, 1000), 1.0);
        // Empty corpus: all models vacuously ideal.
        assert_eq!(relative_performance(0, 0), 1.0);
        // Ideal work vanished but the model's didn't: honest ratio 0.
        assert_eq!(relative_performance(0, 700), 0.0);
        // The impossible quadrant is explicit, not masked as parity.
        assert!(relative_performance(700, 0).is_infinite());
    }
}
