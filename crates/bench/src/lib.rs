//! Shared helpers for the Criterion benchmark suite.
//!
//! The benches cover the §4 worked example (`example_loop`),
//! micro-benchmarks of the individual passes (`micro`) and the design
//! ablations (`ablation_*`: scheduling priority, allocation fit, spill
//! victim policy, swap scoring), which print what each variant reaches
//! (registers, spill counts, IIs). They run on reduced corpora so a full
//! `cargo bench` stays in the minutes range. The paper's figure grids
//! are timed end to end by `perfbench`, not here.

use ncdrf::corpus::Corpus;

/// A corpus slice small enough for statistically-stable Criterion runs.
pub fn bench_corpus(n: usize) -> Corpus {
    Corpus::small().take(n)
}

/// A handful of structurally-diverse kernels for micro-benchmarks.
pub fn micro_kernels() -> Vec<ncdrf::ddg::Loop> {
    use ncdrf::corpus::kernels;
    vec![
        kernels::blas::daxpy(),
        kernels::blas::dot(),
        kernels::livermore::state(),
        kernels::stencils::stencil5(),
        kernels::recurrences::chain8(),
        kernels::recurrences::wide8(),
        kernels::recurrences::lotka(),
    ]
}
