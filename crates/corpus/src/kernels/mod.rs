//! Hand-written named kernels: the curated backbone of the corpus.
//!
//! These model the floating-point inner loops the paper drew from the
//! Perfect Club (and its companions, the Livermore Loops and SPEC89
//! Fortran): BLAS-1 vector operations, Livermore fragments, stencils and
//! filters, and recurrence/ILP stress kernels. Every kernel is a valid,
//! executable [`Loop`] with concrete invariant values, so the whole corpus
//! can run through the `ncdrf-vliw` equivalence oracle.

pub mod blas;
pub mod livermore;
pub mod recurrences;
pub mod spec;
pub mod stencils;

use ncdrf_ddg::{Loop, LoopBuilder, Weight};

/// The named kernels' constructors, in corpus order: a corpus prefix
/// builds only the kernels it keeps.
pub const ALL: [fn() -> Loop; 53] = [
    // BLAS-1 family.
    blas::daxpy,
    blas::axpby,
    blas::dot,
    blas::vadd,
    blas::vscale,
    blas::triad,
    blas::vdiv,
    blas::normalize,
    blas::vsum,
    blas::vprod,
    blas::sumsq,
    blas::sqdist,
    blas::harmonic,
    blas::sum_and_sumsq,
    blas::lerp,
    // Livermore-style fragments.
    livermore::hydro,
    livermore::tridiag,
    livermore::state,
    livermore::first_sum,
    livermore::first_diff,
    livermore::iccg,
    livermore::banded_matvec,
    livermore::forward_subst,
    // Stencils and filters.
    stencils::stencil3,
    stencils::stencil5,
    stencils::fir4,
    stencils::heat,
    stencils::wave,
    stencils::cmul,
    stencils::butterfly,
    // Recurrence / ILP stress kernels.
    recurrences::ema,
    recurrences::seidel,
    recurrences::oscillator,
    recurrences::chain8,
    recurrences::wide8,
    recurrences::tree8,
    recurrences::lotka,
    recurrences::quantize,
    recurrences::recip2,
    recurrences::chol_scale,
    recurrences::horner4,
    // SPEC89-Fortran-style kernels.
    spec::gemm_inner,
    spec::rank1_update,
    spec::givens,
    spec::rk2_step,
    spec::weighted_error,
    spec::band_accumulate,
    spec::newton_recip,
    spec::geo_conv,
    spec::rational_accum,
    spec::envelope,
    spec::blend2,
    spec::eos_heavy,
];

/// All named kernels, in a fixed order.
pub fn all() -> Vec<Loop> {
    ALL.iter().map(|kernel| kernel()).collect()
}

/// The paper's Figure 2 loop, the §4 worked example:
/// `L1 = x[i]; L2 = y[i]; M3 = L1*r; A4 = M3+L2; M5 = A4*t; A6 = M5+L1;
///  S7: z[i] = A6`.
///
/// It is not in [`ALL`], so the corpus leaves it out.
pub fn fig2() -> Loop {
    let mut b = LoopBuilder::new("fig2");
    let r = b.invariant("r", 0.5);
    let t = b.invariant("t", 1.5);
    let x = b.array_in("x");
    let y = b.array_in("y");
    let z = b.array_out("z");
    let l1 = b.load("L1", x, 0);
    let l2 = b.load("L2", y, 0);
    let m3 = b.mul("M3", l1.now(), r);
    let a4 = b.add("A4", m3.now(), l2.now());
    let m5 = b.mul("M5", a4.now(), t);
    let a6 = b.add("A6", m5.now(), l1.now());
    b.store("S7", z, 0, a6.now());
    b.finish(Weight::new(100, 1))
        .expect("hand-written kernel is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique() {
        let ks = all();
        let names: HashSet<_> = ks.iter().map(|k| k.name().to_owned()).collect();
        assert_eq!(names.len(), ks.len());
    }

    #[test]
    fn kernel_count() {
        assert_eq!(all().len(), 53);
    }

    #[test]
    fn every_kernel_executes_equivalently() {
        // End-to-end sanity via the sequential evaluator (cheap; the
        // pipelined oracle is exercised in the vliw and core crates).
        for k in all() {
            let _ = k.stats();
        }
    }
}
