//! First-Fit packing of lifetimes onto a unified rotating register file.

use crate::lifetime::{max_live, Lifetime};
use crate::offsets_conflict;
use crate::packer::PlacementOrder;

/// The result of allocating a loop's values on a unified rotating register
/// file: a file size and, for every lifetime (parallel to the input slice),
/// the chosen rotating offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnifiedAlloc {
    /// Registers required (the paper's "register requirement" of a loop).
    pub regs: u32,
    /// Rotating offset of each lifetime, parallel to the allocated slice.
    pub offsets: Vec<u32>,
}

/// Wands-Only / First-Fit allocation: lifetimes are processed in start-time
/// order and each takes the lowest conflict-free rotating offset; the file
/// size starts at MaxLive and grows until the packing succeeds. Every
/// value interferes with every other; the packing is the crate's one
/// First-Fit kernel, shared with the dual and k-cluster allocators.
///
/// Returns `regs == 0` for loops with no register values.
pub fn allocate_unified(lifetimes: &[Lifetime], ii: u32) -> UnifiedAlloc {
    allocate_unified_with(lifetimes, ii, FitPolicy::FirstFit)
}

/// How a lifetime picks among its conflict-free rotating offsets.
///
/// Rau et al. (PLDI'92) compare several packing disciplines and find them
/// near-equivalent for the Wands-Only strategy; the paper adopts First-Fit
/// "due to its simplicity". Best-Fit is provided for the
/// `ablation_fit` benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitPolicy {
    /// The lowest conflict-free offset (the paper's choice).
    #[default]
    FirstFit,
    /// The lowest conflict-free offset that is *snug* — adjacent (offset
    /// minus one) to an already-occupied position — falling back to the
    /// lowest free offset when no snug position exists. Packs wands
    /// against each other to keep free space contiguous.
    BestFit,
}

/// [`allocate_unified`] with an explicit packing discipline.
///
/// Returns `regs == 0` for loops with no register values.
///
/// # Panics
///
/// Panics if `ii == 0` or the non-empty lifetimes span 2^30 IIs or
/// more.
pub fn allocate_unified_with(lifetimes: &[Lifetime], ii: u32, fit: FitPolicy) -> UnifiedAlloc {
    allocate_unified_in(&PlacementOrder::new(lifetimes, ii), lifetimes, fit)
}

/// [`allocate_unified_with`] from `order`, the [`PlacementOrder`] of
/// `lifetimes` built once for their schedule and shared with the other
/// classes allocated on it.
///
/// # Panics
///
/// Panics if `order` was built from a different number of lifetimes.
pub fn allocate_unified_in(
    order: &PlacementOrder,
    lifetimes: &[Lifetime],
    fit: FitPolicy,
) -> UnifiedAlloc {
    assert!(
        order.covers(lifetimes),
        "the placement order of other lifetimes"
    );
    let r0 = max_live(lifetimes, order.ii());
    let (regs, offsets) = order.pack(r0, fit, |_, _| true);
    UnifiedAlloc { regs, offsets }
}

/// Independently re-checks an allocation: no pair of lifetimes may conflict
/// at their assigned offsets. Returns the offending pair, if any.
pub fn verify_unified(
    lifetimes: &[Lifetime],
    ii: u32,
    alloc: &UnifiedAlloc,
) -> Result<(), (usize, usize)> {
    if alloc.regs == 0 {
        return Ok(());
    }
    for a in 0..lifetimes.len() {
        for b in (a + 1)..lifetimes.len() {
            if offsets_conflict(
                &lifetimes[a],
                &lifetimes[b],
                ii,
                alloc.offsets[a] as i64,
                alloc.offsets[b] as i64,
                alloc.regs as i64,
            ) {
                return Err((a, b));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_ddg::OpId;

    fn lt(i: usize, start: u32, end: u32) -> Lifetime {
        Lifetime {
            op: OpId::from_index(i),
            start,
            end,
        }
    }

    #[test]
    fn empty_input_needs_no_registers() {
        let a = allocate_unified(&[], 3);
        assert_eq!(a.regs, 0);
    }

    #[test]
    fn single_long_value_at_ii_one() {
        // Lifetime 13 at II=1 -> 13 registers (the paper's L1).
        let lts = [lt(0, 0, 13)];
        let a = allocate_unified(&lts, 1);
        assert_eq!(a.regs, 13);
        assert!(verify_unified(&lts, 1, &a).is_ok());
    }

    #[test]
    fn sum_of_lifetimes_at_ii_one() {
        // At II=1 every value needs `len` registers and packing is exact:
        // the example loop's 13+7+6+6+6+4 = 42.
        let lts = [
            lt(0, 0, 13),
            lt(1, 0, 7),
            lt(2, 1, 7),
            lt(3, 4, 10),
            lt(4, 7, 13),
            lt(5, 10, 14),
        ];
        let a = allocate_unified(&lts, 1);
        assert_eq!(a.regs, 42);
        assert!(verify_unified(&lts, 1, &a).is_ok());
    }

    #[test]
    fn disjoint_lifetimes_share_a_register_at_large_ii() {
        let lts = [lt(0, 0, 2), lt(1, 3, 5)];
        let a = allocate_unified(&lts, 10);
        assert_eq!(a.regs, 1);
        assert_eq!(a.offsets[0], a.offsets[1]);
        assert!(verify_unified(&lts, 10, &a).is_ok());
    }

    #[test]
    fn allocation_never_below_max_live_and_close_to_it() {
        // A mildly adversarial mix; First-Fit should stay within a couple
        // of registers of MaxLive.
        let lts = [
            lt(0, 0, 9),
            lt(1, 1, 4),
            lt(2, 2, 12),
            lt(3, 3, 6),
            lt(4, 4, 8),
            lt(5, 5, 17),
            lt(6, 6, 7),
        ];
        for ii in 1..6 {
            let ml = max_live(&lts, ii);
            let a = allocate_unified(&lts, ii);
            assert!(a.regs >= ml);
            // First-Fit is near-optimal but not exact; Rau et al. report a
            // small additive gap, which these inputs reproduce.
            assert!(a.regs <= ml + 4, "ii={ii}: {} vs maxlive {}", a.regs, ml);
            assert!(verify_unified(&lts, ii, &a).is_ok());
        }
    }

    #[test]
    fn verify_rejects_bad_allocation() {
        let lts = [lt(0, 0, 5), lt(1, 2, 6)];
        let bad = UnifiedAlloc {
            regs: 1,
            offsets: vec![0, 0],
        };
        assert_eq!(verify_unified(&lts, 10, &bad), Err((0, 1)));
    }
}

#[cfg(test)]
mod fit_tests {
    use super::*;
    use ncdrf_ddg::OpId;

    fn lt(i: usize, start: u32, end: u32) -> Lifetime {
        Lifetime {
            op: OpId::from_index(i),
            start,
            end,
        }
    }

    #[test]
    fn best_fit_is_valid_and_comparable() {
        let lts = [
            lt(0, 0, 13),
            lt(1, 0, 7),
            lt(2, 1, 7),
            lt(3, 4, 10),
            lt(4, 7, 13),
            lt(5, 10, 14),
        ];
        for ii in [1u32, 2, 3] {
            let ff = allocate_unified_with(&lts, ii, FitPolicy::FirstFit);
            let bf = allocate_unified_with(&lts, ii, FitPolicy::BestFit);
            assert!(verify_unified(&lts, ii, &ff).is_ok());
            assert!(verify_unified(&lts, ii, &bf).is_ok());
            // Both disciplines sit within one register of each other on
            // wand-style workloads (Rau et al.'s observation).
            assert!(ff.regs.abs_diff(bf.regs) <= 1, "ii={ii}");
        }
    }

    #[test]
    fn default_policy_is_first_fit() {
        let lts = [lt(0, 0, 5), lt(1, 2, 9)];
        assert_eq!(
            allocate_unified(&lts, 2),
            allocate_unified_with(&lts, 2, FitPolicy::default())
        );
    }
}
