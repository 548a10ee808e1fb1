//! Register allocation for modulo-scheduled loops on rotating register
//! files, for unified and non-consistent dual organisations.
//!
//! Following the paper (§2, §4): the lifetime of a value starts when its
//! producer is *issued* and ends when its last consumer *finishes* (this
//! makes the code interruptible/restartable). With initiation interval II,
//! a new instance of every value is born each II cycles, so a value of
//! lifetime `l` has up to `ceil(l/II)` concurrently-live instances; the
//! allocator packs these helical lifetimes onto a rotating register file
//! using the **Wands-Only / First-Fit** strategy of Rau et al. (PLDI'92),
//! which the paper selects as its allocator.
//!
//! For the **non-consistent dual register file** (§4), every value is
//! classified by the clusters of its consumers — [`ValueClass::Global`]
//! when both clusters read it, otherwise local to one cluster — and each
//! subfile packs its globals + locals, with globals pinned to the same
//! register in both subfiles.
//!
//! # Example
//!
//! ```
//! use ncdrf_ddg::{LoopBuilder, Weight};
//! use ncdrf_machine::Machine;
//! use ncdrf_sched::modulo_schedule;
//! use ncdrf_regalloc::{lifetimes, max_live, allocate_unified};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = LoopBuilder::new("axpy");
//! let a = b.invariant("a", 3.0);
//! let x = b.array_in("x");
//! let z = b.array_out("z");
//! let l = b.load("L", x, 0);
//! let m = b.mul("M", l.now(), a);
//! b.store("S", z, 0, m.now());
//! let lp = b.finish(Weight::default())?;
//! let machine = Machine::clustered(3, 1);
//! let sched = modulo_schedule(&lp, &machine)?;
//! let lts = lifetimes(&lp, &machine, &sched)?;
//! let alloc = allocate_unified(&lts, sched.ii());
//! assert!(alloc.regs >= max_live(&lts, sched.ii()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod alloc;
mod dual;
mod lifetime;
mod multi;
mod packer;
mod sacks;

pub use alloc::{
    allocate_unified, allocate_unified_in, allocate_unified_with, verify_unified, FitPolicy,
    UnifiedAlloc,
};
pub use dual::{
    allocate_dual, allocate_dual_in, classify, classify_from, verify_dual, DualAlloc, DualPressure,
    ValueClass,
};
pub use lifetime::{lifetimes, lifetimes_into, max_live, max_live_subset, Lifetime};
pub use multi::{
    allocate_multi, classify_multi, multi_pressure, verify_multi, ClusterSet, MultiAlloc,
};
pub use packer::PlacementOrder;
pub use sacks::{assign_sacks, single_use_fraction, sole_consumer, SackAssignment, SackConfig};

pub(crate) fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

pub(crate) fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

/// Whether two lifetimes placed at rotating offsets `ru`, `rv` in a file of
/// `r` registers ever occupy the same physical register at the same time,
/// with initiation interval `ii`.
///
/// Instance `k` of value `u` lives in physical register `(ru + k) mod r`
/// during `[u.start + k*ii, u.end + k*ii)`; the pairwise test reduces to
/// asking whether some iteration delta `d ≡ ru - rv (mod r)` makes the base
/// intervals overlap.
pub(crate) fn offsets_conflict(
    u: &Lifetime,
    v: &Lifetime,
    ii: u32,
    ru: i64,
    rv: i64,
    r: i64,
) -> bool {
    debug_assert!(r > 0);
    let ii = ii as i64;
    let (su, eu) = (u.start as i64, u.end as i64);
    let (sv, ev) = (v.start as i64, v.end as i64);
    if eu <= su || ev <= sv {
        return false; // empty lifetimes never conflict
    }
    // Overlap condition for delta d: su < ev + d*ii  and  sv + d*ii < eu.
    let lo = div_floor(su - ev, ii) + 1; // smallest d with d*ii > su - ev
    let hi = div_ceil(eu - sv, ii) - 1; // largest d with d*ii < eu - sv
    if lo > hi {
        return false;
    }
    let delta = (ru - rv).rem_euclid(r);
    let d0 = lo + (delta - lo).rem_euclid(r);
    d0 <= hi
}

#[cfg(test)]
mod conflict_tests {
    use super::*;
    use ncdrf_ddg::OpId;

    fn lt(start: u32, end: u32) -> Lifetime {
        Lifetime {
            op: OpId::from_index(0),
            start,
            end,
        }
    }

    #[test]
    fn same_offset_overlapping_conflicts() {
        let u = lt(0, 5);
        let v = lt(2, 6);
        assert!(offsets_conflict(&u, &v, 10, 3, 3, 8));
    }

    #[test]
    fn same_offset_disjoint_no_conflict_with_large_ii() {
        let u = lt(0, 2);
        let v = lt(5, 7);
        // II large enough that no other iteration's instances reach back.
        assert!(!offsets_conflict(&u, &v, 100, 3, 3, 8));
    }

    #[test]
    fn long_lifetime_wraps_into_other_offsets() {
        // Two lifetimes of 13 at II=1 have 13 live instances each at every
        // cycle, so 26 registers are needed: in a 26-register file offset
        // distance 13 is the unique safe separation, while in a 20-register
        // file *every* placement conflicts (the helices wrap around).
        let u = lt(0, 13);
        let v = lt(0, 13);
        for delta in 1..13 {
            assert!(
                offsets_conflict(&u, &v, 1, 0, delta, 26),
                "delta {delta} should conflict in r=26"
            );
            assert!(
                offsets_conflict(&u, &v, 1, 0, 26 - delta, 26),
                "delta {} should conflict in r=26",
                26 - delta
            );
        }
        assert!(!offsets_conflict(&u, &v, 1, 0, 13, 26));
        for delta in 0..20 {
            assert!(
                offsets_conflict(&u, &v, 1, 0, delta, 20),
                "r=20 cannot hold 26 live instances (delta {delta})"
            );
        }
    }

    #[test]
    fn conflict_is_symmetric() {
        let u = lt(3, 11);
        let v = lt(6, 9);
        for r in 2..12i64 {
            for ru in 0..r {
                for rv in 0..r {
                    assert_eq!(
                        offsets_conflict(&u, &v, 2, ru, rv, r),
                        offsets_conflict(&v, &u, 2, rv, ru, r),
                        "asymmetry at r={r} ru={ru} rv={rv}"
                    );
                }
            }
        }
    }

    #[test]
    fn brute_force_agreement() {
        // Compare the closed-form test against explicit instance
        // enumeration over a window.
        let cases = [
            (lt(0, 7), lt(1, 4), 2u32, 5i64),
            (lt(2, 9), lt(0, 13), 3, 6),
            (lt(0, 1), lt(0, 1), 1, 2),
            (lt(4, 20), lt(5, 8), 4, 7),
        ];
        for (u, v, ii, r) in cases {
            for ru in 0..r {
                for rv in 0..r {
                    let fast = offsets_conflict(&u, &v, ii, ru, rv, r);
                    let mut slow = false;
                    for ku in -30i64..30 {
                        for kv in -30i64..30 {
                            let phys_u = (ru + ku).rem_euclid(r);
                            let phys_v = (rv + kv).rem_euclid(r);
                            if phys_u != phys_v {
                                continue;
                            }
                            let (us, ue) = (
                                u.start as i64 + ku * ii as i64,
                                u.end as i64 + ku * ii as i64,
                            );
                            let (vs, ve) = (
                                v.start as i64 + kv * ii as i64,
                                v.end as i64 + kv * ii as i64,
                            );
                            if us < ve && vs < ue {
                                slow = true;
                            }
                        }
                    }
                    assert_eq!(fast, slow, "mismatch ii={ii} r={r} ru={ru} rv={rv}");
                }
            }
        }
    }
}
