//! Value classification and allocation for the non-consistent dual file.

use crate::alloc::{FitPolicy, UnifiedAlloc};
use crate::lifetime::{open_rows, row_span, Lifetime};
use crate::offsets_conflict;
use crate::packer::PlacementOrder;
use ncdrf_ddg::{Consumers, Loop};
use ncdrf_machine::{ClusterId, Machine};
use ncdrf_sched::Schedule;

/// Where a value must reside in a non-consistent dual register file (§4 of
/// the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueClass {
    /// Consumed by both clusters: replicated in both subfiles ("GL").
    Global,
    /// Consumed by one cluster only: stored only in that cluster's subfile
    /// ("LO"/"RO").
    Only(ClusterId),
}

impl ValueClass {
    /// Whether a value of this class occupies the given cluster's subfile.
    pub fn occupies(self, cluster: ClusterId) -> bool {
        match self {
            ValueClass::Global => true,
            ValueClass::Only(c) => c == cluster,
        }
    }
}

/// Classifies every lifetime's value by the clusters of its consumers.
///
/// A value read by operations scheduled in both clusters is
/// [`ValueClass::Global`]; a value read by a single cluster is local to it.
/// On a single-cluster machine everything is `Only(cluster 0)`.
pub fn classify(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
    lifetimes: &[Lifetime],
) -> Vec<ValueClass> {
    classify_from(&l.consumers(), machine, sched, lifetimes)
}

/// [`classify`] from the loop's consumer lists (see
/// [`Loop::consumers`]), built once by the caller and shared.
pub fn classify_from(
    consumers: &Consumers,
    machine: &Machine,
    sched: &Schedule,
    lifetimes: &[Lifetime],
) -> Vec<ValueClass> {
    lifetimes
        .iter()
        .map(|lt| {
            let mut seen_left = false;
            let mut seen_right = false;
            let mut any = None;
            for &(c, _) in &consumers[lt.op.index()] {
                let cluster = sched.cluster(c, machine);
                any = Some(cluster);
                match cluster {
                    ClusterId::LEFT => seen_left = true,
                    _ => seen_right = true,
                }
            }
            match (seen_left, seen_right) {
                (true, true) => ValueClass::Global,
                (true, false) => ValueClass::Only(ClusterId::LEFT),
                (false, true) => ValueClass::Only(any.expect("consumer seen")),
                // Unconsumed values cannot occur in validated loops; place
                // them arbitrarily.
                (false, false) => ValueClass::Only(ClusterId::LEFT),
            }
        })
        .collect()
}

/// Per-class register pressures of a dual allocation (the quantities of the
/// paper's Tables 3–4: GL / LO / RO, and the per-subfile totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualPressure {
    /// MaxLive of the global (replicated) values.
    pub global: u32,
    /// MaxLive of the left-only values.
    pub left: u32,
    /// MaxLive of the right-only values.
    pub right: u32,
    /// MaxLive of the left subfile's contents (globals + left-only).
    pub left_total: u32,
    /// MaxLive of the right subfile's contents (globals + right-only).
    pub right_total: u32,
}

impl DualPressure {
    /// Computes per-class pressures from lifetimes and their classes.
    ///
    /// One sweep counts the global, left-only and right-only instances
    /// live on every kernel row, as [`max_live_subset`](crate::max_live_subset)
    /// does for one subset; a subfile's count on a row is the sum of its
    /// globals and its locals there.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or `ii == 0`.
    pub fn new(lifetimes: &[Lifetime], classes: &[ValueClass], ii: u32) -> Self {
        assert_eq!(lifetimes.len(), classes.len());
        assert!(ii > 0, "II must be positive");
        let rows = ii as usize;
        // Per class (global, left-only, right-only): instances on every
        // row, and a circular difference array of the partial windows.
        let mut every = [0u64; 3];
        let mut diff = [(); 3].map(|()| vec![0i64; rows + 1]);
        for (lt, &class) in lifetimes.iter().zip(classes) {
            let k = match class {
                ValueClass::Global => 0,
                ValueClass::Only(ClusterId::LEFT) => 1,
                ValueClass::Only(ClusterId::RIGHT) => 2,
                // A third cluster's values sit in neither subfile.
                ValueClass::Only(_) => continue,
            };
            if lt.is_empty() {
                continue;
            }
            let (all, first, extra) = row_span(lt, ii);
            every[k] += u64::from(all);
            open_rows(&mut diff[k], first, extra);
        }
        let mut partial = [0i64; 3];
        let mut peak = [0u64; 5];
        let [dg, dl, dr] = &diff;
        for ((g, l), r) in dg[..rows].iter().zip(&dl[..rows]).zip(&dr[..rows]) {
            for (p, d) in partial.iter_mut().zip([g, l, r]) {
                *p += d;
            }
            // Each partial count covers whole windows, so it is
            // non-negative.
            let [g, l, r] = [0, 1, 2].map(|k| every[k] + partial[k] as u64);
            for (p, live) in peak.iter_mut().zip([g, l, r, g + l, g + r]) {
                *p = (*p).max(live);
            }
        }
        let [global, left, right, left_total, right_total] = peak.map(|p| p as u32);
        DualPressure {
            global,
            left,
            right,
            left_total,
            right_total,
        }
    }

    /// The dual-file requirement lower bound: the larger subfile pressure.
    pub fn requirement_bound(&self) -> u32 {
        self.left_total.max(self.right_total)
    }
}

/// Result of allocating on a non-consistent dual register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DualAlloc {
    /// Registers required per subfile (the dual "register requirement" of
    /// the loop — the paper reports the maximum over the two clusters).
    pub regs: u32,
    /// Rotating offset of each lifetime; globals use the same offset in
    /// both subfiles.
    pub offsets: Vec<u32>,
    /// Class of each lifetime.
    pub classes: Vec<ValueClass>,
    /// Per-class pressure summary.
    pub pressure: DualPressure,
}

/// First-Fit allocation on the dual file: globals must be conflict-free in
/// *both* subfiles at the same offset; locals only in their own subfile.
/// The subfile size starts at the pressure lower bound and grows until the
/// packing succeeds. Two values interfere when they share a subfile; the
/// packing is the same First-Fit kernel as [`allocate_unified`](crate::allocate_unified).
///
/// # Panics
///
/// Panics if `classes.len() != lifetimes.len()`, `ii == 0` or the
/// non-empty lifetimes span 2^30 IIs or more.
pub fn allocate_dual(lifetimes: &[Lifetime], classes: &[ValueClass], ii: u32) -> DualAlloc {
    assert!(ii > 0, "II must be positive");
    assert_eq!(lifetimes.len(), classes.len());
    allocate_dual_in(&PlacementOrder::new(lifetimes, ii), lifetimes, classes)
}

/// [`allocate_dual`] from `order`, the [`PlacementOrder`] of `lifetimes`
/// built once for their schedule and shared with the other classes
/// allocated on it; the dual file keeps the pairs that share a subfile.
///
/// # Panics
///
/// Panics if `classes.len() != lifetimes.len()` or `order` was built
/// from a different number of lifetimes.
pub fn allocate_dual_in(
    order: &PlacementOrder,
    lifetimes: &[Lifetime],
    classes: &[ValueClass],
) -> DualAlloc {
    assert_eq!(lifetimes.len(), classes.len());
    assert!(
        order.covers(lifetimes),
        "the placement order of other lifetimes"
    );
    let pressure = DualPressure::new(lifetimes, classes, order.ii());
    let (regs, offsets) = order.pack(pressure.requirement_bound(), FitPolicy::FirstFit, |a, b| {
        share_subfile(classes[a], classes[b])
    });
    DualAlloc {
        regs,
        offsets,
        classes: classes.to_vec(),
        pressure,
    }
}

/// Whether values of the two classes share a subfile, i.e. can interfere.
pub(crate) fn share_subfile(a: ValueClass, b: ValueClass) -> bool {
    [ClusterId::LEFT, ClusterId::RIGHT]
        .iter()
        .any(|&f| a.occupies(f) && b.occupies(f))
}

/// Independently re-checks a dual allocation: any two lifetimes sharing a
/// subfile must be conflict-free at their offsets. Returns the offending
/// pair, if any.
pub fn verify_dual(
    lifetimes: &[Lifetime],
    ii: u32,
    alloc: &DualAlloc,
) -> Result<(), (usize, usize)> {
    if alloc.regs == 0 {
        return Ok(());
    }
    for a in 0..lifetimes.len() {
        for b in (a + 1)..lifetimes.len() {
            if !share_subfile(alloc.classes[a], alloc.classes[b]) {
                continue;
            }
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

/// Convenience: a [`UnifiedAlloc`]-shaped view of a dual allocation
/// (same offsets, subfile size), for consumers that only need offsets.
impl From<&DualAlloc> for UnifiedAlloc {
    fn from(d: &DualAlloc) -> Self {
        UnifiedAlloc {
            regs: d.regs,
            offsets: d.offsets.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::max_live_by_rows;
    use ncdrf_ddg::OpId;

    fn lt(i: usize, start: u32, end: u32) -> Lifetime {
        Lifetime {
            op: OpId::from_index(i),
            start,
            end,
        }
    }

    #[test]
    fn locals_in_different_clusters_share_offsets() {
        // Two overlapping values, one left-only and one right-only: they
        // never share a subfile, so 1 register per subfile suffices... but
        // each still needs its own instance space within its subfile.
        let lts = [lt(0, 0, 4), lt(1, 0, 4)];
        let classes = [
            ValueClass::Only(ClusterId::LEFT),
            ValueClass::Only(ClusterId::RIGHT),
        ];
        let a = allocate_dual(&lts, &classes, 4);
        assert_eq!(a.regs, 1);
        assert!(verify_dual(&lts, 4, &a).is_ok());
    }

    #[test]
    fn globals_count_in_both_subfiles() {
        let lts = [lt(0, 0, 4), lt(1, 0, 4)];
        let classes = [ValueClass::Global, ValueClass::Only(ClusterId::RIGHT)];
        let a = allocate_dual(&lts, &classes, 4);
        assert_eq!(a.regs, 2); // right subfile holds both values
        assert_eq!(a.pressure.left_total, 1);
        assert_eq!(a.pressure.right_total, 2);
        assert!(verify_dual(&lts, 4, &a).is_ok());
    }

    #[test]
    fn pressure_matches_paper_shape() {
        // The §4.1 example at II=1 (classes from Table 3): GL 13, LO 13,
        // RO 16 -> max cluster 29.
        let lts = [
            lt(0, 0, 13),  // L1  GL
            lt(1, 0, 7),   // L2  LO
            lt(2, 1, 7),   // M3  LO
            lt(3, 4, 10),  // A4  RO
            lt(4, 7, 13),  // M5  RO
            lt(5, 10, 14), // A6  RO
        ];
        let classes = [
            ValueClass::Global,
            ValueClass::Only(ClusterId::LEFT),
            ValueClass::Only(ClusterId::LEFT),
            ValueClass::Only(ClusterId::RIGHT),
            ValueClass::Only(ClusterId::RIGHT),
            ValueClass::Only(ClusterId::RIGHT),
        ];
        let p = DualPressure::new(&lts, &classes, 1);
        assert_eq!(p.global, 13);
        assert_eq!(p.left, 13);
        assert_eq!(p.right, 16);
        assert_eq!(p.left_total, 26);
        assert_eq!(p.right_total, 29);
        let a = allocate_dual(&lts, &classes, 1);
        assert_eq!(a.regs, 29);
        assert!(verify_dual(&lts, 1, &a).is_ok());
    }

    /// The one-sweep pressures equal the five subsets' MaxLive by the
    /// row-counting definition, on generated lifetimes several IIs long
    /// (some empty), with a few values of a third cluster that sit in
    /// neither subfile.
    #[test]
    fn one_sweep_pressure_matches_the_five_subsets() {
        let mut seed = 0x3c6e_f372_fe94_f82bu64;
        let mut below = |n: u32| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % u64::from(n)) as u32
        };
        let kinds = [
            ValueClass::Global,
            ValueClass::Only(ClusterId::LEFT),
            ValueClass::Only(ClusterId::RIGHT),
            ValueClass::Only(ClusterId(2)),
        ];
        for case in 0..400 {
            let ii = 1 + below(24);
            let n = below(40) as usize;
            let lts: Vec<Lifetime> = (0..n)
                .map(|i| {
                    let start = below(5 * ii + 1);
                    lt(i, start, start + below(4 * ii + 4))
                })
                .collect();
            let cls: Vec<ValueClass> = lts
                .iter()
                .map(|_| kinds[(below(13) / 4) as usize])
                .collect();
            let rows = |keep: &dyn Fn(ValueClass) -> bool| {
                max_live_by_rows(&lts, ii, |lt| keep(cls[lt.op.index()]))
            };
            let want = DualPressure {
                global: rows(&|c| c == ValueClass::Global),
                left: rows(&|c| c == ValueClass::Only(ClusterId::LEFT)),
                right: rows(&|c| c == ValueClass::Only(ClusterId::RIGHT)),
                left_total: rows(&|c| c.occupies(ClusterId::LEFT)),
                right_total: rows(&|c| c.occupies(ClusterId::RIGHT)),
            };
            assert_eq!(
                DualPressure::new(&lts, &cls, ii),
                want,
                "case {case}: II {ii}, {cls:?}, {lts:?}"
            );
        }
    }

    #[test]
    fn all_global_degenerates_to_unified() {
        let lts = [lt(0, 0, 5), lt(1, 2, 9), lt(2, 4, 6)];
        let classes = [ValueClass::Global; 3];
        let dual = allocate_dual(&lts, &classes, 2);
        let uni = crate::alloc::allocate_unified(&lts, 2);
        assert_eq!(dual.regs, uni.regs);
    }

    #[test]
    fn empty_input() {
        let a = allocate_dual(&[], &[], 3);
        assert_eq!(a.regs, 0);
        assert!(verify_dual(&[], 3, &a).is_ok());
    }
}
