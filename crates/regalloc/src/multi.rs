//! Generalisation of the non-consistent register file to `k > 2`
//! clusters.
//!
//! The paper evaluates two clusters; its conclusion notes the technique
//! "could be applied to other scheduling techniques and to other parts of
//! the code" — and nothing in the model is two-specific: a value is
//! replicated into exactly the subfiles of the clusters that *read* it.
//! This module provides that general form: classification to
//! [`ClusterSet`]s, per-subfile pressures, and a First-Fit packing where
//! a value must be conflict-free in every subfile it occupies (all copies
//! share one rotating offset, as in the 2-cluster case).

use crate::alloc::FitPolicy;
use crate::lifetime::{max_live_subset, Lifetime};
use crate::offsets_conflict;
use crate::packer::first_fit;
use ncdrf_ddg::Loop;
use ncdrf_machine::{ClusterId, Machine};
use ncdrf_sched::Schedule;

/// The set of subfiles holding (replicating) one value, as a bitmask over
/// cluster indices. Supports up to 32 clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ClusterSet(u32);

impl ClusterSet {
    /// The empty set.
    pub const EMPTY: ClusterSet = ClusterSet(0);

    /// A singleton set.
    pub fn only(c: ClusterId) -> Self {
        ClusterSet(1 << c.index().min(31))
    }

    /// Inserts a cluster.
    pub fn insert(&mut self, c: ClusterId) {
        self.0 |= 1 << c.index().min(31);
    }

    /// Whether the set contains `c`.
    pub fn contains(self, c: ClusterId) -> bool {
        self.0 & (1 << c.index().min(31)) != 0
    }

    /// Number of subfiles holding the value (its replication degree).
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether the two sets share a subfile (i.e. the values can
    /// interfere).
    pub fn intersects(self, other: ClusterSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterator over the member clusters.
    pub fn iter(self) -> impl Iterator<Item = ClusterId> {
        (0..32)
            .filter(move |i| self.0 & (1 << i) != 0)
            .map(ClusterId)
    }
}

/// Classifies every lifetime by the set of clusters consuming it — the
/// k-cluster generalisation of [`classify`](crate::classify). Values with
/// no consumer (impossible for validated loops) default to cluster 0.
pub fn classify_multi(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
    lifetimes: &[Lifetime],
) -> Vec<ClusterSet> {
    let consumers = l.consumers();
    lifetimes
        .iter()
        .map(|lt| {
            let mut set = ClusterSet::EMPTY;
            for &(c, _) in &consumers[lt.op.index()] {
                set.insert(sched.cluster(c, machine));
            }
            if set.is_empty() {
                set.insert(ClusterId(0));
            }
            set
        })
        .collect()
}

/// Per-subfile MaxLive pressures of a k-cluster classification.
pub fn multi_pressure(
    lifetimes: &[Lifetime],
    sets: &[ClusterSet],
    ii: u32,
    clusters: u32,
) -> Vec<u32> {
    (0..clusters)
        .map(|c| {
            let kept: Vec<Lifetime> = lifetimes
                .iter()
                .zip(sets)
                .filter(|(_, s)| s.contains(ClusterId(c)))
                .map(|(lt, _)| *lt)
                .collect();
            max_live_subset(&kept, ii, |_| true)
        })
        .collect()
}

/// Result of a k-cluster non-consistent allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiAlloc {
    /// Registers per subfile (the requirement is the maximum subfile).
    pub regs: u32,
    /// Rotating offset of each lifetime (shared by all its copies).
    pub offsets: Vec<u32>,
    /// Subfile set of each lifetime.
    pub sets: Vec<ClusterSet>,
    /// Per-subfile MaxLive pressures.
    pub pressure: Vec<u32>,
}

/// First-Fit packing on a k-cluster non-consistent file: two values
/// interfere iff their cluster sets intersect; every copy of a value uses
/// the same rotating offset in each subfile that holds it. The subfile
/// size starts at the largest per-subfile pressure and grows until the
/// packing succeeds, in the same First-Fit kernel as
/// [`allocate_unified`](crate::allocate_unified).
///
/// # Panics
///
/// Panics if slice lengths differ, `ii == 0` or the non-empty lifetimes
/// span 2^30 IIs or more.
pub fn allocate_multi(
    lifetimes: &[Lifetime],
    sets: &[ClusterSet],
    ii: u32,
    clusters: u32,
) -> MultiAlloc {
    assert!(ii > 0, "II must be positive");
    assert_eq!(lifetimes.len(), sets.len());
    let pressure = multi_pressure(lifetimes, sets, ii, clusters);
    let r0 = pressure.iter().copied().max().unwrap_or(0);
    let (regs, offsets) = first_fit(lifetimes, ii, r0, FitPolicy::FirstFit, |a, b| {
        sets[a].intersects(sets[b])
    });
    MultiAlloc {
        regs,
        offsets,
        sets: sets.to_vec(),
        pressure,
    }
}

/// Independently re-checks a k-cluster allocation.
pub fn verify_multi(
    lifetimes: &[Lifetime],
    ii: u32,
    alloc: &MultiAlloc,
) -> Result<(), (usize, usize)> {
    if alloc.regs == 0 {
        return Ok(());
    }
    for a in 0..lifetimes.len() {
        for b in (a + 1)..lifetimes.len() {
            if !alloc.sets[a].intersects(alloc.sets[b]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::{allocate_dual, classify};
    use crate::lifetime::lifetimes;
    use ncdrf_ddg::{LoopBuilder, OpId, Weight};
    use ncdrf_sched::modulo_schedule;

    fn lt(i: usize, start: u32, end: u32) -> Lifetime {
        Lifetime {
            op: OpId::from_index(i),
            start,
            end,
        }
    }

    #[test]
    fn cluster_set_basics() {
        let mut s = ClusterSet::EMPTY;
        assert!(s.is_empty());
        s.insert(ClusterId(0));
        s.insert(ClusterId(3));
        assert!(s.contains(ClusterId(0)));
        assert!(!s.contains(ClusterId(1)));
        assert_eq!(s.count(), 2);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![ClusterId(0), ClusterId(3)]
        );
        assert!(s.intersects(ClusterSet::only(ClusterId(3))));
        assert!(!s.intersects(ClusterSet::only(ClusterId(1))));
    }

    #[test]
    fn disjoint_clusters_share_offsets() {
        // Four overlapping values, each local to a different cluster of a
        // 4-cluster machine: one register per subfile suffices.
        let lts = [lt(0, 0, 4), lt(1, 0, 4), lt(2, 0, 4), lt(3, 0, 4)];
        let sets = [
            ClusterSet::only(ClusterId(0)),
            ClusterSet::only(ClusterId(1)),
            ClusterSet::only(ClusterId(2)),
            ClusterSet::only(ClusterId(3)),
        ];
        let a = allocate_multi(&lts, &sets, 4, 4);
        assert_eq!(a.regs, 1);
        assert!(verify_multi(&lts, 4, &a).is_ok());
        assert_eq!(a.pressure, vec![1, 1, 1, 1]);
    }

    #[test]
    fn fully_replicated_degenerates_to_unified() {
        let lts = [lt(0, 0, 5), lt(1, 2, 9), lt(2, 4, 6)];
        let mut all = ClusterSet::EMPTY;
        for c in 0..4 {
            all.insert(ClusterId(c));
        }
        let sets = [all; 3];
        let multi = allocate_multi(&lts, &sets, 2, 4);
        let uni = crate::alloc::allocate_unified(&lts, 2);
        assert_eq!(multi.regs, uni.regs);
    }

    #[test]
    fn two_cluster_multi_matches_dual() {
        // On a 2-cluster machine the generalisation must agree with the
        // paper's dual allocator for every corpus-style loop shape.
        let mut b = LoopBuilder::new("t");
        let x = b.array_in("x");
        let y = b.array_in("y");
        let z = b.array_out("z");
        let lx = b.load("LX", x, 0);
        let ly = b.load("LY", y, 0);
        let m = b.mul("M", lx.now(), ly.now());
        let a = b.add("A", m.now(), lx.now());
        let s = b.reserve_add("S");
        b.bind(s, [a.now(), s.prev(1)]);
        b.store("ST", z, 0, s.now());
        let l = b.finish(Weight::default()).unwrap();

        let machine = ncdrf_machine::Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();

        let dual = allocate_dual(&lts, &classify(&l, &machine, &sched, &lts), sched.ii());
        let multi = allocate_multi(
            &lts,
            &classify_multi(&l, &machine, &sched, &lts),
            sched.ii(),
            2,
        );
        assert_eq!(dual.regs, multi.regs);
        assert!(verify_multi(&lts, sched.ii(), &multi).is_ok());
    }

    #[test]
    fn more_clusters_never_increase_the_requirement_bound() {
        // Splitting consumers over more subfiles can only shrink each
        // subfile's pressure (with the same schedule/assignment).
        let lts = [lt(0, 0, 8), lt(1, 1, 9), lt(2, 2, 10), lt(3, 3, 11)];
        let two = [
            ClusterSet::only(ClusterId(0)),
            ClusterSet::only(ClusterId(0)),
            ClusterSet::only(ClusterId(1)),
            ClusterSet::only(ClusterId(1)),
        ];
        let four = [
            ClusterSet::only(ClusterId(0)),
            ClusterSet::only(ClusterId(1)),
            ClusterSet::only(ClusterId(2)),
            ClusterSet::only(ClusterId(3)),
        ];
        let p2 = multi_pressure(&lts, &two, 2, 2);
        let p4 = multi_pressure(&lts, &four, 2, 4);
        assert!(p4.iter().max() <= p2.iter().max());
    }

    #[test]
    fn empty_input() {
        let a = allocate_multi(&[], &[], 3, 4);
        assert_eq!(a.regs, 0);
        assert!(verify_multi(&[], 3, &a).is_ok());
    }
}
