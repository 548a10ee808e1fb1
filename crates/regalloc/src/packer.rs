//! The one First-Fit kernel behind the unified, dual and k-cluster
//! allocators.
//!
//! Wands-Only First-Fit (Rau et al., PLDI'92) places the lifetimes in
//! start-time order, each at the lowest rotating offset free of every
//! interfering value placed before it, and restarts with one more
//! register when some value finds no offset. For a pair of lifetimes
//! the conflicting iteration deltas form one window `[lo, hi]`, so a
//! placed `u` forbids exactly the circular interval
//! `[off_u + lo, off_u + hi] (mod r)`. The window depends only on the
//! two lifetimes and II, never on `r`, so [`first_fit`] derives every
//! window once per call, with no division, and each file size costs per
//! value one difference-array clear, one interval per conflicting pair
//! and one prefix-sum sweep. The tests keep the old restart-per-size
//! search over [`offsets_conflict`](crate::offsets_conflict) as an oracle.

use crate::alloc::FitPolicy;
use crate::lifetime::Lifetime;

/// A lifetime's start and end, each split as `(q, rem)` with
/// `q·II + rem` equal to it and `0 <= rem < II`.
type Split = [(i64, u32); 2];

fn split(lt: &Lifetime, ii: u32) -> Split {
    [lt.start, lt.end].map(|t| (i64::from(t / ii), t % ii))
}

/// The iteration deltas at which two non-empty lifetimes overlap: `v`
/// placed at `off_u + d (mod r)` conflicts with `u` placed at `off_u`
/// exactly for `d` in `lo .. lo + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    lo: i64,
    len: u32,
}

impl Window {
    /// The window of `v` against `u`, or `None` when no delta overlaps.
    ///
    /// Deltas `d` overlap when `v.start < u.end + d·II` and
    /// `u.start + d·II < v.end`, so `lo = floor((v.start − u.end)/II) + 1`
    /// and `hi = ceil((v.end − u.start)/II) − 1`. On split operands each
    /// reduces to a quotient difference and one remainder comparison.
    fn between(u: Split, v: Split) -> Option<Window> {
        let ([(us_q, us_rem), (ue_q, ue_rem)], [(vs_q, vs_rem), (ve_q, ve_rem)]) = (u, v);
        let lo = vs_q - ue_q - i64::from(vs_rem < ue_rem) + 1;
        let hi = ve_q - us_q + i64::from(ve_rem > us_rem) - 1;
        (lo <= hi).then(|| Window {
            lo,
            len: u32::try_from(hi - lo + 1).expect("conflict window fits in u32"),
        })
    }

    /// The first forbidden offset, reduced into `0..r`, when `u` sits at
    /// `off_u` in a file of `r` registers.
    fn start_at(self, off_u: u32, r: u32) -> u32 {
        let (mut start, r) = (i64::from(off_u) + self.lo, i64::from(r));
        if !(0..r).contains(&start) {
            start = start.rem_euclid(r);
        }
        start as u32
    }
}

/// One non-empty lifetime in placement order: its index, its split, and
/// the end of its row in the CSR pair list (the row starts where the
/// previous slot's ends).
struct Slot {
    index: usize,
    split: Split,
    row_end: usize,
}

/// Wands-Only First-Fit (or Best-Fit, per `fit`) over a rotating file
/// whose size starts at `r0` and grows until the packing succeeds.
/// `interferes(a, b)` (symmetric, over lifetime indices) says whether two
/// values share a file; empty lifetimes interfere with nothing and get
/// offset 0.
///
/// Returns the file size and each lifetime's offset, parallel to
/// `lifetimes`; the size is 0 when every lifetime is empty.
pub(crate) fn first_fit(
    lifetimes: &[Lifetime],
    ii: u32,
    r0: u32,
    fit: FitPolicy,
    interferes: impl Fn(usize, usize) -> bool,
) -> (u32, Vec<u32>) {
    let mut offsets = vec![0; lifetimes.len()];
    let mut slots: Vec<Slot> = (0..lifetimes.len())
        .filter(|&i| !lifetimes[i].is_empty())
        .map(|index| Slot {
            index,
            split: split(&lifetimes[index], ii),
            row_end: 0,
        })
        .collect();
    if slots.is_empty() {
        return (0, offsets);
    }
    slots.sort_unstable_by_key(|s| (lifetimes[s.index].start, s.index));

    // Each slot's row: `(earlier index, window)` for every interfering
    // earlier value that conflicts at some delta.
    let (mut pairs, mut widest) = (Vec::new(), 0);
    for p in 0..slots.len() {
        let v = &slots[p];
        for u in &slots[..p] {
            if !interferes(u.index, v.index) {
                continue;
            }
            if let Some(window) = Window::between(u.split, v.split) {
                widest = widest.max(window.len);
                pairs.push((u.index, window));
            }
        }
        slots[p].row_end = pairs.len();
    }

    // A window of `len >= r` deltas forbids every offset, so every size up
    // to the widest window fails once its owner is reached: skipping those
    // sizes changes no result, and no interval below needs that check.
    let mut r = r0.max(widest + 1);
    let mut packer = OffsetPacker::default();
    'grow: loop {
        let mut row_start = 0;
        for slot in &slots {
            packer.begin(r);
            // Earlier values in the order were placed in this pass.
            for &(u, window) in &pairs[row_start..slot.row_end] {
                packer.add(window.start_at(offsets[u], r), window.len);
            }
            row_start = slot.row_end;
            match packer.choose(fit) {
                Some(c) => offsets[slot.index] = c,
                None => {
                    r += 1;
                    continue 'grow;
                }
            }
        }
        return (r, offsets);
    }
}

/// Forbidden-interval accumulator for one value in a file of `r`
/// registers, reused across values.
#[derive(Debug, Default)]
struct OffsetPacker {
    /// Difference array over offsets `0..r` plus one slack slot for
    /// interval ends; `prefix_sum(diff)[c] > 0` means offset `c` conflicts.
    diff: Vec<i32>,
}

impl OffsetPacker {
    /// Starts the search for one value's offset in a file of `r`
    /// registers, clearing previous intervals.
    fn begin(&mut self, r: u32) {
        self.diff.clear();
        self.diff.resize(r as usize + 1, 0);
    }

    /// Forbids the circular interval of `len` offsets from `start`
    /// (`start < r`, `len < r`).
    fn add(&mut self, start: u32, len: u32) {
        let (start, len, r) = (start as usize, len as usize, self.diff.len() - 1);
        debug_assert!(start < r && len < r);
        self.diff[start] += 1;
        if start + len <= r {
            self.diff[start + len] -= 1;
        } else {
            // The interval wraps: split at the file boundary.
            self.diff[r] -= 1;
            self.diff[0] += 1;
            self.diff[start + len - r] -= 1;
        }
    }

    /// The offset `fit` picks among the free ones, if any is free.
    fn choose(&self, fit: FitPolicy) -> Option<u32> {
        match fit {
            FitPolicy::FirstFit => self.first_free(),
            FitPolicy::BestFit => {
                let forbidden = self.forbidden_flags();
                let r = forbidden.len();
                let free = || (0..r).filter(|&c| !forbidden[c]);
                let snug = free().find(|&c| forbidden[(c + r - 1) % r]);
                snug.or_else(|| free().next()).map(|c| c as u32)
            }
        }
    }

    /// The lowest conflict-free offset, if any.
    fn first_free(&self) -> Option<u32> {
        let mut acc = 0i32;
        for (c, &d) in self.diff[..self.diff.len() - 1].iter().enumerate() {
            acc += d;
            if acc == 0 {
                return Some(c as u32);
            }
        }
        None
    }

    /// Conflict flags for all offsets (`true` = forbidden).
    fn forbidden_flags(&self) -> Vec<bool> {
        let mut acc = 0i32;
        let offsets = &self.diff[..self.diff.len() - 1];
        offsets
            .iter()
            .map(|&d| {
                acc += d;
                acc > 0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::share_subfile;
    use crate::{
        allocate_dual, allocate_multi, allocate_unified_with, multi_pressure, offsets_conflict,
        verify_dual, verify_multi, verify_unified, ClusterSet, DualPressure, UnifiedAlloc,
        ValueClass,
    };
    use ncdrf_ddg::OpId;
    use ncdrf_machine::ClusterId;

    fn lt(start: u32, end: u32) -> Lifetime {
        Lifetime {
            op: OpId::from_index(0),
            start,
            end,
        }
    }

    /// The offsets of `v` that `u` at `off_u` forbids in a file of `r`,
    /// computed the way [`first_fit`] does: window, then `add`.
    fn forbidden_by(v: &Lifetime, u: &Lifetime, ii: u32, off_u: u32, r: u32) -> Vec<bool> {
        if v.is_empty() || u.is_empty() {
            return vec![false; r as usize];
        }
        let Some(window) = Window::between(split(u, ii), split(v, ii)) else {
            return vec![false; r as usize];
        };
        if window.len >= r {
            return vec![true; r as usize];
        }
        let mut packer = OffsetPacker::default();
        packer.begin(r);
        packer.add(window.start_at(off_u, r), window.len);
        packer.forbidden_flags()
    }

    /// The division-free window plus `add` must agree with
    /// `offsets_conflict` on every candidate, across a grid of lifetime
    /// shapes, IIs and file sizes.
    #[test]
    fn packer_matches_pairwise_conflict_test() {
        let shapes = [
            lt(0, 1),
            lt(0, 5),
            lt(2, 6),
            lt(0, 13),
            lt(7, 9),
            lt(3, 20),
            lt(5, 5), // empty
            lt(9, 4), // empty
        ];
        for v in &shapes {
            for u in &shapes {
                for ii in [1u32, 2, 3, 7, 40] {
                    for r in [1u32, 2, 5, 8, 26] {
                        for off_u in 0..r {
                            let flags = forbidden_by(v, u, ii, off_u, r);
                            for cand in 0..r {
                                let expect =
                                    offsets_conflict(v, u, ii, cand as i64, off_u as i64, r as i64);
                                assert_eq!(
                                    expect, flags[cand as usize],
                                    "v={v:?} u={u:?} ii={ii} r={r} off_u={off_u} cand={cand}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn intervals_accumulate_across_placed_values() {
        // Two placed values with II=10, r=4: each forbids one offset.
        let (u, v) = (split(&lt(2, 6), 10), split(&lt(0, 5), 10));
        let window = Window::between(u, v).unwrap();
        assert_eq!(window, Window { lo: 0, len: 1 });
        let mut packer = OffsetPacker::default();
        packer.begin(4);
        packer.add(window.start_at(1, 4), window.len);
        packer.add(window.start_at(3, 4), window.len);
        assert_eq!(packer.forbidden_flags(), vec![false, true, false, true]);
        assert_eq!(packer.first_free(), Some(0));
        // With only offset 1 forbidden, Best-Fit takes the snug offset 2.
        packer.begin(4);
        packer.add(window.start_at(1, 4), window.len);
        assert_eq!(packer.choose(FitPolicy::FirstFit), Some(0));
        assert_eq!(packer.choose(FitPolicy::BestFit), Some(2));
    }

    /// The restart-per-size search the kernel replaced: every candidate
    /// offset tested against every placed interfering value.
    fn oracle(
        lifetimes: &[Lifetime],
        ii: u32,
        r0: u32,
        fit: FitPolicy,
        interferes: impl Fn(usize, usize) -> bool,
    ) -> (u32, Vec<u32>) {
        let n = lifetimes.len();
        if lifetimes.iter().all(Lifetime::is_empty) {
            return (0, vec![0; n]);
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (lifetimes[i].start, i));
        let mut r = r0.max(1);
        'grow: loop {
            let mut offsets: Vec<Option<u32>> = vec![None; n];
            for &v in &order {
                if lifetimes[v].is_empty() {
                    offsets[v] = Some(0);
                    continue;
                }
                let free: Vec<bool> = (0..r)
                    .map(|cand| {
                        offsets.iter().enumerate().all(|(u, off_u)| match off_u {
                            Some(off_u) if interferes(u, v) => !offsets_conflict(
                                &lifetimes[v],
                                &lifetimes[u],
                                ii,
                                i64::from(cand),
                                i64::from(*off_u),
                                i64::from(r),
                            ),
                            _ => true,
                        })
                    })
                    .collect();
                let first = (0..r).find(|&c| free[c as usize]);
                let chosen = match fit {
                    FitPolicy::FirstFit => first,
                    FitPolicy::BestFit => (0..r)
                        .find(|&c| free[c as usize] && !free[((c + r - 1) % r) as usize])
                        .or(first),
                };
                match chosen {
                    Some(c) => offsets[v] = Some(c),
                    None => {
                        r += 1;
                        continue 'grow;
                    }
                }
            }
            return (r, offsets.into_iter().map(Option::unwrap).collect());
        }
    }

    /// Deterministic xorshift stream for the generated cases.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u32) -> u32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % u64::from(n)) as u32
        }
    }

    /// A generated case: up to `max_n` lifetimes (some empty) at an II in
    /// `1..=120`, each at most a few IIs long.
    fn generated(g: &mut Gen, max_n: u32) -> (Vec<Lifetime>, u32) {
        let ii = 1 + g.below(120);
        let n = g.below(max_n + 1) as usize;
        let max_len = match g.below(3) {
            0 => ii.min(4),
            1 => ii,
            _ => 2 * ii + 2,
        };
        let lts = (0..n)
            .map(|i| {
                let start = g.below(3 * ii + 1);
                let len = if g.below(8) == 0 {
                    0
                } else {
                    1 + g.below(max_len)
                };
                Lifetime {
                    op: OpId::from_index(i),
                    start,
                    end: start + len,
                }
            })
            .collect();
        (lts, ii)
    }

    #[test]
    fn kernel_matches_the_restart_oracle_from_small_files() {
        let mut g = Gen(0x2545_f491_4f6c_dd1d);
        for case in 0..1000 {
            let (lts, ii) = generated(&mut g, 10);
            let r0 = 1 + g.below(5);
            let sets: Vec<u32> = lts.iter().map(|_| 1 + g.below(7)).collect();
            let share = |a: usize, b: usize| sets[a] & sets[b] != 0;
            for fit in [FitPolicy::FirstFit, FitPolicy::BestFit] {
                assert_eq!(
                    first_fit(&lts, ii, r0, fit, |_, _| true),
                    oracle(&lts, ii, r0, fit, |_, _| true),
                    "case {case}: {fit:?}, II {ii}, r0 {r0}, {lts:?}"
                );
            }
            assert_eq!(
                first_fit(&lts, ii, r0, FitPolicy::FirstFit, share),
                oracle(&lts, ii, r0, FitPolicy::FirstFit, share),
                "case {case}: sets {sets:?}, II {ii}, r0 {r0}, {lts:?}"
            );
        }
    }

    #[test]
    fn unified_allocation_matches_the_oracle_and_verifies() {
        let mut g = Gen(0x9e37_79b9_7f4a_7c15);
        for case in 0..400 {
            let (lts, ii) = generated(&mut g, 20);
            let r0 = crate::max_live(&lts, ii);
            for fit in [FitPolicy::FirstFit, FitPolicy::BestFit] {
                let got = allocate_unified_with(&lts, ii, fit);
                let (regs, offsets) = oracle(&lts, ii, r0, fit, |_, _| true);
                assert_eq!(
                    got,
                    UnifiedAlloc { regs, offsets },
                    "case {case}: {fit:?}, II {ii}, {lts:?}"
                );
                assert!(verify_unified(&lts, ii, &got).is_ok(), "case {case}");
            }
        }
    }

    #[test]
    fn dual_allocation_matches_the_oracle_and_verifies() {
        let mut g = Gen(0x1405_7b7e_f767_814f);
        let classes = [
            ValueClass::Global,
            ValueClass::Only(ClusterId::LEFT),
            ValueClass::Only(ClusterId::RIGHT),
        ];
        for case in 0..400 {
            let (lts, ii) = generated(&mut g, 20);
            let cls: Vec<ValueClass> = lts.iter().map(|_| classes[g.below(3) as usize]).collect();
            let r0 = DualPressure::new(&lts, &cls, ii).requirement_bound();
            let share = |a: usize, b: usize| share_subfile(cls[a], cls[b]);
            let got = allocate_dual(&lts, &cls, ii);
            let want = oracle(&lts, ii, r0, FitPolicy::FirstFit, share);
            assert_eq!(
                (got.regs, got.offsets.clone()),
                want,
                "case {case}: II {ii}, {cls:?}, {lts:?}"
            );
            assert!(verify_dual(&lts, ii, &got).is_ok(), "case {case}");
        }
    }

    #[test]
    fn multi_allocation_matches_the_oracle_and_verifies() {
        let mut g = Gen(0xd1b5_4a32_d192_ed03);
        for case in 0..400 {
            let (lts, ii) = generated(&mut g, 20);
            let clusters = 1 + g.below(4);
            let sets: Vec<ClusterSet> = lts
                .iter()
                .map(|_| {
                    let mut set = ClusterSet::only(ClusterId(g.below(clusters)));
                    set.insert(ClusterId(g.below(clusters)));
                    set
                })
                .collect();
            let r0 = multi_pressure(&lts, &sets, ii, clusters)
                .into_iter()
                .max()
                .unwrap_or(0);
            let got = allocate_multi(&lts, &sets, ii, clusters);
            let want = oracle(&lts, ii, r0, FitPolicy::FirstFit, |a, b| {
                sets[a].intersects(sets[b])
            });
            assert_eq!(
                (got.regs, got.offsets.clone()),
                want,
                "case {case}: II {ii}, {sets:?}, {lts:?}"
            );
            assert!(verify_multi(&lts, ii, &got).is_ok(), "case {case}");
        }
    }
}
