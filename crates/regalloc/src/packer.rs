//! The one First-Fit kernel behind the unified, dual and k-cluster
//! allocators.
//!
//! Wands-Only First-Fit (Rau et al., PLDI'92) places the lifetimes in
//! start-time order, each at the lowest rotating offset free of every
//! interfering value placed before it, and restarts with one more
//! register when some value finds no offset. For a pair of lifetimes
//! the conflicting iteration deltas form one window `[lo, hi]`, so a
//! placed `u` forbids exactly the circular interval
//! `[off_u + lo, off_u + hi] (mod r)`.
//!
//! A window depends only on the two lifetimes and II: never on `r`, and
//! never on which values share a file. [`PlacementOrder`] holds what the
//! windows derive from, once per schedule: the non-empty lifetimes in
//! placement order, each with its start and end split by II. The
//! unified, dual and swapped classes allocated on one schedule share it.
//! Each class walks the earlier values of every row once, keeps the
//! pairs its interference predicate admits, and derives their windows
//! with no division. The windows themselves are not kept per schedule:
//! their rows grow with the square of the values, and a deep spill
//! descent holds many schedules at once.
//!
//! The size loop works on a bitset of ⌈r/64⌉ words, one machine word for
//! files of up to 64 registers. Each kept window's `lo` is reduced into
//! `0..r` once per size, so placing a value costs a clear of the words,
//! one or two masks per word each of its windows touches, and a scan for
//! the lowest free bit. The size grows one register at a time and is
//! never bisected: First-Fit success is not known to be monotone in
//! `r`, and the answer is the first size that packs.
//!
//! A size that fails need not be replayed from the first value. A value
//! whose every window run lies inside `0..r` unreduced (no run starts
//! below 0 or ends past `r`; for Best-Fit, none reaches offset `r - 1`)
//! sees the same forbidden offsets at every larger size, plus a free
//! offset `r` it never takes, so it keeps its offset. The next size
//! therefore resumes at the first value of the failed pass that was not
//! so placed. The tests keep the old restart-per-size search over
//! [`offsets_conflict`](crate::offsets_conflict) as an oracle.

use crate::alloc::FitPolicy;
use crate::lifetime::Lifetime;

/// A lifetime's start and end, each split as `(q, rem)` with
/// `(base + q)·II + rem` equal to it and `0 <= rem < II`, for a `base`
/// shared by every lifetime of one order (windows only read quotient
/// differences).
type Split = [(i32, u32); 2];

/// Quotients stay below this, so every window bound fits in `i32`.
const QUOTIENT_LIMIT: u32 = 1 << 30;

fn split(lt: &Lifetime, ii: u32, base: u32) -> Split {
    [lt.start, lt.end].map(|t| {
        let q = t / ii - base;
        assert!(q < QUOTIENT_LIMIT, "the lifetimes span 2^30 IIs or more");
        (q as i32, t % ii)
    })
}

/// The iteration deltas at which two non-empty lifetimes overlap: `v`
/// placed at `off_u + d (mod r)` conflicts with `u` placed at `off_u`
/// exactly for `d` in `lo .. lo + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    lo: i32,
    len: u32,
}

impl Window {
    /// The window of `v` against `u`, or `None` when no delta overlaps.
    ///
    /// Deltas `d` overlap when `v.start < u.end + d·II` and
    /// `u.start + d·II < v.end`, so `lo = floor((v.start − u.end)/II) + 1`
    /// and `hi = ceil((v.end − u.start)/II) − 1`. On split operands each
    /// reduces to a quotient difference and one remainder comparison;
    /// quotients below 2^30 keep both in `i32`.
    fn between(u: Split, v: Split) -> Option<Window> {
        let ([(us_q, us_rem), (ue_q, ue_rem)], [(vs_q, vs_rem), (ve_q, ve_rem)]) = (u, v);
        let lo = vs_q - ue_q - i32::from(vs_rem < ue_rem) + 1;
        let hi = ve_q - us_q + i32::from(ve_rem > us_rem) - 1;
        (lo <= hi).then(|| Window {
            lo,
            len: (hi - lo) as u32 + 1,
        })
    }

    /// `lo` reduced into `0..r`.
    fn reduced(self, r: u32) -> u32 {
        i64::from(self.lo).rem_euclid(i64::from(r)) as u32
    }
}

/// The first offset a window forbids when its earlier value sits at
/// `off_u`, from the window's `lo` reduced into `0..r`.
fn rotate(off_u: u32, lo: u32, r: u32) -> u32 {
    let start = off_u + lo;
    if start >= r {
        start - r
    } else {
        start
    }
}

/// One kept pair: the earlier value's lifetime index and the window of
/// the later value against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pair {
    u: u32,
    window: Window,
}

/// The placement order of one schedule's lifetimes: the non-empty ones
/// by `(start, index)`, each with its lifetime index and its start and
/// end split by II, from which the conflict window of every pair derives
/// with no division. Built once per schedule; each allocation class packs
/// from it with its own interference predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementOrder {
    ii: u32,
    /// How many lifetimes (empty ones included) the order covers.
    values: usize,
    slots: Vec<(u32, Split)>,
}

impl PlacementOrder {
    /// The placement order of `lifetimes` at initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0` or the non-empty lifetimes span 2^30 IIs or
    /// more.
    pub fn new(lifetimes: &[Lifetime], ii: u32) -> PlacementOrder {
        assert!(ii > 0, "II must be positive");
        let index = |i: usize| u32::try_from(i).expect("lifetime index fits in u32");
        let live = || (0..lifetimes.len()).filter(|&i| !lifetimes[i].is_empty());
        let base = live().map(|i| lifetimes[i].start).min().unwrap_or(0) / ii;
        let mut slots: Vec<(u32, Split)> = live()
            .map(|i| (index(i), split(&lifetimes[i], ii, base)))
            .collect();
        slots.sort_unstable_by_key(|&(i, _)| (lifetimes[i as usize].start, i));
        PlacementOrder {
            ii,
            values: lifetimes.len(),
            slots,
        }
    }

    /// The initiation interval the order was built at.
    pub(crate) fn ii(&self) -> u32 {
        self.ii
    }

    /// Whether this order was built from `lifetimes`' count of values;
    /// every allocation from it asserts it.
    pub(crate) fn covers(&self, lifetimes: &[Lifetime]) -> bool {
        self.values == lifetimes.len()
    }

    /// Wands-Only First-Fit (or Best-Fit, per `fit`) over a rotating
    /// file whose size starts at `r0` and grows until the packing
    /// succeeds. `interferes(a, b)` (symmetric, over lifetime indices)
    /// says whether two values share a file; empty lifetimes interfere
    /// with nothing and get offset 0.
    ///
    /// Returns the file size and each lifetime's offset, parallel to the
    /// lifetimes; the size is 0 when every lifetime is empty.
    pub(crate) fn pack(
        &self,
        r0: u32,
        fit: FitPolicy,
        interferes: impl Fn(usize, usize) -> bool,
    ) -> (u32, Vec<u32>) {
        let mut offsets = vec![0; self.values];
        let n = self.slots.len();
        if n == 0 {
            return (0, offsets);
        }
        // The pairs this class keeps, with their windows, row by row: the
        // row of `slots[p]` ends at `ends[p]`.
        let mut kept = Vec::with_capacity(n * (n - 1) / 2);
        let mut ends = Vec::with_capacity(n);
        let mut widest = 0;
        for (p, &(v, v_split)) in self.slots.iter().enumerate() {
            for &(u, u_split) in &self.slots[..p] {
                if !interferes(u as usize, v as usize) {
                    continue;
                }
                if let Some(window) = Window::between(u_split, v_split) {
                    widest = widest.max(window.len);
                    kept.push(Pair { u, window });
                }
            }
            ends.push(kept.len());
        }

        // A window of `len >= r` deltas forbids every offset, so every size
        // up to the widest kept window fails once its owner is reached:
        // skipping those sizes changes no result, and no run below needs
        // that check.
        let mut r = r0.max(widest + 1);
        let widest_lo = kept.iter().map(|p| p.window.lo.unsigned_abs()).max();
        let mut starts = vec![0; kept.len()];
        let mut words = Words::default();
        // The first slot the next size places; the ones before keep their
        // offsets (see the module docs).
        let mut resume = 0;
        loop {
            // Each window's `lo` reduced into `0..r`, once per size: one
            // conditional add while every `|lo|` is below `r`.
            if widest_lo < Some(r) {
                let r = r as i32;
                for (lo, pair) in starts.iter_mut().zip(&kept) {
                    let w = pair.window.lo;
                    *lo = (w + (w >> 31 & r)) as u32;
                }
            } else {
                for (lo, pair) in starts.iter_mut().zip(&kept) {
                    *lo = pair.window.reduced(r);
                }
            }
            let rows = Rows {
                slots: &self.slots,
                kept: &kept,
                ends: &ends,
                starts: &starts,
                fit,
            };
            let placed = if r <= 64 {
                rows.place(&mut Word { word: 0, r }, resume, &mut offsets)
            } else {
                words.begin(r);
                rows.place(&mut words, resume, &mut offsets)
            };
            match placed {
                Ok(()) => return (r, offsets),
                Err(stable) => resume = stable,
            }
            r += 1;
        }
    }
}

/// One file size's view of the kept pairs.
struct Rows<'a> {
    slots: &'a [(u32, Split)],
    kept: &'a [Pair],
    ends: &'a [usize],
    /// Each kept window's `lo`, reduced into `0..r`.
    starts: &'a [u32],
    fit: FitPolicy,
}

impl Rows<'_> {
    /// Places the values in order from slot `resume` in a file of
    /// `forbidden`'s size, the earlier ones keeping their offsets. When
    /// some value finds no offset, returns the first slot of this pass
    /// whose placement may differ at a larger size: the first with a
    /// window run that is not inside `0..r` unreduced, or the failing
    /// slot.
    fn place(
        &self,
        forbidden: &mut impl Forbidden,
        resume: usize,
        offsets: &mut [u32],
    ) -> Result<(), usize> {
        let r = forbidden.size();
        // Best-Fit also reads offset `r - 1`, the predecessor of offset 0.
        let top = i64::from(r) - i64::from(self.fit == FitPolicy::BestFit);
        let mut row_start = resume.checked_sub(1).map_or(0, |p| self.ends[p]);
        let mut stable = None;
        for (p, &(v, _)) in self.slots.iter().enumerate().skip(resume) {
            let row_end = self.ends[p];
            let (kept, starts) = (
                &self.kept[row_start..row_end],
                &self.starts[row_start..row_end],
            );
            row_start = row_end;
            if stable.is_none()
                && kept.iter().any(|pair| {
                    let t = i64::from(offsets[pair.u as usize]) + i64::from(pair.window.lo);
                    t < 0 || t + i64::from(pair.window.len) > top
                })
            {
                stable = Some(p);
            }
            // Earlier values in the order were placed in this pass or keep
            // their offsets.
            forbidden.set_row(
                kept.iter()
                    .zip(starts)
                    .map(|(pair, &lo)| (rotate(offsets[pair.u as usize], lo, r), pair.window.len)),
            );
            match forbidden.choose(self.fit) {
                Some(c) => offsets[v as usize] = c,
                None => return Err(stable.unwrap_or(p)),
            }
        }
        Ok(())
    }
}

/// [`PlacementOrder::pack`] on an order built for this call alone.
pub(crate) fn first_fit(
    lifetimes: &[Lifetime],
    ii: u32,
    r0: u32,
    fit: FitPolicy,
    interferes: impl Fn(usize, usize) -> bool,
) -> (u32, Vec<u32>) {
    PlacementOrder::new(lifetimes, ii).pack(r0, fit, interferes)
}

/// The offsets one value may not take in a file of `r` registers, as a
/// bitset (bit `c` is offset `c`), reused across values.
trait Forbidden {
    /// The file size `r`.
    fn size(&self) -> u32;

    /// Forbids exactly the circular runs `(start, len)` of one value
    /// (`start < r`, `0 < len < r`), clearing earlier ones.
    fn set_row(&mut self, runs: impl Iterator<Item = (u32, u32)>);

    /// The free offsets of word `w`: not forbidden and below `r`.
    fn free(&self, w: usize) -> u64;

    /// The offset `fit` picks among the free ones, if any is free.
    fn choose(&self, fit: FitPolicy) -> Option<u32>;
}

/// The lowest set bit of the first word of `words` with one, as an
/// offset.
fn lowest(words: impl Iterator<Item = u64>) -> Option<u32> {
    words
        .enumerate()
        .find(|&(_, w)| w != 0)
        .map(|(i, w)| i as u32 * 64 + w.trailing_zeros())
}

/// A file of up to 64 registers: one word. Bits at and above `r` may be
/// set; `free` ignores them.
struct Word {
    word: u64,
    r: u32,
}

impl Forbidden for Word {
    fn size(&self) -> u32 {
        self.r
    }

    fn set_row(&mut self, runs: impl Iterator<Item = (u32, u32)>) {
        let r = self.r;
        // Each run rotated within `r` bits, as two shifted masks.
        self.word = runs.fold(0, |word, (start, len)| {
            debug_assert!(start < r && 0 < len && len < r);
            let run = (1u64 << len) - 1;
            word | run << start | run >> (r - start - 1) >> 1
        });
    }

    fn free(&self, _: usize) -> u64 {
        !self.word & (!0 >> (64 - self.r))
    }

    fn choose(&self, fit: FitPolicy) -> Option<u32> {
        let free = self.free(0);
        let pick = match fit {
            FitPolicy::FirstFit => free,
            FitPolicy::BestFit => {
                // Free offsets whose circular predecessor is forbidden: the
                // predecessor of offset 0 is offset `r - 1`.
                let snug = free & (self.word << 1 | self.word >> (self.r - 1) & 1);
                if snug != 0 {
                    snug
                } else {
                    free
                }
            }
        };
        lowest(std::iter::once(pick))
    }
}

/// A file of any size: ⌈r/64⌉ words. Bits at and above `r` stay clear.
#[derive(Debug, Default)]
struct Words {
    words: Vec<u64>,
    r: u32,
}

impl Words {
    /// Starts the searches in a file of `r` registers.
    fn begin(&mut self, r: u32) {
        self.r = r;
        self.words.clear();
        self.words.resize(r.div_ceil(64) as usize, 0);
    }

    /// Forbids the circular run of `len` offsets from `start`
    /// (`start < r`, `0 < len < r`).
    fn add(&mut self, start: u32, len: u32) {
        debug_assert!(start < self.r && 0 < len && len < self.r);
        let end = start + len;
        if end <= self.r {
            self.set(start, end);
        } else {
            // The run wraps: split at the file boundary.
            self.set(start, self.r);
            self.set(0, end - self.r);
        }
    }

    /// Sets the bits of `a..b` (`a < b <= r`): one mask for each of the
    /// first and last words, and whole words between.
    fn set(&mut self, a: u32, b: u32) {
        let (first, last) = ((a / 64) as usize, ((b - 1) / 64) as usize);
        let low = !0u64 << (a % 64);
        let high = !0u64 >> (63 - (b - 1) % 64);
        if first == last {
            self.words[first] |= low & high;
        } else {
            self.words[first] |= low;
            self.words[first + 1..last].fill(!0);
            self.words[last] |= high;
        }
    }
}

impl Forbidden for Words {
    fn size(&self) -> u32 {
        self.r
    }

    fn set_row(&mut self, runs: impl Iterator<Item = (u32, u32)>) {
        self.words.fill(0);
        for (start, len) in runs {
            self.add(start, len);
        }
    }

    fn free(&self, w: usize) -> u64 {
        let tail = self.r % 64;
        let valid = if w + 1 == self.words.len() && tail != 0 {
            (1 << tail) - 1
        } else {
            !0
        };
        !self.words[w] & valid
    }

    fn choose(&self, fit: FitPolicy) -> Option<u32> {
        let free = (0..self.words.len()).map(|w| self.free(w));
        match fit {
            FitPolicy::FirstFit => lowest(free),
            FitPolicy::BestFit => {
                // The free bits of the forbidden set rotated left by one:
                // each word's bit 0 takes the previous word's bit 63, and
                // offset 0 takes offset `r - 1`.
                let last = self.r - 1;
                let mut carry = (self.words[(last / 64) as usize] >> (last % 64)) & 1;
                let snug = self.words.iter().zip(free.clone()).map(|(&word, free)| {
                    let snug = free & (word << 1 | carry);
                    carry = word >> 63;
                    snug
                });
                lowest(snug).or_else(|| lowest(free))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::share_subfile;
    use crate::{
        allocate_dual, allocate_dual_in, allocate_multi, allocate_unified_in,
        allocate_unified_with, multi_pressure, offsets_conflict, verify_dual, verify_multi,
        verify_unified, ClusterSet, DualPressure, UnifiedAlloc, ValueClass,
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
    /// computed the way [`PlacementOrder::pack`] does: window, reduced
    /// `lo`, then the forbidden run, in the one-word set and the
    /// many-word one alike.
    fn forbidden_by(v: &Lifetime, u: &Lifetime, ii: u32, off_u: u32, r: u32) -> Vec<bool> {
        if v.is_empty() || u.is_empty() {
            return vec![false; r as usize];
        }
        let Some(window) = Window::between(split(u, ii, 0), split(v, ii, 0)) else {
            return vec![false; r as usize];
        };
        if window.len >= r {
            return vec![true; r as usize];
        }
        let run = [(rotate(off_u, window.reduced(r), r), window.len)];
        let mut words = Words::default();
        words.begin(r);
        words.set_row(run.into_iter());
        if r <= 64 {
            let mut word = Word { word: 0, r };
            word.set_row(run.into_iter());
            assert_eq!(flags(&word), flags(&words), "{run:?}, r {r}");
        }
        flags(&words)
    }

    /// Conflict flags for all offsets (`true` = forbidden).
    fn flags(forbidden: &impl Forbidden) -> Vec<bool> {
        (0..forbidden.size() as usize)
            .map(|c| forbidden.free(c / 64) >> (c % 64) & 1 == 0)
            .collect()
    }

    /// The division-free window plus its forbidden run must agree with
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
        let (u, v) = (split(&lt(2, 6), 10, 0), split(&lt(0, 5), 10, 0));
        let window = Window::between(u, v).unwrap();
        assert_eq!(window, Window { lo: 0, len: 1 });
        let run = |off_u| (rotate(off_u, window.reduced(4), 4), window.len);
        for forbidden in [
            &mut Word { word: 0, r: 4 } as &mut dyn Forbids,
            &mut words(4),
        ] {
            forbidden.runs(&[run(1), run(3)]);
            assert_eq!(forbidden.flags(), vec![false, true, false, true]);
            assert_eq!(forbidden.pick(FitPolicy::FirstFit), Some(0));
            // With only offset 1 forbidden, Best-Fit takes the snug offset 2.
            forbidden.runs(&[run(1)]);
            assert_eq!(forbidden.pick(FitPolicy::FirstFit), Some(0));
            assert_eq!(forbidden.pick(FitPolicy::BestFit), Some(2));
        }
        // Runs across word boundaries, wrapping past offset r - 1: in a
        // file of 150, offsets 140..150 and 0..70 are forbidden, so the
        // lowest free offset is 70 and it is also snug.
        let mut many = words(150);
        many.set_row([(140, 80)].into_iter());
        let forbidden = flags(&many);
        assert!((0..150).all(|c| forbidden[c] != (70..140).contains(&c)));
        assert_eq!(many.choose(FitPolicy::FirstFit), Some(70));
        assert_eq!(many.choose(FitPolicy::BestFit), Some(70));
        for r in [5, 63, 64, 65, 128, 130] {
            let mut sets: Vec<Box<dyn Forbids>> = vec![Box::new(words(r))];
            if r <= 64 {
                sets.push(Box::new(Word { word: 0, r }));
            }
            for forbidden in &mut sets {
                // Offset 0 is snug when offset r - 1 is forbidden, in
                // any word.
                forbidden.runs(&[(r - 1, 1), (3, 1)]);
                assert_eq!(forbidden.pick(FitPolicy::BestFit), Some(0), "r {r}");
                forbidden.runs(&[(r - 1, 1), (3, 1), (0, 1)]);
                assert_eq!(forbidden.pick(FitPolicy::BestFit), Some(1), "r {r}");
                // A full file has no free offset.
                forbidden.runs(&[(1, r - 1), (0, 1)]);
                assert_eq!(forbidden.pick(FitPolicy::FirstFit), None, "r {r}");
                assert_eq!(forbidden.pick(FitPolicy::BestFit), None, "r {r}");
            }
        }
    }

    /// [`Forbidden`] as a trait object, for running one check on both
    /// sets.
    trait Forbids {
        fn runs(&mut self, runs: &[(u32, u32)]);
        fn flags(&self) -> Vec<bool>;
        fn pick(&self, fit: FitPolicy) -> Option<u32>;
    }

    impl<F: Forbidden> Forbids for F {
        fn runs(&mut self, runs: &[(u32, u32)]) {
            self.set_row(runs.iter().copied());
        }
        fn flags(&self) -> Vec<bool> {
            flags(self)
        }
        fn pick(&self, fit: FitPolicy) -> Option<u32> {
            self.choose(fit)
        }
    }

    /// An empty many-word set for a file of `r` registers.
    fn words(r: u32) -> Words {
        let mut words = Words::default();
        words.begin(r);
        words
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

    /// A generated case that needs tens to a few hundred registers: up to
    /// 40 lifetimes, several IIs long, at an II in `1..=4`.
    fn generated_wide(g: &mut Gen) -> (Vec<Lifetime>, u32) {
        let ii = 1 + g.below(4);
        let n = 8 + g.below(33) as usize;
        let max_len = 2 + g.below(7 * ii);
        let lts = (0..n)
            .map(|i| {
                let start = g.below(4 * ii + 1);
                let len = if g.below(10) == 0 {
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

    /// Past one and two words of the bitset: every `FitPolicy` and all
    /// three interference filters (all pairs, `share_subfile`,
    /// `intersects`) give the restart oracle's answer, and the answers
    /// land on both sides of 64 and of 128 registers.
    #[test]
    fn kernel_matches_the_restart_oracle_past_64_registers() {
        let mut g = Gen(0x5851_f42d_4c95_7f2d);
        let classes = [
            ValueClass::Global,
            ValueClass::Only(ClusterId::LEFT),
            ValueClass::Only(ClusterId::RIGHT),
        ];
        let mut sizes = Vec::new();
        for case in 0..48 {
            let (lts, ii) = generated_wide(&mut g);
            let cls: Vec<ValueClass> = lts.iter().map(|_| classes[g.below(3) as usize]).collect();
            let sets: Vec<ClusterSet> = lts
                .iter()
                .map(|_| {
                    let mut set = ClusterSet::only(ClusterId(g.below(3)));
                    set.insert(ClusterId(g.below(3)));
                    set
                })
                .collect();
            // Start a few registers below MaxLive, as the allocators'
            // lower bounds do.
            let r0 = crate::max_live(&lts, ii).saturating_sub(g.below(6));
            let share = |a: usize, b: usize| share_subfile(cls[a], cls[b]);
            let meet = |a: usize, b: usize| sets[a].intersects(sets[b]);
            for fit in [FitPolicy::FirstFit, FitPolicy::BestFit] {
                let at = format!("case {case}: {fit:?}, II {ii}, r0 {r0}, {lts:?}");
                let all = first_fit(&lts, ii, r0, fit, |_, _| true);
                assert_eq!(all, oracle(&lts, ii, r0, fit, |_, _| true), "{at}");
                assert_eq!(
                    first_fit(&lts, ii, r0, fit, share),
                    oracle(&lts, ii, r0, fit, share),
                    "{at}, classes {cls:?}"
                );
                assert_eq!(
                    first_fit(&lts, ii, r0, fit, meet),
                    oracle(&lts, ii, r0, fit, meet),
                    "{at}, sets {sets:?}"
                );
                sizes.push(all.0);
            }
        }
        for (lo, hi) in [(1, 64), (65, 128), (129, u32::MAX)] {
            assert!(
                sizes.iter().any(|r| (lo..=hi).contains(r)),
                "no answer in {lo}..={hi}: {sizes:?}"
            );
        }
    }

    /// A placement order built once serves the unified and the dual
    /// filter alike: each packing equals an independent `first_fit`
    /// call, and the public allocators on a shared order equal their
    /// one-shot forms.
    #[test]
    fn one_placement_order_packs_the_unified_and_dual_classes() {
        let mut g = Gen(0x2127_599b_f432_5c37);
        let classes = [
            ValueClass::Global,
            ValueClass::Only(ClusterId::LEFT),
            ValueClass::Only(ClusterId::RIGHT),
        ];
        for case in 0..300 {
            let (lts, ii) = if case % 4 == 0 {
                generated_wide(&mut g)
            } else {
                generated(&mut g, 24)
            };
            let cls: Vec<ValueClass> = lts.iter().map(|_| classes[g.below(3) as usize]).collect();
            let share = |a: usize, b: usize| share_subfile(cls[a], cls[b]);
            let order = PlacementOrder::new(&lts, ii);
            let r0 = crate::max_live(&lts, ii);
            let bound = DualPressure::new(&lts, &cls, ii).requirement_bound();
            let at = format!("case {case}: II {ii}, {cls:?}, {lts:?}");
            for fit in [FitPolicy::FirstFit, FitPolicy::BestFit] {
                assert_eq!(
                    order.pack(r0, fit, |_, _| true),
                    first_fit(&lts, ii, r0, fit, |_, _| true),
                    "{at}"
                );
                assert_eq!(
                    order.pack(bound, fit, share),
                    first_fit(&lts, ii, bound, fit, share),
                    "{at}"
                );
                assert_eq!(
                    allocate_unified_in(&order, &lts, fit),
                    allocate_unified_with(&lts, ii, fit),
                    "{at}"
                );
            }
            assert_eq!(
                allocate_dual_in(&order, &lts, &cls),
                allocate_dual(&lts, &cls, ii),
                "{at}"
            );
        }
    }

    /// Windows read quotient differences only, so lifetimes billions of
    /// cycles from cycle 0 pack as they do near it.
    #[test]
    fn far_from_cycle_zero_packs_like_near_it() {
        let mut g = Gen(0x6a09_e667_f3bc_c908);
        for case in 0..200 {
            let (lts, ii) = generated(&mut g, 20);
            let shift = 3_000_000_000 / ii * ii;
            let far: Vec<Lifetime> = lts
                .iter()
                .map(|lt| Lifetime {
                    start: lt.start + shift,
                    end: lt.end + shift,
                    ..*lt
                })
                .collect();
            for fit in [FitPolicy::FirstFit, FitPolicy::BestFit] {
                assert_eq!(
                    allocate_unified_with(&far, ii, fit),
                    allocate_unified_with(&lts, ii, fit),
                    "case {case}: {fit:?}, II {ii}, {lts:?}"
                );
            }
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
