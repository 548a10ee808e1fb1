//! Value lifetimes and the MaxLive lower bound.

use ncdrf_ddg::{Consumers, Loop, OpId};
use ncdrf_machine::{Machine, MachineError};
use ncdrf_sched::Schedule;

/// The lifetime of one loop-variant value under a schedule, in absolute
/// cycles of iteration 0.
///
/// Per the paper's definition (§2): starts when the producer issues, ends
/// when the last consumer *finishes* (issue + latency, plus `dist * II`
/// for cross-iteration consumers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// The producing operation.
    pub op: OpId,
    /// Issue cycle of the producer.
    pub start: u32,
    /// Cycle after the last consumer finishes (exclusive).
    pub end: u32,
}

impl Lifetime {
    /// Length in cycles.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the lifetime is empty (never true for validated loops,
    /// whose values always have a consumer).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Number of concurrently-live instances with initiation interval
    /// `ii`: `ceil(len / ii)`.
    pub fn instances(&self, ii: u32) -> u32 {
        self.len().div_ceil(ii)
    }
}

/// Computes the lifetime of every value-producing operation of `l` under
/// `sched` (stores are skipped — they produce no value).
///
/// # Errors
///
/// Returns [`MachineError::Unserved`] if the machine cannot execute some
/// operation.
pub fn lifetimes(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
) -> Result<Vec<Lifetime>, MachineError> {
    let consumers = l.consumers();
    let mut out = Vec::new();
    lifetimes_into(l, machine, sched, &consumers, &mut out)?;
    Ok(out)
}

/// [`lifetimes`] into a caller-owned buffer, with the consumer lists
/// precomputed (see [`Loop::consumers_into`]): the allocation-free
/// variant the spill descent's victim selection runs once per spill
/// step. `out` is cleared first; contents are identical to
/// [`lifetimes`].
///
/// # Errors
///
/// Returns [`MachineError::Unserved`] if the machine cannot execute some
/// operation.
pub fn lifetimes_into(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
    consumers: &Consumers,
    out: &mut Vec<Lifetime>,
) -> Result<(), MachineError> {
    let ii = sched.ii();
    out.clear();
    for (id, op) in l.iter_ops() {
        if !op.kind().produces_value() {
            continue;
        }
        let start = sched.start(id);
        let mut end = start; // empty if no consumer (validation forbids it)
        for &(c, dist) in &consumers[id.index()] {
            let lat = machine.latency(l.op(c).kind())?;
            end = end.max(sched.start(c) + dist * ii + lat);
        }
        out.push(Lifetime { op: id, start, end });
    }
    Ok(())
}

/// MaxLive: the maximum, over the II kernel cycles, of the number of
/// simultaneously-live value instances. A lower bound on the registers any
/// allocation needs.
///
/// Runs in O(n + II) time and O(II) space for `n` lifetimes (see
/// [`max_live_subset`]).
pub fn max_live(lifetimes: &[Lifetime], ii: u32) -> u32 {
    max_live_subset(lifetimes, ii, |_| true)
}

/// MaxLive restricted to the lifetimes selected by `keep` (used for the
/// per-class pressures of the dual organisation and by the swapping pass).
///
/// The instances of a lifetime live at kernel row `t` are the cycles of
/// `[start, end)` congruent to `t` modulo II: `len / II` of them on every
/// row, plus one more on the `len % II` consecutive rows starting at
/// `start % II` (wrapping past the last row). The per-row counts are
/// accumulated in a circular difference array, so the cost is O(n + II)
/// rather than a pass over every lifetime per row.
pub fn max_live_subset<F: Fn(&Lifetime) -> bool>(lifetimes: &[Lifetime], ii: u32, keep: F) -> u32 {
    assert!(ii > 0, "II must be positive");
    let rows = ii as usize;
    let mut every_row = 0u64;
    let mut diff = vec![0i64; rows + 1];
    for lt in lifetimes.iter().filter(|lt| keep(lt) && !lt.is_empty()) {
        let (all, first, extra) = row_span(lt, ii);
        every_row += u64::from(all);
        open_rows(&mut diff, first, extra);
    }
    let mut partial = 0i64;
    let mut peak = 0i64;
    for d in &diff[..rows] {
        partial += d;
        peak = peak.max(partial);
    }
    // `peak` counts windows covering one row, so it is non-negative.
    (every_row + peak as u64) as u32
}

/// The instances of a non-empty lifetime per kernel row, as
/// `(every_row, first, extra)`: `len / II` on every row, plus one on the
/// `extra = len % II` consecutive rows from `first = start % II`.
pub(crate) fn row_span(lt: &Lifetime, ii: u32) -> (u32, usize, usize) {
    let len = lt.len();
    (len / ii, (lt.start % ii) as usize, (len % ii) as usize)
}

/// Adds one instance on the `extra` rows from `first` to `diff`, a
/// circular difference array over `diff.len() - 1` rows (`first` below
/// that, `extra` at most that). The last entry absorbs the closing edge
/// of a run that ends exactly on the last row; a run that wraps stays
/// open to the last row and reopens at row 0.
pub(crate) fn open_rows(diff: &mut [i64], first: usize, extra: usize) {
    if extra == 0 {
        return;
    }
    let (rows, stop) = (diff.len() - 1, first + extra);
    diff[first] += 1;
    if stop <= rows {
        diff[stop] -= 1;
    } else {
        diff[0] += 1;
        diff[stop - rows] -= 1;
    }
}

/// The window-counting definition of MaxLive: for every kernel row, sum
/// each kept lifetime's instances live there. O(II·n); the oracle the
/// row-counting sweeps ([`max_live_subset`], `DualPressure::new`) must
/// agree with.
#[cfg(test)]
pub(crate) fn max_live_by_rows<F: Fn(&Lifetime) -> bool>(
    lifetimes: &[Lifetime],
    ii: u32,
    keep: F,
) -> u32 {
    let ii_i = ii as i64;
    let mut best = 0u32;
    for t in 0..ii_i {
        let mut live = 0i64;
        for lt in lifetimes.iter().filter(|lt| keep(lt)) {
            if lt.is_empty() {
                continue;
            }
            // Instances k with start + k*ii <= t < end + k*ii.
            let hi = crate::div_floor(t - lt.start as i64, ii_i);
            let lo = crate::div_floor(t - lt.end as i64, ii_i);
            live += hi - lo;
        }
        best = best.max(live.max(0) as u32);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_ddg::{LoopBuilder, Weight};
    use ncdrf_machine::Machine;
    use ncdrf_sched::modulo_schedule;

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

    /// `n` lifetimes with starts up to `max_start` and lengths up to
    /// `max_len` (zero included, so some are empty).
    fn generated(g: &mut Gen, n: usize, max_start: u32, max_len: u32) -> Vec<Lifetime> {
        (0..n)
            .map(|i| {
                let start = g.below(max_start + 1);
                Lifetime {
                    op: OpId::from_index(i),
                    start,
                    end: start + g.below(max_len + 1),
                }
            })
            .collect()
    }

    #[test]
    fn max_live_matches_the_row_oracle_on_generated_inputs() {
        let mut g = Gen(0x9e37_79b9_7f4a_7c15);
        for case in 0..400 {
            let ii = 1 + g.below(24);
            let n = g.below(40) as usize;
            // Lifetimes several IIs long, starting well past II.
            let long = generated(&mut g, n, 5 * ii, 4 * ii + 3);
            // Every lifetime shorter than II.
            let short = generated(&mut g, n, 3 * ii, ii - 1);
            for lts in [&long, &short] {
                assert_eq!(
                    max_live(lts, ii),
                    max_live_by_rows(lts, ii, |_| true),
                    "case {case}: II {ii}, {lts:?}"
                );
                let odd = |lt: &Lifetime| lt.op.index() % 2 == 1;
                let late = |lt: &Lifetime| lt.start >= ii;
                assert_eq!(
                    max_live_subset(lts, ii, odd),
                    max_live_by_rows(lts, ii, odd),
                    "case {case}: odd ops, II {ii}"
                );
                assert_eq!(
                    max_live_subset(lts, ii, late),
                    max_live_by_rows(lts, ii, late),
                    "case {case}: starts >= II, II {ii}"
                );
            }
        }
    }

    #[test]
    fn max_live_edge_cases_match_the_row_oracle() {
        let lt = |i: usize, start: u32, end: u32| Lifetime {
            op: OpId::from_index(i),
            start,
            end,
        };
        let cases: [(&[Lifetime], u32); 6] = [
            (&[], 5),
            (&[lt(0, 3, 3), lt(1, 9, 4)], 4),
            (&[lt(0, 0, 7), lt(1, 2, 3)], 1),
            (&[lt(0, 4, 8), lt(1, 5, 10)], 5),
            (&[lt(0, 2, 5), lt(1, 6, 8), lt(2, 1, 2)], 64),
            (&[lt(0, 7, 13), lt(1, 3, 3)], 6),
        ];
        for (lts, ii) in cases {
            assert_eq!(
                max_live(lts, ii),
                max_live_by_rows(lts, ii, |_| true),
                "{lts:?} at II {ii}"
            );
        }
    }

    #[test]
    fn instances_is_ceil_div() {
        let lt = Lifetime {
            op: OpId::from_index(0),
            start: 2,
            end: 15,
        };
        assert_eq!(lt.len(), 13);
        assert_eq!(lt.instances(1), 13);
        assert_eq!(lt.instances(2), 7);
        assert_eq!(lt.instances(13), 1);
        assert_eq!(lt.instances(14), 1);
    }

    #[test]
    fn max_live_single_value() {
        let lts = [Lifetime {
            op: OpId::from_index(0),
            start: 0,
            end: 13,
        }];
        assert_eq!(max_live(&lts, 1), 13);
        assert_eq!(max_live(&lts, 2), 7);
        assert_eq!(max_live(&lts, 13), 1);
    }

    #[test]
    fn max_live_staggered_values() {
        // Two values each of length 2 at II=2, starting at 0 and 1: one
        // live at every cycle from each -> 2 at cycle 1? Enumerate:
        // v1 instances live [0,2)+2k ; v2 live [1,3)+2k.
        // cycle 0: v1 live (k=0), v2 live (k=-1 covers [-1,1) -> cycle 0
        // yes). => 2. cycle 1: v1 no (k=0 covers 0,1 -> 1 yes!) v1 live at
        // 1, v2 live at 1. => 2.
        let lts = [
            Lifetime {
                op: OpId::from_index(0),
                start: 0,
                end: 2,
            },
            Lifetime {
                op: OpId::from_index(1),
                start: 1,
                end: 3,
            },
        ];
        assert_eq!(max_live(&lts, 2), 2);
        assert_eq!(max_live(&lts, 1), 4);
        assert_eq!(max_live(&lts, 3), 2);
    }

    #[test]
    fn lifetime_ends_at_last_consumer_finish() {
        // L (lat 1) -> M (lat 3) chain: lifetime of L = start(M) + 3 -
        // start(L).
        let mut b = LoopBuilder::new("t");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let ld = b.load("L", x, 0);
        let m = b.mul("M", ld.now(), ld.now());
        b.store("S", z, 0, m.now());
        let lp = b.finish(Weight::default()).unwrap();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&lp, &machine).unwrap();
        let lts = lifetimes(&lp, &machine, &sched).unwrap();
        let lt_l = lts.iter().find(|lt| lt.op == ld).unwrap();
        assert_eq!(lt_l.start, sched.start(ld));
        assert_eq!(lt_l.end, sched.start(m) + 3);
        // The store consumes M with latency 1.
        let lt_m = lts.iter().find(|lt| lt.op == m).unwrap();
        let st = lp.find_op("S").unwrap();
        assert_eq!(lt_m.end, sched.start(st) + 1);
    }

    #[test]
    fn cross_iteration_consumer_extends_lifetime() {
        // s = s + x: the add consumes its own value one iteration later,
        // so the lifetime includes II + latency.
        let mut b = LoopBuilder::new("sum");
        let x = b.array_in("x");
        let ld = b.load("L", x, 0);
        let s = b.reserve_add("S");
        b.bind(s, [ld.now(), s.prev(1)]);
        let lp = b.finish(Weight::default()).unwrap();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&lp, &machine).unwrap();
        let lts = lifetimes(&lp, &machine, &sched).unwrap();
        let lt_s = lts.iter().find(|lt| lt.op == s).unwrap();
        assert_eq!(lt_s.len(), sched.ii() + 3);
    }

    #[test]
    fn stores_have_no_lifetime() {
        let mut b = LoopBuilder::new("t");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let ld = b.load("L", x, 0);
        b.store("S", z, 0, ld.now());
        let lp = b.finish(Weight::default()).unwrap();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&lp, &machine).unwrap();
        let lts = lifetimes(&lp, &machine, &sched).unwrap();
        assert_eq!(lts.len(), 1); // only the load's value
    }
}
