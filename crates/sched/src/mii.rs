//! Lower bounds on the initiation interval.

use crate::context::SchedContext;
use ncdrf_ddg::Loop;
use ncdrf_machine::{Machine, MachineError};

/// The two lower bounds on the initiation interval and their maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiiInfo {
    /// Resource-constrained minimum II.
    pub res: u32,
    /// Recurrence-constrained minimum II.
    pub rec: u32,
    /// `max(res, rec, 1)` — the minimum II any modulo schedule can achieve.
    pub mii: u32,
}

/// Resource-constrained minimum initiation interval: for each
/// functional-unit group that serves an op of the loop,
/// `ceil(ops_served / units)`; the maximum over groups. A group no op
/// uses adds no bound, whatever its unit count.
///
/// # Errors
///
/// Returns [`MachineError::Unserved`] if the machine cannot execute some
/// operation of the loop: no group serves it, or its group has no units.
pub fn res_mii(l: &Loop, machine: &Machine) -> Result<u32, MachineError> {
    Ok(mii(l, machine)?.res)
}

/// Recurrence-constrained minimum initiation interval: the smallest II for
/// which no dependence cycle has positive slack deficit, i.e.
/// `max over cycles C of ceil(latency(C) / distance(C))`.
///
/// Every cycle lies inside one strongly connected component of the
/// dependence graph, so the bound is the maximum over components. A
/// one-op component's cycles are its self-edges, with the bound
/// `max ceil(lat / dist)` in closed form. A larger component runs a
/// binary search on II over its own edges, with a Bellman–Ford
/// positive-cycle check on the edge weights `latency(from) - II *
/// distance`, bounded by the component's latency sum.
///
/// # Errors
///
/// Returns [`MachineError::Unserved`] if the machine cannot execute some
/// operation of the loop.
pub fn rec_mii(l: &Loop, machine: &Machine) -> Result<u32, MachineError> {
    Ok(mii(l, machine)?.rec)
}

/// Both bounds plus their maximum, computed on a fresh
/// [`SchedContext`]: the implementation [`SchedContext::schedule`]
/// starts its II search from.
///
/// # Errors
///
/// Returns [`MachineError::Unserved`] if the machine cannot execute some
/// operation of the loop.
pub fn mii(l: &Loop, machine: &Machine) -> Result<MiiInfo, MachineError> {
    SchedContext::new().mii(l, machine)
}

/// The analysed dependence graph the bounds read: the arrays
/// [`SchedContext`] builds for a loop (see its `analyze`).
pub(crate) struct Graph<'a> {
    /// Each op's functional-unit group.
    pub(crate) group: &'a [u32],
    /// Each group's unit count.
    pub(crate) units: &'a [u32],
    /// Each op's latency.
    pub(crate) lat: &'a [u32],
    /// Every scheduling edge `(from, to, dist)`.
    pub(crate) edges: &'a [(u32, u32, u32)],
    /// CSR by source: op `v`'s edges are
    /// `succ_edge[succ_off[v]..succ_off[v + 1]]`.
    pub(crate) succ_off: &'a [u32],
    pub(crate) succ_edge: &'a [u32],
}

/// Reusable scratch for [`Graph::rec_mii`]: the iterative Tarjan pass
/// and the per-component Bellman–Ford distances.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecScratch {
    /// Tarjan discovery index per op (`UNVISITED` before the visit).
    index: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// The DFS call stack: an op and its next CSR position.
    call: Vec<(u32, u32)>,
    /// Component id per op, set when its component completes.
    comp: Vec<u32>,
    /// The ops of the component being bounded.
    members: Vec<u32>,
    /// Bellman–Ford longest-path estimates, per op.
    dist: Vec<i64>,
}

const UNVISITED: u32 = u32::MAX;

impl Graph<'_> {
    /// ResMII: `ceil(ops / units)` over the groups some op uses
    /// (`analyze` refuses an op whose group has no units, so every
    /// divisor is positive).
    pub(crate) fn res_mii(&self, per_group: &mut Vec<u32>) -> u32 {
        per_group.clear();
        per_group.resize(self.units.len(), 0);
        for &g in self.group {
            per_group[g as usize] += 1;
        }
        per_group
            .iter()
            .zip(self.units)
            .filter(|&(&n, _)| n > 0)
            .map(|(&n, &units)| n.div_ceil(units))
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// RecMII: the maximum of the bounds of the strongly connected
    /// components (see [`rec_mii`]).
    pub(crate) fn rec_mii(&self, s: &mut RecScratch) -> u32 {
        // Without a loop-carried edge a valid loop has no cycle.
        if !self.edges.iter().any(|&(_, _, d)| d > 0) {
            return 1;
        }
        // Where no II is feasible (a zero-distance cycle of positive
        // latency, which a valid loop has none of) the bound is one past
        // the whole loop's latency sum.
        let infeasible = self.lat.iter().sum::<u32>().max(1) + 1;
        let n = self.lat.len();
        s.index.clear();
        s.index.resize(n, UNVISITED);
        s.low.clear();
        s.low.resize(n, 0);
        s.on_stack.clear();
        s.on_stack.resize(n, false);
        s.comp.clear();
        s.comp.resize(n, UNVISITED);
        s.dist.clear();
        s.dist.resize(n, 0);
        s.stack.clear();
        s.call.clear();
        let (mut next_index, mut next_comp, mut rec) = (0u32, 0u32, 1u32);
        for root in 0..n {
            if s.index[root] != UNVISITED {
                continue;
            }
            Self::visit(s, root as u32, &mut next_index, self.succ_off);
            while let Some(&(v, k)) = s.call.last() {
                let v = v as usize;
                if k < self.succ_off[v + 1] {
                    let w = self.edges[self.succ_edge[k as usize] as usize].1;
                    if let Some(top) = s.call.last_mut() {
                        top.1 += 1;
                    }
                    if s.index[w as usize] == UNVISITED {
                        Self::visit(s, w, &mut next_index, self.succ_off);
                    } else if s.on_stack[w as usize] {
                        s.low[v] = s.low[v].min(s.index[w as usize]);
                    }
                    continue;
                }
                s.call.pop();
                if let Some(&(p, _)) = s.call.last() {
                    s.low[p as usize] = s.low[p as usize].min(s.low[v]);
                }
                if s.low[v] != s.index[v] {
                    continue;
                }
                // `v` roots a component: the stack down to `v`.
                s.members.clear();
                loop {
                    let w = s.stack.pop().expect("the root is on the stack");
                    s.on_stack[w as usize] = false;
                    s.comp[w as usize] = next_comp;
                    s.members.push(w);
                    if w as usize == v {
                        break;
                    }
                }
                let bound = self.component_bound(s, next_comp).unwrap_or(infeasible);
                rec = rec.max(bound);
                next_comp += 1;
            }
        }
        rec
    }

    /// Tarjan's visit of `v`: index it and push it on both stacks.
    fn visit(s: &mut RecScratch, v: u32, next_index: &mut u32, succ_off: &[u32]) {
        let i = v as usize;
        s.index[i] = *next_index;
        s.low[i] = *next_index;
        *next_index += 1;
        s.stack.push(v);
        s.on_stack[i] = true;
        s.call.push((v, succ_off[i]));
    }

    /// The smallest feasible II of component `c` (whose ops are
    /// `s.members`), or `None` if no II is.
    fn component_bound(&self, s: &mut RecScratch, c: u32) -> Option<u32> {
        if let [v] = s.members[..] {
            // Closed form over the self-edges.
            let v = v as usize;
            let mut bound = 1u32;
            for k in self.succ_off[v]..self.succ_off[v + 1] {
                let (_, w, d) = self.edges[self.succ_edge[k as usize] as usize];
                if w as usize == v {
                    let lat = self.lat[v];
                    match d {
                        0 if lat > 0 => return None,
                        0 => {}
                        d => bound = bound.max(lat.div_ceil(d)),
                    }
                }
            }
            return Some(bound);
        }
        let hi = s
            .members
            .iter()
            .map(|&v| self.lat[v as usize])
            .sum::<u32>()
            .max(1)
            + 1;
        // Every cycle has distance >= 1 or is infeasible at every II, so
        // at `hi` (past the component's latency sum) every feasible
        // cycle has non-positive weight.
        if !self.feasible(s, c, hi) {
            return None;
        }
        let (mut lo, mut hi) = (1u32, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.feasible(s, c, mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// True if no cycle of component `c` has positive weight at `ii`:
    /// Bellman–Ford longest-path relaxation over the component's own
    /// edges, where a positive cycle still relaxes after as many passes
    /// as the component has ops.
    fn feasible(&self, s: &mut RecScratch, c: u32, ii: u32) -> bool {
        for &v in &s.members {
            s.dist[v as usize] = 0;
        }
        let k = s.members.len();
        for pass in 0..=k {
            let mut changed = false;
            for &v in &s.members {
                let v = v as usize;
                for e in self.succ_off[v]..self.succ_off[v + 1] {
                    let (_, w, d) = self.edges[self.succ_edge[e as usize] as usize];
                    if s.comp[w as usize] != c {
                        continue;
                    }
                    let cand = s.dist[v] + self.lat[v] as i64 - ii as i64 * d as i64;
                    if cand > s.dist[w as usize] {
                        s.dist[w as usize] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                return true;
            }
            if pass == k {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_ddg::{LoopBuilder, ValueRef, Weight};
    use ncdrf_machine::Machine;

    fn simple_chain() -> Loop {
        let mut b = LoopBuilder::new("chain");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let m = b.mul("M", l.now(), l.now());
        let a = b.add("A", m.now(), ValueRef::Const(1.0));
        b.store("S", z, 0, a.now());
        b.finish(Weight::default()).unwrap()
    }

    #[test]
    fn res_mii_counts_group_pressure() {
        let l = simple_chain();
        // P1L3: 1 adder, 1 multiplier, 2 load ports, 1 store port.
        let m = Machine::pxly(1, 3);
        assert_eq!(res_mii(&l, &m), Ok(1));

        // Two multiplies on one multiplier => ResMII 2.
        let mut b = LoopBuilder::new("two_muls");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let ld = b.load("L", x, 0);
        let m1 = b.mul("M1", ld.now(), ld.now());
        let m2 = b.mul("M2", m1.now(), ld.now());
        b.store("S", z, 0, m2.now());
        let l2 = b.finish(Weight::default()).unwrap();
        assert_eq!(res_mii(&l2, &m), Ok(2));
    }

    #[test]
    fn rec_mii_of_acyclic_graph_is_one() {
        let l = simple_chain();
        let m = Machine::pxly(1, 6);
        assert_eq!(rec_mii(&l, &m), Ok(1));
    }

    #[test]
    fn rec_mii_of_self_recurrence_is_latency_over_distance() {
        // s = s + x[i]  with add latency 6 and distance 1 => RecMII = 6.
        let mut b = LoopBuilder::new("sum");
        let x = b.array_in("x");
        let ld = b.load("L", x, 0);
        let s = b.reserve_add("S");
        b.bind(s, [ld.now(), s.prev(1)]);
        let l = b.finish(Weight::default()).unwrap();
        let m = Machine::pxly(1, 6);
        assert_eq!(rec_mii(&l, &m), Ok(6));
        // Distance 3 divides the latency across iterations: ceil(6/3) = 2.
        let mut b = LoopBuilder::new("sum3");
        let x = b.array_in("x");
        let ld = b.load("L", x, 0);
        let s = b.reserve_add("S");
        b.bind(s, [ld.now(), s.prev(3)]);
        let l = b.finish(Weight::default()).unwrap();
        assert_eq!(rec_mii(&l, &m), Ok(2));
    }

    #[test]
    fn rec_mii_of_two_op_cycle() {
        // a = b@-1 + x; b = a * y  => cycle latency 3+3=6 over distance 1.
        let mut b = LoopBuilder::new("cyc2");
        let x = b.array_in("x");
        let ld = b.load("L", x, 0);
        let a = b.reserve_add("A");
        let mu = b.mul("M", a.now(), ld.now());
        b.bind(a, [mu.prev(1), ld.now()]);
        let l = b.finish(Weight::default()).unwrap();
        let m3 = Machine::pxly(1, 3);
        assert_eq!(rec_mii(&l, &m3), Ok(6));
        let m6 = Machine::pxly(1, 6);
        assert_eq!(rec_mii(&l, &m6), Ok(12));
    }

    #[test]
    fn mii_is_max_of_bounds() {
        let mut b = LoopBuilder::new("mix");
        let x = b.array_in("x");
        let ld = b.load("L", x, 0);
        let s = b.reserve_add("S");
        b.bind(s, [ld.now(), s.prev(1)]);
        let l = b.finish(Weight::default()).unwrap();
        let m = Machine::pxly(1, 3);
        let info = mii(&l, &m).unwrap();
        assert_eq!(info.res, 1);
        assert_eq!(info.rec, 3);
        assert_eq!(info.mii, 3);
    }

    /// The `pxly(1, 3)` machine with `muls` multipliers.
    fn with_multipliers(muls: u32) -> Machine {
        use ncdrf_machine::{FuClass, FuGroup};
        let groups = vec![
            FuGroup::unified(FuClass::Adder, 3, 1),
            FuGroup::unified(FuClass::Multiplier, 3, muls),
            FuGroup::unified(FuClass::LoadPort, 1, 2),
            FuGroup::unified(FuClass::StorePort, 1, 1),
        ];
        Machine::new("P1L3-muls", groups, 1).unwrap()
    }

    /// A group with no units bounds nothing when no op uses it, and
    /// leaves an op that needs it unserved, through the bounds and the
    /// scheduler alike, instead of dividing by zero.
    #[test]
    fn a_zero_unit_group_is_unserved_only_when_an_op_uses_it() {
        use crate::{modulo_schedule, schedule_at_ii, ScheduleError};
        use ncdrf_ddg::OpKind;
        let no_muls = with_multipliers(0);
        // L -> A -> S: no multiply.
        let mut b = LoopBuilder::new("add_only");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let ld = b.load("L", x, 0);
        let a = b.add("A", ld.now(), ValueRef::Const(1.0));
        b.store("S", z, 0, a.now());
        let adds = b.finish(Weight::default()).unwrap();
        let want = mii(&adds, &with_multipliers(1)).unwrap();
        assert_eq!(mii(&adds, &no_muls), Ok(want));
        assert_eq!(res_mii(&adds, &no_muls), Ok(want.res));
        let sched = modulo_schedule(&adds, &no_muls).unwrap();
        assert_eq!(sched.ii(), want.mii);

        let muls = simple_chain();
        let unserved = MachineError::Unserved(OpKind::FpMul);
        assert_eq!(res_mii(&muls, &no_muls), Err(unserved.clone()));
        assert_eq!(rec_mii(&muls, &no_muls), Err(unserved.clone()));
        assert_eq!(mii(&muls, &no_muls), Err(unserved.clone()));
        assert_eq!(
            modulo_schedule(&muls, &no_muls),
            Err(ScheduleError::Machine(unserved.clone()))
        );
        assert_eq!(schedule_at_ii(&muls, &no_muls, 4), Err(unserved));
    }

    #[test]
    fn mem_deps_affect_rec_mii() {
        // store a[i]; load a[i-1] next iteration: cycle store->load (dist 1)
        // -> consumer -> store (dist 0): latencies 1 (store) + 1 (load) + 3
        // (add) over distance 1 => RecMII 5.
        let mut b = LoopBuilder::new("memrec");
        let a = b.array_inout("a");
        let ld = b.load("L", a, -1);
        let ad = b.add("A", ld.now(), ld.now());
        let st = b.store("S", a, 0, ad.now());
        b.mem_dep(st, ld, 1);
        let l = b.finish(Weight::default()).unwrap();
        let m = Machine::pxly(1, 3);
        assert_eq!(rec_mii(&l, &m), Ok(5));
    }
}
