//! [`SchedContext`]: the arena-backed iterative modulo scheduler.
//!
//! This is the crate's only IMS attempt loop. [`modulo_schedule`],
//! [`modulo_schedule_with`] and [`schedule_at_ii`] run it on a fresh
//! context; callers that schedule many loops in a row keep contexts and
//! reuse their arenas. The spill descent tree (`ncdrf-spill`'s
//! `DescentTree`) is that reuser: it owns a small pool of contexts that
//! the fresh schedule of every spill state and every escalation serve
//! borrow and return, so a descent sizes its arenas once, not once per
//! state. A caller that schedules one loop at many
//! IIs (the spill escalation's rung ladder) analyses it once into a
//! [`PreparedLoop`] ([`PreparedLoop::in_context`] on a borrowed
//! context) and attempts each II on that.
//!
//! All scheduling state — the modulo reservation table, CSR
//! predecessor/successor lists, heights, start/instance arrays, the
//! priority heap and the scratch of the II lower bounds, which
//! [`SchedContext::schedule`] reads off the same CSR — lives in flat,
//! `u32`-indexed buffers owned by the context. Every call rebuilds that
//! state from the loop it is given, so a reused context computes exactly
//! what a fresh one does and, once its buffers are sized, allocates
//! nothing per II attempt.
//!
//! # Flat attempts
//!
//! A successful attempt at II is *flat* when it evicted nothing, every
//! op ends by II (`start + latency <= II`), and its heights equal the
//! zero-distance heights `h0` (the heights with every loop-carried edge
//! left out, which do not depend on II; under [`Priority::InputOrder`]
//! no priority depends on II). A flat attempt makes exactly the same
//! picks, slots and units at every II' >= II, so its schedule differs
//! from theirs only in II:
//!
//! - heights only fall as II grows (each carried edge's term `lat -
//!   II * dist` falls) and never below `h0`, so they stay `h0` and the
//!   pick order is the same;
//! - with no eviction, no op has a previous time and each op's window
//!   starts at its earliest start, whose carried terms `start + lat -
//!   II * dist` are at most 0 (every op ends by II) and only fall, so the
//!   earliest start is the same;
//! - every slot the attempt tried lies below II, where a reservation
//!   table row is the time itself at every II' >= II, so the first free
//!   slot is the same, and no placement violates a successor at II'
//!   that it did not violate at II;
//! - every start lies below II, so `commit` shifts by 0 at both.
//!
//! [`modulo_schedule`]: crate::modulo_schedule
//! [`modulo_schedule_with`]: crate::modulo_schedule_with
//! [`schedule_at_ii`]: crate::schedule_at_ii

use crate::ims::{ScheduleError, SchedulerOptions};
use crate::mii::{Graph, MiiInfo, RecScratch};
use crate::schedule::Schedule;
use crate::Priority;
use ncdrf_ddg::{Loop, OpId, OpKind};
use ncdrf_machine::{Machine, MachineError, UnitRef};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "unscheduled" / "never placed" in the flat arrays.
const UNSCHED: u32 = u32::MAX;

/// The sanctioned narrow into the context's `u32` SoA index space
/// (ops, groups, edges): asserts the index fits instead of silently
/// wrapping on a loop the arenas were never sized for.
#[inline]
fn idx32(i: usize) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "SoA index {i} overflows u32");
    i as u32
}

/// The sanctioned narrow for non-negative schedule times computed in
/// `i64` (earliest-start arithmetic): asserts the cycle fits in the
/// `u32` start arrays.
#[inline]
fn time32(t: i64) -> u32 {
    debug_assert!(
        (0..=i64::from(u32::MAX)).contains(&t),
        "schedule time {t} outside u32"
    );
    t as u32
}

/// Reusable arena for iterative modulo scheduling (Rau's IMS). See the
/// module docs.
#[derive(Debug, Clone, Default)]
pub struct SchedContext {
    // Per-loop analysis (rebuilt by every call).
    edge_scratch: Vec<(OpId, OpId, u32)>,
    edges: Vec<(u32, u32, u32)>,
    group: Vec<u32>,
    lat: Vec<u32>,
    num_groups: usize,
    pred_off: Vec<u32>,
    pred_edge: Vec<u32>,
    succ_off: Vec<u32>,
    succ_edge: Vec<u32>,
    cursor: Vec<u32>,
    /// The ops, every op after its zero-distance successors: the sweep
    /// order of the height fixpoint.
    order: Vec<u32>,
    /// Heights over the zero-distance edges alone: the floor every
    /// II's heights reach as II grows.
    h0: Vec<i64>,
    // II lower-bound scratch.
    per_group: Vec<u32>,
    rec: RecScratch,
    // Per-attempt scratch.
    height: Vec<i64>,
    /// Whether the last attempt evicted an op.
    evicted: bool,
    start: Vec<u32>,
    instance: Vec<u32>,
    prev_time: Vec<u32>,
    heap: BinaryHeap<(i64, Reverse<u32>)>,
    mrt_off: Vec<u32>,
    mrt_cnt: Vec<u32>,
    mrt: Vec<u32>,
}

impl SchedContext {
    /// Creates an empty context. The first call sizes the arenas; later
    /// calls on similarly-shaped loops allocate nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `l` on `machine`, searching IIs upward from the MII.
    ///
    /// An explicit [`SchedulerOptions::max_ii`] is a *hard* ceiling: a
    /// loop whose MII already exceeds it fails with
    /// [`ScheduleError::NoSchedule`] instead of scheduling above the cap.
    ///
    /// # Errors
    ///
    /// See [`ScheduleError`].
    pub fn schedule(
        &mut self,
        l: &Loop,
        machine: &Machine,
        opts: SchedulerOptions,
    ) -> Result<Schedule, ScheduleError> {
        let info = self.mii(l, machine)?;
        let seq_len: u32 = self.lat.iter().sum::<u32>() + idx32(l.ops().len()) + 1;
        let max_ii = match opts.max_ii {
            Some(cap) => cap,
            None => seq_len.max(info.mii),
        };
        for ii in info.mii..=max_ii {
            if self.attempt(ii, opts) {
                return Ok(self.commit(l, machine, ii));
            }
        }
        Err(ScheduleError::NoSchedule {
            tried_up_to: max_ii,
        })
    }

    /// Attempts to schedule `l` at exactly `ii` (one IMS pass under
    /// `opts`' priority and budget; `opts.max_ii` is not consulted).
    /// Returns `Ok(None)` when the budget is exhausted without a valid
    /// schedule.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Unserved`] if the machine cannot execute
    /// some operation.
    ///
    /// # Panics
    ///
    /// If `ii` is zero.
    pub fn schedule_at_ii(
        &mut self,
        l: &Loop,
        machine: &Machine,
        ii: u32,
        opts: SchedulerOptions,
    ) -> Result<Option<Schedule>, MachineError> {
        assert!(ii > 0, "II must be positive");
        self.analyze(l, machine)?;
        Ok(self.attempt(ii, opts).then(|| self.commit(l, machine, ii)))
    }

    /// Analyses `l` into the arenas and returns its II lower bounds,
    /// read off the analysed graph (see [`crate::mii`]).
    pub(crate) fn mii(&mut self, l: &Loop, machine: &Machine) -> Result<MiiInfo, MachineError> {
        self.analyze(l, machine)?;
        let g = Graph {
            group: &self.group,
            units: &self.mrt_cnt,
            lat: &self.lat,
            edges: &self.edges,
            succ_off: &self.succ_off,
            succ_edge: &self.succ_edge,
        };
        let res = g.res_mii(&mut self.per_group);
        let rec = g.rec_mii(&mut self.rec);
        Ok(MiiInfo {
            res,
            rec,
            mii: res.max(rec).max(1),
        })
    }

    /// Builds per-op groups/latencies, the flat edge list, the CSR
    /// predecessor/successor indices, the sweep order and the
    /// zero-distance heights of `l` into the arenas. None of it depends
    /// on II.
    fn analyze(&mut self, l: &Loop, machine: &Machine) -> Result<(), MachineError> {
        let n = l.ops().len();
        // Each kind's group and latency, resolved once: `None` when no
        // group serves the kind, or only an empty one does.
        let served = OpKind::all().map(|kind| {
            let g = machine.group_for(kind).ok()?;
            let group = &machine.groups()[g];
            (group.count() > 0).then_some((idx32(g), group.latency))
        });
        self.group.clear();
        self.lat.clear();
        for op in l.ops() {
            let (g, lt) = served[op.kind().index()].ok_or(MachineError::Unserved(op.kind()))?;
            self.group.push(g);
            self.lat.push(lt);
        }
        self.num_groups = machine.groups().len();
        self.mrt_cnt.clear();
        for g in machine.groups() {
            self.mrt_cnt.push(idx32(g.count()));
        }

        l.sched_edges_into(&mut self.edge_scratch);
        self.edges.clear();
        for &(f, t, d) in &self.edge_scratch {
            self.edges.push((idx32(f.index()), idx32(t.index()), d));
        }
        let ne = self.edges.len();

        // CSR by destination (preds) and by source (succs); the cursor
        // fill preserves edge order within each bucket.
        self.pred_off.clear();
        self.pred_off.resize(n + 1, 0);
        for &(_, t, _) in &self.edges {
            self.pred_off[t as usize + 1] += 1;
        }
        for i in 0..n {
            self.pred_off[i + 1] += self.pred_off[i];
        }
        self.pred_edge.clear();
        self.pred_edge.resize(ne, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.pred_off[..n]);
        for e in 0..ne {
            let t = self.edges[e].1 as usize;
            self.pred_edge[self.cursor[t] as usize] = idx32(e);
            self.cursor[t] += 1;
        }

        self.succ_off.clear();
        self.succ_off.resize(n + 1, 0);
        for &(f, _, _) in &self.edges {
            self.succ_off[f as usize + 1] += 1;
        }
        for i in 0..n {
            self.succ_off[i + 1] += self.succ_off[i];
        }
        self.succ_edge.clear();
        self.succ_edge.resize(ne, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.succ_off[..n]);
        for e in 0..ne {
            let f = self.edges[e].0 as usize;
            self.succ_edge[self.cursor[f] as usize] = idx32(e);
            self.cursor[f] += 1;
        }
        self.sink_first_order(n);
        self.zero_distance_heights(n);
        Ok(())
    }

    /// Fills `h0` with the heights over the zero-distance edges alone
    /// (self-edges ignored), in one sweep of the sink-first `order`.
    fn zero_distance_heights(&mut self, n: usize) {
        self.h0.clear();
        self.h0.resize(n, 0);
        for &v in &self.order {
            let v = v as usize;
            for k in self.succ_off[v]..self.succ_off[v + 1] {
                let (_, w, dist) = self.edges[self.succ_edge[k as usize] as usize];
                if dist == 0 && w as usize != v {
                    self.h0[v] = self.h0[v].max(self.lat[v] as i64 + self.h0[w as usize]);
                }
            }
        }
    }

    /// Fills `order` with the ops in reverse topological order of the
    /// zero-distance edges (Kahn's algorithm from the sinks, self-edges
    /// ignored), so one height sweep carries every intra-iteration
    /// chain. Ops on a zero-distance cycle, which a valid loop has none
    /// of, follow in index order. The order does not depend on II.
    fn sink_first_order(&mut self, n: usize) {
        // `cursor[v]`: v's zero-distance successors not yet ordered.
        self.cursor.clear();
        self.cursor.resize(n, 0);
        for &(f, t, d) in &self.edges {
            if d == 0 && f != t {
                self.cursor[f as usize] += 1;
            }
        }
        self.order.clear();
        self.order
            .extend((0..n).filter(|&v| self.cursor[v] == 0).map(idx32));
        let mut next = 0;
        while next < self.order.len() {
            let w = self.order[next] as usize;
            next += 1;
            for k in self.pred_off[w]..self.pred_off[w + 1] {
                let (v, _, d) = self.edges[self.pred_edge[k as usize] as usize];
                if d == 0 && v as usize != w {
                    self.cursor[v as usize] -= 1;
                    if self.cursor[v as usize] == 0 {
                        self.order.push(v);
                    }
                }
            }
        }
        if self.order.len() < n {
            self.order
                .extend((0..n).filter(|&v| self.cursor[v] > 0).map(idx32));
        }
    }

    /// One IMS attempt at `ii` over the analyzed loop, using the arena
    /// scratch. Returns success; on success `start`/`instance` hold the
    /// raw (unnormalized) placements.
    ///
    /// The highest-priority unscheduled op is picked from a lazy max-heap
    /// over the total order `(height, Reverse(index))`: heights are fixed
    /// per attempt, so duplicate entries are indistinguishable and stale
    /// entries (ops scheduled since they were pushed) are skipped on pop.
    /// The budget is charged once per valid pick.
    fn attempt(&mut self, ii: u32, opts: SchedulerOptions) -> bool {
        // Quick infeasibility check: a self-dependence tighter than II.
        if self
            .edges
            .iter()
            .any(|&(f, t, d)| f == t && self.lat[f as usize] as i64 > ii as i64 * d as i64)
        {
            return false;
        }
        let n = self.group.len();
        let mut budget: u64 = (opts.budget_ratio as u64).saturating_mul(n as u64).max(64);
        self.evicted = false;
        self.compute_heights(n, ii, opts.priority);
        self.start.clear();
        self.start.resize(n, UNSCHED);
        self.instance.clear();
        self.instance.resize(n, 0);
        self.prev_time.clear();
        self.prev_time.resize(n, UNSCHED);

        self.mrt_off.clear();
        let mut total = 0u32;
        for g in 0..self.num_groups {
            self.mrt_off.push(total);
            total += ii * self.mrt_cnt[g];
        }
        self.mrt.clear();
        self.mrt.resize(total as usize, UNSCHED);

        self.heap.clear();
        for v in 0..n {
            self.heap.push((self.height[v], Reverse(idx32(v))));
        }

        while let Some((_, Reverse(vid))) = self.heap.pop() {
            let op = vid as usize;
            if self.start[op] != UNSCHED {
                continue; // stale entry: op was rescheduled since
            }
            if budget == 0 {
                return false;
            }
            budget -= 1;

            let mut estart: i64 = 0;
            for k in self.pred_off[op]..self.pred_off[op + 1] {
                let (p, _, dist) = self.edges[self.pred_edge[k as usize] as usize];
                let p = p as usize;
                if self.start[p] != UNSCHED {
                    estart = estart
                        .max(self.start[p] as i64 + self.lat[p] as i64 - ii as i64 * dist as i64);
                }
            }
            let estart = time32(estart.max(0));
            let min_t = if self.prev_time[op] != UNSCHED {
                estart.max(self.prev_time[op] + 1)
            } else {
                estart
            };

            let g = self.group[op] as usize;
            let cnt = self.mrt_cnt[g];
            let base = self.mrt_off[g];
            // First resource-free slot in the II-wide window.
            let mut placed = None;
            'window: for t in min_t..min_t + ii {
                let row = base + (t % ii) * cnt;
                for inst in 0..cnt {
                    if self.mrt[(row + inst) as usize] == UNSCHED {
                        placed = Some((t, inst));
                        break 'window;
                    }
                }
            }
            let (t, inst) = match placed {
                Some(p) => p,
                None => {
                    // Forced placement at min_t: evict the lowest-
                    // priority occupant (the first minimum in ascending
                    // instance order).
                    let row = base + (min_t % ii) * cnt;
                    let mut evict_inst = 0u32;
                    let mut evict_op = self.mrt[row as usize];
                    for inst in 1..cnt {
                        let occ = self.mrt[(row + inst) as usize];
                        if self.height[occ as usize] < self.height[evict_op as usize] {
                            evict_op = occ;
                            evict_inst = inst;
                        }
                    }
                    debug_assert_ne!(evict_op, UNSCHED, "full row has occupants");
                    let eop = evict_op as usize;
                    self.mrt[(row + evict_inst) as usize] = UNSCHED;
                    self.start[eop] = UNSCHED;
                    self.heap.push((self.height[eop], Reverse(evict_op)));
                    self.evicted = true;
                    (min_t, evict_inst)
                }
            };

            self.start[op] = t;
            self.instance[op] = inst;
            self.prev_time[op] = t;
            self.mrt[(base + (t % ii) * cnt + inst) as usize] = vid;

            // Evict scheduled successors whose dependence is now
            // violated (self-edges were pre-checked).
            for k in self.succ_off[op]..self.succ_off[op + 1] {
                let (_, sid, dist) = self.edges[self.succ_edge[k as usize] as usize];
                let s = sid as usize;
                if s == op {
                    continue;
                }
                let ts = self.start[s];
                if ts != UNSCHED
                    && (ts as i64) < t as i64 + self.lat[op] as i64 - ii as i64 * dist as i64
                {
                    let sg = self.group[s] as usize;
                    let cell = self.mrt_off[sg] + (ts % ii) * self.mrt_cnt[sg] + self.instance[s];
                    debug_assert_eq!(self.mrt[cell as usize], sid);
                    self.mrt[cell as usize] = UNSCHED;
                    self.start[s] = UNSCHED;
                    self.heap.push((self.height[s], Reverse(sid)));
                    self.evicted = true;
                }
            }
        }
        true
    }

    /// Whether the successful attempt at `ii` is flat (see the module
    /// docs): nothing evicted, every op ends by `ii`, and no priority
    /// depends on II.
    fn flat(&self, ii: u32, priority: Priority) -> bool {
        let n = self.group.len();
        !self.evicted
            && (0..n).all(|v| self.start[v] + self.lat[v] <= ii)
            && (priority == Priority::InputOrder || self.height == self.h0)
    }

    /// Normalizes the successful attempt into a [`Schedule`]: the
    /// earliest op starts at cycle 0 and kernel slots are preserved
    /// (a shift by a multiple of II).
    fn commit(&self, l: &Loop, machine: &Machine, ii: u32) -> Schedule {
        let n = l.ops().len();
        let t0 = self.start[..n].iter().copied().min().unwrap_or(0);
        let shift = (t0 / ii) * ii;
        let starts: Vec<u32> = self.start[..n].iter().map(|&s| s - shift).collect();
        let units: Vec<UnitRef> = (0..n)
            .map(|v| UnitRef {
                group: self.group[v] as usize,
                instance: self.instance[v] as usize,
            })
            .collect();
        Schedule::from_parts(l, machine, ii, starts, units)
    }

    /// Priorities into the arena. [`Priority::Height`]: `height[v] = max
    /// over edges v->w of lat(v) - II*dist + height[w]`, clamped at 0 and
    /// relaxed to a fixpoint, bounded by `n + 1` passes. Each pass sweeps
    /// `order`, successors first, so an acyclic loop settles in one pass
    /// and only loop-carried edges need more. At II >= RecMII there is no
    /// positive cycle, and every sweep order reaches the same least
    /// fixpoint within the cap; below RecMII heights diverge, but no
    /// valid schedule exists and the attempt fails under any order.
    /// [`Priority::InputOrder`]: earlier ops first.
    fn compute_heights(&mut self, n: usize, ii: u32, priority: Priority) {
        self.height.clear();
        match priority {
            Priority::InputOrder => {
                for v in 0..n {
                    self.height.push((n - v) as i64);
                }
            }
            Priority::Height => {
                self.height.resize(n, 0);
                for _ in 0..=n {
                    let mut changed = false;
                    for &v in &self.order {
                        let v = v as usize;
                        for k in self.succ_off[v]..self.succ_off[v + 1] {
                            let (_, w, dist) = self.edges[self.succ_edge[k as usize] as usize];
                            let cand = self.lat[v] as i64 - ii as i64 * dist as i64
                                + self.height[w as usize];
                            if cand > self.height[v] {
                                self.height[v] = cand;
                                changed = true;
                            }
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }
        }
    }
}

/// One loop analysed once, for IMS attempts at any number of IIs: the
/// per-loop half of [`SchedContext::schedule_at_ii`], which re-analyses
/// its loop on every call.
#[derive(Debug)]
pub struct PreparedLoop<'a> {
    ctx: SchedContext,
    l: &'a Loop,
    machine: &'a Machine,
}

/// A schedule at one exact II, and whether its attempt was flat: a flat
/// schedule is, up to its II, the schedule of every higher II (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rung {
    /// The schedule.
    pub sched: Schedule,
    /// Whether the attempt was flat.
    pub flat: bool,
}

impl<'a> PreparedLoop<'a> {
    /// Analyses `l` on `machine` into a fresh context.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Unserved`] if the machine cannot execute
    /// some operation.
    pub fn new(l: &'a Loop, machine: &'a Machine) -> Result<PreparedLoop<'a>, MachineError> {
        PreparedLoop::in_context(SchedContext::new(), l, machine)
    }

    /// Analyses `l` on `machine` into `ctx`, reusing its arenas; a reused
    /// context prepares exactly what a fresh one does.
    /// [`PreparedLoop::into_context`] hands it back for the next loop.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Unserved`] if the machine cannot execute
    /// some operation.
    pub fn in_context(
        mut ctx: SchedContext,
        l: &'a Loop,
        machine: &'a Machine,
    ) -> Result<PreparedLoop<'a>, MachineError> {
        ctx.analyze(l, machine)?;
        Ok(PreparedLoop { ctx, l, machine })
    }

    /// The context, with its arenas, for the next loop.
    pub fn into_context(self) -> SchedContext {
        self.ctx
    }

    /// One IMS attempt at exactly `ii`: the schedule
    /// [`SchedContext::schedule_at_ii`] returns, with its flat flag.
    ///
    /// # Panics
    ///
    /// If `ii` is zero.
    pub fn schedule_at_ii(&mut self, ii: u32, opts: SchedulerOptions) -> Option<Rung> {
        assert!(ii > 0, "II must be positive");
        let ctx = &mut self.ctx;
        ctx.attempt(ii, opts).then(|| Rung {
            sched: ctx.commit(self.l, self.machine, ii),
            flat: ctx.flat(ii, opts.priority),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mii::mii;
    use ncdrf_ddg::{LoopBuilder, ValueRef, Weight};

    fn chain(n_mults: usize) -> Loop {
        let mut b = LoopBuilder::new("chain");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let mut prev = l.now();
        for i in 0..n_mults {
            let m = b.mul(format!("M{i}"), prev, ValueRef::Const(1.5));
            prev = m.now();
        }
        b.store("S", z, 0, prev);
        b.finish(Weight::default()).unwrap()
    }

    /// Four independent load-multiply chains feeding an add tree, plus an
    /// ALU self-recurrence: wider than [`chain`], with a recurrence, so
    /// reuse across the two shapes resizes every arena.
    fn wide() -> Loop {
        let mut b = LoopBuilder::new("wide");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let mut outs = Vec::new();
        for i in 0..4 {
            let l = b.load(format!("L{i}"), x, i);
            outs.push(b.mul(format!("M{i}"), l.now(), ValueRef::Const(2.0)));
        }
        let a1 = b.add("A1", outs[0].now(), outs[1].now());
        let a2 = b.add("A2", outs[2].now(), outs[3].now());
        let a3 = b.add("A3", a1.now(), a2.now());
        b.store("S", z, 0, a3.now());
        let acc = b.reserve_add("ACC");
        b.bind(acc, [ValueRef::Const(1.0), acc.prev(1)]);
        b.finish(Weight::default()).unwrap()
    }

    fn machines() -> Vec<Machine> {
        vec![
            Machine::clustered(3, 1),
            Machine::clustered(6, 1),
            Machine::clustered(3, 2),
            Machine::pxly(1, 3),
            Machine::pxly(2, 6),
        ]
    }

    fn all_options() -> [SchedulerOptions; 3] {
        [
            SchedulerOptions::default(),
            SchedulerOptions {
                priority: Priority::InputOrder,
                ..SchedulerOptions::default()
            },
            SchedulerOptions {
                budget_ratio: 1,
                ..SchedulerOptions::default()
            },
        ]
    }

    #[test]
    fn reused_context_equals_fresh_across_different_loops() {
        let loops = [chain(1), wide(), chain(8), chain(3), wide(), chain(1)];
        for machine in machines() {
            for opts in all_options() {
                let mut ctx = SchedContext::new();
                for l in &loops {
                    let fresh = SchedContext::new().schedule(l, &machine, opts);
                    assert_eq!(
                        ctx.schedule(l, &machine, opts),
                        fresh,
                        "{} `{}` under {opts:?}",
                        machine.name(),
                        l.name()
                    );
                }
            }
        }
    }

    #[test]
    fn reused_context_equals_fresh_per_rung_of_an_ii_scan() {
        for machine in machines() {
            for opts in all_options() {
                for l in [chain(6), wide()] {
                    let base = SchedContext::new().schedule(&l, &machine, opts).unwrap();
                    let mut ctx = SchedContext::new();
                    ctx.schedule(&l, &machine, opts).unwrap();
                    let mut prepared = PreparedLoop::new(&l, &machine).unwrap();
                    for ii in base.ii()..base.ii() + 12 {
                        let fresh = SchedContext::new()
                            .schedule_at_ii(&l, &machine, ii, opts)
                            .unwrap();
                        let reused = ctx.schedule_at_ii(&l, &machine, ii, opts).unwrap();
                        assert_eq!(reused, fresh, "{} `{}` II {ii}", machine.name(), l.name());
                        let once = prepared.schedule_at_ii(ii, opts).map(|r| r.sched);
                        assert_eq!(once, fresh, "{} `{}` II {ii}", machine.name(), l.name());
                        if let Some(s) = reused {
                            assert_eq!(s.ii(), ii);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_failure_leaves_the_context_reusable() {
        let l = chain(4);
        let m = Machine::pxly(1, 3);
        let capped = SchedulerOptions {
            max_ii: Some(3),
            ..SchedulerOptions::default()
        };
        let mut ctx = SchedContext::new();
        assert_eq!(
            ctx.schedule(&l, &m, capped),
            Err(ScheduleError::NoSchedule { tried_up_to: 3 })
        );
        // A self-recurrence tighter than II fails the exact-II attempt.
        let w = wide();
        assert_eq!(
            ctx.schedule_at_ii(&w, &m, 1, SchedulerOptions::default()),
            Ok(None)
        );
        let after = ctx.schedule(&l, &m, SchedulerOptions::default());
        assert_eq!(
            after,
            SchedContext::new().schedule(&l, &m, SchedulerOptions::default())
        );
        assert_eq!(after.unwrap().ii(), 4);
    }

    /// Sets `ctx`'s sweep order to the identity: [`SchedContext::compute_heights`]
    /// then runs the index-order sweep it ran before the sink-first
    /// order, the oracle of the tests below.
    fn sweep_in_index_order(ctx: &mut SchedContext) {
        let n = ctx.group.len();
        ctx.order.clear();
        ctx.order.extend((0..n).map(idx32));
    }

    /// On every loop of the small corpus, at every II from RecMII to
    /// MII + 8, the sink-first sweep reaches the heights of the
    /// index-order sweep and the attempt schedules identically.
    #[test]
    fn sink_first_heights_equal_the_index_order_sweep_on_the_corpus() {
        let opts = SchedulerOptions::default();
        let mut checked = 0;
        for machine in [Machine::clustered(3, 1), Machine::clustered(6, 1)] {
            for l in ncdrf_corpus::Corpus::small().iter() {
                let info = mii(l, &machine).unwrap();
                let n = l.ops().len();
                let (mut ctx, mut oracle) = (SchedContext::new(), SchedContext::new());
                for ii in info.rec.max(1)..=info.mii + 8 {
                    ctx.analyze(l, &machine).unwrap();
                    oracle.analyze(l, &machine).unwrap();
                    sweep_in_index_order(&mut oracle);
                    ctx.compute_heights(n, ii, Priority::Height);
                    oracle.compute_heights(n, ii, Priority::Height);
                    let at = format!("{} `{}` II {ii}", machine.name(), l.name());
                    assert_eq!(ctx.height, oracle.height, "{at}");
                    let ours = ctx.attempt(ii, opts).then(|| ctx.commit(l, &machine, ii));
                    let want = oracle
                        .attempt(ii, opts)
                        .then(|| oracle.commit(l, &machine, ii));
                    assert_eq!(ours, want, "{at}");
                    let entry = SchedContext::new().schedule_at_ii(l, &machine, ii, opts);
                    assert_eq!(entry.unwrap(), ours, "{at}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    /// The sequential length the escalation ladder scans up to.
    fn seq_len(l: &Loop, machine: &Machine) -> u32 {
        l.ops()
            .iter()
            .map(|op| machine.latency(op.kind()).unwrap() + 1)
            .sum::<u32>()
            + 1
    }

    /// On every loop of the small corpus, for every machine and option
    /// set, the first flat rung above the base II repeats at every II up
    /// to the sequential length: the same starts, units and kernel slots,
    /// and every higher rung is flat too.
    #[test]
    fn a_flat_rung_repeats_up_to_the_sequential_length() {
        let corpus = ncdrf_corpus::Corpus::small();
        let (mut flat_loops, mut repeats) = (0, 0);
        for machine in machines() {
            for opts in all_options() {
                let mut ctx = SchedContext::new();
                for l in corpus.iter() {
                    let base = ctx.schedule(l, &machine, opts).unwrap().ii();
                    let mut prepared = PreparedLoop::new(l, &machine).unwrap();
                    let mut flat: Option<Schedule> = None;
                    for ii in base..=seq_len(l, &machine).max(base + 1) {
                        let at =
                            format!("{} `{}` II {ii} under {opts:?}", machine.name(), l.name());
                        let rung = prepared.schedule_at_ii(ii, opts);
                        let Some(first) = &flat else {
                            if let Some(rung) = rung.filter(|r| r.flat) {
                                let entry = ctx.schedule_at_ii(l, &machine, ii, opts).unwrap();
                                assert_eq!(entry.as_ref(), Some(&rung.sched), "{at}");
                                flat = Some(rung.sched);
                                flat_loops += 1;
                            }
                            continue;
                        };
                        let rung = rung.unwrap_or_else(|| panic!("{at}: no schedule"));
                        assert!(rung.flat, "{at}");
                        for (id, _) in l.iter_ops() {
                            let (got, want) = (&rung.sched, first);
                            assert_eq!(got.start(id), want.start(id), "{at}");
                            assert_eq!(got.unit(id), want.unit(id), "{at}");
                            assert_eq!(got.kernel_slot(id), want.kernel_slot(id), "{at}");
                        }
                        repeats += 1;
                    }
                }
            }
        }
        assert!(flat_loops > 0 && repeats > 0);
    }

    /// Which flatness conditions the last attempt of `p` broke:
    /// `(evicted, heights above h0, an op ending after ii)`.
    fn broken(p: &PreparedLoop<'_>, ii: u32, priority: Priority) -> (bool, bool, bool) {
        let ctx = &p.ctx;
        let n = ctx.group.len();
        let late = (0..n).any(|v| ctx.start[v] + ctx.lat[v] > ii);
        let raised = priority == Priority::Height && ctx.height != ctx.h0;
        (ctx.evicted, raised, late)
    }

    /// The attempt of `l` at `ii`: scheduled, not flat, for exactly the
    /// reasons `want`.
    fn assert_not_flat(l: &Loop, ii: u32, opts: SchedulerOptions, want: (bool, bool, bool)) {
        let machine = Machine::clustered(3, 1);
        let mut p = PreparedLoop::new(l, &machine).unwrap();
        let rung = p.schedule_at_ii(ii, opts).expect("schedules");
        assert!(!rung.flat, "`{}` II {ii}", l.name());
        assert_eq!(
            broken(&p, ii, opts.priority),
            want,
            "`{}` II {ii}",
            l.name()
        );
    }

    /// A forced eviction alone makes a rung not flat: under input order
    /// a consumer bound before its producer is placed first and evicted
    /// when the producer lands.
    #[test]
    fn an_eviction_makes_a_rung_not_flat() {
        let mut b = LoopBuilder::new("forward");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let a = b.reserve_add("A");
        let ld = b.load("L", x, 0);
        b.bind(a, [ld.now(), ValueRef::Const(1.0)]);
        b.store("S", z, 0, a.now());
        let l = b.finish(Weight::default()).unwrap();
        let opts = SchedulerOptions {
            priority: Priority::InputOrder,
            ..SchedulerOptions::default()
        };
        assert_not_flat(&l, 20, opts, (true, false, false));
    }

    /// A carried edge tight enough to raise a height alone makes a rung
    /// not flat; one II later it no longer binds and the rung is flat.
    #[test]
    fn a_tight_carried_edge_makes_a_rung_not_flat() {
        let mut b = LoopBuilder::new("carried");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let ld = b.load("L", x, 0);
        let a = b.add("X", ld.now(), ValueRef::Const(1.0));
        let m = b.mul("Y", a.prev(1), ValueRef::Const(2.0));
        b.store("S", z, 0, m.now());
        let l = b.finish(Weight::default()).unwrap();
        let opts = SchedulerOptions::default();
        // X's height is lat(X) - II + h(Y) = 6 - II above its h0 of 0.
        assert_not_flat(&l, 5, opts, (false, true, false));
        let machine = Machine::clustered(3, 1);
        let mut p = PreparedLoop::new(&l, &machine).unwrap();
        assert!(p.schedule_at_ii(6, opts).unwrap().flat);
    }

    /// An op ending after II alone makes a rung not flat: a chain longer
    /// than its II.
    #[test]
    fn an_op_ending_after_ii_makes_a_rung_not_flat() {
        let l = chain(6);
        let machine = Machine::clustered(3, 1);
        let ii = mii(&l, &machine).unwrap().mii;
        assert_not_flat(&l, ii, SchedulerOptions::default(), (false, false, true));
    }

    /// The sweep order puts every op after its zero-distance successors,
    /// so one pass carries a whole intra-iteration chain.
    #[test]
    fn sink_first_order_puts_every_op_after_its_successors() {
        for machine in machines() {
            for l in [chain(6), wide()] {
                let mut ctx = SchedContext::new();
                ctx.analyze(&l, &machine).unwrap();
                let mut pos = vec![0; l.ops().len()];
                for (i, &v) in ctx.order.iter().enumerate() {
                    pos[v as usize] = i;
                }
                for &(f, t, d) in &ctx.edges {
                    if d == 0 && f != t {
                        assert!(pos[t as usize] < pos[f as usize], "{f} -> {t}");
                    }
                }
            }
        }
    }
}
