//! The [`Schedule`] type.

use ncdrf_ddg::{Loop, OpId};
use ncdrf_machine::{ClusterId, Machine, UnitRef};
use std::fmt;

/// A modulo schedule: an initiation interval plus, per operation, an
/// absolute start cycle (of iteration 0) and a functional-unit binding.
///
/// Derived quantities:
///
/// * **kernel slot** `start % II` — the row of the kernel the operation
///   occupies,
/// * **stage** `start / II` — which overlapped iteration the kernel row
///   belongs to (the bracketed numbers of the paper's Figures 4–5),
/// * **cluster** — the cluster of the bound unit on a clustered machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    ii: u32,
    start: Vec<u32>,
    unit: Vec<UnitRef>,
    stages: u32,
}

impl Schedule {
    /// Assembles a schedule from raw parts. `starts` and `units` are
    /// indexed by [`OpId::index`]. The stage count is computed from the
    /// machine's latencies (an iteration spans `ceil(max(start+lat)/II)`
    /// stages, matching the paper's "14 pipestages" accounting).
    ///
    /// # Panics
    ///
    /// Panics if the vectors' length differs from the loop's op count or if
    /// `ii == 0`.
    pub fn from_parts(
        l: &Loop,
        machine: &Machine,
        ii: u32,
        start: Vec<u32>,
        unit: Vec<UnitRef>,
    ) -> Self {
        assert!(ii > 0, "II must be positive");
        assert_eq!(start.len(), l.ops().len());
        assert_eq!(unit.len(), l.ops().len());
        let span = l
            .iter_ops()
            .map(|(id, op)| start[id.index()] + machine.latency(op.kind()).expect("servable loop"))
            .max()
            .unwrap_or(ii);
        let stages = span.div_ceil(ii).max(1);
        Schedule {
            ii,
            start,
            unit,
            stages,
        }
    }

    /// The initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Absolute start cycle of `op` (iteration 0).
    pub fn start(&self, op: OpId) -> u32 {
        self.start[op.index()]
    }

    /// Functional-unit binding of `op`.
    pub fn unit(&self, op: OpId) -> UnitRef {
        self.unit[op.index()]
    }

    /// Kernel row of `op` (`start % II`).
    pub fn kernel_slot(&self, op: OpId) -> u32 {
        self.start[op.index()] % self.ii
    }

    /// Pipeline stage of `op` (`start / II`), counted from 0. The paper's
    /// figures display stages counted from 1; [`KernelView`] adds the
    /// offset when rendering.
    ///
    /// [`KernelView`]: crate::KernelView
    pub fn stage(&self, op: OpId) -> u32 {
        self.start[op.index()] / self.ii
    }

    /// Number of pipeline stages an iteration spans.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// The cluster executing `op`.
    pub fn cluster(&self, op: OpId, machine: &Machine) -> ClusterId {
        machine.cluster_of(self.unit[op.index()])
    }

    /// Rebinds `op` to another instance of the *same* group at the *same*
    /// kernel slot. Used by the swapping pass.
    ///
    /// # Panics
    ///
    /// Panics if the new unit's group differs from the current binding's.
    pub fn rebind(&mut self, op: OpId, unit: UnitRef) {
        assert_eq!(
            self.unit[op.index()].group,
            unit.group,
            "rebind must stay within the op's functional-unit group"
        );
        self.unit[op.index()] = unit;
    }

    /// Swaps the unit bindings of two operations (same group, same kernel
    /// slot — the legal "swap" of the paper's §4.1).
    ///
    /// # Panics
    ///
    /// Panics if the ops are bound to different groups or occupy different
    /// kernel slots.
    pub fn swap_units(&mut self, a: OpId, b: OpId) {
        assert_eq!(
            self.unit[a.index()].group,
            self.unit[b.index()].group,
            "swapped ops must use the same kind of functional unit"
        );
        assert_eq!(
            self.kernel_slot(a),
            self.kernel_slot(b),
            "swapped ops must be scheduled in the same kernel cycle"
        );
        self.unit.swap(a.index(), b.index());
    }

    /// The op bound to `unit` at kernel slot `slot`, if any.
    pub fn occupant(&self, unit: UnitRef, slot: u32) -> Option<OpId> {
        (0..self.start.len())
            .map(OpId::from_index)
            .find(|&op| self.unit[op.index()] == unit && self.kernel_slot(op) == slot)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule II={} stages={} ops={}",
            self.ii,
            self.stages,
            self.start.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_ddg::{LoopBuilder, Weight};
    use ncdrf_machine::Machine;

    fn tiny() -> (Loop, Machine) {
        let mut b = LoopBuilder::new("t");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let m = b.mul("M", l.now(), l.now());
        b.store("S", z, 0, m.now());
        (
            b.finish(Weight::default()).unwrap(),
            Machine::clustered(3, 1),
        )
    }

    fn unit(machine: &Machine, l: &Loop, op: OpId, instance: usize) -> UnitRef {
        UnitRef {
            group: machine.group_for(l.op(op).kind()).unwrap(),
            instance,
        }
    }

    #[test]
    fn stage_and_slot_derivation() {
        let (l, m) = tiny();
        let (lo, mu, st) = (
            OpId::from_index(0),
            OpId::from_index(1),
            OpId::from_index(2),
        );
        let sched = Schedule::from_parts(
            &l,
            &m,
            2,
            vec![0, 1, 4],
            vec![
                unit(&m, &l, lo, 0),
                unit(&m, &l, mu, 0),
                unit(&m, &l, st, 1),
            ],
        );
        assert_eq!(sched.kernel_slot(mu), 1);
        assert_eq!(sched.stage(mu), 0);
        assert_eq!(sched.stage(st), 2);
        // span = max(0+1, 1+3, 4+1) = 5 -> ceil(5/2) = 3 stages.
        assert_eq!(sched.stages(), 3);
    }

    #[test]
    fn swap_units_exchanges_bindings() {
        let (l, m) = tiny();
        let (lo, mu, st) = (
            OpId::from_index(0),
            OpId::from_index(1),
            OpId::from_index(2),
        );
        let mut sched = Schedule::from_parts(
            &l,
            &m,
            2,
            vec![0, 1, 4],
            vec![
                unit(&m, &l, lo, 0),
                unit(&m, &l, mu, 0),
                unit(&m, &l, st, 1),
            ],
        );
        // L (slot 0) and S (slot 4 % 2 == 0) are both mem ops: swappable.
        sched.swap_units(lo, st);
        assert_eq!(sched.unit(lo).instance, 1);
        assert_eq!(sched.unit(st).instance, 0);
    }

    #[test]
    #[should_panic(expected = "same kernel cycle")]
    fn swap_units_rejects_different_slots() {
        let (l, m) = tiny();
        let (lo, mu, st) = (
            OpId::from_index(0),
            OpId::from_index(1),
            OpId::from_index(2),
        );
        let mut sched = Schedule::from_parts(
            &l,
            &m,
            2,
            vec![0, 1, 5],
            vec![
                unit(&m, &l, lo, 0),
                unit(&m, &l, mu, 0),
                unit(&m, &l, st, 1),
            ],
        );
        sched.swap_units(lo, st);
    }

    #[test]
    fn occupant_lookup() {
        let (l, m) = tiny();
        let (lo, mu, st) = (
            OpId::from_index(0),
            OpId::from_index(1),
            OpId::from_index(2),
        );
        let sched = Schedule::from_parts(
            &l,
            &m,
            2,
            vec![0, 1, 4],
            vec![
                unit(&m, &l, lo, 0),
                unit(&m, &l, mu, 0),
                unit(&m, &l, st, 1),
            ],
        );
        assert_eq!(sched.occupant(unit(&m, &l, lo, 0), 0), Some(lo));
        assert_eq!(sched.occupant(unit(&m, &l, lo, 0), 1), None);
        assert_eq!(sched.occupant(unit(&m, &l, st, 1), 0), Some(st));
    }
}
