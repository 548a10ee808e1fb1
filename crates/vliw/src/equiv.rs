//! Equivalence checking: a pipelined execution must produce exactly the
//! memory state of the sequential reference.

use crate::exec::{execute, Binding, ExecError, ExecResult};
use crate::reference::evaluate;
use ncdrf_ddg::Loop;
use ncdrf_machine::Machine;
use ncdrf_sched::Schedule;
use std::fmt;

/// A divergence between the pipelined execution and the reference.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivError {
    /// The executor itself failed.
    Exec(ExecError),
    /// Memory contents differ at the given array and element.
    Mismatch {
        /// Array name.
        array: String,
        /// Element index (buffer coordinates).
        index: usize,
        /// Value produced by the pipelined execution.
        got: f64,
        /// Value produced by the sequential reference.
        expected: f64,
    },
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::Exec(e) => write!(f, "execution failed: {e}"),
            EquivError::Mismatch {
                array,
                index,
                got,
                expected,
            } => write!(
                f,
                "memory mismatch in `{array}[{index}]`: pipelined {got}, reference {expected}"
            ),
        }
    }
}

impl std::error::Error for EquivError {}

impl From<ExecError> for EquivError {
    fn from(e: ExecError) -> Self {
        EquivError::Exec(e)
    }
}

/// Executes `l` both pipelined (under `sched` + `binding`) and
/// sequentially, and requires bit-identical memory (both interpreters
/// apply the same floating-point operations in the same per-value order,
/// so exact equality is the correct criterion; NaN never arises from the
/// nonzero deterministic inputs).
///
/// This is the end-to-end oracle for the entire pipeline: a dependence
/// violated by the scheduler, a lifetime mis-computed by the allocator, a
/// register clobbered by an over-tight allocation, or an unsound swap /
/// spill rewrite all surface here as a memory mismatch.
///
/// # Errors
///
/// Returns [`EquivError::Mismatch`] on the first differing element, or
/// [`EquivError::Exec`] if the executor rejects the binding.
pub fn check_equivalence(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
    binding: &Binding<'_>,
    iterations: u64,
) -> Result<ExecResult, EquivError> {
    let run = execute(l, machine, sched, binding, iterations)?;
    let reference = evaluate(l, iterations);
    for (a, decl) in l.arrays().iter().enumerate() {
        let id = l.find_array(decl.name()).expect("array exists");
        let got = run.memory.buffer(id);
        let expected = reference.memory.buffer(id);
        debug_assert_eq!(got.len(), expected.len());
        for (index, (&g, &e)) in got.iter().zip(expected).enumerate() {
            if g != e && !(g.is_nan() && e.is_nan()) {
                return Err(EquivError::Mismatch {
                    array: l.arrays()[a].name().to_owned(),
                    index,
                    got: g,
                    expected: e,
                });
            }
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_ddg::{LoopBuilder, Weight};
    use ncdrf_regalloc::{allocate_dual, allocate_unified, classify, lifetimes, UnifiedAlloc};
    use ncdrf_sched::modulo_schedule;

    /// A variant of the paper's §4 example loop (Figure 2), not Figure 2
    /// itself (`ncdrf-corpus`'s `kernels::fig2`, which this crate does
    /// not depend on): `y` is read and written in place (`S7` stores to
    /// `y`, not `z`), `M3 = L2*r` (Figure 2: `L1*r`), `A4 = M3+t`
    /// (Figure 2: `M3+L2`) and `M5 = A4*L1` (Figure 2: `A4*t`). Same op
    /// count and kinds: 2 loads, 2 muls, 2 adds, 1 store.
    fn fig2_variant() -> Loop {
        let mut b = LoopBuilder::new("fig2_variant");
        let r = b.invariant("r", 0.5);
        let t = b.invariant("t", 1.5);
        let x = b.array_in("x");
        let y = b.array_inout("y");
        let l1 = b.load("L1", x, 0);
        let l2 = b.load("L2", y, 0);
        let m3 = b.mul("M3", l2.now(), r);
        let a4 = b.add("A4", m3.now(), t);
        let m5 = b.mul("M5", a4.now(), l1.now());
        let a6 = b.add("A6", m5.now(), l1.now());
        b.store("S7", y, 0, a6.now());
        b.finish(Weight::new(100, 1)).unwrap()
    }

    #[test]
    fn unified_pipeline_is_equivalent() {
        let l = fig2_variant();
        let machine = Machine::clustered(3, 2);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let alloc = allocate_unified(&lts, sched.ii());
        let binding = Binding::unified(&lts, &alloc);
        check_equivalence(&l, &machine, &sched, &binding, 40).unwrap();
    }

    #[test]
    fn dual_pipeline_is_equivalent() {
        let l = fig2_variant();
        let machine = Machine::clustered(3, 2);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let classes = classify(&l, &machine, &sched, &lts);
        let alloc = allocate_dual(&lts, &classes, sched.ii());
        let binding = Binding::dual(&lts, &alloc);
        check_equivalence(&l, &machine, &sched, &binding, 40).unwrap();
    }

    #[test]
    fn dual_after_swapping_is_equivalent() {
        let l = fig2_variant();
        let machine = Machine::clustered(3, 2);
        let mut sched = modulo_schedule(&l, &machine).unwrap();
        ncdrf_swap_like_pass(&l, &machine, &mut sched);
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let classes = classify(&l, &machine, &sched, &lts);
        let alloc = allocate_dual(&lts, &classes, sched.ii());
        let binding = Binding::dual(&lts, &alloc);
        check_equivalence(&l, &machine, &sched, &binding, 40).unwrap();
    }

    /// A miniature stand-in for the swap pass (the real one lives in
    /// `ncdrf-swap`, which depends on this crate being independent):
    /// exchange the first legal cross-cluster pair found.
    fn ncdrf_swap_like_pass(l: &Loop, machine: &Machine, sched: &mut ncdrf_sched::Schedule) {
        let n = l.ops().len();
        for a in 0..n {
            for b in (a + 1)..n {
                let (ida, idb) = (
                    ncdrf_ddg::OpId::from_index(a),
                    ncdrf_ddg::OpId::from_index(b),
                );
                if sched.unit(ida).group == sched.unit(idb).group
                    && sched.kernel_slot(ida) == sched.kernel_slot(idb)
                    && sched.cluster(ida, machine) != sched.cluster(idb, machine)
                {
                    sched.swap_units(ida, idb);
                    return;
                }
            }
        }
    }

    #[test]
    fn broken_allocation_is_detected() {
        let l = fig2_variant();
        let machine = Machine::clustered(3, 2);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let broken = UnifiedAlloc {
            regs: 2,
            offsets: (0..lts.len() as u32).map(|i| i % 2).collect(),
        };
        let binding = Binding::unified(&lts, &broken);
        let err = check_equivalence(&l, &machine, &sched, &binding, 30);
        assert!(matches!(err, Err(EquivError::Mismatch { .. })));
    }

    #[test]
    fn reduction_recurrence_is_equivalent() {
        let mut b = LoopBuilder::new("dotp");
        let x = b.array_in("x");
        let y = b.array_in("y");
        let z = b.array_out("z");
        let lx = b.load("LX", x, 0);
        let ly = b.load("LY", y, 0);
        let m = b.mul("M", lx.now(), ly.now());
        let s = b.reserve_add("S");
        b.bind(s, [m.now(), s.prev(1)]);
        b.set_init(s, 0.0);
        b.store("ST", z, 0, s.now());
        let l = b.finish(Weight::default()).unwrap();

        for lat in [3, 6] {
            let machine = Machine::clustered(lat, 1);
            let sched = modulo_schedule(&l, &machine).unwrap();
            let lts = lifetimes(&l, &machine, &sched).unwrap();
            let classes = classify(&l, &machine, &sched, &lts);
            let alloc = allocate_dual(&lts, &classes, sched.ii());
            let binding = Binding::dual(&lts, &alloc);
            check_equivalence(&l, &machine, &sched, &binding, 25).unwrap();
        }
    }
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use ncdrf_ddg::{LoopBuilder, Weight};
    use ncdrf_regalloc::{allocate_multi, classify_multi, lifetimes};
    use ncdrf_sched::modulo_schedule;

    /// A wide loop with enough independent lanes to spread over four
    /// clusters.
    fn wide() -> Loop {
        let mut b = LoopBuilder::new("wide4c");
        let c = b.invariant("c", 1.5);
        let x = b.array_in("x");
        let z = b.array_out("z");
        let mut sums = Vec::new();
        for lane in 0..4 {
            let l = b.load(format!("L{lane}"), x, lane as i64);
            let m = b.mul(format!("M{lane}"), l.now(), c);
            let a = b.add(format!("A{lane}"), m.now(), l.now());
            sums.push(a.now());
        }
        let t1 = b.add("T1", sums[0], sums[1]);
        let t2 = b.add("T2", sums[2], sums[3]);
        let t3 = b.add("T3", t1.now(), t2.now());
        b.store("S", z, 0, t3.now());
        b.finish(Weight::default()).unwrap()
    }

    #[test]
    fn four_cluster_pipeline_is_equivalent() {
        let l = wide();
        for lat in [3, 6] {
            let machine = Machine::clustered_n(4, lat, 1);
            let sched = modulo_schedule(&l, &machine).unwrap();
            let lts = lifetimes(&l, &machine, &sched).unwrap();
            let sets = classify_multi(&l, &machine, &sched, &lts);
            let alloc = allocate_multi(&lts, &sets, sched.ii(), 4);
            let binding = Binding::multi(&lts, &alloc, 4);
            check_equivalence(&l, &machine, &sched, &binding, 30)
                .unwrap_or_else(|e| panic!("L{lat}: {e}"));
        }
    }

    #[test]
    fn two_cluster_multi_binding_matches_dual_binding() {
        use ncdrf_regalloc::{allocate_dual, classify};
        let l = wide();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();

        let classes = classify(&l, &machine, &sched, &lts);
        let dual = allocate_dual(&lts, &classes, sched.ii());
        let d = check_equivalence(&l, &machine, &sched, &Binding::dual(&lts, &dual), 24).unwrap();

        let sets = classify_multi(&l, &machine, &sched, &lts);
        let multi = allocate_multi(&lts, &sets, sched.ii(), 2);
        let m =
            check_equivalence(&l, &machine, &sched, &Binding::multi(&lts, &multi, 2), 24).unwrap();

        assert_eq!(d.cycles, m.cycles);
        assert_eq!(d.bus, m.bus);
    }

    #[test]
    fn corrupted_multi_classification_is_caught() {
        use ncdrf_machine::ClusterId;
        use ncdrf_regalloc::ClusterSet;
        let l = wide();
        let machine = Machine::clustered_n(4, 3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let mut sets = classify_multi(&l, &machine, &sched, &lts);
        // Shrink some replicated value to a single (wrong) subfile.
        let Some(i) = sets.iter().position(|s| s.count() > 1) else {
            return;
        };
        let wrong = (0..4)
            .map(ClusterId)
            .find(|&c| !sets[i].contains(c) || sets[i].count() > 1)
            .unwrap();
        sets[i] = ClusterSet::only(wrong);
        // Force the set to differ from at least one consumer's cluster.
        let alloc = allocate_multi(&lts, &sets, sched.ii(), 4);
        let r = check_equivalence(&l, &machine, &sched, &Binding::multi(&lts, &alloc, 4), 24);
        // Either the misrouted read produces wrong data (Mismatch) or, if
        // the consumers happened to live in `wrong`, the run still passes;
        // assert only that the oracle never crashes.
        let _ = r;
    }
}
