//! The pipelined VLIW executor: runs a modulo schedule plus a register
//! allocation on simulated hardware, cycle by cycle.

use crate::memory::{apply_op, SimMemory};
use ncdrf_ddg::{Loop, OpKind, ValueRef};
use ncdrf_machine::Machine;
use ncdrf_regalloc::{ClusterSet, DualAlloc, Lifetime, MultiAlloc, UnifiedAlloc, ValueClass};
use ncdrf_sched::Schedule;
use std::collections::BTreeMap;
use std::fmt;

/// How values are bound to physical registers for execution: the glue
/// between `ncdrf-regalloc`'s output and the executor.
#[derive(Debug, Clone)]
pub struct Binding<'a> {
    lifetimes: &'a [Lifetime],
    offsets: &'a [u32],
    kind: BindingKind<'a>,
    regs: u32,
}

#[derive(Debug, Clone)]
enum BindingKind<'a> {
    Unified,
    Dual(&'a [ValueClass]),
    Multi(&'a [ClusterSet], u32),
}

impl<'a> Binding<'a> {
    /// Binding for a unified rotating register file.
    ///
    /// # Panics
    ///
    /// Panics if `alloc.offsets` and `lifetimes` have different lengths.
    pub fn unified(lifetimes: &'a [Lifetime], alloc: &'a UnifiedAlloc) -> Self {
        assert_eq!(lifetimes.len(), alloc.offsets.len());
        Binding {
            lifetimes,
            offsets: &alloc.offsets,
            kind: BindingKind::Unified,
            regs: alloc.regs,
        }
    }

    /// Binding for a non-consistent dual register file: each subfile holds
    /// `alloc.regs` rotating registers; globals are written to both,
    /// locals only to their cluster's subfile.
    ///
    /// # Panics
    ///
    /// Panics if the allocation's vectors and `lifetimes` have different
    /// lengths.
    pub fn dual(lifetimes: &'a [Lifetime], alloc: &'a DualAlloc) -> Self {
        assert_eq!(lifetimes.len(), alloc.offsets.len());
        assert_eq!(lifetimes.len(), alloc.classes.len());
        Binding {
            lifetimes,
            offsets: &alloc.offsets,
            kind: BindingKind::Dual(&alloc.classes),
            regs: alloc.regs,
        }
    }

    /// Binding for a `clusters`-subfile non-consistent register file (the
    /// k-cluster extension): each value is written to every subfile in
    /// its [`ClusterSet`] and read from the consumer's own subfile.
    ///
    /// # Panics
    ///
    /// Panics if the allocation's vectors and `lifetimes` have different
    /// lengths, or `clusters == 0` or exceeds 32.
    pub fn multi(lifetimes: &'a [Lifetime], alloc: &'a MultiAlloc, clusters: u32) -> Self {
        assert_eq!(lifetimes.len(), alloc.offsets.len());
        assert_eq!(lifetimes.len(), alloc.sets.len());
        assert!(clusters > 0 && clusters <= 32);
        Binding {
            lifetimes,
            offsets: &alloc.offsets,
            kind: BindingKind::Multi(&alloc.sets, clusters),
            regs: alloc.regs,
        }
    }

    /// Registers per (sub)file.
    pub fn regs(&self) -> u32 {
        self.regs
    }

    /// Number of register subfiles (1 for unified).
    pub fn files(&self) -> u32 {
        match self.kind {
            BindingKind::Unified => 1,
            BindingKind::Dual(_) => 2,
            BindingKind::Multi(_, k) => k,
        }
    }

    /// Whether this is a multi-subfile binding.
    pub fn is_dual(&self) -> bool {
        self.files() > 1
    }
}

/// Bus-occupancy counters of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusStats {
    /// Memory operations issued (loads + stores).
    pub accesses: u64,
    /// Cycles executed.
    pub cycles: u64,
    /// Memory ports of the machine (bus width).
    pub ports: u32,
}

impl BusStats {
    /// Density of memory traffic: the average fraction of the bus
    /// bandwidth used per cycle (the paper's Figure 9 metric).
    pub fn density(&self) -> f64 {
        if self.cycles == 0 || self.ports == 0 {
            0.0
        } else {
            self.accesses as f64 / (self.cycles as f64 * self.ports as f64)
        }
    }
}

/// Result of a pipelined execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Final memory state.
    pub memory: SimMemory,
    /// Total cycles until the last write retired.
    pub cycles: u64,
    /// Bus occupancy.
    pub bus: BusStats,
}

/// Failure to execute a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The binding provides no registers although the loop produces values.
    NoRegisters,
    /// The loop produces a value with no lifetime entry (internal
    /// inconsistency between the schedule and the binding).
    MissingLifetime {
        /// Offending op name.
        op: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoRegisters => write!(f, "binding has zero registers"),
            ExecError::MissingLifetime { op } => {
                write!(f, "op `{op}` produces a value but has no lifetime binding")
            }
        }
    }
}

impl std::error::Error for ExecError {}

enum Write {
    Reg {
        file_mask: u32,
        phys: u32,
        value: f64,
    },
    Mem {
        array: ncdrf_ddg::ArrayId,
        iter: i64,
        offset: i64,
        value: f64,
    },
}

/// Executes `iterations` overlapped iterations of `l` under `sched`, with
/// registers assigned by `binding`, on simulated rotating-register-file
/// hardware. Prologue, steady state and epilogue all emerge from the same
/// expansion: operation `o` of iteration `i` issues at cycle
/// `start(o) + i * II`.
///
/// Register semantics: instance `i` of a value with rotating offset `r`
/// lives in physical register `(r + i) mod regs` of the relevant
/// subfile(s) — exactly the rotating-register-file behaviour the paper
/// assumes (Cydra-5 style). Cross-iteration reads that reach before
/// iteration 0 return the producer's `init` seed, modelling the loop
/// preamble that pre-loads recurrence registers.
///
/// # Errors
///
/// Returns [`ExecError`] if the binding is inconsistent with the loop.
pub fn execute(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
    binding: &Binding<'_>,
    iterations: u64,
) -> Result<ExecResult, ExecError> {
    let n = l.ops().len();

    // Map op -> lifetime slot.
    let mut lt_slot = vec![usize::MAX; n];
    for (slot, lt) in binding.lifetimes.iter().enumerate() {
        lt_slot[lt.op.index()] = slot;
    }
    for (id, op) in l.iter_ops() {
        if op.kind().produces_value() && lt_slot[id.index()] == usize::MAX {
            return Err(ExecError::MissingLifetime {
                op: op.name().to_owned(),
            });
        }
    }
    let any_values = l.ops().iter().any(|op| op.kind().produces_value());
    if any_values && binding.regs == 0 {
        return Err(ExecError::NoRegisters);
    }

    let nfiles = binding.files() as usize;
    let regs = binding.regs.max(1) as usize;
    let mut files = vec![vec![0.0f64; regs]; nfiles];
    let mut memory = SimMemory::new(l, iterations);

    // Per-op file to read from / mask to write to.
    let read_file: Vec<usize> = l
        .iter_ops()
        .map(|(id, _)| {
            if binding.is_dual() {
                sched.cluster(id, machine).index().min(nfiles - 1)
            } else {
                0
            }
        })
        .collect();
    let write_mask: Vec<u32> = l
        .iter_ops()
        .map(|(id, op)| {
            if !op.kind().produces_value() {
                0
            } else {
                match binding.kind {
                    BindingKind::Unified => 0b01,
                    BindingKind::Dual(classes) => match classes[lt_slot[id.index()]] {
                        ValueClass::Global => 0b11,
                        ValueClass::Only(c) => 1 << c.index().min(1),
                    },
                    BindingKind::Multi(sets, _) => sets[lt_slot[id.index()]]
                        .iter()
                        .fold(0u32, |m, c| m | (1 << c.index().min(31))),
                }
            }
        })
        .collect();

    // Issue agenda: cycle -> (op, iteration), in deterministic order.
    let ii = sched.ii() as u64;
    let mut agenda: BTreeMap<u64, Vec<(usize, u64)>> = BTreeMap::new();
    for (id, _) in l.iter_ops() {
        for i in 0..iterations {
            agenda
                .entry(sched.start(id) as u64 + i * ii)
                .or_default()
                .push((id.index(), i));
        }
    }

    let latency: Vec<u32> = l
        .iter_ops()
        .map(|(_, op)| {
            machine
                .latency(op.kind())
                .expect("scheduled loop is servable")
        })
        .collect();

    let mut pending: BTreeMap<u64, Vec<Write>> = BTreeMap::new();
    let mut accesses = 0u64;
    let mut last_cycle = 0u64;

    let phys = |slot: usize, iter_of_value: i64| -> usize {
        let off = binding.offsets[slot] as i64;
        (off + iter_of_value).rem_euclid(regs as i64) as usize
    };

    loop {
        let next_issue = agenda.keys().next().copied();
        let next_write = pending.keys().next().copied();
        let t = match (next_issue, next_write) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        last_cycle = last_cycle.max(t);

        // 1. Retire writes landing at t (register and memory).
        if let Some(writes) = pending.remove(&t) {
            for w in writes {
                match w {
                    Write::Reg {
                        file_mask,
                        phys,
                        value,
                    } => {
                        for (f, file) in files.iter_mut().enumerate() {
                            if file_mask & (1 << f) != 0 {
                                file[phys as usize] = value;
                            }
                        }
                    }
                    Write::Mem {
                        array,
                        iter,
                        offset,
                        value,
                    } => memory.write(array, iter, offset, value),
                }
            }
        }

        // 2. Issue operations starting at t.
        let Some(issues) = agenda.remove(&t) else {
            continue;
        };
        for (opi, i) in issues {
            let id = ncdrf_ddg::OpId::from_index(opi);
            let op = l.op(id);
            let file = read_file[opi];
            let read = |v: &ValueRef| -> f64 {
                match *v {
                    ValueRef::Op { id: p, dist } => {
                        let iter_of_value = i as i64 - dist as i64;
                        if iter_of_value < 0 {
                            l.op(p).init()
                        } else {
                            files[file][phys(lt_slot[p.index()], iter_of_value)]
                        }
                    }
                    ValueRef::Inv(inv) => l.invariants()[inv.index()].value(),
                    ValueRef::Const(c) => c,
                }
            };

            let lat = latency[opi] as u64;
            match op.kind() {
                OpKind::Load => {
                    accesses += 1;
                    let mem = op.mem().expect("loads carry a memory reference");
                    let value = memory.read(mem.array, i as i64, mem.offset);
                    let slot = lt_slot[opi];
                    pending.entry(t + lat).or_default().push(Write::Reg {
                        file_mask: write_mask[opi],
                        phys: phys(slot, i as i64) as u32,
                        value,
                    });
                }
                OpKind::Store => {
                    accesses += 1;
                    let mem = op.mem().expect("stores carry a memory reference");
                    let value = read(&op.inputs()[0]);
                    pending.entry(t + lat).or_default().push(Write::Mem {
                        array: mem.array,
                        iter: i as i64,
                        offset: mem.offset,
                        value,
                    });
                }
                kind => {
                    let operands: Vec<f64> = op.inputs().iter().map(&read).collect();
                    let value = apply_op(kind, &operands);
                    let slot = lt_slot[opi];
                    pending.entry(t + lat).or_default().push(Write::Reg {
                        file_mask: write_mask[opi],
                        phys: phys(slot, i as i64) as u32,
                        value,
                    });
                }
            }
        }
    }

    let cycles = if iterations == 0 { 0 } else { last_cycle + 1 };
    Ok(ExecResult {
        memory,
        cycles,
        bus: BusStats {
            accesses,
            cycles,
            ports: machine.memory_ports() as u32,
        },
    })
}

/// The *static* density of memory traffic of a schedule in steady state:
/// memory operations per iteration divided by `II * memory ports`. The
/// paper's Figure 9 reports this quantity weighted over the corpus; a long
/// execution's measured [`BusStats::density`] converges to it.
pub fn static_bus_density(l: &Loop, machine: &Machine, ii: u32) -> f64 {
    let ports = machine.memory_ports();
    if ports == 0 || ii == 0 {
        return 0.0;
    }
    l.memory_ops() as f64 / (ii as f64 * ports as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_ddg::{LoopBuilder, Weight};
    use ncdrf_regalloc::{allocate_unified, lifetimes};
    use ncdrf_sched::modulo_schedule;

    fn daxpy() -> Loop {
        let mut b = LoopBuilder::new("daxpy");
        let a = b.invariant("a", 2.5);
        let x = b.array_in("x");
        let y = b.array_in("y");
        let z = b.array_out("z");
        let lx = b.load("LX", x, 0);
        let ly = b.load("LY", y, 0);
        let m = b.mul("M", lx.now(), a);
        let s = b.add("A", m.now(), ly.now());
        b.store("S", z, 0, s.now());
        b.finish(Weight::default()).unwrap()
    }

    #[test]
    fn unified_execution_matches_reference() {
        let l = daxpy();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let alloc = allocate_unified(&lts, sched.ii());
        let binding = Binding::unified(&lts, &alloc);
        let run = execute(&l, &machine, &sched, &binding, 16).unwrap();
        let reference = crate::reference::evaluate(&l, 16);
        let z = l.find_array("z").unwrap();
        assert_eq!(run.memory.buffer(z), reference.memory.buffer(z));
    }

    #[test]
    fn pipelined_cycles_beat_sequential() {
        let l = daxpy();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let alloc = allocate_unified(&lts, sched.ii());
        let binding = Binding::unified(&lts, &alloc);
        let n = 64;
        let run = execute(&l, &machine, &sched, &binding, n).unwrap();
        // Steady state: one iteration per II cycles (plus ramp).
        let expected = (n - 1) * sched.ii() as u64 + u64::from(sched.stages() * sched.ii());
        assert!(run.cycles <= expected + sched.ii() as u64);
        assert!(run.cycles >= n * sched.ii() as u64);
    }

    #[test]
    fn bus_counts_loads_and_stores() {
        let l = daxpy();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let alloc = allocate_unified(&lts, sched.ii());
        let binding = Binding::unified(&lts, &alloc);
        let run = execute(&l, &machine, &sched, &binding, 10).unwrap();
        assert_eq!(run.bus.accesses, 30); // 2 loads + 1 store per iteration
        assert!(run.bus.density() > 0.0 && run.bus.density() <= 1.0);
    }

    #[test]
    fn zero_iterations() {
        let l = daxpy();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let alloc = allocate_unified(&lts, sched.ii());
        let binding = Binding::unified(&lts, &alloc);
        let run = execute(&l, &machine, &sched, &binding, 0).unwrap();
        assert_eq!(run.cycles, 0);
        assert_eq!(run.bus.accesses, 0);
    }

    #[test]
    fn static_density_formula() {
        let l = daxpy();
        let machine = Machine::clustered(3, 1);
        // 3 mem ops, 2 ports: II=2 -> 0.75.
        assert_eq!(static_bus_density(&l, &machine, 2), 0.75);
    }

    #[test]
    fn too_small_allocation_breaks_equivalence() {
        // A deliberately wrong allocation (all offsets 0, 1 register) must
        // be *detected* by comparing against the reference — this is the
        // negative control for the whole executor-as-oracle approach.
        let l = daxpy();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let broken = UnifiedAlloc {
            regs: 1,
            offsets: vec![0; lts.len()],
        };
        let binding = Binding::unified(&lts, &broken);
        let run = execute(&l, &machine, &sched, &binding, 16).unwrap();
        let reference = crate::reference::evaluate(&l, 16);
        let z = l.find_array("z").unwrap();
        assert_ne!(run.memory.buffer(z), reference.memory.buffer(z));
    }
}
