//! The "sack" register-file organisation of Llosa et al. (CONPAR'94,
//! the paper's ref [22]) — implemented as a related-work comparison
//! point.
//!
//! A sack organisation pairs a small, fully-multiported **central file**
//! with one or more cheap, port-limited subfiles ("**sacks**", one read
//! port and one write port each). It exploits the same §3.3 observation
//! as the NCDRF — most register instances are read exactly once — but in
//! a different direction: a single-use value can live in a sack if its
//! one write and one read can be steered through the sack's ports; only
//! multi-use (or port-conflicting) values pay for the central file.
//!
//! On a modulo-scheduled loop the port constraint is periodic: a sack's
//! read port is busy at kernel cycle `start(consumer) mod II`, its write
//! port at `(start(producer) + latency) mod II`, for every value it
//! hosts.

use crate::alloc::{allocate_unified, UnifiedAlloc};
use crate::lifetime::Lifetime;
use ncdrf_ddg::{Loop, OpId};
use ncdrf_machine::{Machine, MachineError};
use ncdrf_sched::Schedule;

/// Configuration of a sack organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SackConfig {
    /// Number of sacks (each with 1 read + 1 write port).
    pub sacks: u32,
}

impl Default for SackConfig {
    fn default() -> Self {
        SackConfig { sacks: 4 }
    }
}

/// The result of steering values between the central file and the sacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SackAssignment {
    /// Per lifetime: `Some(sack)` or `None` for the central file.
    pub sack_of: Vec<Option<u32>>,
    /// Allocation of the central-file values (offsets indexed like the
    /// *full* lifetime slice; sack values hold offset 0 there and must be
    /// looked up in `sack_allocs`).
    pub central: UnifiedAlloc,
    /// Per-sack register allocation.
    pub sack_allocs: Vec<UnifiedAlloc>,
    /// Values hosted by sacks.
    pub sacked: usize,
}

impl SackAssignment {
    /// Registers in the (expensive, multiported) central file.
    pub fn central_regs(&self) -> u32 {
        self.central.regs
    }

    /// Total registers across the (cheap, single-ported) sacks.
    pub fn sack_regs(&self) -> u32 {
        self.sack_allocs.iter().map(|a| a.regs).sum()
    }
}

/// Steers single-use values into sacks (greedy, longest lifetime first)
/// and allocates both levels.
///
/// A value qualifies for a sack when it has exactly one consuming operand
/// and some sack has its read slot (`start(consumer) mod II`) and write
/// slot (`(start(producer) + latency) mod II`) free. Everything else goes
/// to the central file.
///
/// # Errors
///
/// Returns [`MachineError::Unserved`] if the machine cannot execute some
/// operation of `l`.
pub fn assign_sacks(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
    lifetimes: &[Lifetime],
    config: SackConfig,
) -> Result<SackAssignment, MachineError> {
    let ii = sched.ii() as usize;
    let consumers = l.consumers();
    let n = lifetimes.len();

    // Port reservation tables: [sack][kernel cycle].
    let s = config.sacks as usize;
    let mut read_busy = vec![vec![false; ii]; s];
    let mut write_busy = vec![vec![false; ii]; s];
    let mut sack_of: Vec<Option<u32>> = vec![None; n];

    // Longest lifetimes first: they relieve the central file the most.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(lifetimes[i].len()));

    for &i in &order {
        let lt = &lifetimes[i];
        let cons = &consumers[lt.op.index()];
        if cons.len() != 1 {
            continue; // multi-use (or dead): central
        }
        let (consumer, _dist) = cons[0];
        let read_slot = sched.start(consumer) as usize % ii;
        let lat = machine.latency(l.op(lt.op).kind())? as usize;
        let write_slot = (sched.start(lt.op) as usize + lat) % ii;
        for sack in 0..s {
            if !read_busy[sack][read_slot] && !write_busy[sack][write_slot] {
                read_busy[sack][read_slot] = true;
                write_busy[sack][write_slot] = true;
                sack_of[i] = Some(sack as u32);
                break;
            }
        }
    }

    // Allocate the central file over the unsacked lifetimes, keeping the
    // offsets vector full-length for easy indexing.
    let central_lts: Vec<Lifetime> = (0..n)
        .filter(|&i| sack_of[i].is_none())
        .map(|i| lifetimes[i])
        .collect();
    let central_compact = allocate_unified(&central_lts, sched.ii());
    let mut central_offsets = vec![0u32; n];
    let mut k = 0;
    for i in 0..n {
        if sack_of[i].is_none() {
            central_offsets[i] = central_compact.offsets[k];
            k += 1;
        }
    }
    let central = UnifiedAlloc {
        regs: central_compact.regs,
        offsets: central_offsets,
    };

    // Allocate each sack independently.
    let sack_allocs: Vec<UnifiedAlloc> = (0..config.sacks)
        .map(|sack| {
            let lts: Vec<Lifetime> = (0..n)
                .filter(|&i| sack_of[i] == Some(sack))
                .map(|i| lifetimes[i])
                .collect();
            allocate_unified(&lts, sched.ii())
        })
        .collect();

    let sacked = sack_of.iter().filter(|s| s.is_some()).count();
    Ok(SackAssignment {
        sack_of,
        central,
        sack_allocs,
        sacked,
    })
}

/// Statistics of single-use values in a loop under a schedule (the §3.3
/// observation the sack and NCDRF organisations both exploit).
pub fn single_use_fraction(l: &Loop, lifetimes: &[Lifetime]) -> f64 {
    if lifetimes.is_empty() {
        return 0.0;
    }
    let consumers = l.consumers();
    let single = lifetimes
        .iter()
        .filter(|lt| consumers[lt.op.index()].len() == 1)
        .count();
    single as f64 / lifetimes.len() as f64
}

/// A reference to the consuming op of a value — helper for tests.
pub fn sole_consumer(l: &Loop, op: OpId) -> Option<OpId> {
    match l.consumers()[op.index()] {
        [(c, _)] => Some(c),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::lifetimes;
    use ncdrf_ddg::{LoopBuilder, Weight};
    use ncdrf_sched::modulo_schedule;

    fn chain() -> Loop {
        // L -> M -> A -> S : every intermediate value is single-use.
        let mut b = LoopBuilder::new("chain");
        let c = b.invariant("c", 2.0);
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let m = b.mul("M", l.now(), c);
        let a = b.add("A", m.now(), c);
        b.store("S", z, 0, a.now());
        b.finish(Weight::default()).unwrap()
    }

    fn fanout() -> Loop {
        // One load consumed by three ops: multi-use, must stay central.
        let mut b = LoopBuilder::new("fanout");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let m = b.mul("M", l.now(), l.now());
        let a = b.add("A", m.now(), l.now());
        b.store("S", z, 0, a.now());
        b.finish(Weight::default()).unwrap()
    }

    #[test]
    fn single_use_values_get_sacked() {
        let l = chain();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let a = assign_sacks(&l, &machine, &sched, &lts, SackConfig { sacks: 4 }).unwrap();
        assert_eq!(a.sacked, lts.len(), "all chain values are single-use");
        assert_eq!(a.central_regs(), 0);
        assert!(a.sack_regs() > 0);
    }

    #[test]
    fn multi_use_values_stay_central() {
        let l = fanout();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let a = assign_sacks(&l, &machine, &sched, &lts, SackConfig::default()).unwrap();
        let li = lts.iter().position(|lt| l.op(lt.op).name() == "L").unwrap();
        assert_eq!(a.sack_of[li], None, "fanned-out value must be central");
        assert!(a.central_regs() > 0);
    }

    #[test]
    fn zero_sacks_degenerates_to_unified() {
        let l = chain();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let a = assign_sacks(&l, &machine, &sched, &lts, SackConfig { sacks: 0 }).unwrap();
        assert_eq!(a.sacked, 0);
        assert_eq!(a.central_regs(), allocate_unified(&lts, sched.ii()).regs);
    }

    #[test]
    fn port_conflicts_limit_sacking() {
        // With a single sack and II=1 every value reads at slot 0: only
        // one value can be sacked.
        let l = chain();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        if sched.ii() == 1 {
            let lts = lifetimes(&l, &machine, &sched).unwrap();
            let a = assign_sacks(&l, &machine, &sched, &lts, SackConfig { sacks: 1 }).unwrap();
            assert!(a.sacked <= 1);
        }
    }

    #[test]
    fn single_use_fraction_is_high_for_fp_loops() {
        // The §3.3 claim: most register instances are read once.
        let machine = Machine::clustered(3, 1);
        let mut total = 0.0;
        let mut count = 0;
        for l in [chain(), fanout()] {
            let sched = modulo_schedule(&l, &machine).unwrap();
            let lts = lifetimes(&l, &machine, &sched).unwrap();
            total += single_use_fraction(&l, &lts);
            count += 1;
        }
        assert!(total / count as f64 > 0.5);
    }

    #[test]
    fn sacks_relieve_the_central_file() {
        let l = chain();
        let machine = Machine::clustered(6, 1);
        let sched = modulo_schedule(&l, &machine).unwrap();
        let lts = lifetimes(&l, &machine, &sched).unwrap();
        let unified = allocate_unified(&lts, sched.ii()).regs;
        let a = assign_sacks(&l, &machine, &sched, &lts, SackConfig { sacks: 4 }).unwrap();
        assert!(
            a.central_regs() < unified,
            "central {} should shrink below unified {}",
            a.central_regs(),
            unified
        );
    }

    #[test]
    fn sole_consumer_helper() {
        let l = chain();
        let ld = l.find_op("L").unwrap();
        let m = l.find_op("M").unwrap();
        assert_eq!(sole_consumer(&l, ld), Some(m));
        let l2 = fanout();
        let ld2 = l2.find_op("L").unwrap();
        assert_eq!(sole_consumer(&l2, ld2), None);
    }
}
