//! Corpus-wide ordering invariants between the four models: the central
//! claim of the paper is Partitioned <= Unified (requirement-wise), with
//! Swapped improving on Partitioned in the aggregate. Driven through
//! `Session` so each loop schedules once per machine.

use ncdrf::corpus::Corpus;
use ncdrf::machine::Machine;
use ncdrf::{ModelId, Session};

#[test]
fn partitioned_never_needs_more_than_unified() {
    for lat in [3, 6] {
        let session = Session::new(Machine::clustered(lat, 1));
        for l in Corpus::small().take(80).iter() {
            let uni = session.analyze(l, ModelId::UNIFIED).unwrap();
            let part = session.analyze(l, ModelId::PARTITIONED).unwrap();
            assert!(
                part.regs <= uni.regs,
                "{} (L{lat}): partitioned {} > unified {}",
                l.name(),
                part.regs,
                uni.regs
            );
        }
    }
}

#[test]
fn partitioning_improves_a_substantial_fraction() {
    // Figure 6's gap: partitioning strictly reduces the requirement for
    // many loops (those with cluster-local traffic).
    let session = Session::new(Machine::clustered(6, 1));
    let corpus = Corpus::small();
    let mut improved = 0;
    let mut total = 0;
    for l in corpus.iter() {
        let uni = session.analyze(l, ModelId::UNIFIED).unwrap();
        let part = session.analyze(l, ModelId::PARTITIONED).unwrap();
        total += 1;
        improved += usize::from(part.regs < uni.regs);
    }
    assert!(
        improved * 2 > total,
        "partitioning should help most loops ({improved}/{total})"
    );
}

#[test]
fn swapping_helps_in_aggregate() {
    let session = Session::new(Machine::clustered(6, 1));
    let corpus = Corpus::small();
    let mut part_sum = 0u64;
    let mut swap_sum = 0u64;
    for l in corpus.iter() {
        part_sum += session.analyze(l, ModelId::PARTITIONED).unwrap().regs as u64;
        swap_sum += session.analyze(l, ModelId::SWAPPED).unwrap().regs as u64;
    }
    assert!(
        swap_sum <= part_sum,
        "swapping should not hurt in aggregate ({swap_sum} vs {part_sum})"
    );
    assert!(
        swap_sum < part_sum,
        "swapping should strictly help somewhere ({swap_sum} vs {part_sum})"
    );
    // Both models shared one scheduling run per loop.
    assert_eq!(session.cache_stats().misses, corpus.len() as u64);
}

#[test]
fn latency_increases_register_pressure() {
    // §3.1/Figure 6: higher-latency units need more registers.
    let corpus = Corpus::small().take(60);
    let sum = |machine: Machine| -> u64 {
        let session = Session::new(machine);
        corpus
            .iter()
            .map(|l| session.analyze(l, ModelId::UNIFIED).unwrap().regs as u64)
            .sum()
    };
    assert!(sum(Machine::clustered(6, 1)) > sum(Machine::clustered(3, 1)));
}

#[test]
fn dual_pressure_bounds_are_consistent() {
    let session = Session::new(Machine::clustered(3, 1));
    for l in Corpus::small().take(60).iter() {
        let a = session.analyze(l, ModelId::PARTITIONED).unwrap();
        let p = a.pressure.unwrap();
        // Subfile totals dominate their parts and bound the allocation.
        assert!(p.left_total >= p.global.max(p.left));
        assert!(p.right_total >= p.global.max(p.right));
        assert!(a.regs >= p.left_total.max(p.right_total));
    }
}
