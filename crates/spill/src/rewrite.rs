//! Dependence-graph rewriting: inserting spill code for one value.

use ncdrf_ddg::{BuildError, Loop, LoopBuilder, OpId, ValueRef};

/// Statistics of one spill rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteStats {
    /// Spill stores added (always 1 per spilled value).
    pub stores_added: usize,
    /// Reload loads added (one per consuming operation and distance).
    pub loads_added: usize,
}

/// Rewrites `l` so that the value produced by `victim` lives in memory:
///
/// * a **spill store** writes the value to a fresh spill array immediately
///   after production (`spill[i] = v`),
/// * every consumer that read `v` at distance `d` instead reads a fresh
///   **reload** (`load spill[i - d]`), connected to the store by a memory
///   dependence of distance `d` so no schedule can reload before the store.
///
/// The original operations keep their ids (spill code is appended at the
/// end), which keeps victim bookkeeping across rounds simple.
///
/// Returns the rewritten loop, the names of the reload operations (so the
/// spiller can exclude them from future victim selection), and counts of
/// the memory operations added.
///
/// # Errors
///
/// Returns [`BuildError`] if the rewritten graph fails validation — this
/// indicates a bug in the rewriter, not bad input, and is surfaced rather
/// than panicking so the spiller can report it.
///
/// # Panics
///
/// Panics if `victim` does not produce a value (stores cannot be spilled)
/// or is out of range for `l`.
pub fn spill_value(
    l: &Loop,
    victim: OpId,
) -> Result<(Loop, Vec<String>, RewriteStats), BuildError> {
    let (next, reloads, stats) = rewrite(l, victim)?;
    let names = reloads
        .iter()
        .map(|&r| next.op(r).name().to_owned())
        .collect();
    Ok((next, names, stats))
}

/// [`spill_value`] with the reloads returned by id: the typed form the
/// descent uses to exclude them from victim selection.
pub(crate) fn rewrite(
    l: &Loop,
    victim: OpId,
) -> Result<(Loop, Vec<OpId>, RewriteStats), BuildError> {
    let vop = l.op(victim);
    assert!(
        vop.kind().produces_value(),
        "victim `{}` produces no value",
        vop.name()
    );

    // Append to the parent: its ops, invariants and arrays keep their ids,
    // and its explicit edges follow the memory dependences added here.
    // The spill slot array is written then read, at distances >= 0: InOut.
    let mut b = LoopBuilder::extending(l);
    let slot = b.array_inout(format!("spill.{}", vop.name()));

    // The spill store, fed by the victim's value in the same iteration.
    let spill_store = b.store(format!("SS.{}", vop.name()), slot, 0, victim.now());
    let mut reloads = vec![];

    // Patch consumers: each op that read the victim gets reload(s).
    for (id, op) in l.iter_ops() {
        let reads_victim =
            |input: &ValueRef| matches!(*input, ValueRef::Op { id, .. } if id == victim);
        if !op.inputs().iter().any(reads_victim) {
            continue;
        }
        let mut inputs: Vec<ValueRef> = op.inputs().to_vec();
        let mut reload_for_dist: Vec<(u32, OpId)> = Vec::new();
        for input in inputs.iter_mut() {
            let ValueRef::Op { id: from, dist } = *input else {
                continue;
            };
            if from != victim {
                continue;
            }
            let reload = match reload_for_dist.iter().find(|(d, _)| *d == dist) {
                Some(&(_, r)) => r,
                None => {
                    let name = format!("RL.{}.{}.{}", vop.name(), op.name(), dist);
                    let r = b.load(&name, slot, -(dist as i64));
                    // The reload of iteration i reads spill[i - dist],
                    // written `dist` iterations earlier.
                    b.mem_dep(spill_store, r, dist);
                    reloads.push(r);
                    reload_for_dist.push((dist, r));
                    r
                }
            };
            *input = reload.now();
        }
        b.bind(id, inputs);
    }

    let stats = RewriteStats {
        stores_added: 1,
        loads_added: reloads.len(),
    };
    Ok((b.finish(l.weight())?, reloads, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_ddg::{LoopBuilder, Weight};

    fn chain() -> Loop {
        // L -> M -> A -> S, plus A also reads L (two consumers for L).
        let mut b = LoopBuilder::new("chain");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let m = b.mul("M", l.now(), l.now());
        let a = b.add("A", m.now(), l.now());
        b.store("S", z, 0, a.now());
        b.finish(Weight::default()).unwrap()
    }

    #[test]
    fn spill_adds_store_and_reloads() {
        let l = chain();
        let victim = l.find_op("L").unwrap();
        let (l2, reloads, stats) = spill_value(&l, victim).unwrap();
        assert_eq!(stats.stores_added, 1);
        // Two consuming ops (M and A), each at distance 0 -> 2 reloads.
        assert_eq!(stats.loads_added, 2);
        assert_eq!(reloads.len(), 2);
        assert_eq!(l2.ops().len(), l.ops().len() + 3);
        // The victim's only remaining consumer is the spill store.
        let consumers = l2.consumers();
        assert_eq!(consumers[victim.index()].len(), 1);
    }

    #[test]
    fn same_consumer_two_slots_shares_one_reload() {
        let l = chain();
        let victim = l.find_op("L").unwrap();
        let (l2, _, _) = spill_value(&l, victim).unwrap();
        // M read L twice (both operands): both slots now read one reload.
        let m = l2.find_op("M").unwrap();
        let ins = l2.op(m).inputs();
        assert_eq!(ins[0], ins[1]);
    }

    #[test]
    fn original_ids_preserved() {
        let l = chain();
        let victim = l.find_op("M").unwrap();
        let (l2, _, _) = spill_value(&l, victim).unwrap();
        for (id, op) in l.iter_ops() {
            assert_eq!(l2.op(id).name(), op.name());
            assert_eq!(l2.op(id).kind(), op.kind());
        }
    }

    #[test]
    fn cross_iteration_consumer_gets_negative_offset_reload() {
        // s = s + x: spill the reduction value s (consumed at distance 1).
        let mut b = LoopBuilder::new("sum");
        let x = b.array_in("x");
        let ld = b.load("L", x, 0);
        let s = b.reserve_add("S");
        b.bind(s, [ld.now(), s.prev(1)]);
        let l = b.finish(Weight::default()).unwrap();
        let (l2, reloads, stats) = spill_value(&l, s).unwrap();
        assert_eq!(stats.loads_added, 1);
        let r = l2.find_op(&reloads[0]).unwrap();
        assert_eq!(l2.op(r).mem().unwrap().offset, -1);
        // The add now reads the reload at distance 0 instead of itself at 1.
        assert_eq!(l2.op(s).inputs()[1], r.now());
        // A mem dep store -> reload at distance 1 exists.
        assert!(l2
            .deps()
            .iter()
            .any(|d| d.dist == 1 && d.to == r && l2.op(d.from).name().starts_with("SS.")));
    }

    #[test]
    fn rewritten_loop_validates_and_schedules() {
        use ncdrf_certify::certify_schedule;
        use ncdrf_machine::Machine;
        use ncdrf_sched::modulo_schedule;
        let l = chain();
        let victim = l.find_op("L").unwrap();
        let (l2, _, _) = spill_value(&l, victim).unwrap();
        let machine = Machine::clustered(3, 1);
        let sched = modulo_schedule(&l2, &machine).unwrap();
        certify_schedule(&l2, &machine, &sched).unwrap();
    }

    #[test]
    #[should_panic(expected = "produces no value")]
    fn spilling_a_store_panics() {
        let l = chain();
        let s = l.find_op("S").unwrap();
        let _ = spill_value(&l, s);
    }
}
