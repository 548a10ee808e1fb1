//! Seeded-mutation suite for the independent certifier: an
//! otherwise-valid artifact is corrupted one way at a time, and each
//! corruption class must be rejected with its named rule and location —
//! while the uncorrupted pipeline certifies clean everywhere.

use ncdrf::corpus::{kernels, Corpus};
use ncdrf::ddg::{Loop, LoopBuilder, Weight};
use ncdrf::machine::{Machine, UnitRef};
use ncdrf::sched::Schedule;
use ncdrf::{ModelId, Session, PAPER_MODELS};
use ncdrf_certify::{certify_eval, certify_schedule, ScheduleCertifier};
use std::sync::Arc;

fn certifying_session(machine: Machine) -> Session {
    Session::new(machine).certify(Arc::new(ScheduleCertifier))
}

/// Every (model, budget) cell of a small corpus certifies clean through
/// a certify-mode session — analyses and evaluations, spilled cells
/// included — and the results are bit-identical to an uncertified run.
#[test]
fn sessions_certify_clean_and_unchanged() {
    for latency in [3, 6] {
        let machine = Machine::clustered(latency, 1);
        let plain = Session::new(machine.clone());
        let certified = certifying_session(machine);
        for l in Corpus::small().take(10).iter() {
            for model in PAPER_MODELS {
                let a = certified.analyze(l, model).unwrap();
                assert_eq!(a, plain.analyze(l, model).unwrap());
                for budget in [64, 16, 8] {
                    let e = certified.evaluate(l, model, budget).unwrap();
                    assert_eq!(e, plain.evaluate(l, model, budget).unwrap(), "{}", l.name());
                }
            }
        }
        assert_eq!(certified.cache_stats(), plain.cache_stats());
    }
}

/// The port-limited and compressed registry models exercise the
/// `effective_requirement` hooks; they must certify clean too.
#[test]
fn registry_models_certify_clean() {
    let machine = Machine::clustered(3, 1);
    let session = certifying_session(machine);
    for l in Corpus::small().take(8).iter() {
        for model in [ModelId::PORT_LIMITED, ModelId::COMPRESSED] {
            session.analyze(l, model).unwrap();
            for budget in [32, 8] {
                session.evaluate(l, model, budget).unwrap();
            }
        }
    }
}

/// Corruption class 1: a nudged placement. One op's start cycle is moved
/// one cycle earlier than a dependence allows; the certifier must name
/// the `dependence` rule and the offending edge.
#[test]
fn nudged_placement_is_rejected_as_dependence() {
    let machine = Machine::clustered(6, 1);
    let l = kernels::recurrences::chain8();
    let session = Session::new(machine.clone());
    let base = session.base(&l).unwrap();
    let sched = &base.sched;

    // Find an op whose start can be nudged below a producer's finish.
    let mut found = None;
    'outer: for (from, to, dist) in l.sched_edges() {
        if dist == 0 && sched.start(to) > 0 {
            let lat = machine.latency(l.op(from).kind()).unwrap();
            if sched.start(to) < sched.start(from) + lat + 1 {
                found = Some((from, to));
                break 'outer;
            }
        }
    }
    let (_, victim) = found.expect("chain8 has a tight same-iteration edge");

    let mut starts: Vec<u32> = l.iter_ops().map(|(id, _)| sched.start(id)).collect();
    let mut units = Vec::with_capacity(starts.len());
    for (id, _) in l.iter_ops() {
        units.push(sched.unit(id));
    }
    starts[victim.index()] -= 1;
    let nudged = Schedule::from_parts(&l, &machine, sched.ii(), starts, units);

    let err = certify_schedule(&l, &machine, &nudged).unwrap_err();
    assert_eq!(err.rule, ncdrf::RULE_DEPENDENCE, "{err}");
    assert!(
        err.detail.contains(l.op(victim).name()),
        "the violation must name the nudged op: {err}"
    );
}

/// The three-op loop `S: z[i] = L*L` on the two-cluster machine, placed
/// at II 2 with `starts[k]` and unit `instances[k]` of op `k`'s group.
fn tiny_schedule(starts: [u32; 3], instances: [usize; 3]) -> (Loop, Machine, Schedule) {
    let mut b = LoopBuilder::new("tiny");
    let x = b.array_in("x");
    let z = b.array_out("z");
    let ld = b.load("L", x, 0);
    let m = b.mul("M", ld.now(), ld.now());
    b.store("S", z, 0, m.now());
    let l = b.finish(Weight::default()).unwrap();
    let machine = Machine::clustered(3, 1);
    let units = l
        .iter_ops()
        .map(|(id, op)| UnitRef {
            group: machine.group_for(op.kind()).unwrap(),
            instance: instances[id.index()],
        })
        .collect();
    let sched = Schedule::from_parts(&l, &machine, 2, starts.to_vec(), units);
    (l, machine, sched)
}

/// A hand-placed schedule certifies clean, and so does the same schedule
/// after `swap_units` exchanges the two memory ops' same-slot seats.
#[test]
fn hand_placed_schedule_and_its_unit_swap_certify_clean() {
    let (l, machine, mut sched) = tiny_schedule([0, 1, 4], [0, 0, 1]);
    certify_schedule(&l, &machine, &sched).unwrap();
    let (ld, st) = (l.find_op("L").unwrap(), l.find_op("S").unwrap());
    sched.swap_units(ld, st);
    assert_eq!(sched.unit(st).instance, 0);
    certify_schedule(&l, &machine, &sched).unwrap();
}

/// `M` issues in the same cycle as the load it reads (latency 1): a
/// dependence violation, and nothing else.
#[test]
fn early_consumer_is_rejected_as_dependence() {
    let (l, machine, sched) = tiny_schedule([0, 0, 4], [0, 0, 1]);
    let err = certify_schedule(&l, &machine, &sched).unwrap_err();
    assert_eq!(err.rule, ncdrf::RULE_DEPENDENCE, "{err}");
    assert!(err.detail.contains("`L` -> `M`"), "{err}");
}

/// `L` and `S` share kernel slot 0 and memory unit 0. The row issues two
/// ops to a two-unit group, so it does not overflow: the only fault is
/// the double-booked seat.
#[test]
fn double_booked_unit_is_rejected_as_unit_conflict() {
    let (l, machine, sched) = tiny_schedule([0, 1, 4], [0, 0, 0]);
    let err = certify_schedule(&l, &machine, &sched).unwrap_err();
    assert_eq!(err.rule, ncdrf::RULE_UNIT_CONFLICT, "{err}");
    assert!(
        err.detail.contains("`L` and `S`") && err.detail.contains("slot 0"),
        "{err}"
    );
}

/// `M` is bound to multiplier instance 2 of a two-unit group.
#[test]
fn binding_to_a_missing_unit_instance_is_rejected_as_fu_binding() {
    let (l, machine, sched) = tiny_schedule([0, 1, 4], [0, 2, 1]);
    let err = certify_schedule(&l, &machine, &sched).unwrap_err();
    assert_eq!(err.rule, ncdrf::RULE_FU_BINDING, "{err}");
    assert!(err.detail.contains("`M` is bound to instance 2"), "{err}");
}

/// Corruption class 2: an oversubscribed MRT row. Two ops of the same
/// unit class are forced into the same kernel slot on a machine with one
/// unit of that class; the certifier must name `mrt-overflow` (or the
/// same-seat special case `unit-conflict`) and the slot.
#[test]
fn oversubscribed_mrt_row_is_rejected() {
    let machine = Machine::clustered(6, 1);
    let l = kernels::blas::daxpy();
    let session = Session::new(machine.clone());
    let base = session.base(&l).unwrap();
    let sched = &base.sched;

    // Pick two distinct ops bound to the same FU group and collapse
    // their kernel slots (and seats) onto each other.
    let ids: Vec<_> = l.iter_ops().map(|(id, _)| id).collect();
    let (a, b) = ids
        .iter()
        .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
        .find(|&(a, b)| {
            a != b
                && sched.unit(a).group == sched.unit(b).group
                && sched.kernel_slot(a) != sched.kernel_slot(b)
        })
        .expect("daxpy has two ops sharing a group");

    let mut starts: Vec<u32> = l.iter_ops().map(|(id, _)| sched.start(id)).collect();
    let mut units = Vec::with_capacity(starts.len());
    for (id, _) in l.iter_ops() {
        units.push(sched.unit(id));
    }
    // Move b into a's row and seat. Dependence violations are possible
    // too, so certify resources first via a dependence-free fixture:
    // keep b's stage, change only its slot within the II.
    let ii = sched.ii();
    starts[b.index()] = (sched.start(b) / ii) * ii + sched.kernel_slot(a);
    units[b.index()] = sched.unit(a);
    let clashed = Schedule::from_parts(&l, &machine, ii, starts, units);

    // The corrupted schedule must be rejected for a *resource* conflict
    // in the slot both ops now share (dependence may also fire if the
    // slot shuffle broke an edge; accept only resource rules here).
    let err = certify_schedule(&l, &machine, &clashed).unwrap_err();
    assert!(
        err.rule == ncdrf::RULE_MRT_OVERFLOW
            || err.rule == ncdrf::RULE_UNIT_CONFLICT
            || err.rule == ncdrf::RULE_DEPENDENCE,
        "{err}"
    );
    if err.rule != ncdrf::RULE_DEPENDENCE {
        let slot = sched.kernel_slot(a);
        assert!(
            err.detail.contains(&format!("slot {slot}")),
            "the violation must name the oversubscribed slot: {err}"
        );
    }
}

/// Corruption class 3: an understated requirement. The reported register
/// count is lowered below what independent reallocation needs; the
/// certifier must name `requirement-mismatch` with both numbers.
#[test]
fn understated_requirement_is_rejected() {
    let machine = Machine::clustered(6, 1);
    let l = kernels::recurrences::chain8();
    let session = Session::new(machine.clone());
    let honest = session.analyze(&l, ModelId::UNIFIED).unwrap();
    assert!(honest.regs > 1);
    let base = session.base(&l).unwrap();

    let err = ncdrf_certify::certify_requirement(
        &l,
        &machine,
        &base.sched,
        honest.model,
        honest.regs - 1,
    )
    .unwrap_err();
    assert_eq!(err.rule, ncdrf::RULE_REQUIREMENT, "{err}");
    assert!(
        err.detail.contains(&(honest.regs - 1).to_string())
            && err.detail.contains(&honest.regs.to_string()),
        "the violation must name both requirements: {err}"
    );
}

/// Corruption class 4: a dropped reload. A spilled loop is rebuilt with
/// one reload removed (its consumer reading the victim's value
/// directly); the certifier must name `spill-shape` and the victim.
#[test]
fn dropped_reload_is_rejected_as_spill_shape() {
    use ncdrf_spill::{requirement_unified, spill_until_fits};

    let machine = Machine::clustered(6, 1);
    let l = kernels::recurrences::chain8();
    let honest = Session::new(machine.clone())
        .analyze(&l, ModelId::UNIFIED)
        .unwrap();
    let mut req = requirement_unified;
    let r = spill_until_fits(
        &l,
        &machine,
        honest.regs - 1,
        &mut req,
        ncdrf::spill::SpillOptions::default(),
    )
    .unwrap();
    assert!(!r.spilled.is_empty(), "chain8 must spill at this budget");

    // The honest rewrite certifies clean.
    ncdrf_certify::certify_spill_shape(&l, &r.l, &r.spilled, r.spill_stores, r.spill_loads)
        .unwrap();

    // Rebuild the rewritten loop with one reload dropped: its consumer
    // goes back to reading the victim's value directly.
    let victim = &r.spilled[0];
    let reload_prefix = format!("RL.{victim}.");
    let dropped = {
        use ncdrf::ddg::{ArrayRole, DepKind, LoopBuilder, OpId, OpKind, ValueRef};
        let sl = &r.l;
        let reload = sl
            .iter_ops()
            .find(|(_, op)| op.name().starts_with(&reload_prefix))
            .map(|(id, _)| id)
            .expect("the victim has a reload");
        let victim_id = sl.find_op(victim).unwrap();
        let mut b = LoopBuilder::new(sl.name());
        for inv in sl.invariants() {
            b.invariant(inv.name(), inv.value());
        }
        for arr in sl.arrays() {
            match arr.role() {
                ArrayRole::Input => b.array_in(arr.name()),
                ArrayRole::Output => b.array_out(arr.name()),
                ArrayRole::InOut => b.array_inout(arr.name()),
            };
        }
        // Recreate every op except the dropped reload, mapping old ids
        // to new (ids after the reload shift down by one).
        let mut map: Vec<Option<OpId>> = vec![None; sl.ops().len()];
        for (id, op) in sl.iter_ops() {
            if id == reload {
                continue;
            }
            let nid = match op.kind() {
                OpKind::FpAdd => b.reserve_add(op.name()),
                OpKind::FpSub => b.reserve_sub(op.name()),
                OpKind::FpMul => b.reserve_mul(op.name()),
                OpKind::FpDiv => b.reserve_div(op.name()),
                OpKind::Conv => {
                    let i = b.conv(op.name(), ValueRef::Const(0.0));
                    b.bind(i, []);
                    i
                }
                OpKind::Load => {
                    let m = op.mem().unwrap();
                    b.load(op.name(), m.array, m.offset)
                }
                OpKind::Store => {
                    let m = op.mem().unwrap();
                    let i = b.store(op.name(), m.array, m.offset, ValueRef::Const(0.0));
                    b.bind(i, []);
                    i
                }
            };
            b.set_init(nid, op.init());
            map[id.index()] = Some(nid);
        }
        for (id, op) in sl.iter_ops() {
            if id == reload {
                continue;
            }
            let inputs: Vec<ValueRef> = op
                .inputs()
                .iter()
                .map(|&v| match v {
                    // The dropped reload's consumer reads the victim
                    // directly again — the un-split lifetime.
                    ValueRef::Op { id: f, dist } if f == reload => ValueRef::Op {
                        id: map[victim_id.index()].unwrap(),
                        dist,
                    },
                    ValueRef::Op { id: f, dist } => ValueRef::Op {
                        id: map[f.index()].unwrap(),
                        dist,
                    },
                    other => other,
                })
                .collect();
            b.bind(map[id.index()].unwrap(), inputs);
        }
        for d in sl.deps() {
            if d.from == reload || d.to == reload {
                continue;
            }
            let (from, to) = (map[d.from.index()].unwrap(), map[d.to.index()].unwrap());
            match d.kind {
                DepKind::Mem => b.mem_dep(from, to, d.dist),
                DepKind::Order => b.order_dep(from, to, d.dist),
            }
        }
        b.finish(sl.weight()).unwrap()
    };

    let err =
        ncdrf_certify::certify_spill_shape(&l, &dropped, &r.spilled, r.spill_stores, r.spill_loads)
            .unwrap_err();
    assert_eq!(err.rule, ncdrf::RULE_SPILL_SHAPE, "{err}");
    assert!(
        err.detail.contains(victim.as_str()),
        "the violation must name the victim whose reload vanished: {err}"
    );
}

/// An evaluation whose `fits` flag contradicts its own requirement and
/// budget is rejected even when the schedule itself is sound.
#[test]
fn inconsistent_eval_scalars_are_rejected() {
    let machine = Machine::clustered(3, 1);
    let l = kernels::blas::daxpy();
    let session = Session::new(machine.clone());
    let base = session.base(&l).unwrap();
    let honest = session.evaluate(&l, ModelId::UNIFIED, 64).unwrap();
    assert!(honest.fits);

    let mut lying = honest.clone();
    lying.fits = false;
    let err = certify_eval(&l, &machine, &l, &base.sched, &[], 0, 0, &lying).unwrap_err();
    assert_eq!(err.rule, ncdrf::RULE_REQUIREMENT, "{err}");

    let mut lying = honest;
    lying.mem_ops += 1;
    let err = certify_eval(&l, &machine, &l, &base.sched, &[], 0, 0, &lying).unwrap_err();
    assert_eq!(err.rule, ncdrf::RULE_SPILL_SHAPE, "{err}");
}
