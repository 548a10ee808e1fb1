//! The linear-pass spill state computes what the whole-graph passes it
//! replaced computed:
//!
//! - `mii` (ResMII, and RecMII per strongly connected component) equals
//!   the whole-graph binary search with a Bellman–Ford check over every
//!   edge, on the standard corpus on four machines, on every descent
//!   state the `full` preset reaches on the small corpus, and on
//!   hand-built loops that mix self-loop and multi-op components;
//! - the spill rewrite, which appends spill code to its parent, returns
//!   the `Loop`, reloads and counts of a rebuild from scratch through
//!   `LoopBuilder`, for every value of every small-corpus loop and along
//!   chains of three spills;
//! - the appending builder, which checks only the appended op names,
//!   fails a spill whose store or reload is named like a user op with
//!   the rebuild's `DuplicateOpName`, and both builders name their first
//!   repeated op.

use ncdrf::corpus::Corpus;
use ncdrf::ddg::{
    ArrayRole, BuildError, DepKind, Loop, LoopBuilder, OpId, OpKind, ValueRef, Weight,
};
use ncdrf::machine::{Machine, MachineError};
use ncdrf::sched::{mii, modulo_schedule_with, rec_mii, res_mii, MiiInfo};
use ncdrf::spill::{
    spill_value, ClassInput, ClassKey, ClassRequirement, DescentTree, Requirement, RewriteStats,
    SpillTrajectory,
};
use ncdrf::{ModelRequirement, PipelineOptions, PAPER_FINITE_MODELS};
use std::sync::Arc;

/// The bounds as the scheduler computed them before they were read off
/// its own graph: ResMII per group, and RecMII by a binary search on II
/// with a Bellman–Ford positive-cycle check over every edge of the loop.
fn oracle_mii(l: &Loop, machine: &Machine) -> MiiInfo {
    let mut per_group = vec![0u32; machine.groups().len()];
    for op in l.ops() {
        per_group[machine.group_for(op.kind()).unwrap()] += 1;
    }
    let res = per_group
        .iter()
        .zip(machine.groups())
        .map(|(&n, g)| n.div_ceil(g.count() as u32))
        .max()
        .unwrap_or(1)
        .max(1);

    let edges: Vec<(usize, usize, i64, i64)> = l
        .sched_edges()
        .into_iter()
        .map(|(from, to, dist)| {
            let lat = machine.latency(l.op(from).kind()).unwrap();
            (from.index(), to.index(), lat as i64, dist as i64)
        })
        .collect();
    let feasible = |ii: u32| {
        let n = l.ops().len();
        let mut dist = vec![0i64; n];
        for pass in 0..=n {
            let mut changed = false;
            for &(from, to, lat, d) in &edges {
                let cand = dist[from] + lat - ii as i64 * d;
                if cand > dist[to] {
                    dist[to] = cand;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
            if pass == n {
                return false;
            }
        }
        true
    };
    let rec = if edges.iter().any(|&(_, _, _, d)| d > 0) {
        let hi: u32 = l
            .ops()
            .iter()
            .map(|op| machine.latency(op.kind()).unwrap_or(1))
            .sum::<u32>()
            .max(1);
        let (mut lo, mut hi) = (1u32, hi + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    } else {
        1
    };
    MiiInfo {
        res,
        rec,
        mii: res.max(rec).max(1),
    }
}

fn assert_mii_matches(l: &Loop, machine: &Machine) {
    let want = oracle_mii(l, machine);
    let at = format!("{} `{}`", machine.name(), l.name());
    assert_eq!(mii(l, machine), Ok(want), "{at}");
    assert_eq!(res_mii(l, machine), Ok(want.res), "{at}");
    assert_eq!(rec_mii(l, machine), Ok(want.rec), "{at}");
}

#[test]
fn mii_equals_the_whole_graph_search_on_the_standard_corpus() {
    let corpus = Corpus::standard();
    let machines = [
        Machine::clustered(3, 1),
        Machine::clustered(6, 1),
        Machine::pxly(1, 3),
        Machine::pxly(2, 6),
    ];
    let mut recurrences = 0;
    for machine in &machines {
        for l in corpus.iter() {
            assert_mii_matches(l, machine);
            recurrences += usize::from(oracle_mii(l, machine).rec > 1);
        }
    }
    assert!(recurrences > 0, "the corpus has recurrences");
}

/// A model requirement that checks `mii` on every loop it is asked
/// about: every state of the descent, spilled or not.
struct MiiChecked {
    inner: ModelRequirement,
    machine: Machine,
    spilled_states: usize,
}

impl Requirement for MiiChecked {
    fn class(&self) -> Option<ClassKey> {
        self.inner.class()
    }

    fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError> {
        self.inner.allocate(input)
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        assert_mii_matches(l, &self.machine);
        if l.ops().iter().any(|op| op.name().starts_with("SS.")) {
            self.spilled_states += 1;
        }
        self.inner.effective(l, class)
    }

    fn bound(&mut self, input: &ClassInput<'_>) -> Result<Option<ClassRequirement>, MachineError> {
        self.inner.bound(input)
    }
}

/// The `full` preset's finite models on its machines (L3 and L6) at its
/// budgets (64, then 32), each model on a descent tree of its own so
/// that it asks about every state it reaches.
#[test]
fn mii_equals_the_whole_graph_search_on_every_full_preset_descent_state() {
    let opts = PipelineOptions::default();
    let mut spilled_states = 0;
    for lat in [3, 6] {
        let machine = Machine::clustered(lat, 1);
        for model in PAPER_FINITE_MODELS {
            let mut check = MiiChecked {
                inner: ModelRequirement::new(model, &opts),
                machine: machine.clone(),
                spilled_states: 0,
            };
            for l in Corpus::small().iter() {
                let base = modulo_schedule_with(l, &machine, opts.spill.scheduler).unwrap();
                let tree = Arc::new(DescentTree::new(
                    l.clone(),
                    base,
                    machine.clone(),
                    opts.spill.scheduler,
                ));
                let mut traj = SpillTrajectory::in_tree(&tree, &mut check, opts.spill).unwrap();
                for budget in [64, 32] {
                    traj.evaluate(&machine, budget, &mut check).unwrap();
                }
            }
            spilled_states += check.spilled_states;
        }
    }
    assert!(spilled_states > 0, "the preset spills on the small corpus");
}

/// Self-loop components beside multi-op components: a two-op cycle, a
/// three-op cycle through a memory dependence, and a component with a
/// self-edge and two cycles of different latency-to-distance ratios.
fn mixed_components() -> Vec<Loop> {
    let mut loops = Vec::new();

    let mut b = LoopBuilder::new("mixed");
    let c = b.invariant("c", 0.5);
    let x = b.array_in("x");
    let a = b.array_inout("a");
    let z = b.array_out("z");
    let lx = b.load("LX", x, 0);
    // Self-loops at distances 1 and 3.
    let s1 = b.reserve_add("S1");
    b.bind(s1, [lx.now(), s1.prev(1)]);
    let p = b.reserve_mul("P");
    b.bind(p, [p.prev(3), c]);
    // A two-op cycle at distance 1.
    let ra = b.reserve_add("RA");
    let rb = b.mul("RB", ra.now(), lx.now());
    b.bind(ra, [rb.prev(1), lx.now()]);
    // L2 -> M -> ST -> L2 through a memory dependence of distance 2.
    let l2 = b.load("L2", a, -2);
    let m = b.add("M", l2.now(), s1.now());
    let st = b.store("ST", a, 0, m.now());
    b.mem_dep(st, l2, 2);
    // E carries a self-edge and cycles E -> F -> E at distances 1 and 4.
    let e = b.reserve_add("E");
    let f = b.mul("F", e.now(), p.now());
    b.bind(e, [e.prev(1), f.prev(4)]);
    let g = b.add("G", f.now(), rb.now());
    b.store("SZ", z, 0, g.now());
    loops.push(b.finish(Weight::default()).unwrap());

    // Two three-op cycles sharing one op, one of them closed by an order
    // edge, and a load recurrence through memory at distance 1.
    let mut b = LoopBuilder::new("shared");
    let x = b.array_in("x");
    let a = b.array_inout("a");
    let lx = b.load("LX", x, 0);
    let u = b.reserve_add("U");
    let v = b.mul("V", u.now(), lx.now());
    let w = b.add("W", v.now(), lx.now());
    let y = b.mul("Y", u.now(), w.now());
    b.bind(u, [w.prev(2), y.prev(1)]);
    let la = b.load("LA", a, -1);
    let d = b.div("D", la.now(), y.now());
    let sa = b.store("SA", a, 0, d.now());
    b.mem_dep(sa, la, 1);
    b.order_dep(sa, v, 3);
    loops.push(b.finish(Weight::default()).unwrap());
    loops
}

#[test]
fn mii_equals_the_whole_graph_search_on_mixed_components() {
    let machines = [
        Machine::clustered(3, 1),
        Machine::clustered(6, 2),
        Machine::pxly(1, 3),
        Machine::pxly(2, 6),
    ];
    for l in mixed_components() {
        for machine in &machines {
            assert_mii_matches(&l, machine);
            assert!(oracle_mii(&l, machine).rec > 1);
        }
    }
}

/// The spill rewrite as it was before it appended to its parent: the
/// whole loop rebuilt through `LoopBuilder`.
fn oracle_rewrite(l: &Loop, victim: OpId) -> Result<(Loop, Vec<OpId>, RewriteStats), BuildError> {
    let vop = l.op(victim);
    let mut b = LoopBuilder::new(l.name());
    for inv in l.invariants() {
        b.invariant(inv.name(), inv.value());
    }
    for arr in l.arrays() {
        match arr.role() {
            ArrayRole::Input => b.array_in(arr.name()),
            ArrayRole::Output => b.array_out(arr.name()),
            ArrayRole::InOut => b.array_inout(arr.name()),
        };
    }
    let slot = b.array_inout(format!("spill.{}", vop.name()));
    for (_, op) in l.iter_ops() {
        let id = match op.kind() {
            OpKind::FpAdd => b.reserve_add(op.name()),
            OpKind::FpSub => b.reserve_sub(op.name()),
            OpKind::FpMul => b.reserve_mul(op.name()),
            OpKind::FpDiv => b.reserve_div(op.name()),
            OpKind::Conv => {
                let id = b.conv(op.name(), ValueRef::Const(0.0));
                b.bind(id, []);
                id
            }
            OpKind::Load => {
                let mem = op.mem().unwrap();
                b.load(op.name(), mem.array, mem.offset)
            }
            OpKind::Store => {
                let mem = op.mem().unwrap();
                let id = b.store(op.name(), mem.array, mem.offset, ValueRef::Const(0.0));
                b.bind(id, []);
                id
            }
        };
        b.set_init(id, op.init());
    }
    let spill_store = b.store(format!("SS.{}", vop.name()), slot, 0, victim.now());
    let mut reloads = vec![];
    for (id, op) in l.iter_ops() {
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
    for dep in l.deps() {
        match dep.kind {
            DepKind::Mem => b.mem_dep(dep.from, dep.to, dep.dist),
            DepKind::Order => b.order_dep(dep.from, dep.to, dep.dist),
        }
    }
    let stats = RewriteStats {
        stores_added: 1,
        loads_added: reloads.len(),
    };
    Ok((b.finish(l.weight())?, reloads, stats))
}

/// `spill_value` of `victim` equals the rebuild: the same loop, the
/// same reloads (by id and by name) and the same counts. Returns the
/// spilled loop.
fn assert_rewrite_matches(l: &Loop, victim: OpId) -> Loop {
    let at = format!("`{}` spilling `{}`", l.name(), l.op(victim).name());
    let (want, want_reloads, want_stats) = oracle_rewrite(l, victim).unwrap();
    let (got, names, stats) = spill_value(l, victim).unwrap();
    assert_eq!(got, want, "{at}");
    assert_eq!(stats, want_stats, "{at}");
    let want_names: Vec<&str> = want_reloads.iter().map(|&r| want.op(r).name()).collect();
    assert_eq!(names, want_names, "{at}");
    let ids: Vec<OpId> = names.iter().map(|n| got.find_op(n).unwrap()).collect();
    assert_eq!(ids, want_reloads, "{at}");
    got
}

fn values(l: &Loop) -> Vec<OpId> {
    l.iter_ops()
        .filter(|(_, op)| op.kind().produces_value())
        .map(|(id, _)| id)
        .collect()
}

#[test]
fn the_appending_rewrite_equals_the_rebuild_on_every_small_corpus_value() {
    let mut checked = 0;
    for l in Corpus::small().iter().chain(&mixed_components()) {
        for victim in values(l) {
            assert_rewrite_matches(l, victim);
            checked += 1;
        }
    }
    assert!(checked > 0);
}

/// Chains of three spills from every value of every loop: the next
/// victim is the next original value, and the third a reload the first
/// spill made, so spill code is itself respilled.
#[test]
fn the_appending_rewrite_equals_the_rebuild_along_chains_of_three_spills() {
    let mut chains = 0;
    for l in Corpus::small().iter().chain(&mixed_components()) {
        let originals = values(l);
        for (i, &first) in originals.iter().enumerate() {
            let once = assert_rewrite_matches(l, first);
            let second = originals[(i + 1) % originals.len()];
            let twice = if second != first {
                assert_rewrite_matches(&once, second)
            } else {
                once
            };
            let reload = twice
                .iter_ops()
                .find(|(_, op)| {
                    op.name()
                        .starts_with(&format!("RL.{}.", l.op(first).name()))
                })
                .map(|(id, _)| id)
                .unwrap();
            assert_rewrite_matches(&twice, reload);
            chains += 1;
        }
    }
    assert!(chains > 0);
}

/// `x` loaded and read by `A`, with a user op named `taken` after them,
/// into `b`: spilling `x` appends an op of that name when it is `SS.x` or
/// `RL.x.A.0`.
fn ops_with_one_named(b: &mut LoopBuilder, taken: &str) {
    let x = b.array_in("x");
    let z = b.array_out("z");
    let l = b.load("x", x, 0);
    let a = b.add("A", l.now(), ValueRef::Const(1.0));
    let t = b.add(taken, a.now(), ValueRef::Const(2.0));
    b.store("S", z, 0, t.now());
}

fn loop_with_an_op_named(taken: &str) -> Loop {
    let mut b = LoopBuilder::new("taken");
    ops_with_one_named(&mut b, taken);
    b.finish(Weight::default()).unwrap()
}

/// A spill whose store or reload takes a name a user op already holds
/// fails with the rebuild's `DuplicateOpName`, although the appending
/// builder checks only the appended names.
#[test]
fn a_spill_op_named_like_a_user_op_fails_as_the_rebuild_does() {
    for taken in ["SS.x", "RL.x.A.0"] {
        let l = loop_with_an_op_named(taken);
        let victim = l.find_op("x").unwrap();
        let want = Err(BuildError::DuplicateOpName(taken.into()));
        assert_eq!(oracle_rewrite(&l, victim).map(|(l, ..)| l), want);
        assert_eq!(spill_value(&l, victim).map(|(l, ..)| l), want, "{taken}");
    }
}

/// Loads appended to a loop through an extending builder report the
/// repeated name a builder made from nothing reports for the same ops:
/// the first op whose name an earlier op took, whether two appended ops
/// share it or an appended op repeats a parent's name before them.
#[test]
fn an_extending_builder_reports_the_first_repeat_a_new_builder_does() {
    let parent = loop_with_an_op_named("T");
    let x = parent.find_array("x").unwrap();
    for (appended, first) in [(&["N", "N"][..], "N"), (&["M", "T", "N", "N"], "T")] {
        let mut extending = LoopBuilder::extending(&parent);
        let mut new = LoopBuilder::new("taken");
        ops_with_one_named(&mut new, "T");
        for b in [&mut extending, &mut new] {
            for (i, name) in appended.iter().enumerate() {
                b.load(name, x, i as i64 + 1);
            }
        }
        let want = Err(BuildError::DuplicateOpName(first.into()));
        assert_eq!(new.finish(Weight::default()), want, "{appended:?}");
        assert_eq!(extending.finish(Weight::default()), want, "{appended:?}");
    }
}
