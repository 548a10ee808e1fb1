//! The differential proof for the shared spill descent: the models of a
//! session walk one descent tree per loop, and that sharing must be
//! invisible. Every model evaluated alone, in a fresh session of its
//! own, must produce the very evaluations, logical cache counters and
//! trajectory snapshots it produces when all models of a preset share
//! one session — under every victim policy, for descending and
//! ascending budget ladders that reach the II-escalation rungs, with the
//! certifier attached, and through imported snapshots that are replayed
//! into the shared tree.

use ncdrf::corpus::Corpus;
use ncdrf::ddg::Loop;
use ncdrf::machine::{Machine, MachineError};
use ncdrf::sched::modulo_schedule_with;
use ncdrf::spill::{
    requirement_unified, ClassInput, ClassKey, ClassRequirement, DescentStats, DescentTree,
    Requirement, SpillOptions, SpillPolicy, SpillTrajectory,
};
use ncdrf::{
    CacheStats, LoopAnalysis, LoopEval, ModelId, ModelRequirement, PipelineOptions, Session,
    TrajectoryExport, PAPER_MODELS,
};
use ncdrf_certify::ScheduleCertifier;
use std::sync::Arc;

/// The `extended` preset's models: three share the unified class.
const EXTENDED: [ModelId; 4] = [
    ModelId::IDEAL,
    ModelId::UNIFIED,
    ModelId::PORT_LIMITED,
    ModelId::COMPRESSED,
];

/// A ladder from the paper's budgets down to 8 and 2, where most cells
/// exhaust their descent and escalate.
const DESCENDING: [u32; 5] = [64, 32, 16, 8, 2];

/// One preset's model set; `full` also analyses every loop first.
struct Preset {
    name: &'static str,
    models: &'static [ModelId],
    analyze: bool,
}

const PRESETS: [Preset; 3] = [
    Preset {
        name: "fig89",
        models: &PAPER_MODELS,
        analyze: false,
    },
    Preset {
        name: "extended",
        models: &EXTENDED,
        analyze: false,
    },
    Preset {
        name: "full",
        models: &PAPER_MODELS,
        analyze: true,
    },
];

const POLICIES: [SpillPolicy; 3] = [
    SpillPolicy::LongestLifetime,
    SpillPolicy::FewestUses,
    SpillPolicy::Random(0x5eed),
];

/// Everything a run produced, keyed so runs of different session layouts
/// compare entry for entry.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    analyses: Vec<LoopAnalysis>,
    /// `(loop, model, budget)`-sorted evaluations.
    evals: Vec<LoopEval>,
    exports: Vec<TrajectoryExport>,
    traj_hits: u64,
    traj_resumes: u64,
    spill_steps: u64,
    /// Schedule-cache lookups, hits and misses together: sharing moves
    /// lookups from misses to hits but never adds or drops one.
    lookups: u64,
}

impl Outcome {
    fn absorb(&mut self, session: &Session, analyses: Vec<LoopAnalysis>, evals: Vec<LoopEval>) {
        let s: CacheStats = session.cache_stats();
        self.traj_hits += s.traj_hits;
        self.traj_resumes += s.traj_resumes;
        self.spill_steps += s.spill_steps;
        self.lookups += s.hits + s.misses;
        self.analyses.extend(analyses);
        self.evals.extend(evals);
        self.exports.extend(session.export_trajectories());
    }

    fn sorted(mut self) -> Outcome {
        self.analyses
            .sort_by(|a, b| (&a.name, a.model).cmp(&(&b.name, b.model)));
        self.evals
            .sort_by(|a, b| (&a.name, a.model, a.budget).cmp(&(&b.name, b.model, b.budget)));
        self.exports
            .sort_by(|a, b| (&a.loop_name, a.model).cmp(&(&b.loop_name, b.model)));
        self
    }
}

fn session(machine: &Machine, opts: PipelineOptions, certify: bool) -> Session {
    let s = Session::new(machine.clone()).options(opts);
    if certify {
        s.certify(Arc::new(ScheduleCertifier))
    } else {
        s
    }
}

/// Runs `models` over `loops` on `session` cell by cell, the way a sweep
/// cell does: every budget of `ladder` in order, all models per budget.
fn drive(
    session: &Session,
    loops: &[Loop],
    models: &[ModelId],
    ladder: &[u32],
    analyze: bool,
) -> (Vec<LoopAnalysis>, Vec<LoopEval>) {
    let (mut analyses, mut evals) = (Vec::new(), Vec::new());
    for l in loops {
        if analyze {
            for &m in models {
                analyses.push(session.analyze(l, m).unwrap());
            }
        }
        for &b in ladder {
            for &m in models {
                let e = session.evaluate(l, m, b);
                evals.push(e.unwrap_or_else(|e| panic!("{} {m} @{b}: {e}", l.name())));
            }
        }
    }
    (analyses, evals)
}

/// How the sessions of a run are set up.
#[derive(Clone, Copy)]
struct Layout<'a> {
    machine: &'a Machine,
    opts: PipelineOptions,
    certify: bool,
    /// Budgets to evaluate and export first; a fresh session imports the
    /// export and runs the ladder. Empty means a single session.
    seed_ladder: &'a [u32],
}

/// Runs `preset` with every model in one shared session (`shared`) or
/// each model in a fresh session of its own.
fn run(
    layout: Layout<'_>,
    loops: &[Loop],
    preset: &Preset,
    ladder: &[u32],
    shared: bool,
) -> Outcome {
    let groups: Vec<Vec<ModelId>> = if shared {
        vec![preset.models.to_vec()]
    } else {
        preset.models.iter().map(|&m| vec![m]).collect()
    };
    let mut out = Outcome::default();
    for models in groups {
        let s = session(layout.machine, layout.opts, layout.certify);
        if !layout.seed_ladder.is_empty() {
            let seed = session(layout.machine, layout.opts, false);
            drive(&seed, loops, &models, layout.seed_ladder, false);
            s.import_trajectories(seed.export_trajectories());
        }
        let (analyses, evals) = drive(&s, loops, &models, ladder, preset.analyze);
        out.absorb(&s, analyses, evals);
    }
    out.sorted()
}

/// Asserts that sharing one session changes nothing, for every preset,
/// policy and ladder direction.
fn assert_sharing_is_invisible(lat: u32, loops: usize, certify: bool, seed_ladder: &[u32]) {
    let machine = Machine::clustered(lat, 1);
    let loops: Vec<Loop> = Corpus::small().take(loops).iter().cloned().collect();
    let ascending: Vec<u32> = DESCENDING.iter().rev().copied().collect();
    for policy in POLICIES {
        let mut opts = PipelineOptions::default();
        opts.spill.policy = policy;
        let layout = Layout {
            machine: &machine,
            opts,
            certify,
            seed_ladder,
        };
        for preset in &PRESETS {
            for ladder in [&DESCENDING[..], &ascending[..]] {
                let alone = run(layout, &loops, preset, ladder, false);
                let shared = run(layout, &loops, preset, ladder, true);
                assert_eq!(
                    shared, alone,
                    "{} at L{lat}, {policy:?}, ladder {ladder:?}",
                    preset.name
                );
                assert!(
                    shared.spill_steps > 0,
                    "{}: the slice must spill",
                    preset.name
                );
            }
        }
    }
}

#[test]
fn shared_sessions_match_models_alone_at_l3() {
    assert_sharing_is_invisible(3, 10, false, &[]);
}

#[test]
fn shared_sessions_match_models_alone_at_l6() {
    assert_sharing_is_invisible(6, 10, false, &[]);
}

#[test]
fn certified_shared_sessions_match_models_alone() {
    assert_sharing_is_invisible(6, 4, true, &[]);
}

/// Imported snapshots answer what they record and are replayed into the
/// session's shared tree for deeper budgets — with and without the
/// certifier, which replays every imported record.
#[test]
fn imported_snapshots_replay_into_the_shared_tree_invisibly() {
    assert_sharing_is_invisible(6, 4, false, &[64, 16]);
    assert_sharing_is_invisible(3, 4, true, &[32]);
}

/// A requirement with its class bound hidden, so every escalation rung
/// it reaches is allocated.
struct Unbounded(ModelRequirement);

impl Requirement for Unbounded {
    fn class(&self) -> Option<ClassKey> {
        self.0.class()
    }

    fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError> {
        self.0.allocate(input)
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        self.0.effective(l, class)
    }
}

/// A requirement without a class: nothing is memoised and no flat tail
/// is skipped, so its ladders schedule every rung they pass.
struct Classless(ModelRequirement);

impl Requirement for Classless {
    fn class(&self) -> Option<ClassKey> {
        None
    }

    fn allocate(&mut self, input: &ClassInput<'_>) -> Result<ClassRequirement, MachineError> {
        self.0.allocate(input)
    }

    fn effective(&mut self, l: &Loop, class: &ClassRequirement) -> u32 {
        self.0.effective(l, class)
    }
}

/// The descent counts of [`drive`]'s walk — every budget of `ladder` in
/// order, all finite `models` per budget — on one tree per loop, with the
/// requirements `requirement` makes.
fn tree_stats<R: Requirement>(
    machine: &Machine,
    loops: &[Loop],
    models: &[ModelId],
    ladder: &[u32],
    requirement: impl Fn(ModelId) -> R,
) -> DescentStats {
    let opts = SpillOptions::default();
    let models: Vec<ModelId> = models
        .iter()
        .copied()
        .filter(|m| !m.spec().is_ideal())
        .collect();
    let mut stats = DescentStats::default();
    for l in loops {
        let base = modulo_schedule_with(l, machine, opts.scheduler).unwrap();
        let tree = Arc::new(DescentTree::new(
            l.clone(),
            base,
            machine.clone(),
            opts.scheduler,
        ));
        let mut reqs: Vec<R> = models.iter().map(|&m| requirement(m)).collect();
        let mut trajs: Vec<SpillTrajectory> = reqs
            .iter_mut()
            .map(|r| SpillTrajectory::in_tree(&tree, r, opts).unwrap())
            .collect();
        for &budget in ladder {
            for (traj, req) in trajs.iter_mut().zip(&mut reqs) {
                traj.evaluate(machine, budget, req).unwrap();
            }
        }
        stats.absorb(tree.stats());
    }
    stats
}

/// The sharing is real: on the `extended` models, whose three finite
/// models allocate the same unified class, the tree computes fewer
/// states than the trajectories take steps, and serves rungs and class
/// requirements from its memos. The ladders' class bounds settle rungs
/// without allocating them: the same walk with the bounds hidden
/// allocates more class requirements. The ladders record the tails above
/// flat rungs without scheduling them: the same walk without classes
/// schedules more rungs.
#[test]
fn extended_models_share_states_rungs_and_classes() {
    let machine = Machine::clustered(3, 1);
    let session = Session::new(machine.clone());
    let loops: Vec<Loop> = Corpus::small().take(8).iter().cloned().collect();
    drive(&session, &loops, &EXTENDED, &DESCENDING, false);
    let steps = session.cache_stats().spill_steps;
    let tree = session.descent_stats();
    assert!(
        tree.states_computed < steps,
        "{} states computed for {steps} logical steps",
        tree.states_computed
    );
    assert!(tree.states_reused > 0, "{tree:?}");
    assert!(tree.rungs_reused > 0, "{tree:?}");
    assert!(tree.classes_reused > 0, "{tree:?}");
    assert!(tree.classes_bounded > 0, "{tree:?}");
    assert!(tree.rungs_skipped > 0, "{tree:?}");

    let opts = PipelineOptions::default();
    let model = |m| ModelRequirement::new(m, &opts);
    let bounded = tree_stats(&machine, &loops, &EXTENDED, &DESCENDING, model);
    let unbounded = tree_stats(&machine, &loops, &EXTENDED, &DESCENDING, |m| {
        Unbounded(model(m))
    });
    let computed = |s: DescentStats| (s.states_computed, s.rungs_computed, s.classes_computed);
    assert_eq!(
        computed(bounded),
        computed(tree),
        "the walk is the session's"
    );
    assert_eq!(bounded.classes_bounded, tree.classes_bounded);
    assert_eq!(bounded.rungs_skipped, tree.rungs_skipped);
    assert_eq!(unbounded.classes_bounded, 0);
    assert!(
        tree.classes_computed < unbounded.classes_computed,
        "{} class requirements computed with bounds, {} without",
        tree.classes_computed,
        unbounded.classes_computed
    );
    let classless = tree_stats(&machine, &loops, &EXTENDED, &DESCENDING, |m| {
        Classless(model(m))
    });
    assert_eq!(classless.rungs_skipped, 0);
    assert!(
        tree.rungs_computed < classless.rungs_computed,
        "{} rungs computed with classes, {} without",
        tree.rungs_computed,
        classless.rungs_computed
    );
}

/// States are keyed by `(parent, victim)`: trajectories under different
/// victim policies walk one tree per loop, their paths part and meet
/// again at shared victims, and each still equals its own walk on a
/// private tree.
#[test]
fn diverging_policies_on_one_tree_match_private_trees() {
    let policies = [
        SpillPolicy::LongestLifetime,
        SpillPolicy::MostInstances,
        SpillPolicy::FewestUses,
        SpillPolicy::Random(1),
        SpillPolicy::Random(2),
        SpillPolicy::Random(3),
    ];
    let mut reused = 0;
    for lat in [3, 6] {
        let machine = Machine::clustered(lat, 1);
        for l in Corpus::small().take(12).iter() {
            let opts = SpillOptions::default();
            let base = modulo_schedule_with(l, &machine, opts.scheduler).unwrap();
            let tree = DescentTree::new(l.clone(), base.clone(), machine.clone(), opts.scheduler);
            let tree = Arc::new(tree);
            for policy in policies {
                let opts = SpillOptions { policy, ..opts };
                let req = &mut requirement_unified;
                let mut shared = SpillTrajectory::in_tree(&tree, req, opts).unwrap();
                let mut alone =
                    SpillTrajectory::from_base(l, &machine, base.clone(), req, opts).unwrap();
                for budget in DESCENDING {
                    assert_eq!(
                        shared.evaluate(&machine, budget, req).unwrap(),
                        alone.evaluate(&machine, budget, req).unwrap(),
                        "{} at L{lat}, {policy:?} @{budget}",
                        l.name()
                    );
                }
                assert_eq!(shared.snapshot(), alone.snapshot());
            }
            reused += tree.stats().states_reused;
        }
    }
    assert!(reused > 0, "the policies must meet at shared states");
}
