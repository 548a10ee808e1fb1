//! Sharded sweep execution: the serializable [`SweepShard`] artifact
//! produced by [`crate::Sweep::shard`] and the validated merge that
//! reassembles shards into one [`PartialSweep`].
//!
//! The experiment grid is embarrassingly partitionable: every
//! `(machine, loop)` cell is independent, and all cross-cell arithmetic
//! (curve percentages, corpus cycle totals, relative performance)
//! happens in one assembly pass at the end. A shard therefore carries
//! the grid cells it evaluated **raw** — per-loop analyses and
//! evaluations, all-integer payloads — plus a [`GridSignature`]
//! identifying the sweep it came from. [`SweepShard::merge`] checks the
//! signatures, checks that the shards partition the grid exactly, puts
//! the cells back in grid order, and runs the *same* assembly code as
//! [`crate::Sweep::run`] and [`crate::Sweep::run_partial`]; the merged
//! report is bit-identical to an unsharded run, including after a JSON
//! round trip.
//!
//! ```
//! use ncdrf::{Sweep, SweepShard, PAPER_MODELS};
//! use ncdrf::corpus::Corpus;
//!
//! # fn main() -> Result<(), ncdrf::PipelineError> {
//! let corpus = Corpus::small().take(6);
//! let sweep = Sweep::new(&corpus)
//!     .clustered_latencies([3])
//!     .models(PAPER_MODELS)
//!     .budget(32);
//! // Run the grid as three shards (in one process here; `shard_runner`
//! // does the same across processes via JSON files)...
//! let shards: Vec<SweepShard> = (0..3).map(|i| sweep.shard(i, 3)).collect::<Result<_, _>>()?;
//! // ...and reassemble: bit-identical to the unsharded run.
//! let merged = SweepShard::merge(&shards)?;
//! assert_eq!(merged.report, sweep.run_sequential()?);
//! # Ok(())
//! # }
//! ```

use crate::model::ModelId;
use crate::pipeline::{ConfigError, PipelineError};
use crate::session::CacheStats;
use crate::sweep::{assemble_grid, LoopCell, PartialSweep};
use ncdrf_spill::TrajectorySnapshot;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// The aspects of a machine the report assembly depends on. Shards carry
/// these instead of full machine descriptions: merging only needs to
/// label rows (`name`), anchor latencies and normalize traffic density
/// (`ports`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSig {
    /// Machine preset name (`C2L3`, `P1L6`, ...).
    pub name: String,
    /// Functional-unit latency (the machine's slowest group).
    pub latency: u32,
    /// Memory ports (the traffic-density denominator).
    pub ports: u32,
}

/// Everything that identifies the grid a shard was cut from. Two shards
/// merge only if their signatures are equal — same machines in the same
/// order, same model/point/budget sets, same corpus (by name *and* loop
/// list) and same pipeline options.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSignature {
    /// Corpus name (`small`, `standard`, ...).
    pub corpus: String,
    /// Loop names in corpus order (the grid's minor axis).
    pub loops: Vec<String>,
    /// Machine signatures in grid order (the grid's major axis).
    pub machines: Vec<MachineSig>,
    /// Model set, in evaluation order. Registry IDs; artifacts carry
    /// the registry's stable wire names.
    pub models: Vec<ModelId>,
    /// Distribution sample points.
    pub points: Vec<u32>,
    /// Register budgets.
    pub budgets: Vec<u32>,
    /// Fingerprint of the [`crate::PipelineOptions`] (their `Debug`
    /// rendering) — results depend on them, so shards evaluated under
    /// different options must not merge.
    pub options: String,
}

impl GridSignature {
    /// Total number of grid cells (`machines × loops`).
    pub fn total_tasks(&self) -> usize {
        self.machines.len() * self.loops.len()
    }

    /// Whether trajectories persisted under `seed` resume on this grid.
    ///
    /// Spill descents depend on the machine, loop, model and pipeline
    /// options — **not** on the sample points or register budgets (the
    /// budget only picks the stop point along the descent). Two grids
    /// are therefore resume-compatible when their corpora, machines and
    /// options agree, even if their points/budgets (and model sets)
    /// differ — that is exactly what lets a re-run at *new* budgets
    /// resume trajectories a previous artifact persisted.
    pub fn resumes(&self, seed: &GridSignature) -> bool {
        self.corpus == seed.corpus
            && self.loops == seed.loops
            && self.machines == seed.machines
            && self.options == seed.options
    }
}

/// Whether an artifact is a primary shard of a partitioned run or a
/// **heal** artifact produced by [`crate::Sweep::reissue`], covering
/// exactly the cells a prior merge reported failed or missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRole {
    /// A primary shard: one of `count` round-robin partitions of the
    /// grid.
    Shard,
    /// A heal (retry) artifact: its cells *complement* a prior shard
    /// set — [`SweepShard::merge`] lets them fill gaps and supersede
    /// failed cells without tripping the overlap check.
    Heal,
}

/// Persisted spill-trajectory state of one `(cell, model)` pair: the
/// checkpoint record [`crate::Session::export_trajectories`] produced
/// for the cell's loop under `model`. Carried (optionally) by shard
/// artifacts (format v4) so re-runs resume the descent across
/// processes.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrajectory {
    /// The model whose requirement drove the descent (the loop is the
    /// cell's).
    pub model: ModelId,
    /// The serializable checkpoint record.
    pub snapshot: TrajectorySnapshot,
}

/// One evaluated cell of a shard: the flattened task index, the loop's
/// name (for error reporting without the corpus at hand), the cell's
/// own cache counters, either the raw results or the per-pair failure,
/// and (optionally) the cell's persisted spill trajectories.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardCell {
    /// Flattened machine-major task index (`machine * loops + loop`).
    pub(crate) task: u64,
    /// Name of the cell's loop.
    pub(crate) loop_name: String,
    /// Cache counters of the work this cell performed. All cache reuse
    /// is per-cell, so summing these over any resolution of the grid
    /// reproduces the unsharded run's counters — and dropping a failed
    /// cell in favour of its heal replacement drops exactly its work.
    pub(crate) scheduling: CacheStats,
    /// The cell's results, or why it has none.
    pub(crate) outcome: Result<LoopCell, PipelineError>,
    /// Persisted spill-trajectory state, when the producing sweep
    /// enabled [`crate::Sweep::persist_trajectories`] (empty otherwise).
    pub(crate) trajectories: Vec<CellTrajectory>,
}

/// Farm provenance of a worker-produced artifact: which job and lease
/// it answers. Stamped by `ncdrf-farm` workers so the daemon can match
/// an artifact found in the watch directory back to the lease that
/// requested it; plain `shard_runner` artifacts carry none. Serialized
/// as optional JSON keys, so the shard format version is unchanged and
/// provenance-free parsers are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// The farm job id the artifact belongs to.
    pub job: String,
    /// The lease id it answers.
    pub lease: u64,
}

/// One shard of a sweep's task grid: raw per-cell results plus the
/// [`GridSignature`] needed to validate and reassemble a merge.
///
/// Produced by [`crate::Sweep::shard`] (role [`ShardRole::Shard`]) or
/// [`crate::Sweep::reissue`] (role [`ShardRole::Heal`]) in-process, or
/// parsed back from the JSON emitted by [`crate::Render`] (see
/// [`crate::parse_sweep_shard`]) when shards cross process or
/// host boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepShard {
    pub(crate) signature: GridSignature,
    pub(crate) index: u32,
    pub(crate) count: u32,
    pub(crate) role: ShardRole,
    pub(crate) cells: Vec<ShardCell>,
    pub(crate) provenance: Option<Provenance>,
}

/// Ceiling on `machines × loops` accepted from artifacts. Each factor is
/// an honestly-parsed array length, but their *product* need not be
/// bounded by the input size, so grid-proportional work (slot vectors,
/// missing-cell scans) must refuse absurd declarations by name instead
/// of attempting a gigantic allocation. No real corpus grid comes
/// within two orders of magnitude of this.
const MAX_GRID_CELLS: usize = 1 << 24;

impl SweepShard {
    /// Internal constructor shared by [`crate::Sweep::shard`] and the
    /// JSON parser.
    pub(crate) fn assemble_parts(
        signature: GridSignature,
        index: u32,
        count: u32,
        role: ShardRole,
        cells: Vec<ShardCell>,
    ) -> SweepShard {
        SweepShard {
            signature,
            index,
            count,
            role,
            cells,
            provenance: None,
        }
    }

    /// Stamps farm provenance (job + lease ids) on the artifact.
    pub fn with_provenance(mut self, provenance: Provenance) -> SweepShard {
        self.provenance = Some(provenance);
        self
    }

    /// Farm provenance, when a worker stamped it.
    pub fn provenance(&self) -> Option<&Provenance> {
        self.provenance.as_ref()
    }

    /// The grid this shard was cut from.
    pub fn signature(&self) -> &GridSignature {
        &self.signature
    }

    /// This shard's index (`0..count`; `0` for heal artifacts, whose
    /// cells are not an index-addressed partition).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total number of shards the grid was cut into (`0` for heal
    /// artifacts).
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether this is a primary shard or a heal (reissue) artifact.
    pub fn role(&self) -> ShardRole {
        self.role
    }

    /// Schedule-cache counters of this shard's cells (their sum; each
    /// cell carries its own). Cells partition across shards and all
    /// cache reuse is per-cell, so these sum to the unsharded run's
    /// counters.
    pub fn scheduling(&self) -> CacheStats {
        let mut sum = CacheStats::default();
        for c in &self.cells {
            sum.absorb(c.scheduling);
        }
        sum
    }

    /// Number of grid cells this shard evaluated (including failures).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of this shard's cells that failed.
    pub fn failure_count(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_err()).count()
    }

    /// Number of `(cell, model)` spill trajectories this shard persists.
    pub fn trajectory_count(&self) -> usize {
        self.cells.iter().map(|c| c.trajectories.len()).sum()
    }

    /// The flattened task indices of this shard's cells, in artifact
    /// order.
    pub fn tasks(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.task).collect()
    }

    /// The part of this artifact that seeds `tasks`: a heal artifact
    /// holding, in artifact order, the cells of `tasks` that persist
    /// spill trajectories, with their summed per-cell counters. Passed
    /// to [`crate::Sweep::issue_cells`] for those tasks, it imports
    /// exactly the trajectories the whole artifact would, so the farm
    /// ships a lease only the seed cells it uses.
    pub fn restricted_to(&self, tasks: &[u64]) -> SweepShard {
        let tasks: HashSet<u64> = tasks.iter().copied().collect();
        let cells: Vec<ShardCell> = self
            .cells
            .iter()
            .filter(|c| !c.trajectories.is_empty() && tasks.contains(&c.task))
            .cloned()
            .collect();
        SweepShard::assemble_parts(self.signature.clone(), 0, 0, ShardRole::Heal, cells)
    }

    /// Reassembles a full sweep from its shards — heal artifacts
    /// included — in any order.
    ///
    /// Validates, then rebuilds: cells return to grid (machine-major,
    /// corpus) order and go through the one assembly of
    /// [`crate::Sweep::run`] and [`crate::Sweep::run_partial`] — each
    /// machine's survivors aggregate, failures become the error list in
    /// grid order, and cache counters sum per winning cell. The result is
    /// **bit-identical** to [`crate::Sweep::run_partial`] on the whole
    /// grid, counters and errors included (`tests/shard_merge.rs` pins
    /// it) — and, when complete, its report equals `run_sequential`'s.
    /// Resolution is
    /// order-independent, so the merge is invariant under permutation
    /// of `shards` (property-tested in `tests/proptest_shard.rs`).
    ///
    /// Counters and failures are attributed per **cell**, so a machine
    /// whose loops were split across several shards — the normal case —
    /// contributes each failed pair once and its cache counters once,
    /// never per shard.
    ///
    /// [`ShardRole::Heal`] artifacts (from [`crate::Sweep::reissue`])
    /// are *complements*: their cells fill grid slots no primary shard
    /// reported (a lost artifact) and supersede cells that **failed** —
    /// without tripping the overlap check and without double-counting
    /// the superseded cell's `CacheStats`, so a healed merge of a
    /// faulted run is byte-identical to a run that never failed. A heal
    /// cell covering a *healthy* cell is still an overlap error.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::MissingShards`] — `shards` is empty, or a grid
    ///   cell was reported by no shard (and healed by none);
    /// * [`ConfigError::OverlappingShards`] — a primary-shard index or
    ///   cell appears twice, a heal cell covers a healthy cell, or two
    ///   heal cells cover the same cell;
    /// * [`ConfigError::IncompatibleShards`] — signatures or shard
    ///   counts disagree, or a cell lies outside the signature's grid;
    /// * [`ConfigError::InvalidShard`] — a primary shard's index is not
    ///   below its count;
    /// * [`ConfigError::OversizedGrid`] — the declared grid is beyond
    ///   any real corpus (a corrupt artifact).
    pub fn merge(shards: &[SweepShard]) -> Result<PartialSweep, PipelineError> {
        let config = |e: ConfigError| PipelineError::config(e);
        let (signature, slots) = resolve(shards)?;
        let total = signature.total_tasks() as u64;
        if (slots.len() as u64) < total {
            return Err(config(ConfigError::MissingShards));
        }
        // Only the *winning* cells assemble, so a failed cell a heal
        // artifact superseded contributes neither results nor work — the
        // healed merge is bit-identical to a run that never failed.
        Ok(assemble_grid(signature, (0..total).map(|t| slots[&t].cell)))
    }

    /// The flattened task indices a merge of `shards` could not serve a
    /// healthy result for — cells whose outcome is a failure plus cells
    /// no shard reported at all (for example because a whole shard
    /// artifact was lost) — in grid order. This is exactly the set
    /// [`crate::Sweep::reissue`] re-runs to heal the grid; an empty
    /// result means [`SweepShard::merge`] would be complete.
    ///
    /// Unlike [`SweepShard::merge`], missing cells are a *result* here,
    /// not an error; the validation errors are otherwise the same.
    ///
    /// # Errors
    ///
    /// As [`SweepShard::merge`], minus [`ConfigError::MissingShards`]
    /// for coverage gaps (an empty `shards` still reports it — there is
    /// no grid to inspect).
    pub fn unresolved(shards: &[SweepShard]) -> Result<Vec<u64>, PipelineError> {
        let (signature, slots) = resolve(shards)?;
        Ok((0..signature.total_tasks() as u64)
            .filter(|t| match slots.get(t) {
                None => true,
                Some(slot) => slot.cell.outcome.is_err(),
            })
            .collect())
    }

    /// Resolves `shards` (heal artifacts included, with the same
    /// precedence rules as [`SweepShard::merge`]) into a single
    /// consolidated artifact: one `1/1` shard carrying every winning
    /// cell — results, per-cell counters and persisted trajectories —
    /// in grid order. Unlike `merge`, gaps are allowed: the
    /// consolidated artifact of an incomplete set simply omits the
    /// missing cells, which keeps it usable as the `--from` input of a
    /// reissue *and* as a merge input once a heal artifact covers the
    /// gaps.
    ///
    /// # Errors
    ///
    /// Exactly as [`SweepShard::unresolved`].
    pub fn consolidate(shards: &[SweepShard]) -> Result<SweepShard, PipelineError> {
        let (signature, slots) = resolve(shards)?;
        let mut tasks: Vec<u64> = slots.keys().copied().collect();
        tasks.sort_unstable();
        let cells: Vec<ShardCell> = tasks.into_iter().map(|t| slots[&t].cell.clone()).collect();
        Ok(SweepShard::assemble_parts(
            signature.clone(),
            0,
            1,
            ShardRole::Shard,
            cells,
        ))
    }

    /// Resolves artifacts delivered **at-least-once** into a single
    /// consolidated `1/1` artifact — the duplicate-tolerant sibling of
    /// [`SweepShard::consolidate`] for lease-based delivery, where the
    /// same grid cell can legitimately arrive more than once: a lease
    /// expires, its cells are re-leased, and then *both* workers
    /// deliver.
    ///
    /// Where `merge`/`consolidate` treat a twice-reported cell as
    /// [`ConfigError::OverlappingShards`], `reconcile` picks one winner
    /// per slot under a total order — a healthy outcome beats a failed
    /// one, and ties fall to the smaller `Debug` rendering — so the
    /// result is **permutation-invariant** over delivery order and each
    /// cell's `CacheStats` is counted exactly once, no matter how many
    /// duplicates arrived. Shard roles and indices are ignored: every
    /// delivered cell is a candidate. Gaps are allowed, as in
    /// `consolidate`.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::MissingShards`] — `shards` is empty;
    /// * [`ConfigError::IncompatibleShards`] — signatures disagree, or a
    ///   cell lies outside the signature's grid;
    /// * [`ConfigError::OversizedGrid`] — the declared grid is beyond
    ///   any real corpus (a corrupt artifact).
    pub fn reconcile(shards: &[SweepShard]) -> Result<SweepShard, PipelineError> {
        let config = |e: ConfigError| PipelineError::config(e);
        let first = shards.first().ok_or(config(ConfigError::MissingShards))?;
        let signature = &first.signature;
        for s in shards {
            if s.signature != *signature {
                return Err(config(ConfigError::IncompatibleShards));
            }
        }
        let total = signature.total_tasks();
        if total > MAX_GRID_CELLS {
            return Err(config(ConfigError::OversizedGrid { cells: total }));
        }
        let mut slots: HashMap<u64, &ShardCell> = HashMap::new();
        for s in shards {
            for cell in &s.cells {
                let t = usize::try_from(cell.task)
                    .ok()
                    .filter(|&t| t < total)
                    .map(|_| cell.task)
                    .ok_or(config(ConfigError::IncompatibleShards))?;
                match slots.entry(t) {
                    Entry::Vacant(e) => {
                        e.insert(cell);
                    }
                    Entry::Occupied(mut e) => {
                        if prefer_cell(cell, e.get()) {
                            e.insert(cell);
                        }
                    }
                }
            }
        }
        let mut tasks: Vec<u64> = slots.keys().copied().collect();
        tasks.sort_unstable();
        let cells: Vec<ShardCell> = tasks.into_iter().map(|t| slots[&t].clone()).collect();
        Ok(SweepShard::assemble_parts(
            signature.clone(),
            0,
            1,
            ShardRole::Shard,
            cells,
        ))
    }
}

/// The [`SweepShard::reconcile`] winner rule: `a` strictly beats `b`
/// when `a` is healthy and `b` failed, or — at equal health — when `a`'s
/// `Debug` rendering is lexicographically smaller. A total order over
/// cell payloads, so the winner of any multiset of deliveries is
/// independent of arrival order.
fn prefer_cell(a: &ShardCell, b: &ShardCell) -> bool {
    match (a.outcome.is_ok(), b.outcome.is_ok()) {
        (true, false) => true,
        (false, true) => false,
        _ => format!("{a:?}") < format!("{b:?}"),
    }
}

/// A resolved grid slot: the winning cell and whether a heal artifact
/// provided it.
struct Slot<'a> {
    cell: &'a ShardCell,
    healed: bool,
}

/// Validates a shard set (heal artifacts included) and resolves every
/// reported cell to one winner per grid slot:
///
/// * primary shards must agree on signature and count, carry unique
///   in-range indices, and may not claim a slot twice;
/// * heal cells fill empty slots or supersede **failed** cells — a heal
///   cell over a healthy cell, or two heal cells on one slot, trips
///   [`ConfigError::OverlappingShards`] (a heal covers exactly what a
///   prior merge reported failed/missing; layered heals consolidate
///   between rounds).
///
/// Resolution is permutation-invariant: base-vs-base and heal-vs-heal
/// conflicts are errors regardless of order, and heal-supersedes-failed
/// does not depend on input order because heal cells are applied after
/// every primary cell.
fn resolve(
    shards: &[SweepShard],
) -> Result<(&GridSignature, HashMap<u64, Slot<'_>>), PipelineError> {
    let config = |e: ConfigError| PipelineError::config(e);
    let first = shards.first().ok_or(config(ConfigError::MissingShards))?;
    let signature = &first.signature;
    for s in shards {
        if s.signature != *signature {
            return Err(config(ConfigError::IncompatibleShards));
        }
    }
    let total = signature.total_tasks();
    if total > MAX_GRID_CELLS {
        return Err(config(ConfigError::OversizedGrid { cells: total }));
    }
    let base: Vec<&SweepShard> = shards
        .iter()
        .filter(|s| s.role == ShardRole::Shard)
        .collect();
    let heals: Vec<&SweepShard> = shards
        .iter()
        .filter(|s| s.role == ShardRole::Heal)
        .collect();
    if let Some(count) = base.first().map(|s| s.count) {
        let mut seen: HashSet<u32> = HashSet::with_capacity(base.len());
        for s in &base {
            if s.count != count {
                return Err(config(ConfigError::IncompatibleShards));
            }
            if s.index >= count {
                return Err(config(ConfigError::InvalidShard {
                    index: s.index,
                    count,
                }));
            }
            if !seen.insert(s.index) {
                return Err(config(ConfigError::OverlappingShards));
            }
        }
    }

    let in_grid = |cell: &ShardCell| {
        usize::try_from(cell.task)
            .ok()
            .filter(|&t| t < total)
            .map(|_| cell.task)
            .ok_or(config(ConfigError::IncompatibleShards))
    };
    let mut slots: HashMap<u64, Slot<'_>> =
        HashMap::with_capacity(shards.iter().map(SweepShard::cell_count).sum());
    for s in &base {
        for cell in &s.cells {
            let t = in_grid(cell)?;
            if slots
                .insert(
                    t,
                    Slot {
                        cell,
                        healed: false,
                    },
                )
                .is_some()
            {
                return Err(config(ConfigError::OverlappingShards));
            }
        }
    }
    for s in &heals {
        for cell in &s.cells {
            let t = in_grid(cell)?;
            match slots.entry(t) {
                Entry::Vacant(e) => {
                    e.insert(Slot { cell, healed: true });
                }
                Entry::Occupied(mut e) => {
                    let held = e.get();
                    if held.healed || held.cell.outcome.is_ok() {
                        return Err(config(ConfigError::OverlappingShards));
                    }
                    e.insert(Slot { cell, healed: true });
                }
            }
        }
    }
    Ok((signature, slots))
}
