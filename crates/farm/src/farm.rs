//! The farm scheduler: a resident job queue over sweep grids, leased
//! out cell-by-cell to workers, healed on a cadence, and served back as
//! merged reports that are bit-identical to `run_sequential`.
//!
//! All methods take the current time as an explicit millisecond
//! parameter — the farm owns no clock — so lease expiry, requeue and
//! heal behaviour are deterministic under test.

use crate::worker::LeaseOffer;
use ncdrf::corpus::Corpus;
use ncdrf::machine::Machine;
use ncdrf::{CacheStats, GridSignature, PartialSweep, Render, ReportFormat, Sweep, SweepShard};
use parking_lot::Mutex;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// A job's grid: the corpus and machines its signature names, built
/// once at submit and shared with certifying deliveries.
type Grid = Arc<(Corpus, Vec<Machine>)>;

/// Farm sizing and cadence knobs.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Maximum number of unfinished (queued + running) jobs; a submit
    /// beyond it is refused with HTTP 429 — the bounded-queue
    /// backpressure contract.
    pub queue_cap: usize,
    /// Maximum grid cells a single job may declare; beyond it a submit
    /// is refused with HTTP 413.
    pub max_cells: usize,
    /// Lease lifetime in milliseconds: a worker that has not delivered
    /// by `claimed_at + lease_ms` is presumed dead and its cells
    /// requeue on the next tick.
    pub lease_ms: u64,
    /// Maximum grid cells handed out per lease.
    pub lease_cells: usize,
    /// Artifact directory: delivered artifacts are persisted here, the
    /// tick's watcher ingests foreign shard files dropped here, GC
    /// deletes per-lease files once a job's consolidated artifact is
    /// cached, and consolidated artifacts found here at boot pre-seed
    /// the re-merge cache. `None` keeps everything in memory.
    pub artifact_dir: Option<PathBuf>,
    /// Certify every delivered artifact before ingesting it: each
    /// healthy cell is re-evaluated on the job's grid under a
    /// certify-mode session (see [`ncdrf::certify_shard_on`]) and
    /// compared against the artifact's claims. A delivery carrying a
    /// cell the certifier rejects is refused with HTTP 422 and mutates
    /// no queue state — the lease stays live, the cells stay accounted
    /// to it, and an honest redelivery is still accepted. Off by
    /// default: certification re-runs the lease's cells on the daemon,
    /// roughly doubling the grid's compute.
    pub certify: bool,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            queue_cap: 8,
            max_cells: 65_536,
            lease_ms: 60_000,
            lease_cells: 8,
            artifact_dir: None,
            certify: false,
        }
    }
}

/// Why the farm refused a request. Each variant maps onto one HTTP
/// status, and refusals never mutate queue state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmError {
    /// Malformed or unreproducible job spec / artifact (HTTP 400).
    BadRequest(String),
    /// Unknown job or lease id (HTTP 404).
    NotFound(String),
    /// The job's report is not complete yet (HTTP 409).
    NotReady(String),
    /// Certification rejected a delivered artifact: a cell's claimed
    /// results could not be re-derived and certified (HTTP 422). The
    /// message names the first bad cell and the violation.
    CertifyRejected(String),
    /// The job's grid exceeds [`FarmConfig::max_cells`] (HTTP 413).
    Oversized {
        /// Cells the spec declared.
        cells: usize,
        /// The configured ceiling.
        max: usize,
    },
    /// The job queue is full (HTTP 429).
    QueueFull {
        /// The configured queue capacity.
        cap: usize,
    },
}

impl FarmError {
    /// The HTTP status this refusal maps to.
    pub fn http_status(&self) -> u16 {
        match self {
            FarmError::BadRequest(_) => 400,
            FarmError::NotFound(_) => 404,
            FarmError::NotReady(_) => 409,
            FarmError::CertifyRejected(_) => 422,
            FarmError::Oversized { .. } => 413,
            FarmError::QueueFull { .. } => 429,
        }
    }
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::BadRequest(m)
            | FarmError::NotFound(m)
            | FarmError::NotReady(m)
            | FarmError::CertifyRejected(m) => {
                write!(f, "{m}")
            }
            FarmError::Oversized { cells, max } => {
                write!(
                    f,
                    "grid declares {cells} cells, the farm accepts at most {max}"
                )
            }
            FarmError::QueueFull { cap } => {
                write!(f, "job queue is full ({cap} unfinished jobs)")
            }
        }
    }
}

impl std::error::Error for FarmError {}

/// A parsed job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Grid preset name (`full`, `fig67`, `fig89`, `table1`).
    pub grid: String,
    /// Corpus name (`small` or `standard`).
    pub corpus: String,
    /// Optional corpus subset (first `N` loops).
    pub take: Option<usize>,
    /// Optional budget-ladder override (replaces the preset's budgets).
    pub budgets: Option<Vec<u32>>,
    /// Optional model-set override (replaces the preset's models):
    /// registry wire names, resolved through [`ncdrf::ModelRegistry`] at
    /// submit time. A name no registered model carries is refused with
    /// HTTP 400 before any queue state changes.
    pub models: Option<Vec<String>>,
    /// Cells to fail deliberately on the job's *initial* issue; the
    /// heal cadence must recover them. Reissues never re-inject.
    pub inject_fail: Vec<u64>,
    /// Persist spill trajectories into the job's artifacts.
    pub persist: bool,
}

impl JobSpec {
    /// Parses a submit body.
    ///
    /// # Errors
    ///
    /// [`FarmError::BadRequest`] naming the offending member.
    pub fn from_json(body: &str) -> Result<JobSpec, FarmError> {
        let bad = |m: &str| FarmError::BadRequest(m.to_owned());
        let v: Value =
            serde_json::from_str(body).map_err(|e| FarmError::BadRequest(format!("{e}")))?;
        if v.as_object().is_none() {
            return Err(bad("job spec is not a JSON object"));
        }
        let str_or = |key: &str, default: &str| -> Result<String, FarmError> {
            match v.get(key) {
                None => Ok(default.to_owned()),
                Some(s) => s
                    .as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| FarmError::BadRequest(format!("`{key}` is not a string"))),
            }
        };
        let take = match v.get("take") {
            None => None,
            Some(n) => Some(
                n.as_u64()
                    .ok_or_else(|| bad("`take` is not a count"))
                    .map(|n| n as usize)?,
            ),
        };
        let budgets = match v.get("budgets") {
            None => None,
            Some(b) => {
                let items = b
                    .as_array()
                    .ok_or_else(|| bad("`budgets` is not an array"))?;
                if items.is_empty() {
                    return Err(bad("`budgets` is empty"));
                }
                Some(
                    items
                        .iter()
                        .map(|i| {
                            i.as_u32()
                                .ok_or_else(|| bad("`budgets` holds a non-u32 entry"))
                        })
                        .collect::<Result<Vec<u32>, FarmError>>()?,
                )
            }
        };
        let models = match v.get("models") {
            None => None,
            Some(m) => {
                let items = m
                    .as_array()
                    .ok_or_else(|| bad("`models` is not an array"))?;
                if items.is_empty() {
                    return Err(bad("`models` is empty"));
                }
                Some(
                    items
                        .iter()
                        .map(|i| {
                            i.as_str()
                                .map(str::to_owned)
                                .ok_or_else(|| bad("`models` holds a non-string entry"))
                        })
                        .collect::<Result<Vec<String>, FarmError>>()?,
                )
            }
        };
        let inject_fail = match v.get("inject_fail") {
            None => Vec::new(),
            Some(b) => b
                .as_array()
                .ok_or_else(|| bad("`inject_fail` is not an array"))?
                .iter()
                .map(|i| {
                    i.as_u64()
                        .ok_or_else(|| bad("`inject_fail` holds a non-index entry"))
                })
                .collect::<Result<Vec<u64>, FarmError>>()?,
        };
        let persist = match v.get("persist_trajectories") {
            None => false,
            Some(p) => p
                .as_bool()
                .ok_or_else(|| bad("`persist_trajectories` is not a boolean"))?,
        };
        Ok(JobSpec {
            grid: str_or("grid", "full")?,
            corpus: str_or("corpus", "small")?,
            take,
            budgets,
            models,
            inject_fail,
            persist,
        })
    }

    /// The signature of the grid this spec names — the job identity the
    /// whole farm (leases, cache, GC) is keyed on.
    ///
    /// # Errors
    ///
    /// [`FarmError::BadRequest`] for unknown presets/corpora, or for a
    /// model-set override naming an unregistered model (the message
    /// carries the offending name).
    pub fn signature(&self) -> Result<GridSignature, FarmError> {
        self.grid().map(|(signature, _)| signature)
    }

    /// The signature of the grid this spec names, and the grid itself.
    fn grid(&self) -> Result<(GridSignature, Grid), FarmError> {
        let corpus = ncdrf::named_corpus(&self.corpus, self.take)
            .ok_or_else(|| FarmError::BadRequest(format!("unknown corpus `{}`", self.corpus)))?;
        let sweep = ncdrf::preset_sweep(&corpus, &self.grid)
            .ok_or_else(|| FarmError::BadRequest(format!("unknown grid `{}`", self.grid)))?;
        let sweep: Sweep<'_> = match &self.budgets {
            Some(b) => sweep.replace_budgets(b.iter().copied()),
            None => sweep,
        };
        let sweep: Sweep<'_> = match &self.models {
            Some(names) => {
                let ids = ncdrf::resolve_models(names)
                    .map_err(|e| FarmError::BadRequest(e.to_string()))?;
                sweep.models(ids)
            }
            None => sweep,
        };
        let signature = sweep.signature();
        let machines = ncdrf::rebuild_machines(&signature)
            .map_err(|e| FarmError::BadRequest(e.to_string()))?;
        Ok((signature, Arc::new((corpus, machines))))
    }
}

/// Life-cycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted; no cells leased yet.
    Queued,
    /// Cells are leased / delivered / healing.
    Running,
    /// Every cell resolved healthy; the merged report is served.
    Complete,
}

impl JobState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Complete => "complete",
        }
    }
}

/// A point-in-time public view of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id (`job-N`).
    pub job: String,
    /// Life-cycle state.
    pub state: JobState,
    /// Total grid cells.
    pub cells: usize,
    /// Cells resolved healthy so far.
    pub resolved: usize,
    /// Cells currently resolved as failed (awaiting heal).
    pub failed: usize,
    /// Cells waiting to be leased.
    pub pending: usize,
    /// Cells held by live leases.
    pub leased: usize,
    /// Heal rounds the tick cadence has started.
    pub heal_rounds: u64,
    /// Whether the job completed instantly from the re-merge cache.
    pub from_cache: bool,
    /// Summed per-cell cache counters of the merged report (complete
    /// jobs only).
    pub scheduling: Option<CacheStats>,
}

/// Receipt returned by [`Farm::submit`].
#[derive(Debug, Clone)]
pub struct SubmitReceipt {
    /// Assigned job id.
    pub job: String,
    /// Total grid cells.
    pub cells: usize,
    /// State right after submit (`Complete` on a cache hit).
    pub state: JobState,
}

/// Receipt returned by [`Farm::deliver`].
#[derive(Debug, Clone)]
pub struct DeliverReceipt {
    /// The job the lease belonged to.
    pub job: String,
    /// Cells resolved healthy after this delivery.
    pub resolved: usize,
    /// Cells still failed or missing after this delivery.
    pub unresolved: usize,
    /// Whether this delivery completed the job.
    pub complete: bool,
}

/// What one [`Farm::tick`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Leases that expired and had their cells requeued.
    pub expired: usize,
    /// Jobs whose failed/missing cells were requeued for healing.
    pub healed: usize,
    /// Artifacts the directory watcher ingested out-of-band.
    pub ingested: usize,
}

struct Lease {
    job: String,
    tasks: Vec<u64>,
    deadline: u64,
    expired: bool,
    delivered: bool,
}

struct Job {
    id: String,
    state: JobState,
    signature: GridSignature,
    cells: usize,
    persist: bool,
    /// Faults not yet injected (consumed by the first leases that cover
    /// them, so heal reissues never re-inject).
    faults: Vec<u64>,
    pending: VecDeque<u64>,
    delivered: Vec<SweepShard>,
    /// Re-merge-cache keys whose artifacts seed this job's descents.
    seed_keys: Vec<String>,
    /// The grid certifying deliveries run on; dropped on completion.
    grid: Option<Grid>,
    heal_rounds: u64,
    from_cache: bool,
    report_json: Option<String>,
    scheduling: Option<CacheStats>,
    /// Per-lease artifact files written for this job (GC'd on
    /// completion, keyed on the job's signature).
    artifact_files: Vec<PathBuf>,
}

impl Job {
    /// Failed-or-missing task set of the current delivery state.
    fn unresolved_set(&self) -> BTreeSet<u64> {
        if self.delivered.is_empty() {
            return (0..self.cells as u64).collect();
        }
        let rec = SweepShard::reconcile(&self.delivered)
            .expect("delivered artifacts were validated on ingest");
        SweepShard::unresolved(std::slice::from_ref(&rec))
            .expect("a reconciled artifact resolves")
            .into_iter()
            .collect()
    }
}

struct FarmState {
    jobs: Vec<Job>,
    next_job: u64,
    next_lease: u64,
    leases: BTreeMap<u64, Lease>,
    /// The incremental re-merge cache: complete consolidated artifacts
    /// keyed on their signature's `Debug` rendering. An exact-signature
    /// resubmit completes instantly from here; a resume-compatible one
    /// (same corpus/machines/options, new budgets) seeds its spill
    /// descents from here.
    cache: BTreeMap<String, SweepShard>,
    /// Files the watcher already ingested (or the farm itself wrote).
    seen_files: BTreeSet<PathBuf>,
}

/// The resident sweep farm. Shared across the HTTP server, the tick
/// loop and any local worker backend via `Arc<Farm>`; all state is
/// behind one mutex (grid evaluation happens in workers, never under
/// the lock).
pub struct Farm {
    config: FarmConfig,
    state: Mutex<FarmState>,
}

/// The cache key of a grid signature.
fn signature_key(sig: &GridSignature) -> String {
    format!("{sig:?}")
}

impl Farm {
    /// Creates a farm. When the config names an artifact directory, any
    /// complete consolidated artifacts already in it pre-seed the
    /// re-merge cache (so a restarted daemon keeps serving finished
    /// grids without recomputing a cell).
    pub fn new(config: FarmConfig) -> Farm {
        let mut cache = BTreeMap::new();
        let mut seen_files = BTreeSet::new();
        if let Some(dir) = &config.artifact_dir {
            if let Ok(found) = ncdrf::scan_artifacts(dir) {
                for (path, shard) in found {
                    let complete = shard.cell_count() == shard.signature().total_tasks()
                        && shard.failure_count() == 0;
                    if complete {
                        cache.insert(signature_key(shard.signature()), shard);
                    }
                    seen_files.insert(path);
                }
            }
        }
        let farm = Farm {
            config,
            state: Mutex::new(FarmState {
                jobs: Vec::new(),
                next_job: 0,
                next_lease: 0,
                leases: BTreeMap::new(),
                cache,
                seen_files,
            }),
        };
        // Diagnostic name for model-checker traces (no-op otherwise).
        parking_lot::name_mutex(&farm.state, "farm.state");
        farm
    }

    /// The farm's configuration.
    pub fn config(&self) -> &FarmConfig {
        &self.config
    }

    /// Submits a job. On an exact re-merge-cache hit the job completes
    /// instantly — byte-identical report, zero cells recomputed; on a
    /// resume-compatible hit (same corpus/machines/options, different
    /// budgets) the cached artifact's persisted trajectories seed the
    /// new job's spill descents.
    ///
    /// # Errors
    ///
    /// [`FarmError::BadRequest`] (malformed spec), [`FarmError::Oversized`]
    /// (grid beyond [`FarmConfig::max_cells`]) or [`FarmError::QueueFull`]
    /// — none of which mutate queue state.
    pub fn submit(&self, body: &str, _now: u64) -> Result<SubmitReceipt, FarmError> {
        let spec = JobSpec::from_json(body)?;
        let (signature, grid) = spec.grid()?;
        let cells = signature.total_tasks();
        if cells == 0 {
            return Err(FarmError::BadRequest("the grid has no cells".to_owned()));
        }
        if cells > self.config.max_cells {
            return Err(FarmError::Oversized {
                cells,
                max: self.config.max_cells,
            });
        }
        if let Some(&t) = spec.inject_fail.iter().find(|&&t| t >= cells as u64) {
            return Err(FarmError::BadRequest(format!(
                "`inject_fail` names cell {t}, the grid has {cells}"
            )));
        }
        let mut state = self.state.lock();
        let unfinished = state
            .jobs
            .iter()
            .filter(|j| j.state != JobState::Complete)
            .count();
        if unfinished >= self.config.queue_cap {
            return Err(FarmError::QueueFull {
                cap: self.config.queue_cap,
            });
        }
        state.next_job += 1;
        let id = format!("job-{}", state.next_job);
        let key = signature_key(&signature);

        if let Some(cached) = state.cache.get(&key) {
            // Exact signature: serve the cached consolidation without
            // recomputing a cell. The report is the same merge of the
            // same artifact, hence byte-identical to the original run.
            let merged = SweepShard::merge(std::slice::from_ref(cached))
                .expect("cached artifacts are complete");
            let job = Job {
                id: id.clone(),
                state: JobState::Complete,
                signature,
                cells,
                persist: spec.persist,
                faults: Vec::new(),
                pending: VecDeque::new(),
                delivered: vec![cached.clone()],
                seed_keys: Vec::new(),
                grid: None,
                heal_rounds: 0,
                from_cache: true,
                scheduling: Some(merged.report.scheduling),
                report_json: Some(merged.render(ReportFormat::Json)),
                artifact_files: Vec::new(),
            };
            state.jobs.push(job);
            return Ok(SubmitReceipt {
                job: id,
                cells,
                state: JobState::Complete,
            });
        }

        let seed_keys: Vec<String> = state
            .cache
            .iter()
            .filter(|(_, shard)| {
                signature.resumes(shard.signature()) && shard.trajectory_count() > 0
            })
            .map(|(k, _)| k.clone())
            .collect();
        let job = Job {
            id: id.clone(),
            state: JobState::Queued,
            signature,
            cells,
            persist: spec.persist,
            faults: spec.inject_fail.clone(),
            pending: (0..cells as u64).collect(),
            delivered: Vec::new(),
            seed_keys,
            grid: Some(grid),
            heal_rounds: 0,
            from_cache: false,
            scheduling: None,
            report_json: None,
            artifact_files: Vec::new(),
        };
        state.jobs.push(job);
        Ok(SubmitReceipt {
            job: id,
            cells,
            state: JobState::Queued,
        })
    }

    /// A snapshot of one job.
    ///
    /// # Errors
    ///
    /// [`FarmError::NotFound`] for an unknown id.
    pub fn status(&self, job_id: &str) -> Result<JobStatus, FarmError> {
        let state = self.state.lock();
        let job = state
            .jobs
            .iter()
            .find(|j| j.id == job_id)
            .ok_or_else(|| FarmError::NotFound(format!("unknown job `{job_id}`")))?;
        let un = job.unresolved_set();
        let failed = if job.delivered.is_empty() {
            0
        } else {
            SweepShard::reconcile(&job.delivered)
                .expect("delivered artifacts were validated on ingest")
                .failure_count()
        };
        let leased = state
            .leases
            .values()
            .filter(|l| l.job == job.id && !l.expired && !l.delivered)
            .map(|l| l.tasks.len())
            .sum();
        Ok(JobStatus {
            job: job.id.clone(),
            state: job.state,
            cells: job.cells,
            resolved: job.cells - un.len(),
            failed,
            pending: job.pending.len(),
            leased,
            heal_rounds: job.heal_rounds,
            from_cache: job.from_cache,
            scheduling: job.scheduling,
        })
    }

    /// Snapshots of all jobs, in submission order.
    pub fn jobs(&self) -> Vec<JobStatus> {
        let ids: Vec<String> = {
            let state = self.state.lock();
            state.jobs.iter().map(|j| j.id.clone()).collect()
        };
        ids.iter()
            .map(|id| self.status(id).expect("job listed a moment ago"))
            .collect()
    }

    /// Farm-wide counters: `(jobs, unfinished_jobs, live_leases,
    /// cached_grids)`.
    pub fn stats(&self) -> (usize, usize, usize, usize) {
        let state = self.state.lock();
        let unfinished = state
            .jobs
            .iter()
            .filter(|j| j.state != JobState::Complete)
            .count();
        let live = state
            .leases
            .values()
            .filter(|l| !l.expired && !l.delivered)
            .count();
        (state.jobs.len(), unfinished, live, state.cache.len())
    }

    /// The merged report of a complete job — the exact bytes
    /// `shard_runner merge --out` would write, proven bit-identical to
    /// `run_sequential` by the farm test suite and the `farm-verify` CI
    /// job.
    ///
    /// # Errors
    ///
    /// [`FarmError::NotFound`] / [`FarmError::NotReady`].
    pub fn report(&self, job_id: &str) -> Result<String, FarmError> {
        let state = self.state.lock();
        let job = state
            .jobs
            .iter()
            .find(|j| j.id == job_id)
            .ok_or_else(|| FarmError::NotFound(format!("unknown job `{job_id}`")))?;
        job.report_json
            .clone()
            .ok_or_else(|| FarmError::NotReady(format!("job `{job_id}` is not complete")))
    }

    /// Claims a lease for a worker: up to [`FarmConfig::lease_cells`]
    /// pending cells of the oldest unfinished job, with any not-yet-
    /// injected faults that fall inside the slice (consumed here, so a
    /// heal reissue of the same cells never re-injects), the grid
    /// signature the worker rebuilds the sweep from, and the seed cells
    /// of the leased tasks: from each resume-compatible cached artifact,
    /// the leased cells that persist trajectories (an artifact with none
    /// is left out). `None` when no job has pending cells.
    pub fn claim(&self, worker: &str, now: u64) -> Option<LeaseOffer> {
        let mut state = self.state.lock();
        let state = &mut *state;
        let job = state
            .jobs
            .iter_mut()
            .find(|j| j.state != JobState::Complete && !j.pending.is_empty())?;
        let take = self.config.lease_cells.max(1).min(job.pending.len());
        let tasks: Vec<u64> = job.pending.drain(..take).collect();
        let faults: Vec<u64> = job
            .faults
            .iter()
            .copied()
            .filter(|t| tasks.contains(t))
            .collect();
        job.faults.retain(|t| !faults.contains(t));
        job.state = JobState::Running;
        // Seed order is cache order: the first seed naming a task wins.
        let seeds: Vec<SweepShard> = job
            .seed_keys
            .iter()
            .filter_map(|k| state.cache.get(k))
            .map(|cached| cached.restricted_to(&tasks))
            .filter(|seed| seed.cell_count() > 0)
            .collect();
        state.next_lease += 1;
        let lease = state.next_lease;
        let deadline = now + self.config.lease_ms;
        state.leases.insert(
            lease,
            Lease {
                job: job.id.clone(),
                tasks: tasks.clone(),
                deadline,
                expired: false,
                delivered: false,
            },
        );
        let _ = worker;
        Some(LeaseOffer {
            lease,
            job: job.id.clone(),
            tasks,
            faults,
            persist: job.persist,
            deadline,
            signature: job.signature.clone(),
            seeds,
        })
    }

    /// Ingests a worker's artifact for a lease. Deliveries are
    /// **at-least-once**: an expired lease's late artifact is still
    /// accepted (its cells may also have been re-leased, and
    /// [`SweepShard::reconcile`]'s permutation-invariant winner rule
    /// guarantees the duplicates collapse to one counted cell).
    ///
    /// # Errors
    ///
    /// [`FarmError::NotFound`] for a never-issued lease,
    /// [`FarmError::BadRequest`] for an artifact that does not match
    /// the job's grid (checked before any certification),
    /// [`FarmError::CertifyRejected`] when [`FarmConfig::certify`] is set
    /// and a claimed cell cannot be re-derived and certified — none of
    /// which mutate farm state.
    pub fn deliver(
        &self,
        lease_id: u64,
        artifact: SweepShard,
        now: u64,
    ) -> Result<DeliverReceipt, FarmError> {
        if self.config.certify {
            // Certification re-evaluates the artifact's cells — real grid
            // work — so it runs on the job's grid outside the state lock,
            // like the workers do. A rejection is a pure refusal: no lease
            // or queue state has been touched.
            let grid = {
                let mut state = self.state.lock();
                let state = &mut *state;
                let (_, job) = lease_job(&mut state.leases, &mut state.jobs, lease_id, &artifact)?;
                Arc::clone(job.grid.as_ref().expect("a job with leases keeps its grid"))
            };
            let (corpus, machines) = &*grid;
            let faults = ncdrf::certify_shard_on(
                &artifact,
                corpus,
                machines,
                Arc::new(ncdrf_certify::ScheduleCertifier),
            );
            if let Some(first) = faults.first() {
                return Err(FarmError::CertifyRejected(format!(
                    "certification rejected {} of {} delivered cells; first: {first}",
                    faults.len(),
                    artifact.cell_count(),
                )));
            }
        }
        let mut state = self.state.lock();
        let state = &mut *state;
        let (lease, job) = lease_job(&mut state.leases, &mut state.jobs, lease_id, &artifact)?;
        // Validate the artifact alone (in-grid cells etc.) before any
        // state changes, so a refused delivery mutates nothing.
        SweepShard::reconcile(std::slice::from_ref(&artifact))
            .map_err(|e| FarmError::BadRequest(format!("artifact does not reconcile: {e}")))?;

        lease.delivered = true;
        if let Some(dir) = &self.config.artifact_dir {
            let path = dir.join(format!("{}-lease-{}.json", job.id, lease_id));
            if ncdrf::write_artifact(&path, &artifact.render(ReportFormat::Json)).is_ok() {
                job.artifact_files.push(path.clone());
                state.seen_files.insert(path);
            }
        }
        job.delivered.push(artifact);
        let un = job.unresolved_set();
        job.pending.retain(|t| un.contains(t));
        let resolved = job.cells - un.len();
        let complete = un.is_empty();
        let job_id = job.id.clone();
        if complete {
            Self::finish_job(&self.config, state, &job_id);
        }
        let _ = now;
        Ok(DeliverReceipt {
            job: job_id,
            resolved,
            unresolved: un.len(),
            complete,
        })
    }

    /// One scheduler tick: expires overdue leases (requeueing their
    /// undelivered cells), lets the directory watcher ingest artifacts
    /// that appeared out-of-band, and runs the heal cadence — every
    /// failed or lost cell that is neither pending nor held by a live
    /// lease is requeued, exactly the `unresolved → reissue → merge`
    /// protocol the CLI heal pipeline uses.
    pub fn tick(&self, now: u64) -> TickReport {
        let mut report = TickReport::default();
        let mut state = self.state.lock();
        let state = &mut *state;

        // 1. Lease expiry: a dead worker's cells go back in the queue.
        for (_, lease) in state.leases.iter_mut() {
            if !lease.expired && !lease.delivered && lease.deadline <= now {
                lease.expired = true;
                report.expired += 1;
                if let Some(job) = state.jobs.iter_mut().find(|j| j.id == lease.job) {
                    if job.state != JobState::Complete {
                        let un = job.unresolved_set();
                        for &t in lease.tasks.iter().rev() {
                            if un.contains(&t) && !job.pending.contains(&t) {
                                job.pending.push_front(t);
                            }
                        }
                    }
                }
            }
        }

        // 2. Watcher: ingest shard files that appeared in the artifact
        // directory without passing through the HTTP API (a worker
        // writing straight to shared storage).
        if let Some(dir) = &self.config.artifact_dir {
            if let Ok(found) = ncdrf::scan_artifacts(dir) {
                for (path, shard) in found {
                    if state.seen_files.contains(&path) {
                        continue;
                    }
                    state.seen_files.insert(path.clone());
                    let Some(job) = state.jobs.iter_mut().find(|j| {
                        j.state != JobState::Complete && j.signature == *shard.signature()
                    }) else {
                        continue;
                    };
                    if SweepShard::reconcile(std::slice::from_ref(&shard)).is_err() {
                        continue;
                    }
                    job.artifact_files.push(path);
                    job.delivered.push(shard);
                    let un = job.unresolved_set();
                    job.pending.retain(|t| un.contains(t));
                    report.ingested += 1;
                    if un.is_empty() {
                        let job_id = job.id.clone();
                        Self::finish_job(&self.config, state, &job_id);
                    }
                }
            }
        }

        // 3. Heal cadence: requeue failed/lost cells nobody is working
        // on.
        for i in 0..state.jobs.len() {
            let job = &state.jobs[i];
            if job.state != JobState::Running {
                continue;
            }
            let mut un = job.unresolved_set();
            for t in &job.pending {
                un.remove(t);
            }
            for lease in state.leases.values() {
                if lease.job == job.id && !lease.expired && !lease.delivered {
                    for t in &lease.tasks {
                        un.remove(t);
                    }
                }
            }
            if un.is_empty() {
                continue;
            }
            let mut heal: Vec<u64> = un.into_iter().collect();
            heal.sort_unstable();
            let job = &mut state.jobs[i];
            job.pending.extend(heal);
            job.heal_rounds += 1;
            report.healed += 1;
        }
        report
    }

    /// Completes a job: caches its consolidated artifact under the grid
    /// signature (the incremental re-merge cache), renders and stores
    /// the merged report, retires its leases, persists the
    /// consolidation and GC's the per-lease artifacts of this signature.
    fn finish_job(config: &FarmConfig, state: &mut FarmState, job_id: &str) {
        let job = state
            .jobs
            .iter_mut()
            .find(|j| j.id == job_id)
            .expect("finishing a known job");
        let consolidated =
            SweepShard::reconcile(&job.delivered).expect("delivered artifacts reconcile");
        let merged = SweepShard::merge(std::slice::from_ref(&consolidated))
            .expect("a complete consolidation merges");
        debug_assert!(merged.is_complete());
        job.state = JobState::Complete;
        job.pending.clear();
        job.scheduling = Some(merged.report.scheduling);
        job.report_json = Some(merged.render(ReportFormat::Json));
        job.delivered = vec![consolidated.clone()];
        job.grid = None;

        // Artifact GC, keyed on the signature: the consolidated
        // artifact replaces every per-lease file of this grid.
        if let Some(dir) = &config.artifact_dir {
            let path = dir.join(format!("consolidated-{job_id}.json"));
            if ncdrf::write_artifact(&path, &consolidated.render(ReportFormat::Json)).is_ok() {
                state.seen_files.insert(path);
            }
        }
        let key = signature_key(&job.signature);
        let files: Vec<PathBuf> = std::mem::take(&mut job.artifact_files);
        let lease_ids: Vec<u64> = state
            .leases
            .iter()
            .filter(|(_, l)| l.job == job_id)
            .map(|(&id, _)| id)
            .collect();
        for id in lease_ids {
            state.leases.remove(&id);
        }
        state.cache.insert(key, consolidated);
        for path in files {
            let _ = std::fs::remove_file(&path);
            state.seen_files.remove(&path);
        }
    }
}

/// The lease `lease_id` and its job, refusing an artifact whose
/// signature is not the job's.
fn lease_job<'s>(
    leases: &'s mut BTreeMap<u64, Lease>,
    jobs: &'s mut [Job],
    lease_id: u64,
    artifact: &SweepShard,
) -> Result<(&'s mut Lease, &'s mut Job), FarmError> {
    let lease = leases
        .get_mut(&lease_id)
        .ok_or_else(|| FarmError::NotFound(format!("unknown lease `{lease_id}`")))?;
    let job = jobs
        .iter_mut()
        .find(|j| j.id == lease.job)
        .expect("a lease's job outlives it");
    if *artifact.signature() != job.signature {
        return Err(FarmError::BadRequest(
            "artifact signature does not match the lease's job".to_owned(),
        ));
    }
    Ok((lease, job))
}

/// One merged [`PartialSweep`], parsed back from a farm report body —
/// a convenience for tests and clients that want values, not bytes.
///
/// # Errors
///
/// The underlying parse error, stringified.
pub fn parse_report(body: &str) -> Result<PartialSweep, String> {
    ncdrf::parse_partial_sweep(body).map_err(|e| e.to_string())
}
