//! The worker side of the lease protocol: the offer a worker pulls
//! from the farm, its wire round-trip, and the evaluation that turns an
//! offer into a delivered shard artifact.
//!
//! An offer carries only what its cells use: the grid signature (the
//! worker rebuilds a `-takeN` corpus as a prefix, without generating
//! the loops it drops) and the seed cells of the leased tasks. Nested
//! payloads (the signature, the seeds) travel as JSON-encoded strings
//! inside the offer, so both sides reuse the core renderers/parsers
//! verbatim and the bytes stay exact — the vendored JSON stand-in
//! parses integers exactly and never re-renders floats.

use ncdrf::json::{json_array, json_string, JsonObject};
use ncdrf::{GridSignature, Provenance, Render, ReportFormat, Sweep, SweepShard};
use ncdrf_exec::Pool;
use std::sync::Arc;

/// One unit of leased work: which cells of which grid to evaluate,
/// which of them to fail deliberately, and the seed cells whose
/// persisted trajectories warm-start the leased descents.
#[derive(Debug, Clone)]
pub struct LeaseOffer {
    /// Lease id — quoted back on delivery.
    pub lease: u64,
    /// The job the cells belong to.
    pub job: String,
    /// Linear task indices to evaluate.
    pub tasks: Vec<u64>,
    /// Subset of `tasks` to fail deliberately (fault injection).
    pub faults: Vec<u64>,
    /// Persist spill trajectories into the artifact.
    pub persist: bool,
    /// Farm-clock millisecond deadline; past it the lease may requeue.
    pub deadline: u64,
    /// The grid to rebuild the sweep from.
    pub signature: GridSignature,
    /// Seed cells for the leased tasks: from each resume-compatible
    /// cached artifact, a heal artifact holding the leased cells that
    /// persist trajectories. The first seed naming a task wins.
    pub seeds: Vec<SweepShard>,
}

impl LeaseOffer {
    /// Renders the offer for the wire.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.integer("lease", u128::from(self.lease));
        o.string("job", &self.job);
        o.raw("tasks", &json_array(self.tasks.iter().map(u64::to_string)));
        o.raw(
            "faults",
            &json_array(self.faults.iter().map(u64::to_string)),
        );
        o.boolean("persist", self.persist);
        o.integer("deadline", u128::from(self.deadline));
        o.string("signature", &ncdrf::render_grid_signature(&self.signature));
        o.raw(
            "seeds",
            &json_array(
                self.seeds
                    .iter()
                    .map(|s| json_string(&s.render(ReportFormat::Json))),
            ),
        );
        o.finish()
    }

    /// Parses an offer off the wire.
    ///
    /// # Errors
    ///
    /// A message naming the malformed member.
    pub fn from_json(body: &str) -> Result<LeaseOffer, String> {
        let v = serde_json::from_str(body).map_err(|e| format!("offer: {e}"))?;
        let u64s = |key: &str| -> Result<Vec<u64>, String> {
            v.get(key)
                .and_then(|a| a.as_array())
                .ok_or_else(|| format!("offer: `{key}` is not an array"))?
                .iter()
                .map(|i| {
                    i.as_u64()
                        .ok_or_else(|| format!("offer: `{key}` holds a non-index entry"))
                })
                .collect()
        };
        let signature = v
            .get("signature")
            .and_then(|s| s.as_str())
            .ok_or_else(|| "offer: `signature` is not a string".to_owned())?;
        let signature =
            ncdrf::parse_grid_signature(signature).map_err(|e| format!("offer signature: {e}"))?;
        let seeds = v
            .get("seeds")
            .and_then(|a| a.as_array())
            .ok_or_else(|| "offer: `seeds` is not an array".to_owned())?
            .iter()
            .map(|s| {
                let text = s
                    .as_str()
                    .ok_or_else(|| "offer: `seeds` holds a non-string entry".to_owned())?;
                ncdrf::parse_sweep_shard(text).map_err(|e| format!("offer seed: {e}"))
            })
            .collect::<Result<Vec<SweepShard>, String>>()?;
        Ok(LeaseOffer {
            lease: v
                .get("lease")
                .and_then(|n| n.as_u64())
                .ok_or_else(|| "offer: `lease` is not an id".to_owned())?,
            job: v
                .get("job")
                .and_then(|s| s.as_str())
                .ok_or_else(|| "offer: `job` is not a string".to_owned())?
                .to_owned(),
            tasks: u64s("tasks")?,
            faults: u64s("faults")?,
            persist: v
                .get("persist")
                .and_then(|b| b.as_bool())
                .ok_or_else(|| "offer: `persist` is not a boolean".to_owned())?,
            deadline: v
                .get("deadline")
                .and_then(|n| n.as_u64())
                .ok_or_else(|| "offer: `deadline` is not a count".to_owned())?,
            signature,
            seeds,
        })
    }
}

/// Evaluates a lease: rebuilds the sweep from the offer's grid
/// signature, evaluates exactly the leased cells (injecting the
/// requested faults, importing any seed trajectories) and stamps the
/// resulting artifact with the job/lease provenance.
///
/// # Errors
///
/// A message when the signature cannot be rebuilt (foreign corpus or
/// machine) or the cells cannot be issued.
pub fn evaluate_lease(offer: &LeaseOffer, pool: Option<Arc<Pool>>) -> Result<SweepShard, String> {
    let (corpus, machines) = ncdrf::rebuild_grid(&offer.signature).map_err(|e| e.to_string())?;
    let mut sweep: Sweep<'_> = ncdrf::sweep_for_signature(&offer.signature, &corpus, machines)
        .persist_trajectories(offer.persist);
    if let Some(pool) = pool {
        sweep = sweep.pool(pool);
    }
    let shard = sweep
        .issue_cells(&offer.tasks, &offer.faults, &offer.seeds)
        .map_err(|e| e.to_string())?;
    Ok(shard.with_provenance(Provenance {
        job: offer.job.clone(),
        lease: offer.lease,
    }))
}

/// Milliseconds since the Unix epoch — the daemon's wall clock, read
/// through the injected-clock abstraction ([`crate::clock::Clock`]).
/// The farm itself never reads a clock; callers pass this in. External
/// workers that poll a remote farm use this convenience; anything that
/// should be testable with steered time takes a `Clock` instead.
pub fn now_millis() -> u64 {
    crate::clock::Clock::System.now_ms()
}
