//! The farm's HTTP API as a pure function: `(method, path, body, now)`
//! in, `(status, body)` out. The TCP server in [`crate::http`] is a
//! thin shell around [`route`], so every endpoint — success and error
//! paths alike — is testable without opening a socket.
//!
//! | Endpoint | Verb | Reply |
//! |---|---|---|
//! | `/jobs` | POST | `202` receipt — submit a job spec |
//! | `/jobs` | GET | `200` array of job statuses |
//! | `/jobs/<id>` | GET | `200` status, `404` unknown |
//! | `/jobs/<id>/report` | GET | `200` merged report, `409` not ready |
//! | `/leases` | POST | `200` lease offer, `204` no pending work |
//! | `/leases/<id>/artifact` | POST | `200` receipt — deliver a shard |
//! | `/farm` | GET | `200` farm-wide counters |
//!
//! Refusals are `{"error": "..."}` with the status from
//! [`FarmError::http_status`]: 400 malformed, 404 unknown id, 409 not
//! ready, 413 oversized grid, 422 certification rejected the delivered
//! artifact (certify-mode farms only), 429 queue full.

use crate::farm::{Farm, FarmError, JobStatus};
use ncdrf::json::{json_array, JsonObject};
use ncdrf::CacheStats;

fn scheduling_json(stats: &CacheStats) -> String {
    let mut o = JsonObject::new();
    o.integer("hits", u128::from(stats.hits));
    o.integer("misses", u128::from(stats.misses));
    o.integer("traj_hits", u128::from(stats.traj_hits));
    o.integer("traj_resumes", u128::from(stats.traj_resumes));
    o.integer("spill_steps", u128::from(stats.spill_steps));
    o.finish()
}

fn status_json(s: &JobStatus) -> String {
    let mut o = JsonObject::new();
    o.string("job", &s.job);
    o.string("state", s.state.name());
    o.integer("cells", s.cells as u128);
    o.integer("resolved", s.resolved as u128);
    o.integer("failed", s.failed as u128);
    o.integer("pending", s.pending as u128);
    o.integer("leased", s.leased as u128);
    o.integer("heal_rounds", u128::from(s.heal_rounds));
    o.boolean("from_cache", s.from_cache);
    if let Some(stats) = &s.scheduling {
        o.raw("scheduling", &scheduling_json(stats));
    }
    o.finish()
}

/// A `{"error": "..."}` body.
fn error_body(message: &str) -> String {
    let mut o = JsonObject::new();
    o.string("error", message);
    o.finish()
}

fn refuse(e: &FarmError) -> (u16, String) {
    (e.http_status(), error_body(&e.to_string()))
}

/// Dispatches one request against the farm. Unknown paths return 404,
/// wrong verbs on known paths 405.
pub fn route(farm: &Farm, method: &str, path: &str, body: &str, now: u64) -> (u16, String) {
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (method, segments.as_slice()) {
        ("POST", ["jobs"]) => match farm.submit(body, now) {
            Ok(r) => {
                let mut o = JsonObject::new();
                o.string("job", &r.job);
                o.integer("cells", r.cells as u128);
                o.string("state", r.state.name());
                (202, o.finish())
            }
            Err(e) => refuse(&e),
        },
        ("GET", ["jobs"]) => (200, json_array(farm.jobs().iter().map(status_json))),
        ("GET", ["jobs", id]) => match farm.status(id) {
            Ok(s) => (200, status_json(&s)),
            Err(e) => refuse(&e),
        },
        ("GET", ["jobs", id, "report"]) => match farm.report(id) {
            Ok(report) => (200, report),
            Err(e) => refuse(&e),
        },
        ("POST", ["leases"]) => match farm.claim(body.trim(), now) {
            Some(offer) => (200, offer.to_json()),
            None => (204, String::new()),
        },
        ("POST", ["leases", id, "artifact"]) => {
            let Ok(lease_id) = id.parse::<u64>() else {
                return (404, error_body(&format!("unknown lease `{id}`")));
            };
            let artifact = match ncdrf::parse_sweep_shard(body) {
                Ok(a) => a,
                Err(e) => return (400, error_body(&format!("artifact: {e}"))),
            };
            match farm.deliver(lease_id, artifact, now) {
                Ok(r) => {
                    let mut o = JsonObject::new();
                    o.string("job", &r.job);
                    o.integer("resolved", r.resolved as u128);
                    o.integer("unresolved", r.unresolved as u128);
                    o.boolean("complete", r.complete);
                    (200, o.finish())
                }
                Err(e) => refuse(&e),
            }
        }
        ("GET", ["farm"]) => {
            let (jobs, unfinished, leases, cached) = farm.stats();
            let mut o = JsonObject::new();
            o.integer("jobs", jobs as u128);
            o.integer("unfinished", unfinished as u128);
            o.integer("live_leases", leases as u128);
            o.integer("cached_grids", cached as u128);
            o.integer("queue_cap", farm.config().queue_cap as u128);
            o.integer("max_cells", farm.config().max_cells as u128);
            (200, o.finish())
        }
        (_, ["jobs" | "leases" | "farm", ..]) => (
            405,
            error_body(&format!("{method} is not supported on {path}")),
        ),
        _ => (404, error_body(&format!("no such endpoint: {path}"))),
    }
}
