//! The farm API's refusal paths, exercised through the same pure
//! `route()` the HTTP server wraps: malformed job JSON, unknown ids,
//! oversized grids and a full queue each produce their own status code
//! — and none of them mutates queue state; a certifying farm refuses a
//! foreign signature before it certifies anything. Plus the re-merge
//! cache: exact resubmits complete instantly with identical bytes, and
//! budget-extension resubmits seed their spill descents from the
//! cached trajectories, each lease carrying only its own tasks' seed
//! cells.

use ncdrf::{Render, ReportFormat, SweepShard};
use ncdrf_farm::api::route;
use ncdrf_farm::{evaluate_lease, Farm, FarmConfig, JobSpec, JobState, LeaseOffer};

fn farm() -> Farm {
    farm_with(64, false)
}

fn farm_with(lease_cells: usize, certify: bool) -> Farm {
    Farm::new(FarmConfig {
        queue_cap: 1,
        max_cells: 16,
        lease_ms: 1_000,
        lease_cells,
        artifact_dir: None,
        certify,
    })
}

/// `(jobs, unfinished, live leases, cached grids)` — the mutation
/// canary: refusals must leave it untouched.
fn stats(farm: &Farm) -> (usize, usize, usize, usize) {
    farm.stats()
}

const SPEC: &str = r#"{"grid":"full","corpus":"small","take":2}"#;

/// Runs every pending lease of the farm to completion, ticking the heal
/// cadence until the job count stabilises.
fn drain(farm: &Farm, now: u64) -> u64 {
    drain_with(farm, now, |_, _| {})
}

/// [`drain`], showing each offer and its delivered artifact to `seen`.
fn drain_with(farm: &Farm, mut now: u64, mut seen: impl FnMut(&LeaseOffer, &SweepShard)) -> u64 {
    for _ in 0..16 {
        now += 1;
        farm.tick(now);
        let mut worked = false;
        while let Some(offer) = farm.claim("drain", now) {
            let artifact = evaluate_lease(&offer, None).unwrap();
            seen(&offer, &artifact);
            farm.deliver(offer.lease, artifact, now).unwrap();
            worked = true;
        }
        if !worked && farm.jobs().iter().all(|j| j.state == JobState::Complete) {
            break;
        }
    }
    now
}

/// Runs `f` on a thread with a 2 MiB stack, the size of a farm
/// connection thread's default stack.
fn on_connection_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

/// A job body nested 10,000 deep is refused with a named 400 instead of
/// overflowing the stack it is parsed on, and the farm then accepts a
/// valid job as if nothing happened.
#[test]
fn deeply_nested_job_json_is_400_and_the_farm_still_serves() {
    let (before, refused, after, accepted) = on_connection_stack(|| {
        let farm = farm();
        let before = stats(&farm);
        let deep = r#"{"grid":"#.to_owned() + &"[".repeat(10_000) + &"]".repeat(10_000) + "}";
        let refused = route(&farm, "POST", "/jobs", &deep, 0);
        let after = stats(&farm);
        let accepted = route(&farm, "POST", "/jobs", SPEC, 1);
        (before, refused, after, accepted)
    });
    assert_eq!(refused.0, 400, "{}", refused.1);
    assert!(
        refused.1.contains("recursion limit exceeded"),
        "{}",
        refused.1
    );
    assert_eq!(before, after, "a refusal mutates nothing");
    assert_eq!(accepted.0, 202, "{}", accepted.1);
}

#[test]
fn malformed_job_json_is_400_and_mutates_nothing() {
    let farm = farm();
    let before = stats(&farm);
    for body in [
        "",
        "not json",
        "{\"grid\":",
        "[1,2,3]",
        r#"{"grid":42}"#,
        r#"{"grid":"full","take":"three"}"#,
        r#"{"grid":"full","budgets":[]}"#,
        r#"{"grid":"full","budgets":["a"]}"#,
        r#"{"grid":"no-such-grid"}"#,
        r#"{"corpus":"no-such-corpus"}"#,
        r#"{"grid":"full","corpus":"small","take":2,"inject_fail":[99]}"#,
        r#"{"grid":"full","corpus":"small","take":2,"persist_trajectories":"yes"}"#,
    ] {
        let (status, reply) = route(&farm, "POST", "/jobs", body, 0);
        assert_eq!(status, 400, "body: {body} -> {reply}");
        assert!(reply.contains("\"error\""), "body: {body}");
    }
    assert_eq!(stats(&farm), before, "refusals must not enqueue anything");
}

#[test]
fn unknown_ids_are_404_and_mutate_nothing() {
    let farm = farm();
    route(&farm, "POST", "/jobs", SPEC, 0);
    let before = stats(&farm);

    let (status, _) = route(&farm, "GET", "/jobs/job-99", "", 0);
    assert_eq!(status, 404);
    let (status, _) = route(&farm, "GET", "/jobs/job-99/report", "", 0);
    assert_eq!(status, 404);
    let (status, _) = route(&farm, "POST", "/leases/not-a-number/artifact", "{}", 0);
    assert_eq!(status, 404);
    let (status, _) = route(&farm, "GET", "/no/such/endpoint", "", 0);
    assert_eq!(status, 404);
    let (status, _) = route(&farm, "DELETE", "/jobs", "", 0);
    assert_eq!(status, 405);

    assert_eq!(stats(&farm), before);
    // The queued job is untouched: still all cells pending.
    let status = farm.status("job-1").unwrap();
    assert_eq!(status.state, JobState::Queued);
    assert_eq!(status.pending, status.cells);
}

#[test]
fn queued_report_is_409_not_ready() {
    let farm = farm();
    route(&farm, "POST", "/jobs", SPEC, 0);
    let (status, reply) = route(&farm, "GET", "/jobs/job-1/report", "", 0);
    assert_eq!(status, 409, "{reply}");
    assert!(reply.contains("not complete"));
}

#[test]
fn oversized_grid_is_413_and_mutates_nothing() {
    let farm = farm(); // max_cells = 16
    let before = stats(&farm);
    let (status, reply) = route(
        &farm,
        "POST",
        "/jobs",
        r#"{"grid":"full","corpus":"small","take":12}"#, // 2 machines x 12 loops
        0,
    );
    assert_eq!(status, 413, "{reply}");
    assert!(reply.contains("at most 16"));
    assert_eq!(stats(&farm), before);
}

#[test]
fn full_queue_is_429_and_mutates_nothing() {
    let farm = farm(); // queue_cap = 1
    let (status, _) = route(&farm, "POST", "/jobs", SPEC, 0);
    assert_eq!(status, 202);
    let before = stats(&farm);

    let (status, reply) = route(&farm, "POST", "/jobs", SPEC, 0);
    assert_eq!(status, 429, "{reply}");
    assert!(reply.contains("full"));
    assert_eq!(stats(&farm), before, "a refused submit must not enqueue");

    // Draining the queue reopens it.
    drain(&farm, 0);
    let (status, _) = route(&farm, "POST", "/jobs", SPEC, 100);
    assert_eq!(status, 202);
}

#[test]
fn foreign_or_corrupt_artifact_is_refused_without_ingesting() {
    let farm = farm();
    route(&farm, "POST", "/jobs", SPEC, 0);
    let offer_body = {
        let (status, body) = route(&farm, "POST", "/leases", "w", 1);
        assert_eq!(status, 200);
        body
    };
    let offer = LeaseOffer::from_json(&offer_body).unwrap();
    let before = farm.status("job-1").unwrap();

    // Not an artifact at all.
    let (status, reply) = route(
        &farm,
        "POST",
        &format!("/leases/{}/artifact", offer.lease),
        "{\"kind\":\"nope\"}",
        2,
    );
    assert_eq!(status, 400, "{reply}");

    // A well-formed artifact for a DIFFERENT grid.
    let foreign_spec =
        ncdrf_farm::JobSpec::from_json(r#"{"grid":"fig89","corpus":"small","take":2}"#).unwrap();
    let foreign_sig = foreign_spec.signature().unwrap();
    let (corpus, machines) = ncdrf::rebuild_grid(&foreign_sig).unwrap();
    let foreign = ncdrf::sweep_for_signature(&foreign_sig, &corpus, machines)
        .issue_cells(&[0], &[], &[])
        .unwrap();
    let (status, reply) = route(
        &farm,
        "POST",
        &format!("/leases/{}/artifact", offer.lease),
        &foreign.render(ReportFormat::Json),
        3,
    );
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("does not match"));

    // Neither refusal ingested anything.
    let after = farm.status("job-1").unwrap();
    assert_eq!(after.resolved, before.resolved);
    assert_eq!(after.failed, before.failed);
    assert_eq!(after.pending, before.pending);

    // A genuine artifact delivered to a never-issued lease is 404.
    let artifact = evaluate_lease(&offer, None).unwrap();
    let (status, reply) = route(
        &farm,
        "POST",
        "/leases/999/artifact",
        &artifact.render(ReportFormat::Json),
        4,
    );
    assert_eq!(status, 404, "{reply}");
    assert_eq!(farm.status("job-1").unwrap().resolved, before.resolved);

    // The genuine artifact still lands on the very same lease.
    let (status, reply) = route(
        &farm,
        "POST",
        &format!("/leases/{}/artifact", offer.lease),
        &artifact.render(ReportFormat::Json),
        5,
    );
    assert_eq!(status, 200, "{reply}");
}

/// The artifact's wire bytes with its first claimed register
/// requirement overstated by one: it still parses and reconciles, but
/// its payload no longer matches what a certified re-derivation
/// produces.
fn corrupted(artifact: &SweepShard) -> String {
    let json = artifact.render(ReportFormat::Json);
    let at = json
        .find("\"regs\":")
        .expect("artifact carries requirements");
    let digits: String = json[at + 7..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let claimed: u32 = digits.parse().unwrap();
    let corrupt = format!(
        "{}\"regs\":{}{}",
        &json[..at],
        claimed + 1,
        &json[at + 7 + digits.len()..]
    );
    assert!(
        ncdrf::parse_sweep_shard(&corrupt).is_ok(),
        "still well-formed"
    );
    corrupt
}

#[test]
fn certify_mode_refuses_a_foreign_signature_with_400_before_certifying() {
    let farm = farm_with(64, true);
    route(&farm, "POST", "/jobs", SPEC, 0);
    let (status, offer_body) = route(&farm, "POST", "/leases", "w", 1);
    assert_eq!(status, 200);
    let offer = LeaseOffer::from_json(&offer_body).unwrap();
    let before = farm.status("job-1").unwrap();

    // An artifact of another grid that would also fail certification:
    // the signature refusal (400) must come first, not the certifier's
    // rejection (422).
    let foreign_sig = JobSpec::from_json(r#"{"grid":"fig89","corpus":"small","take":2}"#)
        .and_then(|s| s.signature())
        .unwrap();
    let (corpus, machines) = ncdrf::rebuild_grid(&foreign_sig).unwrap();
    let foreign = ncdrf::sweep_for_signature(&foreign_sig, &corpus, machines)
        .issue_cells(&[0, 1], &[], &[])
        .unwrap();
    let (status, reply) = route(
        &farm,
        "POST",
        &format!("/leases/{}/artifact", offer.lease),
        &corrupted(&foreign),
        2,
    );
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("does not match"), "{reply}");

    // The lease stays undelivered and nothing was ingested.
    let after = farm.status("job-1").unwrap();
    assert_eq!(after.leased, before.leased);
    assert_eq!(after.resolved, before.resolved);
    assert_eq!(after.pending, before.pending);
    assert_eq!(farm.stats().2, 1, "the lease is still live");

    // The honest artifact still lands on the very same lease.
    let honest = evaluate_lease(&offer, None).unwrap();
    let (status, reply) = route(
        &farm,
        "POST",
        &format!("/leases/{}/artifact", offer.lease),
        &honest.render(ReportFormat::Json),
        3,
    );
    assert_eq!(status, 200, "{reply}");
    assert_eq!(farm.status("job-1").unwrap().state, JobState::Complete);
}

#[test]
fn certify_mode_rejects_corrupt_artifacts_with_422_and_mutates_nothing() {
    let farm = farm_with(64, true);
    route(&farm, "POST", "/jobs", SPEC, 0);
    let (status, offer_body) = route(&farm, "POST", "/leases", "w", 1);
    assert_eq!(status, 200);
    let offer = LeaseOffer::from_json(&offer_body).unwrap();
    let honest = evaluate_lease(&offer, None).unwrap();
    let before = farm.status("job-1").unwrap();
    let corrupt = corrupted(&honest);

    let (status, reply) = route(
        &farm,
        "POST",
        &format!("/leases/{}/artifact", offer.lease),
        &corrupt,
        2,
    );
    assert_eq!(status, 422, "{reply}");
    assert!(reply.contains("certification rejected"), "{reply}");
    // The refusal mutated nothing: lease still live, no cells ingested.
    let after = farm.status("job-1").unwrap();
    assert_eq!(after.resolved, before.resolved);
    assert_eq!(after.leased, before.leased);
    assert_eq!(after.pending, before.pending);

    // The honest artifact for the very same lease certifies and lands.
    let (status, reply) = route(
        &farm,
        "POST",
        &format!("/leases/{}/artifact", offer.lease),
        &honest.render(ReportFormat::Json),
        3,
    );
    assert_eq!(status, 200, "{reply}");
    assert_eq!(farm.status("job-1").unwrap().state, JobState::Complete);
}

#[test]
fn unregistered_model_is_400_with_the_offending_name() {
    let farm = farm();
    let before = stats(&farm);
    let (status, reply) = route(
        &farm,
        "POST",
        "/jobs",
        r#"{"grid":"fig89","corpus":"small","take":2,"models":["unified","racetrack"]}"#,
        0,
    );
    assert_eq!(status, 400, "{reply}");
    assert!(
        reply.contains("racetrack"),
        "the refusal must name the offending model: {reply}"
    );
    assert_eq!(stats(&farm), before, "a refused submit must not enqueue");

    // Malformed model arrays are refused the same way.
    for body in [
        r#"{"grid":"fig89","models":[]}"#,
        r#"{"grid":"fig89","models":[3]}"#,
        r#"{"grid":"fig89","models":"unified"}"#,
    ] {
        let (status, reply) = route(&farm, "POST", "/jobs", body, 0);
        assert_eq!(status, 400, "body: {body} -> {reply}");
    }
    assert_eq!(stats(&farm), before);
}

#[test]
fn registered_model_override_runs_end_to_end() {
    // The registry's non-paper built-ins are full citizens of the farm:
    // a job naming them sweeps, fails, heals and serves a report with
    // zero model-specific code in the queue machinery.
    let farm = farm();
    let receipt = farm
        .submit(
            r#"{"grid":"fig89","corpus":"small","take":2,"models":["ideal","port-limited","compressed"],"inject_fail":[1]}"#,
            0,
        )
        .unwrap();
    drain(&farm, 0);
    let status = farm.status(&receipt.job).unwrap();
    assert_eq!(status.state, JobState::Complete);
    assert!(status.heal_rounds > 0, "the injected fault must heal");
    let report = farm.report(&receipt.job).unwrap();
    assert!(
        report.contains("\"model\":\"port-limited\"")
            && report.contains("\"model\":\"compressed\""),
        "the report carries the registry wire names"
    );
}

#[test]
fn exact_resubmit_completes_instantly_from_the_cache() {
    let farm = farm();
    let receipt = farm.submit(SPEC, 0).unwrap();
    drain(&farm, 0);
    let first = farm.report(&receipt.job).unwrap();

    let receipt2 = farm.submit(SPEC, 50).unwrap();
    assert_eq!(receipt2.state, JobState::Complete, "cache hit is instant");
    let status = farm.status(&receipt2.job).unwrap();
    assert!(status.from_cache);
    assert_eq!(
        farm.report(&receipt2.job).unwrap(),
        first,
        "identical bytes"
    );
}

/// Whether every cell of a seed artifact carries persisted
/// trajectories, read off its wire bytes.
fn every_cell_carries_trajectories(seed: &SweepShard) -> bool {
    let v: serde_json::Value = serde_json::from_str(&seed.render(ReportFormat::Json)).unwrap();
    let cells = v.get("cells").and_then(|c| c.as_array()).unwrap();
    cells.iter().all(|c| {
        c.get("trajectories")
            .and_then(|t| t.as_array())
            .is_some_and(|t| !t.is_empty())
    })
}

#[test]
fn budget_extension_resubmit_seeds_from_cached_trajectories() {
    // One cell per lease, so each offer's seeds must shrink to its task.
    let farm = farm_with(1, false);
    // First job persists its spill trajectories; the tight low rung
    // forces real spill descents (a ladder the loops fit under would
    // have nothing to persist).
    let receipt = farm
        .submit(
            r#"{"grid":"full","corpus":"small","take":2,"budgets":[6,32],"persist_trajectories":true}"#,
            0,
        )
        .unwrap();
    let mut delivered = Vec::new();
    let now = drain_with(&farm, 0, |_, artifact| delivered.push(artifact.clone()));
    assert_eq!(farm.status(&receipt.job).unwrap().state, JobState::Complete);
    // The artifact the farm cached: every delivery, reconciled.
    let cached = SweepShard::reconcile(&delivered).unwrap();

    // Same grid, tighter budgets: resume-compatible, so its leases
    // carry the cached artifact's cells of the leased task as a seed
    // and the descents resume instead of respilling from zero.
    const RESUMED: &str = r#"{"grid":"full","corpus":"small","take":2,"budgets":[4,16]}"#;
    let receipt2 = farm.submit(RESUMED, now).unwrap();
    assert_eq!(receipt2.state, JobState::Queued, "new budgets, new work");
    let mut seeded = 0;
    drain_with(&farm, now, |offer, _| {
        for seed in &offer.seeds {
            assert!(seed.cell_count() > 0, "an empty seed is left out");
            assert!(
                seed.tasks().iter().all(|t| offer.tasks.contains(t)),
                "seed tasks {:?} exceed the leased {:?}",
                seed.tasks(),
                offer.tasks
            );
            assert!(every_cell_carries_trajectories(seed));
        }
        seeded += offer.seeds.len();
    });
    assert!(
        seeded > 0,
        "a resume-compatible cached artifact must ride along as seeds"
    );
    let status = farm.status(&receipt2.job).unwrap();
    assert_eq!(status.state, JobState::Complete);
    let stats = status.scheduling.unwrap();
    assert!(
        stats.traj_hits + stats.traj_resumes > 0,
        "seeded descents must be served from the cached trajectories, got {stats:?}"
    );

    // Per-lease seeds serve exactly what the whole cached artifact
    // would: the report equals issuing the grid seeded with all of it.
    let sig = JobSpec::from_json(RESUMED)
        .and_then(|s| s.signature())
        .unwrap();
    let (corpus, machines) = ncdrf::rebuild_grid(&sig).unwrap();
    let every_cell: Vec<u64> = (0..sig.total_tasks() as u64).collect();
    let whole = ncdrf::sweep_for_signature(&sig, &corpus, machines)
        .issue_cells(&every_cell, &[], std::slice::from_ref(&cached))
        .unwrap();
    let reference = SweepShard::merge(std::slice::from_ref(&whole)).unwrap();
    assert_eq!(
        farm.report(&receipt2.job).unwrap(),
        reference.render(ReportFormat::Json)
    );
}
