//! The artifact auditor, run against directories the real substrate
//! produces: a sharded sweep's artifacts, a farm's artifact directory
//! after a completed job, and corrupted copies of both.

use ncdrf::corpus::Corpus;
use ncdrf::{Render, ReportFormat, Sweep};
use ncdrf_analyze::audit::audit_dir;
use ncdrf_analyze::scenarios::{artifact_for_tasks, farm_fixture, FARM_SCENARIO_SPEC};
use ncdrf_farm::{Farm, FarmConfig};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ncdrf-analyze-audit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn small_sweep(corpus: &Corpus) -> Sweep<'_> {
    Sweep::new(corpus)
        .clustered_latencies([3])
        .models([ncdrf::ModelId::UNIFIED, ncdrf::ModelId::PARTITIONED])
        .budget(32)
}

#[test]
fn a_sharded_sweep_directory_audits_clean() {
    let corpus = Corpus::small().take(2);
    let sweep = small_sweep(&corpus);
    let dir = temp_dir("shards");
    for i in 0..3u32 {
        let shard = sweep.shard(i, 3).expect("shard");
        ncdrf::write_artifact(
            dir.join(format!("shard-{i}-of-3.json")),
            &shard.render(ReportFormat::Json),
        )
        .expect("write artifact");
    }
    let report = audit_dir(&dir).expect("audit runs");
    assert!(report.clean(), "findings: {:?}", report.findings);
    assert_eq!(report.shards, 3);
    assert_eq!(report.groups, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_completed_farm_directory_audits_clean() {
    let fixture = farm_fixture();
    let dir = temp_dir("farm");
    let farm = Farm::new(FarmConfig {
        lease_cells: 2,
        artifact_dir: Some(dir.clone()),
        ..FarmConfig::default()
    });
    let receipt = farm.submit(FARM_SCENARIO_SPEC, 0).expect("submit");
    let mut now = 0;
    while let Some(offer) = farm.claim("audit-test", now) {
        now += 1;
        let artifact = artifact_for_tasks(&fixture.cell_artifacts, &offer.tasks);
        farm.deliver(offer.lease, artifact, now).expect("deliver");
    }
    let status = farm.status(&receipt.job).expect("status");
    assert_eq!(status.resolved, fixture.cells, "the job completed");

    // After completion, GC has replaced the per-lease files with one
    // consolidated artifact; the directory must audit clean.
    let report = audit_dir(&dir).expect("audit runs");
    assert!(report.clean(), "findings: {:?}", report.findings);
    assert!(report.shards >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupted_artifact_is_rejected() {
    let corpus = Corpus::small().take(2);
    let sweep = small_sweep(&corpus);
    let dir = temp_dir("corrupt");
    let shard = sweep.shard(0, 2).expect("shard");
    let body = shard.render(ReportFormat::Json);
    ncdrf::write_artifact(dir.join("good.json"), &body).expect("write");
    // Truncation: unparsable.
    ncdrf::write_artifact(dir.join("truncated.json"), &body[..body.len() / 3]).expect("write");
    // Token-level corruption: a counter bumped, so the declared totals
    // no longer match the per-cell sums and the parser refuses it.
    let hits = "\"misses\":";
    let at = body.find(hits).expect("counter member present") + hits.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let bumped: u64 = digits.parse::<u64>().expect("counter parses") + 1;
    let corrupted = format!("{}{}{}", &body[..at], bumped, &body[at + digits.len()..]);
    ncdrf::write_artifact(dir.join("double-counted.json"), &corrupted).expect("write");

    let report = audit_dir(&dir).expect("audit runs");
    let parse_findings = report.findings.iter().filter(|f| f.rule == "parse").count();
    assert_eq!(
        parse_findings, 2,
        "both corrupted files are findings: {:?}",
        report.findings
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixed_signatures_are_separate_groups_not_findings() {
    let corpus_a = Corpus::small().take(2);
    let corpus_b = Corpus::small().take(3);
    let dir = temp_dir("mixed");
    for (tag, corpus) in [("a", &corpus_a), ("b", &corpus_b)] {
        let shard = small_sweep(corpus).shard(0, 1).expect("shard");
        ncdrf::write_artifact(
            dir.join(format!("grid-{tag}.json")),
            &shard.render(ReportFormat::Json),
        )
        .expect("write");
    }
    let report = audit_dir(&dir).expect("audit runs");
    assert!(report.clean(), "findings: {:?}", report.findings);
    assert_eq!(report.groups, 2);
    std::fs::remove_dir_all(&dir).ok();
}
