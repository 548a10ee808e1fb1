//! Error paths of the shared artifact I/O layer
//! (`crates/core/src/artifact.rs`): truncated JSON, foreign files in a
//! live artifact directory, duplicate artifacts for the same lease, and
//! unreadable paths. The happy paths are covered by `shard_merge` and
//! the farm end-to-end tests; this file pins down what happens when the
//! directory a scheduler scans is *not* pristine.

use ncdrf::corpus::Corpus;
use ncdrf::{
    read_shard, read_shards, scan_artifacts, write_artifact, ArtifactError, Render, ReportFormat,
    Sweep, SweepShard,
};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ncdrf-artifact-io-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn one_shard(corpus: &Corpus) -> SweepShard {
    Sweep::new(corpus)
        .clustered_latencies([3])
        .models([ncdrf::ModelId::UNIFIED])
        .budget(32)
        .shard(0, 1)
        .expect("shard evaluates")
}

#[test]
fn a_truncated_artifact_is_a_parse_error_naming_the_file() {
    let corpus = Corpus::small().take(1);
    let body = one_shard(&corpus).render(ReportFormat::Json);
    let dir = temp_dir("truncated");
    let path = dir.join("shard.json");
    write_artifact(&path, &body[..body.len() / 2]).expect("write");
    match read_shard(&path) {
        Err(ArtifactError::Parse { path: p, .. }) => assert_eq!(p, path),
        other => panic!("expected a parse error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A million unclosed `[` is a named parse error, not a stack overflow:
/// parsed on a 2 MiB thread, the stack a farm connection thread has.
#[test]
fn a_deeply_nested_artifact_is_a_named_parse_error() {
    let err = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| ncdrf::parse_sweep_shard(&"[".repeat(1_000_000)).map(|_| ()))
        .expect("spawn")
        .join()
        .expect("no panic")
        .unwrap_err();
    assert!(
        err.to_string().contains("recursion limit exceeded"),
        "{err}"
    );
}

#[test]
fn a_missing_file_is_an_io_error_naming_the_file() {
    let path = std::env::temp_dir().join("ncdrf-artifact-io-definitely-missing.json");
    match read_shard(&path) {
        Err(ArtifactError::Io { path: p, .. }) => assert_eq!(p, path),
        other => panic!("expected an I/O error, got {other:?}"),
    }
}

#[test]
fn an_unreadable_path_is_an_io_error_not_a_panic() {
    // A directory whose name looks like an artifact: opening it as a
    // file fails at read time regardless of permissions (which root
    // would bypass), so this exercises the unreadable-file arm on any
    // uid.
    let dir = temp_dir("unreadable");
    let decoy = dir.join("shard.json");
    std::fs::create_dir_all(&decoy).expect("decoy dir");
    assert!(matches!(read_shard(&decoy), Err(ArtifactError::Io { .. })));
    // The directory scanner must skip it, not die on it.
    let scanned = scan_artifacts(&dir).expect("scan survives the decoy");
    assert!(scanned.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_shards_reports_the_first_broken_artifact() {
    let corpus = Corpus::small().take(1);
    let body = one_shard(&corpus).render(ReportFormat::Json);
    let dir = temp_dir("first-broken");
    let good = dir.join("good.json");
    let bad = dir.join("bad.json");
    write_artifact(&good, &body).expect("write good");
    write_artifact(&bad, "{ not json").expect("write bad");
    match read_shards(&[&good, &bad, &good]) {
        Err(ArtifactError::Parse { path, .. }) => assert_eq!(path, bad),
        other => panic!("expected the bad file's parse error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_files_are_skipped_by_the_scanner_not_errors() {
    let corpus = Corpus::small().take(1);
    let shard = one_shard(&corpus);
    let dir = temp_dir("foreign");
    write_artifact(dir.join("real.json"), &shard.render(ReportFormat::Json)).expect("write");
    // A live artifact directory also holds things that are not shard
    // artifacts: reports, unrelated JSON, half-written files, notes.
    write_artifact(
        dir.join("report.json"),
        "{\"kind\":\"something-else\",\"v\":1}",
    )
    .expect("write foreign json");
    write_artifact(dir.join("half-written.json"), "{\"kind\":\"ncdr").expect("write torn file");
    write_artifact(dir.join("notes.txt"), "not json at all").expect("write non-json");
    let scanned = scan_artifacts(&dir).expect("scan");
    assert_eq!(scanned.len(), 1, "only the real artifact survives");
    assert_eq!(scanned[0].0, dir.join("real.json"));
    assert_eq!(scanned[0].1.cell_count(), shard.cell_count());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scanning_a_missing_directory_is_an_io_error() {
    let dir = std::env::temp_dir().join("ncdrf-artifact-io-no-such-dir");
    assert!(matches!(
        scan_artifacts(&dir),
        Err(ArtifactError::Io { .. })
    ));
}

#[test]
fn duplicate_artifacts_for_one_lease_collapse_on_reconcile() {
    // An expired lease delivered late plus its re-lease leaves two
    // artifacts covering the same cells in the directory. The scanner
    // must surface both (it reports what is on disk), and reconcile
    // must collapse them to the single-copy result — the disk-level
    // mirror of the farm's at-least-once delivery rule.
    let corpus = Corpus::small().take(1);
    let shard = one_shard(&corpus);
    let body = shard.render(ReportFormat::Json);
    let dir = temp_dir("duplicate-lease");
    write_artifact(dir.join("lease-1.json"), &body).expect("write");
    write_artifact(dir.join("lease-2-retry.json"), &body).expect("write duplicate");
    let scanned = scan_artifacts(&dir).expect("scan");
    assert_eq!(scanned.len(), 2, "both deliveries are on disk");
    let shards: Vec<SweepShard> = scanned.into_iter().map(|(_, s)| s).collect();
    let merged = SweepShard::reconcile(&shards).expect("duplicates reconcile");
    assert_eq!(merged.cell_count(), shard.cell_count());
    assert_eq!(
        merged.scheduling(),
        shard.scheduling(),
        "a duplicated lease must not double-count any counter"
    );
    std::fs::remove_dir_all(&dir).ok();
}
