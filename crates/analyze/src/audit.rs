//! The no-execution artifact auditor: structural checks over a
//! directory of shard artifacts, without re-running any sweep.
//!
//! The auditor re-reads every `*.json` file through the same parser the
//! merge pipeline uses and then checks the cross-file invariants the
//! parser cannot see on its own:
//!
//! * every file parses as a shard artifact (corruption, truncation and
//!   foreign files are findings, not skips — except rendered
//!   sweep/partial-sweep reports, which are recognized siblings and
//!   only noted; the parser refuses shard-level cache counters that
//!   disagree with the per-cell sums),
//! * shard-role sanity (a primary `i/n` shard must have `i < n`),
//! * no two files answer the same farm lease (at-least-once delivery
//!   may duplicate *cells*, never `(job, lease)` provenance),
//! * each signature group reconciles — signatures compatible, every
//!   cell inside the declared grid, duplicates collapsible to one
//!   winner per slot.
//!
//! Benign redundancy (the same cell covered by several artifacts, as
//! mid-flight farm directories legitimately contain) is reported as a
//! *note*, not a finding: notes never fail an audit.

use ncdrf::{ShardRole, SweepShard};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One failed invariant.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The file at fault, when the finding is file-scoped.
    pub path: Option<PathBuf>,
    /// Stable rule identifier (`parse`, `role`,
    /// `duplicate-lease`, `reconcile`).
    pub rule: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.path {
            Some(p) => write!(f, "[{}] {}: {}", self.rule, p.display(), self.detail),
            None => write!(f, "[{}] {}", self.rule, self.detail),
        }
    }
}

/// The outcome of one audit pass.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// `*.json` files examined.
    pub files: usize,
    /// Files that parsed as shard artifacts.
    pub shards: usize,
    /// Distinct grid signatures among them.
    pub groups: usize,
    /// Failed invariants; any entry fails the audit.
    pub findings: Vec<Finding>,
    /// Benign observations (duplicate cell coverage, heal artifacts);
    /// never fail the audit.
    pub notes: Vec<String>,
}

impl AuditReport {
    /// Whether the directory passed.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Whether a file that failed shard parsing is one of the *other* wire
/// artifacts of this workspace — a rendered sweep report or partial
/// sweep — checked through the real parsers, not by sniffing bytes.
fn parses_as_report(path: &Path) -> bool {
    std::fs::read_to_string(path).is_ok_and(|text| {
        ncdrf::parse_sweep_report(&text).is_ok() || ncdrf::parse_partial_sweep(&text).is_ok()
    })
}

/// Audits `dir`.
///
/// # Errors
///
/// The directory itself being unreadable (not a file-level problem —
/// those are findings).
pub fn audit_dir(dir: &Path) -> Result<AuditReport, String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();

    let mut report = AuditReport::default();
    let mut parsed: Vec<(PathBuf, SweepShard)> = Vec::new();
    for path in entries {
        report.files += 1;
        match ncdrf::read_shard(&path) {
            Ok(shard) => parsed.push((path, shard)),
            // A rendered report parked next to the shards (a daemon or
            // operator export) is a recognized sibling, not corruption.
            Err(_) if parses_as_report(&path) => report
                .notes
                .push(format!("{}: rendered report, not a shard", path.display())),
            Err(e) => report.findings.push(Finding {
                path: Some(path),
                rule: "parse",
                detail: format!("not a readable shard artifact: {e}"),
            }),
        }
    }
    report.shards = parsed.len();

    // File-local invariants.
    for (path, shard) in &parsed {
        if shard.role() == ShardRole::Shard && shard.count() > 0 && shard.index() >= shard.count() {
            report.findings.push(Finding {
                path: Some(path.clone()),
                rule: "role",
                detail: format!(
                    "primary shard claims partition {}/{}",
                    shard.index(),
                    shard.count()
                ),
            });
        }
        if shard.role() == ShardRole::Heal {
            report.notes.push(format!(
                "{}: heal artifact ({} cells)",
                path.display(),
                shard.cell_count()
            ));
        }
    }

    // Duplicate lease provenance: the farm writes one file per lease.
    let mut by_lease: BTreeMap<(String, u64), Vec<&Path>> = BTreeMap::new();
    for (path, shard) in &parsed {
        if let Some(p) = shard.provenance() {
            by_lease
                .entry((p.job.clone(), p.lease))
                .or_default()
                .push(path);
        }
    }
    for ((job, lease), paths) in &by_lease {
        if paths.len() > 1 {
            for path in paths {
                report.findings.push(Finding {
                    path: Some(path.to_path_buf()),
                    rule: "duplicate-lease",
                    detail: format!("{} files answer lease {lease} of job {job}", paths.len()),
                });
            }
        }
    }

    // Signature groups: compatibility + reconcilability, and duplicate
    // cell coverage as a note.
    let mut groups: BTreeMap<String, Vec<&SweepShard>> = BTreeMap::new();
    for (_, shard) in &parsed {
        groups
            .entry(ncdrf::render_grid_signature(shard.signature()))
            .or_default()
            .push(shard);
    }
    report.groups = groups.len();
    for (sig, members) in &groups {
        let owned: Vec<SweepShard> = members.iter().map(|&s| s.clone()).collect();
        if let Err(e) = SweepShard::reconcile(&owned) {
            report.findings.push(Finding {
                path: None,
                rule: "reconcile",
                detail: format!(
                    "signature group `{sig}` ({} artifacts) does not reconcile: {e}",
                    members.len()
                ),
            });
            continue;
        }
        let mut coverage: BTreeMap<u64, usize> = BTreeMap::new();
        for shard in members {
            for t in shard.tasks() {
                *coverage.entry(t).or_insert(0) += 1;
            }
        }
        let duplicated = coverage.values().filter(|&&n| n > 1).count();
        if duplicated > 0 {
            report.notes.push(format!(
                "signature group `{sig}`: {duplicated} cells covered more than once \
                 (benign under at-least-once delivery)"
            ));
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf::corpus::Corpus;
    use ncdrf::{Provenance, Render, ReportFormat, Sweep};

    fn sweep(corpus: &Corpus) -> Sweep<'_> {
        Sweep::new(corpus)
            .clustered_latencies([3])
            .models([ncdrf::ModelId::UNIFIED])
            .budget(32)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ncdrf-audit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn a_healthy_shard_pair_audits_clean() {
        let corpus = Corpus::small().take(2);
        let sweep = sweep(&corpus);
        let dir = temp_dir("clean");
        for i in 0..2u32 {
            let shard = sweep.shard(i, 2).expect("shard");
            ncdrf::write_artifact(
                dir.join(format!("shard-{i}.json")),
                &shard.render(ReportFormat::Json),
            )
            .expect("write");
        }
        let report = audit_dir(&dir).expect("audit runs");
        assert!(report.clean(), "unexpected findings: {:?}", report.findings);
        assert_eq!((report.files, report.shards, report.groups), (2, 2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_and_duplicate_leases_are_findings() {
        let corpus = Corpus::small().take(2);
        let sweep = sweep(&corpus);
        let dir = temp_dir("dirty");
        let shard = sweep
            .shard(0, 2)
            .expect("shard")
            .with_provenance(Provenance {
                job: "job-1".to_owned(),
                lease: 7,
            });
        let body = shard.render(ReportFormat::Json);
        ncdrf::write_artifact(dir.join("a.json"), &body).expect("write");
        ncdrf::write_artifact(dir.join("b.json"), &body).expect("write");
        ncdrf::write_artifact(dir.join("c.json"), &body[..body.len() / 2]).expect("truncate");
        let report = audit_dir(&dir).expect("audit runs");
        assert!(!report.clean());
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(
            rules.contains(&"parse"),
            "truncated file flagged: {rules:?}"
        );
        assert!(
            rules.contains(&"duplicate-lease"),
            "duplicate lease flagged: {rules:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_rendered_report_next_to_the_shards_is_a_note_not_a_finding() {
        let corpus = Corpus::small().take(2);
        let sweep = sweep(&corpus);
        let dir = temp_dir("sibling-report");
        let shard = sweep.shard(0, 1).expect("shard");
        ncdrf::write_artifact(dir.join("shard.json"), &shard.render(ReportFormat::Json))
            .expect("write shard");
        // What a farm daemon or operator parks next to the artifacts.
        let report_body = sweep
            .run_sequential()
            .expect("run")
            .render(ReportFormat::Json);
        ncdrf::write_artifact(dir.join("served.json"), &report_body).expect("write report");
        let report = audit_dir(&dir).expect("audit runs");
        assert!(report.clean(), "unexpected findings: {:?}", report.findings);
        assert_eq!((report.files, report.shards), (2, 1));
        assert!(
            report.notes.iter().any(|n| n.contains("rendered report")),
            "the sibling is noted: {:?}",
            report.notes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unreadable_directory_is_an_error_not_a_finding() {
        let missing = std::env::temp_dir().join("ncdrf-audit-definitely-missing");
        assert!(audit_dir(&missing).is_err());
    }
}
