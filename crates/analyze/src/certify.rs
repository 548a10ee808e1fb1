//! Offline certification drivers for the `ncdrf_analyze certify` CLI.
//!
//! Two targets, both running the independent `ncdrf-certify` validator
//! (never the schedulers' own verifiers):
//!
//! * **Golden fixtures** ([`certify_golden`]) — re-runs the pinned
//!   fig6/7, fig8/9, Table 1 and `extended` grids with a certify-mode
//!   [`Sweep`], so every cell's schedule, spill rewrite and requirement
//!   is re-derived from first principles while it is produced, then
//!   byte-compares the rendered reports against the seven fixtures in
//!   `tests/golden/`. A certification failure and a byte drift are both
//!   findings.
//! * **Artifact directories** ([`certify_artifact_dir`]) — scans a
//!   directory of shard/consolidated artifacts (the farm's
//!   `--artifact-dir`, a `shard_runner` output dir) and replays each
//!   healthy cell under a certify-mode session via
//!   [`ncdrf::certify_shard`], reporting every cell whose claimed
//!   payload cannot be independently re-certified.

use ncdrf::corpus::Corpus;
use ncdrf::{
    default_points, scan_artifacts, ArtifactError, CellFault, ModelId, Render, ReportFormat, Sweep,
    SweepReport, PAPER_FINITE_MODELS, PAPER_MODELS, TABLE1_POINTS,
};
use ncdrf_certify::ScheduleCertifier;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The corpus slice the golden fixtures pin (`tests/golden_reports.rs`).
fn corpus() -> Corpus {
    Corpus::small().take(12)
}

/// One golden fixture's certification outcome.
#[derive(Debug)]
pub struct GoldenCheck {
    /// Fixture file name (`fig89.json`, `table1.txt`, ...).
    pub fixture: String,
    /// `None` when the certify-mode re-run matched the fixture
    /// byte-for-byte; otherwise what went wrong (certification failure,
    /// byte drift, or unreadable fixture).
    pub fault: Option<String>,
}

impl GoldenCheck {
    fn ok(fixture: &str) -> GoldenCheck {
        GoldenCheck {
            fixture: fixture.to_owned(),
            fault: None,
        }
    }

    fn bad(fixture: &str, fault: String) -> GoldenCheck {
        GoldenCheck {
            fixture: fixture.to_owned(),
            fault: Some(fault),
        }
    }
}

/// Attaches the independent certifier to a sweep recipe.
fn certified(sweep: Sweep<'_>) -> Sweep<'_> {
    sweep.certify(Arc::new(ScheduleCertifier))
}

/// A named fixture paired with the rendering that must reproduce it.
type Rendering<'a> = (&'a str, &'a dyn Fn(&SweepReport) -> String);

/// Runs one pinned recipe under certification and compares each of its
/// renderings against the named fixture in `dir`.
fn check_report(
    dir: &Path,
    report: Result<SweepReport, impl std::fmt::Display>,
    renderings: &[Rendering<'_>],
    out: &mut Vec<GoldenCheck>,
) {
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            for (fixture, _) in renderings {
                out.push(GoldenCheck::bad(fixture, format!("grid run refused: {e}")));
            }
            return;
        }
    };
    for (fixture, render) in renderings {
        let path = dir.join(fixture);
        let expected = match std::fs::read_to_string(&path) {
            Ok(expected) => expected,
            Err(e) => {
                out.push(GoldenCheck::bad(
                    fixture,
                    format!("fixture `{}` unreadable: {e}", path.display()),
                ));
                continue;
            }
        };
        if render(&report) == expected {
            out.push(GoldenCheck::ok(fixture));
        } else {
            out.push(GoldenCheck::bad(
                fixture,
                "certified re-run drifted from the pinned fixture bytes".to_owned(),
            ));
        }
    }
}

/// Certifies all seven golden fixtures in `dir` (normally
/// `tests/golden/`): every grid re-runs with the independent certifier
/// checking each cell as it is produced, and the rendered reports must
/// match the fixtures byte-for-byte.
pub fn certify_golden(dir: &Path) -> Vec<GoldenCheck> {
    let corpus = corpus();
    let mut out = Vec::new();

    let json: &dyn Fn(&SweepReport) -> String = &|r| r.render(ReportFormat::Json);
    let text: &dyn Fn(&SweepReport) -> String = &|r| r.render(ReportFormat::Text);
    let table1_text: &dyn Fn(&SweepReport) -> String = &|r| r.table1().render(ReportFormat::Text);

    check_report(
        dir,
        certified(
            Sweep::new(&corpus)
                .clustered_latencies([3, 6])
                .models(PAPER_FINITE_MODELS)
                .points(default_points()),
        )
        .run_sequential(),
        &[("fig67.json", json)],
        &mut out,
    );
    check_report(
        dir,
        certified(
            Sweep::new(&corpus)
                .clustered_latencies([3, 6])
                .models(PAPER_MODELS)
                .budgets([64, 48, 32, 16]),
        )
        .run_sequential(),
        &[("fig89.json", json), ("fig89.txt", text)],
        &mut out,
    );
    check_report(
        dir,
        certified(
            Sweep::new(&corpus)
                .pxly_configs([(1, 3), (2, 3), (1, 6), (2, 6)])
                .models([ModelId::UNIFIED])
                .points(TABLE1_POINTS),
        )
        .run_sequential(),
        &[("table1.json", json), ("table1.txt", table1_text)],
        &mut out,
    );
    let extended = match ncdrf::preset_sweep(&corpus, "extended") {
        Some(sweep) => certified(sweep).run_sequential().map_err(|e| e.to_string()),
        None => Err("unknown preset `extended`".to_owned()),
    };
    check_report(
        dir,
        extended,
        &[("extended.json", json), ("extended.txt", text)],
        &mut out,
    );
    out
}

/// One artifact's certification outcome.
#[derive(Debug)]
pub struct ArtifactCheck {
    /// The artifact file.
    pub path: PathBuf,
    /// Cells whose claimed payload failed independent re-certification.
    pub faults: Vec<CellFault>,
}

/// Scans `dir` for shard/consolidated artifacts and certifies every
/// healthy cell of each against an independent re-evaluation.
///
/// # Errors
///
/// The directory being unreadable. A malformed or uncertifiable
/// artifact is a per-artifact fault, not an error.
pub fn certify_artifact_dir(dir: &Path) -> Result<Vec<ArtifactCheck>, ArtifactError> {
    let mut out = Vec::new();
    for (path, shard) in scan_artifacts(dir)? {
        let faults = match ncdrf::certify_shard(&shard, Arc::new(ScheduleCertifier)) {
            Ok(faults) => faults,
            Err(e) => vec![CellFault {
                task: u64::MAX,
                loop_name: String::new(),
                machine: String::new(),
                detail: format!("artifact is not certifiable: {e}"),
            }],
        };
        out.push(ArtifactCheck { path, faults });
    }
    Ok(out)
}
