//! Golden-report tests: the rendered output of the paper's grids is
//! pinned byte-for-byte, so performance work (trajectory continuation,
//! executor changes, cache rewrites) can never silently move paper
//! numbers. Every pipeline stage is deterministic and the JSON backend
//! renders integers exactly and floats shortest-round-trip, so byte
//! equality is the right bar — across platforms too.
//!
//! The fixtures live in `tests/golden/` and cover the fig6/7, fig8/9 and
//! Table 1 grids on a fixed slice of the deterministic `small` corpus.
//! Each grid renders through both `Sweep::run_sequential` (the reference
//! the fixture is written from) and the pooled `Sweep::run`, and both
//! must give the fixture's bytes.
//! To regenerate after an *intentional* result change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and review the fixture diff like any other code change.

use ncdrf::corpus::Corpus;
use ncdrf::{Render, ReportFormat, Sweep, SweepReport, PAPER_MODELS};
use std::path::PathBuf;

/// The corpus slice the fixtures pin. Small enough to keep artifacts
/// reviewable, large enough that every model spills somewhere.
fn corpus() -> Corpus {
    Corpus::small().take(12)
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compares `rendered` against the named fixture byte-for-byte, or
/// rewrites the fixture under `UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture `{}` ({e}); run \
             `UPDATE_GOLDEN=1 cargo test --test golden_reports` and commit it",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "`{name}` drifted from its golden fixture. If the change is an \
         intentional result change, regenerate with UPDATE_GOLDEN=1 and \
         review the diff; if not, a perf optimisation just moved paper \
         numbers."
    );
}

/// Renders `sweep` through `run_sequential` and through the pooled
/// `run`, requires the same bytes from both, and returns them.
fn rendered(sweep: &Sweep<'_>, render: impl Fn(&SweepReport) -> String) -> String {
    let sequential = render(&sweep.run_sequential().unwrap());
    assert_eq!(
        render(&sweep.run().unwrap()),
        sequential,
        "Sweep::run renders differently from Sweep::run_sequential"
    );
    sequential
}

/// Figures 6/7: cumulative register-requirement distributions on the
/// clustered machines (finite models, no spilling) — the `fig67` preset,
/// so a change to the preset moves this fixture.
fn fig67(corpus: &Corpus) -> Sweep<'_> {
    ncdrf::preset_sweep(corpus, "fig67").unwrap()
}

/// Figures 8/9: performance and traffic density under finite files —
/// the grid trajectory continuation rewires, pinned across a descending
/// budget ladder that includes the paper's 64/32 points. The ladder is
/// not the `fig89` preset's (64/32 only), so this grid is built here.
fn fig89(corpus: &Corpus) -> Sweep<'_> {
    Sweep::new(corpus)
        .clustered_latencies([3, 6])
        .models(PAPER_MODELS)
        .budgets([64, 48, 32, 16])
}

/// Table 1: allocatable percentages on the unified PxLy machines — the
/// `table1` preset.
fn table1(corpus: &Corpus) -> Sweep<'_> {
    ncdrf::preset_sweep(corpus, "table1").unwrap()
}

/// The `extended` preset: the registry's non-paper built-ins
/// (read-port-constrained and compressed register files) against the
/// unified baseline — pinned like the paper grids, so the new families'
/// numbers are as tamper-evident as the reproduction's.
fn extended(corpus: &Corpus) -> Sweep<'_> {
    ncdrf::preset_sweep(corpus, "extended").unwrap()
}

fn json(report: &SweepReport) -> String {
    report.render(ReportFormat::Json)
}

fn text(report: &SweepReport) -> String {
    report.render(ReportFormat::Text)
}

#[test]
fn fig67_json_is_byte_identical_to_golden() {
    assert_golden("fig67.json", &rendered(&fig67(&corpus()), json));
}

#[test]
fn fig89_json_is_byte_identical_to_golden() {
    assert_golden("fig89.json", &rendered(&fig89(&corpus()), json));
}

#[test]
fn fig89_text_is_byte_identical_to_golden() {
    // The text table is what a human reads off — pin it too, so a
    // formatting regression can't hide behind value-identical JSON.
    assert_golden("fig89.txt", &rendered(&fig89(&corpus()), text));
}

#[test]
fn table1_json_is_byte_identical_to_golden() {
    assert_golden("table1.json", &rendered(&table1(&corpus()), json));
}

#[test]
fn table1_rows_text_is_byte_identical_to_golden() {
    let rows = |r: &SweepReport| r.table1().render(ReportFormat::Text);
    assert_golden("table1.txt", &rendered(&table1(&corpus()), rows));
}

/// The golden JSON also round-trips through the parser: the fixture is a
/// usable artifact, not just a checksum.
#[test]
fn golden_fig89_json_parses_back_to_the_report() {
    let report = fig89(&corpus()).run_sequential().unwrap();
    let parsed = ncdrf::parse_sweep_report(&json(&report)).unwrap();
    assert_eq!(parsed, report);
}

#[test]
fn extended_json_is_byte_identical_to_golden() {
    assert_golden("extended.json", &rendered(&extended(&corpus()), json));
}

#[test]
fn extended_text_is_byte_identical_to_golden() {
    assert_golden("extended.txt", &rendered(&extended(&corpus()), text));
}

#[test]
fn golden_extended_json_parses_back_to_the_report() {
    let report = extended(&corpus()).run_sequential().unwrap();
    let parsed = ncdrf::parse_sweep_report(&json(&report)).unwrap();
    assert_eq!(parsed, report);
}
