//! The repo-invariant lint, run two ways: over the real workspace tree
//! (which must be clean) and over seeded violation trees (each of which
//! must fail with the right rule).

use ncdrf_analyze::lint::{lint_source, lint_tree};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn the_workspace_tree_is_clean() {
    let findings = lint_tree(&workspace_root()).expect("lint runs");
    assert!(
        findings.is_empty(),
        "the tree must lint clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn lint_tree_refuses_a_non_workspace_root() {
    assert!(lint_tree(&std::env::temp_dir()).is_err());
}

/// Each seeded violation, planted in a scratch tree at the path its
/// rule watches, must be reported — by rule, file and line.
#[test]
fn seeded_violations_fail_the_tree() {
    let root = std::env::temp_dir().join(format!("ncdrf-lint-seeded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let plant = |rel: &str, source: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, source).expect("write fixture");
    };
    // wall-clock: a raw SystemTime::now outside the allowlist — the
    // exact shape of the bug the worker-clock satellite fixed.
    plant(
        "crates/farm/src/worker.rs",
        "pub fn now_millis() -> u64 {\n    std::time::SystemTime::now()\n        .duration_since(std::time::UNIX_EPOCH).unwrap().as_millis() as u64\n}\n",
    );
    // float-format: a float spec inside a JSON-building literal.
    plant(
        "crates/core/src/json.rs",
        "pub fn mean(v: f64) -> String { format!(\"\\\"mean\\\":{:.6}\", v) }\n",
    );
    // daemon-unwrap: a panic path in request handling.
    plant(
        "crates/farm/src/api.rs",
        "pub fn route(body: &str) -> u64 { body.parse().unwrap() }\n",
    );
    // version-literal: a bare wire version.
    plant(
        "crates/core/src/report.rs",
        "pub fn render(o: &mut Vec<String>) { o.push(format!(\"{} {}\", \"version\", 0)); fn g(o: &mut O) { o.integer(\"version\", 3); } }\n",
    );
    // model-name-literal: a wire name hardcoded outside the registry.
    plant(
        "crates/core/src/sweep.rs",
        "pub fn default_model() -> &'static str { \"unified\" }\n",
    );
    // truncating-cast: a bare narrow in the spill crate, outside any
    // sanctioned index constructor.
    plant(
        "crates/spill/src/rewrite.rs",
        "pub fn slot(i: usize) -> u32 { i as u32 }\n",
    );

    let findings = lint_tree(&root).expect("lint runs on the seeded tree");
    let has = |rule: &str, file: &str| {
        findings
            .iter()
            .any(|f| f.rule == rule && f.path.ends_with(file))
    };
    assert!(
        has("wall-clock", "crates/farm/src/worker.rs"),
        "{findings:?}"
    );
    assert!(
        has("float-format", "crates/core/src/json.rs"),
        "{findings:?}"
    );
    assert!(
        has("daemon-unwrap", "crates/farm/src/api.rs"),
        "{findings:?}"
    );
    assert!(
        has("version-literal", "crates/core/src/report.rs"),
        "{findings:?}"
    );
    assert!(
        has("model-name-literal", "crates/core/src/sweep.rs"),
        "{findings:?}"
    );
    assert!(
        has("truncating-cast", "crates/spill/src/rewrite.rs"),
        "{findings:?}"
    );
    // The scratch tree lacks nearly every allowlisted path, so the
    // dead-allowlist rule must fire — pointing at the lint's own source
    // — for at least the wall-clock table and a sanctioned-cast entry.
    let dead: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "dead-allowlist")
        .collect();
    assert!(
        dead.iter()
            .all(|f| f.path.ends_with("crates/analyze/src/lint.rs")),
        "{dead:?}"
    );
    assert!(
        dead.iter().any(|f| f.detail.contains("WALL_CLOCK_ALLOW")),
        "{dead:?}"
    );
    assert!(
        dead.iter().any(|f| f.detail.contains("CAST_SANCTIONED")),
        "{dead:?}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The rule that bit in PR 6: `crates/farm/src/worker.rs` reading the
/// wall clock directly. The fixed file (clock injection) passes; the
/// old shape fails.
#[test]
fn the_worker_clock_fix_is_pinned() {
    let fixed = std::fs::read_to_string(workspace_root().join("crates/farm/src/worker.rs"))
        .expect("worker.rs reads");
    assert!(
        lint_source("crates/farm/src/worker.rs", &fixed).is_empty(),
        "worker.rs must stay on the injected clock"
    );
    let regressed = "pub fn now_millis() -> u64 { SystemTime::now().elapsed().as_millis() as u64 }";
    let findings = lint_source("crates/farm/src/worker.rs", regressed);
    assert!(findings.iter().any(|f| f.rule == "wall-clock"));
}
