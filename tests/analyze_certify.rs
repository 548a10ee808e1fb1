//! The offline certification drivers, run the same two ways the CLI
//! exposes: the golden fixtures must certify clean, and a freshly
//! produced artifact directory must certify clean until a cell is
//! corrupted — at which point the corruption must be rejected *by cell
//! coordinates*, not just by exit code.

use ncdrf::corpus::Corpus;
use ncdrf::json::{json_array, json_string, JsonObject};
use ncdrf::{Render, ReportFormat};
use ncdrf_analyze::certify::{certify_artifact_dir, certify_golden};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// All seven golden fixtures certify clean.
#[test]
fn all_seven_golden_fixtures_certify_clean() {
    let checks = certify_golden(&workspace_root().join("tests/golden"));
    assert_eq!(checks.len(), 7, "{checks:?}");
    for check in &checks {
        assert!(
            check.fault.is_none(),
            "golden `{}` failed certification: {:?}",
            check.fixture,
            check.fault
        );
    }
}

/// A freshly produced shard set certifies clean; corrupting one cell's
/// claimed register requirement in place is rejected with the cell's
/// loop and machine named.
#[test]
fn artifact_dir_certification_locates_a_corrupted_cell() {
    let dir = std::env::temp_dir().join(format!("ncdrf-certify-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let corpus = Corpus::small().take(4);
    let sweep = ncdrf::preset_sweep(&corpus, "fig67").expect("preset");
    for index in 0..2 {
        let shard = sweep.shard_with_faults(index, 2, &[]).expect("shard runs");
        ncdrf::write_artifact(
            dir.join(format!("shard-{index}.json")),
            &shard.render(ReportFormat::Json),
        )
        .expect("write artifact");
    }

    let checks = certify_artifact_dir(&dir).expect("dir scans");
    assert_eq!(checks.len(), 2);
    assert!(
        checks.iter().all(|c| c.faults.is_empty()),
        "honest artifacts must certify: {checks:?}"
    );

    // Corrupt the first claimed register requirement in shard 1.
    let victim = dir.join("shard-1.json");
    let json = std::fs::read_to_string(&victim).expect("read artifact");
    let at = json.find("\"regs\":").expect("a regs field") + "\"regs\":".len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let claimed: u32 = digits.parse().expect("regs digits");
    let corrupt = format!(
        "{}{}{}",
        &json[..at],
        claimed + 1,
        &json[at + digits.len()..]
    );
    assert!(
        ncdrf::parse_sweep_shard(&corrupt).is_ok(),
        "the corruption must survive parsing to reach certification"
    );
    std::fs::write(&victim, corrupt).expect("write corrupted artifact");

    let checks = certify_artifact_dir(&dir).expect("dir scans");
    let bad: Vec<_> = checks.iter().filter(|c| !c.faults.is_empty()).collect();
    assert_eq!(bad.len(), 1, "{checks:?}");
    assert!(bad[0].path.ends_with("shard-1.json"));
    let fault = &bad[0].faults[0];
    assert!(!fault.loop_name.is_empty(), "{fault:?}");
    assert!(!fault.machine.is_empty(), "{fault:?}");
    assert!(fault.detail.contains("disagrees"), "{fault:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The `--json` emitter's output parses back through the vendored
/// `serde_json` with every integer landing on the exact-integer path —
/// the contract that lets CI and farm tooling consume CLI results.
#[test]
fn emitted_json_round_trips_through_the_vendored_parser_exactly() {
    let mut fault = JsonObject::new();
    fault.integer("task", u128::from(u64::MAX));
    fault.string("detail", "cell 3 (loop `liv-loop7\\2` on C2L3):\n\"drift\"");
    let mut o = JsonObject::new();
    o.boolean("clean", false);
    o.raw("faults", &json_array([fault.finish()]));
    o.raw(
        "names",
        &json_array(["fig67.json", "extended.txt"].map(json_string)),
    );
    let rendered = o.finish();

    let v = serde_json::from_str(&rendered).expect("emitted JSON parses");
    assert_eq!(v.get("clean").and_then(|c| c.as_bool()), Some(false));
    let faults = v.get("faults").and_then(|f| f.as_array()).expect("faults");
    // u64::MAX survives exactly: no float path on either side.
    assert_eq!(
        faults[0].get("task").and_then(|t| t.as_u64()),
        Some(u64::MAX)
    );
    assert_eq!(
        faults[0].get("detail").and_then(|d| d.as_str()),
        Some("cell 3 (loop `liv-loop7\\2` on C2L3):\n\"drift\"")
    );
    let names = v.get("names").and_then(|n| n.as_array()).expect("names");
    assert_eq!(names[0].as_str(), Some("fig67.json"));
}
