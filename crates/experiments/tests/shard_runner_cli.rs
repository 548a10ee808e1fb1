//! `shard_runner` CLI contract: the run → (inject) → merge → reissue →
//! merge-verify pipeline across real processes and files, the figures
//! `render` draws (pinned under `tests/figures/`), and the exit
//! codes schedulers key on — `0` ok, `1` verification mismatch, `2`
//! usage error, `3` bad artifact. A parse failure must *not* exit
//! through the usage path: a retrying scheduler treats 2 as "operator
//! error, stop" and 3 as "re-fetch / re-run this artifact".

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn runner() -> Command {
    Command::new(env!("CARGO_BIN_EXE_shard_runner"))
}

fn run_in(dir: &Path, args: &[&str]) -> Output {
    runner()
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn shard_runner")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("shard_runner exited via signal")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch directory unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shard_runner_cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn usage_errors_exit_2() {
    let dir = scratch("usage");
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["run"][..],
        &["run", "--shard", "nonsense"][..],
        &["run", "--shard", "7/4"][..],
        &["merge"][..],
        &["merge", "--bogus-flag", "x.json"][..],
        &["reissue"][..],
        &["render"][..],
        &["render", "--grid", "full"][..],
        &["render", "--grid", "fig67", "--bogus-flag"][..],
        &["render", "--grid", "fig89", "--standard", "x.json"][..],
    ] {
        let out = run_in(&dir, args);
        assert_eq!(code(&out), 2, "args {args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage:"), "args {args:?}");
    }
}

#[test]
fn bad_artifacts_exit_3() {
    let dir = scratch("bad-artifacts");
    // Unreadable file.
    let out = run_in(&dir, &["merge", "no-such-file.json"]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    // Garbage bytes.
    std::fs::write(dir.join("garbage.json"), "{not json").unwrap();
    let out = run_in(&dir, &["merge", "garbage.json"]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    assert!(stderr(&out).contains("parse"), "{}", stderr(&out));
    // Structurally valid JSON of the wrong kind.
    std::fs::write(dir.join("wrong.json"), "{\"kind\":\"other\"}").unwrap();
    let out = run_in(&dir, &["merge", "wrong.json"]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    // Reissue inherits the same artifact discipline.
    let out = run_in(&dir, &["reissue", "--from", "garbage.json"]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    // A valid artifact set whose grid is not the named figure preset.
    let out = run_in(
        &dir,
        &[
            "run", "--grid", "extended", "--shard", "0/1", "--take", "2", "--out", "ext.json",
        ],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    for grid in ["fig67", "fig89", "table1"] {
        let out = run_in(&dir, &["render", "--grid", grid, "ext.json"]);
        assert_eq!(code(&out), 3, "{grid}: {}", stderr(&out));
        assert!(stderr(&out).contains("preset"), "{}", stderr(&out));
    }
}

/// The figures `render` must reproduce: per preset, the stdout of the
/// figures it draws (without `[wrote …]` lines) and its one CSV, on the
/// `small` corpus.
fn figure_fixture(grid: &str) -> (String, String) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/figures");
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("figure fixture `{name}`: {e}"))
    };
    let figures: &[&str] = match grid {
        "fig67" => &["fig6.txt", "fig7.txt"],
        "fig89" => &["fig8.txt", "fig9.txt"],
        _ => &["table1.txt"],
    };
    let stdout = figures.iter().map(|f| read(f)).collect();
    (stdout, read(&format!("{grid}.csv")))
}

/// Runs `render` in `dir` and checks its stdout and CSV against the
/// preset's figure fixture.
fn assert_renders_fixture(dir: &Path, grid: &str, files: &[&str]) {
    let (stdout, csv) = figure_fixture(grid);
    let mut args = vec!["render", "--grid", grid, "--out", "figs"];
    args.extend_from_slice(files);
    let out = run_in(dir, &args);
    assert_eq!(code(&out), 0, "{grid} {files:?}: {}", stderr(&out));
    assert_eq!(stderr(&out), "", "{grid} {files:?}: skipped pairs");
    let printed = String::from_utf8_lossy(&out.stdout);
    let (wrote, figures): (Vec<&str>, Vec<&str>) = printed
        .split_inclusive('\n')
        .partition(|line| line.starts_with("[wrote "));
    assert_eq!(figures.concat(), stdout, "{grid} {files:?}: stdout drifted");
    assert_eq!(wrote.len(), 1, "{grid} {files:?}: {wrote:?}");
    let written = std::fs::read_to_string(dir.join("figs").join(format!("{grid}.csv")))
        .expect("render wrote the preset's CSV");
    assert_eq!(written, csv, "{grid} {files:?}: CSV drifted");
}

/// `render` draws Figures 6–9 and Table 1 byte for byte as the fixtures
/// pin them — run in process, and merged from a 2-way artifact set.
#[test]
fn render_reproduces_the_figure_fixtures() {
    let dir = scratch("render");
    for grid in ["fig67", "fig89", "table1"] {
        assert_renders_fixture(&dir, grid, &[]);
        let shards: Vec<String> = (0..2).map(|i| format!("{grid}-{i}.json")).collect();
        for (i, file) in shards.iter().enumerate() {
            let spec = format!("{i}/2");
            let out = run_in(
                &dir,
                &["run", "--grid", grid, "--shard", &spec, "--out", file],
            );
            assert_eq!(code(&out), 0, "{grid} shard {i}: {}", stderr(&out));
        }
        let files: Vec<&str> = shards.iter().map(String::as_str).collect();
        assert_renders_fixture(&dir, grid, &files);
    }
}

/// One real artifact, duplicated into a merge: a *valid* artifact in an
/// invalid combination is still an artifact-level failure (3), and a
/// tampered artifact fails the bit-identity verification (1).
#[test]
fn overlap_exits_3_and_tampering_exits_1() {
    let dir = scratch("verify");
    let out = run_in(
        &dir,
        &[
            "run",
            "--shard",
            "0/1",
            "--grid",
            "fig89",
            "--take",
            "4",
            "--out",
            "whole.json",
        ],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));

    // The same artifact twice: overlapping cells → 3.
    let out = run_in(&dir, &["merge", "whole.json", "whole.json"]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));

    // Untampered: the merge verifies bit-identically → 0.
    let out = run_in(
        &dir,
        &["merge", "whole.json", "--verify-against-sequential"],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));

    // Tampered numbers parse fine but cannot match the sequential
    // reference → 1. (Tampering a result value, not a cache counter:
    // counter edits are caught earlier by the parser's per-cell-sum
    // check and exit 3.)
    let json = std::fs::read_to_string(dir.join("whole.json")).unwrap();
    let tampered = json.replacen("\"iterations\":", "\"iterations\":1", 1);
    assert_ne!(tampered, json);
    std::fs::write(dir.join("tampered.json"), &tampered).unwrap();
    let out = run_in(
        &dir,
        &["merge", "tampered.json", "--verify-against-sequential"],
    );
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("verification FAILED"),
        "{}",
        stderr(&out)
    );

    // A counter edit *is* caught at parse time.
    let counter_tampered = json.replacen("\"misses\":", "\"misses\":1", 1);
    assert_ne!(counter_tampered, json);
    std::fs::write(dir.join("counters.json"), &counter_tampered).unwrap();
    let out = run_in(&dir, &["merge", "counters.json"]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    assert!(stderr(&out).contains("counters"), "{}", stderr(&out));
}

/// The full heal pipeline across processes: four shard runs with
/// injected per-cell failures, consolidated, reissued, and merged with
/// the heal artifact — the final merge must verify **bit-identical** to
/// the in-process sequential reference.
#[test]
fn injected_failures_heal_and_verify_bit_identical() {
    let dir = scratch("heal");
    for i in 0..4 {
        let shard = format!("{i}/4");
        let out_file = format!("shard-{i}.json");
        let out = run_in(
            &dir,
            &[
                "run",
                "--shard",
                &shard,
                "--grid",
                "fig89",
                "--take",
                "6",
                "--inject-fail",
                "1,4,10",
                "--out",
                &out_file,
            ],
        );
        assert_eq!(code(&out), 0, "shard {i}: {}", stderr(&out));
    }

    // Consolidate (this is the `MERGED.json` reissue reads). The merge
    // itself succeeds — failures are reported, not fatal.
    let out = run_in(
        &dir,
        &[
            "merge",
            "shard-0.json",
            "shard-1.json",
            "shard-2.json",
            "shard-3.json",
            "--out-artifact",
            "merged-cells.json",
            "--out",
            "broken-report.json",
        ],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("3 failed (machine, loop) pair(s)"),
        "{stdout}"
    );

    // Reissue exactly the failed cells from the consolidated artifact.
    let out = run_in(
        &dir,
        &[
            "reissue",
            "--from",
            "merged-cells.json",
            "--out",
            "heal.json",
        ],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("3 of 12 grid cells"), "{stdout}");

    // Merge the consolidated artifact with its heal: complete, and
    // byte-identical to the sequential reference.
    let out = run_in(
        &dir,
        &[
            "merge",
            "merged-cells.json",
            "heal.json",
            "--verify-against-sequential",
            "--out",
            "healed-report.json",
        ],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("[no failures]"), "{stdout}");
    assert!(stdout.contains("[verified:"), "{stdout}");

    // The healed report differs from the broken one (the heal really
    // contributed cells) and parses as a versioned partial sweep.
    let broken = std::fs::read_to_string(dir.join("broken-report.json")).unwrap();
    let healed = std::fs::read_to_string(dir.join("healed-report.json")).unwrap();
    assert_ne!(broken, healed);
    let parsed = ncdrf::parse_partial_sweep(&healed).unwrap();
    assert!(parsed.is_complete());
}
