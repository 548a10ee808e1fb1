//! The experiment binaries besides `shard_runner` reproduce their
//! small-corpus output byte for byte: the stdout (without `[wrote …]`
//! lines) and the CSV pinned per binary under `tests/bins/`.

use std::path::Path;
use std::process::Command;

/// Each binary's name, its executable and whether it writes
/// `<name>.csv` into its `--out` directory.
const BINS: &[(&str, &str, bool)] = &[
    ("example_loop", env!("CARGO_BIN_EXE_example_loop"), true),
    ("related_work", env!("CARGO_BIN_EXE_related_work"), true),
    (
        "cluster_scaling",
        env!("CARGO_BIN_EXE_cluster_scaling"),
        true,
    ),
    ("ablations", env!("CARGO_BIN_EXE_ablations"), false),
];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/bins")
        .join(name);
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("fixture `{name}`: {e}"))
}

#[test]
fn experiment_binaries_reproduce_their_fixtures() {
    let out_dir = std::env::temp_dir().join(format!("experiment_bins-{}", std::process::id()));
    for &(name, exe, writes_csv) in BINS {
        let mut cmd = Command::new(exe);
        if writes_csv {
            cmd.arg("--out").arg(&out_dir);
        }
        let out = cmd.output().unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {stderr}");
        assert_eq!(stderr, "", "{name}: unexpected stderr");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (wrote, printed): (Vec<&str>, Vec<&str>) = stdout
            .split_inclusive('\n')
            .partition(|line| line.starts_with("[wrote "));
        assert_eq!(
            printed.concat(),
            fixture(&format!("{name}.txt")),
            "{name}: stdout drifted"
        );
        assert_eq!(wrote.len(), usize::from(writes_csv), "{name}: {wrote:?}");
        if writes_csv {
            let csv = format!("{name}.csv");
            let written = std::fs::read_to_string(out_dir.join(&csv))
                .unwrap_or_else(|e| panic!("{name} wrote no `{csv}`: {e}"));
            assert_eq!(written, fixture(&csv), "{name}: CSV drifted");
        }
    }
    std::fs::remove_dir_all(&out_dir).expect("remove scratch dir");
}

#[test]
fn ablations_takes_no_arguments() {
    for args in [&["--standard"][..], &["--out", "d"][..], &["x"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
            .args(args)
            .output()
            .expect("spawn ablations");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "args {args:?} ran the ablations");
    }
}
