//! The experiment binaries' shared flag parsing: `--standard` and
//! `--out DIR` only. Anything else — a `--shard` spec, a typo, a `--out`
//! with no directory — is a usage error (exit 2), not silently ignored.

use std::process::Command;

#[test]
fn unknown_flags_and_a_bare_out_exit_2() {
    let dir = std::env::temp_dir().join(format!("cli_flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for args in [
        &["--shard", "0/4", "--out", "d"][..],
        &["--bogus", "--out", "d"][..],
        &["--out"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_related_work"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("spawn related_work");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "args {args:?} ran the experiment");
    }
    assert!(!dir.join("d").exists() && !dir.join("results").exists());
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
