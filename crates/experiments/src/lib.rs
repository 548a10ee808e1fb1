//! Shared plumbing for the experiment binaries. The paper's Figures 6–9
//! and Table 1 are drawn by `shard_runner render`; the other binaries
//! cover the worked example, the related-work comparison and the
//! extension studies.
//!
//! Every binary built on [`Cli`] accepts exactly:
//!
//! * `--standard` — run on the full 795-loop corpus (minutes in release
//!   mode); the default is the fast `small` corpus (~100 loops), which
//!   already reproduces every qualitative shape;
//! * `--out <dir>` — where to write CSV results (default `results/`).
//!
//! Any other argument is a usage error (exit 2).

use ncdrf::corpus::Corpus;
use std::path::PathBuf;

/// Parsed common command-line options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The selected corpus.
    pub corpus: Corpus,
    /// Output directory for CSV results (default `results/`).
    pub out: PathBuf,
}

/// Parses `"i/n"` into a shard spec.
///
/// # Errors
///
/// A usage message when the spec is not `index/count`.
pub fn parse_shard_spec(spec: &str) -> Result<(u32, u32), String> {
    let usage = || format!("invalid shard spec `{spec}`; expected `<index>/<count>`, e.g. `0/4`");
    let (i, n) = spec.split_once('/').ok_or_else(usage)?;
    Ok((
        i.trim().parse().map_err(|_| usage())?,
        n.trim().parse().map_err(|_| usage())?,
    ))
}

impl Cli {
    /// Parses `std::env::args`, exiting 2 with a usage message on an
    /// unknown argument or a `--out` without a value.
    pub fn parse() -> Cli {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let mut standard = false;
        let mut out = PathBuf::from("results");
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--standard" => standard = true,
                "--out" => match args.next() {
                    Some(dir) => out = PathBuf::from(dir),
                    None => usage_error(&program, "`--out` needs a directory"),
                },
                other => usage_error(&program, &format!("unknown argument `{other}`")),
            }
        }
        let corpus = if standard {
            Corpus::standard()
        } else {
            Corpus::small()
        };
        Cli { corpus, out }
    }

    /// Writes `contents` to `<out>/<name>`, creating the directory.
    ///
    /// # Panics
    ///
    /// Panics if the filesystem refuses (experiments want loud failures).
    pub fn write(&self, name: &str, contents: &str) {
        std::fs::create_dir_all(&self.out).expect("create results dir");
        let path = self.out.join(name);
        std::fs::write(&path, contents).expect("write results file");
        println!("[wrote {}]", path.display());
    }
}

fn usage_error(program: &str, message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: {program} [--standard] [--out DIR]");
    std::process::exit(2);
}

/// Banner line identifying a run.
pub fn banner(what: &str, cli: &Cli) {
    println!(
        "=== {what} — corpus `{}` ({} loops) ===\n",
        cli.corpus.name(),
        cli.corpus.len()
    );
}
