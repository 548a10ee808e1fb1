//! Shared artifact I/O: reading, parsing and validating sweep-shard
//! artifacts from disk, and rebuilding the experiment grid a
//! [`GridSignature`] names.
//!
//! The `shard_runner` CLI's `run`/`merge`/`reissue` subcommands and the
//! `ncdrf-farm` daemon's artifact-directory watcher all consume the same
//! JSON artifacts; this module is the single implementation of the
//! read/parse/validate path (and of the signature → grid reconstruction
//! both need before they can re-evaluate cells), so the two front ends
//! cannot drift apart on what counts as a valid artifact.

use crate::pipeline::PipelineOptions;
use crate::report::parse_sweep_shard;
use crate::shard::GridSignature;
use crate::shard::SweepShard;
use crate::sweep::Sweep;
use ncdrf_corpus::{Corpus, STANDARD_SEED};
use ncdrf_machine::Machine;
use std::fmt;
use std::path::{Path, PathBuf};

/// Why an artifact could not be read, parsed, or mapped back onto a
/// grid this build can reproduce.
///
/// The variants deliberately mirror the `shard_runner` exit-code
/// contract: every one of these is an "artifact problem" (exit 3), as
/// opposed to an operator usage error (exit 2) — a scheduler retrying
/// shards can tell "re-fetch / re-run this artifact" from "fix the
/// command line".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file could not be read (or written).
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        error: String,
    },
    /// The file's contents are not a valid shard artifact.
    Parse {
        /// The offending path.
        path: PathBuf,
        /// The underlying parse error, rendered.
        error: String,
    },
    /// The artifact parsed, but names a grid this build cannot rebuild
    /// (unknown corpus/machine, mismatched loop list, or non-default
    /// pipeline options).
    Grid(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, error } => {
                write!(f, "read `{}`: {error}", path.display())
            }
            ArtifactError::Parse { path, error } => {
                write!(f, "parse `{}`: {error}", path.display())
            }
            ArtifactError::Grid(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Reads and parses one shard artifact.
///
/// # Errors
///
/// [`ArtifactError::Io`] when the file is unreadable,
/// [`ArtifactError::Parse`] when its contents are not a valid shard.
pub fn read_shard(path: impl AsRef<Path>) -> Result<SweepShard, ArtifactError> {
    let path = path.as_ref();
    let json = std::fs::read_to_string(path).map_err(|e| ArtifactError::Io {
        path: path.to_owned(),
        error: e.to_string(),
    })?;
    parse_sweep_shard(&json).map_err(|e| ArtifactError::Parse {
        path: path.to_owned(),
        error: e.to_string(),
    })
}

/// Reads and parses a set of shard artifacts, in argument order.
///
/// # Errors
///
/// The first file's [`ArtifactError`].
pub fn read_shards<P: AsRef<Path>>(paths: &[P]) -> Result<Vec<SweepShard>, ArtifactError> {
    paths.iter().map(read_shard).collect()
}

/// Writes an artifact, creating parent directories as needed.
///
/// # Errors
///
/// [`ArtifactError::Io`] naming the path.
pub fn write_artifact(path: impl AsRef<Path>, contents: &str) -> Result<(), ArtifactError> {
    let path = path.as_ref();
    let io_err = |e: std::io::Error| ArtifactError::Io {
        path: path.to_owned(),
        error: e.to_string(),
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(io_err)?;
        }
    }
    std::fs::write(path, contents).map_err(io_err)
}

/// Scans a directory for shard artifacts: every `.json` file that parses
/// as a [`SweepShard`], sorted by file name (so repeated scans are
/// deterministic). Files that are not shard artifacts — reports, foreign
/// JSON, half-written files — are skipped, not errors: the farm daemon's
/// watcher polls a live directory where a runner may be mid-write.
///
/// # Errors
///
/// [`ArtifactError::Io`] only when the directory itself is unreadable.
pub fn scan_artifacts(dir: impl AsRef<Path>) -> Result<Vec<(PathBuf, SweepShard)>, ArtifactError> {
    let dir = dir.as_ref();
    let entries = std::fs::read_dir(dir).map_err(|e| ArtifactError::Io {
        path: dir.to_owned(),
        error: e.to_string(),
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    Ok(paths
        .into_iter()
        .filter_map(|p| read_shard(&p).ok().map(|s| (p, s)))
        .collect())
}

/// Rebuilds a preset machine from its name (`C2L<lat>` clustered,
/// `P<x>L<lat>` unified) — the only machines the preset grids emit.
pub fn machine_from_name(name: &str) -> Option<Machine> {
    if let Some(lat) = name.strip_prefix("C2L").and_then(|s| s.parse().ok()) {
        return Some(Machine::clustered(lat, 1));
    }
    let rest = name.strip_prefix('P')?;
    let (x, lat) = rest.split_once('L')?;
    Some(Machine::pxly(x.parse().ok()?, lat.parse().ok()?))
}

/// The corpora this build reproduces by name: `small` or `standard`,
/// optionally cut to its first `take` loops (named `<base>-take<N>`, as
/// [`Corpus::take`] names it). A cut is built as a prefix, without
/// generating the loops it drops. `None` for any other base name. The
/// one name table behind [`rebuild_corpus`] and the farm's job specs.
pub fn named_corpus(base: &str, take: Option<usize>) -> Option<Corpus> {
    let total = match base {
        "small" => Corpus::SMALL_LOOPS,
        "standard" => Corpus::STANDARD_LOOPS,
        _ => return None,
    };
    Some(match take {
        None => Corpus::sized(base, total, STANDARD_SEED),
        Some(n) => Corpus::sized_prefix(format!("{base}-take{n}"), total, n, STANDARD_SEED),
    })
}

/// Rebuilds the corpus a signature names, refusing silently-different
/// grids (the loop list must match this build exactly). `take` subsets
/// serialize as `<base>-take<N>` and rebuild the same way.
///
/// # Errors
///
/// [`ArtifactError::Grid`] when the corpus name is not reproducible
/// here, or its loop list differs from this build's.
pub fn rebuild_corpus(sig: &GridSignature) -> Result<Corpus, ArtifactError> {
    let corpus = named_corpus(&sig.corpus, None).or_else(|| {
        let (stem, n) = sig.corpus.rsplit_once("-take")?;
        named_corpus(stem, Some(n.parse().ok()?))
    });
    let Some(corpus) = corpus else {
        return Err(ArtifactError::Grid(format!(
            "cannot rebuild corpus `{}` (only `small`/`standard` and their -takeN subsets are \
             reproducible here); merge without --verify-against-sequential",
            sig.corpus
        )));
    };
    let matches = corpus.len() == sig.loops.len()
        && corpus
            .iter()
            .zip(&sig.loops)
            .all(|(l, name)| l.name() == name);
    if !matches {
        return Err(ArtifactError::Grid(format!(
            "the shards' `{}` corpus has a different loop list than this build",
            sig.corpus
        )));
    }
    Ok(corpus)
}

/// Rebuilds the corpus and machine grid a signature names, refusing
/// silently-different grids: [`rebuild_corpus`] then
/// [`rebuild_machines`].
///
/// # Errors
///
/// [`ArtifactError::Grid`] when the corpus, a machine, or the pipeline
/// options cannot be reproduced by this build.
pub fn rebuild_grid(sig: &GridSignature) -> Result<(Corpus, Vec<Machine>), ArtifactError> {
    let corpus = rebuild_corpus(sig)?;
    Ok((corpus, rebuild_machines(sig)?))
}

/// Rebuilds the machines a signature names and checks its pipeline
/// options are the defaults this build reproduces.
///
/// The machine name alone does not pin the datapath (it omits e.g.
/// load/store units per cluster), so each rebuilt machine is
/// cross-checked against the signature's recorded latency and port
/// count instead of letting a name-colliding variant masquerade as a
/// verification failure downstream.
///
/// # Errors
///
/// [`ArtifactError::Grid`] when a machine or the pipeline options
/// cannot be reproduced by this build.
pub fn rebuild_machines(sig: &GridSignature) -> Result<Vec<Machine>, ArtifactError> {
    let machines: Vec<Machine> = sig
        .machines
        .iter()
        .map(|m| {
            let machine = machine_from_name(&m.name).ok_or_else(|| {
                ArtifactError::Grid(format!("cannot rebuild machine `{}`", m.name))
            })?;
            let latency = machine
                .groups()
                .iter()
                .map(|g| g.latency)
                .max()
                .unwrap_or(0);
            let ports = machine.memory_ports() as u32;
            if latency != m.latency || ports != m.ports {
                return Err(ArtifactError::Grid(format!(
                    "cannot rebuild machine `{}`: this build reconstructs latency {latency} / \
                     {ports} ports, the shards declare latency {} / {} ports",
                    m.name, m.latency, m.ports
                )));
            }
            Ok(machine)
        })
        .collect::<Result<_, _>>()?;
    if sig.options != format!("{:?}", PipelineOptions::default()) {
        return Err(ArtifactError::Grid(
            "the shards were produced with non-default pipeline options; cannot rebuild the grid"
                .to_owned(),
        ));
    }
    Ok(machines)
}

/// A [`Sweep`] builder pre-populated from a signature: the given
/// machines plus the signature's model set, sample points and budgets —
/// the sweep whose own signature equals `sig` (given `corpus` and
/// `machines` from [`rebuild_grid`]). The shared starting point of every
/// re-evaluation path: `shard_runner reissue`, sequential verification,
/// and the farm's lease workers.
pub fn sweep_for_signature<'c>(
    sig: &GridSignature,
    corpus: &'c Corpus,
    machines: Vec<Machine>,
) -> Sweep<'c> {
    Sweep::new(corpus)
        .machines(machines)
        .models(sig.models.iter().copied())
        .points(sig.points.iter().copied())
        .budgets(sig.budgets.iter().copied())
}

/// Builds one of the named preset experiment grids over `corpus`:
/// `full` (Figure 6–9 machines, models, points and budgets in one
/// sweep), `fig67`, `fig89`, `table1`, or `extended` (the registry's
/// non-paper built-ins — the read-port-constrained and compressed
/// register files — against the unified baseline). Returns `None` for
/// an unknown preset name.
///
/// The presets are pinned here — not on any command line — so two
/// runners (or a runner and the farm daemon) can only disagree by
/// naming different presets, which the merge's signature check catches.
pub fn preset_sweep<'c>(corpus: &'c Corpus, grid: &str) -> Option<Sweep<'c>> {
    use crate::distribution::{default_points, TABLE1_POINTS};
    use crate::model::{ModelId, PAPER_FINITE_MODELS, PAPER_MODELS};
    Some(match grid {
        "full" => Sweep::new(corpus)
            .clustered_latencies([3, 6])
            .models(PAPER_MODELS)
            .points(default_points())
            .budgets([32, 64]),
        "fig67" => Sweep::new(corpus)
            .clustered_latencies([3, 6])
            .models(PAPER_FINITE_MODELS)
            .points(default_points()),
        "fig89" => Sweep::new(corpus)
            .clustered_latencies([3, 6])
            .models(PAPER_MODELS)
            .budgets([32, 64]),
        "table1" => Sweep::new(corpus)
            .pxly_configs([(1, 3), (2, 3), (1, 6), (2, 6)])
            .models([ModelId::UNIFIED])
            .points(TABLE1_POINTS),
        "extended" => Sweep::new(corpus)
            .clustered_latencies([3])
            .models([
                ModelId::IDEAL,
                ModelId::UNIFIED,
                ModelId::PORT_LIMITED,
                ModelId::COMPRESSED,
            ])
            .points(default_points())
            .budgets([16, 8]),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelId;
    use crate::{Render, ReportFormat};

    fn tiny_sweep(corpus: &Corpus) -> Sweep<'_> {
        Sweep::new(corpus)
            .clustered_latencies([3])
            .models([ModelId::UNIFIED])
            .budget(32)
    }

    #[test]
    fn shards_round_trip_through_the_filesystem() {
        let corpus = Corpus::small().take(3);
        let shard = tiny_sweep(&corpus).shard(0, 2).unwrap();
        let dir = std::env::temp_dir().join("ncdrf-artifact-io-test");
        let path = dir.join("nested").join("shard.json");
        write_artifact(&path, &shard.render(ReportFormat::Json)).unwrap();
        let back = read_shard(&path).unwrap();
        assert_eq!(back, shard);
        let all = read_shards(&[&path]).unwrap();
        assert_eq!(all, vec![shard]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_skips_foreign_files_and_sorts_by_name() {
        let corpus = Corpus::small().take(3);
        let sweep = tiny_sweep(&corpus);
        let dir = std::env::temp_dir().join("ncdrf-artifact-scan-test");
        let _ = std::fs::remove_dir_all(&dir);
        let b = sweep.shard(1, 2).unwrap();
        let a = sweep.shard(0, 2).unwrap();
        write_artifact(dir.join("b.json"), &b.render(ReportFormat::Json)).unwrap();
        write_artifact(dir.join("a.json"), &a.render(ReportFormat::Json)).unwrap();
        write_artifact(dir.join("notes.json"), "{\"kind\":\"other\"}").unwrap();
        write_artifact(dir.join("junk.txt"), "not json").unwrap();
        let found = scan_artifacts(&dir).unwrap();
        assert_eq!(found.len(), 2, "only real shard artifacts are returned");
        assert_eq!(found[0].1, a, "sorted by file name");
        assert_eq!(found[1].1, b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebuild_grid_reproduces_preset_signatures() {
        let corpus = Corpus::small().take(4);
        for grid in ["full", "fig67", "fig89", "table1", "extended"] {
            let sweep = preset_sweep(&corpus, grid).unwrap();
            let shard = sweep.shard(0, 1).unwrap();
            let (rebuilt, machines) = rebuild_grid(shard.signature()).unwrap();
            assert_eq!(rebuilt.name(), corpus.name(), "{grid}");
            let resumed = sweep_for_signature(shard.signature(), &rebuilt, machines)
                .shard(0, 1)
                .unwrap();
            assert_eq!(resumed.signature(), shard.signature(), "{grid}");
        }
        assert!(preset_sweep(&corpus, "nope").is_none());
    }

    #[test]
    fn named_corpora_are_the_base_corpora_and_their_prefixes() {
        assert_eq!(named_corpus("small", None), Some(Corpus::small()));
        for n in [0, 5, 53, 60, Corpus::SMALL_LOOPS, Corpus::SMALL_LOOPS + 4] {
            assert_eq!(
                named_corpus("small", Some(n)),
                Some(Corpus::small().take(n))
            );
        }
        assert_eq!(named_corpus("exotic", None), None);
        assert_eq!(named_corpus("small-take4", None), None, "no nested cuts");
    }

    #[test]
    fn rebuild_refuses_foreign_grids() {
        let corpus = Corpus::small().take(3);
        let shard = tiny_sweep(&corpus).shard(0, 1).unwrap();
        let mut foreign_corpus = shard.signature().clone();
        foreign_corpus.corpus = "exotic".into();
        assert!(matches!(
            rebuild_corpus(&foreign_corpus),
            Err(ArtifactError::Grid(_))
        ));
        let mut foreign_machine = shard.signature().clone();
        foreign_machine.machines[0].ports = 99;
        let err = rebuild_grid(&foreign_machine).unwrap_err();
        assert!(err.to_string().contains("99 ports"), "{err}");
        let mut foreign_opts = shard.signature().clone();
        foreign_opts.options = "custom".into();
        let err = rebuild_grid(&foreign_opts).unwrap_err();
        assert!(err.to_string().contains("pipeline options"), "{err}");
    }

    #[test]
    fn machine_names_round_trip() {
        // Memory ports are fixed per family: the unified `P<x>L<lat>`
        // presets carry 2 load + 1 store port regardless of `x` (which
        // counts adders/multipliers), the clustered evaluation machine
        // one load/store unit per cluster.
        for (name, latency, ports) in [
            ("C2L3", 3, 2),
            ("C2L6", 6, 2),
            ("P1L3", 3, 3),
            ("P2L6", 6, 3),
        ] {
            let m = machine_from_name(name).unwrap();
            assert_eq!(m.name(), name);
            let max_lat = m.groups().iter().map(|g| g.latency).max().unwrap();
            assert_eq!(max_lat, latency, "{name}");
            assert_eq!(m.memory_ports(), ports, "{name}");
        }
        assert!(machine_from_name("Q9").is_none());
    }
}
