//! Multi-process sharded sweep driver with heal-and-resume support.
//!
//! `shard_runner run` evaluates one shard of a fixed experiment grid and
//! writes a mergeable JSON artifact; `shard_runner merge` reassembles
//! any complete set of such artifacts into the full report and can
//! verify the result against an in-process sequential run;
//! `shard_runner reissue` re-runs exactly the cells a shard set failed
//! to deliver (failed outcomes and lost shards alike) and writes a
//! **heal artifact** that `merge` accepts as a complement — so a
//! partially-failed grid is healed cell-by-cell instead of re-run from
//! scratch. This is how the CI matrix splits the experiment grid over
//! four runners (on the fast `small` corpus; pass `--standard` for the
//! 795-loop population), proves the merged report **bit-identical** to
//! an unsharded `Sweep::run_sequential`, and — in the `heal-verify`
//! job — proves the same for a run with deliberately injected per-cell
//! failures after healing.
//!
//! ```text
//! shard_runner run --shard <i>/<n> [--out FILE.json] [--grid GRID] [--standard]
//!                  [--take N] [--persist-trajectories] [--inject-fail T1,T2,..]
//! shard_runner merge [--verify-against-sequential] [--out FILE.json]
//!                    [--out-artifact FILE.json] FILE.json...
//! shard_runner reissue --from FILE.json... --out HEAL.json [--persist-trajectories]
//! shard_runner render --grid fig67|fig89|table1 [--standard] [--out DIR] [FILE.json...]
//! shard_runner worker --farm HOST:PORT [--poll-ms MS] [--workers N] [--exit-when-idle]
//! ```
//!
//! Grids: `full` (default; Figure 6–9 machines, models, points and
//! budgets in one sweep), `fig67`, `fig89`, `table1`, `extended`.
//!
//! `render` prints the figures of one paper preset — `fig67` Figures 6
//! and 7, `fig89` Figures 8 and 9, `table1` Table 1 — and writes one CSV
//! per preset (`fig67.csv`, `fig89.csv`, `table1.csv`) under `--out`
//! (default `results/`). With no files it runs the preset in process on
//! the `small` corpus (`--standard`: the 795-loop corpus), reporting
//! skipped pairs on stderr; given artifacts it merges them and refuses
//! (exit 3) any set whose grid is not the named preset's.
//!
//! `worker` turns this binary into a farm worker: it pulls cell leases
//! from a running `farm_daemon` over HTTP, evaluates them on a shared
//! in-process pool (rebuilding the sweep from the lease's grid
//! signature, injecting any requested faults, importing any seed
//! trajectories) and delivers the resulting shard artifacts back.
//! `--exit-when-idle` makes it drain the queue and exit — the shape the
//! CI farm gate uses.
//!
//! `--persist-trajectories` records each cell's spill-trajectory
//! checkpoints in the artifact (shard format v4), so a later `reissue`
//! resumes the descents instead of respilling from zero; `--inject-fail`
//! marks the named grid cells failed without evaluating them (the
//! deliberate-failure half of the heal CI gate; indices outside the
//! runner's shard are ignored, so every runner of a matrix can take the
//! same list).
//!
//! Exit codes: `0` success, `1` verification mismatch, `2` usage or
//! configuration error, `3` unreadable/corrupt/incompatible artifact.

use ncdrf::corpus::Corpus;
use ncdrf::machine::Machine;
use ncdrf::{
    BudgetMetric, BudgetTable, DistributionPanel, GridSignature, PartialSweep, Render,
    ReportFormat, Sweep, SweepReport, SweepShard, FIG89_CONFIGS,
};
use ncdrf_experiments::{banner, parse_shard_spec, Cli};
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage:
  shard_runner run --shard <i>/<n> [--out FILE.json] [--grid full|fig67|fig89|table1|extended] [--standard]
                   [--take N] [--persist-trajectories] [--inject-fail T1,T2,..]
  shard_runner merge [--verify-against-sequential] [--out FILE.json] [--out-artifact FILE.json] FILE.json...
  shard_runner reissue --from FILE.json... --out HEAL.json [--persist-trajectories]
  shard_runner render --grid fig67|fig89|table1 [--standard] [--out DIR] [FILE.json...]
  shard_runner worker --farm HOST:PORT [--poll-ms MS] [--workers N] [--exit-when-idle]
exit codes: 0 ok, 1 verification mismatch, 2 usage error, 3 bad artifact";

/// Usage / configuration error: exit 2.
fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    exit(2);
}

/// Unreadable, corrupt or incompatible artifact: exit 3. Distinct from
/// usage errors so a scheduler retrying shards can tell "operator typo"
/// from "re-fetch / re-run this artifact".
fn die_artifact(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(3);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("merge") => merge(&args[1..]),
        Some("reissue") => reissue(&args[1..]),
        Some("render") => render(&args[1..]),
        Some("worker") => worker(&args[1..]),
        Some(other) => die(&format!("unknown subcommand `{other}`")),
        None => die("missing subcommand"),
    }
}

/// Value of `--flag <value>`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| match args.get(i + 1) {
            Some(v) => v.as_str(),
            None => die(&format!("`{flag}` needs a value")),
        })
}

/// Builds the named experiment grid over `corpus`. The grid presets are
/// pinned in [`ncdrf::preset_sweep`] — shared with the farm daemon, not
/// on any command line — so two runners can only disagree by naming
/// different presets, which the merge's signature check catches.
fn build_sweep<'c>(corpus: &'c Corpus, grid: &str) -> Sweep<'c> {
    ncdrf::preset_sweep(corpus, grid).unwrap_or_else(|| die(&format!("unknown grid `{grid}`")))
}

/// The 795-loop corpus under `--standard`, else the `small` one.
fn selected_corpus(args: &[String]) -> Corpus {
    if args.iter().any(|a| a == "--standard") {
        Corpus::standard()
    } else {
        Corpus::small()
    }
}

/// Writes `contents` to `path`, creating parent directories.
fn write_file(path: &str, contents: &str) {
    ncdrf::write_artifact(path, contents).unwrap_or_else(|e| die(&e.to_string()));
    println!("[wrote {path}]");
}

fn run(args: &[String]) {
    let (index, count) = match flag_value(args, "--shard") {
        Some(spec) => parse_shard_spec(spec).unwrap_or_else(|e| die(&e)),
        None => die("`run` needs `--shard <i>/<n>`"),
    };
    let grid = flag_value(args, "--grid").unwrap_or("full");
    let mut corpus = selected_corpus(args);
    if let Some(n) = flag_value(args, "--take") {
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| die(&format!("`--take` needs a count, got `{n}`")));
        corpus = corpus.take(n);
    }
    let faults: Vec<u64> = match flag_value(args, "--inject-fail") {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .unwrap_or_else(|_| die(&format!("`--inject-fail` holds a non-index: `{t}`")))
            })
            .collect(),
    };
    let out = flag_value(args, "--out")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("shard-{index}-of-{count}.json"));

    let sweep = build_sweep(&corpus, grid)
        .persist_trajectories(args.iter().any(|a| a == "--persist-trajectories"));
    let shard = sweep
        .shard_with_faults(index, count, &faults)
        .unwrap_or_else(|e| die(&e.to_string()));
    print!("{}", shard.render(ReportFormat::Text));
    if !faults.is_empty() {
        println!("[injected {} cell failure(s)]", shard.failure_count());
    }
    write_file(&out, &shard.render(ReportFormat::Json));
}

fn read_shards(files: &[&str]) -> Vec<SweepShard> {
    ncdrf::read_shards(files).unwrap_or_else(|e| die_artifact(&e.to_string()))
}

/// The positional (non-flag) arguments: `value_flags` consume the
/// following argument, `bool_flags` stand alone, anything else starting
/// with `--` is a usage error.
fn positional_args<'a>(
    args: &'a [String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Vec<&'a str> {
    let mut files = Vec::new();
    let mut skip = false;
    for a in args.iter() {
        if skip {
            skip = false;
            continue;
        }
        match a.as_str() {
            flag if value_flags.contains(&flag) => skip = true,
            flag if bool_flags.contains(&flag) => {}
            flag if flag.starts_with("--") => die(&format!("unknown flag `{flag}`")),
            file => files.push(file),
        }
    }
    files
}

fn merge(args: &[String]) {
    let verify = args.iter().any(|a| a == "--verify-against-sequential");
    let out = flag_value(args, "--out");
    let out_artifact = flag_value(args, "--out-artifact");
    let files = positional_args(
        args,
        &["--out", "--out-artifact"],
        &["--verify-against-sequential"],
    );
    if files.is_empty() {
        die("`merge` needs at least one shard file");
    }

    let shards = read_shards(&files);
    println!(
        "[merging {} artifact(s) covering {} grid cells]",
        shards.len(),
        shards.iter().map(SweepShard::cell_count).sum::<usize>()
    );
    let merged = SweepShard::merge(&shards).unwrap_or_else(|e| die_artifact(&e.to_string()));
    print!("{}", merged.render(ReportFormat::Text));
    if let Some(path) = out {
        write_file(path, &merged.render(ReportFormat::Json));
    }
    if let Some(path) = out_artifact {
        // The consolidated cell-level artifact: one 1/1 shard carrying
        // every resolved cell (and its persisted trajectories), usable
        // both as a future merge input and as `reissue --from`.
        let consolidated =
            SweepShard::consolidate(&shards).unwrap_or_else(|e| die_artifact(&e.to_string()));
        write_file(path, &consolidated.render(ReportFormat::Json));
    }
    if verify {
        verify_against_sequential(&merged, shards[0].signature());
    }
}

fn reissue(args: &[String]) {
    let persist = args.iter().any(|a| a == "--persist-trajectories");
    let out = flag_value(args, "--out").unwrap_or("heal.json");
    let files = positional_args(args, &["--out"], &["--from", "--persist-trajectories"]);
    if files.is_empty() {
        die("`reissue` needs `--from FILE.json...`");
    }

    let shards = read_shards(&files);
    let missing = SweepShard::unresolved(&shards).unwrap_or_else(|e| die_artifact(&e.to_string()));
    let sig = shards[0].signature();
    println!(
        "[{} of {} grid cells failed or missing]",
        missing.len(),
        sig.total_tasks()
    );

    let (corpus, machines) = rebuild_grid(sig);
    let sweep = ncdrf::sweep_for_signature(sig, &corpus, machines).persist_trajectories(persist);
    let heal = sweep
        .reissue(&missing, &shards)
        .unwrap_or_else(|e| die_artifact(&e.to_string()));
    print!("{}", heal.render(ReportFormat::Text));
    write_file(out, &heal.render(ReportFormat::Json));
}

fn render(args: &[String]) {
    let grid = flag_value(args, "--grid")
        .unwrap_or_else(|| die("`render` needs `--grid fig67|fig89|table1`"));
    let draw: fn(&Cli, &SweepReport) = match grid {
        "fig67" => draw_distributions,
        "fig89" => draw_budgets,
        "table1" => draw_table1,
        other => die(&format!(
            "`render` draws fig67, fig89 or table1, not `{other}`"
        )),
    };
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or("results"));
    let files = positional_args(args, &["--grid", "--out"], &["--standard"]);

    let (corpus, partial) = if files.is_empty() {
        let corpus = selected_corpus(args);
        let partial = build_sweep(&corpus, grid).run_partial();
        (corpus, partial)
    } else {
        if args.iter().any(|a| a == "--standard") {
            die("`--standard` picks the corpus of an in-process run; artifacts carry their own");
        }
        let shards = read_shards(&files);
        let merged = SweepShard::merge(&shards).unwrap_or_else(|e| die_artifact(&e.to_string()));
        let sig = shards[0].signature();
        let corpus = ncdrf::rebuild_corpus(sig).unwrap_or_else(|e| die_artifact(&e.to_string()));
        if build_sweep(&corpus, grid).signature() != *sig {
            die_artifact(&format!("the artifacts are not the `{grid}` preset's grid"));
        }
        (corpus, merged)
    };
    for e in &partial.errors {
        eprintln!("[skipped] {e}");
    }
    draw(&Cli { corpus, out }, &partial.report);
}

/// Figures 6 and 7: the cumulative distributions of loops (static) and
/// of execution cycles (dynamic) over register requirements, for the
/// finite models at latencies 3 and 6.
fn draw_distributions(cli: &Cli, report: &SweepReport) {
    for (title, dynamic, shape) in [
        (
            "Figure 6: static cumulative distribution of loops",
            false,
            "Partitioned lies left of (above) Unified, Swapped slightly left of \
             Partitioned; the gap grows with latency.",
        ),
        (
            "Figure 7: dynamic cumulative distribution of cycles",
            true,
            "high-pressure loops carry disproportionate execution weight, so the \
             dynamic gap between models exceeds the static one.",
        ),
    ] {
        banner(title, cli);
        for lat in [3, 6] {
            let curves: Vec<_> = report
                .distributions
                .iter()
                .filter(|c| c.latency == lat)
                .cloned()
                .collect();
            let panel = DistributionPanel {
                curves: &curves,
                dynamic,
            };
            println!("{}", panel.render(ReportFormat::Text));
        }
        println!(
            "[schedule cache: {} runs, {} hits]\n",
            report.scheduling.misses, report.scheduling.hits
        );
        println!("paper shape: {shape}");
    }
    cli.write("fig67.csv", &report.distributions.render(ReportFormat::Csv));
}

/// Figures 8 and 9: relative performance and memory-traffic density of
/// the four models with 32 and 64 registers at latencies 3 and 6, the
/// spiller inserting spill code wherever a loop exceeds the file.
fn draw_budgets(cli: &Cli, report: &SweepReport) {
    for (title, metric, shape) in [
        (
            "Figure 8: performance under finite register files",
            BudgetMetric::Performance,
            "with 64 registers Partitioned/Swapped ~ Ideal while Unified loses at \
             latency 6; with 32 registers Unified degrades sharply and Swapped beats \
             Partitioned where pressure is highest.",
        ),
        (
            "Figure 9: density of memory traffic",
            BudgetMetric::TrafficDensity,
            "Partitioned/Swapped carry less traffic than Unified (less spill code) \
             except at L=6/R=32 where heavy spilling makes the three converge.",
        ),
    ] {
        banner(title, cli);
        for (lat, regs) in FIG89_CONFIGS {
            let outcomes: Vec<_> = report
                .outcomes_for(&format!("C2L{lat}"), regs)
                .into_iter()
                .cloned()
                .collect();
            let table = BudgetTable {
                outcomes: &outcomes,
                metric,
            };
            println!("--- L={lat}, R={regs} ---");
            println!("{}", table.render(ReportFormat::Text));
        }
        println!("[schedule cache: {}]\n", report.scheduling);
        println!("paper shape: {shape}");
    }
    cli.write("fig89.csv", &report.outcomes.render(ReportFormat::Csv));
}

/// Table 1: the share of loops, and of execution cycles, allocatable
/// without spilling within 16/32/64 registers on the unified `PxLy`
/// machines.
fn draw_table1(cli: &Cli, report: &SweepReport) {
    banner("Table 1: allocatable loops under PxLy configurations", cli);
    let rows = report.table1();
    println!("{}", rows.render(ReportFormat::Text));
    println!(
        "paper shape: pressure grows down the table; P2L6 leaves a noticeable share \
         of loops (and a larger share of cycles) above 64\nregisters."
    );
    cli.write("table1.csv", &rows.render(ReportFormat::Csv));
}

fn worker(args: &[String]) {
    let farm =
        flag_value(args, "--farm").unwrap_or_else(|| die("`worker` needs `--farm HOST:PORT`"));
    let farm = farm.strip_prefix("http://").unwrap_or(farm);
    let addr: std::net::SocketAddr = {
        use std::net::ToSocketAddrs;
        farm.to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .unwrap_or_else(|| die(&format!("cannot resolve farm address `{farm}`")))
    };
    let poll_ms: u64 = flag_value(args, "--poll-ms")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("`--poll-ms` needs milliseconds, got `{v}`")))
        })
        .unwrap_or(200);
    let pool = std::sync::Arc::new(match flag_value(args, "--workers") {
        Some(n) => ncdrf_exec::Pool::with_workers(
            n.parse()
                .unwrap_or_else(|_| die(&format!("`--workers` needs a count, got `{n}`"))),
        ),
        None => ncdrf_exec::Pool::new(),
    });
    let exit_when_idle = args.iter().any(|a| a == "--exit-when-idle");
    let name = format!("shard_runner-{}", std::process::id());

    let mut delivered = 0usize;
    loop {
        let (status, body) = match ncdrf_farm::request(addr, "POST", "/leases", &name) {
            Ok(reply) => reply,
            Err(e) => die(&format!("farm unreachable: {e}")),
        };
        match status {
            200 => {}
            204 => {
                if exit_when_idle {
                    println!("[farm idle; delivered {delivered} artifact(s)]");
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                continue;
            }
            other => die(&format!("farm refused the claim: HTTP {other}: {body}")),
        }
        let offer = ncdrf_farm::LeaseOffer::from_json(&body)
            .unwrap_or_else(|e| die_artifact(&format!("lease offer: {e}")));
        let lease = offer.lease;
        println!(
            "[lease {lease}: {} cell(s) of {} for {}]",
            offer.tasks.len(),
            offer.signature.total_tasks(),
            offer.job
        );
        let artifact = ncdrf_farm::evaluate_lease(&offer, Some(std::sync::Arc::clone(&pool)))
            .unwrap_or_else(|e| die_artifact(&e));
        let path = format!("/leases/{lease}/artifact");
        match ncdrf_farm::request(addr, "POST", &path, &artifact.render(ReportFormat::Json)) {
            Ok((200, _)) => delivered += 1,
            Ok((status, body)) => die(&format!("farm refused the delivery: HTTP {status}: {body}")),
            Err(e) => die(&format!("farm unreachable: {e}")),
        }
    }
}

/// Rebuilds the corpus and machine grid a signature names, refusing
/// silently-different grids; exits 3 when this build cannot reproduce
/// them. (The shared logic — including the latency/port cross-check —
/// lives in [`ncdrf::rebuild_grid`].)
fn rebuild_grid(sig: &GridSignature) -> (Corpus, Vec<Machine>) {
    ncdrf::rebuild_grid(sig).unwrap_or_else(|e| die_artifact(&e.to_string()))
}

/// Recomputes the merged grid sequentially in this process and asserts
/// the merged report is bit-identical (value equality *and* identical
/// serialized bytes). Exits `1` on mismatch.
fn verify_against_sequential(merged: &PartialSweep, sig: &GridSignature) {
    let (corpus, machines) = rebuild_grid(sig);
    let sweep = ncdrf::sweep_for_signature(sig, &corpus, machines);

    let reference = if merged.is_complete() {
        match sweep.run_sequential() {
            Ok(report) => PartialSweep {
                report,
                errors: Vec::new(),
            },
            Err(e) => die_artifact(&format!("sequential reference run failed: {e}")),
        }
    } else {
        // The merged run recorded failures; the all-or-nothing
        // sequential entry point would abort on the first, so compare
        // against the fault-tolerant run (bit-identical to sequential on
        // the surviving cells).
        sweep.run_partial()
    };

    let mut mismatches = Vec::new();
    if merged.report != reference.report {
        mismatches.push("report values differ".to_owned());
    }
    let merged_json = merged.report.render(ReportFormat::Json);
    let reference_json = reference.report.render(ReportFormat::Json);
    if merged_json != reference_json {
        mismatches.push("serialized report bytes differ".to_owned());
    }
    let merged_errors: Vec<String> = merged.errors.iter().map(ToString::to_string).collect();
    let reference_errors: Vec<String> = reference.errors.iter().map(ToString::to_string).collect();
    if merged_errors != reference_errors {
        mismatches.push(format!(
            "failure lists differ ({} merged vs {} sequential)",
            merged_errors.len(),
            reference_errors.len()
        ));
    }
    if mismatches.is_empty() {
        println!(
            "[verified: merged report is bit-identical to the sequential reference \
             ({} curves, {} outcomes, {} failures)]",
            merged.report.distributions.len(),
            merged.report.outcomes.len(),
            merged.errors.len()
        );
    } else {
        eprintln!("verification FAILED: {}", mismatches.join("; "));
        exit(1);
    }
}
