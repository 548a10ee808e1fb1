//! `ncdrf_analyze` — the model checker, artifact auditor and schedule
//! certifier, as a CLI.
//!
//! ```text
//! ncdrf_analyze check [--max-schedules N] [--preemption-bound N] [--json]
//! ncdrf_analyze audit DIR
//! ncdrf_analyze certify [--json] [--golden DIR] [DIR ...]
//! ```
//!
//! `check` explores every interleaving of the pool and farm scenarios
//! (see `ncdrf_analyze::scenarios`), failing on any counterexample,
//! race candidate or lock-order cycle; `--json` replaces the prose with
//! one machine-readable object (exact integers, parseable by the
//! vendored `serde_json`). `audit` runs the structural artifact checks
//! over a directory. `certify` runs the independent `ncdrf-certify`
//! validator offline: `--golden DIR` re-runs the pinned grids in
//! certify mode and byte-compares the seven fixtures, and each
//! positional `DIR` is scanned for shard/consolidated artifacts whose
//! cells are re-certified one by one.
//!
//! Exit codes: `0` clean, `1` findings/counterexample, `2` usage,
//! `3` target unreadable.

use ncdrf::json::{json_array, json_string, JsonObject};
use ncdrf_analyze::certify::{certify_artifact_dir, certify_golden, ArtifactCheck, GoldenCheck};
use ncdrf_analyze::scenarios::{farm_lease_scenario, pool_scenario, FarmProbes};
use ncdrf_analyze::{audit, check, model, CheckReport};
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: ncdrf_analyze check [--max-schedules N] [--preemption-bound N] [--json]\n\
         \x20      ncdrf_analyze audit DIR\n\
         \x20      ncdrf_analyze certify [--json] [--golden DIR] [DIR ...]"
    );
    exit(2);
}

/// One model-checked scenario's outcome, flattened for both renderers.
struct ScenarioOutcome {
    name: &'static str,
    schedules: usize,
    traces: usize,
    complete: bool,
    counterexample: Option<String>,
    races: Vec<String>,
    lock_cycles: Vec<String>,
}

impl ScenarioOutcome {
    fn from_report(name: &'static str, report: &CheckReport) -> ScenarioOutcome {
        ScenarioOutcome {
            name,
            schedules: report.exploration.schedules,
            traces: report.analysis.traces(),
            complete: report.exploration.complete,
            counterexample: report
                .exploration
                .counterexample
                .as_ref()
                .map(|cx| format!("{:?}", cx.kind)),
            races: report
                .analysis
                .races()
                .map(|r| format!("{} vs {} (write: {})", r.first, r.second, r.on_write))
                .collect(),
            lock_cycles: report
                .analysis
                .lock_cycles()
                .iter()
                .map(|c| c.join(" <-> "))
                .collect(),
        }
    }

    fn clean(&self) -> bool {
        self.complete
            && self.counterexample.is_none()
            && self.races.is_empty()
            && self.lock_cycles.is_empty()
    }

    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.string("scenario", self.name);
        o.integer("schedules", self.schedules as u128);
        o.integer("traces", self.traces as u128);
        o.boolean("complete", self.complete);
        match &self.counterexample {
            Some(cx) => o.raw("counterexample", &json_string(cx)),
            None => o.raw("counterexample", "null"),
        }
        o.raw(
            "races",
            &json_array(self.races.iter().map(|r| json_string(r))),
        );
        o.raw(
            "lock_cycles",
            &json_array(self.lock_cycles.iter().map(|c| json_string(c))),
        );
        o.finish()
    }

    fn print(&self, report: &CheckReport) {
        println!(
            "   {} schedule(s), {} trace(s) analysed, complete: {}",
            self.schedules, self.traces, self.complete,
        );
        if let Some(cx) = &report.exploration.counterexample {
            println!("   COUNTEREXAMPLE [{}]: {:?}", self.name, cx.kind);
            println!("   schedule: {:?}", cx.trace.schedule);
            for event in &cx.trace.events {
                println!("     t{} {:?}", event.tid, event.op);
            }
        }
        for race in &self.races {
            println!("   RACE CANDIDATE [{}]: {race}", self.name);
        }
        for cycle in &self.lock_cycles {
            println!("   LOCK-ORDER CYCLE [{}]: {cycle}", self.name);
        }
    }
}

fn run_check(config: &model::Config, json: bool) -> bool {
    let mut outcomes = Vec::new();
    let quiet = json;

    if !quiet {
        println!("== pool scenario: 2 workers, 3 tasks ==");
    }
    let report = check(config, pool_scenario(2, 3, None));
    let outcome = ScenarioOutcome::from_report("pool", &report);
    if !quiet {
        outcome.print(&report);
    }
    outcomes.push(outcome);

    if !quiet {
        println!("== pool scenario: 2 workers, 3 tasks, task 1 panics ==");
    }
    // The seeded panic is caught by the pool's isolation, so the model
    // sees no counterexample; the scenario asserts the slot contents.
    let report = check(config, pool_scenario(2, 3, Some(1)));
    let outcome = ScenarioOutcome::from_report("pool-panic", &report);
    if !quiet {
        outcome.print(&report);
    }
    outcomes.push(outcome);

    if !quiet {
        println!("== farm scenario: claim / deliver / tick / expiry ==");
    }
    // The farm scenario runs two workers, a ticker and the root: raw
    // exhaustion is intractable, but its protocol corners all fit in
    // two preemptions, so it defaults to a bounded (still exhaustive
    // within the bound) exploration unless the caller chose one.
    let farm_config = model::Config {
        preemption_bound: config.preemption_bound.or(Some(2)),
        ..config.clone()
    };
    let probes = Arc::new(FarmProbes::default());
    let report = check(&farm_config, farm_lease_scenario(Arc::clone(&probes)));
    let outcome = ScenarioOutcome::from_report("farm", &report);
    if !quiet {
        outcome.print(&report);
    }
    outcomes.push(outcome);
    let with_expiry = probes.schedules_with_expiry.load(Ordering::SeqCst);
    let with_duplicates = probes.schedules_with_duplicates.load(Ordering::SeqCst);
    if !quiet {
        println!(
            "   coverage: {with_expiry} schedule(s) with lease expiry, \
             {with_duplicates} with duplicate delivery"
        );
        if with_expiry == 0 {
            println!("   WARNING: no schedule exercised lease expiry");
        }
    }

    let clean = outcomes.iter().all(ScenarioOutcome::clean) && with_expiry > 0;
    if json {
        let mut o = JsonObject::new();
        o.boolean("clean", clean);
        o.raw(
            "scenarios",
            &json_array(outcomes.iter().map(ScenarioOutcome::to_json)),
        );
        let mut coverage = JsonObject::new();
        coverage.integer("schedules_with_expiry", with_expiry as u128);
        coverage.integer("schedules_with_duplicates", with_duplicates as u128);
        o.raw("coverage", &coverage.finish());
        println!("{}", o.finish());
    }
    clean
}

fn golden_json(c: &GoldenCheck) -> String {
    let mut o = JsonObject::new();
    o.string("fixture", &c.fixture);
    o.boolean("certified", c.fault.is_none());
    if let Some(fault) = &c.fault {
        o.string("fault", fault);
    }
    o.finish()
}

fn artifact_json(c: &ArtifactCheck) -> String {
    let mut o = JsonObject::new();
    o.string("artifact", &c.path.display().to_string());
    o.boolean("certified", c.faults.is_empty());
    o.raw(
        "faults",
        &json_array(c.faults.iter().map(|f| {
            let mut fo = JsonObject::new();
            fo.integer("task", u128::from(f.task));
            fo.string("loop", &f.loop_name);
            fo.string("machine", &f.machine);
            fo.string("detail", &f.detail);
            fo.finish()
        })),
    );
    o.finish()
}

fn run_certify(golden: Option<PathBuf>, dirs: Vec<PathBuf>, json: bool) -> ! {
    let golden_checks: Vec<GoldenCheck> =
        golden.map(|dir| certify_golden(&dir)).unwrap_or_default();
    let mut artifact_checks: Vec<ArtifactCheck> = Vec::new();
    for dir in dirs {
        match certify_artifact_dir(&dir) {
            Ok(mut checks) => artifact_checks.append(&mut checks),
            Err(e) => {
                eprintln!("ncdrf_analyze: {e}");
                exit(3);
            }
        }
    }

    let golden_faults = golden_checks.iter().filter(|c| c.fault.is_some()).count();
    let cell_faults: usize = artifact_checks.iter().map(|c| c.faults.len()).sum();
    let clean = golden_faults == 0 && cell_faults == 0;

    if json {
        let mut o = JsonObject::new();
        o.boolean("clean", clean);
        o.raw("golden", &json_array(golden_checks.iter().map(golden_json)));
        o.raw(
            "artifacts",
            &json_array(artifact_checks.iter().map(artifact_json)),
        );
        println!("{}", o.finish());
    } else {
        for c in &golden_checks {
            match &c.fault {
                None => println!("golden {}: certified, byte-identical", c.fixture),
                Some(fault) => println!("golden {}: FAILED: {fault}", c.fixture),
            }
        }
        for c in &artifact_checks {
            if c.faults.is_empty() {
                println!("artifact {}: certified", c.path.display());
            } else {
                println!(
                    "artifact {}: {} cell(s) FAILED certification",
                    c.path.display(),
                    c.faults.len()
                );
                for f in &c.faults {
                    println!("   {f}");
                }
            }
        }
        if clean {
            println!("ncdrf_analyze: clean");
        } else {
            eprintln!(
                "ncdrf_analyze: {} golden fault(s), {} cell fault(s)",
                golden_faults, cell_faults
            );
        }
    }
    exit(if clean { 0 } else { 1 });
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("check") => {
            let mut config = model::Config::default();
            let mut json = false;
            while let Some(flag) = args.next() {
                let mut value = |name: &str| -> usize {
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("ncdrf_analyze: {name} needs a count");
                        exit(2);
                    })
                };
                match flag.as_str() {
                    "--max-schedules" => config.max_schedules = value("--max-schedules"),
                    "--preemption-bound" => {
                        config.preemption_bound = Some(value("--preemption-bound"));
                    }
                    "--json" => json = true,
                    _ => usage(),
                }
            }
            if run_check(&config, json) {
                if !json {
                    println!("ncdrf_analyze: clean");
                }
            } else {
                exit(1);
            }
        }
        Some("audit") => {
            let Some(dir) = args.next() else { usage() };
            if args.next().is_some() {
                usage();
            }
            match audit::audit_dir(&PathBuf::from(dir)) {
                Ok(report) => {
                    println!(
                        "audited {} file(s): {} shard artifact(s) in {} signature group(s)",
                        report.files, report.shards, report.groups
                    );
                    for note in &report.notes {
                        println!("   note: {note}");
                    }
                    for finding in &report.findings {
                        println!("   {finding}");
                    }
                    if report.clean() {
                        println!("ncdrf_analyze: clean");
                    } else {
                        eprintln!("ncdrf_analyze: {} finding(s)", report.findings.len());
                        exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("ncdrf_analyze: {e}");
                    exit(3);
                }
            }
        }
        Some("certify") => {
            let mut json = false;
            let mut golden: Option<PathBuf> = None;
            let mut dirs: Vec<PathBuf> = Vec::new();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--golden" => {
                        let Some(dir) = args.next() else {
                            eprintln!("ncdrf_analyze: --golden needs a directory");
                            exit(2);
                        };
                        golden = Some(PathBuf::from(dir));
                    }
                    flag if flag.starts_with("--") => usage(),
                    dir => dirs.push(PathBuf::from(dir)),
                }
            }
            if golden.is_none() && dirs.is_empty() {
                usage();
            }
            run_certify(golden, dirs, json);
        }
        _ => usage(),
    }
}
