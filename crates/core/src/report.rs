//! Rendering of experiment results through one [`Render`] trait with
//! text, CSV and JSON backends, shaped like the paper's tables and figure
//! series.
//!
//! ```
//! use ncdrf::{Render, ReportFormat, Table1Row};
//!
//! let rows = vec![Table1Row {
//!     config: "P1L3".into(),
//!     loops_within: [88.0, 97.8, 99.7],
//!     cycles_within: [64.4, 94.9, 99.9],
//! }];
//! assert!(rows.as_slice().render(ReportFormat::Text).contains("P1L3"));
//! assert!(rows.as_slice().render(ReportFormat::Csv).starts_with("config,"));
//! assert!(rows.as_slice().render(ReportFormat::Json).starts_with("["));
//! ```

use crate::distribution::Cumulative;
use crate::experiment::{BudgetOutcome, DistributionCurve, Table1Row};
use crate::json::{json_array, JsonObject};
use crate::model::{ModelId, ModelRegistry};
use crate::pipeline::{LoopAnalysis, LoopEval, PipelineError, PipelineStage};
use crate::session::CacheStats;
use crate::shard::{
    CellTrajectory, GridSignature, MachineSig, Provenance, ShardCell, ShardRole, SweepShard,
};
use crate::sweep::{BudgetCell, LoopCell, PartialSweep, SweepReport};
use ncdrf_regalloc::DualPressure;
use ncdrf_spill::{SnapshotStep, TrajectorySnapshot};
use std::fmt;
use std::fmt::Write as _;

/// Output backend of [`Render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Fixed-width tables for terminals, shaped like the paper.
    Text,
    /// One header line plus one record per row.
    Csv,
    /// An array of objects (or an object of arrays for composites).
    Json,
}

/// A renderable experiment result.
pub trait Render {
    /// Renders into the requested format.
    fn render(&self, format: ReportFormat) -> String;
}

/// Which Figure 8/9 quantity a [`BudgetTable`] shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetMetric {
    /// Relative performance (Figure 8).
    Performance,
    /// Density of memory traffic (Figure 9).
    TrafficDensity,
}

impl BudgetMetric {
    fn header(self) -> &'static str {
        match self {
            BudgetMetric::Performance => "rel. perf",
            BudgetMetric::TrafficDensity => "density",
        }
    }
}

/// A single panel of distribution curves: static (Figure 6) or dynamic
/// (Figure 7). Rendering a `[DistributionCurve]` slice directly emits
/// both panels.
#[derive(Debug, Clone, Copy)]
pub struct DistributionPanel<'a> {
    /// The curves to render (one column per curve).
    pub curves: &'a [DistributionCurve],
    /// `true` for the cycle-weighted (Figure 7) panel.
    pub dynamic: bool,
}

/// A single-metric view of budget outcomes: performance (Figure 8) or
/// traffic density (Figure 9). Rendering a `[BudgetOutcome]` slice
/// directly emits both metrics.
#[derive(Debug, Clone, Copy)]
pub struct BudgetTable<'a> {
    /// The outcomes to render, one row each.
    pub outcomes: &'a [BudgetOutcome],
    /// The quantity shown in the value column.
    pub metric: BudgetMetric,
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

impl Render for [Table1Row] {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => {
                let mut s = String::new();
                let _ = writeln!(
                    s,
                    "{:<6} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
                    "config", "loops<16", "loops<32", "loops<64", "cyc<16", "cyc<32", "cyc<64"
                );
                let _ = writeln!(s, "{}", "-".repeat(66));
                for r in self {
                    let _ = writeln!(
                        s,
                        "{:<6} | {:>7.1}% {:>7.1}% {:>7.1}% | {:>7.1}% {:>7.1}% {:>7.1}%",
                        r.config,
                        r.loops_within[0],
                        r.loops_within[1],
                        r.loops_within[2],
                        r.cycles_within[0],
                        r.cycles_within[1],
                        r.cycles_within[2],
                    );
                }
                s
            }
            ReportFormat::Csv => {
                let mut s = String::from(
                    "config,loops_16,loops_32,loops_64,cycles_16,cycles_32,cycles_64\n",
                );
                for r in self {
                    let _ = writeln!(
                        s,
                        "{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}",
                        r.config,
                        r.loops_within[0],
                        r.loops_within[1],
                        r.loops_within[2],
                        r.cycles_within[0],
                        r.cycles_within[1],
                        r.cycles_within[2],
                    );
                }
                s
            }
            ReportFormat::Json => json_array(self.iter().map(|r| {
                let mut o = JsonObject::new();
                o.string("config", &r.config);
                o.number_array("loops_within", &r.loops_within);
                o.number_array("cycles_within", &r.cycles_within);
                o.finish()
            })),
        }
    }
}

// ---------------------------------------------------------------------
// Figures 6/7 (distribution curves)
// ---------------------------------------------------------------------

impl Render for DistributionPanel<'_> {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => {
                let mut s = String::new();
                let what = if self.dynamic { "cycles" } else { "loops" };
                let config = self
                    .curves
                    .first()
                    .map(|c| c.config.as_str())
                    .unwrap_or("-");
                let _ = writeln!(s, "cumulative % of {what} vs registers ({config})");
                let _ = write!(s, "{:>6}", "regs");
                for c in self.curves {
                    let _ = write!(s, " {:>12}", c.model.to_string());
                }
                let _ = writeln!(s);
                if let Some(first) = self.curves.first() {
                    for (i, &p) in first.static_dist.points.iter().enumerate() {
                        let _ = write!(s, "{p:>6}");
                        for c in self.curves {
                            let v = if self.dynamic {
                                c.dynamic_dist.percent[i]
                            } else {
                                c.static_dist.percent[i]
                            };
                            let _ = write!(s, " {v:>11.1}%");
                        }
                        let _ = writeln!(s);
                    }
                }
                s
            }
            // Data formats carry both panels regardless of the view.
            ReportFormat::Csv | ReportFormat::Json => self.curves.render(format),
        }
    }
}

impl Render for [DistributionCurve] {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => {
                let static_panel = DistributionPanel {
                    curves: self,
                    dynamic: false,
                }
                .render(ReportFormat::Text);
                let dynamic_panel = DistributionPanel {
                    curves: self,
                    dynamic: true,
                }
                .render(ReportFormat::Text);
                format!("{static_panel}\n{dynamic_panel}")
            }
            ReportFormat::Csv => {
                let mut s =
                    String::from("config,latency,regs,model,static_percent,dynamic_percent\n");
                for c in self {
                    for (i, &p) in c.static_dist.points.iter().enumerate() {
                        let _ = writeln!(
                            s,
                            "{},{},{},{},{:.3},{:.3}",
                            c.config,
                            c.latency,
                            p,
                            c.model,
                            c.static_dist.percent[i],
                            c.dynamic_dist.percent[i]
                        );
                    }
                }
                s
            }
            ReportFormat::Json => json_array(self.iter().map(|c| {
                let mut o = JsonObject::new();
                o.string("config", &c.config);
                o.string("model", &c.model.to_string());
                o.integer("latency", c.latency as u128);
                o.number_array("points", &c.static_dist.points);
                o.number_array("static_percent", &c.static_dist.percent);
                o.number_array("dynamic_percent", &c.dynamic_dist.percent);
                o.finish()
            })),
        }
    }
}

// ---------------------------------------------------------------------
// Figures 8/9 (budget outcomes)
// ---------------------------------------------------------------------

impl Render for BudgetTable<'_> {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => {
                let mut s = String::new();
                let _ = writeln!(
                    s,
                    "{:<12} {:>10} {:>10} {:>12} {:>12}",
                    "model",
                    "latency",
                    "regs",
                    self.metric.header(),
                    "spilled"
                );
                let _ = writeln!(s, "{}", "-".repeat(60));
                for o in self.outcomes {
                    let v = match self.metric {
                        BudgetMetric::Performance => o.relative_performance,
                        BudgetMetric::TrafficDensity => o.traffic_density,
                    };
                    let _ = writeln!(
                        s,
                        "{:<12} {:>10} {:>10} {:>12.4} {:>12}",
                        o.model.to_string(),
                        o.latency,
                        o.registers,
                        v,
                        o.loops_spilled
                    );
                }
                s
            }
            ReportFormat::Csv | ReportFormat::Json => self.outcomes.render(format),
        }
    }
}

impl Render for [BudgetOutcome] {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => {
                let perf = BudgetTable {
                    outcomes: self,
                    metric: BudgetMetric::Performance,
                }
                .render(ReportFormat::Text);
                let density = BudgetTable {
                    outcomes: self,
                    metric: BudgetMetric::TrafficDensity,
                }
                .render(ReportFormat::Text);
                format!("{perf}\n{density}")
            }
            ReportFormat::Csv => {
                let mut s = String::from(
                    "config,model,latency,registers,cycles,accesses,relative_performance,traffic_density,loops_spilled\n",
                );
                for o in self {
                    let _ = writeln!(
                        s,
                        "{},{},{},{},{},{},{:.6},{:.6},{}",
                        o.config,
                        o.model,
                        o.latency,
                        o.registers,
                        o.cycles,
                        o.accesses,
                        o.relative_performance,
                        o.traffic_density,
                        o.loops_spilled
                    );
                }
                s
            }
            ReportFormat::Json => json_array(self.iter().map(|o| {
                let mut j = JsonObject::new();
                j.string("config", &o.config);
                j.string("model", &o.model.to_string());
                j.integer("latency", o.latency as u128);
                j.integer("registers", o.registers as u128);
                j.integer("cycles", o.cycles);
                j.integer("accesses", o.accesses);
                j.number("relative_performance", o.relative_performance);
                j.number("traffic_density", o.traffic_density);
                j.integer("loops_spilled", o.loops_spilled as u128);
                j.finish()
            })),
        }
    }
}

// ---------------------------------------------------------------------
// Whole sweep reports
// ---------------------------------------------------------------------

impl Render for SweepReport {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => {
                let mut s = String::new();
                if !self.distributions.is_empty() {
                    let mut seen: Vec<&str> = Vec::new();
                    for c in &self.distributions {
                        if !seen.contains(&c.config.as_str()) {
                            seen.push(&c.config);
                        }
                    }
                    for config in seen {
                        let curves: Vec<DistributionCurve> = self
                            .distributions
                            .iter()
                            .filter(|c| c.config == config)
                            .cloned()
                            .collect();
                        let _ = writeln!(s, "{}", curves.as_slice().render(ReportFormat::Text));
                    }
                }
                if !self.outcomes.is_empty() {
                    let _ = writeln!(s, "{}", self.outcomes.as_slice().render(ReportFormat::Text));
                }
                let _ = writeln!(s, "[schedule cache: {}]", self.scheduling);
                s
            }
            ReportFormat::Csv => {
                // Two independent record shapes: emit the non-empty one,
                // or both separated by a blank line.
                let mut parts = Vec::new();
                if !self.distributions.is_empty() {
                    parts.push(self.distributions.as_slice().render(ReportFormat::Csv));
                }
                if !self.outcomes.is_empty() {
                    parts.push(self.outcomes.as_slice().render(ReportFormat::Csv));
                }
                parts.join("\n")
            }
            ReportFormat::Json => {
                let mut o = JsonObject::new();
                o.string("kind", REPORT_KIND);
                o.integer("version", REPORT_VERSION);
                o.raw(
                    "distributions",
                    &self.distributions.as_slice().render(ReportFormat::Json),
                );
                o.raw(
                    "outcomes",
                    &self.outcomes.as_slice().render(ReportFormat::Json),
                );
                o.integer("scheduling_runs", self.scheduling.misses as u128);
                o.integer("cache_hits", self.scheduling.hits as u128);
                o.integer("spill_steps", self.scheduling.spill_steps as u128);
                o.integer("trajectory_hits", self.scheduling.traj_hits as u128);
                o.integer("trajectory_resumes", self.scheduling.traj_resumes as u128);
                o.finish()
            }
        }
    }
}

impl Render for PartialSweep {
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => {
                let mut s = self.report.render(ReportFormat::Text);
                if self.errors.is_empty() {
                    let _ = writeln!(s, "[no failures]");
                } else {
                    let _ = writeln!(s, "[{} failed (machine, loop) pair(s)]", self.errors.len());
                    for e in &self.errors {
                        let _ = writeln!(s, "  - {e}");
                    }
                }
                s
            }
            // CSV stays a clean record stream; failures are not rows.
            // Callers needing them machine-readable should use JSON.
            ReportFormat::Csv => self.report.render(ReportFormat::Csv),
            ReportFormat::Json => {
                let mut o = JsonObject::new();
                o.string("kind", PARTIAL_KIND);
                o.integer("version", REPORT_VERSION);
                o.raw("report", &self.report.render(ReportFormat::Json));
                o.raw(
                    "errors",
                    &json_array(self.errors.iter().map(|e| {
                        let mut j = JsonObject::new();
                        j.string("loop", &e.loop_name);
                        j.string("error", &e.stage.to_string());
                        j.finish()
                    })),
                );
                o.finish()
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sweep shards (the multi-process artifact)
// ---------------------------------------------------------------------

/// Artifact type tag of a serialized [`SweepShard`].
const SHARD_KIND: &str = "ncdrf-sweep-shard";
/// Artifact format version; bump on layout changes so stale artifacts
/// fail loudly instead of merging garbage. This build reads only the
/// version it writes: v4, whose model names resolve through the
/// [`ModelRegistry`].
const SHARD_VERSION: u128 = 4;

/// Artifact type tag of a serialized [`SweepReport`] / [`PartialSweep`].
/// The parsers refuse documents without this tag or with another
/// version.
const REPORT_KIND: &str = "ncdrf-sweep-report";
/// Tag of the [`PartialSweep`] envelope.
const PARTIAL_KIND: &str = "ncdrf-partial-sweep";
/// Version written by (and accepted from) this build's report emitters.
const REPORT_VERSION: u128 = 1;

impl Render for SweepShard {
    /// `Text` is a human summary, `Csv` one record per grid cell, `Json`
    /// the full artifact [`crate::parse_sweep_shard`] reads back.
    fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => {
                let sig = self.signature();
                let mut s = String::new();
                let _ = writeln!(
                    s,
                    "shard {}/{} of sweep over corpus `{}` ({} machines × {} loops)",
                    self.index(),
                    self.count(),
                    sig.corpus,
                    sig.machines.len(),
                    sig.loops.len(),
                );
                let _ = writeln!(
                    s,
                    "  cells: {} evaluated, {} failed",
                    self.cell_count(),
                    self.failure_count()
                );
                let _ = writeln!(s, "  [schedule cache: {}]", self.scheduling());
                s
            }
            ReportFormat::Csv => {
                let mut s = String::from("task,machine,loop,status\n");
                let n = self.signature.loops.len().max(1) as u64;
                for c in &self.cells {
                    let machine = self
                        .signature
                        .machines
                        .get((c.task / n) as usize)
                        .map(|m| m.name.as_str())
                        .unwrap_or("-");
                    let status = match &c.outcome {
                        Ok(_) => "ok".to_owned(),
                        Err(e) => format!("failed: {}", e.stage),
                    };
                    let _ = writeln!(
                        s,
                        "{},{},{},{}",
                        c.task,
                        machine,
                        c.loop_name,
                        status.replace(',', ";")
                    );
                }
                s
            }
            ReportFormat::Json => {
                let mut o = JsonObject::new();
                o.string("kind", SHARD_KIND);
                o.integer("version", SHARD_VERSION);
                o.string(
                    "role",
                    match self.role() {
                        ShardRole::Shard => "shard",
                        ShardRole::Heal => "heal",
                    },
                );
                o.integer("index", self.index() as u128);
                o.integer("count", self.count() as u128);
                if let Some(p) = self.provenance() {
                    o.string("job", &p.job);
                    o.integer("lease", p.lease as u128);
                }
                o.raw("signature", &json_signature(self.signature()));
                o.raw("scheduling", &json_cache_stats(self.scheduling()));
                o.raw("cells", &json_array(self.cells.iter().map(json_cell)));
                o.finish()
            }
        }
    }
}

fn json_signature(sig: &GridSignature) -> String {
    let mut o = JsonObject::new();
    o.string("corpus", &sig.corpus);
    o.string("options", &sig.options);
    o.string_array("loops", &sig.loops);
    o.raw(
        "machines",
        &json_array(sig.machines.iter().map(|m| {
            let mut j = JsonObject::new();
            j.string("name", &m.name);
            j.integer("latency", m.latency as u128);
            j.integer("ports", m.ports as u128);
            j.finish()
        })),
    );
    o.string_array(
        "models",
        &sig.models.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
    );
    o.number_array("points", &sig.points);
    o.number_array("budgets", &sig.budgets);
    o.finish()
}

fn json_cache_stats(stats: CacheStats) -> String {
    let mut o = JsonObject::new();
    o.integer("hits", stats.hits as u128);
    o.integer("misses", stats.misses as u128);
    o.integer("spill_steps", stats.spill_steps as u128);
    o.integer("trajectory_hits", stats.traj_hits as u128);
    o.integer("trajectory_resumes", stats.traj_resumes as u128);
    o.finish()
}

fn json_trajectory(t: &CellTrajectory) -> String {
    let mut o = JsonObject::new();
    o.string("model", &t.model.to_string());
    let snap = &t.snapshot;
    o.integer("base_regs", snap.base_regs as u128);
    o.integer("base_ii", snap.base_ii as u128);
    o.integer("base_mem_ops", snap.base_mem_ops as u128);
    o.boolean("exhausted", snap.exhausted);
    o.integer("rng", snap.rng as u128);
    o.raw(
        "steps",
        &json_array(snap.steps.iter().map(|s| {
            let mut j = JsonObject::new();
            j.string("victim", &s.victim);
            j.integer("regs", s.regs as u128);
            j.integer("ii", s.ii as u128);
            j.integer("mem_ops", s.mem_ops as u128);
            j.integer("spill_stores", s.spill_stores as u128);
            j.integer("spill_loads", s.spill_loads as u128);
            j.finish()
        })),
    );
    o.finish()
}

fn json_cell(c: &ShardCell) -> String {
    let mut o = JsonObject::new();
    o.integer("task", c.task as u128);
    o.string("loop", &c.loop_name);
    o.raw("scheduling", &json_cache_stats(c.scheduling));
    if !c.trajectories.is_empty() {
        o.raw(
            "trajectories",
            &json_array(c.trajectories.iter().map(json_trajectory)),
        );
    }
    match &c.outcome {
        Ok(cell) => {
            o.raw(
                "analyses",
                &json_array(cell.analyses.iter().map(json_analysis)),
            );
            o.raw(
                "evals",
                &json_array(cell.evals.iter().map(|b| {
                    let mut j = JsonObject::new();
                    j.raw("ideal", &json_eval(&b.ideal));
                    j.raw("rows", &json_array(b.rows.iter().map(json_eval)));
                    j.finish()
                })),
            );
        }
        Err(e) => o.string("error", &e.stage.to_string()),
    }
    o.finish()
}

fn json_analysis(a: &LoopAnalysis) -> String {
    let mut o = JsonObject::new();
    o.string("name", &a.name);
    o.string("model", &a.model.to_string());
    o.integer("ii", a.ii as u128);
    o.integer("regs", a.regs as u128);
    o.integer("max_live", a.max_live as u128);
    o.integer("iterations", a.iterations as u128);
    match &a.pressure {
        None => o.raw("pressure", "null"),
        Some(p) => {
            let mut j = JsonObject::new();
            j.integer("global", p.global as u128);
            j.integer("left", p.left as u128);
            j.integer("right", p.right as u128);
            j.integer("left_total", p.left_total as u128);
            j.integer("right_total", p.right_total as u128);
            o.raw("pressure", &j.finish());
        }
    }
    o.finish()
}

fn json_eval(e: &LoopEval) -> String {
    let mut o = JsonObject::new();
    o.string("name", &e.name);
    o.string("model", &e.model.to_string());
    o.integer("budget", e.budget as u128);
    o.integer("ii", e.ii as u128);
    o.integer("regs", e.regs as u128);
    o.boolean("fits", e.fits);
    o.integer("spilled", e.spilled as u128);
    o.integer("mem_ops", e.mem_ops as u128);
    o.integer("ports", e.ports as u128);
    o.integer("iterations", e.iterations as u128);
    o.finish()
}

impl<T: Render + ?Sized> Render for &T {
    fn render(&self, format: ReportFormat) -> String {
        (**self).render(format)
    }
}

impl<T> Render for Vec<T>
where
    [T]: Render,
{
    fn render(&self, format: ReportFormat) -> String {
        self.as_slice().render(format)
    }
}

// ---------------------------------------------------------------------
// Parsers (the other half of the JSON backend)
// ---------------------------------------------------------------------

/// A failure while parsing a serialized report back into its typed form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportParseError {
    /// What went wrong, with the offending key where known.
    pub message: String,
}

impl ReportParseError {
    fn new(message: impl Into<String>) -> Self {
        ReportParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed report: {}", self.message)
    }
}

impl std::error::Error for ReportParseError {}

impl From<serde_json::Error> for ReportParseError {
    fn from(e: serde_json::Error) -> Self {
        ReportParseError::new(e.to_string())
    }
}

type Parsed<T> = Result<T, ReportParseError>;

use serde_json::Value;

fn member<'v>(v: &'v Value, key: &str) -> Parsed<&'v Value> {
    v.get(key)
        .ok_or_else(|| ReportParseError::new(format!("missing key `{key}`")))
}

fn str_member(v: &Value, key: &str) -> Parsed<String> {
    member(v, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| ReportParseError::new(format!("`{key}` is not a string")))
}

fn u128_member(v: &Value, key: &str) -> Parsed<u128> {
    member(v, key)?
        .as_u128()
        .ok_or_else(|| ReportParseError::new(format!("`{key}` is not a non-negative integer")))
}

fn u64_member(v: &Value, key: &str) -> Parsed<u64> {
    u128_member(v, key)?
        .try_into()
        .map_err(|_| ReportParseError::new(format!("`{key}` is out of range")))
}

fn u32_member(v: &Value, key: &str) -> Parsed<u32> {
    u128_member(v, key)?
        .try_into()
        .map_err(|_| ReportParseError::new(format!("`{key}` is out of range")))
}

fn usize_member(v: &Value, key: &str) -> Parsed<usize> {
    u128_member(v, key)?
        .try_into()
        .map_err(|_| ReportParseError::new(format!("`{key}` is out of range")))
}

fn bool_member(v: &Value, key: &str) -> Parsed<bool> {
    member(v, key)?
        .as_bool()
        .ok_or_else(|| ReportParseError::new(format!("`{key}` is not a boolean")))
}

/// An `f64` member. `null` parses as `f64::INFINITY`: the emitter maps
/// non-finite values to `null` (JSON has no literals for them), and the
/// only non-finite quantity a report can legitimately hold is the
/// impossible-quadrant `relative_performance`, which is `+∞`.
fn f64_member(v: &Value, key: &str) -> Parsed<f64> {
    let m = member(v, key)?;
    if m.is_null() {
        return Ok(f64::INFINITY);
    }
    m.as_f64()
        .ok_or_else(|| ReportParseError::new(format!("`{key}` is not a number")))
}

fn array_member<'v>(v: &'v Value, key: &str) -> Parsed<&'v [Value]> {
    member(v, key)?
        .as_array()
        .ok_or_else(|| ReportParseError::new(format!("`{key}` is not an array")))
}

fn u32_array_member(v: &Value, key: &str) -> Parsed<Vec<u32>> {
    array_member(v, key)?
        .iter()
        .map(|item| {
            item.as_u32()
                .ok_or_else(|| ReportParseError::new(format!("`{key}` holds a non-u32 entry")))
        })
        .collect()
}

fn f64_array_member(v: &Value, key: &str) -> Parsed<Vec<f64>> {
    array_member(v, key)?
        .iter()
        .map(|item| {
            if item.is_null() {
                return Ok(f64::INFINITY);
            }
            item.as_f64()
                .ok_or_else(|| ReportParseError::new(format!("`{key}` holds a non-number entry")))
        })
        .collect()
}

fn string_array_member(v: &Value, key: &str) -> Parsed<Vec<String>> {
    array_member(v, key)?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_owned)
                .ok_or_else(|| ReportParseError::new(format!("`{key}` holds a non-string entry")))
        })
        .collect()
}

fn model_member(v: &Value, key: &str) -> Parsed<ModelId> {
    let name = str_member(v, key)?;
    ModelRegistry::resolve(&name)
        .ok_or_else(|| ReportParseError::new(format!("`{key}` names no model: `{name}`")))
}

fn curve_from(v: &Value) -> Parsed<DistributionCurve> {
    let points = u32_array_member(v, "points")?;
    Ok(DistributionCurve {
        config: str_member(v, "config")?,
        model: model_member(v, "model")?,
        latency: u32_member(v, "latency")?,
        static_dist: Cumulative {
            points: points.clone(),
            percent: f64_array_member(v, "static_percent")?,
        },
        dynamic_dist: Cumulative {
            points,
            percent: f64_array_member(v, "dynamic_percent")?,
        },
    })
}

fn outcome_from(v: &Value) -> Parsed<BudgetOutcome> {
    Ok(BudgetOutcome {
        config: str_member(v, "config")?,
        model: model_member(v, "model")?,
        latency: u32_member(v, "latency")?,
        registers: u32_member(v, "registers")?,
        cycles: u128_member(v, "cycles")?,
        accesses: u128_member(v, "accesses")?,
        relative_performance: f64_member(v, "relative_performance")?,
        traffic_density: f64_member(v, "traffic_density")?,
        loops_spilled: usize_member(v, "loops_spilled")?,
    })
}

fn sweep_report_from(v: &Value) -> Parsed<SweepReport> {
    Ok(SweepReport {
        distributions: array_member(v, "distributions")?
            .iter()
            .map(curve_from)
            .collect::<Parsed<_>>()?,
        outcomes: array_member(v, "outcomes")?
            .iter()
            .map(outcome_from)
            .collect::<Parsed<_>>()?,
        scheduling: CacheStats {
            hits: u64_member(v, "cache_hits")?,
            misses: u64_member(v, "scheduling_runs")?,
            spill_steps: u64_member(v, "spill_steps")?,
            traj_hits: u64_member(v, "trajectory_hits")?,
            traj_resumes: u64_member(v, "trajectory_resumes")?,
        },
    })
}

/// Validates a report-family document's `kind`/`version` tags: a
/// document must carry the expected kind and the version this build
/// writes, so an untagged or future layout fails loudly instead of
/// parsing garbage.
fn check_report_envelope(v: &Value, expected_kind: &str) -> Parsed<()> {
    let kind = str_member(v, "kind")?;
    if kind != expected_kind {
        return Err(ReportParseError::new(format!(
            "not a {expected_kind} document (kind `{kind}`)"
        )));
    }
    let version = u128_member(v, "version")?;
    if version != REPORT_VERSION {
        return Err(ReportParseError::new(format!(
            "unsupported report format version {version} (this build reads {REPORT_VERSION})"
        )));
    }
    Ok(())
}

/// Parses the JSON emitted by `SweepReport`'s [`Render`] backend back
/// into the typed report.
///
/// Round-trip exact: integer counters are parsed without an `f64`
/// detour and floats re-parse to their original bit patterns (Rust's
/// `{}` float formatting is shortest-round-trip), so
/// `parse_sweep_report(&r.render(ReportFormat::Json)) == r` for any
/// report with finite floats — property-tested in
/// `tests/proptest_shard.rs`. The one non-finite value a report can
/// hold — the impossible-quadrant `+∞` `relative_performance` — emits
/// as `null` and parses back to `+∞`, so even those reports round-trip
/// to equality.
///
/// Reports are tagged with a kind and version; untagged documents and
/// other versions are refused.
///
/// # Errors
///
/// A [`ReportParseError`] naming the first malformed or missing key, or
/// an unsupported kind/version tag.
pub fn parse_sweep_report(json: &str) -> Parsed<SweepReport> {
    let v = serde_json::from_str(json)?;
    check_report_envelope(&v, REPORT_KIND)?;
    sweep_report_from(&v)
}

/// Parses the JSON emitted by `PartialSweep`'s [`Render`] backend.
///
/// Error entries come back with [`PipelineStage::Remote`] carrying the
/// original stage message verbatim (the structured stage is rendered to
/// text on emit), so a round-tripped partial sweep *renders* identically
/// even though the error values compare unequal to their in-process
/// originals.
///
/// # Errors
///
/// A [`ReportParseError`] naming the first malformed or missing key.
pub fn parse_partial_sweep(json: &str) -> Parsed<PartialSweep> {
    let v = serde_json::from_str(json)?;
    check_report_envelope(&v, PARTIAL_KIND)?;
    let report = member(&v, "report")?;
    check_report_envelope(report, REPORT_KIND)?;
    Ok(PartialSweep {
        report: sweep_report_from(report)?,
        errors: array_member(&v, "errors")?
            .iter()
            .map(|e| {
                Ok(PipelineError {
                    loop_name: str_member(e, "loop")?,
                    stage: PipelineStage::Remote(str_member(e, "error")?),
                })
            })
            .collect::<Parsed<_>>()?,
    })
}

fn analysis_from(v: &Value) -> Parsed<LoopAnalysis> {
    let pressure = member(v, "pressure")?;
    let pressure = if pressure.is_null() {
        None
    } else {
        Some(DualPressure {
            global: u32_member(pressure, "global")?,
            left: u32_member(pressure, "left")?,
            right: u32_member(pressure, "right")?,
            left_total: u32_member(pressure, "left_total")?,
            right_total: u32_member(pressure, "right_total")?,
        })
    };
    Ok(LoopAnalysis {
        name: str_member(v, "name")?,
        model: model_member(v, "model")?,
        ii: u32_member(v, "ii")?,
        regs: u32_member(v, "regs")?,
        max_live: u32_member(v, "max_live")?,
        pressure,
        iterations: u64_member(v, "iterations")?,
    })
}

fn eval_from(v: &Value) -> Parsed<LoopEval> {
    Ok(LoopEval {
        name: str_member(v, "name")?,
        model: model_member(v, "model")?,
        budget: u32_member(v, "budget")?,
        ii: u32_member(v, "ii")?,
        regs: u32_member(v, "regs")?,
        fits: bool_member(v, "fits")?,
        spilled: usize_member(v, "spilled")?,
        mem_ops: usize_member(v, "mem_ops")?,
        ports: u32_member(v, "ports")?,
        iterations: u64_member(v, "iterations")?,
    })
}

fn cache_stats_from(v: &Value) -> Parsed<CacheStats> {
    Ok(CacheStats {
        hits: u64_member(v, "hits")?,
        misses: u64_member(v, "misses")?,
        spill_steps: u64_member(v, "spill_steps")?,
        traj_hits: u64_member(v, "trajectory_hits")?,
        traj_resumes: u64_member(v, "trajectory_resumes")?,
    })
}

fn trajectory_from(v: &Value) -> Parsed<CellTrajectory> {
    Ok(CellTrajectory {
        model: model_member(v, "model")?,
        snapshot: TrajectorySnapshot {
            base_regs: u32_member(v, "base_regs")?,
            base_ii: u32_member(v, "base_ii")?,
            base_mem_ops: usize_member(v, "base_mem_ops")?,
            steps: array_member(v, "steps")?
                .iter()
                .map(|s| {
                    Ok(SnapshotStep {
                        victim: str_member(s, "victim")?,
                        regs: u32_member(s, "regs")?,
                        ii: u32_member(s, "ii")?,
                        mem_ops: usize_member(s, "mem_ops")?,
                        spill_stores: usize_member(s, "spill_stores")?,
                        spill_loads: usize_member(s, "spill_loads")?,
                    })
                })
                .collect::<Parsed<_>>()?,
            exhausted: bool_member(v, "exhausted")?,
            rng: u64_member(v, "rng")?,
        },
    })
}

fn shard_cell_from(v: &Value) -> Parsed<ShardCell> {
    let loop_name = str_member(v, "loop")?;
    let outcome = if let Some(err) = v.get("error") {
        let message = err
            .as_str()
            .ok_or_else(|| ReportParseError::new("`error` is not a string"))?;
        Err(PipelineError {
            loop_name: loop_name.clone(),
            stage: PipelineStage::Remote(message.to_owned()),
        })
    } else {
        Ok(LoopCell {
            analyses: array_member(v, "analyses")?
                .iter()
                .map(analysis_from)
                .collect::<Parsed<_>>()?,
            evals: array_member(v, "evals")?
                .iter()
                .map(|b| {
                    Ok(BudgetCell {
                        ideal: eval_from(member(b, "ideal")?)?,
                        rows: array_member(b, "rows")?
                            .iter()
                            .map(eval_from)
                            .collect::<Parsed<_>>()?,
                    })
                })
                .collect::<Parsed<_>>()?,
        })
    };
    let trajectories = if v.get("trajectories").is_none() {
        Vec::new()
    } else {
        array_member(v, "trajectories")?
            .iter()
            .map(trajectory_from)
            .collect::<Parsed<_>>()?
    };
    Ok(ShardCell {
        task: u64_member(v, "task")?,
        loop_name,
        scheduling: cache_stats_from(member(v, "scheduling")?)?,
        outcome,
        trajectories,
    })
}

/// Parses the JSON artifact emitted by `SweepShard`'s [`Render`] backend
/// (the file `shard_runner run` writes and `shard_runner merge` reads).
///
/// The cell payloads are all-integer, so the parsed shard merges to the
/// **bit-identical** report of its in-process original — the guarantee
/// the CI `merge-verify` job asserts across processes.
///
/// # Errors
///
/// A [`ReportParseError`] for unknown artifact kinds/versions or the
/// first malformed key.
pub fn parse_sweep_shard(json: &str) -> Parsed<SweepShard> {
    let v = serde_json::from_str(json)?;
    let kind = str_member(&v, "kind")?;
    if kind != SHARD_KIND {
        return Err(ReportParseError::new(format!(
            "not a sweep shard (kind `{kind}`, expected `{SHARD_KIND}`)"
        )));
    }
    let version = u128_member(&v, "version")?;
    if version != SHARD_VERSION {
        return Err(ReportParseError::new(format!(
            "unsupported shard format version {version} (this build reads {SHARD_VERSION})"
        )));
    }
    let role = match str_member(&v, "role")?.as_str() {
        "shard" => ShardRole::Shard,
        "heal" => ShardRole::Heal,
        other => {
            return Err(ReportParseError::new(format!(
                "`role` is neither `shard` nor `heal`: `{other}`"
            )))
        }
    };
    let signature = signature_from(member(&v, "signature")?)?;
    // Provenance (farm job + lease ids) is optional metadata stamped by
    // the daemon's workers; plain `shard_runner` artifacts omit it, so
    // absence is not an error and the shard version is unchanged.
    let provenance = match v.get("job") {
        None => None,
        Some(_) => Some(Provenance {
            job: str_member(&v, "job")?,
            lease: u64_member(&v, "lease")?,
        }),
    };
    let declared = cache_stats_from(member(&v, "scheduling")?)?;
    let cells: Vec<ShardCell> = array_member(&v, "cells")?
        .iter()
        .map(shard_cell_from)
        .collect::<Parsed<_>>()?;
    let mut shard = SweepShard::assemble_parts(
        signature,
        u32_member(&v, "index")?,
        u32_member(&v, "count")?,
        role,
        cells,
    );
    // The shard-level counters are the per-cell sums by construction;
    // an artifact where they disagree was hand-edited or corrupted, and
    // a merge would silently misreport work — refuse it instead.
    if shard.scheduling() != declared {
        return Err(ReportParseError::new(
            "shard-level cache counters disagree with the per-cell sums",
        ));
    }
    if let Some(p) = provenance {
        shard = shard.with_provenance(p);
    }
    Ok(shard)
}

/// Parses a [`GridSignature`] from the JSON object layout shard
/// artifacts embed under their `signature` key — the standalone wire
/// form the farm daemon ships in lease offers.
///
/// # Errors
///
/// A [`ReportParseError`] on malformed JSON or the first malformed key.
pub fn parse_grid_signature(json: &str) -> Parsed<GridSignature> {
    signature_from(&serde_json::from_str(json)?)
}

/// Renders a [`GridSignature`] as the JSON object
/// [`parse_grid_signature`] reads back — byte-identical to the
/// `signature` member of a shard artifact.
pub fn render_grid_signature(sig: &GridSignature) -> String {
    json_signature(sig)
}

fn signature_from(sig: &Value) -> Parsed<GridSignature> {
    let machines = array_member(sig, "machines")?
        .iter()
        .map(|m| {
            Ok(MachineSig {
                name: str_member(m, "name")?,
                latency: u32_member(m, "latency")?,
                ports: u32_member(m, "ports")?,
            })
        })
        .collect::<Parsed<_>>()?;
    let models = string_array_member(sig, "models")?
        .iter()
        .map(|name| {
            ModelRegistry::resolve(name)
                .ok_or_else(|| ReportParseError::new(format!("`models` names no model: `{name}`")))
        })
        .collect::<Parsed<_>>()?;
    Ok(GridSignature {
        corpus: str_member(sig, "corpus")?,
        loops: string_array_member(sig, "loops")?,
        machines,
        models,
        points: u32_array_member(sig, "points")?,
        budgets: u32_array_member(sig, "budgets")?,
        options: str_member(sig, "options")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Cumulative;

    fn sample_curves() -> Vec<DistributionCurve> {
        let dist = Cumulative {
            points: vec![16, 32],
            percent: vec![50.0, 75.0],
        };
        vec![DistributionCurve {
            config: "C2L3".into(),
            model: ModelId::UNIFIED,
            latency: 3,
            static_dist: dist.clone(),
            dynamic_dist: dist,
        }]
    }

    fn sample_outcomes() -> Vec<BudgetOutcome> {
        vec![BudgetOutcome {
            config: "C2L6".into(),
            model: ModelId::SWAPPED,
            latency: 6,
            registers: 32,
            cycles: 1000,
            accesses: 300,
            relative_performance: 0.87,
            traffic_density: 0.15,
            loops_spilled: 12,
        }]
    }

    #[test]
    fn json_escapes_control_and_quote_characters() {
        // Report JSON goes through the one escape table: a config name
        // with quotes, backslashes and control characters stays a valid
        // string, and a non-finite ratio renders as `null`.
        let rows = vec![Table1Row {
            config: "k\"ey va\\l\nue\t".into(),
            loops_within: [88.0, 97.8, 99.7],
            cycles_within: [64.4, 94.9, 99.9],
        }];
        let json = rows.render(ReportFormat::Json);
        assert!(
            json.contains("\"config\":\"k\\\"ey va\\\\l\\nue\\t\""),
            "{json}"
        );
        let mut outcomes = sample_outcomes();
        outcomes[0].relative_performance = f64::INFINITY;
        let json = outcomes.render(ReportFormat::Json);
        assert!(json.contains("\"relative_performance\":null"), "{json}");
    }

    #[test]
    fn table1_renders_all_formats() {
        let rows = vec![Table1Row {
            config: "P1L3".into(),
            loops_within: [88.0, 97.8, 99.7],
            cycles_within: [64.4, 94.9, 99.9],
        }];
        let text = rows.render(ReportFormat::Text);
        assert!(text.contains("P1L3"));
        assert!(text.contains("97.8%"));
        let csv = rows.render(ReportFormat::Csv);
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("P1L3,88.00"));
        let json = rows.render(ReportFormat::Json);
        assert!(json.contains("\"config\":\"P1L3\""));
        assert!(json.contains("\"loops_within\":[88,97.8,99.7]"));
    }

    #[test]
    fn distribution_renders_points_and_models() {
        let curves = sample_curves();
        let text = DistributionPanel {
            curves: &curves,
            dynamic: false,
        }
        .render(ReportFormat::Text);
        assert!(text.contains("unified"));
        assert!(text.contains("16"));
        // The slice renderer emits both panels.
        let both = curves.render(ReportFormat::Text);
        assert!(both.contains("% of loops"));
        assert!(both.contains("% of cycles"));
        let csv = curves.render(ReportFormat::Csv);
        assert!(csv.contains("C2L3,3,16,unified,50.000,50.000"));
        let json = curves.render(ReportFormat::Json);
        assert!(json.contains("\"static_percent\":[50,75]"));
    }

    #[test]
    fn budget_outcomes_render_both_metrics() {
        let o = sample_outcomes();
        let perf = BudgetTable {
            outcomes: &o,
            metric: BudgetMetric::Performance,
        }
        .render(ReportFormat::Text);
        assert!(perf.contains("0.8700"));
        let dens = BudgetTable {
            outcomes: &o,
            metric: BudgetMetric::TrafficDensity,
        }
        .render(ReportFormat::Text);
        assert!(dens.contains("0.1500"));
        let csv = o.render(ReportFormat::Csv);
        assert!(csv.contains("C2L6,swapped,6,32,1000,300,0.870000,0.150000,12"));
        let json = o.render(ReportFormat::Json);
        assert!(json.contains("\"relative_performance\":0.87"));
    }

    #[test]
    fn sweep_report_renders_every_format() {
        let report = SweepReport {
            distributions: sample_curves(),
            outcomes: sample_outcomes(),
            scheduling: crate::session::CacheStats {
                hits: 9,
                misses: 3,
                traj_hits: 2,
                traj_resumes: 1,
                spill_steps: 5,
            },
        };
        let text = report.render(ReportFormat::Text);
        assert!(text.contains("% of loops"));
        assert!(text.contains("rel. perf"));
        assert!(text.contains("3 runs, 9 hits"));
        assert!(text.contains("5 steps, 2 hits, 1 resumes"));
        let csv = report.render(ReportFormat::Csv);
        assert!(csv.contains("static_percent"));
        assert!(csv.contains("traffic_density"));
        let json = report.render(ReportFormat::Json);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"scheduling_runs\":3"));
    }

    #[test]
    fn report_json_without_kind_is_refused() {
        // Reports carry a kind and version tag; a document without them
        // is refused with an error naming the missing tag, never parsed
        // under an assumed layout.
        let report = SweepReport {
            distributions: sample_curves(),
            outcomes: sample_outcomes(),
            scheduling: crate::session::CacheStats::default(),
        };
        let json = report.render(ReportFormat::Json);
        let untagged = json.replace("\"kind\":\"ncdrf-sweep-report\",\"version\":1,", "");
        assert_ne!(untagged, json, "the rewrite must strip the tags");
        let err = crate::report::parse_sweep_report(&untagged).unwrap_err();
        assert!(err.to_string().contains("`kind`"), "{err}");
        let partial = PartialSweep {
            report,
            errors: Vec::new(),
        };
        let pjson = partial.render(ReportFormat::Json);
        let err = crate::report::parse_partial_sweep(&pjson.replacen(
            "\"kind\":\"ncdrf-partial-sweep\",\"version\":1,",
            "",
            1,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("`kind`"), "{err}");
    }

    #[test]
    fn report_json_is_versioned_and_rejects_foreign_documents() {
        let report = SweepReport {
            distributions: sample_curves(),
            outcomes: sample_outcomes(),
            scheduling: crate::session::CacheStats::default(),
        };
        let json = report.render(ReportFormat::Json);
        assert!(json.starts_with("{\"kind\":\"ncdrf-sweep-report\",\"version\":1,"));
        assert_eq!(crate::report::parse_sweep_report(&json).unwrap(), report);

        // A tagged document of the wrong kind or a future version must
        // fail loudly, not parse garbage.
        let wrong_kind = json.replace("ncdrf-sweep-report", "ncdrf-sweep-shard");
        let err = crate::report::parse_sweep_report(&wrong_kind).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        let future = json.replace("\"version\":1,", "\"version\":999,");
        let err = crate::report::parse_sweep_report(&future).unwrap_err();
        assert!(err.to_string().contains("version 999"), "{err}");

        // The partial-sweep envelope is tagged the same way.
        let partial = PartialSweep {
            report,
            errors: Vec::new(),
        };
        let pjson = partial.render(ReportFormat::Json);
        assert!(pjson.starts_with("{\"kind\":\"ncdrf-partial-sweep\",\"version\":1,"));
        assert_eq!(crate::report::parse_partial_sweep(&pjson).unwrap(), partial);
        let err = crate::report::parse_partial_sweep(
            &pjson.replace("ncdrf-partial-sweep", "something-else"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
    }

    #[test]
    fn non_finite_relative_performance_round_trips_as_null() {
        // PR 1's cycles==0 guard makes `relative_performance` +∞ in the
        // impossible quadrant; JSON has no literal for it, so the
        // emitter writes `null` and the parsers read it back as +∞ —
        // the report round-trips to equality, not to a parse error.
        let mut outcomes = sample_outcomes();
        outcomes[0].relative_performance = f64::INFINITY;
        let report = SweepReport {
            distributions: Vec::new(),
            outcomes,
            scheduling: crate::session::CacheStats::default(),
        };
        let json = report.render(ReportFormat::Json);
        assert!(
            json.contains("\"relative_performance\":null"),
            "non-finite floats must emit as null: {json}"
        );
        let parsed = crate::report::parse_sweep_report(&json).unwrap();
        assert!(parsed.outcomes[0].relative_performance.is_infinite());
        assert_eq!(parsed, report);
        // And the re-rendered bytes are identical (the round trip is a
        // fixed point, so artifacts can be re-emitted safely).
        assert_eq!(parsed.render(ReportFormat::Json), json);

        // The partial-sweep envelope carries the same value unscathed.
        let partial = PartialSweep {
            report: report.clone(),
            errors: vec![crate::PipelineError::panic("hydro", "boom")],
        };
        let parsed =
            crate::report::parse_partial_sweep(&partial.render(ReportFormat::Json)).unwrap();
        assert!(parsed.report.outcomes[0].relative_performance.is_infinite());
        assert_eq!(parsed.report, report);
    }

    #[test]
    fn partial_sweep_renders_failures_by_name() {
        let partial = PartialSweep {
            report: SweepReport {
                distributions: sample_curves(),
                outcomes: sample_outcomes(),
                scheduling: crate::session::CacheStats {
                    hits: 4,
                    misses: 2,
                    ..Default::default()
                },
            },
            errors: vec![crate::PipelineError::panic("hydro", "boom")],
        };
        let text = partial.render(ReportFormat::Text);
        assert!(text.contains("1 failed (machine, loop) pair(s)"));
        assert!(text.contains("loop `hydro`: worker panicked: boom"));
        let json = partial.render(ReportFormat::Json);
        assert!(json.contains("\"loop\":\"hydro\""));
        assert!(json.contains("\"report\":{"));
        // CSV keeps the record stream parseable.
        assert_eq!(
            partial.render(ReportFormat::Csv),
            partial.report.render(ReportFormat::Csv)
        );
        let complete = PartialSweep {
            report: SweepReport::default(),
            errors: Vec::new(),
        };
        assert!(complete
            .render(ReportFormat::Text)
            .contains("[no failures]"));
    }
}
