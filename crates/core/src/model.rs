//! The register-file model space: a [`ModelSpec`] trait plus a process-wide
//! [`ModelRegistry`], with the paper's four §5.2 organisations (and two
//! related-work families) as built-in registrations.
//!
//! Every stage of the pipeline — [`Session`](crate::Session) caching,
//! [`Sweep`](crate::Sweep) grids, shard artifacts, farm job specs — carries a
//! [`ModelId`]: a small `Copy` handle resolved through the registry. The
//! registry owns the stable wire names (`"ideal"`, `"unified"`, …) used in
//! `GridSignature`, shard-artifact JSON, report JSON, and farm job specs, so
//! new register-file organisations drop into the whole stack by registering a
//! [`ModelSpec`] — no enum to extend, no machinery to touch.

use ncdrf_ddg::Loop;
use ncdrf_regalloc::Lifetime;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use crate::pipeline::ConfigError;

/// A registered register-file model, identified by its slot in the
/// process-wide [`ModelRegistry`].
///
/// `ModelId` is the currency the pipeline passes around: `Copy`, hashable,
/// and ordered by registration index (the paper's four models occupy slots
/// 0–3 in presentation order, so sorting by `ModelId` reproduces the paper's
/// ordering). The stable *name* — what appears in reports and artifacts —
/// lives in the registry; [`Display`](fmt::Display) looks it up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(u16);

impl ModelId {
    /// Infinite registers (upper bound). Wire name `"ideal"`.
    pub const IDEAL: ModelId = ModelId(0);
    /// Unified / consistent dual register file. Wire name `"unified"`.
    pub const UNIFIED: ModelId = ModelId(1);
    /// Non-consistent dual register file, no swapping. Wire name
    /// `"partitioned"`.
    pub const PARTITIONED: ModelId = ModelId(2);
    /// Non-consistent dual register file with operation swapping. Wire name
    /// `"swapped"`.
    pub const SWAPPED: ModelId = ModelId(3);
    /// Read-port-constrained unified file (arXiv:2502.00147): port pressure
    /// raises the effective requirement. Wire name `"port-limited"`.
    pub const PORT_LIMITED: ModelId = ModelId(4);
    /// Compressed register file (arXiv:2006.05693): compressibility scales
    /// the effective capacity. Wire name `"compressed"`.
    pub const COMPRESSED: ModelId = ModelId(5);

    /// The registry slot this ID names. Stable for the lifetime of the
    /// process (models are never unregistered).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The model's stable wire name, looked up in the registry.
    pub fn name(self) -> String {
        ModelRegistry::name(self)
    }

    /// The model's behaviour specification.
    pub fn spec(self) -> Arc<dyn ModelSpec> {
        ModelRegistry::spec(self)
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&ModelRegistry::name(*self))
    }
}

impl std::str::FromStr for ModelId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelRegistry::resolve(s).ok_or_else(|| format!("unknown model `{s}`"))
    }
}

/// Per-loop context handed to [`ModelSpec::effective_requirement`].
///
/// Everything here is computed by the pipeline anyway; the hook only gets a
/// read-only view, so transforms stay deterministic functions of the
/// schedule.
pub struct RequirementCtx<'a> {
    /// The loop being allocated.
    pub l: &'a Loop,
    /// The achieved initiation interval of the schedule.
    pub ii: u32,
    /// The value lifetimes the base requirement was computed from.
    pub lifetimes: &'a [Lifetime],
}

impl RequirementCtx<'_> {
    /// Total register-operand reads in the loop body: every
    /// producer-to-consumer edge counts once per consuming operand slot.
    pub fn total_reads(&self) -> u64 {
        self.l.operand_reads()
    }
}

/// Behaviour of one register-file organisation — everything the pipeline
/// branches on.
///
/// The four paper models are expressed entirely by the three classification
/// flags; new families additionally reshape the per-loop register requirement
/// through [`effective_requirement`](ModelSpec::effective_requirement), which
/// runs *after* the base unified/dual allocation so the built-ins stay
/// bit-identical to the pre-registry pipeline.
pub trait ModelSpec: Send + Sync {
    /// The stable wire name, used in reports, shard artifacts, and farm job
    /// specs. Must be unique across the registry.
    fn name(&self) -> &str;

    /// Whether allocation runs on the non-consistent dual file (larger
    /// subfile is the requirement) instead of the unified file.
    fn is_dual(&self) -> bool {
        false
    }

    /// Whether the greedy post-scheduling cluster-swapping pass runs before
    /// allocation. Implies dual allocation in the built-ins.
    fn swaps(&self) -> bool {
        false
    }

    /// Whether this model has infinitely many registers (requirement 0, the
    /// performance upper bound).
    fn is_ideal(&self) -> bool {
        false
    }

    /// Transforms the base allocated requirement into the model's effective
    /// requirement. The default is the identity, which every paper model
    /// uses; the hook must be a pure function of its arguments (bit-identity
    /// across shards depends on it), and monotone non-decreasing in `raw`
    /// for a fixed `ctx`. The escalation ladder applies the hook to a class
    /// lower bound (MaxLive, or the larger subfile pressure) to skip rungs
    /// without allocating them; monotonicity makes the result a lower
    /// bound on the model's requirement, so a skipped rung cannot fit.
    ///
    /// The hook must also be non-increasing in `ctx.ii` for a fixed `raw`
    /// and fixed lifetimes. Above a flat rung (a schedule that repeats at
    /// every higher II with every lifetime ending by its II) every rung
    /// has the same raw requirement and lifetimes, so the ladder's last
    /// rung has the least requirement of that tail; when it cannot fit,
    /// the ladder records the tail without scheduling it. `port-limited`
    /// (`ceil(reads / II)` staging registers) and `compressed` (no II
    /// term) both qualify.
    fn effective_requirement(&self, raw: u32, ctx: &RequirementCtx<'_>) -> u32 {
        let _ = ctx;
        raw
    }
}

/// A paper built-in: fully described by its classification flags.
struct BuiltinSpec {
    name: &'static str,
    dual: bool,
    swaps: bool,
    ideal: bool,
}

impl ModelSpec for BuiltinSpec {
    fn name(&self) -> &str {
        self.name
    }
    fn is_dual(&self) -> bool {
        self.dual
    }
    fn swaps(&self) -> bool {
        self.swaps
    }
    fn is_ideal(&self) -> bool {
        self.ideal
    }
}

/// Read-port-constrained unified register file, after the PRF read-port
/// reduction literature (arXiv:2502.00147).
///
/// A file with `read_ports` ports must sustain the loop's read bandwidth;
/// when the steady-state reads per cycle (`ceil(total_reads / II)`) exceed
/// the port count, the shortfall is charged to the requirement — each excess
/// read per cycle costs one staging register to buffer operands across port
/// conflicts. Allocation itself is unified; only the requirement grows.
pub struct PortLimitedSpec {
    /// Number of read ports on the unified file.
    pub read_ports: u32,
}

/// Read-port budget of the built-in `"port-limited"` registration. One
/// port is the extreme design point of the port-reduction literature
/// (all other reads come from operand buffers): on the clustered
/// machines the steady-state read bandwidth of nearly every
/// software-pipelined loop exceeds it, so the model visibly charges
/// staging registers, whereas at two or more ports this corpus is
/// indistinguishable from the plain unified file.
pub const PORT_LIMITED_READ_PORTS: u32 = 1;

impl ModelSpec for PortLimitedSpec {
    fn name(&self) -> &str {
        "port-limited"
    }

    fn effective_requirement(&self, raw: u32, ctx: &RequirementCtx<'_>) -> u32 {
        let ii = u64::from(ctx.ii.max(1));
        let reads = ctx.total_reads();
        let per_cycle = reads.div_ceil(ii);
        let excess = per_cycle.saturating_sub(u64::from(self.read_ports));
        raw.saturating_add(excess.min(u64::from(u32::MAX)) as u32)
    }
}

/// Compressed register file, after static register-data compression
/// (arXiv:2006.05693).
///
/// Compression packs values so `capacity_num` architectural registers fit in
/// `capacity_den` physical ones; equivalently the physical requirement is the
/// base requirement scaled by `den/num`, rounded up (a value never occupies
/// less than a fraction of a register deterministically).
pub struct CompressedSpec {
    /// Capacity scale numerator: architectural registers representable…
    pub capacity_num: u32,
    /// …per this many physical registers.
    pub capacity_den: u32,
}

/// Capacity scale of the built-in `"compressed"` registration: 4
/// architectural registers per 3 physical (a conservative 1.33× ratio).
pub const COMPRESSED_CAPACITY: (u32, u32) = (4, 3);

impl ModelSpec for CompressedSpec {
    fn name(&self) -> &str {
        "compressed"
    }

    fn effective_requirement(&self, raw: u32, _ctx: &RequirementCtx<'_>) -> u32 {
        let num = u64::from(self.capacity_num.max(1));
        let den = u64::from(self.capacity_den.max(1));
        let scaled = (u64::from(raw) * den).div_ceil(num);
        scaled.min(u64::from(u32::MAX)) as u32
    }
}

/// Error from [`ModelRegistry::register`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A model with this wire name is already registered.
    DuplicateName(String),
    /// The registry is full (`u16::MAX` slots).
    Exhausted,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName(name) => {
                write!(f, "a model named `{name}` is already registered")
            }
            RegistryError::Exhausted => f.write_str("model registry is full"),
        }
    }
}

impl std::error::Error for RegistryError {}

struct RegistryInner {
    specs: Vec<Arc<dyn ModelSpec>>,
    by_name: HashMap<String, u16>,
}

impl RegistryInner {
    fn push(&mut self, spec: Arc<dyn ModelSpec>) -> Result<ModelId, RegistryError> {
        let name = spec.name().to_string();
        if self.by_name.contains_key(&name) {
            return Err(RegistryError::DuplicateName(name));
        }
        if self.specs.len() >= usize::from(u16::MAX) {
            return Err(RegistryError::Exhausted);
        }
        let id = self.specs.len() as u16;
        self.by_name.insert(name, id);
        self.specs.push(spec);
        Ok(ModelId(id))
    }
}

fn registry() -> &'static RwLock<RegistryInner> {
    static REGISTRY: OnceLock<RwLock<RegistryInner>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut inner = RegistryInner {
            specs: Vec::new(),
            by_name: HashMap::new(),
        };
        let builtins: [Arc<dyn ModelSpec>; 6] = [
            Arc::new(BuiltinSpec {
                name: "ideal",
                dual: false,
                swaps: false,
                ideal: true,
            }),
            Arc::new(BuiltinSpec {
                name: "unified",
                dual: false,
                swaps: false,
                ideal: false,
            }),
            Arc::new(BuiltinSpec {
                name: "partitioned",
                dual: true,
                swaps: false,
                ideal: false,
            }),
            Arc::new(BuiltinSpec {
                name: "swapped",
                dual: true,
                swaps: true,
                ideal: false,
            }),
            Arc::new(PortLimitedSpec {
                read_ports: PORT_LIMITED_READ_PORTS,
            }),
            Arc::new(CompressedSpec {
                capacity_num: COMPRESSED_CAPACITY.0,
                capacity_den: COMPRESSED_CAPACITY.1,
            }),
        ];
        for spec in builtins {
            inner.push(spec).expect("built-in model names are distinct");
        }
        RwLock::new(inner)
    })
}

/// The process-wide model registry.
///
/// Seeded with the six built-ins (the paper's four at slots 0–3, then
/// `"port-limited"` and `"compressed"`); user models append after them.
/// Registration order is the iteration order and never changes — IDs are
/// stable for the process lifetime.
pub struct ModelRegistry;

impl ModelRegistry {
    /// Registers a new model and returns its ID. Rejects a spec whose wire
    /// name collides with an existing registration.
    pub fn register(spec: impl ModelSpec + 'static) -> Result<ModelId, RegistryError> {
        Self::register_arc(Arc::new(spec))
    }

    /// Registers a pre-shared spec — for callers that keep their own
    /// handle to it alongside the registry's.
    pub fn register_arc(spec: Arc<dyn ModelSpec>) -> Result<ModelId, RegistryError> {
        registry()
            .write()
            .expect("model registry lock poisoned")
            .push(spec)
    }

    /// Resolves a stable wire name to its ID.
    pub fn resolve(name: &str) -> Option<ModelId> {
        registry()
            .read()
            .expect("model registry lock poisoned")
            .by_name
            .get(name)
            .copied()
            .map(ModelId)
    }

    /// All registered model IDs, in registration order (deterministic; the
    /// built-ins always lead).
    pub fn ids() -> Vec<ModelId> {
        let n = registry()
            .read()
            .expect("model registry lock poisoned")
            .specs
            .len();
        (0..n as u16).map(ModelId).collect()
    }

    /// The wire name of a registered model.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry (impossible for IDs
    /// obtained through the public API).
    pub fn name(id: ModelId) -> String {
        registry()
            .read()
            .expect("model registry lock poisoned")
            .specs
            .get(id.index())
            .map(|s| s.name().to_string())
            .unwrap_or_else(|| panic!("model id {} names no registered model", id.0))
    }

    /// The behaviour spec of a registered model.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry.
    pub fn spec(id: ModelId) -> Arc<dyn ModelSpec> {
        registry()
            .read()
            .expect("model registry lock poisoned")
            .specs
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| panic!("model id {} names no registered model", id.0))
    }
}

/// Resolves a list of wire names through the registry, reporting the first
/// unknown name as [`ConfigError::UnknownModel`].
///
/// This is the validation path shared by artifact parsing presets and the
/// farm's job-spec intake.
pub fn resolve_models<I, S>(names: I) -> Result<Vec<ModelId>, ConfigError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    names
        .into_iter()
        .map(|name| {
            let name = name.as_ref();
            ModelRegistry::resolve(name).ok_or_else(|| ConfigError::UnknownModel {
                name: name.to_string(),
            })
        })
        .collect()
}

/// The paper's four evaluation models (§5.2), by registry ID, in the
/// paper's presentation order — the default model set of a fresh
/// [`Sweep`](crate::Sweep).
pub const PAPER_MODELS: [ModelId; 4] = [
    ModelId::IDEAL,
    ModelId::UNIFIED,
    ModelId::PARTITIONED,
    ModelId::SWAPPED,
];

/// The three finite-register paper models (those that can require spill
/// code), by registry ID.
pub const PAPER_FINITE_MODELS: [ModelId; 3] =
    [ModelId::UNIFIED, ModelId::PARTITIONED, ModelId::SWAPPED];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        let names: Vec<String> = PAPER_MODELS.iter().map(|m| m.to_string()).collect();
        assert_eq!(names, ["ideal", "unified", "partitioned", "swapped"]);
    }

    #[test]
    fn names_round_trip() {
        for m in PAPER_MODELS {
            assert_eq!(m.to_string().parse::<ModelId>(), Ok(m));
        }
        assert!("POWER2".parse::<ModelId>().is_err());
        assert!("".parse::<ModelId>().is_err());
    }

    #[test]
    fn classification_helpers() {
        // The finite set is the paper set minus the ideal model, in order.
        let finite: Vec<ModelId> = PAPER_MODELS
            .into_iter()
            .filter(|m| !m.spec().is_ideal())
            .collect();
        assert_eq!(finite, PAPER_FINITE_MODELS);
    }

    #[test]
    fn builtin_ids_are_stable() {
        assert_eq!(ModelRegistry::resolve("ideal"), Some(ModelId::IDEAL));
        assert_eq!(ModelRegistry::resolve("unified"), Some(ModelId::UNIFIED));
        assert_eq!(
            ModelRegistry::resolve("partitioned"),
            Some(ModelId::PARTITIONED)
        );
        assert_eq!(ModelRegistry::resolve("swapped"), Some(ModelId::SWAPPED));
        assert_eq!(
            ModelRegistry::resolve("port-limited"),
            Some(ModelId::PORT_LIMITED)
        );
        assert_eq!(
            ModelRegistry::resolve("compressed"),
            Some(ModelId::COMPRESSED)
        );
        assert_eq!(ModelRegistry::resolve("POWER2"), None);
    }

    #[test]
    fn spec_flags_match_paper_classification() {
        assert!(ModelId::IDEAL.spec().is_ideal());
        assert!(!ModelId::UNIFIED.spec().is_dual());
        assert!(ModelId::PARTITIONED.spec().is_dual());
        assert!(!ModelId::PARTITIONED.spec().swaps());
        assert!(ModelId::SWAPPED.spec().is_dual());
        assert!(ModelId::SWAPPED.spec().swaps());
        assert!(!ModelId::PORT_LIMITED.spec().is_dual());
        assert!(!ModelId::COMPRESSED.spec().is_dual());
    }

    #[test]
    fn compressed_requirement_rounds_up() {
        let spec = CompressedSpec {
            capacity_num: 4,
            capacity_den: 3,
        };
        // ceil(raw * 3/4): 0→0, 1→1, 4→3, 5→4, 8→6.
        let l = ncdrf_corpus::kernels::blas::daxpy();
        let ctx = RequirementCtx {
            l: &l,
            ii: 1,
            lifetimes: &[],
        };
        for (raw, want) in [(0, 0), (1, 1), (4, 3), (5, 4), (8, 6)] {
            assert_eq!(spec.effective_requirement(raw, &ctx), want);
        }
    }

    #[test]
    fn port_limited_charges_excess_reads() {
        let l = ncdrf_corpus::kernels::blas::daxpy();
        let reads = l.operand_reads();
        assert_eq!(
            reads,
            l.consumers().iter().map(|c| c.len() as u64).sum::<u64>()
        );
        assert!(reads > 0, "example loop must have register reads");
        let ctx = RequirementCtx {
            l: &l,
            ii: 1,
            lifetimes: &[],
        };
        // With more ports than reads-per-cycle the requirement is untouched.
        let roomy = PortLimitedSpec {
            read_ports: reads as u32 + 1,
        };
        assert_eq!(roomy.effective_requirement(7, &ctx), 7);
        // With zero ports every steady-state read is charged.
        let starved = PortLimitedSpec { read_ports: 0 };
        assert_eq!(starved.effective_requirement(7, &ctx), 7 + reads as u32);
    }

    /// The built-in hooks keep the ladder's contract on every loop of the
    /// small corpus: non-decreasing in `raw` and non-increasing in II.
    #[test]
    fn builtin_hooks_rise_with_raw_and_fall_with_ii() {
        let specs: Vec<Arc<dyn ModelSpec>> = vec![
            ModelId::PORT_LIMITED.spec(),
            ModelId::COMPRESSED.spec(),
            Arc::new(PortLimitedSpec { read_ports: 0 }),
            Arc::new(PortLimitedSpec { read_ports: 3 }),
            Arc::new(CompressedSpec {
                capacity_num: 5,
                capacity_den: 2,
            }),
        ];
        let corpus = ncdrf_corpus::Corpus::small();
        let mut reads_seen = Vec::new();
        for l in corpus.iter() {
            let reads = l.operand_reads();
            if reads_seen.contains(&reads) {
                continue;
            }
            reads_seen.push(reads);
            for spec in &specs {
                let at = |raw, ii| {
                    let ctx = RequirementCtx {
                        l,
                        ii,
                        lifetimes: &[],
                    };
                    spec.effective_requirement(raw, &ctx)
                };
                for raw in 0..48 {
                    for ii in 1..64 {
                        let here = at(raw, ii);
                        let name = spec.name();
                        assert!(at(raw + 1, ii) >= here, "{name}: raw {raw} II {ii}");
                        assert!(at(raw, ii + 1) <= here, "{name}: raw {raw} II {ii}");
                    }
                }
            }
        }
        assert!(reads_seen.len() > 4, "reads {reads_seen:?}");
    }

    #[test]
    fn resolve_models_reports_offender() {
        let ok = resolve_models(["unified", "compressed"]).unwrap();
        assert_eq!(ok, vec![ModelId::UNIFIED, ModelId::COMPRESSED]);
        let err = resolve_models(["unified", "racetrack", "ideal"]).unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnknownModel {
                name: "racetrack".to_string()
            }
        );
    }
}
