//! A seeded synthetic loop generator.
//!
//! The paper's population — 795 floating-point single-basic-block inner
//! loops extracted from the Perfect Club by a custom R3000-assembler tool —
//! is not recoverable. What the experiments actually consume, however, is
//! only each loop's *dependence graph shape*: operation count, operation
//! mix, memory-access ratio, recurrences and critical-path form. This
//! generator produces valid, executable loops across exactly those axes,
//! deterministically from a seed, so the corpus is reproducible bit for
//! bit.

use ncdrf_ddg::{Loop, LoopBuilder, OpId, ValueRef, Weight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Structural knobs of the generator.
///
/// The default configuration covers the spread observed in scientific
/// inner loops: 2–18 arithmetic operations, 1–5 loads, occasional
/// recurrences and divisions.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Minimum arithmetic (non-memory) operations.
    pub min_arith: usize,
    /// Maximum arithmetic operations (inclusive).
    pub max_arith: usize,
    /// Minimum loads.
    pub min_loads: usize,
    /// Maximum loads (inclusive).
    pub max_loads: usize,
    /// Maximum extra stores beyond the mandatory sink store.
    pub max_extra_stores: usize,
    /// Probability that a binary operation closes a self-recurrence.
    pub recurrence_prob: f64,
    /// Maximum recurrence distance (Ω).
    pub max_recurrence_dist: u32,
    /// Probability weights of (add, sub, mul, div, conv).
    pub kind_weights: [f64; 5],
    /// Largest absolute affine offset of loads.
    pub max_offset: i64,
    /// Probability that an operand reuses the most recent value (chain
    /// bias); otherwise a uniform pool pick.
    pub chain_bias: f64,
    /// Number of loop-invariant inputs available as operands.
    pub invariants: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            min_arith: 2,
            max_arith: 18,
            min_loads: 1,
            max_loads: 5,
            max_extra_stores: 2,
            recurrence_prob: 0.18,
            max_recurrence_dist: 2,
            kind_weights: [0.34, 0.14, 0.32, 0.06, 0.14],
            max_offset: 4,
            chain_bias: 0.55,
            invariants: 3,
        }
    }
}

impl GenConfig {
    /// A configuration biased toward deep dependence chains (long
    /// lifetimes, high pressure at small II).
    pub fn deep() -> Self {
        GenConfig {
            min_arith: 6,
            max_arith: 24,
            chain_bias: 0.9,
            recurrence_prob: 0.08,
            ..GenConfig::default()
        }
    }

    /// A configuration biased toward wide, independent computation
    /// (high ILP, many parallel lifetimes).
    pub fn wide() -> Self {
        GenConfig {
            min_arith: 6,
            max_arith: 24,
            min_loads: 3,
            max_loads: 8,
            chain_bias: 0.15,
            recurrence_prob: 0.05,
            ..GenConfig::default()
        }
    }

    /// A configuration biased toward recurrences (RecMII-bound loops).
    pub fn recurrent() -> Self {
        GenConfig {
            recurrence_prob: 0.45,
            max_recurrence_dist: 3,
            ..GenConfig::default()
        }
    }
}

/// Value pool with consumption tracking: guarantees the generated graph
/// has no dead values by funnelling whatever remains unconsumed into a
/// final reduction tree.
struct Pool {
    values: Vec<OpId>,
    consumed: Vec<bool>,
}

impl Pool {
    fn new() -> Self {
        Pool {
            values: Vec::new(),
            consumed: Vec::new(),
        }
    }

    fn push(&mut self, id: OpId) {
        self.values.push(id);
        self.consumed.push(false);
    }

    fn take_last(&mut self) -> ValueRef {
        let i = self.values.len() - 1;
        self.consumed[i] = true;
        self.values[i].now()
    }

    fn take_at(&mut self, i: usize) -> ValueRef {
        self.consumed[i] = true;
        self.values[i].now()
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn dangling(&self) -> Vec<ValueRef> {
        self.values
            .iter()
            .zip(&self.consumed)
            .filter(|(_, &c)| !c)
            .map(|(&id, _)| id.now())
            .collect()
    }
}

/// Generates one loop named `name` from the given seed.
///
/// The result is always structurally valid: operands reference earlier
/// operations (or the op itself at distance ≥ 1), and a reduction tree
/// feeds every otherwise-unconsumed value into a final store.
pub fn generate(name: impl Into<String>, seed: u64, config: &GenConfig) -> Loop {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = LoopBuilder::new(name.into());
    let mut names = Names::default();

    let invs: Vec<ValueRef> = (0..config.invariants.max(1))
        .map(|i| {
            let v = rng.gen_range(-4.0..4.0_f64);
            let v = if v.abs() < 0.25 { 0.5 } else { v };
            b.invariant(names.of(format_args!("c{i}")), v)
        })
        .collect();

    // Loads over 1-3 input arrays.
    let n_loads = rng.gen_range(config.min_loads..=config.max_loads.max(config.min_loads));
    let n_arrays = rng.gen_range(1..=3usize.min(n_loads.max(1)));
    let arrays: Vec<_> = (0..n_arrays)
        .map(|i| b.array_in(names.of(format_args!("in{i}"))))
        .collect();
    let mut pool = Pool::new();
    for i in 0..n_loads {
        let arr = arrays[rng.gen_range(0..arrays.len())];
        let off = rng.gen_range(-config.max_offset..=config.max_offset);
        pool.push(b.load(names.of(format_args!("L{i}")), arr, off));
    }

    // Arithmetic body.
    let n_arith = rng.gen_range(config.min_arith..=config.max_arith.max(config.min_arith));
    for i in 0..n_arith {
        let kind = pick_kind(&mut rng, &config.kind_weights);
        let a = pick_operand(&mut rng, &mut pool, &invs, config.chain_bias);
        let id = match kind {
            4 => b.conv(names.of(format_args!("C{i}")), a),
            k => {
                if rng.gen_bool(config.recurrence_prob) {
                    let dist = rng.gen_range(1..=config.max_recurrence_dist.max(1));
                    let id = match k {
                        0 => b.reserve_add(names.of(format_args!("R{i}"))),
                        1 => b.reserve_sub(names.of(format_args!("R{i}"))),
                        2 => b.reserve_mul(names.of(format_args!("R{i}"))),
                        _ => b.reserve_div(names.of(format_args!("R{i}"))),
                    };
                    b.bind(id, [a, id.prev(dist)]);
                    b.set_init(id, rng.gen_range(0.5..2.0));
                    id
                } else {
                    let c = pick_operand(&mut rng, &mut pool, &invs, config.chain_bias);
                    match k {
                        0 => b.add(names.of(format_args!("O{i}")), a, c),
                        1 => b.sub(names.of(format_args!("O{i}")), a, c),
                        2 => b.mul(names.of(format_args!("O{i}")), a, c),
                        _ => b.div(names.of(format_args!("O{i}")), a, c),
                    }
                }
            }
        };
        pool.push(id);
    }

    // Extra stores of random live values.
    let n_extra = rng.gen_range(0..=config.max_extra_stores);
    for s in 0..n_extra {
        let i = rng.gen_range(0..pool.len());
        let v = pool.take_at(i);
        let out = b.array_out(names.of(format_args!("out{s}")));
        b.store(names.of(format_args!("S{s}")), out, 0, v);
    }

    // Reduction tree over every unconsumed value, stored to the sink.
    let mut dangling = pool.dangling();
    if dangling.is_empty() {
        dangling.push(pool.take_last());
    }
    let mut t = 0usize;
    while dangling.len() > 1 {
        let mut next = Vec::new();
        for pair in dangling.chunks(2) {
            if pair.len() == 2 {
                let a = b.add(names.of(format_args!("T{t}")), pair[0], pair[1]);
                t += 1;
                next.push(a.now());
            } else {
                next.push(pair[0]);
            }
        }
        dangling = next;
    }
    let sink = b.array_out("sink");
    b.store("SK", sink, 0, dangling[0]);

    b.finish(Weight::default())
        .expect("generator emits structurally valid loops")
}

/// One buffer for every formatted name of a loop: the builder copies
/// each name into a shared string of its own, so a name needs no
/// `String` of its own first.
#[derive(Default)]
struct Names(String);

impl Names {
    fn of(&mut self, args: std::fmt::Arguments<'_>) -> &str {
        use std::fmt::Write;
        self.0.clear();
        self.0
            .write_fmt(args)
            .expect("formatting into a String cannot fail");
        &self.0
    }
}

/// Generates `count` loops named `gen<seed>` with consecutive seeds.
pub fn generate_many(base_seed: u64, count: usize, config: &GenConfig) -> Vec<Loop> {
    (0..count)
        .map(|i| {
            generate(
                format!("gen{:04}", base_seed as usize + i),
                base_seed + i as u64,
                config,
            )
        })
        .collect()
}

fn pick_kind(rng: &mut StdRng, weights: &[f64; 5]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    0
}

fn pick_operand(rng: &mut StdRng, pool: &mut Pool, invs: &[ValueRef], chain_bias: f64) -> ValueRef {
    if pool.len() > 0 && rng.gen_bool(chain_bias) {
        pool.take_last()
    } else if pool.len() > 0 && rng.gen_bool(0.85) {
        let i = rng.gen_range(0..pool.len());
        pool.take_at(i)
    } else {
        invs[rng.gen_range(0..invs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_certify::certify_schedule;
    use ncdrf_machine::Machine;
    use ncdrf_sched::modulo_schedule;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate("g", 42, &cfg);
        let b = generate("g", 42, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        let a = generate("g", 1, &cfg);
        let b = generate("g", 2, &cfg);
        assert_ne!(a, b);
    }

    #[test]
    fn generated_loops_schedule_and_verify() {
        let cfg = GenConfig::default();
        let machine = Machine::clustered(3, 1);
        for l in generate_many(100, 40, &cfg) {
            let sched = modulo_schedule(&l, &machine)
                .unwrap_or_else(|e| panic!("{} failed: {e}", l.name()));
            certify_schedule(&l, &machine, &sched).unwrap();
        }
    }

    #[test]
    fn presets_produce_distinct_shapes() {
        let depth_sum = |cfg: &GenConfig| -> usize {
            generate_many(7, 20, cfg)
                .iter()
                .map(|l| l.stats().body_depth)
                .sum()
        };
        let deep = depth_sum(&GenConfig::deep());
        let wide = depth_sum(&GenConfig::wide());
        assert!(
            deep > wide,
            "deep config should produce longer chains ({deep} vs {wide})"
        );
    }

    #[test]
    fn recurrent_preset_has_more_recurrences() {
        let count = |cfg: &GenConfig| -> usize {
            generate_many(11, 30, cfg)
                .iter()
                .map(|l| l.stats().recurrences)
                .sum()
        };
        assert!(count(&GenConfig::recurrent()) > count(&GenConfig::wide()));
    }

    #[test]
    fn generated_loops_execute_equivalently() {
        use ncdrf_regalloc::{allocate_unified, lifetimes};
        let cfg = GenConfig::default();
        let machine = Machine::clustered(3, 1);
        for l in generate_many(500, 10, &cfg) {
            let sched = modulo_schedule(&l, &machine).unwrap();
            let lts = lifetimes(&l, &machine, &sched).unwrap();
            let alloc = allocate_unified(&lts, sched.ii());
            let binding = ncdrf_vliw::Binding::unified(&lts, &alloc);
            ncdrf_vliw::check_equivalence(&l, &machine, &sched, &binding, 12)
                .unwrap_or_else(|e| panic!("{}: {e}", l.name()));
        }
    }
}
