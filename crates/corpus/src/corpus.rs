//! Corpus assembly: the loop population the experiments sweep.

use crate::generator::{generate_many, GenConfig};
use crate::kernels;
use crate::weights::assign_weights;
use ncdrf_ddg::{Loop, LoopStats};

/// The benchmark corpus: a named, ordered collection of weighted loops.
///
/// # Example
///
/// ```
/// use ncdrf_corpus::Corpus;
///
/// let c = Corpus::small(); // fast subset for tests/examples
/// assert!(c.len() > 40);
/// let total: u64 = c.loops().iter().map(|l| l.weight().iterations()).sum();
/// assert!(total > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    name: String,
    loops: Vec<Loop>,
}

/// Seed of the standard corpus (weights and generated loops).
pub const STANDARD_SEED: u64 = 19950122; // HPCA'95 opened January 22, 1995.

impl Corpus {
    /// Builds a corpus from explicit loops.
    pub fn from_loops(name: impl Into<String>, loops: Vec<Loop>) -> Self {
        Corpus {
            name: name.into(),
            loops,
        }
    }

    /// Loops of [`Corpus::standard`].
    pub const STANDARD_LOOPS: usize = 795;

    /// Loops of [`Corpus::small`]: the named kernels plus 60 generated
    /// loops.
    pub const SMALL_LOOPS: usize = kernels::ALL.len() + 60;

    /// The **standard corpus**: 795 loops — the 53 named kernels plus 742
    /// generated loops drawn from the default / deep / wide / recurrent
    /// generator profiles — with heavy-tailed execution weights. Matches
    /// the population size of the paper ("almost 800 loops").
    pub fn standard() -> Self {
        Self::sized("standard", Self::STANDARD_LOOPS, STANDARD_SEED)
    }

    /// A small corpus (the named kernels + 60 generated loops) for tests,
    /// examples and quick experiment runs.
    pub fn small() -> Self {
        Self::sized("small", Self::SMALL_LOOPS, STANDARD_SEED)
    }

    /// A corpus of exactly `total` loops (named kernels first, generated
    /// loops after), weighted deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `total` is smaller than the named-kernel count.
    pub fn sized(name: impl Into<String>, total: usize, seed: u64) -> Self {
        Self::sized_prefix(name, total, total, seed)
    }

    /// The first `n` loops of [`Corpus::sized`]`(_, total, seed)`, built
    /// without the rest: only the kept kernels are constructed and only
    /// the kept generated loops are generated. Generated loops keep the
    /// profile split of the *full* `total`, and weights are drawn in
    /// loop order, so the prefix equals `sized(name, total, seed)
    /// .take(n)` loop for loop. An `n` beyond `total` keeps every loop,
    /// as [`Corpus::take`] does.
    ///
    /// # Panics
    ///
    /// Panics if `total` is smaller than the named-kernel count.
    pub fn sized_prefix(name: impl Into<String>, total: usize, n: usize, seed: u64) -> Self {
        let named = kernels::ALL.len();
        assert!(
            total >= named,
            "corpus must include the {named} named kernels"
        );
        let n = n.min(total);
        let mut loops: Vec<Loop> = kernels::ALL[..n.min(named)]
            .iter()
            .map(|kernel| kernel())
            .collect();
        let remaining = total - named;
        let mut wanted = n.saturating_sub(named);
        // Split generated loops across the four structural profiles.
        let quarters = [
            (GenConfig::default(), remaining.div_ceil(4)),
            (GenConfig::deep(), (remaining + 2) / 4),
            (GenConfig::wide(), (remaining + 1) / 4),
            (GenConfig::recurrent(), remaining / 4),
        ];
        let mut base = seed;
        for (cfg, count) in quarters {
            let kept = count.min(wanted);
            loops.extend(generate_many(base, kept, &cfg));
            wanted -= kept;
            base = base.wrapping_add(count as u64).wrapping_add(7919);
        }
        debug_assert_eq!(loops.len(), n);
        Corpus {
            name: name.into(),
            loops: assign_weights(loops, seed ^ 0x5741_4E44), // "WAND"
        }
    }

    /// The corpus name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loops, in a fixed order.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Iterator over the loops.
    pub fn iter(&self) -> std::slice::Iter<'_, Loop> {
        self.loops.iter()
    }

    /// Retains only loops satisfying `keep` (mirrors the paper's §5.1
    /// selection: FP loops with one basic block — ours satisfy both by
    /// construction, but downstream studies filter further, e.g. by op
    /// count).
    pub fn filter<F: FnMut(&Loop) -> bool>(&self, mut keep: F) -> Corpus {
        Corpus {
            name: format!("{}-filtered", self.name),
            loops: self.loops.iter().filter(|l| keep(l)).cloned().collect(),
        }
    }

    /// Takes the first `n` loops (cheap deterministic subset).
    pub fn take(&self, n: usize) -> Corpus {
        Corpus {
            name: format!("{}-take{n}", self.name),
            loops: self.loops.iter().take(n).cloned().collect(),
        }
    }

    /// Aggregate structural statistics (op-mix totals over all loops).
    pub fn stats(&self) -> CorpusStats {
        let mut s = CorpusStats::default();
        for l in &self.loops {
            let ls: LoopStats = l.stats();
            s.loops += 1;
            s.ops += ls.ops;
            s.adds += ls.adds;
            s.muls += ls.muls;
            s.loads += ls.loads;
            s.stores += ls.stores;
            s.recurrent_loops += usize::from(ls.recurrences > 0);
            s.max_ops = s.max_ops.max(ls.ops);
            s.total_iterations += l.weight().iterations() as u128;
        }
        s
    }
}

impl<'a> IntoIterator for &'a Corpus {
    type Item = &'a Loop;
    type IntoIter = std::slice::Iter<'a, Loop>;

    fn into_iter(self) -> Self::IntoIter {
        self.loops.iter()
    }
}

/// Aggregate statistics of a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorpusStats {
    /// Loop count.
    pub loops: usize,
    /// Total operations.
    pub ops: usize,
    /// Adder-class operations.
    pub adds: usize,
    /// Multiplier-class operations.
    pub muls: usize,
    /// Loads.
    pub loads: usize,
    /// Stores.
    pub stores: usize,
    /// Loops containing at least one recurrence.
    pub recurrent_loops: usize,
    /// Largest loop body.
    pub max_ops: usize,
    /// Total weighted iterations.
    pub total_iterations: u128,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn standard_corpus_has_795_loops() {
        let c = Corpus::standard();
        assert_eq!(c.len(), 795);
    }

    #[test]
    fn standard_corpus_is_deterministic() {
        assert_eq!(Corpus::standard(), Corpus::standard());
    }

    #[test]
    fn names_are_unique_across_the_corpus() {
        let c = Corpus::standard();
        let names: HashSet<_> = c.iter().map(|l| l.name().to_owned()).collect();
        assert_eq!(names.len(), c.len());
    }

    #[test]
    fn small_is_a_prefix_superset_of_kernels() {
        let c = Corpus::small();
        let named = crate::kernels::all();
        for (a, b) in c.loops().iter().zip(&named) {
            assert_eq!(a.name(), b.name());
        }
    }

    #[test]
    fn filter_and_take() {
        let c = Corpus::small();
        let big = c.filter(|l| l.ops().len() >= 10);
        assert!(big.len() < c.len());
        assert!(big.iter().all(|l| l.ops().len() >= 10));
        assert_eq!(c.take(5).len(), 5);
    }

    /// The prefix equals `full.take(n)` loop for loop: names, ops,
    /// dependences and weights (`Loop` equality covers all of them).
    fn assert_prefix(full: &Corpus, total: usize, n: usize) {
        let prefix =
            Corpus::sized_prefix(format!("{}-take{n}", full.name()), total, n, STANDARD_SEED);
        let taken = full.take(n);
        assert_eq!(prefix.name(), taken.name(), "n = {n}");
        assert_eq!(prefix.len(), taken.len(), "n = {n}");
        for (a, b) in prefix.iter().zip(&taken) {
            assert_eq!(a, b, "n = {n}, loop `{}`", b.name());
        }
    }

    #[test]
    fn every_small_prefix_equals_take() {
        let small = Corpus::small();
        for n in 0..=small.len() + 2 {
            assert_prefix(&small, Corpus::SMALL_LOOPS, n);
        }
    }

    #[test]
    fn standard_prefixes_equal_take_at_every_quarter_boundary() {
        let standard = Corpus::standard();
        let named = crate::kernels::ALL.len();
        let remaining = Corpus::STANDARD_LOOPS - named;
        let q = [
            remaining.div_ceil(4),
            (remaining + 2) / 4,
            (remaining + 1) / 4,
        ];
        let boundaries = [
            named + q[0],
            named + q[0] + q[1],
            named + q[0] + q[1] + q[2],
        ];
        let mut ns = vec![0, 32, 53, 54, Corpus::STANDARD_LOOPS, 900];
        for b in boundaries {
            ns.extend([b - 1, b, b + 1]);
        }
        for n in ns {
            assert_prefix(&standard, Corpus::STANDARD_LOOPS, n);
        }
        assert_eq!(
            Corpus::sized_prefix("standard", Corpus::STANDARD_LOOPS, 795, STANDARD_SEED),
            standard
        );
    }

    #[test]
    fn stats_add_up() {
        let c = Corpus::small();
        let s = c.stats();
        assert_eq!(s.loops, c.len());
        assert_eq!(s.ops, s.adds + s.muls + s.loads + s.stores);
        assert!(s.recurrent_loops > 0);
        assert!(s.total_iterations > 0);
    }

    #[test]
    fn all_weights_are_nontrivial() {
        let c = Corpus::small();
        assert!(c.iter().all(|l| l.weight().iterations() > 1));
    }
}
