//! Structural statistics of loop graphs.

use crate::graph::Loop;
use crate::op::OpKind;

/// Summary statistics of one loop's dependence graph.
///
/// Produced by [`Loop::stats`]; used by the corpus tooling to report the
/// composition of the benchmark set (the paper's §5.1 describes its loop
/// selection in these terms).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopStats {
    /// Total operations.
    pub ops: usize,
    /// Additions + subtractions + conversions (adder-class work).
    pub adds: usize,
    /// Multiplications + divisions (multiplier-class work).
    pub muls: usize,
    /// Loads.
    pub loads: usize,
    /// Stores.
    pub stores: usize,
    /// Number of loop-carried flow dependences (operand references with
    /// distance > 0).
    pub recurrences: usize,
    /// Maximum dependence distance appearing in the graph.
    pub max_distance: u32,
    /// Length (in operations) of the longest zero-distance dependence
    /// chain — the depth of the loop body.
    pub body_depth: usize,
}

impl Loop {
    /// Computes structural statistics for this loop.
    pub fn stats(&self) -> LoopStats {
        let mut recurrences = 0;
        let mut max_distance = 0;
        for (_, _, dist) in self.sched_edges() {
            if dist > 0 {
                recurrences += 1;
                max_distance = max_distance.max(dist);
            }
        }
        LoopStats {
            ops: self.ops().len(),
            adds: self.count_kind(OpKind::FpAdd)
                + self.count_kind(OpKind::FpSub)
                + self.count_kind(OpKind::Conv),
            muls: self.count_kind(OpKind::FpMul) + self.count_kind(OpKind::FpDiv),
            loads: self.count_kind(OpKind::Load),
            stores: self.count_kind(OpKind::Store),
            recurrences,
            max_distance,
            body_depth: self.body_depth(),
        }
    }

    /// Longest zero-distance dependence chain, in operations.
    fn body_depth(&self) -> usize {
        let n = self.ops().len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (from, to, dist) in self.sched_edges() {
            if dist == 0 {
                adj[from.index()].push(to.index());
                indeg[to.index()] += 1;
            }
        }
        // Topological longest path (the zero-distance subgraph is acyclic
        // for any validated loop).
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut depth = vec![1usize; n];
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &w in &adj[v] {
                depth[w] = depth[w].max(depth[v] + 1);
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use crate::{LoopBuilder, Weight};

    #[test]
    fn stats_of_chain() {
        let mut b = LoopBuilder::new("chain");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let m = b.mul("M", l.now(), l.now());
        let a = b.add("A", m.now(), l.now());
        b.store("S", z, 0, a.now());
        let lp = b.finish(Weight::default()).unwrap();
        let st = lp.stats();
        assert_eq!(st.ops, 4);
        assert_eq!(st.adds, 1);
        assert_eq!(st.muls, 1);
        assert_eq!(st.loads, 1);
        assert_eq!(st.stores, 1);
        assert_eq!(st.recurrences, 0);
        assert_eq!(st.body_depth, 4); // L -> M -> A -> S
    }

    #[test]
    fn stats_of_recurrence() {
        let mut b = LoopBuilder::new("rec");
        let x = b.array_in("x");
        let l = b.load("L", x, 0);
        let a = b.reserve_add("A");
        b.bind(a, [l.now(), a.prev(2)]);
        let lp = b.finish(Weight::default()).unwrap();
        let st = lp.stats();
        assert_eq!(st.recurrences, 1);
        assert_eq!(st.max_distance, 2);
        assert_eq!(st.body_depth, 2);
    }
}
