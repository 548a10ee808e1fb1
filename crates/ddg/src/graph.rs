//! The [`Loop`] graph type and its accessors.

use crate::op::{ArrayId, InvId, Op, OpId, OpKind, ValueRef};
use std::fmt;
use std::sync::Arc;

/// An affine memory reference: the address accessed by iteration `i` is
/// `array[i + offset]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// The accessed array.
    pub array: ArrayId,
    /// Constant offset relative to the induction variable.
    pub offset: i64,
}

/// Role of an array with respect to the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayRole {
    /// Only read by the loop.
    Input,
    /// Only written by the loop.
    Output,
    /// Both read and written (e.g. in-place updates, memory recurrences).
    InOut,
}

/// Declaration of an array referenced by the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    pub(crate) name: Arc<str>,
    pub(crate) role: ArrayRole,
}

impl ArrayDecl {
    /// The array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared role.
    pub fn role(&self) -> ArrayRole {
        self.role
    }
}

/// A loop-invariant input value (held in the non-rotating general register
/// file; see §2 of the paper — invariants are excluded from the pressure
/// accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct Invariant {
    pub(crate) name: Arc<str>,
    pub(crate) value: f64,
}

impl Invariant {
    /// The invariant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The concrete value used by the reference executor.
    pub fn value(&self) -> f64 {
        self.value
    }
}

/// Kind of an explicit (non-flow) dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Memory-ordering dependence (store→load, store→store, load→store).
    Mem,
    /// Extra serialization edge (used by tests and by the spiller to pin
    /// reload placement).
    Order,
}

/// An explicit dependence edge. Flow dependences are implicit in
/// [`Op::inputs`](crate::Op::inputs); `Dep` carries the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Source operation.
    pub from: OpId,
    /// Destination operation.
    pub to: OpId,
    /// Edge kind.
    pub kind: DepKind,
    /// Dependence distance in iterations.
    pub dist: u32,
}

/// The consumer lists of every op of a loop in compressed sparse row
/// form (see [`Loop::consumers`]): two flat arrays, indexed by op index,
/// where `consumers[v]` is the slice of op `v`'s `(consumer, dist)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Consumers {
    /// `off[v]..off[v + 1]` is op `v`'s range of `list`.
    off: Vec<u32>,
    list: Vec<(OpId, u32)>,
}

impl Consumers {
    /// The number of ops.
    pub fn len(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// Whether there are no ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The consumer lists in op order.
    pub fn iter(&self) -> impl Iterator<Item = &[(OpId, u32)]> {
        (0..self.len()).map(|v| &self[v])
    }
}

impl std::ops::Index<usize> for Consumers {
    type Output = [(OpId, u32)];

    /// The `(consumer, dist)` pairs of the op with index `v`.
    fn index(&self, v: usize) -> &[(OpId, u32)] {
        &self.list[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

/// Execution weight of a loop, used for the dynamic (cycle-weighted)
/// figures. The paper measured these with the CONVEX CXpa profiler; we carry
/// synthetic but deterministic weights (see `ncdrf-corpus`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Weight {
    /// Iterations executed per invocation of the loop.
    pub trip: u64,
    /// Number of invocations.
    pub calls: u64,
}

impl Weight {
    /// Creates a weight.
    pub fn new(trip: u64, calls: u64) -> Self {
        Weight { trip, calls }
    }

    /// Total iterations executed (`trip * calls`).
    pub fn iterations(self) -> u64 {
        self.trip.saturating_mul(self.calls)
    }
}

impl Default for Weight {
    fn default() -> Self {
        Weight { trip: 1, calls: 1 }
    }
}

/// A single-basic-block innermost loop expressed as a data-dependence graph.
///
/// Construct loops with [`LoopBuilder`](crate::LoopBuilder); a successfully
/// built `Loop` is always structurally valid (see
/// [`ValidateError`](crate::ValidateError) for the invariants).
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    pub(crate) name: Arc<str>,
    pub(crate) ops: Vec<Op>,
    pub(crate) deps: Vec<Dep>,
    pub(crate) invariants: Vec<Invariant>,
    pub(crate) arrays: Vec<ArrayDecl>,
    pub(crate) weight: Weight,
}

impl Loop {
    /// The loop name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All operations, indexable by [`OpId::index`](crate::OpId::index).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The operation named by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this loop.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// Explicit (memory / ordering) dependence edges.
    pub fn deps(&self) -> &[Dep] {
        &self.deps
    }

    /// Loop-invariant inputs.
    pub fn invariants(&self) -> &[Invariant] {
        &self.invariants
    }

    /// Arrays referenced by the loop.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Execution weight.
    pub fn weight(&self) -> Weight {
        self.weight
    }

    /// Replaces the execution weight, returning the modified loop.
    pub fn with_weight(mut self, weight: Weight) -> Self {
        self.weight = weight;
        self
    }

    /// Iterator over `(OpId, &Op)` pairs.
    pub fn iter_ops(&self) -> impl Iterator<Item = (OpId, &Op)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| (OpId::from_index(i), op))
    }

    /// All dependence edges relevant for scheduling, flow edges included:
    /// `(from, to, dist)` triples. The scheduling constraint for each triple
    /// is `start(to) >= start(from) + latency(from) - II * dist`.
    pub fn sched_edges(&self) -> Vec<(OpId, OpId, u32)> {
        let mut edges = Vec::new();
        self.sched_edges_into(&mut edges);
        edges
    }

    /// [`Loop::sched_edges`] into a caller-owned buffer, so hot paths
    /// (the spill descent reschedules after every spill step) reuse one
    /// allocation across calls. The buffer is cleared first; edge order
    /// is identical to [`Loop::sched_edges`].
    pub fn sched_edges_into(&self, out: &mut Vec<(OpId, OpId, u32)>) {
        out.clear();
        for (id, op) in self.iter_ops() {
            for input in &op.inputs {
                if let ValueRef::Op { id: from, dist } = *input {
                    out.push((from, id, dist));
                }
            }
        }
        for dep in &self.deps {
            out.push((dep.from, dep.to, dep.dist));
        }
    }

    /// The consumers of each op's value: for op `p`, `consumers[p]` lists
    /// `(consumer, dist)` pairs (one entry per *operand slot* that reads
    /// `p`, so an op reading `p` twice appears twice), in consumer order
    /// and, within a consumer, in operand order.
    pub fn consumers(&self) -> Consumers {
        let mut cons = Consumers::default();
        self.consumers_into(&mut cons);
        cons
    }

    /// [`Loop::consumers`] into a caller-owned buffer, reusing its two
    /// arrays, so repeated calls on same-shaped loops allocate nothing.
    /// Contents are identical to [`Loop::consumers`].
    pub fn consumers_into(&self, out: &mut Consumers) {
        let n = self.ops.len();
        let off = &mut out.off;
        off.clear();
        off.resize(n + 1, 0);
        for op in &self.ops {
            for input in &op.inputs {
                if let ValueRef::Op { id: from, .. } = *input {
                    off[from.index() + 1] += 1;
                }
            }
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        out.list.clear();
        out.list.resize(off[n] as usize, (OpId(0), 0));
        // `off[v]` is v's write cursor during the fill and ends at v's
        // end, the start of v + 1; the shift restores the starts.
        for (id, op) in self.iter_ops() {
            for input in &op.inputs {
                if let ValueRef::Op { id: from, dist } = *input {
                    let at = &mut off[from.index()];
                    out.list[*at as usize] = (id, dist);
                    *at += 1;
                }
            }
        }
        off.copy_within(0..n, 1);
        off[0] = 0;
    }

    /// Register-operand reads per iteration: the [`ValueRef::Op`]
    /// operands of every op, one per consuming operand slot (the total
    /// length of [`Loop::consumers`]), counted without allocating.
    pub fn operand_reads(&self) -> u64 {
        self.ops
            .iter()
            .flat_map(|op| &op.inputs)
            .filter(|input| matches!(input, ValueRef::Op { .. }))
            .count() as u64
    }

    /// Whether some op reads a register operand produced in an earlier
    /// iteration (a [`ValueRef::Op`] at distance > 0). Without one, every
    /// value dies in the iteration that produced it, so no lifetime
    /// stretches with the II.
    pub fn has_carried_operand(&self) -> bool {
        self.ops
            .iter()
            .flat_map(|op| &op.inputs)
            .any(|input| matches!(input, ValueRef::Op { dist, .. } if *dist > 0))
    }

    /// Count of operations of the given kind.
    pub fn count_kind(&self, kind: OpKind) -> usize {
        self.ops.iter().filter(|op| op.kind == kind).count()
    }

    /// Number of memory operations (loads + stores) per iteration.
    pub fn memory_ops(&self) -> usize {
        self.ops.iter().filter(|op| op.kind.is_memory()).count()
    }

    /// Looks up an operation by name.
    pub fn find_op(&self, name: &str) -> Option<OpId> {
        self.iter_ops()
            .find(|(_, op)| &*op.name == name)
            .map(|(id, _)| id)
    }

    /// Looks up an invariant by name.
    pub fn find_invariant(&self, name: &str) -> Option<InvId> {
        self.invariants
            .iter()
            .position(|inv| &*inv.name == name)
            .map(|i| InvId(i as u32))
    }

    /// Looks up an array by name.
    pub fn find_array(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| &*a.name == name)
            .map(|i| ArrayId(i as u32))
    }
}

impl fmt::Display for Loop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "loop {} ({} ops):", self.name, self.ops.len())?;
        for (id, op) in self.iter_ops() {
            write!(f, "  {} = {} {}", op.name, op.kind, id)?;
            for input in &op.inputs {
                match input {
                    ValueRef::Op { id, dist } if *dist == 0 => {
                        write!(f, " {}", self.ops[id.index()].name)?
                    }
                    ValueRef::Op { id, dist } => {
                        write!(f, " {}@-{}", self.ops[id.index()].name, dist)?
                    }
                    ValueRef::Inv(inv) => write!(f, " ${}", self.invariants[inv.index()].name)?,
                    ValueRef::Const(c) => write!(f, " #{c}")?,
                }
            }
            if let Some(mem) = &op.mem {
                let arr = &self.arrays[mem.array.index()];
                write!(f, " [{}[i{:+}]]", arr.name, mem.offset)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}
