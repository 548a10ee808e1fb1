//! Structural validation of loop graphs.

use crate::graph::Loop;
use crate::op::{OpKind, ValueRef};
use std::fmt;

/// A structural invariant violated by a loop graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The loop has no operations.
    Empty,
    /// An operation has the wrong number of value operands.
    Arity {
        /// Offending op name.
        op: String,
        /// Expected operand count for its kind.
        expected: usize,
        /// Actual operand count.
        found: usize,
    },
    /// A memory operation lacks a memory reference, or a non-memory
    /// operation has one.
    MemRef {
        /// Offending op name.
        op: String,
    },
    /// An operand or dependence references an operation id out of range.
    DanglingOp {
        /// Offending op name (the referencing op).
        op: String,
    },
    /// An operand references an invariant or array id out of range.
    DanglingInput {
        /// Offending op name.
        op: String,
    },
    /// A store's value is consumed (stores produce no value).
    StoreConsumed {
        /// Consuming op name.
        op: String,
    },
    /// A value-producing operation has no consumer (dead code).
    DeadValue {
        /// Producing op name.
        op: String,
    },
    /// The graph contains a dependence cycle of total distance zero, which
    /// no schedule can satisfy.
    ZeroDistanceCycle {
        /// Name of one operation on the cycle.
        op: String,
    },
    /// An array is read although declared [`Output`](crate::ArrayRole), or
    /// written although declared [`Input`](crate::ArrayRole).
    ArrayRole {
        /// Offending op name.
        op: String,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Empty => write!(f, "loop has no operations"),
            ValidateError::Arity {
                op,
                expected,
                found,
            } => write!(f, "op `{op}` expects {expected} operands, found {found}"),
            ValidateError::MemRef { op } => {
                write!(f, "op `{op}` has a mismatched memory reference")
            }
            ValidateError::DanglingOp { op } => {
                write!(f, "op `{op}` references an out-of-range operation")
            }
            ValidateError::DanglingInput { op } => {
                write!(f, "op `{op}` references an out-of-range invariant or array")
            }
            ValidateError::StoreConsumed { op } => {
                write!(f, "op `{op}` consumes the (non-existent) value of a store")
            }
            ValidateError::DeadValue { op } => {
                write!(f, "op `{op}` produces a value nothing consumes")
            }
            ValidateError::ZeroDistanceCycle { op } => {
                write!(f, "zero-distance dependence cycle through op `{op}`")
            }
            ValidateError::ArrayRole { op } => {
                write!(f, "op `{op}` violates an array's declared role")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Checks every structural invariant of `l`.
pub(crate) fn validate(l: &Loop) -> Result<(), ValidateError> {
    if l.ops.is_empty() {
        return Err(ValidateError::Empty);
    }

    let n = l.ops.len();
    // Which ops some operand reads, for the dead-value check below.
    let mut consumed = vec![false; n];
    for op in &l.ops {
        if op.inputs.len() != op.kind.arity() {
            return Err(ValidateError::Arity {
                op: op.name.to_string(),
                expected: op.kind.arity(),
                found: op.inputs.len(),
            });
        }
        if op.kind.is_memory() != op.mem.is_some() {
            return Err(ValidateError::MemRef {
                op: op.name.to_string(),
            });
        }
        for input in &op.inputs {
            match *input {
                ValueRef::Op { id, .. } => {
                    if id.index() >= n {
                        return Err(ValidateError::DanglingOp {
                            op: op.name.to_string(),
                        });
                    }
                    if l.ops[id.index()].kind == OpKind::Store {
                        return Err(ValidateError::StoreConsumed {
                            op: op.name.to_string(),
                        });
                    }
                    consumed[id.index()] = true;
                }
                ValueRef::Inv(inv) => {
                    if inv.index() >= l.invariants.len() {
                        return Err(ValidateError::DanglingInput {
                            op: op.name.to_string(),
                        });
                    }
                }
                ValueRef::Const(_) => {}
            }
        }
        if let Some(mem) = &op.mem {
            if mem.array.index() >= l.arrays.len() {
                return Err(ValidateError::DanglingInput {
                    op: op.name.to_string(),
                });
            }
            let role = l.arrays[mem.array.index()].role;
            let ok = match op.kind {
                OpKind::Load => matches!(
                    role,
                    crate::graph::ArrayRole::Input | crate::graph::ArrayRole::InOut
                ),
                OpKind::Store => matches!(
                    role,
                    crate::graph::ArrayRole::Output | crate::graph::ArrayRole::InOut
                ),
                _ => false,
            };
            if !ok {
                return Err(ValidateError::ArrayRole {
                    op: op.name.to_string(),
                });
            }
        }
    }

    for dep in &l.deps {
        if dep.from.index() >= n || dep.to.index() >= n {
            return Err(ValidateError::DanglingOp {
                op: format!("dep {}->{}", dep.from, dep.to),
            });
        }
    }

    // Dead values: every value-producing op must have at least one consumer.
    if let Some(op) = l
        .ops
        .iter()
        .zip(&consumed)
        .find_map(|(op, &used)| (op.kind.produces_value() && !used).then_some(op))
    {
        return Err(ValidateError::DeadValue {
            op: op.name.to_string(),
        });
    }

    // Zero-distance cycles: DFS over edges with dist == 0.
    if let Some(idx) = find_zero_distance_cycle(l) {
        return Err(ValidateError::ZeroDistanceCycle {
            op: l.ops[idx].name.to_string(),
        });
    }

    Ok(())
}

/// Returns the index of an op on a zero-distance cycle, if one exists.
///
/// The zero-distance edges go into a CSR by source whose buckets keep
/// [`Loop::sched_edges`] order, so the search visits successors in that
/// order and names the op it meets first.
fn find_zero_distance_cycle(l: &Loop) -> Option<usize> {
    let n = l.ops.len();
    // Every zero-distance edge `(from, to)`, in `sched_edges` order.
    let edges = || {
        let flow = l.ops.iter().enumerate().flat_map(|(to, op)| {
            op.inputs().iter().filter_map(move |input| match *input {
                ValueRef::Op { id, dist: 0 } => Some((id.index(), to)),
                _ => None,
            })
        });
        let deps = l
            .deps
            .iter()
            .filter(|dep| dep.dist == 0)
            .map(|dep| (dep.from.index(), dep.to.index()));
        flow.chain(deps)
    };

    let mut off = vec![0u32; n + 1];
    for (from, _) in edges() {
        off[from + 1] += 1;
    }
    for v in 0..n {
        off[v + 1] += off[v];
    }
    let mut adj = vec![0u32; off[n] as usize];
    let mut cursor = off[..n].to_vec();
    for (from, to) in edges() {
        adj[cursor[from] as usize] = to as u32;
        cursor[from] += 1;
    }
    let succs = |v: usize| &adj[off[v] as usize..off[v + 1] as usize];

    // Iterative three-color DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut stack = Vec::new();
    for root in 0..n {
        if color[root] != Color::White {
            continue;
        }
        stack.push((root, 0usize));
        color[root] = Color::Gray;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if let Some(&w) = succs(v).get(*i) {
                let w = w as usize;
                *i += 1;
                match color[w] {
                    Color::White => {
                        color[w] = Color::Gray;
                        stack.push((w, 0));
                    }
                    Color::Gray => return Some(w),
                    Color::Black => {}
                }
            } else {
                color[v] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::{BuildError, LoopBuilder, ValidateError, ValueRef, Weight};

    #[test]
    fn empty_loop_rejected() {
        let b = LoopBuilder::new("e");
        assert!(matches!(
            b.finish(Weight::default()),
            Err(BuildError::Invalid(ValidateError::Empty))
        ));
    }

    #[test]
    fn dead_value_rejected() {
        let mut b = LoopBuilder::new("dead");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let _dead = b.add("D", l.now(), ValueRef::Const(1.0));
        // store l directly; D's value is dead (it does consume l though).
        b.store("S", z, 0, l.now());
        assert!(matches!(
            b.finish(Weight::default()),
            Err(BuildError::Invalid(ValidateError::DeadValue { .. }))
        ));
    }

    #[test]
    fn zero_distance_cycle_rejected() {
        let mut b = LoopBuilder::new("cyc");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let a = b.reserve_add("A");
        let m = b.mul("M", a.now(), l.now());
        b.bind(a, [m.now(), l.now()]); // a -> m -> a, both dist 0
        b.store("S", z, 0, a.now());
        assert!(matches!(
            b.finish(Weight::default()),
            Err(BuildError::Invalid(ValidateError::ZeroDistanceCycle { .. }))
        ));
    }

    #[test]
    fn positive_distance_cycle_accepted() {
        let mut b = LoopBuilder::new("rec");
        let x = b.array_in("x");
        let l = b.load("L", x, 0);
        let a = b.reserve_add("A");
        b.bind(a, [l.now(), a.prev(1)]);
        assert!(b.finish(Weight::default()).is_ok());
    }

    #[test]
    fn store_value_cannot_be_consumed() {
        let mut b = LoopBuilder::new("sv");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let s = b.store("S", z, 0, l.now());
        let a = b.add("A", s.now(), ValueRef::Const(0.0));
        b.store("S2", z, 1, a.now());
        assert!(matches!(
            b.finish(Weight::default()),
            Err(BuildError::Invalid(ValidateError::StoreConsumed { .. }))
        ));
    }

    /// Among several duplicated names, the error names the first op whose
    /// name an earlier op already took: `Y` (op 2), not `X`, although `X`
    /// is the first name that repeats.
    #[test]
    fn duplicate_op_name_names_the_first_repeat() {
        let mut b = LoopBuilder::new("dups");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l0 = b.load("X", x, 0);
        let l1 = b.load("Y", x, 1);
        let l2 = b.load("Y", x, 2);
        let l3 = b.load("X", x, 3);
        let a = b.add("A", l0.now(), l1.now());
        let c = b.add("C", l2.now(), l3.now());
        let d = b.add("D", a.now(), c.now());
        b.store("S", z, 0, d.now());
        assert_eq!(
            b.finish(Weight::default()),
            Err(BuildError::DuplicateOpName("Y".into()))
        );
    }

    /// Duplicate invariant and array names name their first repeat too.
    #[test]
    fn duplicate_invariant_and_array_names_name_the_first_repeat() {
        let mut b = LoopBuilder::new("dups");
        for name in ["p", "q", "q", "p"] {
            b.invariant(name, 1.0);
        }
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        b.store("S", z, 0, l.now());
        assert_eq!(
            b.finish(Weight::default()),
            Err(BuildError::DuplicateInvariantName("q".into()))
        );

        let mut b = LoopBuilder::new("dups");
        let x = b.array_in("x");
        b.array_in("u");
        b.array_out("u");
        let z = b.array_out("x");
        let l = b.load("L", x, 0);
        b.store("S", z, 0, l.now());
        assert_eq!(
            b.finish(Weight::default()),
            Err(BuildError::DuplicateArrayName("u".into()))
        );
    }

    /// With several unconsumed values, the error names the first in op
    /// order.
    #[test]
    fn dead_value_names_the_first_unconsumed_op() {
        let mut b = LoopBuilder::new("dead2");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let m = b.load("M", x, 1);
        b.add("D2", m.now(), l.now());
        b.add("D1", l.now(), ValueRef::Const(1.0));
        b.store("S", z, 0, l.now());
        assert_eq!(
            b.finish(Weight::default()),
            Err(BuildError::Invalid(ValidateError::DeadValue {
                op: "D2".into()
            }))
        );
    }

    /// With several zero-distance cycles (two through flow edges, one
    /// through a memory dependence), the error names the op at which the
    /// depth-first search over the edges in `sched_edges` order first
    /// meets a grey op.
    #[test]
    fn zero_distance_cycle_names_the_op_the_search_meets_first() {
        let mut b = LoopBuilder::new("cycles");
        let x = b.array_inout("x");
        let z = b.array_out("z");
        let l = b.load("L", x, -1);
        let c = b.reserve_add("C");
        let d = b.add("D", c.now(), l.now());
        b.bind(c, [d.now(), ValueRef::Const(1.0)]);
        let a = b.reserve_mul("A");
        let e = b.mul("E", a.now(), ValueRef::Const(2.0));
        b.bind(a, [e.now(), l.now()]);
        let s = b.store("S", x, 0, a.now());
        b.store("T", z, 0, d.now());
        // S -> L at distance 0 closes L -> A -> S -> L.
        b.mem_dep(s, l, 0);
        assert_eq!(
            b.finish(Weight::default()),
            Err(BuildError::Invalid(ValidateError::ZeroDistanceCycle {
                op: "D".into()
            }))
        );
    }

    /// Operands past the two an op holds inline are still counted: a
    /// `bind` with three fails as an arity mismatch naming the true
    /// count, and an op bound twice keeps only the second binding.
    #[test]
    fn binding_three_operands_is_an_arity_error() {
        let mut b = LoopBuilder::new("wide");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let a = b.reserve_add("A");
        b.bind(a, [l.now(), l.now(), ValueRef::Const(1.0)]);
        b.store("S", z, 0, a.now());
        assert_eq!(
            b.finish(Weight::default()),
            Err(BuildError::Invalid(ValidateError::Arity {
                op: "A".into(),
                expected: 2,
                found: 3
            }))
        );

        let mut b = LoopBuilder::new("rebound");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let a = b.reserve_add("A");
        b.bind(a, [l.now(), l.now(), l.now()]);
        b.bind(a, [l.now(), ValueRef::Const(1.0)]);
        b.store("S", z, 0, a.now());
        let lp = b.finish(Weight::default()).unwrap();
        assert_eq!(lp.op(a).inputs(), [l.now(), ValueRef::Const(1.0)]);
    }

    #[test]
    fn array_roles_enforced() {
        let mut b = LoopBuilder::new("role");
        let x = b.array_in("x");
        let l = b.load("L", x, 0);
        // Store into an *input* array: role violation.
        b.store("S", x, 0, l.now());
        assert!(matches!(
            b.finish(Weight::default()),
            Err(BuildError::Invalid(ValidateError::ArrayRole { .. }))
        ));
    }
}
