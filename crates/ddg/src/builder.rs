//! Incremental construction of [`Loop`]s.

use crate::graph::{ArrayDecl, ArrayRole, Dep, DepKind, Invariant, Loop, MemRef, Weight};
use crate::op::{ArrayId, InvId, Op, OpId, OpKind, ValueRef};
use crate::validate::{validate, ValidateError};
use std::collections::HashSet;
use std::fmt;

/// Error produced while building or finishing a loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The finished graph violated a structural invariant.
    Invalid(ValidateError),
    /// Two operations share a name.
    DuplicateOpName(String),
    /// Two invariants share a name.
    DuplicateInvariantName(String),
    /// Two arrays share a name.
    DuplicateArrayName(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Invalid(e) => write!(f, "invalid loop graph: {e}"),
            BuildError::DuplicateOpName(n) => write!(f, "duplicate operation name `{n}`"),
            BuildError::DuplicateInvariantName(n) => {
                write!(f, "duplicate invariant name `{n}`")
            }
            BuildError::DuplicateArrayName(n) => write!(f, "duplicate array name `{n}`"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ValidateError> for BuildError {
    fn from(e: ValidateError) -> Self {
        BuildError::Invalid(e)
    }
}

/// Builder for [`Loop`]s.
///
/// Operations are appended with the typed helpers ([`LoopBuilder::add`],
/// [`LoopBuilder::mul`], [`LoopBuilder::load`], ...); each returns the
/// [`OpId`] of the new operation, which converts into operand references via
/// [`OpId::now`] and [`OpId::prev`]. [`LoopBuilder::finish`] validates the
/// graph (see [`ValidateError`]) and produces the immutable [`Loop`].
///
/// # Example
///
/// A sum reduction `s += x[i]` (a distance-1 recurrence):
///
/// ```
/// use ncdrf_ddg::{LoopBuilder, Weight};
///
/// # fn main() -> Result<(), ncdrf_ddg::BuildError> {
/// let mut b = LoopBuilder::new("sum");
/// let x = b.array_in("x");
/// let l = b.load("L", x, 0);
/// let s = b.reserve_add("S");
/// b.bind(s, [l.now(), s.prev(1)]);
/// let l = b.finish(Weight::new(64, 1))?;
/// assert_eq!(l.ops().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LoopBuilder {
    name: String,
    ops: Vec<Op>,
    deps: Vec<Dep>,
    invariants: Vec<Invariant>,
    arrays: Vec<ArrayDecl>,
    /// Explicit edges [`LoopBuilder::finish`] appends after `deps`: the
    /// parent's, for a builder made by [`LoopBuilder::extending`].
    inherited_deps: Vec<Dep>,
}

impl LoopBuilder {
    /// Creates an empty builder for a loop called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        LoopBuilder {
            name: name.into(),
            ops: Vec::new(),
            deps: Vec::new(),
            invariants: Vec::new(),
            arrays: Vec::new(),
            inherited_deps: Vec::new(),
        }
    }

    /// A builder that extends `parent`: it starts from the parent's name,
    /// ops, invariants and arrays with their ids, so appended ops and
    /// arrays take the next ids and [`LoopBuilder::bind`] re-binds a
    /// parent op's operands. Explicit edges added to it come before the
    /// parent's, which [`LoopBuilder::finish`] appends: the order a
    /// rebuild that re-adds the parent's edges last would give. This is
    /// how the spiller appends spill code without rebuilding the loop.
    pub fn extending(parent: &Loop) -> Self {
        LoopBuilder {
            name: parent.name.clone(),
            ops: parent.ops.clone(),
            deps: Vec::new(),
            invariants: parent.invariants.clone(),
            arrays: parent.arrays.clone(),
            inherited_deps: parent.deps.clone(),
        }
    }

    /// Declares a loop-invariant input with a concrete value (used by the
    /// reference executor).
    pub fn invariant(&mut self, name: impl Into<String>, value: f64) -> ValueRef {
        let id = InvId(self.invariants.len() as u32);
        self.invariants.push(Invariant {
            name: name.into(),
            value,
        });
        ValueRef::Inv(id)
    }

    /// Declares an input array.
    pub fn array_in(&mut self, name: impl Into<String>) -> ArrayId {
        self.push_array(name.into(), ArrayRole::Input)
    }

    /// Declares an output array.
    pub fn array_out(&mut self, name: impl Into<String>) -> ArrayId {
        self.push_array(name.into(), ArrayRole::Output)
    }

    /// Declares an array that is both read and written.
    pub fn array_inout(&mut self, name: impl Into<String>) -> ArrayId {
        self.push_array(name.into(), ArrayRole::InOut)
    }

    fn push_array(&mut self, name: String, role: ArrayRole) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl { name, role });
        id
    }

    fn push_op(
        &mut self,
        kind: OpKind,
        name: impl Into<String>,
        inputs: Vec<ValueRef>,
        mem: Option<MemRef>,
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Op {
            kind,
            name: name.into(),
            inputs,
            mem,
            init: 0.0,
        });
        id
    }

    /// Appends a floating-point addition.
    pub fn add(&mut self, name: impl Into<String>, a: ValueRef, b: ValueRef) -> OpId {
        self.push_op(OpKind::FpAdd, name, vec![a, b], None)
    }

    /// Appends a floating-point subtraction.
    pub fn sub(&mut self, name: impl Into<String>, a: ValueRef, b: ValueRef) -> OpId {
        self.push_op(OpKind::FpSub, name, vec![a, b], None)
    }

    /// Appends a floating-point multiplication.
    pub fn mul(&mut self, name: impl Into<String>, a: ValueRef, b: ValueRef) -> OpId {
        self.push_op(OpKind::FpMul, name, vec![a, b], None)
    }

    /// Appends a floating-point division.
    pub fn div(&mut self, name: impl Into<String>, a: ValueRef, b: ValueRef) -> OpId {
        self.push_op(OpKind::FpDiv, name, vec![a, b], None)
    }

    /// Appends a type conversion (executes on an adder).
    pub fn conv(&mut self, name: impl Into<String>, a: ValueRef) -> OpId {
        self.push_op(OpKind::Conv, name, vec![a], None)
    }

    /// Appends a load of `array[i + offset]`.
    pub fn load(&mut self, name: impl Into<String>, array: ArrayId, offset: i64) -> OpId {
        self.push_op(
            OpKind::Load,
            name,
            Vec::new(),
            Some(MemRef { array, offset }),
        )
    }

    /// Appends a store of `value` into `array[i + offset]`.
    pub fn store(
        &mut self,
        name: impl Into<String>,
        array: ArrayId,
        offset: i64,
        value: ValueRef,
    ) -> OpId {
        self.push_op(
            OpKind::Store,
            name,
            vec![value],
            Some(MemRef { array, offset }),
        )
    }

    /// Reserves an addition whose operands will be supplied later with
    /// [`LoopBuilder::bind`]. This is how recurrences that reference their
    /// own output (`s = s + x`) are built.
    pub fn reserve_add(&mut self, name: impl Into<String>) -> OpId {
        self.push_op(OpKind::FpAdd, name, Vec::new(), None)
    }

    /// Reserves a subtraction for later binding (see
    /// [`LoopBuilder::reserve_add`]).
    pub fn reserve_sub(&mut self, name: impl Into<String>) -> OpId {
        self.push_op(OpKind::FpSub, name, Vec::new(), None)
    }

    /// Reserves a multiplication for later binding (see
    /// [`LoopBuilder::reserve_add`]).
    pub fn reserve_mul(&mut self, name: impl Into<String>) -> OpId {
        self.push_op(OpKind::FpMul, name, Vec::new(), None)
    }

    /// Reserves a division for later binding (see
    /// [`LoopBuilder::reserve_add`]).
    pub fn reserve_div(&mut self, name: impl Into<String>) -> OpId {
        self.push_op(OpKind::FpDiv, name, Vec::new(), None)
    }

    /// Supplies the operands of a reserved operation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn bind<I: IntoIterator<Item = ValueRef>>(&mut self, id: OpId, inputs: I) {
        self.ops[id.index()].inputs = inputs.into_iter().collect();
    }

    /// Sets the seed value observed by cross-iteration consumers of `id`
    /// before iteration 0 (e.g. the initial value of a reduction).
    pub fn set_init(&mut self, id: OpId, init: f64) {
        self.ops[id.index()].init = init;
    }

    /// Adds an explicit memory-ordering dependence edge.
    pub fn mem_dep(&mut self, from: OpId, to: OpId, dist: u32) {
        self.deps.push(Dep {
            from,
            to,
            kind: DepKind::Mem,
            dist,
        });
    }

    /// Adds an explicit serialization edge.
    pub fn order_dep(&mut self, from: OpId, to: OpId, dist: u32) {
        self.deps.push(Dep {
            from,
            to,
            kind: DepKind::Order,
            dist,
        });
    }

    /// Number of operations appended so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validates and finishes the loop.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Invalid`] if the graph violates a structural
    /// invariant (unconsumed values, zero-distance cycles, arity mismatches,
    /// ...), or a duplicate-name error if names collide.
    pub fn finish(self, weight: Weight) -> Result<Loop, BuildError> {
        if let Some(name) = first_repeat(self.ops.iter().map(|op| op.name.as_str())) {
            return Err(BuildError::DuplicateOpName(name.to_owned()));
        }
        if let Some(name) = first_repeat(self.invariants.iter().map(|inv| inv.name.as_str())) {
            return Err(BuildError::DuplicateInvariantName(name.to_owned()));
        }
        if let Some(name) = first_repeat(self.arrays.iter().map(|arr| arr.name.as_str())) {
            return Err(BuildError::DuplicateArrayName(name.to_owned()));
        }
        let mut deps = self.deps;
        deps.extend(self.inherited_deps);
        let mut l = Loop {
            name: self.name,
            ops: self.ops,
            deps,
            invariants: self.invariants,
            arrays: self.arrays,
            weight,
        };
        // No spare capacity: a spill descent keeps every state's loop.
        l.ops.shrink_to_fit();
        l.deps.shrink_to_fit();
        l.arrays.shrink_to_fit();
        validate(&l)?;
        Ok(l)
    }
}

/// The first name that an earlier name already took, found with one
/// hash set.
fn first_repeat<'a>(names: impl ExactSizeIterator<Item = &'a str>) -> Option<&'a str> {
    let mut seen = HashSet::with_capacity(names.len());
    names.into_iter().find(|&name| !seen.insert(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_loop() {
        let mut b = LoopBuilder::new("t");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let a = b.add("A", l.now(), ValueRef::Const(1.0));
        b.store("S", z, 0, a.now());
        let lp = b.finish(Weight::new(10, 2)).unwrap();
        assert_eq!(lp.ops().len(), 3);
        assert_eq!(lp.weight().iterations(), 20);
        assert_eq!(lp.find_op("A"), Some(OpId::from_index(1)));
    }

    #[test]
    fn reduction_via_reserve_bind() {
        let mut b = LoopBuilder::new("sum");
        let x = b.array_in("x");
        let l = b.load("L", x, 0);
        let s = b.reserve_add("S");
        b.bind(s, [l.now(), s.prev(1)]);
        b.set_init(s, 0.0);
        let lp = b.finish(Weight::default()).unwrap();
        assert_eq!(lp.op(s).inputs().len(), 2);
        assert_eq!(lp.op(s).inputs()[1], s.prev(1));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = LoopBuilder::new("dup");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let l2 = b.load("L", x, 1);
        let a = b.add("A", l.now(), l2.now());
        b.store("S", z, 0, a.now());
        assert_eq!(
            b.finish(Weight::default()),
            Err(BuildError::DuplicateOpName("L".into()))
        );
    }

    #[test]
    fn display_formats_ops() {
        let mut b = LoopBuilder::new("t");
        let c = b.invariant("c", 3.0);
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let a = b.add("A", l.now(), c);
        b.store("S", z, 0, a.now());
        let lp = b.finish(Weight::default()).unwrap();
        let s = lp.to_string();
        assert!(s.contains("loop t"));
        assert!(s.contains("$c"));
    }
}
