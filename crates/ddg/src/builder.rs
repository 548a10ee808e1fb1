//! Incremental construction of [`Loop`]s.

use crate::graph::{ArrayDecl, ArrayRole, Dep, DepKind, Invariant, Loop, MemRef, Weight};
use crate::op::{ArrayId, InvId, Op, OpId, OpKind, Operands, ValueRef};
use crate::validate::{validate, ValidateError};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

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
    name: Arc<str>,
    ops: Vec<Op>,
    deps: Vec<Dep>,
    invariants: Vec<Invariant>,
    arrays: Vec<ArrayDecl>,
    /// Explicit edges [`LoopBuilder::finish`] appends after `deps`: the
    /// parent's, for a builder made by [`LoopBuilder::extending`].
    inherited_deps: Vec<Dep>,
    /// How many of `ops`, `invariants` and `arrays` a parent loop gave
    /// (zero for [`LoopBuilder::new`]): their names are already unique.
    inherited_ops: usize,
    inherited_invariants: usize,
    inherited_arrays: usize,
}

impl LoopBuilder {
    /// Creates an empty builder for a loop called `name`.
    pub fn new(name: impl AsRef<str>) -> Self {
        LoopBuilder {
            name: name.as_ref().into(),
            ops: Vec::new(),
            deps: Vec::new(),
            invariants: Vec::new(),
            arrays: Vec::new(),
            inherited_deps: Vec::new(),
            inherited_ops: 0,
            inherited_invariants: 0,
            inherited_arrays: 0,
        }
    }

    /// A builder that extends `parent`: it starts from the parent's name,
    /// ops, invariants and arrays with their ids, so appended ops and
    /// arrays take the next ids and [`LoopBuilder::bind`] re-binds a
    /// parent op's operands. Explicit edges added to it come before the
    /// parent's, which [`LoopBuilder::finish`] appends: the order a
    /// rebuild that re-adds the parent's edges last would give. This is
    /// how the spiller appends spill code without rebuilding the loop.
    ///
    /// Names are shared and operands inline, so the parent's ops,
    /// invariants and arrays are copied without allocating per entry, and
    /// [`LoopBuilder::finish`] checks only the appended names against the
    /// earlier ones (the parent's are already unique).
    pub fn extending(parent: &Loop) -> Self {
        LoopBuilder {
            name: Arc::clone(&parent.name),
            ops: parent.ops.clone(),
            deps: Vec::new(),
            invariants: parent.invariants.clone(),
            arrays: parent.arrays.clone(),
            inherited_deps: parent.deps.clone(),
            inherited_ops: parent.ops.len(),
            inherited_invariants: parent.invariants.len(),
            inherited_arrays: parent.arrays.len(),
        }
    }

    /// Declares a loop-invariant input with a concrete value (used by the
    /// reference executor).
    pub fn invariant(&mut self, name: impl AsRef<str>, value: f64) -> ValueRef {
        let id = InvId(self.invariants.len() as u32);
        self.invariants.push(Invariant {
            name: name.as_ref().into(),
            value,
        });
        ValueRef::Inv(id)
    }

    /// Declares an input array.
    pub fn array_in(&mut self, name: impl AsRef<str>) -> ArrayId {
        self.push_array(name.as_ref().into(), ArrayRole::Input)
    }

    /// Declares an output array.
    pub fn array_out(&mut self, name: impl AsRef<str>) -> ArrayId {
        self.push_array(name.as_ref().into(), ArrayRole::Output)
    }

    /// Declares an array that is both read and written.
    pub fn array_inout(&mut self, name: impl AsRef<str>) -> ArrayId {
        self.push_array(name.as_ref().into(), ArrayRole::InOut)
    }

    fn push_array(&mut self, name: Arc<str>, role: ArrayRole) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl { name, role });
        id
    }

    fn push_op(
        &mut self,
        kind: OpKind,
        name: impl AsRef<str>,
        inputs: Operands,
        mem: Option<MemRef>,
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Op {
            kind,
            name: name.as_ref().into(),
            inputs,
            mem,
            init: 0.0,
        });
        id
    }

    /// Appends a floating-point addition.
    pub fn add(&mut self, name: impl AsRef<str>, a: ValueRef, b: ValueRef) -> OpId {
        self.push_op(OpKind::FpAdd, name, Operands::two(a, b), None)
    }

    /// Appends a floating-point subtraction.
    pub fn sub(&mut self, name: impl AsRef<str>, a: ValueRef, b: ValueRef) -> OpId {
        self.push_op(OpKind::FpSub, name, Operands::two(a, b), None)
    }

    /// Appends a floating-point multiplication.
    pub fn mul(&mut self, name: impl AsRef<str>, a: ValueRef, b: ValueRef) -> OpId {
        self.push_op(OpKind::FpMul, name, Operands::two(a, b), None)
    }

    /// Appends a floating-point division.
    pub fn div(&mut self, name: impl AsRef<str>, a: ValueRef, b: ValueRef) -> OpId {
        self.push_op(OpKind::FpDiv, name, Operands::two(a, b), None)
    }

    /// Appends a type conversion (executes on an adder).
    pub fn conv(&mut self, name: impl AsRef<str>, a: ValueRef) -> OpId {
        self.push_op(OpKind::Conv, name, Operands::one(a), None)
    }

    /// Appends a load of `array[i + offset]`.
    pub fn load(&mut self, name: impl AsRef<str>, array: ArrayId, offset: i64) -> OpId {
        self.push_op(
            OpKind::Load,
            name,
            Operands::NONE,
            Some(MemRef { array, offset }),
        )
    }

    /// Appends a store of `value` into `array[i + offset]`.
    pub fn store(
        &mut self,
        name: impl AsRef<str>,
        array: ArrayId,
        offset: i64,
        value: ValueRef,
    ) -> OpId {
        self.push_op(
            OpKind::Store,
            name,
            Operands::one(value),
            Some(MemRef { array, offset }),
        )
    }

    /// Reserves an addition whose operands will be supplied later with
    /// [`LoopBuilder::bind`]. This is how recurrences that reference their
    /// own output (`s = s + x`) are built.
    pub fn reserve_add(&mut self, name: impl AsRef<str>) -> OpId {
        self.push_op(OpKind::FpAdd, name, Operands::NONE, None)
    }

    /// Reserves a subtraction for later binding (see
    /// [`LoopBuilder::reserve_add`]).
    pub fn reserve_sub(&mut self, name: impl AsRef<str>) -> OpId {
        self.push_op(OpKind::FpSub, name, Operands::NONE, None)
    }

    /// Reserves a multiplication for later binding (see
    /// [`LoopBuilder::reserve_add`]).
    pub fn reserve_mul(&mut self, name: impl AsRef<str>) -> OpId {
        self.push_op(OpKind::FpMul, name, Operands::NONE, None)
    }

    /// Reserves a division for later binding (see
    /// [`LoopBuilder::reserve_add`]).
    pub fn reserve_div(&mut self, name: impl AsRef<str>) -> OpId {
        self.push_op(OpKind::FpDiv, name, Operands::NONE, None)
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
        let op_names = self.ops.iter().map(|op| &*op.name);
        if let Some(name) = first_repeat(op_names, self.inherited_ops) {
            return Err(BuildError::DuplicateOpName(name.to_owned()));
        }
        let inv_names = self.invariants.iter().map(|inv| &*inv.name);
        if let Some(name) = first_repeat(inv_names, self.inherited_invariants) {
            return Err(BuildError::DuplicateInvariantName(name.to_owned()));
        }
        let array_names = self.arrays.iter().map(|arr| &*arr.name);
        if let Some(name) = first_repeat(array_names, self.inherited_arrays) {
            return Err(BuildError::DuplicateArrayName(name.to_owned()));
        }
        let mut deps = Vec::with_capacity(self.deps.len() + self.inherited_deps.len());
        deps.extend(self.deps);
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

/// The first name that an earlier name already took. The first `unique`
/// names are known to be distinct (a parent loop's), so only the names
/// after them are checked, each against every name before it: a handful
/// of appended names costs a few comparisons, not a hash of every name.
/// With nothing known (`unique == 0`) one hash set finds the repeat.
fn first_repeat<'a>(
    names: impl ExactSizeIterator<Item = &'a str> + Clone,
    unique: usize,
) -> Option<&'a str> {
    if unique == 0 {
        let mut seen = HashSet::with_capacity(names.len());
        return names.into_iter().find(|&name| !seen.insert(name));
    }
    names
        .clone()
        .enumerate()
        .skip(unique)
        .find_map(|(k, name)| names.clone().take(k).any(|e| e == name).then_some(name))
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

    /// An extending builder shares its parent's names instead of
    /// copying them, and every kind lists at its own index.
    #[test]
    fn extending_shares_the_parent_names() {
        let mut b = LoopBuilder::new("t");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        b.store("S", z, 0, l.now());
        let parent = b.finish(Weight::default()).unwrap();
        let child = LoopBuilder::extending(&parent);
        assert!(Arc::ptr_eq(&child.name, &parent.name));
        for (c, p) in child.ops.iter().zip(&parent.ops) {
            assert!(Arc::ptr_eq(&c.name, &p.name));
        }
        for (c, p) in child.arrays.iter().zip(&parent.arrays) {
            assert!(Arc::ptr_eq(&c.name, &p.name));
        }
        for (i, kind) in OpKind::all().into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
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
