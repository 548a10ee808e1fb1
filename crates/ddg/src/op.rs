//! Operation kinds, identifiers and operand references.

use std::fmt;
use std::sync::Arc;

/// Identifier of an operation inside a [`Loop`](crate::Loop).
///
/// `OpId`s are dense indices into [`Loop::ops`](crate::Loop::ops); they are
/// only meaningful relative to the loop that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// Creates an id from a raw index. Intended for code that iterates over
    /// `0..loop.ops().len()`.
    pub fn from_index(index: usize) -> Self {
        OpId(index as u32)
    }

    /// The dense index of this operation inside its loop.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A same-iteration reference to the value produced by this operation.
    pub fn now(self) -> ValueRef {
        ValueRef::Op { id: self, dist: 0 }
    }

    /// A cross-iteration reference to the value this operation produced
    /// `dist` iterations ago (`dist` is the dependence distance Ω).
    pub fn prev(self, dist: u32) -> ValueRef {
        ValueRef::Op { id: self, dist }
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Identifier of a loop-invariant input value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvId(pub(crate) u32);

impl InvId {
    /// The dense index of this invariant inside its loop.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an array referenced by loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub(crate) u32);

impl ArrayId {
    /// The dense index of this array inside its loop.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of a floating-point loop operation.
///
/// The set matches the paper's machine model (§5.2): adders execute
/// additions, subtractions and int↔fp conversions; multipliers execute
/// multiplications and divisions; load/store units execute memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Floating-point addition (2 operands).
    FpAdd,
    /// Floating-point subtraction (2 operands).
    FpSub,
    /// Floating-point multiplication (2 operands).
    FpMul,
    /// Floating-point division (2 operands).
    FpDiv,
    /// Type conversion (1 operand); executes on an adder in the paper's
    /// machine model.
    Conv,
    /// Memory load (0 value operands + a memory reference).
    Load,
    /// Memory store (1 value operand + a memory reference). Produces no
    /// value.
    Store,
}

impl OpKind {
    /// Number of value operands this kind consumes.
    pub fn arity(self) -> usize {
        match self {
            OpKind::FpAdd | OpKind::FpSub | OpKind::FpMul | OpKind::FpDiv => 2,
            OpKind::Conv | OpKind::Store => 1,
            OpKind::Load => 0,
        }
    }

    /// Whether operations of this kind produce a register value.
    pub fn produces_value(self) -> bool {
        !matches!(self, OpKind::Store)
    }

    /// Whether this kind accesses memory.
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// The kind's position in [`OpKind::all`], for tables indexed by
    /// kind.
    pub fn index(self) -> usize {
        self as usize
    }

    /// All kinds, in declaration order (useful for statistics tables).
    pub fn all() -> [OpKind; 7] {
        [
            OpKind::FpAdd,
            OpKind::FpSub,
            OpKind::FpMul,
            OpKind::FpDiv,
            OpKind::Conv,
            OpKind::Load,
            OpKind::Store,
        ]
    }

    /// A short mnemonic (`add`, `mul`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::FpAdd => "add",
            OpKind::FpSub => "sub",
            OpKind::FpMul => "mul",
            OpKind::FpDiv => "div",
            OpKind::Conv => "conv",
            OpKind::Load => "load",
            OpKind::Store => "store",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A reference to an operand value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef {
    /// The value produced by operation `id`, `dist` iterations ago.
    /// `dist == 0` is a same-iteration (intra-body) flow dependence;
    /// `dist > 0` is a loop-carried dependence (a recurrence when it closes
    /// a cycle).
    Op {
        /// Producing operation.
        id: OpId,
        /// Dependence distance (Ω): how many iterations earlier the value
        /// was produced.
        dist: u32,
    },
    /// A loop-invariant input (kept in the non-rotating general file; not
    /// part of the register-pressure accounting, per §2 of the paper).
    Inv(InvId),
    /// An immediate constant.
    Const(f64),
}

impl ValueRef {
    /// The producing operation, if this reference names one.
    pub fn op(self) -> Option<(OpId, u32)> {
        match self {
            ValueRef::Op { id, dist } => Some((id, dist)),
            _ => None,
        }
    }
}

/// The value operands of an op, held inline: every [`OpKind`] has arity
/// at most two, so cloning an op copies them without allocating. A
/// [`LoopBuilder::bind`](crate::LoopBuilder::bind) given more operands
/// keeps the first two and counts the rest, so validation still reports
/// the arity mismatch with the true count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Operands {
    slots: [ValueRef; 2],
    len: usize,
}

impl Operands {
    /// No operands.
    pub(crate) const NONE: Operands = Operands {
        slots: [ValueRef::Const(0.0); 2],
        len: 0,
    };

    /// One operand.
    pub(crate) fn one(a: ValueRef) -> Operands {
        Operands {
            slots: [a, ValueRef::Const(0.0)],
            len: 1,
        }
    }

    /// Two operands.
    pub(crate) fn two(a: ValueRef, b: ValueRef) -> Operands {
        Operands {
            slots: [a, b],
            len: 2,
        }
    }

    /// The operand count, including any past the two kept.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The kept operands: all of them when there are at most two.
    pub(crate) fn as_slice(&self) -> &[ValueRef] {
        &self.slots[..self.len.min(2)]
    }
}

impl FromIterator<ValueRef> for Operands {
    fn from_iter<I: IntoIterator<Item = ValueRef>>(iter: I) -> Operands {
        let mut ops = Operands::NONE;
        for v in iter {
            if let Some(slot) = ops.slots.get_mut(ops.len) {
                *slot = v;
            }
            ops.len += 1;
        }
        ops
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a ValueRef;
    type IntoIter = std::slice::Iter<'a, ValueRef>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Operands {
    fn eq(&self, other: &Operands) -> bool {
        self.len == other.len && self.as_slice() == other.as_slice()
    }
}

/// One operation of a loop body.
///
/// Its name is shared and its operands inline, so cloning an op (as
/// [`LoopBuilder::extending`](crate::LoopBuilder::extending) does for every
/// op of its parent) allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub(crate) kind: OpKind,
    pub(crate) name: Arc<str>,
    pub(crate) inputs: Operands,
    pub(crate) mem: Option<crate::graph::MemRef>,
    /// Initial value(s) observed by cross-iteration consumers that read
    /// this op's output before iteration 0 produced it (reductions start
    /// from this seed). Only meaningful for value-producing ops consumed at
    /// distance > 0.
    pub(crate) init: f64,
}

impl Op {
    /// The operation kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The (unique, human-readable) name, e.g. `"L1"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The value operands.
    pub fn inputs(&self) -> &[ValueRef] {
        self.inputs.as_slice()
    }

    /// The memory reference, for loads and stores.
    pub fn mem(&self) -> Option<&crate::graph::MemRef> {
        self.mem.as_ref()
    }

    /// The seed value read by cross-iteration consumers before iteration 0.
    pub fn init(&self) -> f64 {
        self.init
    }
}
