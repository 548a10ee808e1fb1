//! Loop data-dependence graphs (DDGs) for software-pipelining studies.
//!
//! This crate is the foundation of the NCDRF reproduction: it models the
//! innermost loops that the rest of the system schedules, allocates and
//! executes. A [`Loop`] is a single-basic-block loop body expressed as a
//! graph of [`Op`]s connected by flow dependences (possibly spanning
//! iterations, expressed with a *distance*, written Ω in the software
//! pipelining literature) plus explicit memory-ordering dependences.
//!
//! The representation is *executable*: loads and stores carry affine memory
//! references (`array[i + offset]`), arithmetic operations carry their
//! operand references, and loop-invariant inputs carry concrete values, so a
//! loop can be both scheduled (by `ncdrf-sched`) and interpreted (by
//! `ncdrf-vliw`) to validate that a schedule plus register allocation is
//! semantically correct.
//!
//! # Example
//!
//! Build the `daxpy`-style loop `z[i] = a * x[i] + y[i]`:
//!
//! ```
//! use ncdrf_ddg::{LoopBuilder, Weight};
//!
//! # fn main() -> Result<(), ncdrf_ddg::BuildError> {
//! let mut b = LoopBuilder::new("daxpy");
//! let a = b.invariant("a", 2.5);
//! let x = b.array_in("x");
//! let y = b.array_in("y");
//! let z = b.array_out("z");
//! let lx = b.load("LX", x, 0);
//! let ly = b.load("LY", y, 0);
//! let m = b.mul("M", lx.now(), a);
//! let s = b.add("A", m.now(), ly.now());
//! b.store("S", z, 0, s.now());
//! let l = b.finish(Weight::new(100, 1))?;
//! assert_eq!(l.ops().len(), 5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod builder;
mod dot;
mod graph;
mod op;
mod stats;
mod validate;

pub use builder::{BuildError, LoopBuilder};
pub use graph::{ArrayDecl, ArrayRole, Consumers, Dep, DepKind, Invariant, Loop, MemRef, Weight};
pub use op::{ArrayId, InvId, Op, OpId, OpKind, ValueRef};
pub use stats::LoopStats;
pub use validate::ValidateError;
