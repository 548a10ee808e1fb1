//! The "naive" spiller of the paper's §5.4.
//!
//! When a loop's register requirement exceeds the physical register file,
//! the paper inserts spill code and retries:
//!
//! ```text
//! DO
//!   modulo scheduling
//!   register allocation
//!   IF registers needed > physical registers
//!     select a value to spill out
//!     modify the dependence graph
//! UNTIL registers needed <= physical registers
//! ```
//!
//! The victim is "the value with the highest lifetime, which in general
//! will free a higher number of registers". Spilling a value rewrites the
//! dependence graph: a spill store writes the value to memory right after
//! production, and every consumer reads a fresh reload instead (see
//! [`spill_value`]). Spill code is exactly what the paper's evaluation
//! measures: it raises the resource-constrained II when memory ports
//! saturate (hurting performance, Figure 8) and raises the density of
//! memory traffic (Figure 9).
//!
//! The driver [`spill_until_fits`] is generic over the *requirement
//! function* so the same loop serves the unified model
//! ([`requirement_unified`]) and the dual-file models (whose requirements
//! involve classification and optionally the swapping pass; the `ncdrf`
//! facade provides those).
//!
//! [`SpillTrajectory`] runs the same loop resumably, one budget after
//! another, and walks a [`DescentTree`] that the trajectories of several
//! register models of one loop can share: victim choice, rewrite and
//! reschedule do not read the model, so each spill state, escalation
//! rung and memoised [`Requirement`] class is computed once per loop.
//!
//! # Example
//!
//! ```
//! use ncdrf_ddg::{LoopBuilder, Weight};
//! use ncdrf_machine::Machine;
//! use ncdrf_spill::{spill_until_fits, requirement_unified, SpillOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = LoopBuilder::new("axpy");
//! let a = b.invariant("a", 3.0);
//! let x = b.array_in("x");
//! let z = b.array_out("z");
//! let l = b.load("L", x, 0);
//! let m = b.mul("M", l.now(), a);
//! b.store("S", z, 0, m.now());
//! let lp = b.finish(Weight::default())?;
//!
//! let machine = Machine::clustered(6, 1);
//! let result = spill_until_fits(
//!     &lp, &machine, 32, &mut requirement_unified, SpillOptions::default())?;
//! assert!(result.fits);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod descent;
mod escalation;
mod rewrite;
mod spiller;
mod trajectory;

pub use descent::{
    ClassInput, ClassKey, ClassRequirement, DescentStats, DescentTree, Requirement, ScheduleFacts,
};
pub use rewrite::{spill_value, RewriteStats};
pub use spiller::{
    requirement_unified, spill_until_fits, spill_until_fits_seeded, RequirementFn, SpillError,
    SpillOptions, SpillPolicy, SpillResult,
};
pub use trajectory::{
    ResumeStats, SnapshotStep, SpillCheckpoint, SpillTrajectory, TrajectorySnapshot,
};
