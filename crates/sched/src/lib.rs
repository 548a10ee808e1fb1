//! Iterative modulo scheduling (IMS) for VLIW loops.
//!
//! Modulo scheduling (Rau & Glaeser, 1981; the paper's §2) overlaps loop
//! iterations: a new iteration starts every *initiation interval* (II)
//! cycles, and every operation occupies the same slot of a *modulo
//! reservation table* of II rows. This crate implements:
//!
//! * the **lower bounds** on the II — [`res_mii`] (resource-constrained)
//!   and [`rec_mii`] (recurrence-constrained: per strongly connected
//!   component of the dependence graph, in closed form for a one-op
//!   component and by positive-cycle detection otherwise) — combined by
//!   [`mii`], which [`SchedContext`] reads off the graph it analyses for
//!   scheduling;
//! * **iterative modulo scheduling** ([`modulo_schedule`],
//!   [`schedule_at_ii`]) following Rau's IMS: height-based priorities,
//!   earliest-start windows of II slots, budgeted eviction, and II escalation
//!   when the budget is exhausted — one arena-backed implementation,
//!   [`SchedContext`], that the free functions run on a fresh context,
//!   and [`PreparedLoop`], one loop analysed once for attempts at many
//!   IIs, each with a flat flag saying whether higher IIs repeat it;
//! * the resulting [`Schedule`]: per-operation start cycles and
//!   functional-unit bindings, from which kernel slot, stage and — on a
//!   clustered machine — the operation's *cluster* are derived.
//!
//! Schedules are checked against their dependence and resource
//! constraints by `ncdrf-certify`, which shares no code with this crate.
//!
//! # Example
//!
//! ```
//! use ncdrf_ddg::{LoopBuilder, Weight};
//! use ncdrf_machine::Machine;
//! use ncdrf_sched::{mii, modulo_schedule};
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
//! let machine = Machine::clustered(3, 1);
//! let sched = modulo_schedule(&lp, &machine)?;
//! assert_eq!(sched.ii(), mii(&lp, &machine)?.mii);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod context;
mod ims;
mod kernel;
mod mii;
mod schedule;
mod table;

pub use context::{PreparedLoop, Rung, SchedContext};
pub use ims::{
    modulo_schedule, modulo_schedule_with, schedule_at_ii, Priority, ScheduleError,
    SchedulerOptions,
};
pub use kernel::{KernelSlotEntry, KernelView};
pub use mii::{mii, rec_mii, res_mii, MiiInfo};
pub use schedule::Schedule;
pub use table::ScheduleTable;
