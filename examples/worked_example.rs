//! The paper's §4 worked example, end to end: the Figure 2 loop on the
//! two-cluster machine, the Figure 3/4 schedule, Table 2 lifetimes,
//! Table 3 classification, and Table 4 after swapping.
//!
//! Run with `cargo run --example worked_example`.

use ncdrf::corpus::kernels;
use ncdrf::machine::Machine;
use ncdrf::regalloc::{allocate_dual, allocate_unified, classify, lifetimes, DualPressure};
use ncdrf::sched::{KernelView, ScheduleTable};
use ncdrf::swap::swap_pass;
use ncdrf::{Session, PAPER_MODELS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 2: L1=x[i]; L2=y[i]; M3=L1*r; A4=M3+L2; M5=A4*t; A6=M5+L1;
    // S7: z[i]=A6.
    let l = kernels::fig2();
    println!("{l}");

    // §4's machine: 2 clusters x (1 adder, 1 multiplier, 2 ld/st).
    let machine = Machine::clustered(3, 2);
    let mut sched = ncdrf::sched::modulo_schedule(&l, &machine)?;
    println!("schedule: II={} stages={}", sched.ii(), sched.stages());
    println!("flat schedule (Figure 3 style; left cluster || right cluster):");
    println!("{}", ScheduleTable::new(&l, &machine, &sched));
    println!("kernel (Figure 4 style):");
    println!("{}", KernelView::new(&l, &machine, &sched));

    // Table 2: lifetimes.
    let lts = lifetimes(&l, &machine, &sched)?;
    println!("lifetimes (Table 2):");
    let mut total = 0;
    for lt in &lts {
        println!(
            "  {:<3} start {:>2} end {:>2} lifetime {:>2}",
            l.op(lt.op).name(),
            lt.start,
            lt.end,
            lt.len()
        );
        total += lt.len();
    }
    println!("  sum of lifetimes: {total}");
    println!(
        "  unified requirement: {}\n",
        allocate_unified(&lts, sched.ii()).regs
    );

    // Table 3: classification and dual requirement before swapping.
    let classes = classify(&l, &machine, &sched, &lts);
    let p = DualPressure::new(&lts, &classes, sched.ii());
    println!(
        "dual pressure before swapping (Table 3): GL {} LO {} RO {} -> max cluster {}",
        p.global,
        p.left,
        p.right,
        p.requirement_bound()
    );
    println!(
        "dual requirement: {}\n",
        allocate_dual(&lts, &classes, sched.ii()).regs
    );

    // Table 4: the greedy swap pass.
    let outcome = swap_pass(&l, &machine, &mut sched)?;
    println!(
        "swapping (Table 4): {} -> {} registers via {} action(s)",
        outcome.before,
        outcome.after,
        outcome.actions.len()
    );
    for a in &outcome.actions {
        println!("  {a}");
    }

    // The facade runs the whole comparison through one session (the
    // schedule is computed once and shared by all four models).
    println!("\nmodel comparison on this loop:");
    let session = Session::new(machine);
    for model in PAPER_MODELS {
        let a = session.analyze(&l, model)?;
        println!("  {:<12} II {} regs {}", model.to_string(), a.ii, a.regs);
    }
    Ok(())
}
