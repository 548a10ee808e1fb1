//! Quickstart: open a session, compare the register requirement of all
//! four models on one loop (scheduling it once), and validate the result
//! by executing the pipelined loop against a sequential reference.
//!
//! Run with `cargo run --example quickstart`.

use ncdrf::corpus::kernels;
use ncdrf::machine::Machine;
use ncdrf::regalloc::allocate_unified;
use ncdrf::vliw::{check_equivalence, Binding};
use ncdrf::{Session, PAPER_MODELS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Livermore "hydro fragment": x[k] = q + y[k]*(r*z[k+10] + t*z[k+11]).
    let l = kernels::livermore::hydro();
    println!("{l}");

    // The paper's clustered evaluation machine: per cluster 1 adder +
    // 1 multiplier (latency 3) + 1 load/store unit (latency 1).
    let machine = Machine::clustered(3, 1);
    println!("machine: {machine}\n");

    // A session schedules each loop once; the four models share the run.
    let session = Session::new(machine.clone());
    println!("{:<14} {:>4} {:>6}", "model", "II", "regs");
    for model in PAPER_MODELS {
        let a = session.analyze(&l, model)?;
        println!("{:<14} {:>4} {:>6}", model.to_string(), a.ii, a.regs);
    }
    let stats = session.cache_stats();
    println!(
        "(scheduled {} time(s), {} cache hits)",
        stats.misses, stats.hits
    );

    // Every schedule + allocation is validated by execution: the pipelined
    // run must produce bit-identical memory to a sequential evaluation.
    let base = session.base(&l)?;
    let alloc = allocate_unified(&base.lifetimes, base.sched.ii());
    let run = check_equivalence(
        &l,
        &machine,
        &base.sched,
        &Binding::unified(&base.lifetimes, &alloc),
        100,
    )?;
    println!(
        "\nexecuted 100 iterations in {} cycles ({} memory accesses, bus density {:.2})",
        run.cycles,
        run.bus.accesses,
        run.bus.density()
    );
    Ok(())
}
