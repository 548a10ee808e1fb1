//! Spill behaviour under register pressure: sweep the register budget for
//! one pressured loop and watch spills, II and memory traffic respond —
//! the per-loop mechanics behind Figures 8 and 9.
//!
//! Run with `cargo run --example spill_study`.

use ncdrf::corpus::kernels;
use ncdrf::machine::Machine;
use ncdrf::{ModelId, Session, PAPER_FINITE_MODELS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let l = kernels::livermore::state(); // a wide 16-op loop
    let session = Session::new(Machine::clustered(6, 1));

    let free = session.analyze(&l, ModelId::UNIFIED)?;
    println!(
        "loop `{}`: II {} with unlimited registers, unified requirement {}\n",
        l.name(),
        free.ii,
        free.regs
    );

    println!(
        "{:<12} {:>6} {:>4} {:>7} {:>8} {:>9}",
        "model", "budget", "II", "spills", "mem ops", "density"
    );
    for model in PAPER_FINITE_MODELS {
        for budget in [64, 32, 24, 16, 12] {
            let e = session.evaluate(&l, model, budget)?;
            println!(
                "{:<12} {:>6} {:>4} {:>7} {:>8} {:>9.3}",
                model.to_string(),
                budget,
                e.ii,
                e.spilled,
                e.mem_ops,
                e.density()
            );
        }
        println!();
    }
    let stats = session.cache_stats();
    println!(
        "all {} evaluations shared {} scheduling run(s) of the base loop",
        stats.hits + stats.misses,
        stats.misses
    );
    Ok(())
}
