//! Explore the benchmark corpus: composition, register-pressure
//! distributions, and the most pressured loops.
//!
//! Run with `cargo run --release --example corpus_explorer [--standard]`.

use ncdrf::corpus::Corpus;
use ncdrf::machine::Machine;
use ncdrf::{Cumulative, ModelId, Observation, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let standard = std::env::args().any(|a| a == "--standard");
    let corpus = if standard {
        Corpus::standard()
    } else {
        Corpus::small()
    };
    let stats = corpus.stats();
    println!("corpus `{}`: {} loops", corpus.name(), stats.loops);
    println!(
        "  ops {} (adds {} muls {} loads {} stores {}), {} loops with recurrences",
        stats.ops, stats.adds, stats.muls, stats.loads, stats.stores, stats.recurrent_loops
    );
    println!(
        "  largest body {} ops, total weighted iterations {}\n",
        stats.max_ops, stats.total_iterations
    );

    let session = Session::new(Machine::clustered(3, 1));
    let rows = session.analyze_corpus(&corpus, ModelId::UNIFIED)?;

    // Static distribution of register requirements.
    let obs: Vec<Observation> = rows
        .iter()
        .map(|r| Observation {
            regs: r.regs,
            weight: 1.0,
        })
        .collect();
    let dist = Cumulative::new(&[8, 16, 32, 64, 128], &obs);
    println!("unified register requirements (latency 3):");
    for (p, pct) in dist.points.iter().zip(&dist.percent) {
        println!("  <= {p:>3} registers: {pct:>5.1}% of loops");
    }

    // The most pressured loops.
    let mut by_regs = rows.clone();
    by_regs.sort_by_key(|r| std::cmp::Reverse(r.regs));
    println!("\nmost pressured loops:");
    for r in by_regs.iter().take(8) {
        println!("  {:<24} II {:>2} regs {:>3}", r.name, r.ii, r.regs);
    }
    Ok(())
}
