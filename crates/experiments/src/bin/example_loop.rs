//! Tables 2-4: the §4 worked example — lifetimes, GL/LO/RO classification
//! before swapping, and the classification after swapping.

use ncdrf::corpus::kernels;
use ncdrf::machine::Machine;
use ncdrf::regalloc::{
    allocate_dual, allocate_unified, classify, lifetimes, DualPressure, ValueClass,
};
use ncdrf::swap::swap_pass;
use ncdrf::Session;
use ncdrf_experiments::Cli;
use std::fmt::Write as _;

fn main() {
    let cli = Cli::parse();
    println!("=== Tables 2-4: the §4 worked example ===\n");

    let l = kernels::fig2();

    let machine = Machine::clustered(3, 2);
    let session = Session::new(machine.clone());
    let base = session.base(&l).unwrap();
    let mut sched = base.sched.clone();
    let lts = base.lifetimes.clone();

    let mut csv = String::from("table,op,start,end,lifetime,class\n");

    println!("Table 2 — lifetimes (II={}):", sched.ii());
    let classes = classify(&l, &machine, &sched, &lts);
    for (lt, class) in lts.iter().zip(&classes) {
        let name = l.op(lt.op).name();
        println!(
            "  {:<3} start {:>2} end {:>2} lifetime {:>2}",
            name,
            lt.start,
            lt.end,
            lt.len()
        );
        let _ = writeln!(
            csv,
            "2,{name},{},{},{},{}",
            lt.start,
            lt.end,
            lt.len(),
            class_name(*class)
        );
    }
    let total: u32 = lts.iter().map(|lt| lt.len()).sum();
    println!(
        "  sum {total}; unified allocation {}",
        allocate_unified(&lts, sched.ii()).regs
    );

    let p = DualPressure::new(&lts, &classes, sched.ii());
    println!(
        "\nTable 3 — before swapping: GL {} LO {} RO {} -> max cluster {} \
         (allocation {})",
        p.global,
        p.left,
        p.right,
        p.requirement_bound(),
        allocate_dual(&lts, &classes, sched.ii()).regs
    );

    let outcome = swap_pass(&l, &machine, &mut sched).unwrap();
    let lts2 = lifetimes(&l, &machine, &sched).unwrap();
    let classes2 = classify(&l, &machine, &sched, &lts2);
    let p2 = DualPressure::new(&lts2, &classes2, sched.ii());
    println!(
        "\nTable 4 — after swapping ({} action(s)): GL {} LO {} RO {} -> max \
         cluster {} (allocation {})",
        outcome.actions.len(),
        p2.global,
        p2.left,
        p2.right,
        p2.requirement_bound(),
        allocate_dual(&lts2, &classes2, sched.ii()).regs
    );
    for (lt, class) in lts2.iter().zip(&classes2) {
        let _ = writeln!(
            csv,
            "4,{},{},{},{},{}",
            l.op(lt.op).name(),
            lt.start,
            lt.end,
            lt.len(),
            class_name(*class)
        );
    }
    cli.write("example_loop.csv", &csv);
}

fn class_name(c: ValueClass) -> &'static str {
    use ncdrf::machine::ClusterId;
    match c {
        ValueClass::Global => "GL",
        ValueClass::Only(ClusterId::LEFT) => "LO",
        ValueClass::Only(_) => "RO",
    }
}
