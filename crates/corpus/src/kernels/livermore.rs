//! Kernels modelled on the Lawrence Livermore Loops (the paper's loop
//! population was drawn from kindred scientific codes).

use ncdrf_ddg::{Loop, LoopBuilder, Weight};

fn done(b: LoopBuilder) -> Loop {
    b.finish(Weight::default())
        .expect("hand-written kernel is valid")
}

/// LL kernel 1 (hydro fragment):
/// `x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])`.
pub fn hydro() -> Loop {
    let mut b = LoopBuilder::new("ll1_hydro");
    let q = b.invariant("q", 0.5);
    let r = b.invariant("r", 1.5);
    let t = b.invariant("t", 0.25);
    let y = b.array_in("y");
    let z = b.array_in("z");
    let x = b.array_out("x");
    let lz0 = b.load("LZ0", z, 10);
    let lz1 = b.load("LZ1", z, 11);
    let ly = b.load("LY", y, 0);
    let m1 = b.mul("M1", lz0.now(), r);
    let m2 = b.mul("M2", lz1.now(), t);
    let a1 = b.add("A1", m1.now(), m2.now());
    let m3 = b.mul("M3", ly.now(), a1.now());
    let a2 = b.add("A2", m3.now(), q);
    b.store("SX", x, 0, a2.now());
    done(b)
}

/// LL kernel 5 (tri-diagonal elimination, below diagonal):
/// `x[i] = z[i]*(y[i] - x[i-1])` — a genuine loop-carried recurrence
/// through both a register and memory.
pub fn tridiag() -> Loop {
    let mut b = LoopBuilder::new("ll5_tridiag");
    let y = b.array_in("y");
    let z = b.array_in("z");
    let x = b.array_inout("x");
    let ly = b.load("LY", y, 0);
    let lz = b.load("LZ", z, 0);
    let d = b.reserve_sub("D");
    let m = b.reserve_mul("M");
    b.bind(d, [ly.now(), m.prev(1)]);
    b.bind(m, [lz.now(), d.now()]);
    b.set_init(m, 0.0);
    b.store("SX", x, 0, m.now());
    done(b)
}

/// LL kernel 7 (equation of state fragment) — a wide mul/add expression:
/// `x[k] = u[k] + r*(z[k] + r*y[k]) + t*(u[k+3] + r*(u[k+2] + r*u[k+1]))`.
pub fn state() -> Loop {
    let mut b = LoopBuilder::new("ll7_state");
    let r = b.invariant("r", 0.75);
    let t = b.invariant("t", 1.25);
    let u = b.array_in("u");
    let y = b.array_in("y");
    let z = b.array_in("z");
    let x = b.array_out("x");
    let lu0 = b.load("LU0", u, 0);
    let lu1 = b.load("LU1", u, 1);
    let lu2 = b.load("LU2", u, 2);
    let lu3 = b.load("LU3", u, 3);
    let ly = b.load("LY", y, 0);
    let lz = b.load("LZ", z, 0);
    let m1 = b.mul("M1", ly.now(), r);
    let a1 = b.add("A1", lz.now(), m1.now());
    let m2 = b.mul("M2", a1.now(), r);
    let a2 = b.add("A2", lu0.now(), m2.now());
    let m3 = b.mul("M3", lu1.now(), r);
    let a3 = b.add("A3", lu2.now(), m3.now());
    let m4 = b.mul("M4", a3.now(), r);
    let a4 = b.add("A4", lu3.now(), m4.now());
    let m5 = b.mul("M5", a4.now(), t);
    let a5 = b.add("A5", a2.now(), m5.now());
    b.store("SX", x, 0, a5.now());
    done(b)
}

/// LL kernel 11 (first sum): `x[k] = x[k-1] + y[k]` — prefix sum kept in a
/// register recurrence and stored each iteration.
pub fn first_sum() -> Loop {
    let mut b = LoopBuilder::new("ll11_first_sum");
    let y = b.array_in("y");
    let x = b.array_out("x");
    let ly = b.load("LY", y, 0);
    let s = b.reserve_add("S");
    b.bind(s, [ly.now(), s.prev(1)]);
    b.set_init(s, 0.0);
    b.store("SX", x, 0, s.now());
    done(b)
}

/// LL kernel 12 (first difference): `x[k] = y[k+1] - y[k]`.
pub fn first_diff() -> Loop {
    let mut b = LoopBuilder::new("ll12_first_diff");
    let y = b.array_in("y");
    let x = b.array_out("x");
    let l1 = b.load("L1", y, 1);
    let l0 = b.load("L0", y, 0);
    let d = b.sub("D", l1.now(), l0.now());
    b.store("SX", x, 0, d.now());
    done(b)
}

/// A fragment of LL kernel 2 (ICCG, incomplete Cholesky conjugate
/// gradient): `x[i] = x[i] - v[i]*x[i+1]` over strided data, here with an
/// in-place update and a forward read.
pub fn iccg() -> Loop {
    let mut b = LoopBuilder::new("ll2_iccg");
    let v = b.array_in("v");
    let x = b.array_inout("x");
    let lv = b.load("LV", v, 0);
    let lx0 = b.load("LX0", x, 0);
    let lx1 = b.load("LX1", x, 1);
    let m = b.mul("M", lv.now(), lx1.now());
    let d = b.sub("D", lx0.now(), m.now());
    let st = b.store("SX", x, 0, d.now());
    // The store of iteration i writes x[i]; iteration i+1 reads x[i+1]
    // (untouched) and x[i+1-1] = x[i]? No: it loads x[i+1] and x[i+1+1];
    // neither aliases the store of iteration i+1's past... but x[i] written
    // here is read as LX0 of no later iteration and as LX1 of iteration
    // i-1 (earlier). Keep a conservative ordering edge so stores stay
    // behind the loads of the same address one iteration later.
    b.mem_dep(st, lx0, 1);
    done(b)
}

/// Banded (tri-diagonal) matrix-vector product:
/// `y[i] = a[i]*x[i-1] + b[i]*x[i] + c[i]*x[i+1]`.
pub fn banded_matvec() -> Loop {
    let mut b = LoopBuilder::new("banded_matvec");
    let a = b.array_in("a");
    let bb = b.array_in("b");
    let c = b.array_in("c");
    let x = b.array_in("x");
    let y = b.array_out("y");
    let la = b.load("LA", a, 0);
    let lb = b.load("LB", bb, 0);
    let lc = b.load("LC", c, 0);
    let lxm = b.load("LXM", x, -1);
    let lx0 = b.load("LX0", x, 0);
    let lxp = b.load("LXP", x, 1);
    let m1 = b.mul("M1", la.now(), lxm.now());
    let m2 = b.mul("M2", lb.now(), lx0.now());
    let m3 = b.mul("M3", lc.now(), lxp.now());
    let a1 = b.add("A1", m1.now(), m2.now());
    let a2 = b.add("A2", a1.now(), m3.now());
    b.store("SY", y, 0, a2.now());
    done(b)
}

/// Forward substitution step: `x[i] = (y[i] - s[i]*x[i-1]) / d[i]` — a
/// recurrence through a subtraction and a division.
pub fn forward_subst() -> Loop {
    let mut b = LoopBuilder::new("forward_subst");
    let y = b.array_in("y");
    let s = b.array_in("s");
    let dd = b.array_in("d");
    let x = b.array_out("x");
    let ly = b.load("LY", y, 0);
    let ls = b.load("LS", s, 0);
    let ld = b.load("LD", dd, 0);
    let m = b.reserve_mul("M");
    let sub = b.sub("SUB", ly.now(), m.now());
    let div = b.div("DIV", sub.now(), ld.now());
    b.bind(m, [ls.now(), div.prev(1)]);
    b.set_init(div, 0.0);
    b.store("SX", x, 0, div.now());
    done(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_certify::certify_schedule;
    use ncdrf_machine::Machine;
    use ncdrf_sched::modulo_schedule;

    #[test]
    fn all_livermore_kernels_schedule() {
        let machine = Machine::clustered(3, 1);
        for k in [
            hydro(),
            tridiag(),
            state(),
            first_sum(),
            first_diff(),
            iccg(),
            banded_matvec(),
            forward_subst(),
        ] {
            let sched = modulo_schedule(&k, &machine)
                .unwrap_or_else(|e| panic!("{} failed: {e}", k.name()));
            certify_schedule(&k, &machine, &sched).unwrap();
        }
    }

    #[test]
    fn recurrences_bound_the_ii() {
        // tridiag has a sub(lat) + mul(lat) cycle of distance 1: RecMII =
        // 2*lat.
        use ncdrf_sched::rec_mii;
        let machine = Machine::clustered(3, 1);
        assert_eq!(rec_mii(&tridiag(), &machine).unwrap(), 6);
        let machine6 = Machine::clustered(6, 1);
        assert_eq!(rec_mii(&tridiag(), &machine6).unwrap(), 12);
    }
}
