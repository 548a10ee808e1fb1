//! Kernels dominated by loop-carried recurrences and long chains.

use ncdrf_ddg::{Loop, LoopBuilder, Weight};

fn done(b: LoopBuilder) -> Loop {
    b.finish(Weight::default())
        .expect("hand-written kernel is valid")
}

/// Exponential moving average: `s = alpha*x[i] + beta*s`.
pub fn ema() -> Loop {
    let mut b = LoopBuilder::new("ema");
    let alpha = b.invariant("alpha", 0.2);
    let beta = b.invariant("beta", 0.8);
    let x = b.array_in("x");
    let z = b.array_out("z");
    let lx = b.load("LX", x, 0);
    let mx = b.mul("MX", lx.now(), alpha);
    let ms = b.reserve_mul("MS");
    let s = b.add("S", mx.now(), ms.now());
    b.bind(ms, [s.prev(1), beta]);
    b.set_init(s, 0.0);
    b.store("ST", z, 0, s.now());
    done(b)
}

/// Gauss–Seidel-flavoured smoothing: `s = 0.5*(s + y[i])`.
pub fn seidel() -> Loop {
    let mut b = LoopBuilder::new("seidel");
    let half = b.invariant("half", 0.5);
    let y = b.array_in("y");
    let z = b.array_out("z");
    let ly = b.load("LY", y, 0);
    let a = b.reserve_add("A");
    let m = b.mul("M", a.now(), half);
    b.bind(a, [ly.now(), m.prev(1)]);
    b.set_init(m, 0.0);
    b.store("ST", z, 0, m.now());
    done(b)
}

/// Two coupled recurrences (damped oscillator step):
/// `v = v - k*x; x = x + h*v`.
pub fn oscillator() -> Loop {
    let mut b = LoopBuilder::new("oscillator");
    let k = b.invariant("k", 0.04);
    let h = b.invariant("h", 0.1);
    let xs = b.array_out("xs");
    let vs = b.array_out("vs");
    let mk = b.reserve_mul("MK");
    let v = b.reserve_sub("V");
    let mh = b.mul("MH", v.now(), h);
    let x = b.reserve_add("X");
    b.bind(mk, [x.prev(1), k]);
    b.bind(v, [v.prev(1), mk.now()]);
    b.bind(x, [x.prev(1), mh.now()]);
    b.set_init(v, 0.0);
    b.set_init(x, 1.0);
    b.store("SX", xs, 0, x.now());
    b.store("SV", vs, 0, v.now());
    done(b)
}

/// A deep dependence chain: 8 serial mul/add stages per iteration, no
/// recurrence — high lifetime spread, deep pipelining.
pub fn chain8() -> Loop {
    let mut b = LoopBuilder::new("chain8");
    let c = b.invariant("c", 1.01);
    let x = b.array_in("x");
    let z = b.array_out("z");
    let lx = b.load("LX", x, 0);
    let mut prev = lx.now();
    for i in 0..8 {
        let op = if i % 2 == 0 {
            b.mul(format!("M{i}"), prev, c)
        } else {
            b.add(format!("A{i}"), prev, c)
        };
        prev = op.now();
    }
    b.store("S", z, 0, prev);
    done(b)
}

/// Eight fully-independent mul-add lanes — maximal ILP, high pressure.
pub fn wide8() -> Loop {
    let mut b = LoopBuilder::new("wide8");
    let c = b.invariant("c", 0.99);
    let x = b.array_in("x");
    let z = b.array_out("z");
    let mut sums = Vec::new();
    for lane in 0..4 {
        let l = b.load(format!("L{lane}"), x, lane as i64);
        let m = b.mul(format!("M{lane}"), l.now(), c);
        let a = b.add(format!("A{lane}"), m.now(), l.now());
        sums.push(a);
    }
    let t1 = b.add("T1", sums[0].now(), sums[1].now());
    let t2 = b.add("T2", sums[2].now(), sums[3].now());
    let t3 = b.add("T3", t1.now(), t2.now());
    b.store("S", z, 0, t3.now());
    done(b)
}

/// Balanced reduction tree over 8 loaded values.
pub fn tree8() -> Loop {
    let mut b = LoopBuilder::new("tree8");
    let x = b.array_in("x");
    let z = b.array_out("z");
    let loads: Vec<_> = (0..8)
        .map(|k| b.load(format!("L{k}"), x, k as i64))
        .collect();
    let mut level: Vec<_> = loads.iter().map(|l| l.now()).collect();
    let mut n = 0;
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            let a = b.add(format!("A{n}"), pair[0], pair[1]);
            n += 1;
            next.push(a.now());
        }
        level = next;
    }
    b.store("S", z, 0, level[0]);
    done(b)
}

/// Predator–prey (Lotka–Volterra) Euler step — two coupled nonlinear
/// recurrences with a shared product term:
/// `u' = u + h*(a*u - b*u*v)`, `v' = v + h*(c*u*v - d*v)`.
pub fn lotka() -> Loop {
    let mut b = LoopBuilder::new("lotka");
    let ha = b.invariant("ha", 0.011);
    let hb = b.invariant("hb", 0.004);
    let hc = b.invariant("hc", 0.002);
    let hd = b.invariant("hd", 0.009);
    let us = b.array_out("us");
    let vs = b.array_out("vs");
    let u = b.reserve_add("U");
    let v = b.reserve_add("V");
    let uv = b.reserve_mul("UV");
    b.bind(uv, [u.prev(1), v.prev(1)]);
    let mau = b.reserve_mul("MAU");
    b.bind(mau, [u.prev(1), ha]);
    let mbuv = b.mul("MBUV", uv.now(), hb);
    let du = b.sub("DU", mau.now(), mbuv.now());
    b.bind(u, [u.prev(1), du.now()]);
    let mcuv = b.mul("MCUV", uv.now(), hc);
    let mdv = b.reserve_mul("MDV");
    b.bind(mdv, [v.prev(1), hd]);
    let dv = b.sub("DV", mcuv.now(), mdv.now());
    b.bind(v, [v.prev(1), dv.now()]);
    b.set_init(u, 10.0);
    b.set_init(v, 5.0);
    b.store("SU", us, 0, u.now());
    b.store("SV", vs, 0, v.now());
    done(b)
}

/// Conversion-flavoured kernel (exercises the `Conv` op, which runs on the
/// adder): `z[i] = trunc(x[i]) * s + y[i]`.
pub fn quantize() -> Loop {
    let mut b = LoopBuilder::new("quantize");
    let s = b.invariant("s", 0.125);
    let x = b.array_in("x");
    let y = b.array_in("y");
    let z = b.array_out("z");
    let lx = b.load("LX", x, 0);
    let ly = b.load("LY", y, 0);
    let c = b.conv("C", lx.now());
    let m = b.mul("M", c.now(), s);
    let a = b.add("A", m.now(), ly.now());
    b.store("S", z, 0, a.now());
    done(b)
}

/// Reciprocal-heavy kernel: `z[i] = a/x[i] + b/y[i]`.
pub fn recip2() -> Loop {
    let mut b = LoopBuilder::new("recip2");
    let a = b.invariant("a", 1.0);
    let c = b.invariant("c", 2.0);
    let x = b.array_in("x");
    let y = b.array_in("y");
    let z = b.array_out("z");
    let lx = b.load("LX", x, 0);
    let ly = b.load("LY", y, 0);
    let d1 = b.div("D1", a, lx.now());
    let d2 = b.div("D2", c, ly.now());
    let s = b.add("S", d1.now(), d2.now());
    b.store("ST", z, 0, s.now());
    done(b)
}

/// Cholesky-style scaling: `z[i] = (x[i] - s) / d` with invariant `s, d`.
pub fn chol_scale() -> Loop {
    let mut b = LoopBuilder::new("chol_scale");
    let s = b.invariant("s", 0.5);
    let d = b.invariant("d", 2.0);
    let x = b.array_in("x");
    let z = b.array_out("z");
    let lx = b.load("LX", x, 0);
    let sub = b.sub("SUB", lx.now(), s);
    let div = b.div("DIV", sub.now(), d);
    b.store("ST", z, 0, div.now());
    done(b)
}

/// Horner evaluation of a degree-4 polynomial with invariant
/// coefficients: `z = (((c4*x + c3)*x + c2)*x + c1)*x + c0`.
pub fn horner4() -> Loop {
    let mut b = LoopBuilder::new("horner4");
    let cs: Vec<_> = (0..5)
        .map(|k| b.invariant(format!("c{k}"), (k as f64 + 1.0) * 0.3))
        .collect();
    let x = b.array_in("x");
    let z = b.array_out("z");
    let lx = b.load("LX", x, 0);
    let mut acc = cs[4];
    for k in (0..4).rev() {
        let m = b.mul(format!("M{k}"), acc, lx.now());
        let a = b.add(format!("A{k}"), m.now(), cs[k]);
        acc = a.now();
    }
    b.store("S", z, 0, acc);
    done(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_certify::certify_schedule;
    use ncdrf_machine::Machine;
    use ncdrf_sched::modulo_schedule;

    #[test]
    fn all_recurrence_kernels_schedule() {
        let machine = Machine::clustered(3, 1);
        for k in [
            ema(),
            seidel(),
            oscillator(),
            chain8(),
            wide8(),
            tree8(),
            lotka(),
            quantize(),
            recip2(),
            chol_scale(),
            horner4(),
        ] {
            let sched = modulo_schedule(&k, &machine)
                .unwrap_or_else(|e| panic!("{} failed: {e}", k.name()));
            certify_schedule(&k, &machine, &sched).unwrap();
        }
    }

    #[test]
    fn chain8_has_long_lifetimes_at_small_ii() {
        use ncdrf_regalloc::{lifetimes, max_live};
        let machine = Machine::clustered(6, 1);
        let k = chain8();
        let sched = modulo_schedule(&k, &machine).unwrap();
        let lts = lifetimes(&k, &machine, &sched).unwrap();
        assert!(max_live(&lts, sched.ii()) >= 8);
    }
}
