//! Stencil and filter kernels (spatial reuse, wide fan-in).

use ncdrf_ddg::{Loop, LoopBuilder, Weight};

fn done(b: LoopBuilder) -> Loop {
    b.finish(Weight::default())
        .expect("hand-written kernel is valid")
}

/// 3-point average: `z[i] = (x[i-1] + x[i] + x[i+1]) * third`.
pub fn stencil3() -> Loop {
    let mut b = LoopBuilder::new("stencil3");
    let third = b.invariant("third", 1.0 / 3.0);
    let x = b.array_in("x");
    let z = b.array_out("z");
    let lm = b.load("LM", x, -1);
    let l0 = b.load("L0", x, 0);
    let lp = b.load("LP", x, 1);
    let a1 = b.add("A1", lm.now(), l0.now());
    let a2 = b.add("A2", a1.now(), lp.now());
    let m = b.mul("M", a2.now(), third);
    b.store("S", z, 0, m.now());
    done(b)
}

/// 5-point weighted stencil:
/// `z[i] = c0*x[i] + c1*(x[i-1]+x[i+1]) + c2*(x[i-2]+x[i+2])`.
pub fn stencil5() -> Loop {
    let mut b = LoopBuilder::new("stencil5");
    let c0 = b.invariant("c0", 0.5);
    let c1 = b.invariant("c1", 0.25);
    let c2 = b.invariant("c2", 0.125);
    let x = b.array_in("x");
    let z = b.array_out("z");
    let lm2 = b.load("LM2", x, -2);
    let lm1 = b.load("LM1", x, -1);
    let l0 = b.load("L0", x, 0);
    let lp1 = b.load("LP1", x, 1);
    let lp2 = b.load("LP2", x, 2);
    let s1 = b.add("S1", lm1.now(), lp1.now());
    let s2 = b.add("S2", lm2.now(), lp2.now());
    let m0 = b.mul("M0", l0.now(), c0);
    let m1 = b.mul("M1", s1.now(), c1);
    let m2 = b.mul("M2", s2.now(), c2);
    let a1 = b.add("A1", m0.now(), m1.now());
    let a2 = b.add("A2", a1.now(), m2.now());
    b.store("S", z, 0, a2.now());
    done(b)
}

/// 4-tap FIR filter: `y[i] = sum_k c_k * x[i+k]`.
pub fn fir4() -> Loop {
    let mut b = LoopBuilder::new("fir4");
    let c: Vec<_> = (0..4)
        .map(|k| b.invariant(format!("c{k}"), 0.1 * (k + 1) as f64))
        .collect();
    let x = b.array_in("x");
    let y = b.array_out("y");
    let loads: Vec<_> = (0..4)
        .map(|k| b.load(format!("L{k}"), x, k as i64))
        .collect();
    let m: Vec<_> = (0..4)
        .map(|k| b.mul(format!("M{k}"), loads[k].now(), c[k]))
        .collect();
    let a1 = b.add("A1", m[0].now(), m[1].now());
    let a2 = b.add("A2", m[2].now(), m[3].now());
    let a3 = b.add("A3", a1.now(), a2.now());
    b.store("S", y, 0, a3.now());
    done(b)
}

/// Explicit heat-equation step:
/// `u1[i] = u[i] + k*(u[i-1] - 2u[i] + u[i+1])`.
pub fn heat() -> Loop {
    let mut b = LoopBuilder::new("heat");
    let k = b.invariant("k", 0.1);
    let two = b.invariant("two", 2.0);
    let u = b.array_in("u");
    let u1 = b.array_out("u1");
    let lm = b.load("LM", u, -1);
    let l0 = b.load("L0", u, 0);
    let lp = b.load("LP", u, 1);
    let m2 = b.mul("M2", l0.now(), two);
    let s1 = b.add("S1", lm.now(), lp.now());
    let lap = b.sub("LAP", s1.now(), m2.now());
    let mk = b.mul("MK", lap.now(), k);
    let a = b.add("A", l0.now(), mk.now());
    b.store("S", u1, 0, a.now());
    done(b)
}

/// Wave-equation leapfrog update:
/// `un[i] = 2u[i] - uo[i] + c*(u[i+1] - 2u[i] + u[i-1])`.
pub fn wave() -> Loop {
    let mut b = LoopBuilder::new("wave");
    let c = b.invariant("c", 0.09);
    let two = b.invariant("two", 2.0);
    let u = b.array_in("u");
    let uo = b.array_in("uo");
    let un = b.array_out("un");
    let lm = b.load("LM", u, -1);
    let l0 = b.load("L0", u, 0);
    let lp = b.load("LP", u, 1);
    let lo = b.load("LO", uo, 0);
    let m2 = b.mul("M2", l0.now(), two);
    let s1 = b.add("S1", lm.now(), lp.now());
    let lap = b.sub("LAP", s1.now(), m2.now());
    let mc = b.mul("MC", lap.now(), c);
    let t1 = b.sub("T1", m2.now(), lo.now());
    let t2 = b.add("T2", t1.now(), mc.now());
    b.store("S", un, 0, t2.now());
    done(b)
}

/// Complex multiply over split re/im arrays:
/// `zr = xr*yr - xi*yi`, `zi = xr*yi + xi*yr`.
pub fn cmul() -> Loop {
    let mut b = LoopBuilder::new("cmul");
    let xr = b.array_in("xr");
    let xi = b.array_in("xi");
    let yr = b.array_in("yr");
    let yi = b.array_in("yi");
    let zr = b.array_out("zr");
    let zi = b.array_out("zi");
    let lxr = b.load("LXR", xr, 0);
    let lxi = b.load("LXI", xi, 0);
    let lyr = b.load("LYR", yr, 0);
    let lyi = b.load("LYI", yi, 0);
    let m1 = b.mul("M1", lxr.now(), lyr.now());
    let m2 = b.mul("M2", lxi.now(), lyi.now());
    let m3 = b.mul("M3", lxr.now(), lyi.now());
    let m4 = b.mul("M4", lxi.now(), lyr.now());
    let sr = b.sub("SR", m1.now(), m2.now());
    let si = b.add("SI", m3.now(), m4.now());
    b.store("SZR", zr, 0, sr.now());
    b.store("SZI", zi, 0, si.now());
    done(b)
}

/// FFT-style butterfly with invariant twiddle factors:
/// `ar = xr + (wr*yr - wi*yi)`, `ai = xi + (wr*yi + wi*yr)`.
pub fn butterfly() -> Loop {
    let mut b = LoopBuilder::new("butterfly");
    let wr = b.invariant("wr", std::f64::consts::FRAC_1_SQRT_2);
    let wi = b.invariant("wi", -std::f64::consts::FRAC_1_SQRT_2);
    let xr = b.array_in("xr");
    let xi = b.array_in("xi");
    let yr = b.array_in("yr");
    let yi = b.array_in("yi");
    let ar = b.array_out("ar");
    let ai = b.array_out("ai");
    let lxr = b.load("LXR", xr, 0);
    let lxi = b.load("LXI", xi, 0);
    let lyr = b.load("LYR", yr, 0);
    let lyi = b.load("LYI", yi, 0);
    let m1 = b.mul("M1", lyr.now(), wr);
    let m2 = b.mul("M2", lyi.now(), wi);
    let m3 = b.mul("M3", lyi.now(), wr);
    let m4 = b.mul("M4", lyr.now(), wi);
    let tr = b.sub("TR", m1.now(), m2.now());
    let ti = b.add("TI", m3.now(), m4.now());
    let sr = b.add("SR", lxr.now(), tr.now());
    let si = b.add("SI", lxi.now(), ti.now());
    b.store("SAR", ar, 0, sr.now());
    b.store("SAI", ai, 0, si.now());
    done(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_certify::certify_schedule;
    use ncdrf_machine::Machine;
    use ncdrf_sched::modulo_schedule;

    #[test]
    fn all_stencils_schedule_and_verify() {
        let machine = Machine::clustered(6, 1);
        for k in [
            stencil3(),
            stencil5(),
            fir4(),
            heat(),
            wave(),
            cmul(),
            butterfly(),
        ] {
            let sched = modulo_schedule(&k, &machine)
                .unwrap_or_else(|e| panic!("{} failed: {e}", k.name()));
            certify_schedule(&k, &machine, &sched).unwrap();
        }
    }

    #[test]
    fn stencil5_is_load_bound() {
        // 5 loads + 1 store over 2 mem ports: ResMII >= 3.
        use ncdrf_sched::res_mii;
        let machine = Machine::clustered(3, 1);
        assert!(res_mii(&stencil5(), &machine).unwrap() >= 3);
    }
}
