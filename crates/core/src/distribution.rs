//! Cumulative distributions over register requirements (Figures 6–7) and
//! allocatability percentages (Table 1).

/// One weighted observation: a loop's register requirement plus the weight
/// it contributes (1.0 for static/loop-count distributions, estimated
/// cycles for dynamic distributions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Register requirement.
    pub regs: u32,
    /// Weight (loop count or cycles).
    pub weight: f64,
}

/// A cumulative distribution: for each sampled register count, the
/// percentage of total weight requiring at most that many registers.
#[derive(Debug, Clone, PartialEq)]
pub struct Cumulative {
    /// Sample points (register counts).
    pub points: Vec<u32>,
    /// Cumulative percentage (0–100) at each point.
    pub percent: Vec<f64>,
}

impl Cumulative {
    /// Builds the cumulative distribution of `obs` at `points` (each point
    /// reports the share of weight with `regs <= point`).
    pub fn new(points: &[u32], obs: &[Observation]) -> Self {
        let total: f64 = obs.iter().map(|o| o.weight).sum();
        let percent = points
            .iter()
            .map(|&p| {
                if total <= 0.0 {
                    return 0.0;
                }
                let within: f64 = obs.iter().filter(|o| o.regs <= p).map(|o| o.weight).sum();
                100.0 * within / total
            })
            .collect();
        Cumulative {
            points: points.to_vec(),
            percent,
        }
    }

    /// The percentage at a specific point.
    ///
    /// # Panics
    ///
    /// Panics if `point` is not one of the sampled points.
    pub fn at(&self, point: u32) -> f64 {
        let i = self
            .points
            .iter()
            .position(|&p| p == point)
            .expect("point was sampled");
        self.percent[i]
    }
}

/// The default x-axis of the paper's Figures 6–7: 4..=128 registers.
pub fn default_points() -> Vec<u32> {
    (1..=32).map(|i| i * 4).collect()
}

/// The Table 1 sample points.
pub const TABLE1_POINTS: [u32; 3] = [16, 32, 64];

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(pairs: &[(u32, f64)]) -> Vec<Observation> {
        pairs
            .iter()
            .map(|&(regs, weight)| Observation { regs, weight })
            .collect()
    }

    #[test]
    fn cumulative_is_monotone() {
        let o = obs(&[(3, 1.0), (10, 2.0), (40, 1.0), (90, 4.0)]);
        let c = Cumulative::new(&default_points(), &o);
        for w in c.percent.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!((c.percent.last().unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn at_matches_hand_computation() {
        let o = obs(&[(10, 1.0), (20, 1.0), (40, 1.0), (100, 1.0)]);
        let c = Cumulative::new(&TABLE1_POINTS, &o);
        assert_eq!(c.at(16), 25.0);
        assert_eq!(c.at(32), 50.0);
        assert_eq!(c.at(64), 75.0);
    }

    #[test]
    fn weights_shift_the_distribution() {
        let balanced = Cumulative::new(&[32], &obs(&[(10, 1.0), (100, 1.0)]));
        let skewed = Cumulative::new(&[32], &obs(&[(10, 1.0), (100, 9.0)]));
        assert_eq!(balanced.at(32), 50.0);
        assert_eq!(skewed.at(32), 10.0);
    }

    #[test]
    fn empty_observations_yield_zero() {
        let c = Cumulative::new(&TABLE1_POINTS, &[]);
        assert!(c.percent.iter().all(|&p| p == 0.0));
    }
}
