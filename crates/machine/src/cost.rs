//! Register-file hardware cost models (§3.2 of the paper).
//!
//! The paper motivates the dual organisation with two published models:
//!
//! * **Area** — linear in the number of registers and bits per register,
//!   quadratic in the number of ports (ref [17], C. G. Lee's thesis):
//!   each port adds a word line and a bit line per cell, so cell area grows
//!   with the square of the port count.
//! * **Access time** — logarithmic in the number of read ports and in the
//!   number of registers (ref [18], Capitanio et al.).
//!
//! These models are used by the `hw_cost` example and tests to reproduce
//! the paper's qualitative claims: a non-consistent dual file has the area
//! class of a consistent dual file, roughly half the access-time-relevant
//! port count of the equivalent unified file, and is cheaper than doubling
//! the register count.

/// Area of a multiported register file, in arbitrary cell units.
///
/// `registers * bits * (read_ports + write_ports)^2`, following the linear
/// (registers, bits) × quadratic (ports) model of §3.2.
pub fn area(registers: u32, bits: u32, read_ports: u32, write_ports: u32) -> f64 {
    let ports = (read_ports + write_ports) as f64;
    registers as f64 * bits as f64 * ports * ports
}

/// Access time of a multiported register file, in arbitrary delay units.
///
/// `1 + a*ln(registers) + b*ln(read_ports)` with `a = b = 1`, following the
/// logarithmic model of §3.2 (both terms come from decoder and word-line
/// fan-in depth).
pub fn access_time(registers: u32, read_ports: u32) -> f64 {
    1.0 + (registers.max(1) as f64).ln() + (read_ports.max(1) as f64).ln()
}

/// A register-file organisation to be costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegFileOrg {
    /// A single multiported file.
    Unified {
        /// Architectural registers.
        registers: u32,
        /// Read ports.
        read_ports: u32,
        /// Write ports.
        write_ports: u32,
    },
    /// A consistent dual file (POWER2-style): two subfiles with identical
    /// contents; each keeps all write ports but only half the read ports.
    ConsistentDual {
        /// Architectural registers (each subfile holds all of them).
        registers: u32,
        /// Total read ports (split across the two subfiles).
        read_ports: u32,
        /// Write ports (replicated into both subfiles).
        write_ports: u32,
    },
    /// The paper's non-consistent dual file: same physical structure as the
    /// consistent dual, but the subfiles hold (partially) different values,
    /// so each subfile's `registers` entries are an independent namespace.
    NonConsistentDual {
        /// Registers per subfile.
        registers: u32,
        /// Total read ports (split across the two subfiles).
        read_ports: u32,
        /// Write ports (each result can be written to either or both
        /// subfiles, so both subfiles keep all write ports).
        write_ports: u32,
    },
}

/// Cost summary of a register-file organisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegFileCost {
    /// Total area, arbitrary units.
    pub area: f64,
    /// Access time of the slowest subfile, arbitrary units.
    pub access_time: f64,
    /// Bits needed in an instruction to name one operand register.
    pub operand_bits: u32,
}

impl RegFileOrg {
    /// Costs this organisation with `bits`-wide registers.
    ///
    /// ```
    /// # use ncdrf_machine::RegFileOrg;
    /// let uni = RegFileOrg::Unified { registers: 64, read_ports: 8, write_ports: 4 };
    /// let dual = RegFileOrg::NonConsistentDual { registers: 64, read_ports: 8, write_ports: 4 };
    /// let (u, d) = (uni.cost(64), dual.cost(64));
    /// assert!(d.access_time < u.access_time);
    /// assert_eq!(u.operand_bits, d.operand_bits);
    /// ```
    pub fn cost(self, bits: u32) -> RegFileCost {
        match self {
            RegFileOrg::Unified {
                registers,
                read_ports,
                write_ports,
            } => RegFileCost {
                area: area(registers, bits, read_ports, write_ports),
                access_time: access_time(registers, read_ports),
                operand_bits: log2_ceil(registers),
            },
            RegFileOrg::ConsistentDual {
                registers,
                read_ports,
                write_ports,
            }
            | RegFileOrg::NonConsistentDual {
                registers,
                read_ports,
                write_ports,
            } => {
                let half_reads = read_ports.div_ceil(2);
                RegFileCost {
                    area: 2.0 * area(registers, bits, half_reads, write_ports),
                    access_time: access_time(registers, half_reads),
                    operand_bits: log2_ceil(registers),
                }
            }
        }
    }
}

fn log2_ceil(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        32 - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_is_quadratic_in_ports() {
        let a1 = area(64, 64, 4, 2);
        let a2 = area(64, 64, 8, 4);
        assert!((a2 / a1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn access_time_grows_logarithmically() {
        let t64 = access_time(64, 8);
        let t128 = access_time(128, 8);
        assert!(t128 > t64);
        assert!((t128 - t64 - 2f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn dual_is_faster_than_unified_same_capacity() {
        let uni = RegFileOrg::Unified {
            registers: 64,
            read_ports: 8,
            write_ports: 4,
        }
        .cost(64);
        let dual = RegFileOrg::NonConsistentDual {
            registers: 64,
            read_ports: 8,
            write_ports: 4,
        }
        .cost(64);
        assert!(dual.access_time < uni.access_time);
    }

    #[test]
    fn ncdrf_cheaper_than_doubling_registers() {
        // §6: the proposed organisation is cheaper than doubling the number
        // of registers — fewer operand bits and less area than a unified
        // file with 2R registers, and no access-time penalty.
        let doubled = RegFileOrg::Unified {
            registers: 128,
            read_ports: 8,
            write_ports: 4,
        }
        .cost(64);
        let ncdrf = RegFileOrg::NonConsistentDual {
            registers: 64,
            read_ports: 8,
            write_ports: 4,
        }
        .cost(64);
        assert!(ncdrf.operand_bits < doubled.operand_bits);
        assert!(ncdrf.access_time < doubled.access_time);
    }

    #[test]
    fn consistent_and_nonconsistent_have_equal_hardware_cost() {
        let c = RegFileOrg::ConsistentDual {
            registers: 64,
            read_ports: 8,
            write_ports: 4,
        }
        .cost(64);
        let n = RegFileOrg::NonConsistentDual {
            registers: 64,
            read_ports: 8,
            write_ports: 4,
        }
        .cost(64);
        assert_eq!(c, n);
    }

    #[test]
    fn operand_bits() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(32), 5);
        assert_eq!(log2_ceil(33), 6);
        assert_eq!(log2_ceil(64), 6);
        assert_eq!(log2_ceil(128), 7);
    }
}
