//! Machine configuration types and the paper's presets.

use ncdrf_ddg::{Loop, OpKind};
use std::fmt;

/// Identifier of a cluster (0 = "left", 1 = "right" in the paper's
/// two-cluster machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// The left cluster of a two-cluster machine.
    pub const LEFT: ClusterId = ClusterId(0);
    /// The right cluster of a two-cluster machine.
    pub const RIGHT: ClusterId = ClusterId(1);

    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => f.write_str("left"),
            1 => f.write_str("right"),
            n => write!(f, "cluster{n}"),
        }
    }
}

/// Functional-unit classes of the paper's machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// FP adder: additions, subtractions, conversions.
    Adder,
    /// FP multiplier: multiplications and divisions (same latency, §5.2).
    Multiplier,
    /// Combined load/store unit (the clustered machine).
    MemPort,
    /// Dedicated load port (the `PxLy` machines have two).
    LoadPort,
    /// Dedicated store port (the `PxLy` machines have one).
    StorePort,
}

impl FuClass {
    /// Whether this class serves the given operation kind.
    pub fn serves(self, kind: OpKind) -> bool {
        match self {
            FuClass::Adder => matches!(kind, OpKind::FpAdd | OpKind::FpSub | OpKind::Conv),
            FuClass::Multiplier => matches!(kind, OpKind::FpMul | OpKind::FpDiv),
            FuClass::MemPort => matches!(kind, OpKind::Load | OpKind::Store),
            FuClass::LoadPort => matches!(kind, OpKind::Load),
            FuClass::StorePort => matches!(kind, OpKind::Store),
        }
    }
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::Adder => "adder",
            FuClass::Multiplier => "multiplier",
            FuClass::MemPort => "mem",
            FuClass::LoadPort => "load-port",
            FuClass::StorePort => "store-port",
        };
        f.write_str(s)
    }
}

/// A group of identical, fully-pipelined functional units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuGroup {
    /// The unit class.
    pub class: FuClass,
    /// Operation latency in cycles (initiation rate is 1/cycle — fully
    /// pipelined).
    pub latency: u32,
    /// Cluster of each unit instance; `cluster_of.len()` is the unit count.
    pub cluster_of: Vec<ClusterId>,
}

impl FuGroup {
    /// Creates a group of `count` units, all in cluster 0.
    pub fn unified(class: FuClass, latency: u32, count: u32) -> Self {
        FuGroup {
            class,
            latency,
            cluster_of: vec![ClusterId(0); count as usize],
        }
    }

    /// Number of unit instances in the group.
    pub fn count(&self) -> usize {
        self.cluster_of.len()
    }
}

/// Reference to one functional-unit instance: a group index plus an
/// instance index inside the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitRef {
    /// Index into [`Machine::groups`].
    pub group: usize,
    /// Instance within the group.
    pub instance: usize,
}

/// Error produced when a machine description cannot serve a loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// No functional-unit group serves this operation kind.
    Unserved(OpKind),
    /// More than one group serves this operation kind (ambiguous binding).
    Ambiguous(OpKind),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Unserved(k) => write!(f, "no functional unit serves `{k}`"),
            MachineError::Ambiguous(k) => {
                write!(f, "more than one functional-unit group serves `{k}`")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// A VLIW machine description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    name: String,
    groups: Vec<FuGroup>,
    clusters: u32,
}

impl Machine {
    /// Builds a machine from explicit groups.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Ambiguous`] if two groups serve the same
    /// operation kind (every kind must have exactly one home group).
    pub fn new(
        name: impl Into<String>,
        groups: Vec<FuGroup>,
        clusters: u32,
    ) -> Result<Self, MachineError> {
        for kind in OpKind::all() {
            let n = groups.iter().filter(|g| g.class.serves(kind)).count();
            if n > 1 {
                return Err(MachineError::Ambiguous(kind));
            }
        }
        Ok(Machine {
            name: name.into(),
            groups,
            clusters: clusters.max(1),
        })
    }

    /// The paper's `PxLy` unified configuration (Table 1): `x` adders and
    /// `x` multipliers of latency `lat`, two load ports and one store port
    /// of latency 1.
    ///
    /// ```
    /// # use ncdrf_machine::Machine;
    /// let m = Machine::pxly(2, 6);
    /// assert_eq!(m.name(), "P2L6");
    /// assert_eq!(m.clusters(), 1);
    /// ```
    pub fn pxly(x: u32, lat: u32) -> Self {
        Machine::new(
            format!("P{x}L{lat}"),
            vec![
                FuGroup::unified(FuClass::Adder, lat, x),
                FuGroup::unified(FuClass::Multiplier, lat, x),
                FuGroup::unified(FuClass::LoadPort, 1, 2),
                FuGroup::unified(FuClass::StorePort, 1, 1),
            ],
            1,
        )
        .expect("preset is unambiguous")
    }

    /// The two-cluster evaluation machine of §5.2: per cluster, 1 adder and
    /// 1 multiplier of latency `lat` plus `ls_per_cluster` load/store units
    /// of latency 1. The figures use `ls_per_cluster = 1`; the worked
    /// example of §4 uses `ls_per_cluster = 2`.
    ///
    /// ```
    /// # use ncdrf_machine::Machine;
    /// let m = Machine::clustered(3, 1);
    /// assert_eq!(m.clusters(), 2);
    /// assert_eq!(m.total_units(), 6);
    /// ```
    pub fn clustered(lat: u32, ls_per_cluster: u32) -> Self {
        let two = vec![ClusterId::LEFT, ClusterId::RIGHT];
        let mut ls = Vec::new();
        for c in [ClusterId::LEFT, ClusterId::RIGHT] {
            for _ in 0..ls_per_cluster {
                ls.push(c);
            }
        }
        Machine::new(
            format!("C2L{lat}"),
            vec![
                FuGroup {
                    class: FuClass::Adder,
                    latency: lat,
                    cluster_of: two.clone(),
                },
                FuGroup {
                    class: FuClass::Multiplier,
                    latency: lat,
                    cluster_of: two,
                },
                FuGroup {
                    class: FuClass::MemPort,
                    latency: 1,
                    cluster_of: ls,
                },
            ],
            2,
        )
        .expect("preset is unambiguous")
    }

    /// A `k`-cluster generalisation of [`Machine::clustered`]: per
    /// cluster, 1 adder and 1 multiplier of latency `lat` plus
    /// `ls_per_cluster` load/store units of latency 1. Used by the
    /// k-cluster extension study (`ncdrf-regalloc`'s `multi` module).
    ///
    /// ```
    /// # use ncdrf_machine::Machine;
    /// let m = Machine::clustered_n(4, 3, 1);
    /// assert_eq!(m.clusters(), 4);
    /// assert_eq!(m.total_units(), 12);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `clusters == 0`.
    pub fn clustered_n(clusters: u32, lat: u32, ls_per_cluster: u32) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        let per: Vec<ClusterId> = (0..clusters).map(ClusterId).collect();
        let mut ls = Vec::new();
        for &c in &per {
            for _ in 0..ls_per_cluster {
                ls.push(c);
            }
        }
        Machine::new(
            format!("C{clusters}L{lat}"),
            vec![
                FuGroup {
                    class: FuClass::Adder,
                    latency: lat,
                    cluster_of: per.clone(),
                },
                FuGroup {
                    class: FuClass::Multiplier,
                    latency: lat,
                    cluster_of: per,
                },
                FuGroup {
                    class: FuClass::MemPort,
                    latency: 1,
                    cluster_of: ls,
                },
            ],
            clusters,
        )
        .expect("preset is unambiguous")
    }

    /// The machine name (e.g. `"P2L6"`, `"C2L3"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functional-unit groups.
    pub fn groups(&self) -> &[FuGroup] {
        &self.groups
    }

    /// Number of clusters (1 = unified).
    pub fn clusters(&self) -> u32 {
        self.clusters
    }

    /// Total functional-unit instances.
    pub fn total_units(&self) -> usize {
        self.groups.iter().map(|g| g.count()).sum()
    }

    /// The group index serving `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Unserved`] if no group serves `kind`.
    pub fn group_for(&self, kind: OpKind) -> Result<usize, MachineError> {
        self.groups
            .iter()
            .position(|g| g.class.serves(kind))
            .ok_or(MachineError::Unserved(kind))
    }

    /// Latency of operations of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Unserved`] if no group serves `kind`.
    pub fn latency(&self, kind: OpKind) -> Result<u32, MachineError> {
        Ok(self.groups[self.group_for(kind)?].latency)
    }

    /// The cluster a unit belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn cluster_of(&self, unit: UnitRef) -> ClusterId {
        self.groups[unit.group].cluster_of[unit.instance]
    }

    /// Total memory bandwidth: number of units able to issue a memory
    /// operation each cycle.
    pub fn memory_ports(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| {
                matches!(
                    g.class,
                    FuClass::MemPort | FuClass::LoadPort | FuClass::StorePort
                )
            })
            .map(|g| g.count())
            .sum()
    }

    /// Checks that every operation of `l` can be served by this machine.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Unserved`] naming the first kind without a
    /// home unit.
    pub fn check_loop(&self, l: &Loop) -> Result<(), MachineError> {
        for op in l.ops() {
            self.group_for(op.kind())?;
        }
        Ok(())
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (", self.name)?;
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}x{} L{}", g.count(), g.class, g.latency)?;
        }
        write!(f, "; {} cluster(s))", self.clusters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pxly_preset_shape() {
        let m = Machine::pxly(2, 6);
        assert_eq!(m.latency(OpKind::FpAdd), Ok(6));
        assert_eq!(m.latency(OpKind::FpMul), Ok(6));
        assert_eq!(m.latency(OpKind::Load), Ok(1));
        assert_eq!(m.latency(OpKind::Store), Ok(1));
        assert_eq!(m.memory_ports(), 3);
        assert_eq!(m.total_units(), 7);
    }

    #[test]
    fn clustered_preset_shape() {
        let m = Machine::clustered(3, 2);
        assert_eq!(m.clusters(), 2);
        assert_eq!(m.total_units(), 8);
        assert_eq!(m.memory_ports(), 4);
        // Adder instance 0 is left, 1 is right.
        let g = m.group_for(OpKind::FpAdd).unwrap();
        assert_eq!(
            m.cluster_of(UnitRef {
                group: g,
                instance: 0
            }),
            ClusterId::LEFT
        );
        assert_eq!(
            m.cluster_of(UnitRef {
                group: g,
                instance: 1
            }),
            ClusterId::RIGHT
        );
    }

    #[test]
    fn clustered_n_generalises_clustered() {
        let a = Machine::clustered(3, 1);
        let b = Machine::clustered_n(2, 3, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn ambiguous_machines_rejected() {
        let err = Machine::new(
            "amb",
            vec![
                FuGroup::unified(FuClass::MemPort, 1, 1),
                FuGroup::unified(FuClass::LoadPort, 1, 1),
            ],
            1,
        );
        assert_eq!(err, Err(MachineError::Ambiguous(OpKind::Load)));
    }

    #[test]
    fn conv_runs_on_adder() {
        let m = Machine::pxly(1, 3);
        assert_eq!(
            m.group_for(OpKind::Conv).unwrap(),
            m.group_for(OpKind::FpAdd).unwrap()
        );
        assert_eq!(
            m.group_for(OpKind::FpDiv).unwrap(),
            m.group_for(OpKind::FpMul).unwrap()
        );
    }

    #[test]
    fn display_is_informative() {
        let m = Machine::clustered(6, 1);
        let s = m.to_string();
        assert!(s.contains("C2L6"));
        assert!(s.contains("2 cluster(s)"));
    }
}
