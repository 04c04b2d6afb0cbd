//! Mesh-switch topology (Fig. 23): small die meshes joined by a central
//! switch network, after the PD paper's physical/logical co-design.
//!
//! The Fig. 23 instance reconfigures Config 3 into 48 dies arranged as 12
//! groups of 2×2 meshes behind a 1.6 TB/s switch.

use crate::topology::Mesh2D;
use serde::{Deserialize, Serialize};
use wsc_arch::units::{Bandwidth, Bytes, Time};

/// A mesh-switch fabric: `groups` small meshes of `group_mesh` dies each,
/// all attached to a shared switch network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeshSwitchTopology {
    /// Number of die groups.
    pub groups: usize,
    /// Mesh inside one group.
    pub group_mesh: Mesh2D,
    /// Aggregate switch bandwidth shared by inter-group traffic.
    pub switch_bw: Bandwidth,
    /// Switch traversal latency.
    pub switch_latency: Time,
}

impl MeshSwitchTopology {
    /// The Fig. 23 instance: 12 × (2×2) dies, 1.6 TB/s switch.
    pub fn fig23() -> Self {
        MeshSwitchTopology {
            groups: 12,
            group_mesh: Mesh2D::new(2, 2),
            switch_bw: Bandwidth::tb_per_s(1.6),
            switch_latency: Time::from_nanos(200.0),
        }
    }

    /// Total die count.
    pub fn total_dies(&self) -> usize {
        self.groups * self.group_mesh.len()
    }

    /// Time for an inter-group transfer when `concurrent` transfers share
    /// the switch.
    pub fn inter_group_time(&self, bytes: Bytes, concurrent: usize) -> Time {
        let share = self.switch_bw / concurrent.max(1) as f64;
        self.switch_latency + bytes / share
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig23_has_48_dies() {
        let t = MeshSwitchTopology::fig23();
        assert_eq!(t.total_dies(), 48);
    }

    #[test]
    fn switch_is_shared_bandwidth() {
        let t = MeshSwitchTopology::fig23();
        let one = t.inter_group_time(Bytes::gib(1), 1);
        let four = t.inter_group_time(Bytes::gib(1), 4);
        assert!(four.as_secs() > one.as_secs() * 3.5);
    }
}
