//! Multi-wafer fabric (§VI-F, Fig. 24a): several wafers joined by
//! wafer-to-wafer (W2W) links in a chain.

use crate::topology::Mesh2D;
use serde::{Deserialize, Serialize};
use wsc_arch::units::{Bandwidth, Bytes, Time};

/// A chain of wafers with W2W links between neighbours.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiWaferFabric {
    /// Number of wafers.
    pub wafers: usize,
    /// Mesh on each wafer.
    pub wafer_mesh: Mesh2D,
    /// Bandwidth of one W2W link.
    pub w2w_bw: Bandwidth,
    /// W2W link latency.
    pub w2w_latency: Time,
}

impl MultiWaferFabric {
    /// Total dies across the node.
    pub fn total_dies(&self) -> usize {
        self.wafers * self.wafer_mesh.len()
    }

    /// Time to move `bytes` across `hops` W2W crossings (store-and-forward
    /// per crossing is avoided by pipelining: latency per hop, bandwidth
    /// once).
    pub fn cross_wafer_time(&self, bytes: Bytes, hops: usize) -> Time {
        if hops == 0 {
            return Time::ZERO;
        }
        self.w2w_latency.scale(hops as f64) + bytes / self.w2w_bw
    }

    /// One W2W seam crossing expressed in intra-wafer D2D hop
    /// equivalents, for `bytes`-sized transfers: the ratio of the seam's
    /// α–β transfer time to one D2D hop's. This is the seam entry of
    /// node-level distance tables — a placement cost model extends its
    /// intra-wafer `Dist(Sᵢ, Sⱼ)` across the boundary by adding this
    /// penalty per crossing, so cross-wafer Sender→Helper pairs are
    /// priced on the same axis as intra-wafer ones. Floored at one hop:
    /// a seam is never cheaper than staying on-wafer.
    pub fn seam_hop_penalty(&self, bytes: Bytes, d2d_bw: Bandwidth, d2d_latency: Time) -> f64 {
        let seam = (self.w2w_latency + bytes / self.w2w_bw).as_secs();
        let hop = (d2d_latency + bytes / d2d_bw).as_secs();
        if hop <= 0.0 {
            return 1.0;
        }
        (seam / hop).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(bw_tbps: f64) -> MultiWaferFabric {
        MultiWaferFabric {
            wafers: 4,
            wafer_mesh: Mesh2D::new(7, 8),
            w2w_bw: Bandwidth::tb_per_s(bw_tbps),
            w2w_latency: Time::from_nanos(400.0),
        }
    }

    #[test]
    fn four_config3_wafers_hold_224_dies() {
        assert_eq!(fabric(1.8).total_dies(), 224);
    }

    #[test]
    fn lower_w2w_bandwidth_slows_transfers() {
        let fast = fabric(1.8).cross_wafer_time(Bytes::gib(1), 1);
        let slow = fabric(0.4).cross_wafer_time(Bytes::gib(1), 1);
        assert!(slow.as_secs() > fast.as_secs() * 4.0);
    }

    #[test]
    fn zero_hop_cross_wafer_is_free() {
        assert_eq!(fabric(1.8).cross_wafer_time(Bytes::gib(1), 0), Time::ZERO);
    }
}
