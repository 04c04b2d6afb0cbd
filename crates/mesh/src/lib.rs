//! # wsc-mesh — wafer fabric: topology, routing, collectives, contention
//!
//! The communication substrate of the WATOS reproduction: the 2D-mesh
//! wafer fabric of Fig. 3, deterministic and adaptive routing, the α–β
//! model of Eq. 1, ring/TACOS/2D collective cost models (Figs. 5b and 21),
//! contention-aware traffic assignment with the §IV-E-2 punishment factor,
//! and the mesh-switch topology of Fig. 23. A multi-wafer node's W2W
//! seams (Fig. 24a) are α–β links too: [`multi_hop_time`] prices them.
//!
//! ```
//! use wsc_mesh::collective::{all_reduce_time, CollectiveAlgo, GroupShape};
//! use wsc_arch::units::{Bandwidth, Bytes, Time};
//!
//! // A TP=4 group embedded as a 2x2 rectangle.
//! let t = all_reduce_time(
//!     CollectiveAlgo::RingBi,
//!     GroupShape::new(2, 2),
//!     Bytes::mib(256),
//!     Bandwidth::tb_per_s(1.0),
//!     Time::from_nanos(50.0),
//! );
//! assert!(t.as_secs() > 0.0);
//! ```

pub mod alpha_beta;
pub mod collective;
pub mod contention;
pub mod routing;
pub mod switch;
pub mod topology;

pub use crate::alpha_beta::{multi_hop_time, transfer_time};
pub use crate::collective::{
    all_gather_time, all_reduce_time, flat_all_reduce_time, reduce_scatter_time, ring_busy_links,
    ring_link_utilization, CollectiveAlgo, GroupShape,
};
pub use crate::contention::{CommTask, RoutedTask, TaskKind, TrafficAssigner};
pub use crate::routing::{adaptive_route, path_links, shortest_paths, xy_path};
pub use crate::switch::MeshSwitchTopology;
pub use crate::topology::{DirLink, Mesh2D, NodeId};
