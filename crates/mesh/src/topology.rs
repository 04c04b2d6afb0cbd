//! 2D-mesh wafer fabric topology.
//!
//! Dies are laid out on an `nx × ny` grid; adjacent dies are joined by
//! full-duplex D2D links (one directed link per direction). This module
//! provides coordinates, adjacency, and link iteration; routing policies
//! live in [`crate::routing`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a die on the wafer fabric (row-major).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A directed link between two adjacent dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DirLink {
    /// Source die.
    pub from: NodeId,
    /// Destination die.
    pub to: NodeId,
}

impl DirLink {
    /// Construct a directed link.
    pub fn new(from: NodeId, to: NodeId) -> Self {
        DirLink { from, to }
    }

    /// The opposite direction of the same physical channel pair.
    pub fn reversed(self) -> Self {
        DirLink {
            from: self.to,
            to: self.from,
        }
    }
}

impl fmt::Display for DirLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// An `nx × ny` 2D mesh of dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh2D {
    /// Dies along X.
    pub nx: usize,
    /// Dies along Y.
    pub ny: usize,
}

impl Mesh2D {
    /// Construct a mesh.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "mesh dimensions must be positive");
        Mesh2D { nx, ny }
    }

    /// Total die count.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// True for a degenerate 1×1 mesh.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Node at grid position `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the position is out of bounds.
    pub fn node(&self, x: usize, y: usize) -> NodeId {
        assert!(
            x < self.nx && y < self.ny,
            "({x},{y}) outside {}x{}",
            self.nx,
            self.ny
        );
        NodeId(y * self.nx + x)
    }

    /// Grid position of `n`.
    pub fn pos(&self, n: NodeId) -> (usize, usize) {
        (n.0 % self.nx, n.0 / self.nx)
    }

    /// Manhattan (hop) distance between two dies.
    pub fn manhattan(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.pos(a);
        let (bx, by) = self.pos(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Mesh neighbours of `n` (2–4 dies).
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let (x, y) = self.pos(n);
        let mut out = Vec::with_capacity(4);
        if x > 0 {
            out.push(self.node(x - 1, y));
        }
        if x + 1 < self.nx {
            out.push(self.node(x + 1, y));
        }
        if y > 0 {
            out.push(self.node(x, y - 1));
        }
        if y + 1 < self.ny {
            out.push(self.node(x, y + 1));
        }
        out
    }

    /// True when `a` and `b` are mesh-adjacent.
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.manhattan(a, b) == 1
    }

    /// All directed links of the mesh.
    pub fn links(&self) -> Vec<DirLink> {
        let mut out = Vec::new();
        for y in 0..self.ny {
            for x in 0..self.nx {
                let n = self.node(x, y);
                for m in self.neighbors(n) {
                    out.push(DirLink::new(n, m));
                }
            }
        }
        out
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        2 * ((self.nx - 1) * self.ny + self.nx * (self.ny - 1))
    }

    /// Iterate over every node id.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_pos_round_trip() {
        let m = Mesh2D::new(7, 8);
        for y in 0..8 {
            for x in 0..7 {
                let n = m.node(x, y);
                assert_eq!(m.pos(n), (x, y));
            }
        }
    }

    #[test]
    fn corner_has_two_neighbors_center_has_four() {
        let m = Mesh2D::new(4, 4);
        assert_eq!(m.neighbors(m.node(0, 0)).len(), 2);
        assert_eq!(m.neighbors(m.node(1, 1)).len(), 4);
        assert_eq!(m.neighbors(m.node(3, 0)).len(), 2);
        assert_eq!(m.neighbors(m.node(2, 0)).len(), 3);
    }

    #[test]
    fn link_count_formula_matches_enumeration() {
        for (nx, ny) in [(2, 2), (7, 8), (8, 8), (1, 5), (5, 1)] {
            let m = Mesh2D::new(nx, ny);
            assert_eq!(m.links().len(), m.link_count(), "{nx}x{ny}");
        }
    }

    #[test]
    fn manhattan_distance() {
        let m = Mesh2D::new(8, 8);
        assert_eq!(m.manhattan(m.node(0, 0), m.node(3, 4)), 7);
        assert_eq!(m.manhattan(m.node(5, 5), m.node(5, 5)), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_node_panics() {
        let m = Mesh2D::new(2, 2);
        let _ = m.node(2, 0);
    }

    #[test]
    fn reversed_link() {
        let l = DirLink::new(NodeId(1), NodeId(2));
        assert_eq!(l.reversed(), DirLink::new(NodeId(2), NodeId(1)));
    }
}
