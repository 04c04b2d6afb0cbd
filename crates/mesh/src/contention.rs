//! Communication-task-to-link assignment with contention avoidance
//! (the PP engine's inter-stage strategy, §IV-E-2).
//!
//! Tasks are assigned in descending size order; candidate shortest paths
//! are scored by the load they would add, with occupied links punished so
//! pipeline traffic and activation-balancing traffic land on disjoint
//! links when possible (Fig. 13 step 4).

use crate::routing::{path_links, shortest_paths};
use crate::topology::{DirLink, Mesh2D, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wsc_arch::fault::FaultMap;
use wsc_arch::units::{Bandwidth, Bytes, Time};

/// What kind of traffic a task carries (used for conflict accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Inter-stage pipeline activation/gradient transfer.
    Pipeline,
    /// Sender→Helper activation-checkpoint balancing.
    ActivationBalance,
}

/// A point-to-point communication task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommTask {
    /// Source die.
    pub src: NodeId,
    /// Destination die.
    pub dst: NodeId,
    /// Volume per pipeline iteration.
    pub bytes: Bytes,
    /// Traffic class.
    pub kind: TaskKind,
    /// Caller-defined tag carried through routing (e.g. the pipeline
    /// stage-boundary index), so routed tasks can be attributed back to
    /// their origin without re-deriving it from endpoints.
    pub tag: usize,
}

/// A task together with its chosen route.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedTask {
    /// The original task.
    pub task: CommTask,
    /// Node path (inclusive of endpoints).
    pub path: Vec<NodeId>,
}

impl RoutedTask {
    /// Hop count of the chosen route.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Greedy contention-aware traffic assigner.
#[derive(Debug, Clone)]
pub struct TrafficAssigner {
    mesh: Mesh2D,
    punish: f64,
    max_paths: usize,
    faults: FaultMap,
    // Bytes routed over each link so far.
    link_bytes: BTreeMap<DirLink, f64>,
    routed: Vec<RoutedTask>,
}

impl TrafficAssigner {
    /// Create an assigner with punishment factor `punish` for already
    /// occupied links (0 disables contention avoidance).
    pub fn new(mesh: Mesh2D, punish: f64) -> Self {
        TrafficAssigner {
            mesh,
            punish,
            max_paths: 16,
            faults: FaultMap::none(),
            link_bytes: BTreeMap::new(),
            routed: Vec::new(),
        }
    }

    /// Attach a fault map; degraded links attract proportionally less
    /// traffic and dead links are never chosen.
    pub fn with_faults(mut self, faults: FaultMap) -> Self {
        self.faults = faults;
        self
    }

    fn link_quality(&self, l: DirLink) -> f64 {
        let a = self.mesh.pos(l.from);
        let b = self.mesh.pos(l.to);
        self.faults.link_quality(a, b)
    }

    fn path_cost(&self, path: &[NodeId], bytes: f64) -> f64 {
        let mut cost = 0.0;
        for l in path_links(path) {
            let q = self.link_quality(l);
            if q <= 0.0 {
                return f64::INFINITY;
            }
            let existing = *self.link_bytes.get(&l).unwrap_or(&0.0);
            let occupied = if existing > 0.0 {
                1.0 + self.punish
            } else {
                1.0
            };
            cost += (existing + bytes) * occupied / q;
        }
        cost
    }

    /// Assign one task to its cheapest shortest path; falls back to
    /// fault-adaptive routing when every shortest path is dead.
    pub fn assign(&mut self, task: CommTask) -> &RoutedTask {
        let candidates = shortest_paths(&self.mesh, task.src, task.dst, self.max_paths);
        let bytes = task.bytes.as_f64();
        let mut best: Option<(f64, Vec<NodeId>)> = None;
        for p in candidates {
            let c = self.path_cost(&p, bytes);
            if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                best = Some((c, p));
            }
        }
        let path = match best {
            Some((c, p)) if c.is_finite() => p,
            _ => crate::routing::adaptive_route(&self.mesh, task.src, task.dst, |l| {
                let q = self.link_quality(l);
                if q <= 0.0 {
                    f64::INFINITY
                } else {
                    (1.0 + *self.link_bytes.get(&l).unwrap_or(&0.0)) / q
                }
            })
            .unwrap_or_else(|| vec![task.src, task.dst]),
        };
        for l in path_links(&path) {
            *self.link_bytes.entry(l).or_insert(0.0) += bytes;
        }
        self.routed.push(RoutedTask { task, path });
        // wsc-lint: allow(S001, "the push on the previous line guarantees the vec is non-empty")
        self.routed.last().expect("just pushed")
    }

    /// Assign a batch of tasks in descending size order (§IV-E-2:
    /// "allocate these communication tasks to links in order of size").
    pub fn assign_all(&mut self, mut tasks: Vec<CommTask>) {
        tasks.sort_by_key(|t| std::cmp::Reverse(t.bytes));
        for t in tasks {
            self.assign(t);
        }
    }

    /// All routed tasks so far.
    pub fn routed(&self) -> &[RoutedTask] {
        &self.routed
    }

    /// Completion time of a specific routed task: its bytes over the
    /// most-contended link of its path (fair sharing).
    pub fn task_time(&self, rt: &RoutedTask, link_bw: Bandwidth, alpha: Time) -> Time {
        let links = path_links(&rt.path);
        if links.is_empty() {
            return Time::ZERO;
        }
        let mut worst = Time::ZERO;
        for l in &links {
            let total = *self.link_bytes.get(l).unwrap_or(&0.0);
            let share = if total > 0.0 {
                rt.task.bytes.as_f64() / total
            } else {
                1.0
            };
            let q = self.link_quality(*l).max(1e-9);
            let eff_bw = link_bw.scale(share * q);
            worst = worst.max(rt.task.bytes / eff_bw);
        }
        worst + alpha.scale(links.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(m: &Mesh2D, a: (usize, usize), b: (usize, usize), mb: u64, kind: TaskKind) -> CommTask {
        CommTask {
            src: m.node(a.0, a.1),
            dst: m.node(b.0, b.1),
            bytes: Bytes::mib(mb),
            kind,
            tag: 0,
        }
    }

    #[test]
    fn single_task_takes_a_shortest_path() {
        let m = Mesh2D::new(4, 4);
        let mut a = TrafficAssigner::new(m, 1.0);
        let rt = a
            .assign(task(&m, (0, 0), (3, 3), 64, TaskKind::Pipeline))
            .clone();
        assert_eq!(rt.hops(), 6);
    }

    #[test]
    fn second_task_avoids_occupied_links() {
        let m = Mesh2D::new(3, 3);
        let mut a = TrafficAssigner::new(m, 10.0);
        let first = a
            .assign(task(&m, (0, 0), (2, 0), 64, TaskKind::Pipeline))
            .clone();
        // Same endpoints: only one shortest path (the same row), so
        // contention is unavoidable on a 1-row route; use different rows.
        let second = a
            .assign(task(&m, (0, 1), (2, 1), 64, TaskKind::ActivationBalance))
            .clone();
        let l1: std::collections::HashSet<_> = path_links(&first.path).into_iter().collect();
        let l2: std::collections::HashSet<_> = path_links(&second.path).into_iter().collect();
        assert!(l1.is_disjoint(&l2));
    }

    #[test]
    fn descending_size_order_is_used() {
        let m = Mesh2D::new(4, 2);
        let mut a = TrafficAssigner::new(m, 5.0);
        a.assign_all(vec![
            task(&m, (0, 0), (3, 0), 1, TaskKind::Pipeline),
            task(&m, (0, 0), (3, 0), 512, TaskKind::Pipeline),
        ]);
        // Biggest task routed first => it got the straight row.
        let first = &a.routed()[0];
        assert_eq!(first.task.bytes, Bytes::mib(512));
        assert_eq!(first.hops(), 3);
    }

    #[test]
    fn dead_links_are_rerouted_around() {
        let m = Mesh2D::new(3, 2);
        let mut faults = FaultMap::none();
        faults.set_link_quality((0, 0), (1, 0), 0.0);
        faults.set_link_quality((1, 0), (2, 0), 0.0);
        let mut a = TrafficAssigner::new(m, 1.0).with_faults(faults);
        let rt = a
            .assign(task(&m, (0, 0), (2, 0), 64, TaskKind::Pipeline))
            .clone();
        // Must detour through row 1: 4 hops.
        assert_eq!(rt.hops(), 4);
    }

    #[test]
    fn task_time_includes_share_of_bottleneck() {
        let m = Mesh2D::new(2, 1);
        let mut a = TrafficAssigner::new(m, 0.0);
        let rt1 = a
            .assign(task(&m, (0, 0), (1, 0), 100, TaskKind::Pipeline))
            .clone();
        a.assign(task(&m, (0, 0), (1, 0), 100, TaskKind::Pipeline));
        let t = a.task_time(&rt1, Bandwidth::gb_per_s(1.0), Time::ZERO);
        // Fair share: task sees half bandwidth.
        assert!((t.as_secs() - 2.0 * 100.0 * 1024.0 * 1024.0 / 1e9).abs() < 1e-6);
    }

    #[test]
    fn degraded_link_slows_traffic() {
        let m = Mesh2D::new(2, 1);
        let mut faults = FaultMap::none();
        faults.set_link_quality((0, 0), (1, 0), 0.5);
        let mut a = TrafficAssigner::new(m, 0.0).with_faults(faults);
        let rt = a
            .assign(task(&m, (0, 0), (1, 0), 100, TaskKind::Pipeline))
            .clone();
        let t = a.task_time(&rt, Bandwidth::gb_per_s(1.0), Time::ZERO);
        let clean = 100.0 * 1024.0 * 1024.0 / 1e9;
        assert!((t.as_secs() - 2.0 * clean).abs() < 1e-6);
    }
}
