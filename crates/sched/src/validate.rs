//! Schedule validation: the typed counterpart of [`Graph::validate`]
//! for execution orders.
//!
//! A valid schedule for a graph `G` visits every live node of `G`
//! exactly once, visits nothing else, and respects every data and
//! keepalive dependency (producers strictly before consumers). The
//! hardened optimizer runs this after every accepted incumbent (and,
//! under `--paranoia all`, after every candidate evaluation) so that a
//! corrupted rewrite or a scheduler bug is rejected with a typed error
//! instead of silently poisoning the search frontier.

use magis_graph::GraphView;
use magis_graph::graph::{Graph, NodeId};

/// Why a schedule is invalid for a given graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The order's length differs from the graph's live-node count.
    LengthMismatch {
        /// Live nodes in the graph.
        expected: usize,
        /// Entries in the order.
        got: usize,
    },
    /// The order references a node absent from (or removed from) the graph.
    DeadNode(NodeId),
    /// A node appears more than once in the order.
    DuplicateNode(NodeId),
    /// A live graph node never appears in the order.
    MissingNode(NodeId),
    /// `node` is scheduled before its dependency `dep`.
    DependencyViolation {
        /// The consumer scheduled too early.
        node: NodeId,
        /// The producer (data input or keepalive anchor) it needs first.
        dep: NodeId,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::LengthMismatch { expected, got } => {
                write!(f, "schedule covers {got} nodes but the graph has {expected}")
            }
            ScheduleError::DeadNode(v) => write!(f, "schedule references dead node {v:?}"),
            ScheduleError::DuplicateNode(v) => write!(f, "node {v:?} scheduled more than once"),
            ScheduleError::MissingNode(v) => write!(f, "live node {v:?} never scheduled"),
            ScheduleError::DependencyViolation { node, dep } => {
                write!(f, "node {node:?} scheduled before its dependency {dep:?}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A borrowed execution order with validation attached.
///
/// Thin wrapper so call sites read `Schedule::new(&order).validate(&g)`;
/// [`validate_schedule`] is the equivalent free function.
#[derive(Debug, Clone, Copy)]
pub struct Schedule<'a> {
    order: &'a [NodeId],
}

impl<'a> Schedule<'a> {
    /// Wraps an execution order.
    pub fn new(order: &'a [NodeId]) -> Self {
        Schedule { order }
    }

    /// The wrapped order.
    pub fn order(&self) -> &'a [NodeId] {
        self.order
    }

    /// Checks the order against `g`: every live node exactly once, no
    /// dead nodes, and topological with respect to data inputs *and*
    /// keepalive edges, pin groups read as their edges. Returns the first
    /// violation found.
    pub fn validate(&self, g: &Graph) -> Result<(), ScheduleError> {
        // Position of each node in the order; also detects duplicates
        // and dead references in one pass.
        let mut pos = vec![usize::MAX; g.capacity()];
        for (i, &v) in self.order.iter().enumerate() {
            if !g.contains(v) {
                return Err(ScheduleError::DeadNode(v));
            }
            let slot = &mut pos[v.index()];
            if *slot != usize::MAX {
                return Err(ScheduleError::DuplicateNode(v));
            }
            *slot = i;
        }
        if self.order.len() != g.len() {
            // With no duplicates and no dead nodes, a length mismatch
            // can only mean too few entries; report a missing node if
            // one is findable, else the raw count mismatch.
            if self.order.len() < g.len() {
                if let Some(v) = g.node_ids().find(|v| pos[v.index()] == usize::MAX) {
                    return Err(ScheduleError::MissingNode(v));
                }
            }
            return Err(ScheduleError::LengthMismatch { expected: g.len(), got: self.order.len() });
        }
        // Each pin group, once: the latest position among its inputs, a
        // dead input counting as past every step. A merge then checks
        // its group's inputs one by one only when that flags it.
        let pins = g.pins();
        let latest: Vec<usize> = pins
            .groups()
            .iter()
            .map(|group| {
                let at = |u: &NodeId| if g.contains(*u) { pos[u.index()] } else { usize::MAX };
                group.inputs().iter().map(at).max().unwrap_or(0)
            })
            .collect();
        let check = |v: NodeId, at: usize, dep: NodeId| {
            if !g.contains(dep) {
                return Err(ScheduleError::DeadNode(dep));
            }
            if pos[dep.index()] >= at {
                return Err(ScheduleError::DependencyViolation { node: v, dep });
            }
            Ok(())
        };
        for &v in self.order {
            let at = pos[v.index()];
            let n = g.node(v);
            for &dep in n.inputs().iter().chain(n.keepalive()) {
                check(v, at, dep)?;
            }
            for p in pins.of(v).iter().filter(|p| p.merge && latest[p.group as usize] >= at) {
                for &dep in pins.group(p.group).inputs() {
                    check(v, at, dep)?;
                }
            }
        }
        Ok(())
    }
}

/// Free-function form of [`Schedule::validate`].
pub fn validate_schedule(g: &Graph, order: &[NodeId]) -> Result<(), ScheduleError> {
    Schedule::new(order).validate(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_schedule;
    use crate::SchedConfig;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    fn diamond() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64, 64], "x");
        let a = b.relu(x);
        let c = b.gelu(x);
        let _ = b.add_op(a, c);
        let g = b.finish();
        let order = full_schedule(&g, &SchedConfig::default());
        (g, order)
    }

    #[test]
    fn valid_schedule_passes() {
        let (g, order) = diamond();
        assert_eq!(validate_schedule(&g, &order), Ok(()));
    }

    #[test]
    fn duplicate_entry_rejected() {
        let (g, mut order) = diamond();
        let last = order.len() - 1;
        order[last] = order[0];
        assert!(matches!(
            validate_schedule(&g, &order),
            Err(ScheduleError::DuplicateNode(_))
        ));
    }

    #[test]
    fn short_order_reports_missing_node() {
        let (g, mut order) = diamond();
        let dropped = order.pop().unwrap();
        assert_eq!(validate_schedule(&g, &order), Err(ScheduleError::MissingNode(dropped)));
    }

    #[test]
    fn producer_after_consumer_rejected() {
        let (g, mut order) = diamond();
        // Move the graph input (always position 0 in a topo order of
        // this graph) to the end: its consumers now precede it.
        let first = order.remove(0);
        order.push(first);
        assert!(matches!(
            validate_schedule(&g, &order),
            Err(ScheduleError::DependencyViolation { .. })
        ));
    }

    #[test]
    fn dead_node_rejected() {
        let (g, mut order) = diamond();
        let last = order.len() - 1;
        order[last] = NodeId::from_index(g.capacity() + 5);
        assert!(matches!(validate_schedule(&g, &order), Err(ScheduleError::DeadNode(_))));
    }

    #[test]
    fn keepalive_edges_are_enforced() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([32], "x");
        let a = b.relu(x);
        let c = b.gelu(x);
        let mut txn = magis_graph::GraphTxn::begin(&b.finish());
        txn.add_keepalive(a, c).unwrap();
        let g = txn.commit();
        // a before c satisfies the keepalive; c before a violates it.
        assert_eq!(validate_schedule(&g, &[x, a, c]), Ok(()));
        assert!(matches!(
            validate_schedule(&g, &[x, c, a]),
            Err(ScheduleError::DependencyViolation { .. })
        ));
    }
}
