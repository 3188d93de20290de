//! Scheduling tasks: a node subset prepared for memory-aware ordering.
//!
//! A [`SchedTask`] compiles the lifetime semantics of
//! [`magis_sim::memory`] (storage roots, aliases, anchored allocations,
//! host-resident `Store` outputs, boundary tensors) into dense local
//! index space so the DP/beam schedulers can evaluate memory deltas in
//! O(degree) per transition.

use crate::workspace::Workspace;
use magis_graph::GraphView;
use magis_graph::graph::{Graph, NodeId};
use magis_sim::memory::device_bytes;
use std::collections::BTreeSet;

/// Rows of local indices in one allocation (compressed sparse rows):
/// row `i` is `data[off[i]..off[i + 1]]`, read as `csr[i]`.
#[derive(Debug, Clone)]
pub struct Csr {
    off: Vec<u32>,
    data: Vec<usize>,
}

impl Csr {
    pub(crate) fn new() -> Self {
        Csr { off: vec![0], data: Vec::new() }
    }

    /// Appends `row`, sorted ascending and deduplicated.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = usize>) {
        let start = self.data.len();
        self.data.extend(row);
        self.data[start..].sort_unstable();
        let mut end = start;
        for i in start..self.data.len() {
            if end == start || self.data[end - 1] != self.data[i] {
                self.data[end] = self.data[i];
                end += 1;
            }
        }
        self.data.truncate(end);
        self.off.push(end as u32);
    }

    /// The transpose over `n` columns: row `c` lists, ascending, the
    /// rows of `self` that hold `c` (two counting passes).
    pub(crate) fn transposed(&self, n: usize) -> Self {
        let mut off = vec![0u32; n + 1];
        self.data.iter().for_each(|&c| off[c + 1] += 1);
        for c in 0..n {
            off[c + 1] += off[c];
        }
        let (mut next, mut data) = (off.clone(), vec![0; self.data.len()]);
        for (r, row) in self.iter().enumerate() {
            for &c in row {
                data[next[c] as usize] = r;
                next[c] += 1;
            }
        }
        Csr { off, data }
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.off.windows(2).map(|w| &self.data[w[0] as usize..w[1] as usize])
    }
}

impl std::ops::Index<usize> for Csr {
    type Output = [usize];

    fn index(&self, i: usize) -> &[usize] {
        &self.data[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// A storage root relevant to a scheduling window. The window nodes
/// that must execute before it can be freed are its row of
/// [`SchedTask::root_users`].
#[derive(Debug, Clone)]
pub struct RootInfo {
    /// Bytes owned by the root's storage.
    pub bytes: u64,
    /// Whether the root can be freed inside this window (no users
    /// outside it and it is not a terminal output).
    pub freeable: bool,
    /// Local index of the node whose execution allocates the root
    /// (`None`: already resident at window start — counted in `base`).
    pub alloc_at: Option<usize>,
}

/// A prepared scheduling problem over a subset of graph nodes.
#[derive(Debug, Clone)]
pub struct SchedTask<'g> {
    g: &'g Graph,
    /// Window nodes in local-index order (ascending id).
    pub nodes: Vec<NodeId>,
    /// Local predecessors (dependencies inside the window, deduplicated).
    pub preds: Csr,
    /// Local successors.
    pub succs: Csr,
    /// Storage roots touched by the window, in ascending root id.
    pub roots: Vec<RootInfo>,
    /// For each root: local indices of the window nodes that read its
    /// storage (through aliases), ascending.
    pub root_users: Csr,
    /// For each local node: indices into `roots` this node allocates.
    pub allocs: Csr,
    /// For each local node: indices into `roots` this node uses (its
    /// execution may complete the root's user set and free it).
    pub uses: Csr,
    /// Bytes resident for the whole window (boundary inputs).
    pub base: u64,
}

impl<'g> SchedTask<'g> {
    /// Prepares a scheduling task over all live nodes of `g`.
    pub fn whole_graph(g: &'g Graph) -> Self {
        Self::build(g, g.node_ids().collect(), &mut Workspace::new(g))
    }

    /// Prepares a scheduling task over `set ⊆ V(g)`.
    ///
    /// Boundary tensors produced outside `set` but read inside it are
    /// charged to `base` for the window's duration; tensors with
    /// readers outside `set` are never freed inside the window.
    pub fn subset(g: &'g Graph, set: &BTreeSet<NodeId>) -> Self {
        Self::build(g, set.iter().copied().collect(), &mut Workspace::new(g))
    }

    /// [`Self::subset`] over `nodes` (ascending id) on the caller's
    /// scratch: the one task builder, behind the search and the public
    /// constructors alike.
    pub(crate) fn build(g: &'g Graph, nodes: Vec<NodeId>, ws: &mut Workspace) -> Self {
        ws.index(nodes.iter().copied());
        let n = nodes.len();
        let mut preds = Csr::new();
        // Relevant storage roots: roots of window nodes plus roots read
        // by window nodes.
        let mut root_ids: Vec<NodeId> = Vec::with_capacity(2 * n);
        for &v in &nodes {
            let node = g.node(v);
            let deps = node.inputs().iter().chain(node.keepalive());
            preds.push_row(deps.clone().filter_map(|&p| ws.local(p)));
            root_ids.push(ws.root_of(g, v));
            root_ids.extend(deps.map(|&p| ws.root_of(g, p)));
        }
        root_ids.sort_unstable();
        root_ids.dedup();

        let mut roots = Vec::with_capacity(root_ids.len());
        // Per root: its users, and where it is allocated (one entry or none).
        let (mut root_users, mut alloc_of) = (Csr::new(), Csr::new());
        let mut base = 0u64;
        let (mut chain, mut users) = (Vec::new(), Vec::new());
        for rid in root_ids {
            let bytes = device_bytes(g, rid);
            if bytes == 0 {
                continue;
            }
            // Users of the root's storage: successors of the root and of
            // every alias chained onto it. Aliases themselves also count
            // as (trivial) readers. `chain` keeps what it has walked, so
            // an alias reached twice is walked once.
            let mut outside_user = false;
            chain.clear();
            chain.push(rid);
            let mut walked = 0;
            while let Some(&a) = chain.get(walked) {
                walked += 1;
                for &s in g.node(a).succs() {
                    match ws.local(s) {
                        Some(li) => users.push(li),
                        None => outside_user = true,
                    }
                    // A descendant rooted at `rid` is an alias onto it.
                    if ws.root_of(g, s) == rid && !chain.contains(&s) {
                        chain.push(s);
                    }
                }
            }
            // Freeable here: read in the window and nowhere else (a root
            // nobody reads is a terminal output).
            let freeable = !outside_user && !users.is_empty();
            root_users.push_row(users.drain(..));
            // Allocation point.
            let root = g.node(rid);
            let alloc_at = if root.op.is_input() {
                None // inputs resident from the start
            } else {
                ws.local(root.alloc_with.unwrap_or(rid))
            };
            alloc_of.push_row(alloc_at);
            if alloc_at.is_none() {
                base += bytes;
            }
            roots.push(RootInfo { bytes, freeable, alloc_at });
        }
        let (succs, allocs, uses) =
            (preds.transposed(n), alloc_of.transposed(n), root_users.transposed(n));
        SchedTask { g, nodes, preds, succs, roots, root_users, allocs, uses, base }
    }

    /// Number of window nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Translates local indices back to node ids.
    pub fn to_node_ids(&self, order: &[usize]) -> Vec<NodeId> {
        order.iter().map(|&i| self.nodes[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    const KB: u64 = 1024;

    #[test]
    fn whole_graph_task_roots() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([256], "x");
        let a = b.relu(x);
        let _y = b.relu(a);
        let g = b.finish();
        let t = SchedTask::whole_graph(&g);
        assert_eq!(t.len(), 3);
        // x is an input: contributes to base; a and y allocate on exec.
        assert_eq!(t.base, KB);
        assert_eq!(t.roots.iter().filter(|r| r.alloc_at.is_some()).count(), 2);
        // a is freeable (its only user is in the window); y is terminal.
        let a_root = t.roots.iter().find(|r| r.alloc_at == Some(1)).unwrap();
        assert!(a_root.freeable);
        let y_root = t.roots.iter().find(|r| r.alloc_at == Some(2)).unwrap();
        assert!(!y_root.freeable);
    }

    #[test]
    fn subset_boundary_semantics() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([256], "x");
        let a = b.relu(x);
        let c = b.relu(a);
        let d = b.relu(c);
        let g = b.finish();
        // Window {c, d}: a is a boundary input -> base; c freeable, d not.
        let set: BTreeSet<NodeId> = [c, d].into_iter().collect();
        let t = SchedTask::subset(&g, &set);
        assert_eq!(t.base, KB, "boundary tensor a");
        assert_eq!(t.len(), 2);
        assert_eq!(t.preds[1], [0], "d depends on c locally");
        let _ = (x, a);
    }

    #[test]
    fn alias_users_attach_to_root() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([256], "x");
        let a = b.relu(x);
        let r = b.reshape(a, [16, 16]);
        let y = b.relu(r);
        let g = b.finish();
        let t = SchedTask::whole_graph(&g);
        // Root `a`: users include the alias r and the reader y.
        let a_root = t
            .roots
            .iter()
            .position(|ri| ri.alloc_at.is_some() && ri.bytes == KB && ri.freeable)
            .unwrap();
        assert_eq!(t.root_users[a_root].len(), 2);
        let _ = y;
    }
}
