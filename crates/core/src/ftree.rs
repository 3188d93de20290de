//! The Fission Hierarchy Tree (F-Tree, §4.3) and its mutation rules
//! (§5.1, Fig. 7).
//!
//! Each tree node records a fission candidate `f = (S, D, n)`. `n = 1`
//! means *disabled* (a candidate); `n > 1` means the region is split
//! into `n` sequentially executed parts. Candidates are constructed by
//! Algorithm 1: dominator-tree regions ranked by "memory heat" —
//! the total size of memory hot-spots they dominate — minus the size of
//! the inputs that must stay resident, stratified into `L` score
//! intervals so the tree offers both coarse and fine fission choices.

use magis_graph::GraphView;
use crate::dgraph::{component_dims, DimGraph};
use crate::fission::{FissionSpec, RegionFacts, RegionWorkspace};
use magis_graph::algo::dominator::DomTree;
use magis_graph::graph::{Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// One node of the F-Tree.
#[derive(Debug, Clone)]
pub struct FTreeNode {
    /// The fission candidate; `spec.parts == 1` means disabled.
    pub spec: FissionSpec,
    /// Parent index in the tree (None: root candidate).
    pub parent: Option<usize>,
    /// Child indices (regions strictly nested inside this one).
    pub children: Vec<usize>,
    /// Score interval the candidate came from (1 ..= L), for diagnostics.
    pub level: usize,
}

impl FTreeNode {
    /// Whether this node's fission is currently applied.
    pub fn enabled(&self) -> bool {
        self.spec.parts > 1
    }
}

/// The F-Tree: a forest of nested fission candidates.
#[derive(Debug, Clone, Default)]
pub struct FTree {
    nodes: Vec<FTreeNode>,
}

/// Restricts a component to the nodes reachable from its "dominant"
/// entry — the entry node with the largest reachable set within the
/// component (ties go to the largest id) — in ascending id order.
/// Returns `None` when the component has no entry (cannot happen for
/// DAG-induced sets, defensively handled). The component is
/// `comp_nodes`, also marked as `in_comp[slot] == comp`; `seen` and
/// `epoch` are the caller's scratch stamps.
fn dominant_entry_region(
    g: &Graph,
    comp_nodes: &[NodeId],
    in_comp: &[u32],
    comp: u32,
    seen: &mut [u32],
    epoch: &mut u32,
) -> Option<Vec<NodeId>> {
    // Raw neighbour slices: duplicates are harmless for both the entry
    // test and the reach walk.
    let inside = |v: &NodeId| in_comp[v.index()] == comp;
    let (mut best, mut out) = (Vec::new(), Vec::new());
    for &e in comp_nodes {
        let n = g.node(e);
        if n.inputs().iter().chain(n.keepalive()).any(inside) {
            continue;
        }
        *epoch += 1;
        out.clear();
        out.push(e);
        seen[e.index()] = *epoch;
        let mut next = 0;
        while let Some(&v) = out.get(next) {
            next += 1;
            for &s in g.node(v).succs() {
                if inside(&s) && seen[s.index()] != *epoch {
                    seen[s.index()] = *epoch;
                    out.push(s);
                }
            }
        }
        // `max_by_key` keeps the *last* maximum among ties; entries are
        // visited in ascending order, so `>=` replicates it.
        if out.len() >= best.len() {
            std::mem::swap(&mut best, &mut out);
        }
    }
    best.sort_unstable();
    (!best.is_empty()).then_some(best)
}

/// A mutation of one F-Tree node (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FTreeMutation {
    /// Enable a disabled leaf, or a parent of an enabled node that has
    /// no enabled ancestors (Fig. 7 (a)). Sets `n = 2`.
    Enable(usize),
    /// Disable an enabled node without enabled ancestors and enable its
    /// parent (Fig. 7 (b)).
    Lift(usize),
    /// Disable an enabled node with no enabled descendants (Fig. 7 (c)).
    Disable(usize),
    /// Increase an enabled node's `n` to the next divisor of the split
    /// dimension length (Fig. 7 (d)).
    Mutate(usize),
}

impl FTree {
    /// Builds the F-Tree for `g` with hot-spots `h` and max-level `l`
    /// (Algorithm 1).
    pub fn build(g: &Graph, hotspots: &BTreeSet<NodeId>, l: usize) -> Self {
        /// `dim_of` entry of a node with two dims in the component
        /// (constraint (3) of §4.2 wants exactly one).
        const AMBIGUOUS: i32 = i32::MIN;
        let dg = DimGraph::build(g);
        let mut candidates: Vec<(BTreeSet<NodeId>, BTreeMap<NodeId, i32>, usize)> = Vec::new();
        // Dense hot-spot marks and epoch-stamped scratch tables shared
        // across components: a mark is set iff it equals the epoch of
        // the pass that reads it, so nothing is ever cleared.
        let cap = g.capacity();
        let mut hot = vec![false; cap];
        for &h in hotspots {
            hot[h.index()] = true;
        }
        let mut epoch = 0u32;
        let (mut in_comp, mut seen, mut counted) = (vec![0u32; cap], vec![0u32; cap], vec![0u32; cap]);
        let mut dim_of = vec![0i32; cap];
        let mut stratum = vec![0usize; cap];
        let mut comp_nodes: Vec<NodeId> = Vec::new();
        let mut scored: Vec<(NodeId, f64)> = Vec::new();
        let mut regions = RegionWorkspace::default();
        for comp in dg.component_slices() {
            // G' := sub-graph of G induced from the component's nodes,
            // with each node's dim choice in the component.
            epoch += 1;
            let comp_epoch = epoch;
            comp_nodes.clear();
            for &(v, d) in comp {
                if in_comp[v.index()] == comp_epoch {
                    dim_of[v.index()] = AMBIGUOUS;
                } else {
                    in_comp[v.index()] = comp_epoch;
                    dim_of[v.index()] = d;
                    comp_nodes.push(v);
                }
            }
            if comp_nodes.len() < 2 {
                continue;
            }
            // §2.1: "the dominator tree we use here usually takes the
            // input tensor as the entry" — pick the entry whose
            // reachable set inside the component is largest (the batch
            // input, in training graphs) and ignore secondary entries
            // (labels, mid-graph joins), which would otherwise pull
            // every post-loss node up to the virtual root.
            let region =
                dominant_entry_region(g, &comp_nodes, &in_comp, comp_epoch, &mut seen, &mut epoch)
                    .unwrap_or_else(|| comp_nodes.clone());
            if region.len() < 2 {
                continue;
            }
            let t = DomTree::compute(g, &region.iter().copied().collect());
            // Scores per Eq. (3)/(4) with n = 2: half the hot bytes a
            // node dominates minus the cold bytes that region reads
            // from outside (unique out-of-region preds). Tensor sizes
            // are integers, so the sums are taken in `u64` and
            // converted once; below 2^53 that equals the `f64` sum in
            // any order.
            let bytes = |v: NodeId| g.node(v).size_bytes();
            let mut smax = f64::MIN;
            scored.clear();
            for &v in &region {
                stratum[v.index()] = 0;
                let des = t.descendants_slice(v);
                if des.is_empty() {
                    continue;
                }
                // One stamp serves both "inside the region" and "outside
                // but already counted": either way a pred is skipped.
                epoch += 1;
                for &w in des {
                    counted[w.index()] = epoch;
                }
                let (mut heat, mut inputs) = (0u64, 0u64);
                for &w in des {
                    if hot[w.index()] {
                        heat += bytes(w);
                    }
                    let nd = g.node(w);
                    for &p in nd.inputs().iter().chain(nd.keepalive()) {
                        if counted[p.index()] != epoch {
                            counted[p.index()] = epoch;
                            if !hot[p.index()] {
                                inputs += bytes(p);
                            }
                        }
                    }
                }
                debug_assert!(heat.max(inputs) < 1 << 53, "byte sums must stay exact in f64");
                let score = 0.5 * heat as f64 - inputs as f64;
                smax = smax.max(score);
                scored.push((v, score));
            }
            if smax <= 0.0 {
                continue;
            }
            // Stratify into L intervals (a score falls in at most one);
            // in each interval keep the dominator-tree-deepest nodes
            // (no descendant in the same interval).
            for &(v, score) in &scored {
                let ns = score / smax;
                stratum[v.index()] = (1..=l)
                    .find(|&i| {
                        let lo = i as f64 / l as f64;
                        let hi = (i + 1) as f64 / l as f64;
                        ns >= lo && (ns < hi || (i == l && ns <= 1.0))
                    })
                    .unwrap_or(0);
            }
            for i in 1..=l {
                for &(vdom, _) in scored.iter().filter(|(v, _)| stratum[v.index()] == i) {
                    let des = t.descendants_slice(vdom);
                    if des.iter().any(|d| stratum[d.index()] == i || dim_of[d.index()] == AMBIGUOUS) {
                        continue;
                    }
                    // "if f is valid": structural validation with the
                    // minimum useful part count.
                    let probe = FissionSpec {
                        set: des.iter().copied().collect(),
                        dims: des.iter().map(|d| (*d, dim_of[d.index()])).collect(),
                        parts: 2,
                    };
                    if RegionFacts::compute_in(&mut regions, g, &probe).is_ok() {
                        candidates.push((probe.set, probe.dims, i));
                    }
                }
            }
        }
        Self::assemble(candidates)
    }

    /// Reassembles an F-Tree from externally stored nodes (checkpoint
    /// resume). The caller is responsible for index validity
    /// (`parent`/`children` in range); specs are re-validated against
    /// the base graph the next time the tree is applied or refreshed.
    pub fn from_nodes(nodes: Vec<FTreeNode>) -> Self {
        FTree { nodes }
    }

    /// Builds a *naïve* F-Tree (ablation §7.2.5 "naïve-fission"):
    /// random valid sub-graphs and dimensions, ignoring dominator and
    /// hot-spot analysis.
    pub fn build_naive(g: &Graph, count: usize, seed: u64) -> Self {
        use magis_util::rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let dg = DimGraph::build(g);
        let comps = dg.components();
        if comps.is_empty() {
            return FTree::default();
        }
        let order = magis_graph::algo::topo_order(g);
        let mut candidates = Vec::new();
        let mut tries = 0;
        while candidates.len() < count && tries < count * 40 {
            tries += 1;
            let comp = &comps[rng.gen_range(0..comps.len())];
            let comp_nodes: Vec<NodeId> = {
                let s: BTreeSet<NodeId> = comp.iter().map(|&(v, _)| v).collect();
                order.iter().copied().filter(|v| s.contains(v)).collect()
            };
            if comp_nodes.len() < 2 {
                continue;
            }
            // Random contiguous run of the component's topo order.
            let len = rng.gen_range(1..=comp_nodes.len().min(12));
            let start = rng.gen_range(0..=comp_nodes.len() - len);
            let set: BTreeSet<NodeId> =
                comp_nodes[start..start + len].iter().copied().collect();
            let Some(dims) = component_dims(comp, &set) else { continue };
            let probe = FissionSpec { set, dims, parts: 2 };
            if probe.validate(g).is_ok() {
                candidates.push((probe.set, probe.dims, 1));
            }
        }
        Self::assemble(candidates)
    }

    /// Assembles a forest from candidate regions by containment. Dom
    /// regions from one tree are either nested or disjoint; cross-
    /// component duplicates are deduplicated by node set.
    fn assemble(mut candidates: Vec<(BTreeSet<NodeId>, BTreeMap<NodeId, i32>, usize)>) -> Self {
        // Dedup by set, keep first (lowest interval).
        candidates.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        candidates.dedup_by(|a, b| a.0 == b.0);
        let mut tree = FTree { nodes: Vec::new() };
        for (set, dims, level) in candidates {
            tree.hook(FissionSpec { set, dims, parts: 1 }, level);
        }
        tree
    }

    /// Appends a node under the smallest existing node that strictly
    /// contains its region (the first among equally small ones).
    fn hook(&mut self, spec: FissionSpec, level: usize) {
        let mut parent: Option<usize> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.spec.set.len() > spec.set.len()
                && spec.set.is_subset(&n.spec.set)
                && parent.is_none_or(|p| self.nodes[p].spec.set.len() > n.spec.set.len())
            {
                parent = Some(i);
            }
        }
        let idx = self.nodes.len();
        if let Some(p) = parent {
            self.nodes[p].children.push(idx);
        }
        self.nodes.push(FTreeNode { spec, parent, children: Vec::new(), level });
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no candidates.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, i: usize) -> &FTreeNode {
        &self.nodes[i]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[FTreeNode] {
        &self.nodes
    }

    /// Enabled node indices, parents before children (application
    /// order for overlays).
    pub fn enabled_order(&self) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.nodes.len()).filter(|&i| self.nodes[i].enabled()).collect();
        out.sort_by_key(|&i| std::cmp::Reverse(self.nodes[i].spec.set.len()));
        out
    }

    fn has_enabled_ancestor(&self, i: usize) -> bool {
        let mut cur = self.nodes[i].parent;
        while let Some(p) = cur {
            if self.nodes[p].enabled() {
                return true;
            }
            cur = self.nodes[p].parent;
        }
        false
    }

    fn has_enabled_descendant(&self, i: usize) -> bool {
        self.nodes[i]
            .children
            .iter()
            .any(|&c| self.nodes[c].enabled() || self.has_enabled_descendant(c))
    }

    /// Whether every graph node of `set` avoids *partially* overlapping
    /// any fission region (transformations must not span region
    /// boundaries, §3).
    pub fn allows_transform(&self, set: &BTreeSet<NodeId>) -> bool {
        for n in &self.nodes {
            if !n.enabled() {
                continue;
            }
            let inter = n.spec.set.intersection(set).count();
            if inter != 0 && inter != set.len() {
                return false;
            }
        }
        true
    }

    /// Whether `m` is a legal mutation of the current tree (§5.1,
    /// Fig. 7); an index outside the tree is never legal.
    pub fn is_legal(&self, g: &Graph, m: FTreeMutation) -> bool {
        let (FTreeMutation::Enable(i)
        | FTreeMutation::Lift(i)
        | FTreeMutation::Disable(i)
        | FTreeMutation::Mutate(i)) = m;
        let Some(n) = self.nodes.get(i) else { return false };
        match m {
            FTreeMutation::Lift(_) => {
                // No enabled ancestor also means the parent is disabled.
                n.enabled() && n.parent.is_some() && !self.has_enabled_ancestor(i)
            }
            FTreeMutation::Disable(_) => n.enabled() && !self.has_enabled_descendant(i),
            FTreeMutation::Mutate(_) => n.enabled() && self.next_parts(g, i).is_some(),
            FTreeMutation::Enable(_) => {
                // A leaf, or the parent of an enabled node. A disabled
                // spec (`parts == 1`) validates exactly as its 2-part
                // form: the extent check uses `parts.max(2)`.
                !n.enabled()
                    && (n.children.is_empty() || n.children.iter().any(|&c| self.nodes[c].enabled()))
                    && !self.has_enabled_ancestor(i)
                    && n.spec.validate(g).is_ok()
            }
        }
    }

    /// Legal mutations of the current tree (the rule generator of
    /// §5.1), node by node.
    pub fn legal_mutations(&self, g: &Graph) -> Vec<FTreeMutation> {
        use FTreeMutation::{Disable, Enable, Lift, Mutate};
        (0..self.nodes.len())
            .flat_map(|i| [Lift(i), Disable(i), Mutate(i), Enable(i)])
            .filter(|&m| self.is_legal(g, m))
            .collect()
    }

    /// The smallest valid part count greater than the node's current
    /// one: the next divisor of the minimum split-dimension extent.
    fn next_parts(&self, g: &Graph, i: usize) -> Option<u64> {
        let n = &self.nodes[i];
        let extent = n
            .spec
            .dims
            .iter()
            .filter(|&(_, &d)| d > 0)
            .map(|(&v, &d)| {
                // Extents are taken from the *base* graph (specs refer
                // to un-overlaid shapes).
                g.node(v).meta.shape.dim((d - 1) as usize)
            })
            .min()?;
        ((n.spec.parts + 1)..=extent).find(|k| extent % k == 0)
    }

    /// Rebuilds the candidate tree for an updated graph while
    /// preserving currently enabled regions (M-Analyzer refresh,
    /// Algorithm 3 line 13): enabled regions whose node set survives
    /// keep their part counts; enabled regions that no longer appear as
    /// candidates are carried over verbatim so an in-flight fission is
    /// never silently dropped.
    pub fn refreshed(&self, g: &Graph, hotspots: &BTreeSet<NodeId>, l: usize) -> FTree {
        let mut t = FTree::build(g, hotspots, l);
        for old in self.nodes.iter().filter(|n| n.enabled()) {
            if let Some(pos) = t.nodes.iter().position(|n| n.spec.set == old.spec.set) {
                t.nodes[pos].spec.parts = old.spec.parts;
            } else if old.spec.validate(g).is_ok() {
                // Re-insert as a candidate.
                t.hook(old.spec.clone(), old.level);
            }
        }
        t
    }

    /// Applies a mutation, returning the changed tree and the graph
    /// region affected (for incremental scheduling).
    ///
    /// # Errors
    ///
    /// Returns `Err` if the mutation is not currently legal.
    pub fn apply(&self, g: &Graph, m: FTreeMutation) -> Result<(FTree, BTreeSet<NodeId>), String> {
        if !self.is_legal(g, m) {
            return Err(format!("illegal F-Tree mutation {m:?}"));
        }
        let mut t = self.clone();
        let region = match m {
            FTreeMutation::Enable(i) => {
                t.nodes[i].spec.parts = 2;
                t.nodes[i].spec.set.clone()
            }
            FTreeMutation::Lift(i) => {
                // Unwrap audit: `is_legal` (checked above) admits Lift
                // only for nodes with a parent, and Mutate only for
                // nodes whose split dimension has a next divisor.
                let p = t.nodes[i].parent.expect("lift requires a parent");
                t.nodes[i].spec.parts = 1;
                t.nodes[p].spec.parts = 2;
                t.nodes[p].spec.set.clone()
            }
            FTreeMutation::Disable(i) => {
                t.nodes[i].spec.parts = 1;
                t.nodes[i].spec.set.clone()
            }
            FTreeMutation::Mutate(i) => {
                let next = t.next_parts(g, i).expect("legal mutate has next parts");
                t.nodes[i].spec.parts = next;
                t.nodes[i].spec.set.clone()
            }
        };
        Ok((t, region))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;
    use magis_sim::memory_profile;

    /// Deep MLP whose activations dominate memory.
    fn mlp(depth: usize) -> Graph {
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([256, 64], "x");
        for i in 0..depth {
            let w = b.weight([64, 64], &format!("w{i}"));
            let h = b.matmul(cur, w);
            cur = b.relu(h);
        }
        b.finish()
    }

    fn hotspots(g: &Graph) -> BTreeSet<NodeId> {
        memory_profile(g, &topo_order(g)).hotspots
    }

    #[test]
    fn build_finds_candidates_on_mlp() {
        let g = mlp(6);
        let h = hotspots(&g);
        let t = FTree::build(&g, &h, 4);
        assert!(!t.is_empty(), "MLP must yield fission candidates");
        for n in t.nodes() {
            assert_eq!(n.spec.parts, 1, "initial tree is disabled");
            let mut probe = n.spec.clone();
            probe.parts = 2;
            probe.validate(&g).unwrap();
        }
    }

    #[test]
    fn tree_nesting_by_containment() {
        let g = mlp(8);
        let t = FTree::build(&g, &hotspots(&g), 4);
        for (i, n) in t.nodes().iter().enumerate() {
            if let Some(p) = n.parent {
                assert!(n.spec.set.is_subset(&t.node(p).spec.set));
                assert!(t.node(p).children.contains(&i));
            }
        }
    }

    #[test]
    fn enable_disable_cycle() {
        let g = mlp(6);
        let t = FTree::build(&g, &hotspots(&g), 4);
        let muts = t.legal_mutations(&g);
        let enable = muts
            .iter()
            .find(|m| matches!(m, FTreeMutation::Enable(_)))
            .copied()
            .expect("some enable available");
        let (t2, region) = t.apply(&g, enable).unwrap();
        assert!(!region.is_empty());
        assert_eq!(t2.enabled_order().len(), 1);
        // The enabled node can now be disabled or mutated.
        let muts2 = t2.legal_mutations(&g);
        assert!(muts2.iter().any(|m| matches!(m, FTreeMutation::Disable(_))));
        let disable = muts2
            .iter()
            .find(|m| matches!(m, FTreeMutation::Disable(_)))
            .copied()
            .unwrap();
        let (t3, _) = t2.apply(&g, disable).unwrap();
        assert!(t3.enabled_order().is_empty());
    }

    #[test]
    fn mutate_increases_to_next_divisor() {
        let g = mlp(6);
        let t = FTree::build(&g, &hotspots(&g), 4);
        let enable = t
            .legal_mutations(&g)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Enable(_)))
            .unwrap();
        let (t2, _) = t.apply(&g, enable).unwrap();
        let i = t2.enabled_order()[0];
        assert_eq!(t2.node(i).spec.parts, 2);
        if let Some(FTreeMutation::Mutate(j)) = t2
            .legal_mutations(&g)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Mutate(_)))
        {
            let (t3, _) = t2.apply(&g, FTreeMutation::Mutate(j)).unwrap();
            // Batch extent 256: next divisor after 2 is 4.
            assert_eq!(t3.node(j).spec.parts, 4);
        }
    }

    #[test]
    fn illegal_mutations_rejected() {
        let g = mlp(4);
        let t = FTree::build(&g, &hotspots(&g), 4);
        // Disabling a disabled node is illegal.
        assert!(t.apply(&g, FTreeMutation::Disable(0)).is_err());
    }

    #[test]
    fn allows_transform_respects_boundaries() {
        let g = mlp(6);
        let t = FTree::build(&g, &hotspots(&g), 4);
        let enable = t
            .legal_mutations(&g)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Enable(_)))
            .unwrap();
        let (t2, region) = t.apply(&g, enable).unwrap();
        // A set fully inside is fine; one straddling the boundary is not.
        let inside: BTreeSet<NodeId> = region.iter().take(1).copied().collect();
        assert!(t2.allows_transform(&inside));
        let outside_node = g.node_ids().find(|v| !region.contains(v)).unwrap();
        let straddle: BTreeSet<NodeId> =
            [*region.iter().next().unwrap(), outside_node].into_iter().collect();
        assert!(!t2.allows_transform(&straddle));
    }

    #[test]
    fn naive_tree_builds_valid_candidates() {
        let g = mlp(6);
        let t = FTree::build_naive(&g, 8, 42);
        for n in t.nodes() {
            let mut probe = n.spec.clone();
            probe.parts = 2;
            probe.validate(&g).unwrap();
        }
    }
}
