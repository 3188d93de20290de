//! Pin groups: a keepalive fan stored once, not as `|in| · |out|` edges.
//!
//! The fission overlay runs a region's parts one after another, so
//! every region input stays resident until the region's last merge has
//! run (Fig. 2 (d)/(e) of the paper). As edges that is one keepalive
//! edge per (input, merge) pair. A [`PinGroup`] holds the two lists
//! once and stands for exactly those pairs, with multiplicity. It
//! implies two events, both at positions fixed by real nodes:
//!
//! - a merge of the group is ready once every input of the group has
//!   executed (one counter per group);
//! - an input of the group is freed once its own last reader and the
//!   group's last merge have run.
//!
//! Every pass that reads keepalive edges reads a group as a group, at
//! `O(|in| + |out|)` per group. Orders, lifetimes, peaks and hashes are
//! those of the pairs the group stands for.

use crate::graph::NodeId;

/// One keepalive fan: an edge from every entry of `inputs` to every
/// entry of `merges`, both with multiplicity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinGroup {
    inputs: Vec<NodeId>,
    merges: Vec<NodeId>,
}

impl PinGroup {
    /// The pinned nodes, in the order the fan listed them.
    #[inline]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The nodes that wait for every input, in the order the fan listed
    /// them.
    #[inline]
    pub fn merges(&self) -> &[NodeId] {
        &self.merges
    }
}

/// One occurrence of a node in a pin group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pin {
    /// Index of the group in [`PinTable::groups`].
    pub group: u32,
    /// Whether the node is one of the group's merges (else an input).
    pub merge: bool,
}

/// The pin groups of one graph, with an index from node to occurrence.
/// Shared copy-on-write between a graph and its clones.
#[derive(Debug, Clone, Default)]
pub struct PinTable {
    groups: Vec<PinGroup>,
    /// Slot of every occurrence, ascending; `pins` is aligned with it.
    slots: Vec<u32>,
    pins: Vec<Pin>,
    /// One bit per slot up to the largest member: whether it has any
    /// occurrence, so a node in no group is answered without a search.
    marked: Vec<u64>,
}

/// The table of a graph without pin groups.
pub(crate) static NO_PINS: PinTable = PinTable::new();

impl PinTable {
    /// The empty table.
    pub const fn new() -> Self {
        PinTable { groups: Vec::new(), slots: Vec::new(), pins: Vec::new(), marked: Vec::new() }
    }

    /// Whether the table has no group.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Every group, in the order the fans were added.
    #[inline]
    pub fn groups(&self) -> &[PinGroup] {
        &self.groups
    }

    /// Group `k`.
    #[inline]
    pub fn group(&self, k: u32) -> &PinGroup {
        &self.groups[k as usize]
    }

    /// Every occurrence of `v` in a group, by group then role (inputs
    /// before merges), one entry per listing.
    #[inline]
    pub fn of(&self, v: NodeId) -> &[Pin] {
        let i = v.index();
        if self.marked.get(i / 64).is_none_or(|w| w >> (i % 64) & 1 == 0) {
            return &[];
        }
        let lo = self.slots.partition_point(|&s| (s as usize) < i);
        let hi = lo + self.slots[lo..].partition_point(|&s| s as usize == i);
        &self.pins[lo..hi]
    }

    /// The inputs of every group `v` is a merge of, with multiplicity:
    /// the keepalive predecessors the groups stand for, in the order the
    /// pairwise loop writes them (a merge listed `k` times in a group
    /// takes each input `k` times in a row).
    #[inline]
    pub fn pinned_before(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let runs = self.of(v).chunk_by(|a, b| a == b).filter(|run| run[0].merge);
        runs.flat_map(|run| {
            let inputs = self.group(run[0].group).inputs.iter();
            inputs.flat_map(move |&u| std::iter::repeat_n(u, run.len()))
        })
    }

    /// The merges of every group `v` is an input of, with multiplicity:
    /// the keepalive successors the groups stand for.
    #[inline]
    pub fn pinned_until(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let groups = self.of(v).iter().filter(|p| !p.merge);
        groups.flat_map(|p| self.group(p.group).merges.iter().copied())
    }

    /// Adds the group `inputs × merges`; both sides non-empty.
    pub(crate) fn push(&mut self, inputs: &[NodeId], merges: &[NodeId]) {
        debug_assert!(!inputs.is_empty() && !merges.is_empty());
        self.groups.push(PinGroup { inputs: inputs.to_vec(), merges: merges.to_vec() });
        self.reindex();
    }

    /// Moves every pin of `old` as a group input to `new`, in place.
    pub(crate) fn repin(&mut self, old: NodeId, new: NodeId) {
        for group in &mut self.groups {
            group.inputs.iter_mut().filter(|u| **u == old).for_each(|u| *u = new);
        }
        self.reindex();
    }

    /// Drops `m` from every group's merges, and every group left
    /// without a merge (it stands for no pair any more).
    pub(crate) fn unpin_merge(&mut self, m: NodeId) {
        for group in &mut self.groups {
            group.merges.retain(|&x| x != m);
        }
        self.groups.retain(|group| !group.merges.is_empty());
        self.reindex();
    }

    fn reindex(&mut self) {
        let mut entries: Vec<(u32, Pin)> = Vec::new();
        for (k, group) in self.groups.iter().enumerate() {
            for (nodes, merge) in [(&group.inputs, false), (&group.merges, true)] {
                entries.extend(nodes.iter().map(|v| (v.index() as u32, Pin { group: k as u32, merge })));
            }
        }
        entries.sort_unstable();
        let words = entries.last().map_or(0, |&(s, _)| s as usize / 64 + 1);
        self.marked = vec![0; words];
        for &(s, _) in &entries {
            self.marked[s as usize / 64] |= 1 << (s % 64);
        }
        (self.slots, self.pins) = entries.into_iter().unzip();
    }
}

/// Kahn's in-degree bookkeeping for the pin groups of one pass: a
/// group counts its inputs still to run, and a merge waits on each of
/// its groups as on one edge. Over the induced sub-graph of a node set,
/// only inputs in the set count, and a group with none constrains
/// nothing.
#[derive(Debug)]
pub struct PinCounts {
    waiting: Vec<u32>,
}

impl PinCounts {
    /// Counts every group's inputs inside `member`, and calls `wait(m)`
    /// once per listing of each merge `m` of a group with at least one.
    pub fn new(
        pins: &PinTable,
        member: impl Fn(NodeId) -> bool,
        mut wait: impl FnMut(NodeId),
    ) -> Self {
        let mut count = |group: &PinGroup| {
            let n = group.inputs.iter().filter(|&&u| member(u)).count() as u32;
            if n > 0 {
                group.merges.iter().copied().for_each(&mut wait);
            }
            n
        };
        PinCounts { waiting: pins.groups.iter().map(&mut count).collect() }
    }

    /// Records that `v` ran, and calls `done(k)` for every group `k`
    /// whose last input that was.
    #[inline]
    pub fn ran(&mut self, pins: &PinTable, v: NodeId, mut done: impl FnMut(u32)) {
        for p in pins.of(v).iter().filter(|p| !p.merge) {
            let left = &mut self.waiting[p.group as usize];
            *left -= 1;
            if *left == 0 {
                done(p.group);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId::from_index(i)).collect()
    }

    #[test]
    fn occurrences_by_node_with_multiplicity() {
        let mut t = PinTable::new();
        t.push(&ids(&[1, 2, 1]), &ids(&[70, 71]));
        t.push(&ids(&[2]), &ids(&[72]));
        let of = |i| t.of(NodeId::from_index(i)).to_vec();
        assert_eq!(of(1), vec![Pin { group: 0, merge: false }; 2]);
        assert_eq!(of(2), vec![Pin { group: 0, merge: false }, Pin { group: 1, merge: false }]);
        assert_eq!(of(71), vec![Pin { group: 0, merge: true }]);
        assert!(of(3).is_empty() && of(500).is_empty());
        assert_eq!(t.pinned_before(NodeId::from_index(70)).collect::<Vec<_>>(), ids(&[1, 2, 1]));
        assert_eq!(t.pinned_until(NodeId::from_index(2)).collect::<Vec<_>>(), ids(&[70, 71, 72]));
    }

    #[test]
    fn repin_and_unpin_keep_the_index() {
        let mut t = PinTable::new();
        t.push(&ids(&[1, 2]), &ids(&[8, 9]));
        t.repin(NodeId::from_index(2), NodeId::from_index(5));
        assert!(t.of(NodeId::from_index(2)).is_empty());
        assert_eq!(t.group(0).inputs(), &ids(&[1, 5])[..]);
        t.unpin_merge(NodeId::from_index(8));
        assert_eq!(t.group(0).merges(), &ids(&[9])[..]);
        t.unpin_merge(NodeId::from_index(9));
        assert!(t.is_empty() && t.of(NodeId::from_index(1)).is_empty());
    }
}
