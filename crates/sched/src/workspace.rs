//! The dense scratch every pass of Algorithm 2 shares: slot-indexed
//! tables owned by one `incremental_schedule_cached` / `full_schedule`
//! call, so partitioning and task building allocate in proportion to
//! their window, never to the graph.

use magis_graph::graph::{Graph, NodeId};
use magis_graph::GraphView;
use magis_sim::memory::storage_root;

/// The tables for one graph, reused across the windows, components and
/// pieces of one call.
pub(crate) struct Workspace {
    /// Slot → `epoch << 32 | index` in the list last passed to
    /// [`Self::index`]: cells of an older epoch are outside it, so
    /// re-indexing costs the list, not the table.
    local: Vec<u64>,
    epoch: u64,
    /// Storage-root slot + 1, 0 until asked for: the graph does not
    /// change during a call, so an alias chain is walked once per slot.
    roots: Vec<u32>,
}

impl Workspace {
    pub(crate) fn new(g: &Graph) -> Self {
        Workspace { local: vec![0; g.capacity()], epoch: 1, roots: vec![0; g.capacity()] }
    }

    /// Makes `nodes` the indexed list: `local(nodes[i]) == Some(i)`,
    /// `None` for every other node. Ids past the graph (stale entries
    /// of an old schedule) are skipped.
    pub(crate) fn index(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.epoch += 1;
        for (i, v) in nodes.into_iter().enumerate() {
            if let Some(cell) = self.local.get_mut(v.index()) {
                *cell = self.epoch << 32 | i as u64;
            }
        }
    }

    pub(crate) fn local(&self, v: NodeId) -> Option<usize> {
        let cell = self.local[v.index()];
        (cell >> 32 == self.epoch).then_some(cell as u32 as usize)
    }

    /// [`storage_root`] of `v`, memoized.
    pub(crate) fn root_of(&mut self, g: &Graph, v: NodeId) -> NodeId {
        let cell = &mut self.roots[v.index()];
        if *cell == 0 {
            *cell = storage_root(g, v).index() as u32 + 1;
        }
        NodeId::from_index(*cell as usize - 1)
    }
}

/// The ready set of a Kahn pass over ranks `0..n`, popped lowest rank
/// first: a bitmap and a word cursor that only steps back when a rank
/// below it becomes ready.
pub(crate) struct ReadyRanks {
    words: Vec<u64>,
    cursor: usize,
}

impl ReadyRanks {
    pub(crate) fn new(n: usize) -> Self {
        ReadyRanks { words: vec![0; n.div_ceil(64)], cursor: 0 }
    }

    pub(crate) fn push(&mut self, rank: usize) {
        self.words[rank / 64] |= 1 << (rank % 64);
        self.cursor = self.cursor.min(rank / 64);
    }

    /// Removes and returns the lowest ready rank.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        while *self.words.get(self.cursor)? == 0 {
            self.cursor += 1;
        }
        let word = &mut self.words[self.cursor];
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(self.cursor * 64 + bit)
    }
}
