//! Pluggable search strategies over the M-Rule rewrite substrate.
//!
//! The M-Optimizer separates *strategy* from *machinery*. The
//! machinery — candidate generation, the deterministic parallel
//! evaluation fan-out and merge, incumbent/Pareto bookkeeping,
//! sandboxing, quarantine, observability, and checkpoint cadence —
//! lives in [`crate::optimizer::Engine`] and is identical for every
//! strategy. A [`SearchDriver`] supplies only the strategy: which
//! state to expand next and which evaluated children to retain.
//!
//! Two drivers ship today:
//!
//! * [`GreedyDriver`] — the paper's Algorithm 3 greedy best-first
//!   queue with relaxed dominance (`δ`), bit-identical to the
//!   pre-trait monolithic search loop (pinned by the
//!   `driver_search` regression suite).
//! * [`MctsDriver`] — seeded Monte Carlo tree search over rewrite
//!   sequences: UCT selection, full-batch node expansion through the
//!   engine's fan-out, RNG-chosen rollouts through the incremental
//!   `EvalCache`d evaluator, and reward backpropagation on the
//!   objective peak ([`crate::state::Eval::objective_peak`] relative
//!   to the seed state).
//!
//! # Determinism contract (what every driver must uphold)
//!
//! 1. **Seeded** — all randomness comes from a PRNG seeded by
//!    [`crate::optimizer::OptimizerConfig::seed`] and drawn **only on
//!    the driver thread**, never inside evaluation workers.
//! 2. **Thread-count independent** — drivers interact with candidate
//!    evaluation exclusively through [`crate::optimizer::Engine`]
//!    hooks, whose merges run in candidate order on the driver
//!    thread; a driver must not branch on timing, thread identity, or
//!    completion order. `threads = 1` and `threads = N` must produce
//!    bit-identical results.
//! 3. **Anytime stop at expansion boundaries** — drivers return to
//!    the engine loop between steps; deadline / budget / cancellation
//!    / candidate-cap stops happen only there, so every step merges
//!    atomically and a stopped search is resumable.
//! 4. **Checkpoint/resume** — [`SearchDriver::frontier_snapshot`]
//!    must capture *all* driver state (queue or tree, sequence
//!    counters, RNG state) such that a resumed driver replays the
//!    identical trajectory.
//! 5. **Quarantine interaction** — drivers never see candidates from
//!    quarantined rule families (the engine filters them during
//!    generation) and must not cache or replay states across a
//!    quarantine boundary themselves.

#![deny(missing_docs)]

use crate::checkpoint::{FrontierEntry, MctsCheckpoint, MctsNodeMeta};
use crate::optimizer::{Engine, Objective, OptimizerConfig};
use crate::state::MState;
use magis_graph::io::RecordLines;
use magis_util::rng::{Rng, SeedableRng, SmallRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which search strategy drives the M-Optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverKind {
    /// Algorithm 3: greedy best-first queue with relaxed dominance.
    #[default]
    Greedy,
    /// Seeded Monte Carlo tree search over rewrite sequences.
    Mcts,
}

impl DriverKind {
    /// Parses the CLI / wire spelling (`greedy` / `mcts`).
    pub fn parse(s: &str) -> Option<DriverKind> {
        match s {
            "greedy" => Some(DriverKind::Greedy),
            "mcts" => Some(DriverKind::Mcts),
            _ => None,
        }
    }

    /// The canonical spelling (`greedy` / `mcts`).
    pub fn as_str(&self) -> &'static str {
        match self {
            DriverKind::Greedy => "greedy",
            DriverKind::Mcts => "mcts",
        }
    }
}

impl std::fmt::Display for DriverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What one [`SearchDriver::step`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The driver made progress (expanded, filtered a duplicate, or
    /// updated its internal statistics); the engine loop continues.
    Progress,
    /// The driver's search space is exhausted; the engine loop ends
    /// with a deterministic stop.
    Exhausted,
}

/// A serializable snapshot of a driver's internal frontier, captured
/// for trajectory-exact checkpoint/resume. The `entries` carry every
/// state the driver still holds (queue entries for greedy, tree nodes
/// for MCTS, keyed by `seq`); `mcts` carries the tree topology,
/// visit/reward statistics, and RNG state when the driver is MCTS.
#[derive(Debug, Clone)]
pub struct DriverFrontier {
    /// The driver's next sequence number (greedy) or node count (MCTS).
    pub next_seq: u64,
    /// Serialized states, sorted by sequence number / node id.
    pub entries: Vec<FrontierEntry>,
    /// MCTS tree metadata (`None` for greedy).
    pub mcts: Option<MctsCheckpoint>,
}

/// A pluggable search strategy. See the module docs for the contract
/// every implementation must uphold; [`GreedyDriver`] and
/// [`MctsDriver`] are the reference implementations.
pub trait SearchDriver {
    /// Which strategy this driver implements (checkpoints are tagged
    /// with it so `resume` restores the right engine).
    fn kind(&self) -> DriverKind;

    /// Performs one atomic unit of search work: for greedy, one queue
    /// pop (expansion or duplicate filter); for MCTS, one
    /// select-expand-rollout-backpropagate iteration. Called by the
    /// engine loop between stop probes; the driver must call
    /// [`Engine::boundary`] after each completed expansion so
    /// timeline/progress/checkpoint cadence fires.
    fn step(&mut self, engine: &mut Engine<'_>) -> StepOutcome;

    /// Current frontier size (queue length / tree node count) for
    /// progress reporting.
    fn frontier_len(&self) -> u64;

    /// Captures the driver's complete internal state for a
    /// trajectory-exact checkpoint, every state's graphs recorded
    /// through `lines` — the one [`RecordLines`] of that checkpoint.
    fn frontier_snapshot(&self, lines: &mut RecordLines) -> DriverFrontier;
}

// ---------------------------------------------------------------- greedy

/// One entry on the greedy best-first priority queue: ordered by the
/// objective key, then by sequence number (insertion order) so the pop
/// sequence is total and deterministic.
struct QueueEntry {
    key: (f64, f64),
    seq: usize,
    state: MState,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for best-first (smallest key).
        other
            .key
            .0
            .total_cmp(&self.key.0)
            .then_with(|| other.key.1.total_cmp(&self.key.1))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The paper's Algorithm 3: a greedy best-first priority queue ordered
/// by the objective key, with δ-relaxed dominance deciding which
/// evaluated children stay on the queue. This is the default driver
/// and is bit-identical to the pre-`SearchDriver` monolithic search
/// loop.
pub struct GreedyDriver {
    queue: BinaryHeap<QueueEntry>,
    seq: usize,
    objective: Objective,
}

/// Relaxed-push coefficient `δ` (Algorithm 3; 1.1 per §6.2).
const DELTA: f64 = 1.1;

impl GreedyDriver {
    /// Builds the driver over the `(seq, state)` entries of `queue`
    /// with sequence counter `next_seq`: a fresh search passes the
    /// seed alone at 0, a resume the checkpointed queue and counter
    /// verbatim (an empty queue is a finished search).
    pub(crate) fn new(cfg: &OptimizerConfig, queue: Vec<(u64, MState)>, next_seq: u64) -> GreedyDriver {
        // Re-pushing the checkpointed entry set reproduces the original
        // pop order exactly: `QueueEntry`'s ordering is total (objective
        // key, then sequence number), so the heap's pop sequence is a
        // pure function of its contents.
        let queue = queue.into_iter().map(|(seq, state)| {
            let (m, l) = state.cost();
            QueueEntry { key: cfg.objective.key(m, l), seq: seq as usize, state }
        });
        GreedyDriver { queue: queue.collect(), seq: next_seq as usize, objective: cfg.objective }
    }
}

impl SearchDriver for GreedyDriver {
    fn kind(&self) -> DriverKind {
        DriverKind::Greedy
    }

    fn step(&mut self, engine: &mut Engine<'_>) -> StepOutcome {
        let Some(entry) = self.queue.pop() else { return StepOutcome::Exhausted };
        let mut state = entry.state;
        if !engine.admit_pop(&state) {
            // Duplicate: filtered without an expansion, so no boundary
            // bookkeeping fires (matching the pre-trait loop).
            return StepOutcome::Progress;
        }
        let candidates = engine.begin(&mut state);
        let queue = &mut self.queue;
        let seq = &mut self.seq;
        let objective = self.objective;
        engine.evaluate(&state, &candidates, None, true, &mut |_i, child, cost, best_cost| {
            // The δ-relaxed push test reads the incumbent as updated
            // mid-batch (`best_cost`), exactly like Algorithm 3.
            if objective.better_than(cost, best_cost, DELTA) {
                *seq += 1;
                queue.push(QueueEntry { key: objective.key(cost.0, cost.1), seq: *seq, state: child });
                true
            } else {
                false
            }
        });
        engine.boundary(self.queue.len() as u64, &mut |lines| self.frontier_snapshot(lines));
        StepOutcome::Progress
    }

    fn frontier_len(&self) -> u64 {
        self.queue.len() as u64
    }

    /// The queue, sorted by sequence number (`BinaryHeap` iteration
    /// order is unspecified; the sort makes the checkpoint bytes a pure
    /// function of the search state).
    fn frontier_snapshot(&self, lines: &mut RecordLines) -> DriverFrontier {
        let mut entries: Vec<FrontierEntry> =
            self.queue.iter().map(|e| FrontierEntry::of(e.seq as u64, &e.state, lines)).collect();
        entries.sort_by_key(|e| e.seq);
        DriverFrontier { next_seq: self.seq as u64, entries, mcts: None }
    }
}

// ---------------------------------------------------------------- mcts

/// One MCTS tree node: an evaluated M-State plus the UCT statistics.
struct Node {
    state: MState,
    parent: Option<usize>,
    /// Candidate index (within the parent's sorted batch) of the
    /// transform that produced this node — stable across thread counts
    /// and the checkpoint round-trip.
    cand_index: usize,
    /// Child node ids, in candidate order.
    children: Vec<usize>,
    visits: u64,
    reward_sum: f64,
    /// Whether this node's candidate batch has been generated and
    /// evaluated. An expanded node with no children is terminal.
    expanded: bool,
}

/// UCT exploration constant. The canonical UCB1 setting (√2) assumes
/// rewards spanning `[0, 1]`; our rewards are fractional peak
/// reductions that rarely exceed ~0.15, so √2 would drown the
/// exploitation term and degenerate selection into breadth-first
/// sweeping. The constant is scaled to the observed reward range,
/// which keeps the exploration bonus comparable to real reward
/// differences at bench-sized eval budgets.
const EXPLORE_C: f64 = 0.1;
/// Rollout horizon: how many RNG-chosen single-candidate steps a
/// simulation walks past the tree frontier. Memory rewrites compound
/// (a recompute unlock often pays off several steps later), so the
/// horizon is deep enough for multi-step chains to show up in the
/// reward signal.
const ROLLOUT_DEPTH: usize = 12;

/// Seeded Monte Carlo tree search over rewrite sequences.
///
/// Each [`SearchDriver::step`] runs one MCTS iteration:
///
/// 1. **Selection** — descend from the root by UCT
///    (`mean reward + √2·√(ln N / n)`), breaking ties toward the
///    lowest candidate index; stop at the first unexpanded node.
/// 2. **Expansion** — generate and evaluate the node's *full*
///    candidate batch through the engine's deterministic fan-out;
///    every evaluated child becomes a tree node (transpositions are
///    legitimate tree branches, so the greedy seen-set dedup is off).
/// 3. **Rollout** — from the best-cost new child (lowest objective
///    key in the batch, ties toward the lowest candidate index), walk
///    up to `ROLLOUT_DEPTH` steps; each step generates the
///    candidate batch, RNG-picks one index *before* evaluation, and
///    evaluates just that candidate inline on the driver thread.
/// 4. **Backpropagation** — the best memory-constrained reward seen
///    along the walk (`(seed_peak − objective_peak)/seed_peak`,
///    zeroed when the latency constraint is violated) is added to
///    every node on the selection path.
///
/// All RNG draws happen on the driver thread from a
/// [`SmallRng`] seeded with `OptimizerConfig::seed`, so trajectories
/// are bit-identical across thread counts; the RNG state and full
/// tree ride in every checkpoint for trajectory-exact resume.
pub struct MctsDriver {
    nodes: Vec<Node>,
    rng: SmallRng,
}

impl MctsDriver {
    /// A fresh tree rooted at `init`.
    pub(crate) fn new(cfg: &OptimizerConfig, init: MState) -> MctsDriver {
        MctsDriver {
            nodes: vec![Node {
                state: init,
                parent: None,
                cand_index: 0,
                children: Vec::new(),
                visits: 0,
                reward_sum: 0.0,
                expanded: false,
            }],
            rng: SmallRng::seed_from_u64(cfg.seed),
        }
    }

    /// Rebuilds the tree from a checkpoint: `states` are the restored
    /// frontier entries keyed by node id, `meta` the topology /
    /// statistics / RNG state. The caller (`optimizer::resume`) has
    /// already validated that ids are dense and counts match.
    pub(crate) fn resume(states: Vec<(u64, MState)>, meta: &MctsCheckpoint) -> MctsDriver {
        let mut nodes: Vec<Node> = states
            .into_iter()
            .zip(&meta.nodes)
            .map(|((_, state), m)| Node {
                state,
                parent: m.parent.map(|p| p as usize),
                cand_index: m.cand_index as usize,
                children: Vec::new(),
                visits: m.visits,
                reward_sum: m.reward_sum,
                expanded: m.expanded,
            })
            .collect();
        // Children are reconstructed from parent links in node-id
        // order, which is creation (candidate) order — so UCT
        // tie-breaks replay identically after a resume.
        for i in 0..nodes.len() {
            if let Some(p) = nodes[i].parent {
                nodes[p].children.push(i);
            }
        }
        MctsDriver { nodes, rng: SmallRng::from_state(meta.rng_state) }
    }

    /// Memory-constrained reward relative to the seed state, in
    /// `[0, 1]`: the fractional objective-peak reduction when the
    /// budget constraint holds, zero otherwise (and symmetrically on
    /// latency for `MinLatency`).
    fn reward(engine: &Engine<'_>, cost: (u64, f64)) -> f64 {
        let seed = engine.seed_cost();
        match engine.objective() {
            Objective::MinMemory { lat_limit } => {
                if cost.1 > lat_limit || seed.0 == 0 {
                    return 0.0;
                }
                ((seed.0 as f64 - cost.0 as f64) / seed.0 as f64).max(0.0)
            }
            Objective::MinLatency { mem_limit } => {
                if cost.0 > mem_limit || seed.1 <= 0.0 {
                    return 0.0;
                }
                ((seed.1 - cost.1) / seed.1).max(0.0)
            }
        }
    }

    /// UCT child selection: the first unvisited child (in candidate
    /// order) wins outright; otherwise the highest UCB1 score, with
    /// strict comparison so ties break toward the lowest candidate
    /// index.
    fn select_child(&self, parent: usize) -> usize {
        let ln_p = (self.nodes[parent].visits.max(1) as f64).ln();
        let children = &self.nodes[parent].children;
        let mut best_id = children[0];
        let mut best_score = f64::NEG_INFINITY;
        for &c in children {
            let n = &self.nodes[c];
            if n.visits == 0 {
                return c;
            }
            let v = n.visits as f64;
            let score = n.reward_sum / v + EXPLORE_C * (ln_p / v).sqrt();
            if score > best_score {
                best_score = score;
                best_id = c;
            }
        }
        best_id
    }

    /// Simulation: walk up to `ROLLOUT_DEPTH` RNG-chosen rewrites
    /// from `start`, evaluating only the chosen candidate at each step
    /// (inline, on this thread). Returns the best reward seen.
    fn rollout(&mut self, engine: &mut Engine<'_>, start: usize) -> f64 {
        let mut cur = self.nodes[start].state.clone();
        let mut best_r = Self::reward(engine, cur.cost());
        for _ in 0..ROLLOUT_DEPTH {
            let candidates = engine.begin(&mut cur);
            if candidates.is_empty() {
                break;
            }
            // The index is drawn BEFORE evaluation so the RNG stream
            // is a pure function of the trajectory, not of evaluation
            // outcomes.
            let i = self.rng.gen_range(0..candidates.len());
            let mut picked: Option<(MState, (u64, f64))> = None;
            engine.evaluate(&cur, &candidates, Some(i), false, &mut |_, child, cost, _| {
                picked = Some((child, cost));
                true
            });
            let Some((next, cost)) = picked else { break };
            best_r = best_r.max(Self::reward(engine, cost));
            cur = next;
        }
        best_r
    }
}

impl SearchDriver for MctsDriver {
    fn kind(&self) -> DriverKind {
        DriverKind::Mcts
    }

    fn step(&mut self, engine: &mut Engine<'_>) -> StepOutcome {
        // Every node expanded means no expansion can ever evaluate a
        // new state again: the reachable space is exhausted.
        if self.nodes.iter().all(|n| n.expanded) {
            return StepOutcome::Exhausted;
        }
        // Selection.
        let mut path = vec![0usize];
        let mut cur = 0usize;
        while self.nodes[cur].expanded && !self.nodes[cur].children.is_empty() {
            cur = self.select_child(cur);
            path.push(cur);
        }
        let reward;
        if self.nodes[cur].expanded {
            // Terminal leaf (no candidates survived generation): its
            // own cost is the whole signal. Visits still accumulate,
            // steering UCT toward unexplored siblings.
            reward = Self::reward(engine, self.nodes[cur].state.cost());
        } else {
            // Expansion: full-batch evaluation through the engine's
            // deterministic fan-out; every evaluated child becomes a
            // node (dedup off — transpositions are legitimate).
            let mut state = self.nodes[cur].state.clone();
            let candidates = engine.begin(&mut state);
            let objective = engine.objective();
            let mut new_children: Vec<(usize, MState)> = Vec::new();
            // Offset (into the new-children run) of the best-cost
            // child; candidate-order iteration with strict `<` makes
            // the tie-break the lowest candidate index.
            let mut best_off = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            engine.evaluate(&state, &candidates, None, false, &mut |i, child, cost, _best| {
                let key = objective.key(cost.0, cost.1);
                if key < best_key {
                    best_key = key;
                    best_off = new_children.len();
                }
                new_children.push((i, child));
                true
            });
            self.nodes[cur].state = state; // keep the analyzed F-Tree
            self.nodes[cur].expanded = true;
            let first_new = self.nodes.len();
            for (i, child) in new_children {
                let id = self.nodes.len();
                self.nodes.push(Node {
                    state: child,
                    parent: Some(cur),
                    cand_index: i,
                    children: Vec::new(),
                    visits: 0,
                    reward_sum: 0.0,
                    expanded: false,
                });
                self.nodes[cur].children.push(id);
            }
            if self.nodes.len() == first_new {
                reward = Self::reward(engine, self.nodes[cur].state.cost());
            } else {
                // Roll out from the best-cost new child: the rollout
                // is the expensive part of the iteration, so it starts
                // where the objective says the signal is — the RNG
                // then diversifies the walk itself.
                let pick = first_new + best_off;
                path.push(pick);
                reward = self.rollout(engine, pick);
            }
        }
        // Backpropagation.
        for &n in &path {
            self.nodes[n].visits += 1;
            self.nodes[n].reward_sum += reward;
        }
        engine.boundary(self.nodes.len() as u64, &mut |lines| self.frontier_snapshot(lines));
        StepOutcome::Progress
    }

    fn frontier_len(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn frontier_snapshot(&self, lines: &mut RecordLines) -> DriverFrontier {
        let entries = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, n)| FrontierEntry::of(id as u64, &n.state, lines))
            .collect();
        DriverFrontier {
            next_seq: self.nodes.len() as u64,
            entries,
            mcts: Some(MctsCheckpoint {
                rng_state: self.rng.state(),
                nodes: self
                    .nodes
                    .iter()
                    .map(|n| MctsNodeMeta {
                        parent: n.parent.map(|p| p as u64),
                        cand_index: n.cand_index as u64,
                        visits: n.visits,
                        reward_sum: n.reward_sum,
                        expanded: n.expanded,
                    })
                    .collect(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Objective;
    use crate::state::EvalContext;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    fn tiny_state() -> MState {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64, 32], "x");
        let w = b.weight([32, 32], "w");
        let h = b.matmul(x, w);
        b.relu(h);
        MState::initial(b.finish(), &EvalContext::default())
    }

    #[test]
    fn driver_kind_round_trips() {
        for k in [DriverKind::Greedy, DriverKind::Mcts] {
            assert_eq!(DriverKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(DriverKind::parse("quantum"), None);
        assert_eq!(DriverKind::default(), DriverKind::Greedy);
    }

    #[test]
    fn queue_orders_best_first() {
        let obj = Objective::MinMemory { lat_limit: 1.0 };
        let mut q: BinaryHeap<QueueEntry> = BinaryHeap::new();
        let s = tiny_state();
        for (i, (m, l)) in [(100u64, 0.5), (50, 0.5), (70, 0.5)].iter().enumerate() {
            q.push(QueueEntry { key: obj.key(*m, *l), seq: i, state: s.clone() });
        }
        assert_eq!(q.pop().unwrap().key, obj.key(50, 0.5));
        assert_eq!(q.pop().unwrap().key, obj.key(70, 0.5));
    }

    #[test]
    fn mcts_resume_rebuilds_children_in_candidate_order() {
        let s = tiny_state();
        let meta = MctsCheckpoint {
            rng_state: 0xabcd,
            nodes: vec![
                MctsNodeMeta { parent: None, cand_index: 0, visits: 3, reward_sum: 0.5, expanded: true },
                MctsNodeMeta { parent: Some(0), cand_index: 0, visits: 1, reward_sum: 0.25, expanded: false },
                MctsNodeMeta { parent: Some(0), cand_index: 2, visits: 2, reward_sum: 0.25, expanded: false },
            ],
        };
        let states = vec![(0, s.clone()), (1, s.clone()), (2, s)];
        let d = MctsDriver::resume(states, &meta);
        assert_eq!(d.nodes[0].children, vec![1, 2]);
        assert_eq!(d.nodes[2].cand_index, 2);
        assert_eq!(d.nodes[0].visits, 3);
        assert_eq!(d.rng.state(), 0xabcd);
        assert_eq!(d.frontier_len(), 3);
        let snap = d.frontier_snapshot(&mut RecordLines::default());
        assert_eq!(snap.next_seq, 3);
        let m = snap.mcts.unwrap();
        assert_eq!(m.rng_state, 0xabcd);
        assert_eq!(m.nodes.len(), 3);
        assert_eq!(m.nodes[2].cand_index, 2);
    }
}
