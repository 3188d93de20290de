//! How far the beam DP sits from the optimal schedule (DESIGN.md D6).
//!
//! The oracle is an exhaustive minimum-peak search over every
//! topological order of a window: a depth-first search over executed
//! sets, memoised on the set, that lives in this file and nowhere else.
//! Its memory model is the closed form of the DP's running one — the
//! live bytes after an executed set `S` are the window base, plus every
//! root allocated in `S`, minus every freeable root whose users all lie
//! in `S` — so the two agree only if the DP's incremental bookkeeping
//! does. It covers every window of at most 12 nodes: chain / fan-out
//! DAGs, `random_dnn` windows and the small `full_schedule` pieces of
//! three bench models.

mod common;

use magis_graph::algo::{is_topo_order, topo_order};
use magis_graph::graph::NodeId;
use magis_graph::GraphView;
use magis_models::{random_dnn, RandomDnnConfig, Workload};
use magis_sched::{dp_schedule, partition, SchedConfig, SchedTask};
use magis_sim::memory_profile_checked;
use magis_util::rng::{Rng, SeedableRng, SmallRng};
use std::collections::BTreeSet;

/// The largest window the oracle enumerates.
const MAX_NODES: usize = 12;

const BEAM_WIDTHS: [usize; 4] = [1, 2, 8, 64];

/// The oracle over one window of at most [`MAX_NODES`] nodes, executed
/// sets as bitmasks.
struct Exhaustive<'t> {
    task: &'t SchedTask<'t>,
    preds: Vec<u32>,
    /// Per executed set: the least achievable peak of the steps still to
    /// run, `u64::MAX` until visited.
    memo: Vec<u64>,
}

impl<'t> Exhaustive<'t> {
    fn new(task: &'t SchedTask<'t>) -> Self {
        assert!(task.len() <= MAX_NODES);
        let preds = (0..task.len()).map(|v| mask(&task.preds[v])).collect();
        Exhaustive { task, preds, memo: vec![u64::MAX; 1 << task.len()] }
    }

    /// Live bytes once exactly `set` has executed.
    fn live(&self, set: u32) -> u64 {
        let t = self.task;
        let mut live = t.base;
        for (ri, r) in t.roots.iter().enumerate() {
            if r.alloc_at.is_some_and(|a| set >> a & 1 == 1) {
                live += r.bytes;
            }
            let users = mask(&t.root_users[ri]);
            if r.freeable && set & users == users {
                live -= r.bytes;
            }
        }
        live
    }

    /// The peak while `v` runs after `set`: live bytes plus its outputs.
    fn step(&self, set: u32, v: usize) -> u64 {
        self.live(set) + self.task.allocs[v].iter().map(|&ri| self.task.roots[ri].bytes).sum::<u64>()
    }

    /// The least peak over every completion of `set`.
    fn rest(&mut self, set: u32) -> u64 {
        let full = (1u32 << self.task.len()) - 1;
        if set == full {
            return 0;
        }
        if self.memo[set as usize] == u64::MAX {
            let ready = (0..self.task.len())
                .filter(|&v| set >> v & 1 == 0 && set & self.preds[v] == self.preds[v]);
            let best = ready
                .collect::<Vec<_>>()
                .into_iter()
                .map(|v| self.step(set, v).max(self.rest(set | 1 << v)))
                .min()
                .expect("a DAG window always has a ready node");
            self.memo[set as usize] = best;
        }
        self.memo[set as usize]
    }

    /// `(optimal peak, widest level)`: the minimum peak over every
    /// topological order, and the most executed sets of one size any
    /// order passes through — the beam that makes the DP exact.
    fn solve(mut self) -> (u64, usize) {
        let peak = self.task.base.max(self.rest(0));
        let mut per_level = vec![0; self.task.len() + 1];
        for (set, &m) in self.memo.iter().enumerate() {
            if m != u64::MAX {
                per_level[(set as u32).count_ones() as usize] += 1;
            }
        }
        (peak, per_level.into_iter().max().unwrap_or(0).max(1))
    }

    /// The peak of `order` under the oracle's model; `None` unless it
    /// runs every window node once, after its predecessors.
    fn profile(&self, order: &[usize]) -> Option<u64> {
        let (mut set, mut peak) = (0u32, self.task.base);
        for &v in order {
            if v >= self.task.len() || set >> v & 1 == 1 || set & self.preds[v] != self.preds[v] {
                return None;
            }
            peak = peak.max(self.step(set, v));
            set |= 1 << v;
        }
        (set.count_ones() as usize == self.task.len()).then_some(peak)
    }
}

fn mask(nodes: &[usize]) -> u32 {
    nodes.iter().fold(0, |m, &i| m | 1 << i)
}

/// One window under test: where it came from, and its task.
struct Window<'g> {
    what: String,
    task: SchedTask<'g>,
    /// Whether the task covers its whole graph, so the graph's own
    /// memory profiler prices the order too.
    whole: bool,
}

/// Every window the bound covers, in a fixed order.
fn windows(graphs: &[(String, magis_graph::Graph, Vec<BTreeSet<NodeId>>)]) -> Vec<Window<'_>> {
    let mut out = Vec::new();
    for (what, g, sets) in graphs {
        if sets.is_empty() {
            out.push(Window { what: what.clone(), task: SchedTask::whole_graph(g), whole: true });
        }
        for set in sets {
            let task = SchedTask::subset(g, set);
            out.push(Window { what: format!("{what} ({} nodes)", task.len()), task, whole: false });
        }
    }
    out
}

/// The graphs behind [`windows`]: an empty set list means the whole
/// graph is the window.
fn graphs() -> Vec<(String, magis_graph::Graph, Vec<BTreeSet<NodeId>>)> {
    let mut out = Vec::new();
    for n in 1..=MAX_NODES {
        for seed in 0..8 {
            let g = common::chain_fanout_dag(n, 100 * n as u64 + seed);
            out.push((format!("chain/fan-out DAG n={n} seed={seed}"), g, Vec::new()));
        }
    }
    let mut rng = SmallRng::seed_from_u64(30);
    for seed in 0..24 {
        let cfg = RandomDnnConfig { batch: 2, channels: 8, hw: 8, cells: 1 + seed % 6, blocks: 3 };
        let g = random_dnn(&cfg, seed as u64);
        let psi = topo_order(&g);
        let sets = (0..3)
            .map(|_| {
                let len = rng.gen_range(2..=MAX_NODES.min(psi.len()));
                let at = rng.gen_range(0..=psi.len() - len);
                psi[at..at + len].iter().copied().collect()
            })
            .collect();
        out.push((format!("random_dnn seed={seed} window"), g, sets));
    }
    for (w, scale) in
        [(Workload::UNet, 0.15), (Workload::ResNet50, 0.25), (Workload::BertBase, 0.25)]
    {
        let g = w.build(scale).graph;
        let all: BTreeSet<NodeId> = g.node_ids().collect();
        let sets: Vec<BTreeSet<NodeId>> = partition(&g, &all)
            .into_iter()
            .filter(|p| p.len() <= MAX_NODES)
            .map(|p| p.into_iter().collect())
            .collect();
        assert!(!sets.is_empty(), "{w:?}@{scale}: no piece of at most {MAX_NODES} nodes");
        out.push((format!("{w:?}@{scale} full_schedule piece"), g, sets));
    }
    out
}

fn dp(task: &SchedTask<'_>, beam_width: usize) -> magis_sched::DpResult {
    dp_schedule(task, &SchedConfig { beam_width, node_budget: usize::MAX })
}

#[test]
fn a_beam_as_wide_as_the_widest_level_is_optimal() {
    let graphs = graphs();
    for w in windows(&graphs) {
        let (optimum, widest) = Exhaustive::new(&w.task).solve();
        let res = dp(&w.task, widest);
        assert_eq!(res.peak, optimum, "{}: beam {widest}", w.what);
        assert_eq!(Exhaustive::new(&w.task).profile(&res.order), Some(optimum), "{}", w.what);
    }
}

#[test]
fn narrow_beams_return_valid_orders_priced_at_or_above_the_optimum() {
    let graphs = graphs();
    for w in windows(&graphs) {
        let oracle = Exhaustive::new(&w.task);
        let (optimum, _) = Exhaustive::new(&w.task).solve();
        for beam in BEAM_WIDTHS {
            let res = dp(&w.task, beam);
            assert_eq!(oracle.profile(&res.order), Some(res.peak), "{}: beam {beam}", w.what);
            assert!(res.peak >= optimum, "{}: beam {beam} below the optimum", w.what);
            if w.whole {
                let g = w.task.graph();
                let ids = w.task.to_node_ids(&res.order);
                assert!(is_topo_order(g, &ids), "{}: beam {beam}", w.what);
                let profiled = memory_profile_checked(g, &ids).expect("a topological order");
                assert_eq!(profiled.peak_bytes, res.peak, "{}: beam {beam}", w.what);
            }
        }
    }
}

/// The number of windows the bound covers.
const WINDOWS: usize = 173;

/// DESIGN.md D6's gap table, row for row: per beam width, the windows
/// whose widest level exceeds it, the windows at gap 0, and the median,
/// the median of the nonzero and the max relative gap `(peak − optimum)
/// / optimum` in parts per million. Run with `--nocapture` to print it.
const GAP_TABLE: [(usize, usize, usize, u64, u64, u64); 4] = [
    (1, 112, 159, 0, 185_185, 250_000),
    (2, 80, 162, 0, 185_185, 250_000),
    (8, 23, 173, 0, 0, 0),
    (64, 0, 173, 0, 0, 0),
];

#[test]
fn gap_distribution_per_beam_width_is_the_committed_one() {
    let graphs = graphs();
    let windows = windows(&graphs);
    assert_eq!(windows.len(), WINDOWS);
    let solved: Vec<(u64, usize)> =
        windows.iter().map(|w| Exhaustive::new(&w.task).solve()).collect();
    let mut table = Vec::new();
    for beam in BEAM_WIDTHS {
        let wider = solved.iter().filter(|&&(_, widest)| widest > beam).count();
        let mut gaps: Vec<u64> = windows
            .iter()
            .zip(&solved)
            .map(|(w, &(opt, _))| {
                let peak = dp(&w.task, beam).peak;
                ((peak - opt) as u128 * 1_000_000 / opt.max(1) as u128) as u64
            })
            .collect();
        gaps.sort_unstable();
        let nonzero = &gaps[gaps.iter().filter(|&&g| g == 0).count()..];
        let median = |g: &[u64]| g.get(g.len() / 2).copied().unwrap_or(0);
        let row = (beam, wider, WINDOWS - nonzero.len(), median(&gaps), median(nonzero), gaps[WINDOWS - 1]);
        eprintln!("{row:?}");
        table.push(row);
    }
    assert_eq!(table, GAP_TABLE);
}
