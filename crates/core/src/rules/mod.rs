//! M-Rules (§5): the unified transformation vocabulary explored by the
//! M-Optimizer — F-Tree mutations (§5.1), scheduling-based rules
//! decomposed from re-materialization and swapping (§5.2, Fig. 8), and
//! TASO-style aggregation/interim rules (Fig. 1 (a)/(b)).

pub mod sched_rules;
pub mod taso_rules;

use crate::ftree::{FTree, FTreeMutation};
use crate::state::MState;
use magis_graph::graph::{Graph, NodeId};
use std::collections::BTreeSet;
use std::fmt;

pub use taso_rules::TasoTransform;

/// One candidate transformation of an M-State.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Transform {
    /// An F-Tree mutation (fission enable/lift/disable/mutate).
    FTree(FTreeMutation),
    /// Re-materialization rule: give `user` a recomputed clone of
    /// `producer` (Fig. 8 (a)/(b)).
    Remat {
        /// The node whose output is recomputed.
        producer: NodeId,
        /// The consumer re-routed through the recomputed clone.
        user: NodeId,
    },
    /// De-re-materialization: merge duplicate `drop` into `keep`
    /// (Fig. 8 (c)/(d)).
    DeRemat {
        /// The surviving producer.
        keep: NodeId,
        /// The duplicate folded into `keep`.
        drop: NodeId,
    },
    /// Swapping rule: route `user`'s read of `producer` through
    /// `Store`/`Load` (Fig. 8 (e)).
    Swap {
        /// The node whose output is spilled to host memory.
        producer: NodeId,
        /// The consumer re-routed through the `Load`.
        user: NodeId,
    },
    /// De-swapping: collapse a `Store`/`Load` pair (Fig. 8 (f)).
    DeSwap {
        /// The `Load` node of the pair being collapsed.
        load: NodeId,
    },
    /// A TASO aggregation/interim rule.
    Taso(TasoTransform),
}

impl Transform {
    /// A total order on transforms: `(rule family, id, id)`. The
    /// parallel optimizer sorts each candidate batch by this key before
    /// fanning out, so the merge order — and therefore the search
    /// trajectory — is independent of generation order and thread
    /// count.
    pub fn sort_key(&self) -> (u8, u64, u64) {
        match self {
            Transform::FTree(FTreeMutation::Enable(i)) => (0, *i as u64, 0),
            Transform::FTree(FTreeMutation::Lift(i)) => (1, *i as u64, 0),
            Transform::FTree(FTreeMutation::Disable(i)) => (2, *i as u64, 0),
            Transform::FTree(FTreeMutation::Mutate(i)) => (3, *i as u64, 0),
            Transform::Remat { producer, user } => (4, producer.index() as u64, user.index() as u64),
            Transform::DeRemat { keep, drop } => (5, keep.index() as u64, drop.index() as u64),
            Transform::Swap { producer, user } => (6, producer.index() as u64, user.index() as u64),
            Transform::DeSwap { load } => (7, load.index() as u64, 0),
            Transform::Taso(TasoTransform::MergeMatmuls { a, b }) => {
                (8, a.index() as u64, b.index() as u64)
            }
            Transform::Taso(TasoTransform::MergeConvs { a, b }) => {
                (9, a.index() as u64, b.index() as u64)
            }
            Transform::Taso(TasoTransform::RotateAdd { top }) => (10, top.index() as u64, 0),
        }
    }
}

/// Human-readable name of a rule family id (`sort_key().0`), used in
/// metric labels and the search timeline.
pub fn family_name(family: u8) -> &'static str {
    match family {
        0 => "ftree-enable",
        1 => "ftree-lift",
        2 => "ftree-disable",
        3 => "ftree-mutate",
        4 => "remat",
        5 => "deremat",
        6 => "swap",
        7 => "deswap",
        8 => "taso-merge-matmul",
        9 => "taso-merge-conv",
        10 => "taso-rotate-add",
        _ => "unknown",
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transform::FTree(m) => write!(f, "ftree:{m:?}"),
            Transform::Remat { producer, user } => write!(f, "remat:{producer}->{user}"),
            Transform::DeRemat { keep, drop } => write!(f, "deremat:{drop}=>{keep}"),
            Transform::Swap { producer, user } => write!(f, "swap:{producer}->{user}"),
            Transform::DeSwap { load } => write!(f, "deswap:{load}"),
            Transform::Taso(t) => write!(f, "taso:{t:?}"),
        }
    }
}

/// Rule-generation configuration.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Apply the §5.2 heuristic: match re-mat/swap sites only against
    /// memory hot-spots. Disabling this is the `naïve-sch-rule`
    /// ablation of §7.2.5.
    pub hotspot_filter: bool,
    /// Include TASO aggregation/interim rules.
    pub enable_taso: bool,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig { hotspot_filter: true, enable_taso: true }
    }
}

/// Per-rule-family candidate cap (largest tensors first).
const MAX_PER_RULE: usize = 24;

/// Error applying a transform (candidate abandoned by the optimizer).
#[derive(Debug, Clone)]
pub struct ApplyError(pub String);

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transform failed: {}", self.0)
    }
}

impl std::error::Error for ApplyError {}

/// Result of applying a transform to an M-State's base graph.
#[derive(Debug, Clone)]
pub struct Applied {
    /// The new base graph.
    pub base: Graph,
    /// The new F-Tree.
    pub ftree: FTree,
    /// Nodes of the *old* graph touched by the transform (the `S_old`
    /// of Algorithm 2).
    pub mutated: BTreeSet<NodeId>,
    /// Whether the F-Tree must be re-analyzed (graph structure changed
    /// outside fission regions, §3 / Algorithm 3 line 13).
    pub tree_stale: bool,
}

/// Generates all candidate transforms of a state.
pub fn generate(state: &MState, cfg: &RuleConfig) -> Vec<Transform> {
    let mut out = Vec::new();
    for m in state.ftree.legal_mutations(&state.base) {
        out.push(Transform::FTree(m));
    }
    sched_rules::generate(state, cfg, &mut out);
    if cfg.enable_taso {
        taso_rules::generate(state, &mut out);
    }
    out
}

/// Applies a transform to a state's base graph + F-Tree.
///
/// # Errors
///
/// Returns [`ApplyError`] when the transform is no longer applicable
/// (the optimizer simply drops the candidate).
pub fn apply(state: &MState, t: &Transform) -> Result<Applied, ApplyError> {
    match t {
        Transform::FTree(m) => {
            let (ftree, region) = state
                .ftree
                .apply(&state.base, *m)
                .map_err(ApplyError)?;
            Ok(Applied { base: state.base.clone(), ftree, mutated: region, tree_stale: false })
        }
        Transform::Remat { producer, user } => sched_rules::apply_remat(state, *producer, *user),
        Transform::DeRemat { keep, drop } => sched_rules::apply_deremat(state, *keep, *drop),
        Transform::Swap { producer, user } => sched_rules::apply_swap(state, *producer, *user),
        Transform::DeSwap { load } => sched_rules::apply_deswap(state, *load),
        Transform::Taso(tt) => taso_rules::apply(state, tt),
    }
}

/// Whether a node set is disjoint from every enabled fission region
/// (rules must not mutate split regions, §3).
pub(crate) fn outside_enabled_regions(ftree: &FTree, set: &BTreeSet<NodeId>) -> bool {
    ftree
        .nodes()
        .iter()
        .filter(|n| n.enabled())
        .all(|n| n.spec.set.intersection(set).next().is_none())
}
