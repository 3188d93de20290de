//! Operator performance cache (§6.2: "a simulator with an operator
//! performance cache").
//!
//! The optimizer evaluates thousands of candidate graphs; most share
//! operator signatures (op kind + input shapes), so per-op latencies
//! are memoized here. On the paper's system the cache stores *measured*
//! kernel times; in this reproduction it fronts the analytic
//! [`CostModel`] for some registry backend, which plays the role of the
//! profiler. The model is pure per operator signature (same op + shapes
//! → the same `f64` bits): the cache stores first answers forever, and
//! the optimizer's determinism contract rides on replays matching.

use magis_graph::GraphView;
use crate::backend::Backend;
use crate::cost::CostModel;
use crate::device::DeviceSpec;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::tensor::TensorMeta;
use magis_util::hash::MixHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Memoizing wrapper over a [`CostModel`].
///
/// The cache is `Sync` (interior mutability via a mutex plus atomic
/// counters) so one instance can be shared by the parallel optimizer's
/// evaluation workers.
#[derive(Debug)]
pub struct PerfCache {
    model: CostModel,
    cache: Mutex<HashMap<u64, f64, BuildHasherDefault<KeyHasher>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PerfCache {
    fn default() -> Self {
        PerfCache::new(CostModel::default())
    }
}

impl PerfCache {
    /// Creates a cache fronting the analytic `model`.
    pub fn new(model: CostModel) -> Self {
        PerfCache {
            model,
            cache: Mutex::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Creates a cache fronting the analytic model for a registry
    /// `backend`.
    pub fn for_backend(backend: &Backend) -> Self {
        PerfCache::new(CostModel::for_backend(backend))
    }

    /// The model itself, as a [`NodeCost`](crate::NodeCost) that
    /// bypasses memoization — the independent recomputation path the
    /// optimizer's paranoia cross-check uses, so a corrupted cache
    /// entry cannot corroborate itself.
    pub fn uncached(&self) -> &CostModel {
        &self.model
    }

    /// The operator signature, which keys the map as it is. SipHash,
    /// run for the signature and again for the map, cost more than half
    /// a simulation. A crafted collision mis-costs only its own job:
    /// the daemon builds this cache per job.
    fn signature(g: &Graph, v: NodeId) -> u64 {
        let mut h = MixHasher::default();
        let n = g.node(v);
        n.op.hash(&mut h);
        for &i in n.inputs() {
            g.node(i).meta.hash(&mut h);
        }
        n.meta.hash(&mut h);
        h.finish()
    }

    /// Latency of one execution of node `v` (no repeat), memoized by
    /// operator signature.
    pub fn op_latency(&self, g: &Graph, v: NodeId) -> f64 {
        let sig = Self::signature(g, v);
        if let Some(&t) = self.cache.lock().unwrap().get(&sig) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return t;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t = self.model_latency(g, v);
        self.cache.lock().unwrap().insert(sig, t);
        t
    }

    fn model_latency(&self, g: &Graph, v: NodeId) -> f64 {
        let n = g.node(v);
        let inputs: Vec<TensorMeta> =
            n.inputs().iter().map(|&i| g.node(i).meta.clone()).collect();
        self.model.op_latency(&n.op, &inputs, &n.meta)
    }

    /// [`Self::node_latency`] of each of `nodes` into `slot`, under one
    /// lock of the cache.
    fn fill(&self, g: &Graph, nodes: impl IntoIterator<Item = NodeId>, slot: &mut [f64]) {
        let mut cache = self.cache.lock().unwrap();
        let (mut hits, mut misses) = (0, 0);
        for v in nodes {
            let sig = Self::signature(g, v);
            let t = match cache.get(&sig) {
                Some(&t) => {
                    hits += 1;
                    t
                }
                None => {
                    misses += 1;
                    *cache.entry(sig).or_insert(self.model_latency(g, v))
                }
            };
            slot[v.index()] = t * g.node(v).cost_repeat as f64;
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Every live node's [`Self::node_latency`] in `g`, as a table.
    pub fn table(&self, g: &Graph) -> LatencyTable<'_> {
        let mut slot = vec![0.0; g.capacity()];
        self.fill(g, g.node_ids(), &mut slot);
        LatencyTable { perf: self, slot }
    }

    /// Node latency including the fission repeat multiplier.
    pub fn node_latency(&self, g: &Graph, v: NodeId) -> f64 {
        self.op_latency(g, v) * g.node(v).cost_repeat as f64
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Number of distinct signatures cached.
    pub fn len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.lock().unwrap().is_empty()
    }
}

/// Each live node's latency in one graph, by slot (0 at a dead slot):
/// a [`NodeCost`](crate::NodeCost) that answers with an array read,
/// bit for bit what its [`PerfCache`] answers. Made by
/// [`PerfCache::table`], or carried to a graph derived from the
/// table's by [`LatencyTable::carry`].
#[derive(Debug, Clone)]
pub struct LatencyTable<'c> {
    perf: &'c PerfCache,
    slot: Vec<f64>,
}

impl<'c> LatencyTable<'c> {
    /// The table of `child`, a graph derived from this table's graph,
    /// where `rewritten` is `child.rewritten_slots(parent)`. A node's
    /// latency reads its own node and its inputs' metadata, so the
    /// rewritten live nodes and their consumers are looked up again,
    /// each once, under one lock; every other entry is copied.
    pub fn carry(&self, child: &Graph, rewritten: &[NodeId]) -> LatencyTable<'c> {
        let mut slot = self.slot.clone();
        slot.resize(slot.len().max(child.capacity()), 0.0);
        let mut dirty = Vec::with_capacity(2 * rewritten.len());
        for &v in rewritten {
            if child.contains(v) {
                dirty.push(v);
                dirty.extend_from_slice(child.node(v).succs());
            } else {
                slot[v.index()] = 0.0;
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        slot.truncate(child.capacity());
        self.perf.fill(child, dirty, &mut slot);
        LatencyTable { perf: self.perf, slot }
    }

    /// The latency of each slot.
    pub fn latencies(&self) -> &[f64] {
        &self.slot
    }
}

impl crate::cost::NodeCost for LatencyTable<'_> {
    fn node_latency(&self, _g: &Graph, v: NodeId) -> f64 {
        self.slot[v.index()]
    }

    fn device(&self) -> &DeviceSpec {
        self.perf.model.device()
    }
}

/// The map's hasher: a key is a [`MixHasher`] output, mixed already,
/// and hashes to itself.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.0 = self.0.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl crate::cost::NodeCost for PerfCache {
    fn node_latency(&self, g: &Graph, v: NodeId) -> f64 {
        PerfCache::node_latency(self, g, v)
    }

    fn device(&self) -> &DeviceSpec {
        self.model.device()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::NodeCost;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    #[test]
    fn caches_by_signature() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64, 64], "x");
        let a = b.relu(x);
        let c = b.relu(a); // same signature as `a`
        let d = b.gelu(c); // different
        let g = b.finish();
        let pc = PerfCache::new(CostModel::default());
        let t1 = pc.op_latency(&g, a);
        let t2 = pc.op_latency(&g, c);
        let _ = pc.op_latency(&g, d);
        assert_eq!(t1, t2);
        let (hits, misses) = pc.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 2);
        assert_eq!(pc.len(), 2);
    }

    #[test]
    fn shared_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PerfCache>();

        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64, 64], "x");
        let a = b.relu(x);
        let g = b.finish();
        let pc = PerfCache::new(CostModel::default());
        let expect = pc.op_latency(&g, a);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        assert_eq!(pc.op_latency(&g, a), expect);
                    }
                });
            }
        });
        let (hits, misses) = pc.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 400);
    }

    #[test]
    fn matches_cost_model() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([128, 128], "x");
        let w = b.weight([128, 128], "w");
        let y = b.matmul(x, w);
        let g = b.finish();
        let cm = CostModel::default();
        let pc = PerfCache::new(cm.clone());
        assert_eq!(pc.node_latency(&g, y), cm.node_latency(&g, y));
        assert_eq!(NodeCost::node_latency(&pc.uncached(), &g, y), cm.node_latency(&g, y));
    }

    #[test]
    fn uncached_view_skips_memoization_and_reports_backend() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64, 64], "x");
        let a = b.relu(x);
        let g = b.finish();
        let registry = crate::backend::BackendRegistry::builtin();
        let pc = PerfCache::for_backend(registry.get("a100").unwrap());
        let raw = pc.uncached();
        let _ = NodeCost::node_latency(&raw, &g, a);
        let _ = NodeCost::node_latency(&raw, &g, a);
        assert_eq!(pc.stats(), (0, 0), "uncached view must not touch counters");
        assert!(pc.is_empty());
        assert_eq!(raw.backend().name(), "a100");
        assert_eq!(NodeCost::device(&pc).name, "a100");
    }
}
