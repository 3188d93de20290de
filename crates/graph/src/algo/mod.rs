//! Graph algorithms: topological orders, reachability, dominators,
//! components, and graph hashing.

pub mod bitset;
pub mod components;
pub mod dominator;
pub mod hash;
pub mod reach;
pub mod topo;

pub use bitset::BitSet;
pub use components::weakly_connected_components;
pub use dominator::DomTree;
pub use hash::{child_hash, graph_digests, graph_hash, Digests, ParentDigests};
pub use reach::Reachability;
pub use topo::{is_topo_order, topo_order, topo_order_of};
