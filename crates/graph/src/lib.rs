//! # magis-graph
//!
//! Computation-graph substrate for the MAGIS reproduction (ASPLOS'24):
//! tensors, operators, the DAG itself, graph algorithms (topological
//! orders, dominator trees, reachability/narrow-waist values, weakly
//! connected components, convexity, Weisfeiler–Lehman hashing), an
//! ergonomic builder, and training-graph construction via autodiff.
//!
//! ## Quick example
//!
//! ```
//! use magis_graph::builder::GraphBuilder;
//! use magis_graph::grad::{append_backward, TrainOptions};
//! use magis_graph::tensor::DType;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new(DType::F32);
//! let x = b.input([32, 784], "x");
//! let w = b.weight([784, 10], "w");
//! let logits = b.matmul(x, w);
//! let y = b.label([32], "labels");
//! let loss = b.cross_entropy(logits, y);
//! let train = append_backward(b.finish(), loss, &TrainOptions::default())?;
//! assert_eq!(train.weight_grads.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod algo;
pub mod builder;
pub mod grad;
pub mod graph;
pub mod io;
pub mod op;
pub mod tensor;
pub mod txn;
pub mod view;

pub use builder::GraphBuilder;
pub use graph::{Graph, GraphError, Node, NodeId};
pub use op::{DimLink, DimLinks, OpError, OpKind};
pub use tensor::{DType, Shape, TensorMeta};
pub use txn::{GraphDelta, GraphTxn, ScaleEdits, ScaleMemo};
pub use view::{GraphView, NodeIds};
