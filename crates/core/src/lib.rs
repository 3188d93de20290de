//! # magis-core
//!
//! The MAGIS memory-optimization framework (ASPLOS'24) — the paper's
//! primary contribution:
//!
//! * [`dgraph`] — the Dimension Graph (§4.1),
//! * [`fission`] — fission transformations and their representative-
//!   part overlay (§4.2/§4.3),
//! * [`ftree`] — the Fission Hierarchy Tree, Algorithm 1, and the
//!   F-Tree mutation rules (§5.1),
//! * [`rules`] — the unified M-Rules: scheduling-based rules (§5.2)
//!   and TASO-style rules,
//! * [`state`] — M-States and their simulator evaluation (§3),
//! * [`optimizer`] — the M-Optimizer search engine, Algorithm 3 (§6),
//! * [`driver`] — pluggable search strategies over the engine
//!   (greedy best-first and MCTS),
//! * [`pareto`] — dual-objective front bookkeeping (Fig. 11),
//! * [`codegen`] — the PyTorch code-generation backend (§7.1).
//!
//! ```
//! use magis_core::optimizer::{optimize_memory, OptimizerConfig};
//! use magis_graph::builder::GraphBuilder;
//! use magis_graph::tensor::DType;
//! use std::time::Duration;
//!
//! let mut b = GraphBuilder::new(DType::F32);
//! let mut cur = b.input([128, 64], "x");
//! for i in 0..4 {
//!     let w = b.weight([64, 64], &format!("w{i}"));
//!     let h = b.matmul(cur, w);
//!     cur = b.relu(h);
//! }
//! let g = b.finish();
//! let cfg = OptimizerConfig::default()
//!     .with_budget(Duration::from_millis(300))
//!     .with_max_evals(40);
//! let res = optimize_memory(g, 1.25, &cfg);
//! assert!(res.best.eval.peak_bytes > 0);
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod checkpoint;
pub mod codegen;
pub mod dgraph;
pub mod driver;
pub mod eval_cache;
pub mod fission;
pub mod ftree;
pub mod optimizer;
pub mod pareto;
pub mod rules;
pub mod state;

pub use budget::{CancelToken, SearchBudget};
pub use checkpoint::{
    CheckpointCounters, CheckpointError, FrontierEntry, MctsCheckpoint, MctsNodeMeta,
    SearchCheckpoint, StateRecord,
};
pub use driver::{DriverFrontier, DriverKind, SearchDriver, StepOutcome};
pub use eval_cache::EvalCache;
pub use fission::FissionSpec;
pub use ftree::{FTree, FTreeMutation};
pub use optimizer::{
    optimize, optimize_latency, optimize_memory, resume, try_optimize, CheckpointPolicy,
    Objective, OptimizeResult, OptimizerConfig, ParanoiaLevel, ProgressHook, ProgressSink,
    ProgressSnapshot, StopReason,
};
pub use state::{EvalContext, EvalError, EvalMode, IncrementalEvalInfo, MState};
