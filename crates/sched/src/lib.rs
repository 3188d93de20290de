//! # magis-sched
//!
//! Memory-aware scheduling substrate for the MAGIS reproduction:
//!
//! * [`task::SchedTask`] — lifetime-accurate scheduling windows,
//! * [`dp::dp_schedule`] — Serenity-style memory-optimal ordering DP
//!   with a beam cap (`DpSchedule` in Algorithm 2),
//! * [`partition::partition`] — narrow-waist graph partitioning
//!   (`GraphPartition`),
//! * [`incremental::incremental_schedule_cached`] — Algorithm 2 end to
//!   end, over [`incremental::reschedule_interval_cached`]'s window,
//! * [`schedule::full_schedule`] — the full-scheduling baseline,
//! * [`validate::Schedule`] — typed schedule validation (exactly-once
//!   coverage + topological order) for the hardened search pipeline.
//!
//! A pure library: it records no metric and no trace span (results
//! carry their own counts, e.g. [`DpResult::states_expanded`]).
//!
//! ```
//! use magis_graph::builder::GraphBuilder;
//! use magis_graph::tensor::DType;
//! use magis_graph::GraphView;
//! use magis_sched::{full_schedule, SchedConfig};
//!
//! let mut b = GraphBuilder::new(DType::F32);
//! let x = b.input([128], "x");
//! let a = b.relu(x);
//! let c = b.gelu(x);
//! let _ = b.add_op(a, c);
//! let g = b.finish();
//! let order = full_schedule(&g, &SchedConfig::default());
//! assert_eq!(order.len(), g.len());
//! ```

#![warn(missing_docs)]

pub mod dp;
pub mod incremental;
pub mod partition;
pub mod schedule;
pub mod task;
pub mod validate;
mod workspace;

pub use dp::{dp_schedule, DpResult, SchedConfig};
pub use incremental::{
    incremental_schedule_cached, reschedule_interval_cached, IncrementalSchedule, IntervalParams,
};
pub use partition::partition;
pub use schedule::{full_schedule, place_swaps, stabilize_order};
pub use task::SchedTask;
pub use validate::{validate_schedule, Schedule, ScheduleError};
