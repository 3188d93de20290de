//! `magis-obs`: zero-dependency observability for the MAGIS
//! reproduction.
//!
//! Three layers, all safe to leave compiled into release binaries:
//!
//! * [`trace`] — structured span/event tracing. RAII [`trace::
//!   SpanGuard`]s created by the [`span!`] macro, point events via
//!   [`event!`], serialized as JSON Lines through a pluggable
//!   [`trace::TraceSink`]. When no sink is installed the macros cost a
//!   single relaxed atomic load and build no fields.
//! * [`metrics`] — process-global counters, gauges, and log-scale
//!   histograms named `magis_<crate>_<name>`, exportable as a
//!   Prometheus-style text snapshot ([`metrics::Registry::render`]).
//! * [`timeline`] — a per-search recorder for the M-Optimizer:
//!   per-expansion progress points, Pareto-front evolution, per-rule-
//!   family stats, and the incumbent's memory profile over schedule
//!   steps, serializable as one JSON artifact.
//!
//! Supporting modules: [`json`] (hand-rolled serializer/parser with
//! exact integer and bit-exact float round-trips) and [`gate`]
//! (per-thread suppression: the everything-off baseline the overhead
//! guard measures against).
//!
//! # Determinism contract
//!
//! All count-type metrics, trace-event identities ([`trace::
//! TraceEvent::identity`]), and timeline counts are bit-identical for
//! `--threads 1` vs `--threads N` on the same seed: the libraries a
//! worker runs (`magis-sched`, `magis-sim`, `magis-graph`) record
//! nothing, workers hand their measured durations back, and the merge
//! thread books them in candidate order. Only wall-time-valued fields
//! (timestamps, durations, histogram sums of seconds) may differ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod json;
pub mod metrics;
pub mod timeline;
pub mod trace;

#[cfg(test)]
pub(crate) mod test_support {
    //! Tests in this crate mutate process-global state (the trace
    //! sink). `cargo test` runs tests concurrently, so such tests
    //! serialize on this lock. The guard also survives a poisoned
    //! mutex — a failed test must not cascade.

    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn global_lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
