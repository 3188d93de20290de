//! # magis-util
//!
//! Zero-dependency utilities shared across the MAGIS workspace. The
//! build environment is fully offline (no crates.io access), so the
//! small slices of `rand` and `proptest` the workspace
//! used are reimplemented here, alongside the fan-out primitive the
//! parallel M-Optimizer needs:
//!
//! * [`args`] — the one argv reader ([`args::Args`]) behind `magis`,
//!   `magis-served` and the experiment binaries,
//! * [`rng`] — a SplitMix64-based [`rng::SmallRng`] with the familiar
//!   `seed_from_u64` / `gen_range` / `gen_bool` surface,
//! * [`prop`] — a miniature property-testing harness (the
//!   [`proptest!`] macro family) with range/select/vec strategies,
//! * [`parallel`] — deterministic scoped-thread fan-out
//!   ([`parallel::par_map`]) used by the parallel candidate-evaluation
//!   layer of the optimizer,
//! * [`fault`] — a seeded deterministic fault-injection plan
//!   ([`fault::FaultPlan`]) used to harden and test the search
//!   pipeline against panicking rewrites and garbage costs.

pub mod args;
pub mod fault;
pub mod parallel;
pub mod prop;
pub mod rng;
