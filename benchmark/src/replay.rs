//! The traced candidate replay: a deterministic sample of candidates —
//! a greedy descent from the seed state, every candidate of every state
//! on the way — pushed through the public stage functions in the order
//! `magis_core`'s evaluation uses them, one span per call.
//!
//! For each candidate the replay runs three things:
//!
//! * the **staged** evaluation: `rules::apply`, then inside
//!   `core.staged` the calls `MState::from_applied` makes —
//!   `build_overlay_graph`, `incremental_schedule_cached`,
//!   `place_swaps`, the delta re-profile and re-plan when swap
//!   placement moved a node, `evaluate_with_plan` — and `graph_hash`;
//! * the **reference**: `MState::from_applied` itself
//!   (`core.candidate`), whose peak and latency the staged result must
//!   equal bit for bit, and whose time the stages must add up to;
//! * the **parts** of the scheduling and profiling stages, re-run on
//!   the same inputs (`replay.parts`).
//!
//! Staged and reference run with observability suppressed, as
//! candidates do inside the search; they alternate which goes first so
//! that neither always finds the operator-latency cache warmer.

use crate::spans::Recorder;
use magis_core::rules::{self, Applied, RuleConfig, Transform};
use magis_core::state::{build_overlay_graph, place_swaps, EvalContext, MState};
use magis_graph::algo::hash::graph_hash;
use magis_graph::algo::reach::Reachability;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::GraphView;
use magis_sched::{
    dp_schedule, incremental_schedule_cached, partition, reschedule_interval_cached, SchedTask,
};
use magis_sim::MemObjective;
use std::collections::BTreeSet;

/// F-Tree max level, as `OptimizerConfig::new` sets it.
const MAX_LEVEL: usize = 4;

/// What the staged evaluation of one candidate produced.
struct Staged {
    peak_bytes: u64,
    objective_peak: u64,
    latency_bits: u64,
    /// The order the incremental scheduler chose and profiled, before
    /// swap placement.
    scheduled: Vec<NodeId>,
}

#[derive(Default)]
pub struct Counts {
    /// Candidates generated over the descent, and those whose apply or
    /// overlay failed.
    pub candidates: u64,
    pub apply_failed: u64,
    /// Candidates evaluated both ways.
    pub evaluated: u64,
    pub carried_won: u64,
    pub dp_states: u64,
    /// Rescheduled-window widths, in old-schedule steps.
    pub windows: Vec<f64>,
    /// Candidates whose delta profile (delta plan) has another peak
    /// than a from-scratch profile (plan) of the same graph and order.
    /// The crates promise none; the count is reported, not enforced.
    pub delta_profile_diverged: u64,
    pub delta_plan_diverged: u64,
    /// Staged results that differ from `MState::from_applied`.
    pub mismatches: Vec<String>,
}

fn objective_peak(peak_bytes: u64, plan: Option<&magis_sim::MemoryPlan>) -> u64 {
    plan.map_or(peak_bytes, |p| p.planned_peak_bytes)
}

/// The calls `MState::from_applied` makes, one span each, under
/// `core.staged`.
fn staged(
    rec: &mut Recorder,
    id: u64,
    parent: &MState,
    applied: &Applied,
    ctx: &EvalContext,
) -> Result<Staged, String> {
    let planned = ctx.mem_objective == MemObjective::Planned;
    rec.open("core.staged", id);
    let out = (|| {
        let g = rec
            .time("core.overlay", id, || {
                build_overlay_graph(&applied.base, &applied.ftree)
            })
            .map_err(|e| e.to_string())?;
        let s_old: BTreeSet<NodeId> = applied
            .mutated
            .iter()
            .copied()
            .filter(|v| parent.eval.graph.contains(*v))
            .collect();
        let inc = rec
            .time("sched.incremental", id, || {
                incremental_schedule_cached(
                    &parent.eval.graph,
                    &g,
                    &s_old,
                    &parent.eval.order,
                    Some(&parent.eval.lifetimes),
                    if planned {
                        parent.eval.plan.as_ref()
                    } else {
                        None
                    },
                    &ctx.sched_incremental,
                    &ctx.interval,
                    Some(parent.eval.reachability()),
                )
            })
            .map_err(|e| e.to_string())?;
        let placed = rec.time("sched.place_swaps", id, || {
            place_swaps(&g, &inc.order, ctx.perf.as_ref())
        });
        let (profile, plan) = if placed == inc.order {
            (inc.profile, inc.plan)
        } else {
            let (profile, lifetimes) = rec
                .time("sim.profile_delta", id, || {
                    magis_sim::memory_profile_delta(
                        &g,
                        &placed,
                        &g,
                        &inc.order,
                        &inc.lifetimes,
                        &BTreeSet::new(),
                    )
                })
                .map_err(|e| e.to_string())?;
            let plan = match &inc.plan {
                Some(pp) => Some(
                    rec.time("sim.plan_delta", id, || {
                        magis_sim::memory_plan_delta(&g, &placed, &lifetimes, pp)
                    })
                    .map_err(|e| e.to_string())?,
                ),
                None => None,
            };
            (profile, plan)
        };
        let ev = rec
            .time("sim.simulate", id, || {
                magis_sim::evaluate_with_plan(
                    &g,
                    &placed,
                    ctx.perf.as_ref(),
                    profile,
                    plan.as_ref(),
                )
            })
            .map_err(|e| e.to_string())?;
        Ok(Staged {
            peak_bytes: ev.peak_bytes,
            objective_peak: objective_peak(ev.peak_bytes, plan.as_ref()),
            latency_bits: ev.latency.to_bits(),
            scheduled: inc.order,
        })
    })();
    rec.close();
    out
}

/// Re-runs the parts of `incremental_schedule_cached` and of the
/// profiling behind it on the candidate's own inputs, outside the
/// suppression gate so that the crates' counters see them. `scheduled`
/// is the order the scheduler chose for the candidate: the one it
/// delta-profiled (and delta-planned) against the parent's tables.
#[allow(clippy::too_many_arguments)]
fn parts(
    rec: &mut Recorder,
    id: u64,
    parent: &MState,
    g_new: &Graph,
    scheduled: &[NodeId],
    applied: &Applied,
    reach: &Reachability,
    ctx: &EvalContext,
    counts: &mut Counts,
) {
    let (g_old, psi_old) = (&parent.eval.graph, &parent.eval.order);
    rec.open("replay.parts", id);
    let s_old: BTreeSet<NodeId> = applied
        .mutated
        .iter()
        .copied()
        .filter(|v| g_old.contains(*v))
        .collect();
    let (beg, end) = rec
        .time("sched.interval", id, || {
            reschedule_interval_cached(g_old, &s_old, psi_old, &ctx.interval, Some(reach))
        })
        .unwrap_or((psi_old.len(), psi_old.len()));
    let kept: BTreeSet<NodeId> = psi_old[..beg]
        .iter()
        .chain(&psi_old[end..])
        .copied()
        .filter(|&v| g_new.contains(v))
        .collect();
    let s_new: BTreeSet<NodeId> = g_new.node_ids().filter(|v| !kept.contains(v)).collect();
    let pieces = rec.time("sched.partition", id, || partition(g_new, &s_new));
    for piece in pieces {
        let set: BTreeSet<NodeId> = piece.into_iter().collect();
        let task = rec.time("sched.task_build", id, || SchedTask::subset(g_new, &set));
        let res = rec.time("sched.dp", id, || {
            dp_schedule(&task, &ctx.sched_incremental)
        });
        counts.dp_states += res.states_expanded as u64;
    }
    let full = rec.time("sim.profile_full", id, || {
        magis_sim::memory_profile_lifetimes(g_new, scheduled)
    });
    let delta = rec.time("sim.profile_delta", id, || {
        magis_sim::memory_profile_delta(
            g_new,
            scheduled,
            g_old,
            psi_old,
            &parent.eval.lifetimes,
            &s_old,
        )
    });
    if let (Ok((fp, _)), Ok((dp, _))) = (&full, &delta) {
        counts.delta_profile_diverged += u64::from(fp.peak_bytes != dp.peak_bytes);
    }
    if let (Some(parent_plan), Ok((_, lifetimes))) = (&parent.eval.plan, &full) {
        let full_plan = rec.time("sim.plan_full", id, || {
            magis_sim::plan_from_lifetimes(g_new, scheduled, lifetimes)
        });
        let delta_plan = rec.time("sim.plan_delta", id, || {
            magis_sim::memory_plan_delta(g_new, scheduled, lifetimes, parent_plan)
        });
        if let (Ok(f), Ok(d)) = (&full_plan, &delta_plan) {
            counts.delta_plan_diverged += u64::from(f.planned_peak_bytes != d.planned_peak_bytes);
        }
    }
    rec.close();
}

/// Replays the candidates of `state`, returning the best child by the
/// search's own order (within the latency limit first, then lowest
/// objective peak) among those not yet visited.
#[allow(clippy::too_many_arguments)]
fn replay_state(
    rec: &mut Recorder,
    state: &mut MState,
    ctx: &EvalContext,
    lat_limit: f64,
    with_parts: bool,
    next_id: &mut u64,
    visited: &BTreeSet<u64>,
    counts: &mut Counts,
) -> Option<(u64, MState)> {
    let expansion = *next_id;
    if state.tree_stale {
        rec.time("core.analyze", expansion, || state.analyze(MAX_LEVEL));
    }
    let mut transforms = rec.time("core.generate", expansion, || {
        rules::generate(state, &RuleConfig::default())
    });
    transforms.sort_by_key(Transform::sort_key);
    // Once per parent: the search computes it lazily on the first
    // candidate that needs it, and so does `reachability()` below; the
    // explicit call is the one that gets a span.
    let reach = rec.time("graph.reach", expansion, || {
        Reachability::compute(&state.eval.graph)
    });
    state.eval.reachability();

    let mut best: Option<((bool, u64), u64, MState)> = None;
    for t in &transforms {
        let id = *next_id;
        *next_id += 1;
        counts.candidates += 1;
        rec.open("replay.candidate", id);
        let applied = rec.time("core.apply", id, || rules::apply(state, t));
        let Ok(applied) = applied else {
            counts.apply_failed += 1;
            rec.close();
            continue;
        };
        let for_reference = applied.clone();
        let reference = |rec: &mut Recorder| {
            rec.time("core.candidate", id, || {
                magis_obs::gate::suppress(|| MState::from_applied(for_reference, state, ctx))
            })
        };
        let (staged_result, child) = if id.is_multiple_of(2) {
            let s = magis_obs::gate::suppress(|| staged(rec, id, state, &applied, ctx));
            (s, reference(rec))
        } else {
            let c = reference(rec);
            (
                magis_obs::gate::suppress(|| staged(rec, id, state, &applied, ctx)),
                c,
            )
        };
        let (Ok(s), Ok(child)) = (&staged_result, &child) else {
            // Both must fail together; a one-sided failure is a mismatch.
            if staged_result.is_ok() != child.is_ok() {
                counts
                    .mismatches
                    .push(format!("candidate {id} ({t}): only one path evaluates"));
            }
            counts.apply_failed += 1;
            rec.close();
            continue;
        };
        let hash = rec.time("graph.hash", id, || graph_hash(&child.eval.graph));
        rec.close();
        counts.evaluated += 1;
        if (s.peak_bytes, s.objective_peak, s.latency_bits)
            != (
                child.eval.peak_bytes,
                child.eval.objective_peak(),
                child.eval.latency.to_bits(),
            )
        {
            counts.mismatches.push(format!(
                "candidate {id} ({t}): staged ({}, {}, {:016x}) differs from from_applied ({}, {}, {:016x})",
                s.peak_bytes,
                s.objective_peak,
                s.latency_bits,
                child.eval.peak_bytes,
                child.eval.objective_peak(),
                child.eval.latency.to_bits()
            ));
        }
        if let Some(inc) = child.eval.inc {
            counts.windows.push(inc.window as f64);
            counts.carried_won += u64::from(inc.carried_won);
        }
        if with_parts {
            parts(
                rec,
                id,
                state,
                &child.eval.graph,
                &s.scheduled,
                &applied,
                &reach,
                ctx,
                counts,
            );
        }
        let rank = (child.eval.latency > lat_limit, child.eval.objective_peak());
        if !visited.contains(&hash) && best.as_ref().is_none_or(|(r, _, _)| rank < *r) {
            best = Some((rank, hash, child.clone()));
        }
    }
    best.map(|(_, hash, child)| (hash, child))
}

/// One round of the descent: from `seed`, `depth` states deep, every
/// candidate of each. Candidate ids continue from `next_id`, so that
/// rounds recorded into one trace keep their spans apart. Returns the
/// state the descent ended in.
pub fn run(
    rec: &mut Recorder,
    seed: MState,
    ctx: &EvalContext,
    lat_limit: f64,
    depth: usize,
    next_id: &mut u64,
    counts: &mut Counts,
) -> MState {
    let mut visited = BTreeSet::from([graph_hash(&seed.eval.graph)]);
    let mut state = seed;
    for _ in 0..depth {
        match replay_state(
            rec, &mut state, ctx, lat_limit, true, next_id, &visited, counts,
        ) {
            Some((hash, child)) => {
                visited.insert(hash);
                state = child;
            }
            None => break,
        }
    }
    state
}

/// The seed state's candidates once more, staged and reference only,
/// for timing the replay with the recorder on against off.
pub fn run_seed_only(rec: &mut Recorder, seed: &MState, ctx: &EvalContext, lat_limit: f64) {
    let mut state = seed.clone();
    replay_state(
        rec,
        &mut state,
        ctx,
        lat_limit,
        false,
        &mut 0,
        &BTreeSet::new(),
        &mut Counts::default(),
    );
}
