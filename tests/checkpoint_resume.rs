//! Checkpoint/resume suite: a search that periodically serializes its
//! state can be killed at any point and resumed from the last
//! checkpoint to a valid incumbent no worse than the checkpointed one.

use magis::core::budget::SearchBudget;
use magis::core::checkpoint::{CheckpointError, SearchCheckpoint};
use magis::core::driver::DriverKind;
use magis::core::optimizer::{self, CheckpointPolicy, Objective, OptimizerConfig};
use magis::prelude::*;
use magis::sched::validate_schedule;
use magis::sim::MemObjective;
use magis_util::prop::prelude::*;
use magis_util::rng::{Rng, SmallRng};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn seed_state() -> (Graph, MState) {
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    (tg.graph, init)
}

/// A unique scratch path per test (tests run concurrently in one
/// process; the process id keeps parallel `cargo test` runs apart).
fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("magis_ckpt_{}_{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn capped(objective: Objective, max_evals: usize, threads: usize) -> OptimizerConfig {
    OptimizerConfig::new(objective)
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(max_evals)
        .with_threads(threads)
}

#[test]
fn checkpoint_file_round_trips_the_search_state() {
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let path = scratch("roundtrip");
    let cfg = capped(obj, 40, 1)
        .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(8));
    let res = optimizer::optimize(g, &cfg);
    assert!(res.stats.checkpoints_written >= 1, "periodic + final writes happened");
    assert_eq!(res.stats.checkpoint_failures, 0);

    let ckpt = SearchCheckpoint::read_from(&path).expect("checkpoint parses");
    // The final write snapshots the finished search.
    assert_eq!(ckpt.best_cost, res.best.cost());
    assert_eq!(ckpt.counters.evaluated as usize, res.stats.evaluated);
    assert_eq!(ckpt.counters.expanded as usize, res.stats.expanded);
    assert_eq!(ckpt.seed_cost, init.cost());

    // The checkpointed incumbent restores to a valid, re-simulable
    // state with the exact recorded cost.
    let best = ckpt.restore_state(&EvalContext::default()).expect("restores");
    assert_eq!(best.cost(), ckpt.best_cost);
    best.eval.graph.validate().expect("restored graph validates");
    validate_schedule(&best.eval.graph, &best.eval.order).expect("restored schedule validates");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_from_mid_search_checkpoint_is_no_worse() {
    // Phase 1: a short run, as if killed after 18 evaluations.
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let path = scratch("midsearch");
    let cfg = capped(obj, 18, 1)
        .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(4));
    let partial = optimizer::optimize(g, &cfg);
    let ckpt = SearchCheckpoint::read_from(&path).expect("checkpoint parses");

    // Phase 2: resume with a larger budget. The incumbent may only
    // improve on what the checkpoint recorded.
    let res = optimizer::resume(&ckpt, &capped(obj, 60, 1)).expect("resume succeeds");
    assert!(res.stats.resumed);
    assert!(
        res.best.eval.peak_bytes <= ckpt.best_cost.0,
        "resumed incumbent {} must be no worse than checkpointed {}",
        res.best.eval.peak_bytes,
        ckpt.best_cost.0
    );
    assert!(res.best.eval.peak_bytes <= partial.best.eval.peak_bytes);
    assert!(res.best.eval.peak_bytes <= init.eval.peak_bytes);
    assert!(
        res.stats.evaluated >= ckpt.counters.evaluated as usize,
        "counters continue from the checkpoint"
    );
    res.best.eval.graph.validate().expect("incumbent graph validates");
    validate_schedule(&res.best.eval.graph, &res.best.eval.order)
        .expect("incumbent schedule validates");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_is_deterministic_across_thread_counts() {
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let path = scratch("threads");
    let cfg = capped(obj, 18, 1)
        .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(6));
    let _ = optimizer::optimize(g, &cfg);
    let ckpt = SearchCheckpoint::read_from(&path).expect("checkpoint parses");

    let serial = optimizer::resume(&ckpt, &capped(obj, 50, 1)).expect("serial resume");
    let parallel = optimizer::resume(&ckpt, &capped(obj, 50, 4)).expect("parallel resume");
    assert_eq!(serial.best.cost(), parallel.best.cost());
    assert_eq!(serial.stats.evaluated, parallel.stats.evaluated);
    assert_eq!(serial.stats.expanded, parallel.stats.expanded);
    let sh: Vec<_> = serial.history.iter().map(|p| (p.peak_bytes, p.latency)).collect();
    let ph: Vec<_> = parallel.history.iter().map(|p| (p.peak_bytes, p.latency)).collect();
    assert_eq!(sh, ph);
    let _ = std::fs::remove_file(&path);
}

/// Fingerprint of everything two runs of the same deterministic
/// search must agree on bit-for-bit.
fn fingerprint(res: &magis::core::optimizer::OptimizeResult) -> String {
    let mut s = format!(
        "cost=({},{:016x}) planned={:?} evaluated={} expanded={} pareto=",
        res.best.eval.peak_bytes,
        res.best.eval.latency.to_bits(),
        res.best.eval.plan.as_ref().map(|p| p.planned_peak_bytes),
        res.stats.evaluated,
        res.stats.expanded,
    );
    for (m, l) in res.pareto.front() {
        s.push_str(&format!("({m},{:016x})", l.to_bits()));
    }
    s
}

/// The tentpole contract: a search killed mid-run and resumed from a
/// frontier checkpoint reproduces the uninterrupted run bit-exactly —
/// under the planned (allocator-aware) objective, where evaluation is
/// most involved.
#[test]
fn frontier_resume_reproduces_uninterrupted_run_bit_exactly() {
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let planned = |max: usize, threads: usize| {
        let mut cfg = capped(obj, usize::MAX, threads)
            .with_search_budget(SearchBudget::UNLIMITED.with_candidate_limit(max));
        cfg.ctx.mem_objective = MemObjective::Planned;
        cfg
    };

    // "Kill" after the first expansion boundary past 1 evaluation,
    // with frontier checkpointing on. The candidate limit stops only
    // at expansion boundaries, so this run's evaluated count tells us
    // where the boundary fell; the reference run then targets one
    // evaluation past it, forcing at least one further expansion.
    let path = scratch("frontier_exact");
    let cfg_killed = planned(1, 1)
        .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(4));
    let killed = optimizer::optimize(g.clone(), &cfg_killed);
    let target = killed.stats.evaluated + 1;
    let ckpt = SearchCheckpoint::read_from(&path).expect("frontier checkpoint parses");
    assert!(!ckpt.frontier.is_empty(), "frontier persisted");

    // Reference: one uninterrupted run to the same cumulative target.
    let full = optimizer::optimize(g, &planned(target, 1));
    assert!(full.stats.expanded > killed.stats.expanded, "reference crosses the kill point");

    let resumed = optimizer::resume(&ckpt, &planned(target, 1)).expect("resume succeeds");
    assert!(resumed.stats.resumed);
    assert_eq!(
        fingerprint(&full),
        fingerprint(&resumed),
        "kill + frontier-resume must be indistinguishable from an uninterrupted run"
    );
    let _ = std::fs::remove_file(&path);
}

/// Same contract, resuming with a different thread count: the frontier
/// checkpoint composes with the sorted-batch determinism guarantee.
#[test]
fn frontier_resume_is_bit_exact_across_thread_counts() {
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let cap = |max: usize, threads: usize| {
        capped(obj, usize::MAX, threads)
            .with_search_budget(SearchBudget::UNLIMITED.with_candidate_limit(max))
    };
    let path = scratch("frontier_threads");
    let killed = optimizer::optimize(
        g.clone(),
        &cap(1, 2)
            .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(3)),
    );
    let target = killed.stats.evaluated + 1;
    let full = optimizer::optimize(g, &cap(target, 1));
    let ckpt = SearchCheckpoint::read_from(&path).expect("parses");
    let r1 = optimizer::resume(&ckpt, &cap(target, 1)).expect("serial resume");
    let r4 = optimizer::resume(&ckpt, &cap(target, 4)).expect("parallel resume");
    assert_eq!(fingerprint(&full), fingerprint(&r1));
    assert_eq!(fingerprint(&r1), fingerprint(&r4));
    let _ = std::fs::remove_file(&path);
}

/// The same contract deep in a search — ~1000 evaluations in, hundreds
/// of frontier entries, the evaluation cache warm — pinned where it
/// actually holds. With the cache off, kill + resume is bit-identical
/// to the uninterrupted run down to every Pareto point. With it on, the
/// incumbent, the counts and the timeline still are, but a Pareto
/// point's latency may differ in its last bit: the resumed search
/// starts with a cold cache and evaluates afresh a candidate that the
/// uninterrupted run served from a hash-equal state reached through
/// another lineage (another node order, so another float summation
/// order).
#[test]
fn deep_frontier_resume_is_exact_up_to_the_cold_eval_cache() {
    let (g, init) = seed_state();
    // The served jobs' and the benchmark's latency factor. The kill
    // lands at 1,055 evaluations with 880 frontier entries and the
    // reference run ends at 1,692; with the cache on, one Pareto point
    // of the resumed run then differs from the reference by 1 ULP.
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    // Everything but the Pareto bits: the incumbent (cost bits and
    // schedule), the counts, and the timeline's deterministic fields
    // from the resume point on.
    let key = |res: &optimizer::OptimizeResult, from_expansion: u64| {
        let points: Vec<_> = res
            .timeline
            .points
            .iter()
            .filter(|p| p.expansion > from_expansion)
            .map(|p| {
                (p.expansion, p.evaluated, p.best_peak_bytes, p.best_latency.to_bits(), p.frontier_size, p.pareto_size)
            })
            .collect();
        format!(
            "cost=({},{:016x}) order={:?} evaluated={} expanded={} candidates={} points={points:?}",
            res.best.eval.peak_bytes,
            res.best.eval.latency.to_bits(),
            res.best.eval.order,
            res.stats.evaluated,
            res.stats.expanded,
            res.stats.candidates,
        )
    };
    for cache_on in [false, true] {
        let cap = |max: usize| {
            let cfg = capped(obj, usize::MAX, 1)
                .with_search_budget(SearchBudget::UNLIMITED.with_candidate_limit(max));
            if cache_on { cfg } else { cfg.with_eval_cache(0) }
        };
        // "Kill" at the first expansion boundary past 1000 evaluations;
        // only the final (pre-polish) frontier checkpoint is written.
        let path = scratch(if cache_on { "deep_cached" } else { "deep_uncached" });
        let policy = CheckpointPolicy::new(path.clone()).with_every(usize::MAX);
        let killed = optimizer::optimize(g.clone(), &cap(1000).with_checkpoint(policy));
        let ckpt = SearchCheckpoint::read_from(&path).expect("frontier checkpoint parses");
        assert!(killed.stats.evaluated >= 1000 && ckpt.frontier.len() > 100, "the kill is deep");

        let target = killed.stats.evaluated + 600;
        let full = optimizer::optimize(g.clone(), &cap(target));
        let resumed = optimizer::resume(&ckpt, &cap(target)).expect("resume succeeds");
        assert!(full.stats.expanded > killed.stats.expanded + 5, "reference runs well past the kill");
        let at_kill = killed.stats.expanded as u64;
        assert_eq!(key(&full, at_kill), key(&resumed, at_kill), "cache {cache_on}");
        if cache_on {
            // The uninterrupted run really crossed cache-served
            // candidates, some of them after the kill point.
            assert!(full.stats.eval_cache_hits > killed.stats.eval_cache_hits);
            assert!(killed.stats.eval_cache_hits > 0);
        } else {
            assert_eq!(fingerprint(&full), fingerprint(&resumed), "Pareto bits included");
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A search that ran dry leaves a final checkpoint with an empty
/// frontier. Resuming it is resuming a finished search: it ends at once,
/// where the uninterrupted run ended — same incumbent, counts, Pareto
/// front and stop reason — without expanding the incumbent again. Both
/// ways to run dry: a queue exhausted on a small graph under a tight
/// latency limit, and the queue a total fault storm empties.
#[test]
fn a_search_that_ran_dry_resumes_to_its_own_end() {
    use magis::core::optimizer::StopReason;
    use magis::models::mlp::{mlp, MlpConfig};
    use magis_util::fault::{FaultPlan, FaultSite};
    // 54 evaluations in 13 expansions.
    let small = mlp(&MlpConfig { batch: 16, input: 32, hidden: 32, layers: 2, ..Default::default() });
    let storm = FaultPlan::new(99).with_rate(FaultSite::EvalPanic, 1.0);
    for (stop, g, limit, faults) in [
        (StopReason::QueueExhausted, small.graph, 1.0, None),
        (StopReason::FaultStorm, Workload::UNet.build(0.15).graph, 1.25, Some(storm)),
    ] {
        let seed = MState::initial(g.clone(), &EvalContext::default());
        let path = scratch(&format!("dry_{stop}"));
        let mut cfg = capped(Objective::MinMemory { lat_limit: seed.eval.latency * limit }, 20_000, 1)
            .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(usize::MAX));
        cfg.fault_plan = faults;
        let full = optimizer::optimize(g, &cfg);
        assert_eq!(full.stats.stop_reason, stop);
        let ckpt = SearchCheckpoint::read_from(&path).expect("final checkpoint parses");
        assert!(ckpt.frontier.is_empty(), "{stop}: the queue ran dry");
        let resumed = optimizer::resume(&ckpt, &cfg).expect("resume succeeds");
        assert!(resumed.stats.resumed);
        assert_eq!(
            (fingerprint(&resumed), resumed.stats.stop_reason),
            (fingerprint(&full), stop),
            "resuming a finished search searched again"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// A search under `driver` to `limit` evaluations (stops fall on
/// expansion boundaries only) that writes a frontier checkpoint at
/// every boundary and when it stops. The evaluation cache is off: a
/// resumed search starts with a cold one, and a cache-served candidate
/// can differ from a fresh evaluation in the last bit of a latency the
/// checkpoint lists.
fn frontier_search(driver: DriverKind, objective: Objective, limit: usize, path: &Path) -> OptimizerConfig {
    capped(objective, usize::MAX, 1)
        .with_driver(driver)
        .with_eval_cache(0)
        .with_search_budget(SearchBudget::UNLIMITED.with_candidate_limit(limit))
        .with_checkpoint(CheckpointPolicy::new(path).with_every(1))
}

/// The served jobs' objective: least memory within 1.10 × the
/// unoptimized latency.
fn least_memory(g: &Graph) -> Objective {
    let init = MState::initial(g.clone(), &EvalContext::default());
    Objective::MinMemory { lat_limit: init.eval.latency * 1.10 }
}

/// The checkpoint a search writes at a boundary is a function of the
/// search state there, not of how its states are stored. A run resumed
/// from a frontier checkpoint holds states that were parsed one by one
/// and share no node with each other, and then children that share
/// with those; the uninterrupted run's states all descend from one
/// seed graph. Both must write the same bytes at the same boundary —
/// and a run resumed under the limit that already stopped it, which
/// stops at once, must write back the bytes it read. Returns the
/// checkpoint the kill left.
fn resumed_run_writes_the_uninterrupted_runs_bytes(
    driver: DriverKind,
    g: Graph,
    (kill, limit): (usize, usize),
) -> SearchCheckpoint {
    let path = scratch(&format!("bytes_{driver}"));
    let read = || std::fs::read_to_string(&path).expect("final checkpoint");
    let objective = least_memory(&g);
    let search = |limit: usize| frontier_search(driver, objective, limit, &path);

    let full = optimizer::optimize(g.clone(), &search(limit));
    let uninterrupted = read();

    let killed = optimizer::optimize(g.clone(), &search(kill));
    assert!(killed.stats.expanded < full.stats.expanded, "{driver}: the kill comes first");
    let left_by_kill = read();
    let at_kill = SearchCheckpoint::decode(&left_by_kill).expect("frontier checkpoint parses");
    assert!(at_kill.frontier.len() > 1, "{driver}: frontier persisted");

    let stopped = optimizer::resume(&at_kill, &search(kill)).expect("resume succeeds");
    assert_eq!(stopped.stats.expanded, killed.stats.expanded, "{driver}: nothing left to do");
    assert!(read() == left_by_kill, "{driver}: a resume that stops at once rewrote its checkpoint");

    let resumed = optimizer::resume(&at_kill, &search(limit)).expect("resume succeeds");
    assert!(resumed.stats.resumed && resumed.stats.checkpoints_written > 1);
    assert_eq!(fingerprint(&full), fingerprint(&resumed), "{driver}: same search");
    assert!(read() == uninterrupted, "{driver}: the resumed run's final checkpoint differs");

    // And the bytes are the format's fixed point.
    let last = SearchCheckpoint::decode(&uninterrupted).expect("parses");
    assert!(last.frontier.len() > at_kill.frontier.len());
    assert!(last.encode() == uninterrupted, "{driver}: decode → encode is not the identity");
    let _ = std::fs::remove_file(&path);
    at_kill
}

#[test]
fn greedy_checkpoint_bytes_do_not_depend_on_storage_sharing() {
    resumed_run_writes_the_uninterrupted_runs_bytes(
        DriverKind::Greedy,
        Workload::UNet.build(0.15).graph,
        (1, 150),
    );
}

#[test]
fn mcts_checkpoint_bytes_do_not_depend_on_storage_sharing() {
    let at_kill = resumed_run_writes_the_uninterrupted_runs_bytes(
        DriverKind::Mcts,
        Workload::BertBase.build(0.1).graph,
        (100, 160),
    );
    // This kill falls where the incumbent is a fission child: the one
    // kind of incumbent a checkpoint stores with its F-Tree, and that
    // a resumed run has to store with it again.
    assert!(!at_kill.best.ftree_nodes.is_empty());
}

/// An MCTS checkpoint is its tree: stripped of the `mcts` section it
/// still decodes (the section is the format's last optional one), but
/// resuming it is a typed error, not a search from a fresh tree.
#[test]
fn an_mcts_checkpoint_without_its_tree_does_not_resume() {
    let g = Workload::UNet.build(0.1).graph;
    let path = scratch("mcts_treeless");
    let cfg = frontier_search(DriverKind::Mcts, least_memory(&g), 24, &path);
    optimizer::optimize(g, &cfg);
    let text = std::fs::read_to_string(&path).expect("final checkpoint");
    let _ = std::fs::remove_file(&path);
    let treeless: String = text
        .lines()
        .filter(|l| !l.starts_with("mcts ") && !l.starts_with("m "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(treeless.len() < text.len(), "the checkpoint had a tree");
    let ckpt = SearchCheckpoint::decode(&treeless).expect("still a checkpoint");
    assert!(ckpt.driver == DriverKind::Mcts && ckpt.mcts.is_none() && !ckpt.frontier.is_empty());
    match optimizer::resume(&ckpt, &cfg) {
        Err(CheckpointError::Parse { msg, .. }) => assert!(msg.contains("tree"), "{msg}"),
        Err(e) => panic!("expected a parse error, got {e}"),
        Ok(res) => panic!("a treeless MCTS checkpoint searched {} candidates", res.stats.evaluated),
    }
}

/// The frontier checkpoints the mutation property below starts from
/// (and `decode → encode` is the identity on each): both drivers on
/// UNet, BERT and ResNet-50 at small scale.
fn frontier_checkpoints() -> Vec<String> {
    let mut texts = Vec::new();
    for (w, scale) in [(Workload::UNet, 0.1), (Workload::BertBase, 0.05), (Workload::ResNet50, 0.1)] {
        let g = w.build(scale).graph;
        let objective = least_memory(&g);
        for driver in [DriverKind::Greedy, DriverKind::Mcts] {
            let path = scratch(&format!("hostile_{w:?}_{driver}"));
            optimizer::optimize(g.clone(), &frontier_search(driver, objective, 24, &path));
            let text = std::fs::read_to_string(&path).expect("final checkpoint");
            let _ = std::fs::remove_file(&path);
            let ckpt = SearchCheckpoint::decode(&text).expect("parses");
            assert!(ckpt.frontier.len() > 1 && ckpt.mcts.is_some() == (driver == DriverKind::Mcts));
            assert!(ckpt.encode() == text, "{w:?} {driver}: decode → encode is not the identity");
            texts.push(text);
        }
    }
    texts
}

/// One random defect: a line dropped, doubled, moved or cut short, a
/// number replaced by one that is out of every range, a byte replaced.
fn mutate(text: &str, rng: &mut SmallRng) -> String {
    const HOSTILE: [&str; 9] = [
        "0", "-1", "x", "4294967296", "18446744073709551615", "99999999999999999999999",
        // Runs of line indices: backwards, and past any table.
        "7-3", "0-4294967295", "0-18446744073709551615",
    ];
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let at = rng.gen_range(0..lines.len());
    match rng.gen_range(0..7) {
        0 => drop(lines.remove(at)),
        1 => lines.insert(at, lines[at].clone()),
        2 => lines.swap(at, rng.gen_range(0..text.lines().count())),
        3 => lines.truncate(at),
        4 => {
            let cut = rng.gen_range(0..=lines[at].len());
            lines[at].truncate(cut);
            lines.truncate(at + 1);
        }
        5 => {
            // The count of a section header or a value of a list.
            let mut toks: Vec<&str> = lines[at].split(' ').collect();
            let k = rng.gen_range(0..toks.len());
            toks[k] = HOSTILE[rng.gen_range(0..HOSTILE.len())];
            lines[at] = toks.join(" ");
        }
        _ => {
            if !lines[at].is_empty() {
                let k = rng.gen_range(0..lines[at].len());
                let byte = rng.gen_range(0x20u32..0x7f) as u8 as char;
                lines[at].replace_range(k..=k, &byte.to_string());
            }
        }
    }
    lines.join("\n") + "\n"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ROADMAP 4(c), the checkpoint decoder: whatever happened to a
    /// checkpoint file, decoding it ends in a typed error or in a
    /// checkpoint that re-encodes to a fixed point — never in a panic,
    /// and a count the file declares sizes no allocation (the hostile
    /// counts would abort the test). The graph records inside are
    /// `magis_graph::io::from_record`'s to judge, at restore.
    #[test]
    fn mutated_frontier_checkpoints_decode_to_a_typed_error_or_a_checkpoint(seed in any::<u64>()) {
        static VALID: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        let mut rng = <SmallRng as magis_util::rng::SeedableRng>::seed_from_u64(seed);
        let mut refused = 0;
        for text in VALID.get_or_init(frontier_checkpoints) {
            for _ in 0..8 {
                let mut bad = mutate(text, &mut rng);
                if rng.gen_range(0..3) == 0 {
                    bad = mutate(&bad, &mut rng);
                }
                match SearchCheckpoint::decode(&bad) {
                    Ok(ckpt) => {
                        let again = ckpt.encode();
                        let reread = SearchCheckpoint::decode(&again);
                        prop_assert!(reread.is_ok_and(|c| c.encode() == again), "encode is not a fixed point");
                    }
                    Err(e) => {
                        refused += 1;
                        prop_assert!(
                            matches!(e, CheckpointError::Parse { .. } | CheckpointError::UnsupportedVersion { .. }),
                            "{e}"
                        );
                    }
                }
            }
        }
        prop_assert!(refused > 0, "no mutation was refused");
    }
}

#[test]
fn corrupt_checkpoints_are_rejected_with_typed_errors() {
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let path = scratch("corrupt");
    let cfg = capped(obj, 12, 1)
        .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(4));
    let _ = optimizer::optimize(g, &cfg);
    let text = std::fs::read_to_string(&path).expect("checkpoint exists");

    // Truncation (a crash mid-write of a non-atomic writer) and header
    // corruption must both fail to parse — never produce a state.
    for corrupt in [
        text[..text.len() / 2].to_string(),
        text.replacen("magis-checkpoint v5", "magis-checkpoint v9", 1),
        text.replacen("ckpt-end", "", 1),
    ] {
        let p2 = scratch("corrupt2");
        std::fs::write(&p2, corrupt).expect("write corrupt");
        assert!(SearchCheckpoint::read_from(&p2).is_err(), "corrupt checkpoint parsed");
        let _ = std::fs::remove_file(&p2);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_write_failure_is_not_fatal() {
    // An unwritable checkpoint path must not kill the search — it is
    // counted and the search completes normally.
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let bad = PathBuf::from("/nonexistent-dir/magis.ckpt");
    let cfg = capped(obj, 12, 1).with_checkpoint(CheckpointPolicy::new(bad).with_every(4));
    let res = optimizer::optimize(g, &cfg);
    assert!(res.stats.checkpoint_failures >= 1);
    assert_eq!(res.stats.checkpoints_written, 0);
    assert!(res.best.eval.peak_bytes <= init.eval.peak_bytes);
}
