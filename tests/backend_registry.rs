//! Golden tests for the backend registry: every registered device
//! profile must drive the full evaluate pipeline to sane results, the
//! default `rtx3090` profile must be bit-identical to the historical
//! hard-coded cost model, defective specs must be rejected with typed
//! errors, calibration must round-trip a synthetic trace, and the
//! search trajectory must stay bit-identical across thread counts on
//! *every* backend — determinism is a per-backend contract, not an
//! artifact of the default profile.

use magis::prelude::*;
use magis::sim::backend::OpClass;
use magis::sim::{calibrate, Backend, BackendRegistry, EfficiencyTable, SpecError, DEFAULT_BACKEND};
use std::time::Duration;

/// The four bench workloads at the scales tier-1 already exercises.
fn bench_models() -> Vec<(Workload, f64)> {
    vec![
        (Workload::UNet, 0.2),
        (Workload::BertBase, 0.12),
        (Workload::ResNet50, 0.1),
        (Workload::VitBase, 0.1),
    ]
}

#[test]
fn registry_has_at_least_four_profiles() {
    let reg = BackendRegistry::builtin();
    assert!(reg.len() >= 4, "built-in registry ships >= 4 profiles, got {}", reg.len());
    for name in ["rtx3090", "a100", "mobile", "tpu"] {
        assert!(reg.get(name).is_some(), "{name} is registered");
    }
    assert_eq!(DEFAULT_BACKEND, "rtx3090");
    // Name order, so `--backend-list` output is stable.
    let names = reg.names();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
}

#[test]
fn every_backend_evaluates_the_bench_models() {
    let reg = BackendRegistry::builtin();
    for (w, scale) in bench_models() {
        let g = w.build(scale).graph;
        for backend in reg.iter() {
            let ctx = EvalContext::for_backend(backend);
            let state = MState::initial(g.clone(), &ctx);
            assert!(
                state.eval.latency.is_finite() && state.eval.latency > 0.0,
                "{w:?} on {}: latency {}",
                backend.name(),
                state.eval.latency
            );
            assert!(
                state.eval.peak_bytes > 0,
                "{w:?} on {}: zero peak memory",
                backend.name()
            );
            assert_eq!(ctx.backend_name(), backend.name());
        }
    }
}

#[test]
fn default_backend_is_bit_identical_to_the_legacy_cost_model() {
    let reg = BackendRegistry::builtin();
    let rtx = reg.get(DEFAULT_BACKEND).expect("default registered");
    for (w, scale) in bench_models() {
        let g = w.build(scale).graph;
        let legacy = MState::initial(g.clone(), &EvalContext::default());
        let via_registry = MState::initial(g.clone(), &EvalContext::for_backend(rtx));
        assert_eq!(
            legacy.eval.peak_bytes, via_registry.eval.peak_bytes,
            "{w:?}: peak bytes identical"
        );
        assert_eq!(
            legacy.eval.latency.to_bits(),
            via_registry.eval.latency.to_bits(),
            "{w:?}: latency bit-identical"
        );
    }
}

#[test]
fn spec_validation_rejects_defective_specs() {
    let good = || BackendRegistry::builtin().get("a100").expect("a100").device().clone();
    let eff = EfficiencyTable::default();

    let mut d = good();
    d.peak_flops = f64::NAN;
    assert!(matches!(
        Backend::new("x", d, eff),
        Err(SpecError::NonFinite { .. })
    ));

    let mut d = good();
    d.mem_bandwidth = 0.0;
    assert!(matches!(
        Backend::new("x", d, eff),
        Err(SpecError::NonPositive { .. })
    ));

    let mut d = good();
    d.xfer_bandwidth = -1.0;
    assert!(matches!(
        Backend::new("x", d, eff),
        Err(SpecError::NonPositive { .. })
    ));

    let mut d = good();
    d.launch_overhead = -1e-6;
    assert!(matches!(
        Backend::new("x", d, eff),
        Err(SpecError::NegativeOverhead { .. })
    ));

    let mut d = good();
    d.mem_capacity = 0;
    assert!(Backend::new("x", d, eff).is_err());

    assert!(matches!(
        Backend::new("", good(), eff),
        Err(SpecError::EmptyName)
    ));

    let mut bad_eff = eff;
    bad_eff.conv = 1.5;
    assert!(matches!(
        Backend::new("x", good(), bad_eff),
        Err(SpecError::Efficiency { .. })
    ));

    let mut bad_eff = eff;
    bad_eff.matmul = 0.0;
    assert!(matches!(
        Backend::new("x", good(), bad_eff),
        Err(SpecError::Efficiency { .. })
    ));

    // Registration rejects duplicates with a typed error.
    let mut reg = BackendRegistry::builtin();
    let dup = reg.get("mobile").expect("mobile").clone();
    assert!(matches!(reg.register(dup), Err(SpecError::DuplicateName { .. })));
}

#[test]
fn calibration_round_trips_a_synthetic_trace() {
    let reg = BackendRegistry::builtin();
    let mobile = reg.get("mobile").expect("mobile");
    let shapes = [
        (OpClass::MatMul, 2.0e11, 2.0e7),
        (OpClass::MatMul, 8.0e11, 8.0e7),
        (OpClass::BatchMatMul, 1.0e11, 3.0e7),
        (OpClass::BatchMatMul, 4.0e11, 9.0e7),
        (OpClass::Conv, 3.0e11, 5.0e7),
        (OpClass::Conv, 9.0e11, 1.2e8),
        (OpClass::Normalization, 1.0e8, 6.0e7),
        (OpClass::Normalization, 2.0e8, 1.2e8),
        (OpClass::Other, 1.0e8, 9.0e7),
        (OpClass::Other, 3.0e8, 2.7e8),
    ];
    let samples = calibrate::synthesize_trace(mobile, &shapes);
    // Through the serialized form, as the CLI would read it.
    let reparsed = calibrate::parse_trace(&calibrate::render_trace(&samples)).expect("parses");
    assert_eq!(reparsed.len(), samples.len());
    let fitted = mobile.calibrated("mobile-cal", &reparsed).expect("fit succeeds");
    assert_eq!(fitted.name(), "mobile-cal");
    for class in OpClass::all() {
        let want = mobile.efficiency().get(class);
        let got = fitted.efficiency().get(class);
        let rel = (got - want).abs() / want;
        assert!(rel < 0.05, "{class}: fitted {got} vs true {want} ({rel:.3} rel err)");
    }
    let want_l = mobile.device().launch_overhead;
    let got_l = fitted.device().launch_overhead;
    assert!(
        (got_l - want_l).abs() < 0.5 * want_l.max(1e-7),
        "launch overhead: fitted {got_l} vs true {want_l}"
    );
    // An empty trace is a typed error, not a panic or a silent default.
    assert!(mobile.calibrated("x", &[]).is_err());
}

#[test]
fn per_backend_evaluation_metrics_are_labeled() {
    let reg = BackendRegistry::builtin();
    let a100 = reg.get("a100").expect("a100");
    let tg = Workload::UNet.build(0.1);
    let mut cfg = capped(Objective::MinMemory { lat_limit: f64::INFINITY }, 1);
    cfg.ctx = EvalContext::for_backend(a100);
    let _ = optimize(tg.graph, &cfg);
    // At least one: the other tests of this binary search on a100 too.
    let counters = magis::obs::metrics::default_registry().snapshot().counters;
    assert!(
        counters.get("magis_core_searches{backend=\"a100\"}").is_some_and(|&n| n >= 1),
        "a search is counted under its backend: {counters:?}"
    );
}

/// Capped, never-timing-out search (timing must not steer the
/// trajectory), as in the incremental-eval harness.
fn capped(objective: Objective, threads: usize) -> OptimizerConfig {
    OptimizerConfig::new(objective)
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(60)
        .with_threads(threads)
}

#[test]
fn search_is_bit_identical_across_threads_on_every_backend() {
    let tg = Workload::UNet.build(0.2);
    for backend in BackendRegistry::builtin().iter() {
        let run = |threads: usize| {
            let ctx = EvalContext::for_backend(backend);
            let init = MState::initial(tg.graph.clone(), &ctx);
            let mut cfg = capped(
                Objective::MinMemory { lat_limit: init.eval.latency * 1.25 },
                threads,
            );
            cfg.ctx = EvalContext::for_backend(backend);
            let res = optimize(tg.graph.clone(), &cfg);
            let history: Vec<(u64, u64)> =
                res.history.iter().map(|p| (p.peak_bytes, p.latency.to_bits())).collect();
            (res.best.cost(), history, res.stats.evaluated)
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.0 .0, parallel.0 .0, "{}: peak bytes", backend.name());
        assert_eq!(
            serial.0 .1.to_bits(),
            parallel.0 .1.to_bits(),
            "{}: latency bit-identical",
            backend.name()
        );
        assert_eq!(serial.1, parallel.1, "{}: history identical", backend.name());
        assert_eq!(serial.2, parallel.2, "{}: evaluation count", backend.name());
    }
}
