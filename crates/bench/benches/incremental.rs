//! Criterion benchmark of incremental vs full scheduling (design knob
//! D1; the timing half of Fig. 14): after one transformation, how much
//! cheaper is rescheduling just the narrow-waist-bounded window?

use magis_util::bench::{BenchmarkId, Criterion};
use magis_util::{criterion_group, criterion_main};
use magis_core::rules::{self, RuleConfig, Transform};
use magis_core::state::{EvalContext, MState};
use magis_models::random_dnn::{random_dnn, RandomDnnConfig};
use magis_sched::{full_schedule, incremental_schedule_cached, IntervalParams, SchedConfig};
use std::hint::black_box;
use magis_graph::GraphView;

fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("reschedule_after_transform");
    group.sample_size(20);
    for cells in [4usize, 8] {
        let g = random_dnn(&RandomDnnConfig { cells, ..RandomDnnConfig::default() }, 5);
        let ctx = EvalContext::default();
        let state = MState::initial(g, &ctx);
        let rcfg = RuleConfig { hotspot_filter: false, ..RuleConfig::default() };
        let t = rules::generate(&state, &rcfg)
            .into_iter()
            .find(|t| matches!(t, Transform::Taso(_)))
            .expect("taso candidate");
        let applied = rules::apply(&state, &t).expect("apply");
        let n = applied.base.len();

        group.bench_with_input(BenchmarkId::new("incremental", n), &(), |b, ()| {
            b.iter(|| {
                black_box(incremental_schedule_cached(
                    &state.eval.graph,
                    &applied.base,
                    &applied.mutated,
                    &state.eval.order,
                    None,
                    None,
                    &SchedConfig::default(),
                    &IntervalParams::default(),
                    None,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("full", n), &(), |b, ()| {
            b.iter(|| black_box(full_schedule(&applied.base, &SchedConfig::default())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_vs_full);
criterion_main!(benches);
