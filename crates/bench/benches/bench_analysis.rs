//! Criterion bench for the Section 4.1 trade-off and the ablation study:
//! CPM cost across grid granularities on uniform data (the analysis
//! model's regime), and with each book-keeping optimization disabled.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpm_core::{CpmConfig, PointQuery, ShardedCpmEngine};
use cpm_sim::{run_boxed, SimParams, SimulationInput, WorkloadKind};

fn input(dim: u32) -> SimulationInput {
    SimulationInput::generate(&SimParams {
        n_objects: 2_000,
        n_queries: 50,
        k: 8,
        timestamps: 5,
        grid_dim: dim,
        workload: WorkloadKind::Uniform,
        ..SimParams::default()
    })
}

fn bench_delta_tradeoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis_delta_tradeoff");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    for dim in [16u32, 64, 256] {
        let input = input(dim);
        group.bench_with_input(BenchmarkId::new("CPM", dim), &input, |b, input| {
            b.iter(|| {
                let mut m: ShardedCpmEngine<PointQuery> =
                    ShardedCpmEngine::new(input.params.grid_dim, 1);
                run_boxed(&mut m, input)
            })
        });
    }
    group.finish();
}

fn bench_ablation(c: &mut Criterion) {
    let input = input(64);
    let mut group = c.benchmark_group("ablation_bookkeeping");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let configs = [
        ("full", CpmConfig::default()),
        (
            "no_merge",
            CpmConfig {
                merge_optimization: false,
                reuse_visit_list: true,
            },
        ),
        (
            "no_visit_reuse",
            CpmConfig {
                merge_optimization: true,
                reuse_visit_list: false,
            },
        ),
        (
            "neither",
            CpmConfig {
                merge_optimization: false,
                reuse_visit_list: false,
            },
        ),
    ];
    for (name, cfg) in configs {
        group.bench_with_input(BenchmarkId::new("config", name), &input, |b, input| {
            b.iter(|| {
                let mut m: ShardedCpmEngine<PointQuery> =
                    ShardedCpmEngine::new(input.params.grid_dim, 1);
                m.set_config(cfg);
                run_boxed(&mut m, input)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_delta_tradeoff, bench_ablation);
criterion_main!(benches);
