//! Criterion: use-case application kernels (experiments U1/U2 mechanism
//! costs), and the serving tier's navigation probe at the knob settings
//! the overload-chaos campaign probes (`nav_probe`).

use antarex_apps::docking::{dock_ligand, generate_library, generate_pocket};
use antarex_apps::nav::{alternative_routes, shortest_path, RoadNetwork, TrafficModel};
use antarex_rtrm::dispatch::{run_task_pool, DispatchStrategy};
use antarex_serve::driver::archetype_features;
use antarex_serve::nav::NavEvaluator;
use antarex_serve::Evaluator;
use antarex_sim::node::{Node, NodeSpec};
use antarex_sim::workload::docking_tasks;
use antarex_tuner::{Configuration, KnobValue};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_docking(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let pocket = generate_pocket(30, &mut rng);
    let library = generate_library(4, 24, &mut rng);
    let mut group = c.benchmark_group("dock_ligand_poses");
    for poses in [8usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(poses), &poses, |b, &poses| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(11);
                black_box(dock_ligand(&library[0], &pocket, poses, &mut rng))
            })
        });
    }
    group.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let tasks = docking_tasks(120, 5e10, 1.0, &mut rng);
    let mut group = c.benchmark_group("dispatch_120_tasks");
    for strategy in DispatchStrategy::all() {
        group.bench_function(BenchmarkId::from_parameter(strategy.name()), |b| {
            b.iter(|| {
                let mut nodes: Vec<Node> = (0..4)
                    .map(|i| Node::nominal(NodeSpec::cineca_xeon(), i))
                    .collect();
                black_box(run_task_pool(&mut nodes, &tasks, strategy))
            })
        });
    }
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let network = RoadNetwork::city_grid(16, &mut rng);
    let traffic = TrafficModel::weekday();
    let dest = network.len() - 1;
    c.bench_function("astar_16x16", |b| {
        b.iter(|| {
            black_box(shortest_path(&network, &traffic, 0, dest, 8.0 * 3600.0, true).unwrap())
        })
    });
    // effort grows faster than k (each round searches a more penalized
    // network); the cost per expansion should not
    let mut group = c.benchmark_group("alternatives_16x16");
    for k in [1, 4, 8] {
        group.bench_function(BenchmarkId::new("k", k), |b| {
            b.iter(|| {
                black_box(alternative_routes(
                    &network,
                    &traffic,
                    0,
                    dest,
                    8.0 * 3600.0,
                    k,
                ))
            })
        });
    }
    group.finish();
}

/// One `NavEvaluator` probe per iteration at `alternatives` = 2 and 4,
/// the two settings `serve_overload_chaos` probes. The features rotate
/// over 64 design points (the first sixteen archetypes, each at four
/// minute offsets), so each probe plans its own origin–destination
/// pairs, as the campaign's fresh-feature tenants do.
fn bench_nav_probe(c: &mut Criterion) {
    let evaluator = NavEvaluator::city(2016);
    let features: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            let mut f = archetype_features(i % 16);
            f[0] += 60.0 * (i / 16) as f64;
            f
        })
        .collect();
    let mut group = c.benchmark_group("nav_probe");
    for k in [2i64, 4] {
        let mut config = Configuration::new();
        config.set("alternatives", KnobValue::Int(k));
        // warm up: the planner memory the evaluator keeps across probes
        evaluator.evaluate(&config, &features[0]);
        let mut point = 0;
        group.bench_with_input(BenchmarkId::new("k", k), &config, |b, config| {
            b.iter(|| {
                point = (point + 1) % features.len();
                black_box(evaluator.evaluate(config, black_box(&features[point])))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_docking,
    bench_dispatch,
    bench_routing,
    bench_nav_probe
);
criterion_main!(benches);
