//! Criterion: platform-simulator mechanism costs (experiments C1–C4
//! building blocks).

use antarex_rtrm::cluster_ctrl::{NodeController, RegionKind};
use antarex_rtrm::governor::{run_with_governor, Governor, GovernorKind};
use antarex_sim::cooling::CoolingPlant;
use antarex_sim::job::WorkUnit;
use antarex_sim::node::{Node, NodeSpec};
use antarex_sim::thermal::ThermalModel;
use antarex_sim::variability::ProcessVariation;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_node_execution(c: &mut Criterion) {
    c.bench_function("node_execute_compute_bound", |b| {
        let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        let work = WorkUnit::compute_bound(1e12);
        b.iter(|| black_box(node.execute(black_box(&work))))
    });
    c.bench_function("node_execute_offloaded_gpu", |b| {
        let mut node = Node::nominal(NodeSpec::cineca_accelerated(), 0);
        let work = WorkUnit::compute_bound(1e12);
        b.iter(|| black_box(node.execute_offloaded(black_box(&work), 0)))
    });
}

fn bench_models(c: &mut Criterion) {
    c.bench_function("thermal_step", |b| {
        let mut model = ThermalModel::server_node(26.0);
        b.iter(|| black_box(model.step(black_box(200.0), 26.0, 1.0)))
    });
    c.bench_function("variability_sample", |b| {
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| black_box(ProcessVariation::sample(&mut rng)))
    });
    c.bench_function("pue_evaluation", |b| {
        let plant = CoolingPlant::european_datacenter();
        b.iter(|| black_box(plant.pue(black_box(1e6), black_box(22.0))))
    });
}

fn bench_governors(c: &mut Criterion) {
    let work = vec![WorkUnit::with_intensity(3e11, 2.0); 4];
    c.bench_function("governor_ondemand_stream", |b| {
        b.iter(|| {
            let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
            let mut gov = Governor::new(GovernorKind::Ondemand);
            black_box(run_with_governor(&mut node, &mut gov, &work))
        })
    });
    c.bench_function("governor_energy_optimal_stream", |b| {
        b.iter(|| {
            let mut node = Node::nominal(NodeSpec::cineca_xeon(), 0);
            let mut gov = Governor::new(GovernorKind::EnergyOptimal);
            black_box(run_with_governor(&mut node, &mut gov, &work))
        })
    });
}

/// One control decision on a cool node and on one warmed past the
/// thermal clamp's 75 °C release, where the clamp predicts steady-state
/// temperatures (e2e's `rtrm.cluster_ctrl.plan_ns_per_node` replays
/// fresh 26 °C nodes and never reaches it).
fn bench_plan(c: &mut Criterion) {
    let cool = Node::nominal(NodeSpec::cineca_xeon(), 0);
    let mut hot = Node::nominal(NodeSpec::cineca_xeon(), 1);
    hot.set_inlet_temp(36.0);
    hot.execute(&WorkUnit::compute_bound(5e13));
    assert!(hot.temp_c() > NodeController::new().throttle.release_c);
    let mut group = c.benchmark_group("rtrm/plan");
    for (name, node) in [("cool_26c", cool), ("hot_clamp", hot)] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut node = node.clone();
            let mut ctl = NodeController::new();
            ctl.set_cap(260.0);
            let raw = Some(node.temp_c());
            b.iter(|| black_box(ctl.plan(&mut node, RegionKind::Compute, 64.0, 0.0, raw)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_node_execution,
    bench_models,
    bench_governors,
    bench_plan
);
criterion_main!(benches);
