//! Experiments U1–U2: the two driving use cases.

use antarex_apps::docking::{generate_library, generate_pocket, DockingCampaign, Ligand};
use antarex_apps::nav::{NavigationServer, RoadNetwork, TrafficModel};
use antarex_monitor::Sla;
use antarex_rtrm::dispatch::{run_task_pool, DispatchStrategy};
use antarex_sim::node::{Node, NodeSpec};
use antarex_sim::workload::{exponential, rush_hour_profile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// U1: the docking sweep under the three dispatch strategies on the
/// CINECA-like heterogeneous pool.
pub(crate) fn u1_docking_dispatch() -> String {
    let mut rng = StdRng::seed_from_u64(31);
    let pocket = generate_pocket(30, &mut rng);
    let mut library = generate_library(600, 24, &mut rng);
    library.sort_by_key(Ligand::size); // catalog order: worst case for static
    let campaign = DockingCampaign::new(library, pocket, 20_000, 5);
    let tasks = campaign.as_tasks();

    let pool = || -> Vec<Node> {
        (0..8)
            .map(|i| {
                if i < 4 {
                    Node::nominal(NodeSpec::cineca_accelerated(), i)
                } else {
                    Node::nominal(NodeSpec::cineca_xeon(), i)
                }
            })
            .collect()
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ligands, 12 devices (4 CPU+2GPU nodes, 4 CPU nodes):",
        tasks.len()
    );
    let _ = writeln!(
        out,
        "{:<14} {:>13} {:>13} {:>11} {:>14}",
        "strategy", "makespan [s]", "energy [kJ]", "imbalance", "vs static"
    );
    let mut static_makespan = None;
    for strategy in DispatchStrategy::all() {
        let mut nodes = pool();
        let outcome = run_task_pool(&mut nodes, &tasks, strategy);
        let baseline = *static_makespan.get_or_insert(outcome.makespan_s);
        let _ = writeln!(
            out,
            "{:<14} {:>13.2} {:>13.1} {:>11.2} {:>13.2}x",
            strategy.name(),
            outcome.makespan_s,
            outcome.energy_j / 1e3,
            outcome.imbalance(),
            baseline / outcome.makespan_s
        );
    }
    let _ = writeln!(
        out,
        "paper: 'Dynamic load balancing and task placement are critical' (§VII-a)"
    );
    out
}

/// Shared navigation day simulation.
pub(crate) fn navigation_day(adaptive: bool, seed: u64, hours: f64) -> (Sla, f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let network = RoadNetwork::city_grid(14, &mut rng);
    let traffic = TrafficModel::weekday().with_incidents(10, network.len(), &mut rng);
    let mut server = NavigationServer::new(network, traffic, 1);
    server.set_alternatives(8);
    let mut sla = Sla::upper_bound("latency", 0.5);
    let mut quality = 0.0;
    let mut served = 0u64;
    let mut time = 6.0 * 3600.0;
    let end = time + hours * 3600.0;
    while time < end {
        let rate = 0.35 * rush_hour_profile(time, 6.0);
        let gap = exponential(&mut rng, rate);
        server.drain(gap);
        time += gap;
        let outcome = server.serve(time, &mut rng);
        sla.check(time, outcome.latency_s);
        quality += outcome.alternatives as f64;
        served += 1;
        if adaptive && served.is_multiple_of(20) {
            let recent = sla
                .history()
                .window_since(time - 300.0)
                .iter()
                .map(|s| s.value)
                .fold(0.0, f64::max);
            let k = server.alternatives();
            if recent > 0.4 && k > 1 {
                server.set_alternatives(k - 1);
            } else if recent < 0.15 && k < 8 {
                server.set_alternatives(k + 1);
            }
        }
    }
    (sla, quality / served.max(1) as f64, served)
}

/// U2: fixed vs SLA-adaptive navigation over a 6-hour window spanning
/// the morning rush.
pub(crate) fn u2_navigation_adaptivity() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SLA: latency <= 0.5 s; 06:00-12:00, rush peak 5x at 08:00"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>12} {:>15} {:>14}",
        "policy", "requests", "violations", "violation rate", "mean quality"
    );
    for (label, adaptive) in [("fixed", false), ("adaptive", true)] {
        let (sla, quality, served) = navigation_day(adaptive, 2016, 6.0);
        let report = sla.report();
        let _ = writeln!(
            out,
            "{label:<10} {served:>9} {:>12} {:>14.1}% {quality:>14.2}",
            report.violations,
            100.0 * report.violation_rate()
        );
    }
    let _ = writeln!(
        out,
        "paper: balancing server-side computation against SLA under variable load (§VII-b)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u1_dynamic_beats_static() {
        let report = u1_docking_dispatch();
        let ratios: Vec<f64> = report
            .lines()
            .filter_map(|l| {
                l.split_whitespace()
                    .last()
                    .and_then(|w| w.strip_suffix('x'))
                    .and_then(|v| v.parse().ok())
            })
            .collect();
        assert_eq!(ratios.len(), 3, "{report}");
        assert!(ratios[1] > 1.1, "dynamic speedup {}: {report}", ratios[1]);
        assert!(ratios[2] >= ratios[1] * 0.9, "{report}");
    }

    #[test]
    fn u2_adaptive_reduces_violations() {
        let (fixed, _, _) = navigation_day(false, 77, 3.0);
        let (adaptive, _, _) = navigation_day(true, 77, 3.0);
        assert!(
            adaptive.report().violation_rate() < fixed.report().violation_rate(),
            "adaptive {:?} vs fixed {:?}",
            adaptive.report(),
            fixed.report()
        );
    }
}
