//! Task-pool dispatch strategies.
//!
//! The drug-discovery use case (§VII-a): "These problems are massively
//! parallel, but demonstrate unpredictable imbalances in the computational
//! time ... Dynamic load balancing and task placement are critical."
//! Three strategies are compared by experiment U1:
//!
//! * [`DispatchStrategy::StaticPartition`] — block-partition tasks up
//!   front (the naive MPI decomposition);
//! * [`DispatchStrategy::DynamicGreedy`] — self-scheduling: each device
//!   pulls the next task when free;
//! * [`DispatchStrategy::HeterogeneityAware`] — self-scheduling that also
//!   routes large tasks to the fastest devices (longest-processing-time
//!   heuristic on the estimated cost).

use antarex_sim::job::Task;
use antarex_sim::node::Node;

/// How to spread a task pool across devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchStrategy {
    /// Contiguous blocks assigned up front.
    StaticPartition,
    /// Pull-based self-scheduling in task order.
    DynamicGreedy,
    /// Pull-based, largest tasks first, fastest devices preferred.
    HeterogeneityAware,
}

impl DispatchStrategy {
    /// All strategies, for sweeps.
    pub fn all() -> [DispatchStrategy; 3] {
        [
            DispatchStrategy::StaticPartition,
            DispatchStrategy::DynamicGreedy,
            DispatchStrategy::HeterogeneityAware,
        ]
    }

    /// Strategy name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DispatchStrategy::StaticPartition => "static",
            DispatchStrategy::DynamicGreedy => "dynamic",
            DispatchStrategy::HeterogeneityAware => "hetero-aware",
        }
    }
}

/// A compute device a task can run on: node CPU cores or one accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Device {
    /// Index of the node in the pool.
    pub node: usize,
    /// `None` = CPU; `Some(i)` = accelerator `i` of that node.
    pub accelerator: Option<usize>,
}

/// Result of running a task pool.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchOutcome {
    /// Wall-clock makespan, seconds (slowest device's finish time).
    pub makespan_s: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Per-device busy time, seconds.
    pub device_busy_s: Vec<f64>,
    /// Tasks executed per device.
    pub device_tasks: Vec<usize>,
}

impl DispatchOutcome {
    /// Load imbalance: `max(busy) / mean(busy)`; 1.0 is perfect.
    pub fn imbalance(&self) -> f64 {
        let max = self.device_busy_s.iter().cloned().fold(0.0, f64::max);
        let mean = self.device_busy_s.iter().sum::<f64>() / self.device_busy_s.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Enumerates the devices of a node pool (CPU + every accelerator).
pub(crate) fn devices_of(nodes: &[Node]) -> Vec<Device> {
    let mut devices = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        devices.push(Device {
            node: i,
            accelerator: None,
        });
        for a in 0..node.spec().accelerators.len() {
            devices.push(Device {
                node: i,
                accelerator: Some(a),
            });
        }
    }
    devices
}

/// Estimated execution time of a task on a device (used for routing; the
/// actual cost comes from executing on the node model).
fn estimate_s(nodes: &[Node], device: Device, task: &Task) -> f64 {
    let node = &nodes[device.node];
    match device.accelerator {
        None => {
            let peak = node.spec().cpu_peak_gflops(node.pstate().freq_ghz) * 1e9;
            (task.work.flops / peak).max(task.work.bytes / (node.spec().mem_bw_gbs * 1e9))
        }
        Some(a) => node.spec().accelerators[a].exec_time_s(task.work.flops, task.work.bytes),
    }
}

fn execute_on(nodes: &mut [Node], device: Device, task: &Task) -> (f64, f64) {
    let node = &mut nodes[device.node];
    let outcome = match device.accelerator {
        None => node.execute(&task.work),
        Some(a) => node.execute_offloaded(&task.work, a),
    };
    (outcome.time_s, outcome.energy_j)
}

/// Runs `tasks` over the node pool with the given strategy.
///
/// # Panics
///
/// Panics if the pool is empty.
pub fn run_task_pool(
    nodes: &mut [Node],
    tasks: &[Task],
    strategy: DispatchStrategy,
) -> DispatchOutcome {
    let devices = devices_of(nodes);
    assert!(!devices.is_empty(), "no devices to dispatch to");
    let mut busy = vec![0.0f64; devices.len()];
    let mut counts = vec![0usize; devices.len()];
    let mut energy = 0.0;

    match strategy {
        DispatchStrategy::StaticPartition => {
            // contiguous blocks, one per device
            let chunk = tasks.len().div_ceil(devices.len().max(1));
            for (d, block) in tasks.chunks(chunk.max(1)).enumerate() {
                let device = devices[d.min(devices.len() - 1)];
                for task in block {
                    let (t, e) = execute_on(nodes, device, task);
                    busy[d.min(devices.len() - 1)] += t;
                    counts[d.min(devices.len() - 1)] += 1;
                    energy += e;
                }
            }
        }
        DispatchStrategy::DynamicGreedy | DispatchStrategy::HeterogeneityAware => {
            let mut order: Vec<&Task> = tasks.iter().collect();
            if strategy == DispatchStrategy::HeterogeneityAware {
                // longest processing time first
                order.sort_by(|a, b| b.work.flops.total_cmp(&a.work.flops));
            }
            for task in order {
                // pull model: the device that would *finish* this task
                // soonest takes it (greedy earliest-finish-time)
                let (d, _) = devices
                    .iter()
                    .enumerate()
                    .map(|(d, &dev)| (d, busy[d] + estimate_s(nodes, dev, task)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty");
                let (t, e) = execute_on(nodes, devices[d], task);
                busy[d] += t;
                counts[d] += 1;
                energy += e;
            }
        }
    }

    DispatchOutcome {
        makespan_s: busy.iter().cloned().fold(0.0, f64::max),
        energy_j: energy,
        device_busy_s: busy,
        device_tasks: counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_sim::node::NodeSpec;
    use antarex_sim::workload::docking_tasks;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cpu_pool(n: usize) -> Vec<Node> {
        (0..n)
            .map(|i| Node::nominal(NodeSpec::cineca_xeon(), i))
            .collect()
    }

    #[test]
    fn devices_enumerated() {
        let nodes = vec![
            Node::nominal(NodeSpec::cineca_accelerated(), 0),
            Node::nominal(NodeSpec::cineca_xeon(), 1),
        ];
        let devices = devices_of(&nodes);
        assert_eq!(devices.len(), 4, "cpu+2gpu on node 0, cpu on node 1");
    }

    #[test]
    fn dynamic_beats_static_on_heavy_tail() {
        // the U1 claim: self-scheduling fixes the imbalance of static
        // partitioning under heavy-tailed task costs
        // docking libraries are processed in catalog order, which is
        // correlated with molecule size: sort to model that, making the
        // contiguous blocks of static partitioning maximally lumpy
        let mut rng = StdRng::seed_from_u64(77);
        let mut tasks = docking_tasks(400, 5e10, 1.0, &mut rng);
        tasks.sort_by(|a, b| a.work.flops.total_cmp(&b.work.flops));
        let mut nodes_a = cpu_pool(8);
        let static_run = run_task_pool(&mut nodes_a, &tasks, DispatchStrategy::StaticPartition);
        let mut nodes_b = cpu_pool(8);
        let dynamic_run = run_task_pool(&mut nodes_b, &tasks, DispatchStrategy::DynamicGreedy);
        assert!(
            dynamic_run.makespan_s < static_run.makespan_s * 0.85,
            "dynamic {} vs static {}",
            dynamic_run.makespan_s,
            static_run.makespan_s
        );
        assert!(dynamic_run.imbalance() < static_run.imbalance());
    }

    #[test]
    fn hetero_aware_wins_on_heterogeneous_pool() {
        let mut rng = StdRng::seed_from_u64(78);
        let tasks = docking_tasks(300, 1e11, 1.0, &mut rng);
        let pool = || {
            vec![
                Node::nominal(NodeSpec::cineca_accelerated(), 0),
                Node::nominal(NodeSpec::cineca_xeon(), 1),
            ]
        };
        let mut a = pool();
        let greedy = run_task_pool(&mut a, &tasks, DispatchStrategy::DynamicGreedy);
        let mut b = pool();
        let aware = run_task_pool(&mut b, &tasks, DispatchStrategy::HeterogeneityAware);
        assert!(
            aware.makespan_s <= greedy.makespan_s * 1.02,
            "aware {} vs greedy {}",
            aware.makespan_s,
            greedy.makespan_s
        );
        // accelerators take the bulk of the work
        let accel_tasks: usize = aware.device_tasks[1] + aware.device_tasks[2];
        assert!(accel_tasks > aware.device_tasks[0]);
    }

    #[test]
    fn all_tasks_are_executed_exactly_once() {
        let mut rng = StdRng::seed_from_u64(79);
        let tasks = docking_tasks(100, 1e10, 0.8, &mut rng);
        for strategy in DispatchStrategy::all() {
            let mut nodes = cpu_pool(3);
            let outcome = run_task_pool(&mut nodes, &tasks, strategy);
            let total: usize = outcome.device_tasks.iter().sum();
            assert_eq!(total, 100, "{}", strategy.name());
            assert!(outcome.energy_j > 0.0);
        }
    }

    #[test]
    fn imbalance_metric() {
        let outcome = DispatchOutcome {
            makespan_s: 4.0,
            energy_j: 1.0,
            device_busy_s: vec![4.0, 2.0, 2.0],
            device_tasks: vec![1, 1, 1],
        };
        assert!((outcome.imbalance() - 1.5).abs() < 1e-12);
    }
}
