//! Deterministic, seed-driven fault injection for the simulated platform.
//!
//! Exascale machines fail constantly: the mean time between failures
//! shrinks as the node count grows, sensors drop out or freeze, power
//! rails glitch, interconnects degrade, and "gray" nodes silently run
//! slow. This module pre-computes a complete, reproducible
//! [`FaultSchedule`] for a simulated run — Weibull-distributed node
//! crashes with repair, transient sensor dropouts and stuck-at readings,
//! power-rail spikes, interconnect degradation windows, and slow-node
//! gray failures — so that every layer above the simulator (governors,
//! power capping, checkpointing schedulers, the CADA loop, the nav
//! server) can be exercised under realistic disturbance.
//!
//! Design rules:
//!
//! * **Deterministic.** The schedule is a pure function of
//!   ([`FaultConfig`], node count, horizon). Identical seeds yield
//!   byte-identical schedules, forever.
//! * **Pure.** The injector never touches simulator state. It answers
//!   point-in-time queries ([`FaultSchedule::node_alive`],
//!   [`FaultSchedule::sensor_effect`], ...) and leaves the response to
//!   the consuming layer — the injector cannot know what a "stuck"
//!   sensor last read, so it reports *that* a sensor froze and since
//!   when, and the monitor holds the value.
//! * **Zero means zero.** A rate of 0 (or [`FaultConfig::none`])
//!   produces an empty schedule, and every query returns the fault-free
//!   answer, so fault-rate-0 experiments are bit-identical to runs that
//!   never imported this module.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Tunable fault model for one simulated run.
///
/// All rates are per-node unless stated otherwise; a rate (or MTBF) of
/// zero disables that fault class.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault stream (independent of the workload seed).
    pub seed: u64,
    /// Mean time between crashes per node, seconds. 0 disables crashes.
    pub node_mtbf_s: f64,
    /// Weibull shape `k` for crash inter-arrival times. `k = 1` is the
    /// classic exponential/Poisson model; `k < 1` captures infant
    /// mortality, `k > 1` wear-out.
    pub weibull_shape: f64,
    /// Downtime after a crash before the node rejoins, seconds.
    pub repair_time_s: f64,
    /// Mean time between sensor dropouts per node, seconds. 0 disables.
    pub sensor_mtbf_s: f64,
    /// Duration of one sensor fault, seconds.
    pub sensor_outage_s: f64,
    /// Probability a sensor fault manifests as a stuck-at (frozen)
    /// reading rather than a missing one.
    pub stuck_fraction: f64,
    /// Mean time between power-rail spikes per node, seconds. 0 disables.
    pub power_spike_mtbf_s: f64,
    /// Extra draw during a spike, watts.
    pub power_spike_w: f64,
    /// Spike duration, seconds.
    pub power_spike_s: f64,
    /// Mean time between interconnect degradation windows (whole
    /// cluster), seconds. 0 disables.
    pub link_mtbf_s: f64,
    /// Bandwidth multiplier while degraded (e.g. 0.25 = quarter speed).
    pub link_factor: f64,
    /// Degradation window duration, seconds.
    pub link_outage_s: f64,
    /// Mean time between gray failures (slow node, no crash) per node,
    /// seconds. 0 disables.
    pub gray_mtbf_s: f64,
    /// Execution slowdown while gray (e.g. 2.0 = half speed).
    pub gray_slowdown: f64,
    /// Gray episode duration, seconds.
    pub gray_duration_s: f64,
    /// Mean time between silent data-corruption windows per node,
    /// seconds — episodes where results computed on the node come back
    /// bit-flipped (DRAM/ALU upsets). 0 disables.
    pub corrupt_mtbf_s: f64,
    /// Duration of one corruption window, seconds.
    pub corrupt_window_s: f64,
}

impl FaultConfig {
    /// A fault-free configuration: every class disabled.
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            node_mtbf_s: 0.0,
            weibull_shape: 1.0,
            repair_time_s: 120.0,
            sensor_mtbf_s: 0.0,
            sensor_outage_s: 30.0,
            stuck_fraction: 0.3,
            power_spike_mtbf_s: 0.0,
            power_spike_w: 60.0,
            power_spike_s: 5.0,
            link_mtbf_s: 0.0,
            link_factor: 0.25,
            link_outage_s: 60.0,
            gray_mtbf_s: 0.0,
            gray_slowdown: 2.0,
            gray_duration_s: 300.0,
            corrupt_mtbf_s: 0.0,
            corrupt_window_s: 5.0,
        }
    }

    /// A representative harsh-exascale profile with every fault class
    /// enabled, scaled by `rate`: `rate = 1` gives node crashes every
    /// ~6 h, sensor faults hourly, and occasional rail/link/gray events;
    /// `rate = 2` doubles every event frequency; `rate = 0` disables
    /// everything (equivalent to [`FaultConfig::none`]).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn exascale(seed: u64, rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite(), "rate must be finite, >= 0");
        let mtbf = |base_s: f64| if rate == 0.0 { 0.0 } else { base_s / rate };
        FaultConfig {
            seed,
            node_mtbf_s: mtbf(6.0 * 3600.0),
            weibull_shape: 0.7, // infant mortality dominates in practice
            repair_time_s: 120.0,
            sensor_mtbf_s: mtbf(3600.0),
            sensor_outage_s: 30.0,
            stuck_fraction: 0.3,
            power_spike_mtbf_s: mtbf(2.0 * 3600.0),
            power_spike_w: 60.0,
            power_spike_s: 5.0,
            link_mtbf_s: mtbf(4.0 * 3600.0),
            link_factor: 0.25,
            link_outage_s: 60.0,
            gray_mtbf_s: mtbf(8.0 * 3600.0),
            gray_slowdown: 2.0,
            gray_duration_s: 300.0,
            corrupt_mtbf_s: mtbf(12.0 * 3600.0),
            corrupt_window_s: 5.0,
        }
    }
}

/// One class of injected fault, with its effect window where relevant.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FaultKind {
    /// The node dies, losing in-flight (uncheckpointed) work.
    NodeCrash {
        /// Crashed node id.
        node: usize,
    },
    /// The node rejoins after repair.
    NodeRepair {
        /// Repaired node id.
        node: usize,
    },
    /// The node's thermal/power sensor returns nothing until `until_s`.
    SensorDropout {
        /// Affected node id.
        node: usize,
        /// End of the outage, seconds.
        until_s: f64,
    },
    /// The node's sensor freezes at its last reading until `until_s`.
    SensorStuck {
        /// Affected node id.
        node: usize,
        /// End of the stuck window, seconds.
        until_s: f64,
    },
    /// The node draws `extra_w` additional watts until `until_s`.
    PowerSpike {
        /// Affected node id.
        node: usize,
        /// Additional draw, watts.
        extra_w: f64,
        /// End of the spike, seconds.
        until_s: f64,
    },
    /// Cluster interconnect bandwidth is multiplied by `factor` until
    /// `until_s`.
    LinkDegraded {
        /// Bandwidth multiplier in `(0, 1]`.
        factor: f64,
        /// End of the degradation, seconds.
        until_s: f64,
    },
    /// The node silently runs `slowdown`× slower until `until_s`.
    GraySlowdown {
        /// Affected node id.
        node: usize,
        /// Execution-time multiplier, > 1.
        slowdown: f64,
        /// End of the episode, seconds.
        until_s: f64,
    },
    /// Results computed on the node come back bit-flipped until
    /// `until_s` (silent data corruption; the consuming layer decides
    /// whether its integrity checks catch it).
    DataCorruption {
        /// Affected node id.
        node: usize,
        /// End of the corruption window, seconds.
        until_s: f64,
    },
}

impl FaultKind {
    fn label(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "crash",
            FaultKind::NodeRepair { .. } => "repair",
            FaultKind::SensorDropout { .. } => "sensor-dropout",
            FaultKind::SensorStuck { .. } => "sensor-stuck",
            FaultKind::PowerSpike { .. } => "power-spike",
            FaultKind::LinkDegraded { .. } => "link-degraded",
            FaultKind::GraySlowdown { .. } => "gray-slowdown",
            FaultKind::DataCorruption { .. } => "data-corruption",
        }
    }
}

/// A timestamped fault.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultEvent {
    /// Injection time, seconds.
    time_s: f64,
    /// What happens.
    kind: FaultKind,
}

/// What a consumer should expect from a sensor at a point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorEffect {
    /// The sensor reads normally.
    Ok,
    /// The sensor returns nothing (reading is missing).
    Dropped,
    /// The sensor repeats whatever it last read at `since_s`; the
    /// monitor owns that value, the injector only reports the freeze.
    StuckSince(f64),
}

/// One effect window of a per-node fault class: `[start_s, until_s)`
/// and the class's payload (stuck flag, slowdown factor, nothing).
type Window<T> = (f64, f64, T);

/// The window covering `t`, if any. Windows of one (class, node) never
/// overlap — each generator loop resumes at the previous window's end —
/// so only the latest one started at or before `t` can still be open.
fn active_at<T: Copy>(windows: &[Window<T>], t: f64) -> Option<Window<T>> {
    let started = windows.partition_point(|&(start_s, ..)| start_s <= t);
    let latest = *windows.get(started.checked_sub(1)?)?;
    (t < latest.1).then_some(latest)
}

/// One fault class filed by node: node `n`'s entries, in time order,
/// are `items[ends[n - 1]..ends[n]]`. Flat and sized exactly: a Vec per
/// node, or lanes grown by doubling, each cost 4096-node generation a
/// third more time than the events themselves.
#[derive(Debug, Clone, PartialEq)]
struct Lane<T> {
    ends: Vec<usize>,
    items: Vec<T>,
}

impl<T> Lane<T> {
    fn with_capacity(nodes: usize, items: usize) -> Self {
        Lane {
            ends: Vec::with_capacity(nodes),
            items: Vec::with_capacity(items),
        }
    }

    /// The entries of `node`; none for a node past the generated count.
    fn of(&self, node: usize) -> &[T] {
        let Some(&end) = self.ends.get(node) else {
            return &[];
        };
        let start = node.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.items[start..end]
    }
}

/// The queries' view of the event list: one lane per queried per-node
/// class, plus every node's crashes merged in time order.
#[derive(Debug, Clone, PartialEq)]
struct TimelineIndex {
    crashes: Lane<f64>,
    repairs: Lane<f64>,
    /// Sensor faults; the payload is `true` for stuck-at, `false` for dropout.
    sensor: Lane<Window<bool>>,
    /// Gray episodes; the payload is the execution-time multiplier.
    gray: Lane<Window<f64>>,
    corrupt: Lane<Window<()>>,
    any_crash: Vec<f64>,
}

impl TimelineIndex {
    /// Files `events` as generated — node after node, and within a node
    /// class after class, each class in time order — so every lane comes
    /// out sorted without sorting.
    fn build(events: &[FaultEvent], nodes: usize) -> Self {
        let (mut crashes, mut repairs, mut sensor, mut gray, mut corrupt) = (0, 0, 0, 0, 0);
        for event in events {
            match event.kind {
                FaultKind::NodeCrash { .. } => crashes += 1,
                FaultKind::NodeRepair { .. } => repairs += 1,
                FaultKind::SensorDropout { .. } | FaultKind::SensorStuck { .. } => sensor += 1,
                FaultKind::GraySlowdown { .. } => gray += 1,
                FaultKind::DataCorruption { .. } => corrupt += 1,
                // no query reads these two classes
                FaultKind::PowerSpike { .. } | FaultKind::LinkDegraded { .. } => {}
            }
        }
        let mut index = TimelineIndex {
            crashes: Lane::with_capacity(nodes, crashes),
            repairs: Lane::with_capacity(nodes, repairs),
            sensor: Lane::with_capacity(nodes, sensor),
            gray: Lane::with_capacity(nodes, gray),
            corrupt: Lane::with_capacity(nodes, corrupt),
            any_crash: Vec::new(),
        };
        for event in events {
            let Some(node) = event_node(event) else {
                continue;
            };
            index.close_nodes_before(node);
            let start_s = event.time_s;
            match event.kind {
                FaultKind::NodeCrash { .. } => index.crashes.items.push(start_s),
                FaultKind::NodeRepair { .. } => index.repairs.items.push(start_s),
                FaultKind::SensorDropout { until_s, .. } => {
                    index.sensor.items.push((start_s, until_s, false))
                }
                FaultKind::SensorStuck { until_s, .. } => {
                    index.sensor.items.push((start_s, until_s, true))
                }
                FaultKind::GraySlowdown {
                    slowdown, until_s, ..
                } => index.gray.items.push((start_s, until_s, slowdown)),
                FaultKind::DataCorruption { until_s, .. } => {
                    index.corrupt.items.push((start_s, until_s, ()))
                }
                FaultKind::PowerSpike { .. } | FaultKind::LinkDegraded { .. } => {}
            }
        }
        index.close_nodes_before(nodes);
        // equal crash times are equal values, so this is the event order
        index.any_crash = index.crashes.items.clone();
        index.any_crash.sort_unstable_by(f64::total_cmp);
        index
    }

    /// Ends the run of every node before `node`: what is pushed next
    /// belongs to `node`.
    fn close_nodes_before(&mut self, node: usize) {
        while self.crashes.ends.len() < node {
            self.crashes.ends.push(self.crashes.items.len());
            self.repairs.ends.push(self.repairs.items.len());
            self.sensor.ends.push(self.sensor.items.len());
            self.gray.ends.push(self.gray.items.len());
            self.corrupt.ends.push(self.corrupt.items.len());
        }
    }
}

/// The complete, immutable fault timeline of one simulated run.
///
/// The event list is the record (digest, summary, equality); the
/// queries read a per-node index filed alongside it, once, in
/// [`FaultSchedule::generate`], and cost a binary search each. Every
/// per-node query answers "fault-free node" for a `node` at or past the
/// generated node count: a consumer may run more workers than the
/// schedule was generated for.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    nodes: usize,
    horizon_s: f64,
    /// A pure function of `events`.
    index: TimelineIndex,
}

impl FaultSchedule {
    /// Generates the schedule for `nodes` nodes over `[0, horizon_s)`.
    ///
    /// Deterministic: the same (`config`, `nodes`, `horizon_s`) triple
    /// always produces the identical event list.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_s` is not positive and finite, or if the config
    /// contains non-finite rates.
    pub fn generate(config: &FaultConfig, nodes: usize, horizon_s: f64) -> Self {
        assert!(
            horizon_s > 0.0 && horizon_s.is_finite(),
            "horizon must be positive and finite"
        );
        let mut events: Vec<FaultEvent> = Vec::new();

        // Each (fault class, node) pair draws from its own SplitMix-derived
        // stream so adding a class or a node never perturbs the others.
        let stream = |class: u64, node: u64| -> StdRng {
            StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(class.wrapping_mul(0x2545_F491_4F6C_DD1D))
                    .wrapping_add(node),
            )
        };

        for node in 0..nodes {
            let id = node as u64;
            // crashes: Weibull renewal process with repair downtime
            if config.node_mtbf_s > 0.0 {
                let mut rng = stream(1, id);
                let scale = weibull_scale(config.node_mtbf_s, config.weibull_shape);
                let mut t = 0.0;
                loop {
                    t += weibull_sample(&mut rng, config.weibull_shape, scale);
                    if t >= horizon_s {
                        break;
                    }
                    events.push(FaultEvent {
                        time_s: t,
                        kind: FaultKind::NodeCrash { node },
                    });
                    t += config.repair_time_s;
                    if t >= horizon_s {
                        break;
                    }
                    events.push(FaultEvent {
                        time_s: t,
                        kind: FaultKind::NodeRepair { node },
                    });
                }
            }

            // the window classes; sensor faults draw dropout or stuck-at
            push_windows(
                &mut events,
                horizon_s,
                stream(2, id),
                config.sensor_mtbf_s,
                config.sensor_outage_s,
                |rng, until_s| {
                    if rng.gen_bool(config.stuck_fraction) {
                        FaultKind::SensorStuck { node, until_s }
                    } else {
                        FaultKind::SensorDropout { node, until_s }
                    }
                },
            );
            push_windows(
                &mut events,
                horizon_s,
                stream(3, id),
                config.power_spike_mtbf_s,
                config.power_spike_s,
                |_, until_s| FaultKind::PowerSpike {
                    node,
                    extra_w: config.power_spike_w,
                    until_s,
                },
            );
            push_windows(
                &mut events,
                horizon_s,
                stream(4, id),
                config.gray_mtbf_s,
                config.gray_duration_s,
                |_, until_s| FaultKind::GraySlowdown {
                    node,
                    slowdown: config.gray_slowdown,
                    until_s,
                },
            );
            push_windows(
                &mut events,
                horizon_s,
                stream(6, id),
                config.corrupt_mtbf_s,
                config.corrupt_window_s,
                |_, until_s| FaultKind::DataCorruption { node, until_s },
            );
        }

        // interconnect: one cluster-wide stream
        push_windows(
            &mut events,
            horizon_s,
            stream(5, 0),
            config.link_mtbf_s,
            config.link_outage_s,
            |_, until_s| FaultKind::LinkDegraded {
                factor: config.link_factor,
                until_s,
            },
        );

        // before the sort: the index is filed from the generation order
        let index = TimelineIndex::build(&events, nodes);

        // deterministic global order: time, then node, then class label
        // (events that tie on all three are identical)
        events.sort_unstable_by(|a, b| {
            a.time_s
                .total_cmp(&b.time_s)
                .then_with(|| event_node(a).cmp(&event_node(b)))
                .then_with(|| a.kind.label().cmp(b.kind.label()))
        });

        FaultSchedule {
            events,
            nodes,
            horizon_s,
            index,
        }
    }

    /// Is `node` up at time `t` (not between a crash and its repair)?
    /// A crash or repair at exactly `t` has already happened. A node the
    /// schedule was not generated for is always up.
    pub fn node_alive(&self, node: usize, t: f64) -> bool {
        let crashed = self.index.crashes.of(node).partition_point(|&c| c <= t);
        let repaired = self.index.repairs.of(node).partition_point(|&r| r <= t);
        crashed == repaired
    }

    /// First crash of `node` within `[from_s, to_s)`, if any. `None` for
    /// a node the schedule was not generated for.
    pub fn first_crash_in(&self, node: usize, from_s: f64, to_s: f64) -> Option<f64> {
        let crashes = self.index.crashes.of(node);
        let first = *crashes.get(crashes.partition_point(|&c| c < from_s))?;
        (first < to_s).then_some(first)
    }

    /// The first repair of `node` strictly after `t` — when a node found
    /// dead at `t` rejoins — or `None` if it stays down to the horizon
    /// (repairs at or past the horizon are never scheduled). `None` for a
    /// node the schedule was not generated for.
    pub fn next_repair_after(&self, node: usize, t: f64) -> Option<f64> {
        let repairs = self.index.repairs.of(node);
        repairs.get(repairs.partition_point(|&r| r <= t)).copied()
    }

    /// Crash times of any node within `[from_s, to_s)`, ascending — the
    /// events a coordinated (all-nodes) checkpoint scheme must survive.
    pub fn any_crash_between(&self, from_s: f64, to_s: f64) -> Vec<f64> {
        let crashes = &self.index.any_crash;
        let tail = &crashes[crashes.partition_point(|&c| c < from_s)..];
        tail[..tail.partition_point(|&c| c < to_s)].to_vec()
    }

    /// What the sensor of `node` does at time `t`.
    /// [`SensorEffect::Ok`] for a node the schedule was not generated for.
    pub fn sensor_effect(&self, node: usize, t: f64) -> SensorEffect {
        match active_at(self.index.sensor.of(node), t) {
            Some((since_s, _, true)) => SensorEffect::StuckSince(since_s),
            Some(_) => SensorEffect::Dropped,
            None => SensorEffect::Ok,
        }
    }

    /// Execution slowdown of `node` at time `t`, never below 1.0 (full
    /// speed); 1.0 for a node the schedule was not generated for.
    pub fn slowdown(&self, node: usize, t: f64) -> f64 {
        active_at(self.index.gray.of(node), t).map_or(1.0, |(.., slowdown)| slowdown.max(1.0))
    }

    /// Is a result computed on `node` at time `t` silently bit-flipped?
    /// The serving layer's end-to-end integrity checks consume this.
    /// `false` for a node the schedule was not generated for.
    pub fn corrupted(&self, node: usize, t: f64) -> bool {
        active_at(self.index.corrupt.of(node), t).is_some()
    }

    /// Stable 64-bit digest of the full schedule (FNV-1a over the event
    /// encoding). Two schedules are byte-identical iff digests and
    /// [`FaultSchedule::summary`] strings match — the determinism tests
    /// and the campaign reports both rely on this.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for event in &self.events {
            eat(&event.time_s.to_bits().to_le_bytes());
            eat(event.kind.label().as_bytes());
            eat(&(event_node(event).unwrap_or(usize::MAX) as u64).to_le_bytes());
        }
        hash
    }

    /// Per-class event counts, deterministically formatted.
    pub fn summary(&self) -> String {
        let mut counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for event in &self.events {
            *counts.entry(event.kind.label()).or_default() += 1;
        }
        if counts.is_empty() {
            return "no faults".to_string();
        }
        counts
            .iter()
            .map(|(label, count)| format!("{label}={count}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults over {:.0} s on {} nodes ({})",
            self.events.len(),
            self.horizon_s,
            self.nodes,
            self.summary()
        )
    }
}

/// Appends one window class from its stream: exponential gaps of mean
/// `mtbf_s` (0 disables the class) between windows `duration_s` long,
/// `kind` naming the fault from the stream and the window's end. The
/// next gap starts where the window ends, so the windows of one stream
/// never overlap.
fn push_windows(
    events: &mut Vec<FaultEvent>,
    horizon_s: f64,
    mut rng: StdRng,
    mtbf_s: f64,
    duration_s: f64,
    kind: impl Fn(&mut StdRng, f64) -> FaultKind,
) {
    if mtbf_s <= 0.0 {
        return;
    }
    let mut t = exponential_sample(&mut rng, mtbf_s);
    while t < horizon_s {
        let until_s = t + duration_s;
        let kind = kind(&mut rng, until_s);
        events.push(FaultEvent { time_s: t, kind });
        t = until_s + exponential_sample(&mut rng, mtbf_s);
    }
}

fn event_node(event: &FaultEvent) -> Option<usize> {
    match event.kind {
        FaultKind::NodeCrash { node }
        | FaultKind::NodeRepair { node }
        | FaultKind::SensorDropout { node, .. }
        | FaultKind::SensorStuck { node, .. }
        | FaultKind::PowerSpike { node, .. }
        | FaultKind::GraySlowdown { node, .. }
        | FaultKind::DataCorruption { node, .. } => Some(node),
        FaultKind::LinkDegraded { .. } => None,
    }
}

/// Draws an exponential inter-arrival time with the given mean.
fn exponential_sample(rng: &mut impl Rng, mean_s: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean_s * u.ln()
}

/// Draws a Weibull(k, λ) sample by inversion.
fn weibull_sample(rng: &mut impl Rng, shape: f64, scale: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    scale * (-u.ln()).powf(1.0 / shape)
}

/// Scale λ such that a Weibull(k, λ) has the requested mean:
/// mean = λ·Γ(1 + 1/k).
fn weibull_scale(mean_s: f64, shape: f64) -> f64 {
    assert!(shape > 0.0, "Weibull shape must be positive");
    mean_s / gamma(1.0 + 1.0 / shape)
}

/// Lanczos approximation of Γ(x) for x > 0 (plenty for shape factors).
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    // published g=7, n=9 Lanczos coefficients, kept verbatim
    #[allow(clippy::excessive_precision, clippy::inconsistent_digit_grouping)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // reflection: Γ(x)Γ(1-x) = π / sin(πx)
        return std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x));
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harsh(seed: u64) -> FaultSchedule {
        FaultSchedule::generate(&FaultConfig::exascale(seed, 4.0), 8, 24.0 * 3600.0)
    }

    fn first_crash(schedule: &FaultSchedule) -> (f64, usize) {
        schedule
            .events
            .iter()
            .find_map(|e| match e.kind {
                FaultKind::NodeCrash { node } => Some((e.time_s, node)),
                _ => None,
            })
            .expect("harsh profile crashes")
    }

    /// The O(events) scans the index replaced, kept verbatim as the
    /// oracle the indexed queries are compared against.
    mod scan {
        use super::*;

        pub fn node_alive(s: &FaultSchedule, node: usize, t: f64) -> bool {
            let mut alive = true;
            for event in &s.events {
                if event.time_s > t {
                    break;
                }
                match event.kind {
                    FaultKind::NodeCrash { node: n } if n == node => alive = false,
                    FaultKind::NodeRepair { node: n } if n == node => alive = true,
                    _ => {}
                }
            }
            alive
        }

        pub fn crashes_in(s: &FaultSchedule, node: usize, from_s: f64, to_s: f64) -> Vec<f64> {
            s.events
                .iter()
                .filter(|e| e.time_s >= from_s && e.time_s < to_s)
                .filter_map(|e| match e.kind {
                    FaultKind::NodeCrash { node: n } if n == node => Some(e.time_s),
                    _ => None,
                })
                .collect()
        }

        pub fn any_crash_between(s: &FaultSchedule, from_s: f64, to_s: f64) -> Vec<f64> {
            s.events
                .iter()
                .filter(|e| e.time_s >= from_s && e.time_s < to_s)
                .filter_map(|e| match e.kind {
                    FaultKind::NodeCrash { .. } => Some(e.time_s),
                    _ => None,
                })
                .collect()
        }

        pub fn next_repair_after(s: &FaultSchedule, node: usize, t: f64) -> Option<f64> {
            s.events
                .iter()
                .find(|e| {
                    e.time_s > t && matches!(e.kind, FaultKind::NodeRepair { node: n } if n == node)
                })
                .map(|e| e.time_s)
        }

        pub fn sensor_effect(s: &FaultSchedule, node: usize, t: f64) -> SensorEffect {
            // last wins when windows overlap (later fault supersedes)
            let mut effect = SensorEffect::Ok;
            for event in &s.events {
                if event.time_s > t {
                    break;
                }
                match event.kind {
                    FaultKind::SensorDropout { node: n, until_s } if n == node && t < until_s => {
                        effect = SensorEffect::Dropped;
                    }
                    FaultKind::SensorStuck { node: n, until_s } if n == node && t < until_s => {
                        effect = SensorEffect::StuckSince(event.time_s);
                    }
                    _ => {}
                }
            }
            effect
        }

        pub fn slowdown(s: &FaultSchedule, node: usize, t: f64) -> f64 {
            s.events
                .iter()
                .take_while(|e| e.time_s <= t)
                .filter_map(|e| match e.kind {
                    FaultKind::GraySlowdown {
                        node: n,
                        slowdown,
                        until_s,
                    } if n == node && t < until_s => Some(slowdown),
                    _ => None,
                })
                .fold(1.0, f64::max)
        }

        pub fn corrupted(s: &FaultSchedule, node: usize, t: f64) -> bool {
            s.events
                .iter()
                .take_while(|e| e.time_s <= t)
                .any(|e| match e.kind {
                    FaultKind::DataCorruption { node: n, until_s } => n == node && t < until_s,
                    _ => false,
                })
        }
    }

    #[test]
    fn indexed_queries_match_the_linear_scan() {
        for seed in [71, 73, 79] {
            for nodes in [3usize, 8] {
                let horizon = 8.0 * 3600.0;
                let schedule =
                    FaultSchedule::generate(&FaultConfig::exascale(seed, 4.0), nodes, horizon);
                let summary = schedule.summary();
                assert_eq!(summary.split(' ').count(), 8, "a class is off: {summary}");

                // a coarse grid plus both sides of every event instant
                let mut times: Vec<f64> = (0..200).map(|i| i as f64 * horizon / 199.0).collect();
                for event in &schedule.events {
                    times.extend([event.time_s - 1e-6, event.time_s, event.time_s + 1e-6]);
                }
                times.sort_by(f64::total_cmp);

                // every node, plus one the schedule was not generated for
                for node in 0..=nodes {
                    for &t in &times {
                        assert_eq!(
                            schedule.node_alive(node, t),
                            scan::node_alive(&schedule, node, t),
                            "alive({node}, {t})"
                        );
                        assert_eq!(
                            schedule.sensor_effect(node, t),
                            scan::sensor_effect(&schedule, node, t),
                            "sensor({node}, {t})"
                        );
                        assert_eq!(
                            schedule.slowdown(node, t),
                            scan::slowdown(&schedule, node, t),
                            "slowdown({node}, {t})"
                        );
                        assert_eq!(
                            schedule.corrupted(node, t),
                            scan::corrupted(&schedule, node, t),
                            "corrupted({node}, {t})"
                        );
                        assert_eq!(
                            schedule.next_repair_after(node, t),
                            scan::next_repair_after(&schedule, node, t),
                            "repair({node}, {t})"
                        );
                        // zero-length, sub-microsecond and half-hour windows
                        for to in [t, t + 1e-6, t + 1800.0] {
                            assert_eq!(
                                schedule.first_crash_in(node, t, to),
                                scan::crashes_in(&schedule, node, t, to).first().copied(),
                                "first_crash_in({node}, {t}, {to})"
                            );
                        }
                    }
                }
                // the scans match nothing for that extra node: fault-free
                assert!(schedule.node_alive(nodes, horizon));
                assert_eq!(schedule.sensor_effect(nodes, horizon), SensorEffect::Ok);
                assert_eq!(schedule.slowdown(nodes, horizon), 1.0);
                assert!(!schedule.corrupted(nodes, horizon));
                assert_eq!(schedule.first_crash_in(nodes, 0.0, horizon), None);
                assert_eq!(schedule.next_repair_after(nodes, 0.0), None);

                for pair in times.windows(2) {
                    for (from, to) in [(pair[0], pair[1]), (pair[0], pair[0]), (pair[0], horizon)] {
                        assert_eq!(
                            schedule.any_crash_between(from, to),
                            scan::any_crash_between(&schedule, from, to),
                            "any_crash_between({from}, {to})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn same_seed_identical_schedule() {
        let a = harsh(99);
        let b = harsh(99);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(harsh(1).digest(), harsh(2).digest());
    }

    #[test]
    fn zero_rate_is_fault_free() {
        let schedule = FaultSchedule::generate(&FaultConfig::none(5), 16, 3600.0);
        assert!(schedule.events.is_empty());
        assert_eq!(schedule.summary(), "no faults");
        assert!(schedule.node_alive(3, 1800.0));
        assert_eq!(schedule.sensor_effect(3, 1800.0), SensorEffect::Ok);
        assert_eq!(schedule.slowdown(3, 1800.0), 1.0);
        let rate0 = FaultSchedule::generate(&FaultConfig::exascale(5, 0.0), 16, 3600.0);
        assert!(rate0.events.is_empty(), "rate 0 == disabled");
    }

    #[test]
    fn events_time_ordered() {
        let schedule = harsh(7);
        assert!(
            !schedule.events.is_empty(),
            "harsh profile must produce faults"
        );
        for pair in schedule.events.windows(2) {
            assert!(pair[0].time_s <= pair[1].time_s);
        }
    }

    #[test]
    fn crash_repair_alternate_per_node() {
        let schedule = harsh(11);
        for node in 0..schedule.nodes {
            let mut expect_crash = true;
            for event in &schedule.events {
                match event.kind {
                    FaultKind::NodeCrash { node: n } if n == node => {
                        assert!(expect_crash, "two crashes without repair on {node}");
                        expect_crash = false;
                    }
                    FaultKind::NodeRepair { node: n } if n == node => {
                        assert!(!expect_crash, "repair without crash on {node}");
                        expect_crash = true;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn node_alive_tracks_crash_windows() {
        let schedule = harsh(13);
        let (t, node) = first_crash(&schedule);
        assert!(schedule.node_alive(node, t - 1.0));
        assert!(!schedule.node_alive(node, t + 1.0));
        // the repair (120 s later) brings the node back, unless it
        // crashed again right away
        let back = schedule
            .next_repair_after(node, t)
            .expect("a first crash this early is repaired");
        assert_eq!(back, t + 120.0);
        if schedule.first_crash_in(node, back, back + 1.0).is_none() {
            assert!(schedule.node_alive(node, back));
            assert!(schedule.node_alive(node, back + 1.0));
        }
    }

    #[test]
    fn sensor_effects_cover_windows() {
        let schedule = harsh(17);
        let mut saw_drop = false;
        let mut saw_stuck = false;
        for event in &schedule.events {
            match event.kind {
                FaultKind::SensorDropout { node, until_s } => {
                    saw_drop = true;
                    let mid = (event.time_s + until_s) / 2.0;
                    assert_eq!(schedule.sensor_effect(node, mid), SensorEffect::Dropped);
                }
                FaultKind::SensorStuck { node, until_s } => {
                    saw_stuck = true;
                    let mid = (event.time_s + until_s) / 2.0;
                    assert_eq!(
                        schedule.sensor_effect(node, mid),
                        SensorEffect::StuckSince(event.time_s)
                    );
                }
                _ => {}
            }
        }
        assert!(saw_drop && saw_stuck, "both sensor modes exercised");
    }

    #[test]
    fn gray_slowdowns_report_effects() {
        let schedule = harsh(19);
        let gray = schedule
            .events
            .iter()
            .find_map(|e| match e.kind {
                FaultKind::GraySlowdown { node, slowdown, .. } => Some((e.time_s, node, slowdown)),
                _ => None,
            })
            .expect("gray events scheduled");
        assert_eq!(schedule.slowdown(gray.1, gray.0 + 1.0), gray.2);
    }

    #[test]
    fn mtbf_roughly_respected_for_exponential_shape() {
        let mut config = FaultConfig::none(23);
        config.node_mtbf_s = 1000.0;
        config.weibull_shape = 1.0;
        config.repair_time_s = 0.0;
        let horizon = 2_000_000.0;
        let schedule = FaultSchedule::generate(&config, 1, horizon);
        let crashes = schedule.any_crash_between(0.0, horizon).len() as f64;
        let expected = horizon / 1000.0;
        assert!(
            (crashes - expected).abs() < expected * 0.1,
            "observed {crashes} crashes, expected ~{expected}"
        );
    }

    #[test]
    fn gamma_sanity() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma(2.0) - 1.0).abs() < 1e-9);
        assert!((gamma(5.0) - 24.0).abs() < 1e-6);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_rejected() {
        let _ = FaultSchedule::generate(&FaultConfig::none(1), 4, 0.0);
    }

    #[test]
    fn corruption_windows_are_queryable_and_deterministic() {
        let mut config = FaultConfig::none(31);
        config.corrupt_mtbf_s = 200.0;
        config.corrupt_window_s = 10.0;
        let schedule = FaultSchedule::generate(&config, 4, 3600.0);
        let window = schedule
            .events
            .iter()
            .find_map(|e| match e.kind {
                FaultKind::DataCorruption { node, until_s } => Some((e.time_s, node, until_s)),
                _ => None,
            })
            .expect("corruption windows scheduled");
        let (start, node, until) = window;
        assert!(schedule.corrupted(node, (start + until) / 2.0));
        assert!(!schedule.corrupted(node, start - 1e-6));
        assert!(!schedule.corrupted(node, until), "window end is exclusive");
        let again = FaultSchedule::generate(&config, 4, 3600.0);
        assert_eq!(schedule, again);
        // other classes' streams are untouched by enabling corruption
        let mut crashes_only = FaultConfig::none(31);
        crashes_only.node_mtbf_s = 500.0;
        let mut both = crashes_only.clone();
        both.corrupt_mtbf_s = 200.0;
        let a = FaultSchedule::generate(&crashes_only, 4, 3600.0);
        let b = FaultSchedule::generate(&both, 4, 3600.0);
        assert_eq!(
            a.any_crash_between(0.0, 3600.0),
            b.any_crash_between(0.0, 3600.0)
        );
    }

    #[test]
    fn crash_queries_at_exact_event_timestamps() {
        let schedule = harsh(29);
        let (t, node) = first_crash(&schedule);
        // the from bound is inclusive, the to bound exclusive
        assert_eq!(schedule.first_crash_in(node, t, t + 1e-9), Some(t));
        assert_eq!(schedule.first_crash_in(node, t - 1.0, t), None);
        assert!(schedule.any_crash_between(t, t + 1e-9).contains(&t));
        assert!(!schedule.any_crash_between(t - 1.0, t).contains(&t));
        // a repair at exactly `t` is not "after" `t`
        let repair = schedule.next_repair_after(node, t).expect("repaired");
        assert_ne!(schedule.next_repair_after(node, repair), Some(repair));
        assert_eq!(
            schedule.next_repair_after(node, repair - 1e-9),
            Some(repair)
        );
    }

    #[test]
    fn zero_length_windows_contain_nothing() {
        let schedule = harsh(37);
        let (t, _) = first_crash(&schedule);
        assert!(schedule.any_crash_between(t, t).is_empty());
        for node in 0..schedule.nodes {
            assert_eq!(schedule.first_crash_in(node, t, t), None);
        }
    }

    #[test]
    fn node_alive_at_domain_boundaries() {
        let schedule = harsh(41);
        let horizon = schedule.horizon_s;
        for node in 0..schedule.nodes {
            assert!(schedule.node_alive(node, 0.0), "every node starts alive");
        }
        // at the horizon the answer is still well-defined: dead only if
        // the last crash of the node has no later repair
        for node in 0..schedule.nodes {
            assert_eq!(
                schedule.node_alive(node, horizon),
                scan::node_alive(&schedule, node, f64::INFINITY)
            );
        }
    }
}
