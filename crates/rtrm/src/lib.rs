//! # antarex-rtrm — runtime resource & power management
//!
//! Implements the ANTAREX RTRM/RTPM work package (Silvano et al., DATE
//! 2016, §V): "scalable and hierarchical optimal control-loops capable of
//! dynamically leveraging the control knobs together with classical
//! performance/energy control knobs (job dispatching, resource management
//! and DVFS) at different time scale ... to always operate the
//! supercomputer and each application at the most energy-efficient and
//! thermally-safe point."
//!
//! * [`governor`] — DVFS governors: faithful re-implementations of the
//!   Linux `performance`, `powersave`, `ondemand` and `conservative`
//!   policies (the paper's baseline: "the default frequency selection of
//!   the Linux OS power governor"), plus the ANTAREX energy-optimal
//!   per-workload policy;
//! * [`powercap`] — RAPL-style node power capping and cluster-level
//!   budget distribution;
//! * [`scheduler`] — FIFO and EASY-backfilling batch scheduling over the
//!   simulated cluster;
//! * [`replay`] — a batch schedule executed on the simulated nodes;
//! * [`energy_sched`] — energy-aware per-job frequencies under a power cap;
//! * [`dispatch`] — task-pool dispatch strategies for malleable workloads
//!   (static partition, dynamic self-scheduling, heterogeneity-aware) —
//!   the knobs of the drug-discovery use case;
//! * [`thermal_ctrl`] — the thermally-safe operating point: junction
//!   throttling plus the MS3-style "do less when it's too hot" admission
//!   policy;
//! * [`checkpoint`] — coordinated checkpoint/restart with a tunable
//!   interval (Daly-optimal baseline) for the resiliency experiments;
//! * [`cluster_ctrl`] — the hierarchical control loop, fault-tolerant at
//!   cluster scale: a facility budget tracking ambient cooling
//!   efficiency, split by demand across sensor-hardened per-node region
//!   cappers, with checkpoint-based requeue on node crashes;
//! * [`campaign`] — that loop run whole: a cluster serving a batch queue
//!   through a fault storm and a heat wave, one profile per defence;
//! * `error` — the typed `RtrmError` returned by the non-panicking
//!   control-plane APIs.

pub mod campaign;
pub mod checkpoint;
pub mod cluster_ctrl;
pub mod dispatch;
pub mod energy_sched;
pub(crate) mod error;
pub mod governor;
pub mod powercap;
pub mod replay;
pub mod scheduler;
pub mod thermal_ctrl;

#[cfg(test)]
mod scan_oracles;

/// 64-bit FNV-1a over the little-endian bytes of `u64` words (an `f64`
/// by its IEEE bits): the one fold behind [`powercap::split_digest`] and
/// the campaign's digest.
struct Fnv(u64);

impl Fnv {
    const OFFSET: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }
}
