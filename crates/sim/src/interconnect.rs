//! Cluster interconnect: α-β point-to-point and collective models.
//!
//! The paper's platforms run Intel TrueScale InfiniBand (§VI). Multi-node
//! jobs pay communication that grows with scale, which is what bends the
//! use-case scaling curves away from ideal in the exascale extrapolation
//! (experiment C5). The model is the classical α-β (latency-bandwidth)
//! one, with log-tree collectives.

/// An α-β interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Per-message latency (α), seconds.
    pub latency_s: f64,
    /// Link bandwidth, bytes per second.
    pub bandwidth_bps: f64,
}

impl Interconnect {
    /// A TrueScale-class QDR InfiniBand fabric: ~1.5 µs latency,
    /// ~3.2 GB/s effective per-link bandwidth.
    pub fn truescale_qdr() -> Self {
        Interconnect {
            latency_s: 1.5e-6,
            bandwidth_bps: 3.2e9,
        }
    }

    /// Point-to-point transfer time for a message of `bytes`.
    pub(crate) fn p2p_s(&self, bytes: f64) -> f64 {
        self.latency_s + bytes.max(0.0) / self.bandwidth_bps
    }

    /// Allreduce of `bytes` across `ranks` (recursive-doubling shape:
    /// `2·log₂(n)` message steps carrying the payload).
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero.
    pub(crate) fn allreduce_s(&self, ranks: usize, bytes: f64) -> f64 {
        assert!(ranks > 0, "need at least one rank");
        if ranks == 1 {
            return 0.0;
        }
        let steps = (ranks as f64).log2().ceil();
        2.0 * steps * self.p2p_s(bytes)
    }

    /// Wall-clock time of an iterative bulk-synchronous job on `ranks`
    /// nodes: per-iteration compute divided across ranks, plus one
    /// allreduce of `reduce_bytes` per iteration. This is the scaling
    /// shape of both use cases (docking reduces hit lists; navigation
    /// servers exchange traffic state).
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero or `per_iter_compute_s` is negative.
    pub fn bsp_time_s(
        &self,
        ranks: usize,
        iterations: u64,
        per_iter_compute_s: f64,
        reduce_bytes: f64,
    ) -> f64 {
        assert!(ranks > 0, "need at least one rank");
        assert!(
            per_iter_compute_s >= 0.0,
            "compute time must be non-negative"
        );
        let per_iter = per_iter_compute_s / ranks as f64 + self.allreduce_s(ranks, reduce_bytes);
        per_iter * iterations as f64
    }

    /// Parallel efficiency of the BSP job at `ranks` vs one rank.
    pub fn bsp_efficiency(
        &self,
        ranks: usize,
        iterations: u64,
        per_iter_compute_s: f64,
        reduce_bytes: f64,
    ) -> f64 {
        let serial = self.bsp_time_s(1, iterations, per_iter_compute_s, reduce_bytes);
        let parallel = self.bsp_time_s(ranks, iterations, per_iter_compute_s, reduce_bytes);
        serial / (parallel * ranks as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_latency_and_bandwidth_regimes() {
        let net = Interconnect::truescale_qdr();
        // tiny message: latency-dominated
        let tiny = net.p2p_s(8.0);
        assert!((tiny - net.latency_s).abs() / net.latency_s < 0.01);
        // huge message: bandwidth-dominated
        let huge = net.p2p_s(3.2e9);
        assert!((huge - 1.0).abs() < 0.01);
    }

    #[test]
    fn collectives_grow_logarithmically() {
        let net = Interconnect::truescale_qdr();
        assert_eq!(net.allreduce_s(1, 1e6), 0.0);
        assert!(net.allreduce_s(64, 1e6) > net.allreduce_s(8, 1e6));
    }

    #[test]
    fn bsp_scaling_has_a_knee() {
        let net = Interconnect::truescale_qdr();
        // 1 s of compute per iteration, 1 MB allreduce
        let t1 = net.bsp_time_s(1, 100, 1.0, 1e6);
        let t64 = net.bsp_time_s(64, 100, 1.0, 1e6);
        let t4096 = net.bsp_time_s(4096, 100, 1.0, 1e6);
        assert!(t64 < t1 / 20.0, "64 ranks speed up well");
        // at 4096 ranks communication dominates: adding ranks stops helping
        assert!(t4096 > t64 / 64.0 * 4.0, "communication bends the curve");
        // efficiency degrades monotonically
        let e = |n| net.bsp_efficiency(n, 100, 1.0, 1e6);
        assert!(e(8) > e(64));
        assert!(e(64) > e(1024));
        assert!(e(8) <= 1.0 + 1e-9);
    }

    #[test]
    fn communication_free_job_scales_ideally() {
        let net = Interconnect::truescale_qdr();
        let e = net.bsp_efficiency(256, 10, 1.0, 0.0);
        // only barrier-free allreduce latency remains (zero bytes still
        // pays alpha): near-ideal but not perfect
        assert!(e > 0.99, "efficiency {e}");
    }
}
