//! The docking campaign: library → scores, plus the platform mapping.
//!
//! A campaign both *computes* real docking scores (so quality is
//! measurable) and *describes* its computational demand as
//! [`antarex_sim::job::Task`]s (so the platform simulator and the
//! RTRM dispatch strategies can execute it at scale). The `poses` knob
//! trades screening quality for throughput — the application-level knob
//! the ANTAREX autotuner manages.

use super::molecule::{Ligand, Pocket};
use super::scoring::{dock_ligand, estimated_flops, DockingScore};
use antarex_sim::job::{Task, WorkUnit};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A configured screening campaign.
#[derive(Debug, Clone)]
pub struct DockingCampaign {
    library: Vec<Ligand>,
    pocket: Pocket,
    poses: usize,
    seed: u64,
}

/// Outcome of running a campaign.
#[derive(Debug, Clone)]
pub struct DockingResult {
    /// Per-ligand scores.
    pub scores: Vec<DockingScore>,
    /// Total atom–sphere interactions evaluated.
    pub total_interactions: u64,
}

impl DockingResult {
    /// Identifiers of the `n` best-scoring ligands (the screening hits).
    pub fn top_hits(&self, n: usize) -> Vec<u64> {
        let mut ranked: Vec<&DockingScore> = self.scores.iter().collect();
        ranked.sort_by(|a, b| a.best_score.total_cmp(&b.best_score));
        ranked.iter().take(n).map(|s| s.ligand_id).collect()
    }

    /// Fraction of `reference` hits recovered in this result's top-`n` —
    /// the screening-quality metric degraded by reducing `poses`.
    pub fn hit_overlap(&self, reference: &DockingResult, n: usize) -> f64 {
        let mine = self.top_hits(n);
        let theirs = reference.top_hits(n);
        if theirs.is_empty() {
            return 1.0;
        }
        let hits = theirs.iter().filter(|id| mine.contains(id)).count();
        hits as f64 / theirs.len() as f64
    }
}

impl DockingCampaign {
    /// Creates a campaign over a library and pocket with the given pose
    /// count (the quality knob).
    ///
    /// # Panics
    ///
    /// Panics if `poses` is zero.
    pub fn new(library: Vec<Ligand>, pocket: Pocket, poses: usize, seed: u64) -> Self {
        assert!(poses > 0, "need at least one pose");
        DockingCampaign {
            library,
            pocket,
            poses,
            seed,
        }
    }

    /// Actually computes every docking score (deterministic per seed:
    /// each ligand gets an independent RNG stream).
    pub fn run(&self) -> DockingResult {
        let mut scores = Vec::with_capacity(self.library.len());
        let mut total = 0;
        for ligand in &self.library {
            let mut rng = StdRng::seed_from_u64(self.seed ^ (ligand.id.wrapping_mul(0x9e37_79b9)));
            let score = dock_ligand(ligand, &self.pocket, self.poses, &mut rng);
            total += score.interactions;
            scores.push(score);
        }
        DockingResult {
            scores,
            total_interactions: total,
        }
    }

    /// Describes the campaign as platform tasks (one per ligand), in
    /// library order — this is what the dispatch experiments execute on
    /// the simulated cluster. Docking is compute-heavy: intensity ≈ 12
    /// flops/byte.
    pub fn as_tasks(&self) -> Vec<Task> {
        self.library
            .iter()
            .map(|ligand| Task {
                id: ligand.id,
                work: WorkUnit::with_intensity(
                    estimated_flops(ligand, &self.pocket, self.poses),
                    12.0,
                ),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docking::molecule::{generate_library, generate_pocket};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn campaign(poses: usize) -> DockingCampaign {
        let mut rng = StdRng::seed_from_u64(7);
        let pocket = generate_pocket(25, &mut rng);
        let library = generate_library(60, 20, &mut rng);
        DockingCampaign::new(library, pocket, poses, 99)
    }

    #[test]
    fn run_is_deterministic() {
        let c = campaign(8);
        let a = c.run();
        let b = c.run();
        assert_eq!(a.scores.len(), 60);
        assert_eq!(a.scores[5].best_score, b.scores[5].best_score);
    }

    #[test]
    fn tasks_mirror_library_imbalance() {
        let c = campaign(8);
        let tasks = c.as_tasks();
        assert_eq!(tasks.len(), 60);
        let min = tasks
            .iter()
            .map(|t| t.work.flops)
            .fold(f64::INFINITY, f64::min);
        let max = tasks.iter().map(|t| t.work.flops).fold(0.0, f64::max);
        assert!(max / min > 3.0, "imbalance {}x", max / min);
    }

    #[test]
    fn pose_knob_trades_quality_for_work() {
        let full = campaign(64).run();
        let cheap = campaign(4).run();
        assert!(cheap.total_interactions < full.total_interactions / 10);
        let overlap = cheap.hit_overlap(&full, 10);
        // fewer poses lose some hits but not everything
        assert!(overlap >= 0.2, "overlap {overlap}");
        // full self-overlap is perfect
        assert_eq!(full.hit_overlap(&full, 10), 1.0);
    }

    #[test]
    fn more_poses_improve_or_match_quality() {
        let full = campaign(64).run();
        let mid = campaign(24).run();
        let low = campaign(4).run();
        let mid_overlap = mid.hit_overlap(&full, 10);
        let low_overlap = low.hit_overlap(&full, 10);
        assert!(
            mid_overlap >= low_overlap - 0.101,
            "mid {mid_overlap} vs low {low_overlap}"
        );
    }

    #[test]
    fn top_hits_are_sorted_by_score() {
        let result = campaign(8).run();
        let hits = result.top_hits(5);
        assert_eq!(hits.len(), 5);
        let score_of = |id: u64| {
            result
                .scores
                .iter()
                .find(|s| s.ligand_id == id)
                .unwrap()
                .best_score
        };
        for pair in hits.windows(2) {
            assert!(score_of(pair[0]) <= score_of(pair[1]));
        }
    }
}
