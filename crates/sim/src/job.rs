//! Work units, tasks and jobs.

/// A quantity of work characterized by its roofline demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkUnit {
    /// Floating-point operations to perform.
    pub flops: f64,
    /// Bytes of main-memory traffic.
    pub bytes: f64,
}

impl WorkUnit {
    /// Creates a work unit.
    ///
    /// # Panics
    ///
    /// Panics on negative quantities.
    pub(crate) fn new(flops: f64, bytes: f64) -> Self {
        assert!(flops >= 0.0 && bytes >= 0.0, "work must be non-negative");
        WorkUnit { flops, bytes }
    }

    /// Pure compute work (negligible memory traffic).
    pub fn compute_bound(flops: f64) -> Self {
        WorkUnit::new(flops, flops / 64.0)
    }

    /// Streaming work (negligible arithmetic): `bytes` of traffic with
    /// one flop per 16 bytes.
    pub fn memory_bound(bytes: f64) -> Self {
        WorkUnit::new(bytes / 16.0, bytes)
    }

    /// Work with a given arithmetic intensity (flops per byte).
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not positive.
    pub fn with_intensity(flops: f64, intensity: f64) -> Self {
        assert!(intensity > 0.0, "intensity must be positive");
        WorkUnit::new(flops, flops / intensity)
    }

    /// Splits the work into `n` equal chunks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split(&self, n: usize) -> Vec<WorkUnit> {
        assert!(n > 0, "cannot split into zero chunks");
        let chunk = WorkUnit::new(self.flops / n as f64, self.bytes / n as f64);
        vec![chunk; n]
    }
}

impl std::ops::Add for WorkUnit {
    type Output = WorkUnit;

    fn add(self, rhs: WorkUnit) -> WorkUnit {
        WorkUnit::new(self.flops + rhs.flops, self.bytes + rhs.bytes)
    }
}

/// One schedulable task (e.g. a single ligand docking).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Task identifier.
    pub id: u64,
    /// The work to perform.
    pub work: WorkUnit,
}

/// A batch job as submitted to the cluster scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Job identifier.
    pub id: u64,
    /// Submission time, seconds.
    pub arrival_s: f64,
    /// Nodes requested.
    pub nodes: usize,
    /// Per-node work.
    pub work_per_node: WorkUnit,
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(id: u64, arrival_s: f64, nodes: usize, work_per_node: WorkUnit) -> Self {
        assert!(nodes > 0, "a job needs at least one node");
        Job {
            id,
            arrival_s,
            nodes,
            work_per_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_classification() {
        let intensity = |work: WorkUnit| work.flops / work.bytes;
        assert!(intensity(WorkUnit::compute_bound(1e9)) > 10.0);
        assert!(intensity(WorkUnit::memory_bound(1e9)) < 0.1);
        assert_eq!(intensity(WorkUnit::with_intensity(1e9, 4.0)), 4.0);
    }

    #[test]
    fn split_conserves_work() {
        let w = WorkUnit::new(100.0, 40.0);
        let parts = w.split(8);
        assert_eq!(parts.len(), 8);
        let total = parts
            .into_iter()
            .fold(WorkUnit::new(0.0, 0.0), |a, b| a + b);
        assert!((total.flops - 100.0).abs() < 1e-9);
        assert!((total.bytes - 40.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_work_rejected() {
        let _ = WorkUnit::new(-1.0, 0.0);
    }
}
