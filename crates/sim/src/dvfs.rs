//! DVFS: P-states (frequency/voltage pairs).
//!
//! P-states are the classical performance/energy knob the paper's RTRM
//! leverages (§V: "classical performance/energy control knobs (job
//! dispatching, resource management and DVFS)"). Voltage scales roughly
//! linearly with frequency in the DVFS region, so dynamic power grows
//! ≈ f³ while compute-bound runtime shrinks ≈ 1/f — the tension that
//! creates a non-trivial energy-optimal frequency.

/// One performance state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// Supply voltage in volts.
    pub voltage: f64,
}

/// An ordered table of P-states, slowest first.
#[derive(Debug, Clone, PartialEq)]
pub struct PStateTable {
    states: Vec<PState>,
}

impl PStateTable {
    /// Builds a table from explicit states.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or frequencies are not strictly
    /// increasing.
    pub(crate) fn new(states: Vec<PState>) -> Self {
        assert!(!states.is_empty(), "need at least one P-state");
        assert!(
            states.windows(2).all(|w| w[0].freq_ghz < w[1].freq_ghz),
            "P-states must be sorted by increasing frequency"
        );
        PStateTable { states }
    }

    /// A Haswell-like table: 1.2–3.0 GHz in 0.2 GHz steps with linear
    /// voltage scaling 0.75–1.25 V (the shape of the paper's Xeon E5 v3
    /// platforms).
    pub(crate) fn xeon_haswell() -> Self {
        let mut states = Vec::new();
        let steps = 10;
        for i in 0..steps {
            let t = i as f64 / (steps - 1) as f64;
            states.push(PState {
                freq_ghz: 1.2 + t * (3.0 - 1.2),
                voltage: 0.75 + t * (1.25 - 0.75),
            });
        }
        PStateTable::new(states)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the table is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state at `index` (0 = slowest).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn state(&self, index: usize) -> PState {
        self.states[index]
    }

    /// Index of the fastest state.
    pub fn max_index(&self) -> usize {
        self.states.len() - 1
    }

    /// The fastest state.
    pub fn fastest(&self) -> PState {
        self.states[self.max_index()]
    }

    /// The slowest state.
    pub(crate) fn slowest(&self) -> PState {
        self.states[0]
    }

    /// Index of the state with frequency closest to `freq_ghz`.
    pub fn nearest(&self, freq_ghz: f64) -> usize {
        self.states
            .iter()
            .enumerate()
            .min_by(|a, b| {
                (a.1.freq_ghz - freq_ghz)
                    .abs()
                    .total_cmp(&(b.1.freq_ghz - freq_ghz).abs())
            })
            .map(|(i, _)| i)
            .expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_table_shape() {
        let table = PStateTable::xeon_haswell();
        assert_eq!(table.len(), 10);
        assert!((table.slowest().freq_ghz - 1.2).abs() < 1e-9);
        assert!((table.fastest().freq_ghz - 3.0).abs() < 1e-9);
        assert!(table.slowest().voltage < table.fastest().voltage);
    }

    #[test]
    fn nearest_lookup() {
        let table = PStateTable::xeon_haswell();
        assert_eq!(table.nearest(0.0), 0);
        assert_eq!(table.nearest(99.0), table.max_index());
        let idx = table.nearest(2.0);
        assert!((table.state(idx).freq_ghz - 2.0).abs() <= 0.11);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_states_rejected() {
        let _ = PStateTable::new(vec![
            PState {
                freq_ghz: 2.0,
                voltage: 1.0,
            },
            PState {
                freq_ghz: 1.0,
                voltage: 0.8,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_table_rejected() {
        let _ = PStateTable::new(vec![]);
    }
}
