//! Abstract cost model of the interpreter.
//!
//! The model plays the role of hardware performance counters in the real
//! ANTAREX flow: every executed operation accrues *cost units* (think
//! issue slots on a simple in-order core), plus FLOP and memory-operation
//! counts that the platform simulator converts into time and energy.
//! Costs are deliberately simple but have the two properties autotuning
//! needs: they are *monotone* in work performed, and they expose the
//! overheads the paper's transformations remove (loop control for
//! unrolling, call dispatch for specialization).
//!
//! Accumulation is overflow-guarded: the cost counter accrues through
//! [`ExecStats::charge`], which returns [`IrError::CostOverflow`] instead
//! of wrapping when an adversarial cost model or loop bound would
//! overflow `u64`, and the event counters saturate. Both execution
//! engines (the tree-walking interpreter and the bytecode VM) go through
//! the same entry points, so they fail identically.

use crate::error::IrError;

/// Per-operation cost table, in abstract cost units.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Integer add/sub/compare/logic.
    pub int_op: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide/remainder.
    pub int_div: u64,
    /// Floating add/sub/compare.
    pub float_op: u64,
    /// Floating multiply.
    pub float_mul: u64,
    /// Floating divide.
    pub float_div: u64,
    /// Array element load or store.
    pub mem_op: u64,
    /// Scalar variable read/write (register-like).
    pub reg_op: u64,
    /// Per-iteration loop control overhead (condition, step, branch).
    pub loop_overhead: u64,
    /// Function call overhead (frame setup, dispatch).
    pub call_overhead: u64,
    /// Cost of an intrinsic/host call (instrumentation overhead).
    pub host_call: u64,
}

impl CostModel {
    /// The default model: latencies loosely modelled on a simple in-order
    /// core (integer ALU 1, FP add 3, FP mul 5, divides ~20, memory 4).
    pub fn new() -> Self {
        CostModel {
            int_op: 1,
            int_mul: 3,
            int_div: 20,
            float_op: 3,
            float_mul: 5,
            float_div: 20,
            mem_op: 4,
            reg_op: 0,
            loop_overhead: 2,
            call_overhead: 12,
            host_call: 25,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregate execution statistics returned by the interpreter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Total abstract cost units accrued.
    pub cost: u64,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Precision-weighted FP energy: each flop contributes
    /// `(mantissa_bits / 52)²` — multiplier energy grows roughly
    /// quadratically with operand width. A flop computed for a
    /// full-precision destination contributes 1.0; one feeding a `float10`
    /// variable contributes ≈ 0.037. This is the signal precision
    /// autotuning optimizes.
    pub flop_energy: f64,
    /// Array loads + stores performed.
    pub mem_ops: u64,
    /// Function calls executed (mini-C functions).
    pub calls: u64,
    /// Host (intrinsic) calls executed.
    pub host_calls: u64,
    /// Loop iterations executed.
    pub loop_iters: u64,
}

impl ExecStats {
    /// Adds another statistics record into this one (saturating — merging
    /// reports never panics or wraps, even near the counter ceiling).
    pub fn merge(&mut self, other: &ExecStats) {
        self.cost = self.cost.saturating_add(other.cost);
        self.flops = self.flops.saturating_add(other.flops);
        self.flop_energy += other.flop_energy;
        self.mem_ops = self.mem_ops.saturating_add(other.mem_ops);
        self.calls = self.calls.saturating_add(other.calls);
        self.host_calls = self.host_calls.saturating_add(other.host_calls);
        self.loop_iters = self.loop_iters.saturating_add(other.loop_iters);
    }

    /// Accrues `amount` cost units, failing with
    /// [`IrError::CostOverflow`] instead of wrapping. Every cost charge in
    /// both execution engines routes through here so an adversarial cost
    /// model (e.g. `u64::MAX` per op) produces a typed error rather than
    /// a silently reset counter.
    ///
    /// # Errors
    ///
    /// [`IrError::CostOverflow`] when the counter would exceed `u64::MAX`.
    #[inline]
    pub fn charge(&mut self, amount: u64) -> Result<(), IrError> {
        self.cost = self.cost.checked_add(amount).ok_or(IrError::CostOverflow)?;
        Ok(())
    }

    /// Counts `n` floating-point operations whose destination has
    /// precision-energy weight `unit` (see [`ExecStats::flop_energy`]).
    /// The flop counter saturates; the energy sum is a single `f64`
    /// addition of `n · unit`, matching the interpreter's historical
    /// accumulation order bit-for-bit.
    #[inline]
    pub fn count_flops(&mut self, n: u64, unit: f64) {
        self.flops = self.flops.saturating_add(n);
        self.flop_energy += n as f64 * unit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_orders_latencies_sensibly() {
        let m = CostModel::new();
        assert!(m.int_op < m.int_mul);
        assert!(m.int_mul < m.int_div);
        assert!(m.float_op < m.float_mul);
        assert!(m.float_mul < m.float_div);
        assert!(m.call_overhead > m.loop_overhead);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ExecStats {
            cost: 10,
            flops: 2,
            flop_energy: 2.0,
            mem_ops: 1,
            calls: 1,
            host_calls: 0,
            loop_iters: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.cost, 20);
        assert_eq!(a.loop_iters, 10);
    }

    #[test]
    fn charge_overflows_to_typed_error() {
        let mut s = ExecStats::default();
        s.charge(u64::MAX - 1).unwrap();
        assert_eq!(s.charge(2), Err(IrError::CostOverflow));
        // the counter is left at its pre-overflow value, not wrapped
        assert_eq!(s.cost, u64::MAX - 1);
        s.charge(1).unwrap();
        assert_eq!(s.cost, u64::MAX);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = ExecStats {
            cost: u64::MAX - 5,
            loop_iters: u64::MAX,
            ..ExecStats::default()
        };
        a.merge(&ExecStats {
            cost: 100,
            loop_iters: 3,
            ..ExecStats::default()
        });
        assert_eq!(a.cost, u64::MAX);
        assert_eq!(a.loop_iters, u64::MAX);
    }

    #[test]
    fn count_flops_matches_bulk_accumulation() {
        let mut a = ExecStats::default();
        a.count_flops(4, 0.25);
        assert_eq!(a.flops, 4);
        assert_eq!(a.flop_energy, 1.0);
        let mut b = ExecStats {
            flops: u64::MAX,
            ..ExecStats::default()
        };
        b.count_flops(2, 1.0);
        assert_eq!(b.flops, u64::MAX);
    }
}
