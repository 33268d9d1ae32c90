//! Scalar types of the mini-C language, including custom-precision floats.
//!
//! Custom mantissa widths are the hook used by `antarex-precision`: the
//! interpreter rounds every store to a variable's declared precision, so
//! lowering a declaration from [`Type::F64`] to e.g. `Type::float_custom(18)`
//! observably trades result quality for (modelled) energy, as in the paper's
//! precision-autotuning work package.

use std::fmt;

/// A scalar or array-element type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer (mini-C `int` and `long`).
    Int,
    /// IEEE-754 binary64 (`double`), 52 explicit mantissa bits.
    F64,
    /// IEEE-754 binary32 (`float`), 23 explicit mantissa bits.
    F32,
    /// Emulated float with a custom number of explicit mantissa bits
    /// (1..=52); exponent range is that of binary64.
    FCustom(u8),
    /// String (only for instrumentation literals).
    Str,
}

impl Type {
    /// Creates a custom-precision float type.
    ///
    /// # Panics
    ///
    /// Panics if `mantissa_bits` is 0 or greater than 52.
    pub fn float_custom(mantissa_bits: u8) -> Self {
        assert!(
            (1..=52).contains(&mantissa_bits),
            "mantissa bits must be in 1..=52, got {mantissa_bits}"
        );
        Type::FCustom(mantissa_bits)
    }

    /// Returns `true` for any floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, Type::F64 | Type::F32 | Type::FCustom(_))
    }

    /// Explicit mantissa bits for float types, `None` otherwise.
    pub fn mantissa_bits(self) -> Option<u8> {
        match self {
            Type::F64 => Some(52),
            Type::F32 => Some(23),
            Type::FCustom(bits) => Some(bits),
            Type::Int | Type::Str => None,
        }
    }

    /// Rounds `x` to this type's precision (identity for non-floats).
    ///
    /// Uses round-to-nearest-even on the mantissa, mirroring what storing to
    /// a narrower hardware format would do. Exponent overflow/underflow is
    /// not modelled beyond what binary64 itself does, which is sufficient
    /// for precision-tuning experiments on well-scaled kernels.
    pub fn quantize(self, x: f64) -> f64 {
        match self.mantissa_bits() {
            None | Some(52) => x,
            Some(bits) => quantize_mantissa(x, bits),
        }
    }
}

/// Rounds `x` to `bits` explicit mantissa bits (round-to-nearest-even).
///
/// Branch-free on the data: adding `half - 1` plus the kept mantissa's
/// lowest bit carries into that bit exactly when the dropped remainder
/// is above half, or at half with an odd kept mantissa; the mask then
/// drops the remainder. A carry out of the mantissa bumps the exponent,
/// so the largest finite values round to infinity, and zeros and
/// subnormals need no special case. Infinities and NaNs (exponent all
/// ones) are selected through unchanged, payload included. The
/// interpreter, the VM's generic tier, its native traces and argument
/// copy-in all round through this one function.
pub fn quantize_mantissa(x: f64, bits: u8) -> f64 {
    debug_assert!((1..=52).contains(&bits));
    if bits >= 52 {
        return x;
    }
    const EXP_MASK: u64 = 0x7ff0_0000_0000_0000;
    let shift = 52 - u32::from(bits);
    let raw = x.to_bits();
    let lsb = (raw >> shift) & 1;
    // wrapping: only a NaN's add can pass `u64::MAX`, and the select
    // below discards it
    let rounded = raw.wrapping_add((1u64 << (shift - 1)) - 1 + lsb) & !((1u64 << shift) - 1);
    // all ones when `x` is finite, zero for an infinity or a NaN
    let finite = 0u64.wrapping_sub(u64::from(raw & EXP_MASK != EXP_MASK));
    f64::from_bits((rounded & finite) | (raw & !finite))
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::F64 => write!(f, "double"),
            Type::F32 => write!(f, "float"),
            Type::FCustom(bits) => write!(f, "float{bits}"),
            Type::Str => write!(f, "char*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_full_precision_is_identity() {
        for x in [0.1, -3.75, 1e300, 1e-300, 0.0] {
            assert_eq!(Type::F64.quantize(x), x);
        }
    }

    #[test]
    fn quantize_f32_matches_hardware_float() {
        for x in [0.1, -std::f64::consts::PI, 12345.6789, 1e-7, 2.5e10] {
            assert_eq!(Type::F32.quantize(x), f64::from(x as f32));
        }
    }

    #[test]
    fn quantize_preserves_specials() {
        assert!(Type::FCustom(8).quantize(f64::NAN).is_nan());
        assert_eq!(Type::FCustom(8).quantize(f64::INFINITY), f64::INFINITY);
        assert_eq!(Type::FCustom(8).quantize(-0.0), -0.0);
    }

    #[test]
    fn fewer_bits_means_no_smaller_error() {
        let x = std::f64::consts::PI;
        let mut prev_err = 0.0f64;
        for bits in (4..=52).rev() {
            let err = (Type::FCustom(bits).quantize(x) - x).abs();
            assert!(err >= prev_err, "error shrank when dropping to {bits} bits");
            prev_err = err;
        }
    }

    #[test]
    fn quantize_exactly_representable_is_identity() {
        // 1.5 = 1.1b needs one mantissa bit.
        assert_eq!(Type::FCustom(1).quantize(1.5), 1.5);
        assert_eq!(Type::FCustom(2).quantize(1.25), 1.25);
    }

    #[test]
    fn round_to_nearest_even_halfway() {
        // With 1 mantissa bit, representable values near 1.0: 1.0, 1.5, 2.0.
        // 1.25 is halfway between 1.0 and 1.5 -> ties to even mantissa (1.0).
        assert_eq!(quantize_mantissa(1.25, 1), 1.0);
        // 1.75 is halfway between 1.5 and 2.0 -> ties to even (2.0).
        assert_eq!(quantize_mantissa(1.75, 1), 2.0);
    }

    /// The branchy rounding `quantize_mantissa` replaced: the oracle the
    /// branch-free version must match bit for bit.
    fn quantize_mantissa_branchy(x: f64, bits: u8) -> f64 {
        if bits >= 52 || !x.is_finite() || x == 0.0 {
            return x;
        }
        let shift = 52 - u32::from(bits);
        let raw = x.to_bits();
        let half = 1u64 << (shift - 1);
        let mask = !((1u64 << shift) - 1);
        let truncated = raw & mask;
        let remainder = raw & !mask;
        let rounded = if remainder > half || (remainder == half && (truncated >> shift) & 1 == 1) {
            truncated.wrapping_add(1u64 << shift)
        } else {
            truncated
        };
        f64::from_bits(rounded)
    }

    fn assert_matches_oracle(raw: u64, bits: u8) {
        let x = f64::from_bits(raw);
        assert_eq!(
            quantize_mantissa(x, bits).to_bits(),
            quantize_mantissa_branchy(x, bits).to_bits(),
            "x = {raw:#018x}, {bits} bits"
        );
    }

    #[test]
    fn branch_free_rounding_matches_the_branchy_oracle() {
        const SIGN: u64 = 1 << 63;
        const EXP: u64 = 0x7ff0_0000_0000_0000;
        let one = 1.0f64.to_bits();
        for bits in 1..=51u8 {
            let shift = 52 - u32::from(bits);
            let ulp = 1u64 << shift;
            let half = ulp >> 1;
            let mut cases = vec![
                // ties: even kept mantissa stays, odd rounds up
                one | half,
                one | ulp | half,
                // just either side of a tie
                one | (half - 1),
                one | ulp | (half + 1),
                // a round-up that carries into the exponent
                one | ((1 << 52) - 1),
                // the largest finite value rounds to infinity; with the
                // remainder below half it stays finite
                f64::MAX.to_bits(),
                (f64::MAX.to_bits() & !(ulp - 1)) | (half - 1),
                // subnormals, their ties and their carry into the normals
                1,
                half,
                half | ulp,
                (1u64 << 52) - 1,
                f64::MIN_POSITIVE.to_bits() - 1,
                // zeros and infinities
                0,
                EXP,
                // NaNs: quiet, signalling, payloads all over the mantissa
                f64::NAN.to_bits(),
                EXP | 1,
                EXP | half,
                EXP | ((1 << 52) - 1),
            ];
            cases.extend(cases.clone().into_iter().map(|raw| raw | SIGN));
            for raw in cases {
                assert_matches_oracle(raw, bits);
            }
        }
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(
            quantize_mantissa(nan, 8).to_bits(),
            nan.to_bits(),
            "payload kept"
        );
        assert_eq!(quantize_mantissa(f64::MAX, 12), f64::INFINITY);
        assert_eq!(quantize_mantissa(-f64::MAX, 12), f64::NEG_INFINITY);
        // seeded random bit patterns (SplitMix64), each at every width
        let mut state = 2016u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            for bits in 1..=51u8 {
                assert_matches_oracle(z, bits);
            }
        }
    }

    #[test]
    #[should_panic(expected = "mantissa bits")]
    fn custom_zero_bits_rejected() {
        let _ = Type::float_custom(0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::F64.to_string(), "double");
        assert_eq!(Type::FCustom(10).to_string(), "float10");
    }
}
