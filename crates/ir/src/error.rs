//! Error type shared by the parser, analyses and interpreter.

use std::fmt;

/// Error produced while parsing, transforming or executing mini-C programs.
///
/// # Examples
///
/// ```
/// use antarex_ir::parse_program;
///
/// let err = parse_program("int f( {").unwrap_err();
/// assert!(err.to_string().contains("parse error"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// The source text failed to parse; carries the span of the offending
    /// token.
    Parse {
        /// 1-based line of the offending token.
        line: u32,
        /// 1-based column of the offending token.
        col: u32,
        /// 1-based exclusive end column of the offending token on `line`.
        /// Equal to `col` for point errors (e.g. end of input).
        end_col: u32,
        /// Human-readable description of what was expected.
        message: String,
    },
    /// A name (function, variable) was not found at runtime or analysis time.
    Unresolved(String),
    /// The interpreter hit a dynamic type mismatch.
    Type(String),
    /// The interpreter exceeded its configured work budget (runaway loop).
    BudgetExceeded {
        /// The configured limit in abstract cost units.
        limit: u64,
    },
    /// The cost counter itself overflowed `u64` — an adversarial cost
    /// model or loop bound tried to wrap the accounting. Raised by the
    /// checked accumulation in [`crate::cost::ExecStats::charge`], so both
    /// execution engines report it identically instead of silently
    /// wrapping the cycle counter.
    CostOverflow,
    /// Generic evaluation failure (division by zero, bad index, ...).
    Eval(String),
    /// A structural edit addressed a node path that does not exist.
    BadPath(String),
}

impl IrError {
    /// Convenience constructor for point parse errors (span of width zero).
    pub(crate) fn parse(line: u32, col: u32, message: impl Into<String>) -> Self {
        IrError::Parse {
            line,
            col,
            end_col: col,
            message: message.into(),
        }
    }

    /// Constructor for parse errors covering a token span
    /// `[col, end_col)` on `line`.
    pub(crate) fn parse_span(
        line: u32,
        col: u32,
        end_col: u32,
        message: impl Into<String>,
    ) -> Self {
        IrError::Parse {
            line,
            col,
            end_col,
            message: message.into(),
        }
    }
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Parse {
                line,
                col,
                end_col,
                message,
            } => {
                if *end_col > col + 1 {
                    write!(f, "parse error at {line}:{col}-{end_col}: {message}")
                } else {
                    write!(f, "parse error at {line}:{col}: {message}")
                }
            }
            IrError::Unresolved(name) => write!(f, "unresolved name `{name}`"),
            IrError::Type(msg) => write!(f, "type error: {msg}"),
            IrError::BudgetExceeded { limit } => {
                write!(f, "execution budget of {limit} cost units exceeded")
            }
            IrError::CostOverflow => {
                write!(
                    f,
                    "cost counter overflowed (adversarial cost model or loop bound)"
                )
            }
            IrError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            IrError::BadPath(msg) => write!(f, "invalid node path: {msg}"),
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = IrError::parse(3, 7, "expected `)`");
        assert_eq!(err.to_string(), "parse error at 3:7: expected `)`");
        let err = IrError::Unresolved("kernel".into());
        assert_eq!(err.to_string(), "unresolved name `kernel`");
    }

    #[test]
    fn spanned_errors_render_the_range() {
        let err = IrError::parse_span(2, 5, 9, "expected type");
        assert_eq!(err.to_string(), "parse error at 2:5-9: expected type");
    }

    #[test]
    fn point_span_renders_like_before() {
        // a one-column token renders without the range suffix
        let err = IrError::parse_span(1, 4, 5, "expected `;`");
        assert_eq!(err.to_string(), "parse error at 1:4: expected `;`");
    }

    #[test]
    fn cost_overflow_displays() {
        assert!(IrError::CostOverflow.to_string().contains("overflow"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<IrError>();
    }
}
