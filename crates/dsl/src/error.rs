//! Error type of the DSL front end and weaver.

use antarex_ir::IrError;
use std::fmt;

/// Error produced while parsing or executing aspects.
#[derive(Debug, Clone, PartialEq)]
pub enum DslError {
    /// Syntax error in aspect source.
    Parse {
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
        /// What went wrong.
        message: String,
    },
    /// An aspect, variable or action name could not be resolved.
    Unresolved(String),
    /// A DSL expression evaluated to an unusable value.
    Eval(String),
    /// An action failed while transforming the program.
    Action {
        /// The action name (`LoopUnroll`, `Specialize`, ...).
        action: String,
        /// Failure description.
        message: String,
    },
    /// Underlying IR error (template parsing, path resolution, ...).
    Ir(IrError),
}

impl DslError {
    /// Convenience constructor for parse errors.
    pub(crate) fn parse(line: u32, col: u32, message: impl Into<String>) -> Self {
        DslError::Parse {
            line,
            col,
            message: message.into(),
        }
    }

    /// Convenience constructor for action failures.
    pub(crate) fn action(action: impl Into<String>, message: impl fmt::Display) -> Self {
        DslError::Action {
            action: action.into(),
            message: message.to_string(),
        }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::Parse { line, col, message } => {
                write!(f, "aspect parse error at {line}:{col}: {message}")
            }
            DslError::Unresolved(name) => write!(f, "unresolved name `{name}`"),
            DslError::Eval(msg) => write!(f, "aspect evaluation error: {msg}"),
            DslError::Action { action, message } => {
                write!(f, "action `{action}` failed: {message}")
            }
            DslError::Ir(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for DslError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DslError::Ir(err) => Some(err),
            _ => None,
        }
    }
}

impl From<IrError> for DslError {
    fn from(err: IrError) -> Self {
        DslError::Ir(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(
            DslError::parse(1, 2, "expected `end`").to_string(),
            "aspect parse error at 1:2: expected `end`"
        );
        assert_eq!(
            DslError::action("LoopUnroll", "not a loop").to_string(),
            "action `LoopUnroll` failed: not a loop"
        );
    }

    #[test]
    fn ir_errors_convert_and_chain() {
        use std::error::Error as _;
        let err: DslError = IrError::Unresolved("f".into()).into();
        assert!(err.source().is_some());
    }
}
