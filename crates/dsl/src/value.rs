//! Runtime values of the aspect language.

use antarex_ir::joinpoint::{JoinPoint, JpAttr};
use antarex_ir::value::Value as IrValue;
use std::collections::BTreeMap;
use std::fmt;

/// A value manipulated by aspect expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum DslValue {
    /// Absence of a value; all comparisons with `Null` except `== null`
    /// are false, so missing attributes fail conditions gracefully.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// A source-code fragment; templates splice it raw.
    Code(String),
    /// A join point in the program under weaving.
    Jp(JoinPoint),
    /// Reference to a mini-C function by name (e.g. the `$func` output of
    /// `Specialize`).
    FuncRef(String),
    /// A record of named fields (aspect outputs, action results).
    Record(BTreeMap<String, DslValue>),
}

impl DslValue {
    /// Builds a record value from field pairs.
    pub(crate) fn record<I, K>(fields: I) -> DslValue
    where
        I: IntoIterator<Item = (K, DslValue)>,
        K: Into<String>,
    {
        DslValue::Record(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Truthiness for `condition` evaluation.
    pub(crate) fn truthy(&self) -> bool {
        match self {
            DslValue::Null => false,
            DslValue::Bool(b) => *b,
            DslValue::Int(v) => *v != 0,
            DslValue::Float(v) => *v != 0.0,
            DslValue::Str(s) | DslValue::Code(s) => !s.is_empty(),
            DslValue::Jp(_) | DslValue::FuncRef(_) | DslValue::Record(_) => true,
        }
    }

    /// Numeric view.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            DslValue::Int(v) => Some(*v as f64),
            DslValue::Float(v) => Some(*v),
            DslValue::Bool(b) => Some(f64::from(*b)),
            _ => None,
        }
    }

    /// Integer view (floats truncate).
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            DslValue::Int(v) => Some(*v),
            DslValue::Float(v) => Some(*v as i64),
            DslValue::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// String view for `Str` and `Code`.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            DslValue::Str(s) | DslValue::Code(s) => Some(s),
            _ => None,
        }
    }

    /// The function name this value designates, if any: a `FuncRef`, a
    /// function join point, or a record carrying a `$func` field.
    pub(crate) fn as_func_name(&self) -> Option<&str> {
        match self {
            DslValue::FuncRef(name) => Some(name),
            DslValue::Jp(JoinPoint::Function { name }) => Some(name),
            DslValue::Str(s) => Some(s),
            DslValue::Record(fields) => fields.get("$func").and_then(DslValue::as_func_name),
            _ => None,
        }
    }

    /// Converts to a mini-C runtime value if scalar.
    pub(crate) fn to_ir(&self) -> Option<IrValue> {
        match self {
            DslValue::Int(v) => Some(IrValue::Int(*v)),
            DslValue::Float(v) => Some(IrValue::Float(*v)),
            DslValue::Bool(b) => Some(IrValue::Int(i64::from(*b))),
            DslValue::Str(s) => Some(IrValue::Str(s.clone())),
            _ => None,
        }
    }

    /// Converts a mini-C runtime value into a DSL value.
    pub(crate) fn from_ir(value: &IrValue) -> DslValue {
        match value {
            IrValue::Int(v) => DslValue::Int(*v),
            IrValue::Float(v) => DslValue::Float(*v),
            IrValue::Str(s) => DslValue::Str(s.clone()),
            IrValue::Array(_) | IrValue::Unit => DslValue::Null,
        }
    }
}

impl From<JpAttr> for DslValue {
    fn from(attr: JpAttr) -> Self {
        match attr {
            JpAttr::Int(v) => DslValue::Int(v),
            JpAttr::Bool(b) => DslValue::Bool(b),
            JpAttr::Str(s) => DslValue::Str(s),
            JpAttr::Code(s) => DslValue::Code(s),
        }
    }
}

impl From<bool> for DslValue {
    fn from(v: bool) -> Self {
        DslValue::Bool(v)
    }
}

impl From<i64> for DslValue {
    fn from(v: i64) -> Self {
        DslValue::Int(v)
    }
}

impl From<f64> for DslValue {
    fn from(v: f64) -> Self {
        DslValue::Float(v)
    }
}

impl From<&str> for DslValue {
    fn from(v: &str) -> Self {
        DslValue::Str(v.to_string())
    }
}

impl fmt::Display for DslValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslValue::Null => write!(f, "null"),
            DslValue::Bool(b) => write!(f, "{b}"),
            DslValue::Int(v) => write!(f, "{v}"),
            DslValue::Float(v) => write!(f, "{v}"),
            DslValue::Str(s) | DslValue::Code(s) => write!(f, "{s}"),
            DslValue::Jp(jp) => write!(f, "<{}>", jp.kind_name()),
            DslValue::FuncRef(name) => write!(f, "<func {name}>"),
            DslValue::Record(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!DslValue::Null.truthy());
        assert!(DslValue::Int(3).truthy());
        assert!(!DslValue::Int(0).truthy());
        assert!(DslValue::FuncRef("f".into()).truthy());
        assert!(!DslValue::Str(String::new()).truthy());
    }

    #[test]
    fn func_name_resolution_through_records() {
        let rec = DslValue::record([("$func", DslValue::FuncRef("kernel__size_8".into()))]);
        assert_eq!(rec.as_func_name(), Some("kernel__size_8"));
        assert_eq!(DslValue::Int(3).as_func_name(), None);
    }

    #[test]
    fn ir_round_trip_scalars() {
        for v in [
            DslValue::Int(4),
            DslValue::Float(1.5),
            DslValue::Str("x".into()),
        ] {
            let ir = v.to_ir().unwrap();
            assert_eq!(DslValue::from_ir(&ir), v);
        }
        assert_eq!(DslValue::from_ir(&IrValue::Unit), DslValue::Null);
    }

    #[test]
    fn attr_conversion() {
        assert_eq!(DslValue::from(JpAttr::Bool(true)), DslValue::Bool(true));
        assert_eq!(
            DslValue::from(JpAttr::Code("a, b".into())),
            DslValue::Code("a, b".into())
        );
    }

    #[test]
    fn display_record_is_sorted() {
        let rec = DslValue::record([("b", DslValue::Int(2)), ("a", DslValue::Int(1))]);
        assert_eq!(rec.to_string(), "{a: 1, b: 2}");
    }
}
