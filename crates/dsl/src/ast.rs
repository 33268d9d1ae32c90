//! Abstract syntax of the aspect language.

use std::collections::BTreeMap;

/// A parsed aspect definition (`aspectdef ... end`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AspectDef {
    /// Aspect name.
    pub name: String,
    /// Input parameter names (may be `$`-prefixed, e.g. `$func`).
    pub inputs: Vec<String>,
    /// Output names returned as a record after execution.
    pub outputs: Vec<String>,
    /// Body items in source order.
    pub items: Vec<Item>,
}

/// One top-level item of an aspect body.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Item {
    /// `select ... end` — establishes the current pointcut.
    Select(Select),
    /// `apply [dynamic] ... end` — actions over the current pointcut.
    Apply(Apply),
    /// `condition ... end` — guard attached to the nearest apply.
    Condition(DExpr),
    /// `call [label:] Aspect(args);` — run another aspect or built-in action.
    Call(CallAspect),
}

/// A pointcut expression, e.g. `fCall{'kernel'}.arg{'size'}` or
/// `$func.loop{type=='for'}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Scope variable the chain is rooted at (`$func` in Fig. 3), or `None`
    /// for program-wide selection.
    pub root: Option<String>,
    /// The chain of join-point links.
    pub links: Vec<SelLink>,
}

/// One link of a pointcut chain: a join-point kind plus optional filter.
#[derive(Debug, Clone, PartialEq)]
pub struct SelLink {
    /// Join-point kind (`fCall`, `loop`, `arg`, `function`).
    pub kind: String,
    /// Filter over the candidate join points.
    pub filter: Option<Filter>,
}

/// A `{...}` filter on a pointcut link.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// `{'kernel'}` — shorthand for `name == 'kernel'`.
    Name(String),
    /// `{type=='for'}` — arbitrary predicate over candidate attributes.
    Expr(DExpr),
}

/// An `apply` section.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Apply {
    /// `true` for `apply dynamic` (deferred to runtime weaving).
    pub dynamic: bool,
    /// Actions executed per selected join point.
    pub actions: Vec<Action>,
}

/// A weaving action inside `apply`.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// `insert before|after %{...}%;`
    Insert {
        /// Splice position relative to the join point.
        before: bool,
        /// Code template with `[[expr]]` holes.
        template: Template,
    },
    /// `do ActionName(args);` — a weaver action on the current join point.
    Do {
        /// Action name (e.g. `LoopUnroll`).
        name: String,
        /// Argument expressions.
        args: Vec<DExpr>,
    },
    /// `call [label:] Aspect(args);`
    Call(CallAspect),
}

/// An aspect (or built-in action) invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CallAspect {
    /// Binding for the invocation result (`spOut` in Fig. 4).
    pub label: Option<String>,
    /// Aspect or built-in action name.
    pub name: String,
    /// Argument expressions.
    pub args: Vec<DExpr>,
}

/// A code template: literal text with expression splices.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Parts in order.
    pub parts: Vec<TplPart>,
}

/// One part of a [`Template`].
#[derive(Debug, Clone, PartialEq)]
pub enum TplPart {
    /// Literal text.
    Text(String),
    /// `[[expr]]` splice.
    Splice(DExpr),
}

/// Unary operators of the aspect expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DUnOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
}

/// Binary operators of the aspect expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// An aspect expression.
#[derive(Debug, Clone, PartialEq)]
pub enum DExpr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// Variable reference (`threshold`, `$fCall`, `spOut`).
    Var(String),
    /// Attribute access (`$fCall.name`, `spOut.$func`).
    Attr(Box<DExpr>, String),
    /// Unary operation.
    Unary(DUnOp, Box<DExpr>),
    /// Binary operation.
    Binary(DBinOp, Box<DExpr>, Box<DExpr>),
}

impl DExpr {
    /// Builds an attribute access.
    pub(crate) fn attr(base: DExpr, name: impl Into<String>) -> DExpr {
        DExpr::Attr(Box::new(base), name.into())
    }

    /// Builds a binary expression.
    pub(crate) fn binary(op: DBinOp, lhs: DExpr, rhs: DExpr) -> DExpr {
        DExpr::Binary(op, Box::new(lhs), Box::new(rhs))
    }
}

/// A named collection of aspect definitions, as loaded from one or more DSL
/// source files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AspectLibrary {
    aspects: BTreeMap<String, AspectDef>,
}

impl AspectLibrary {
    /// Creates an empty library.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) an aspect definition.
    pub(crate) fn insert(&mut self, aspect: AspectDef) -> Option<AspectDef> {
        self.aspects.insert(aspect.name.clone(), aspect)
    }

    /// Looks up an aspect by name.
    pub(crate) fn get(&self, name: &str) -> Option<&AspectDef> {
        self.aspects.get(name)
    }

    /// Returns `true` if the library defines this aspect.
    pub fn contains(&self, name: &str) -> bool {
        self.aspects.contains_key(name)
    }

    /// Aspect names in sorted order.
    pub(crate) fn names(&self) -> Vec<&str> {
        self.aspects.keys().map(String::as_str).collect()
    }
}

impl FromIterator<AspectDef> for AspectLibrary {
    fn from_iter<I: IntoIterator<Item = AspectDef>>(iter: I) -> Self {
        let mut library = AspectLibrary::new();
        for aspect in iter {
            library.insert(aspect);
        }
        library
    }
}

impl Extend<AspectDef> for AspectLibrary {
    fn extend<I: IntoIterator<Item = AspectDef>>(&mut self, iter: I) {
        for aspect in iter {
            self.insert(aspect);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aspect(name: &str) -> AspectDef {
        AspectDef {
            name: name.into(),
            inputs: vec![],
            outputs: vec![],
            items: vec![],
        }
    }

    #[test]
    fn library_insert_lookup_replace() {
        let mut lib: AspectLibrary = [aspect("A"), aspect("B")].into_iter().collect();
        assert_eq!(lib.names(), vec!["A", "B"]);
        assert!(lib.contains("A"));
        let mut b2 = aspect("B");
        b2.inputs.push("x".into());
        assert!(lib.insert(b2).is_some());
        assert!(lib.insert(aspect("C")).is_none());
        assert_eq!(lib.names(), vec!["A", "B", "C"]);
        assert_eq!(lib.get("B").unwrap().inputs, vec!["x".to_string()]);
    }
}
