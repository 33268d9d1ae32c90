//! Parser for the aspect language.
//!
//! Grammar (aligned with the LARA listings in the paper, Figs. 2–4):
//!
//! ```text
//! file      := aspectdef*
//! aspectdef := 'aspectdef' IDENT item* 'end'
//! item      := 'input' names 'end' | 'output' names 'end'
//!            | 'select' selector 'end'
//!            | 'apply' 'dynamic'? action* 'end'
//!            | 'condition' expr 'end'
//!            | callstmt
//! selector  := ['$'IDENT '.'] link ('.' link)*
//! link      := IDENT ['{' (STRING | expr) '}']
//! action    := 'insert' ('before'|'after') TEMPLATE ';'
//!            | 'do' IDENT '(' args ')' ';'
//!            | callstmt
//! callstmt  := 'call' [IDENT ':'] IDENT '(' args ')' ';'
//! expr      := JavaScript-like expression over inputs, join-point
//!              attributes and call results
//! ```

use crate::ast::{
    Action, Apply, AspectDef, CallAspect, DBinOp, DExpr, DUnOp, Filter, Item, SelLink, Select,
};
use crate::error::DslError;
use crate::lexer::{lex, Tok, Token};
use crate::template::parse_template;

/// Parses one or more `aspectdef`s into a library.
///
/// # Errors
///
/// Returns [`DslError::Parse`] with position information on syntax errors.
///
/// # Examples
///
/// ```
/// use antarex_dsl::parse_aspects;
///
/// # fn main() -> Result<(), antarex_dsl::DslError> {
/// let lib = parse_aspects(
///     "aspectdef UnrollInnermostLoops
///        input $func, threshold end
///        select $func.loop{type=='for'} end
///        apply
///          do LoopUnroll('full');
///        end
///        condition
///          $loop.isInnermost && $loop.numIter <= threshold
///        end
///      end",
/// )?;
/// assert!(lib.contains("UnrollInnermostLoops"));
/// # Ok(())
/// # }
/// ```
pub fn parse_aspects(source: &str) -> Result<crate::ast::AspectLibrary, DslError> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    let mut library = crate::ast::AspectLibrary::new();
    while !parser.at_end() {
        library.insert(parser.aspectdef()?);
    }
    Ok(library)
}

/// Parses a single aspect expression (used by templates and tests).
///
/// # Errors
///
/// Returns [`DslError::Parse`] on syntax errors or trailing input.
pub(crate) fn parse_dsl_expr(source: &str) -> Result<DExpr, DslError> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    let expr = parser.expr()?;
    if !parser.at_end() {
        return Err(parser.err("trailing input after expression"));
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn at_end(&self) -> bool {
        matches!(self.peek().tok, Tok::Eof)
    }

    fn bump(&mut self) -> Token {
        let token = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        token
    }

    fn err(&self, message: impl Into<String>) -> DslError {
        let token = self.peek();
        DslError::parse(token.line, token.col, message)
    }

    fn eat_punct(&mut self, punct: &str) -> bool {
        if matches!(&self.peek().tok, Tok::Punct(p) if *p == punct) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, punct: &str) -> Result<(), DslError> {
        if self.eat_punct(punct) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{punct}`")))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(name) if name == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), DslError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn ident(&mut self) -> Result<String, DslError> {
        match &self.peek().tok {
            Tok::Ident(name) => {
                let name = name.clone();
                self.bump();
                Ok(name)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    fn aspectdef(&mut self) -> Result<AspectDef, DslError> {
        self.expect_keyword("aspectdef")?;
        let name = self.ident()?;
        let mut aspect = AspectDef {
            name,
            inputs: vec![],
            outputs: vec![],
            items: vec![],
        };
        loop {
            if self.eat_keyword("end") {
                return Ok(aspect);
            }
            if self.at_end() {
                return Err(self.err("unexpected end of input inside aspectdef"));
            }
            if self.eat_keyword("input") {
                aspect.inputs = self.name_list()?;
                continue;
            }
            if self.eat_keyword("output") {
                aspect.outputs = self.name_list()?;
                continue;
            }
            if self.eat_keyword("select") {
                aspect.items.push(Item::Select(self.selector()?));
                self.expect_keyword("end")?;
                continue;
            }
            if self.eat_keyword("apply") {
                let dynamic = self.eat_keyword("dynamic");
                let mut actions = Vec::new();
                while !self.eat_keyword("end") {
                    if self.at_end() {
                        return Err(self.err("unexpected end of input inside apply"));
                    }
                    actions.push(self.action()?);
                }
                aspect.items.push(Item::Apply(Apply { dynamic, actions }));
                continue;
            }
            if self.eat_keyword("condition") {
                let expr = self.expr()?;
                self.expect_keyword("end")?;
                aspect.items.push(Item::Condition(expr));
                continue;
            }
            if self.at_keyword("call") {
                let call = self.call_stmt()?;
                aspect.items.push(Item::Call(call));
                continue;
            }
            return Err(self.err(
                "expected `input`, `output`, `select`, `apply`, `condition`, `call` or `end`",
            ));
        }
    }

    fn name_list(&mut self) -> Result<Vec<String>, DslError> {
        let mut names = vec![self.ident()?];
        while self.eat_punct(",") {
            names.push(self.ident()?);
        }
        self.expect_keyword("end")?;
        Ok(names)
    }

    fn selector(&mut self) -> Result<Select, DslError> {
        let first = self.ident()?;
        let (root, first_kind) = if first.starts_with('$') {
            self.expect_punct(".")?;
            (Some(first), self.ident()?)
        } else {
            (None, first)
        };
        let mut links = vec![SelLink {
            kind: first_kind,
            filter: self.filter()?,
        }];
        while self.eat_punct(".") {
            let kind = self.ident()?;
            links.push(SelLink {
                kind,
                filter: self.filter()?,
            });
        }
        Ok(Select { root, links })
    }

    fn filter(&mut self) -> Result<Option<Filter>, DslError> {
        if !self.eat_punct("{") {
            return Ok(None);
        }
        // `{'kernel'}` name shorthand
        if let Tok::Str(name) = &self.peek().tok {
            if matches!(self.peek2(), Tok::Punct("}")) {
                let name = name.clone();
                self.bump();
                self.bump();
                return Ok(Some(Filter::Name(name)));
            }
        }
        let expr = self.expr()?;
        self.expect_punct("}")?;
        Ok(Some(Filter::Expr(expr)))
    }

    fn action(&mut self) -> Result<Action, DslError> {
        if self.eat_keyword("insert") {
            let before = if self.eat_keyword("before") {
                true
            } else if self.eat_keyword("after") {
                false
            } else {
                return Err(self.err("expected `before` or `after`"));
            };
            let template = match self.bump().tok {
                Tok::Template(body) => parse_template(&body)?,
                _ => return Err(self.err("expected a `%{...}%` template")),
            };
            self.expect_punct(";")?;
            return Ok(Action::Insert { before, template });
        }
        if self.eat_keyword("do") {
            let name = self.ident()?;
            let args = self.arg_list()?;
            self.expect_punct(";")?;
            return Ok(Action::Do { name, args });
        }
        if self.at_keyword("call") {
            return Ok(Action::Call(self.call_stmt()?));
        }
        Err(self.err("expected `insert`, `do` or `call`"))
    }

    fn call_stmt(&mut self) -> Result<CallAspect, DslError> {
        self.expect_keyword("call")?;
        let first = self.ident()?;
        let (label, name) = if self.eat_punct(":") {
            (Some(first), self.ident()?)
        } else {
            (None, first)
        };
        let args = self.arg_list()?;
        self.expect_punct(";")?;
        Ok(CallAspect { label, name, args })
    }

    fn arg_list(&mut self) -> Result<Vec<DExpr>, DslError> {
        self.expect_punct("(")?;
        let mut args = Vec::new();
        if self.eat_punct(")") {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.eat_punct(")") {
                return Ok(args);
            }
            self.expect_punct(",")?;
        }
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<DExpr, DslError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<DExpr, DslError> {
        let mut lhs = self.and_expr()?;
        while self.eat_punct("||") {
            let rhs = self.and_expr()?;
            lhs = DExpr::binary(DBinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<DExpr, DslError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_punct("&&") {
            let rhs = self.cmp_expr()?;
            lhs = DExpr::binary(DBinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<DExpr, DslError> {
        let mut lhs = self.add_expr()?;
        loop {
            let op = match &self.peek().tok {
                Tok::Punct("==") => DBinOp::Eq,
                Tok::Punct("!=") => DBinOp::Ne,
                Tok::Punct("<=") => DBinOp::Le,
                Tok::Punct(">=") => DBinOp::Ge,
                Tok::Punct("<") => DBinOp::Lt,
                Tok::Punct(">") => DBinOp::Gt,
                _ => break,
            };
            self.bump();
            let rhs = self.add_expr()?;
            lhs = DExpr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<DExpr, DslError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match &self.peek().tok {
                Tok::Punct("+") => DBinOp::Add,
                Tok::Punct("-") => DBinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = DExpr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<DExpr, DslError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match &self.peek().tok {
                Tok::Punct("*") => DBinOp::Mul,
                Tok::Punct("/") => DBinOp::Div,
                Tok::Punct("%") => DBinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = DExpr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<DExpr, DslError> {
        if self.eat_punct("-") {
            let inner = self.unary_expr()?;
            return Ok(DExpr::Unary(DUnOp::Neg, Box::new(inner)));
        }
        if self.eat_punct("!") {
            let inner = self.unary_expr()?;
            return Ok(DExpr::Unary(DUnOp::Not, Box::new(inner)));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<DExpr, DslError> {
        let mut expr = self.primary_expr()?;
        while self.eat_punct(".") {
            let attr = self.ident()?;
            expr = DExpr::attr(expr, attr);
        }
        Ok(expr)
    }

    fn primary_expr(&mut self) -> Result<DExpr, DslError> {
        let token = self.bump();
        match token.tok {
            Tok::Int(v) => Ok(DExpr::Int(v)),
            Tok::Float(v) => Ok(DExpr::Float(v)),
            Tok::Str(s) => Ok(DExpr::Str(s)),
            Tok::Ident(name) => match name.as_str() {
                "true" => Ok(DExpr::Bool(true)),
                "false" => Ok(DExpr::Bool(false)),
                "null" => Ok(DExpr::Null),
                _ => Ok(DExpr::Var(name)),
            },
            Tok::Punct("(") => {
                let inner = self.expr()?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            _ => Err(DslError::parse(
                token.line,
                token.col,
                "expected expression",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::figures::{
        FIG2_PROFILE_ARGUMENTS as FIG2, FIG3_UNROLL_INNERMOST_LOOPS as FIG3,
        FIG4_SPECIALIZE_KERNEL as FIG4,
    };

    #[test]
    fn fig2_parses_verbatim() {
        let lib = parse_aspects(FIG2).unwrap();
        let aspect = lib.get("ProfileArguments").unwrap();
        assert_eq!(aspect.inputs, vec!["funcName"]);
        assert_eq!(aspect.items.len(), 3);
        let Item::Select(select) = &aspect.items[0] else {
            panic!()
        };
        assert_eq!(select.root, None);
        assert_eq!(select.links[0].kind, "fCall");
        let Item::Apply(apply) = &aspect.items[1] else {
            panic!()
        };
        assert!(!apply.dynamic);
        let Action::Insert { before, template } = &apply.actions[0] else {
            panic!()
        };
        assert!(*before);
        // 3 splices: funcName, location, argList
        let splices = template
            .parts
            .iter()
            .filter(|p| matches!(p, crate::ast::TplPart::Splice(_)))
            .count();
        assert_eq!(splices, 3);
        assert!(matches!(&aspect.items[2], Item::Condition(_)));
    }

    #[test]
    fn fig3_parses_verbatim() {
        let lib = parse_aspects(FIG3).unwrap();
        let aspect = lib.get("UnrollInnermostLoops").unwrap();
        assert_eq!(aspect.inputs, vec!["$func", "threshold"]);
        let Item::Select(select) = &aspect.items[0] else {
            panic!()
        };
        assert_eq!(select.root.as_deref(), Some("$func"));
        assert_eq!(select.links[0].kind, "loop");
        assert!(matches!(&select.links[0].filter, Some(Filter::Expr(_))));
        let Item::Apply(apply) = &aspect.items[1] else {
            panic!()
        };
        assert!(matches!(&apply.actions[0], Action::Do { name, args }
            if name == "LoopUnroll" && args == &[DExpr::Str("full".into())]));
    }

    #[test]
    fn fig4_parses_verbatim() {
        let lib = parse_aspects(FIG4).unwrap();
        let aspect = lib.get("SpecializeKernel").unwrap();
        assert_eq!(aspect.inputs, vec!["lowT", "highT"]);
        // top-level call with label
        let Item::Call(call) = &aspect.items[0] else {
            panic!()
        };
        assert_eq!(call.label.as_deref(), Some("spCall"));
        assert_eq!(call.name, "PrepareSpecialize");
        // chained selector with name filters
        let Item::Select(select) = &aspect.items[1] else {
            panic!()
        };
        assert_eq!(select.links.len(), 2);
        assert!(matches!(&select.links[0].filter, Some(Filter::Name(n)) if n == "kernel"));
        assert!(matches!(&select.links[1].filter, Some(Filter::Name(n)) if n == "size"));
        // dynamic apply with three calls
        let Item::Apply(apply) = &aspect.items[2] else {
            panic!()
        };
        assert!(apply.dynamic);
        assert_eq!(apply.actions.len(), 3);
        let Action::Call(second) = &apply.actions[1] else {
            panic!()
        };
        assert_eq!(second.name, "UnrollInnermostLoops");
        // spOut.$func — attribute whose name is $-prefixed
        assert_eq!(
            second.args[0],
            DExpr::attr(DExpr::Var("spOut".into()), "$func")
        );
    }

    #[test]
    fn expression_precedence() {
        let e = parse_dsl_expr("a + b * c == d && !e").unwrap();
        // ((a + (b*c)) == d) && (!e)
        let DExpr::Binary(DBinOp::And, lhs, rhs) = e else {
            panic!()
        };
        assert!(matches!(*lhs, DExpr::Binary(DBinOp::Eq, _, _)));
        assert!(matches!(*rhs, DExpr::Unary(DUnOp::Not, _)));
    }

    #[test]
    fn literals() {
        assert_eq!(parse_dsl_expr("true").unwrap(), DExpr::Bool(true));
        assert_eq!(parse_dsl_expr("null").unwrap(), DExpr::Null);
        assert_eq!(parse_dsl_expr("3.5").unwrap(), DExpr::Float(3.5));
        assert_eq!(parse_dsl_expr("'s'").unwrap(), DExpr::Str("s".into()));
    }

    #[test]
    fn attribute_chains() {
        let e = parse_dsl_expr("$fCall.args.count").unwrap();
        assert_eq!(
            e,
            DExpr::attr(DExpr::attr(DExpr::Var("$fCall".into()), "args"), "count")
        );
    }

    #[test]
    fn multiple_aspects_in_one_file() {
        let lib = parse_aspects(&format!("{FIG2}\n{FIG3}")).unwrap();
        assert_eq!(lib.names().len(), 2);
    }

    #[test]
    fn errors_are_located() {
        let err = parse_aspects("aspectdef X\nselect fCall\napply end end").unwrap_err();
        let DslError::Parse { line, .. } = err else {
            panic!()
        };
        assert_eq!(line, 3, "missing `end` after select detected at `apply`");
    }

    #[test]
    fn unterminated_aspect() {
        assert!(parse_aspects("aspectdef X select fCall end").is_err());
    }

    #[test]
    fn filter_expr_with_comparison() {
        let lib = parse_aspects("aspectdef A select loop{numIter >= 4} end apply do X(); end end")
            .unwrap();
        let aspect = lib.get("A").unwrap();
        let Item::Select(select) = &aspect.items[0] else {
            panic!()
        };
        assert!(matches!(
            &select.links[0].filter,
            Some(Filter::Expr(DExpr::Binary(DBinOp::Ge, _, _)))
        ));
    }
}
