//! Parser for the mini-C subset.
//!
//! Supported grammar (close enough to C to host the paper's kernels):
//!
//! ```text
//! program   := function*
//! function  := type ident '(' params? ')' block
//! type      := 'void' | 'int' | 'long' | 'float' | 'double' | 'float' INT
//! params    := param (',' param)*
//! param     := type ident ('[' ']')?
//! block     := '{' stmt* '}'
//! stmt      := decl ';' | assign ';' | 'if' ... | 'for' ... | 'while' ...
//!            | 'return' expr? ';' | expr ';' | block
//! decl      := type ident ('=' expr)? | type ident '[' INT ']'
//! assign    := lvalue ('=' | '+=' | '-=' | '*=' | '/=') expr
//!            | lvalue '++' | lvalue '--'
//! expr      := C expression grammar with || && == != < <= > >= + - * / % ! -
//! ```
//!
//! `for` loops must declare or assign a single integer induction variable;
//! this is what makes trip counts statically analysable, which the paper's
//! `UnrollInnermostLoops` aspect relies on (`$loop.numIter`).

use crate::ast::{BinOp, Block, Expr, Function, LValue, Param, Program, Stmt, UnOp};
use crate::error::IrError;
use crate::types::Type;

/// Parses a whole program (a sequence of function definitions).
///
/// # Errors
///
/// Returns [`IrError::Parse`] with line/column information on syntax errors.
///
/// # Examples
///
/// ```
/// use antarex_ir::parse_program;
///
/// # fn main() -> Result<(), antarex_ir::IrError> {
/// let program = parse_program(
///     "double dot(double a[], double b[], int n) {
///          double s = 0.0;
///          for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
///          return s;
///      }",
/// )?;
/// assert!(program.contains("dot"));
/// # Ok(())
/// # }
/// ```
pub fn parse_program(source: &str) -> Result<Program, IrError> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    let mut program = Program::new();
    while !parser.at_end() {
        program.insert(parser.function()?);
    }
    Ok(program)
}

/// Parses a single expression (used by tests and the DSL's template engine).
///
/// # Errors
///
/// Returns [`IrError::Parse`] on syntax errors or trailing input.
pub fn parse_expr(source: &str) -> Result<Expr, IrError> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    let expr = parser.expr()?;
    if !parser.at_end() {
        let tok = parser.peek();
        return Err(IrError::parse_span(
            tok.line,
            tok.col,
            tok.end_col,
            "trailing input after expression",
        ));
    }
    Ok(expr)
}

/// Parses a single statement (used by the DSL's `insert` action templates).
///
/// # Errors
///
/// Returns [`IrError::Parse`] on syntax errors or trailing input.
pub fn parse_stmt(source: &str) -> Result<Stmt, IrError> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    let stmt = parser.stmt()?;
    if !parser.at_end() {
        let tok = parser.peek();
        return Err(IrError::parse_span(
            tok.line,
            tok.col,
            tok.end_col,
            "trailing input after statement",
        ));
    }
    Ok(stmt)
}

/// Parses a sequence of statements (a braceless block), as produced by DSL
/// `insert` templates that splice several statements at once.
///
/// # Errors
///
/// Returns [`IrError::Parse`] on syntax errors.
pub fn parse_stmts(source: &str) -> Result<Vec<Stmt>, IrError> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    let mut stmts = Vec::new();
    while !parser.at_end() {
        stmts.push(parser.stmt()?);
    }
    Ok(stmts)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Punct(&'static str),
    Eof,
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: u32,
    col: u32,
    /// Exclusive end column of the token on its last line, so errors can
    /// report the full span of the offending token.
    end_col: u32,
}

const PUNCTS: &[&str] = &[
    "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "++", "--", "(", ")", "{", "}",
    "[", "]", ",", ";", "=", "<", ">", "+", "-", "*", "/", "%", "!",
];

fn lex(source: &str) -> Result<Vec<Token>, IrError> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    let mut col = 1u32;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        // comments
        if c == '/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                i += 2;
                col += 2;
                while i + 1 < bytes.len() {
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        col += 2;
                        continue 'outer;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
                return Err(IrError::parse(line, col, "unterminated block comment"));
            }
        }
        let (tline, tcol) = (line, col);
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
                col += 1;
            }
            tokens.push(Token {
                tok: Tok::Ident(source[start..i].to_string()),
                line: tline,
                col: tcol,
                end_col: col,
            });
            continue;
        }
        if c.is_ascii_digit()
            || (c == '.' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit())
        {
            let start = i;
            let mut is_float = false;
            while i < bytes.len() {
                let d = bytes[i] as char;
                if d.is_ascii_digit() {
                    i += 1;
                    col += 1;
                } else if d == '.' && !is_float {
                    is_float = true;
                    i += 1;
                    col += 1;
                } else if (d == 'e' || d == 'E')
                    && i + 1 < bytes.len()
                    && ((bytes[i + 1] as char).is_ascii_digit()
                        || bytes[i + 1] == b'-'
                        || bytes[i + 1] == b'+')
                {
                    is_float = true;
                    i += 2;
                    col += 2;
                } else {
                    break;
                }
            }
            let text = &source[start..i];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| {
                    IrError::parse(tline, tcol, format!("invalid float literal `{text}`"))
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| {
                    IrError::parse(tline, tcol, format!("invalid integer literal `{text}`"))
                })?)
            };
            tokens.push(Token {
                tok,
                line: tline,
                col: tcol,
                end_col: col,
            });
            continue;
        }
        if c == '"' || c == '\'' {
            let quote = c;
            i += 1;
            col += 1;
            let mut text = String::new();
            while i < bytes.len() && bytes[i] as char != quote {
                let d = bytes[i] as char;
                if d == '\\' && i + 1 < bytes.len() {
                    let esc = bytes[i + 1] as char;
                    text.push(match esc {
                        'n' => '\n',
                        't' => '\t',
                        other => other,
                    });
                    i += 2;
                    col += 2;
                } else {
                    if d == '\n' {
                        line += 1;
                        col = 0;
                    }
                    text.push(d);
                    i += 1;
                    col += 1;
                }
            }
            if i >= bytes.len() {
                return Err(IrError::parse(tline, tcol, "unterminated string literal"));
            }
            i += 1;
            col += 1;
            tokens.push(Token {
                tok: Tok::Str(text),
                line: tline,
                col: tcol,
                end_col: col,
            });
            continue;
        }
        // punctuation, longest match first
        for punct in PUNCTS {
            if source[i..].starts_with(punct) {
                tokens.push(Token {
                    tok: Tok::Punct(punct),
                    line: tline,
                    col: tcol,
                    end_col: tcol + punct.len() as u32,
                });
                i += punct.len();
                col += punct.len() as u32;
                continue 'outer;
            }
        }
        return Err(IrError::parse(
            tline,
            tcol,
            format!("unexpected character `{c}`"),
        ));
    }
    tokens.push(Token {
        tok: Tok::Eof,
        line,
        col,
        end_col: col,
    });
    Ok(tokens)
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

    fn err(&self, message: impl Into<String>) -> IrError {
        Self::err_at(self.peek(), message)
    }

    /// An error anchored at a specific (possibly already consumed) token,
    /// carrying its full span. Error paths that detect a problem *after*
    /// consuming tokens must use this with the offending token instead of
    /// [`Parser::err`], which would blame whatever comes next.
    fn err_at(token: &Token, message: impl Into<String>) -> IrError {
        IrError::parse_span(token.line, token.col, token.end_col, message)
    }

    fn eat_punct(&mut self, punct: &str) -> bool {
        if matches!(&self.peek().tok, Tok::Punct(p) if *p == punct) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, punct: &str) -> Result<(), IrError> {
        if self.eat_punct(punct) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{punct}`")))
        }
    }

    fn ident(&mut self) -> Result<String, IrError> {
        match &self.peek().tok {
            Tok::Ident(name) => {
                let name = name.clone();
                self.bump();
                Ok(name)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    /// Returns the declared type if the next tokens form one; consumes them.
    fn try_type(&mut self) -> Option<Option<Type>> {
        let name = match &self.peek().tok {
            Tok::Ident(name) => name.clone(),
            _ => return None,
        };
        let ty = match name.as_str() {
            "void" => None,
            "int" | "long" => Some(Type::Int),
            "double" => Some(Type::F64),
            "float" => Some(Type::F32),
            other => {
                // floatN custom precision, e.g. float16 means 16 mantissa bits
                if let Some(bits) = other
                    .strip_prefix("float")
                    .and_then(|s| s.parse::<u8>().ok())
                {
                    if (1..=52).contains(&bits) {
                        Some(Type::FCustom(bits))
                    } else {
                        return None;
                    }
                } else {
                    return None;
                }
            }
        };
        self.bump();
        Some(ty)
    }

    fn is_type_ahead(&self) -> bool {
        match &self.peek().tok {
            Tok::Ident(name) => {
                matches!(name.as_str(), "void" | "int" | "long" | "double" | "float")
                    || name
                        .strip_prefix("float")
                        .and_then(|s| s.parse::<u8>().ok())
                        .is_some_and(|b| (1..=52).contains(&b))
            }
            _ => false,
        }
    }

    fn function(&mut self) -> Result<Function, IrError> {
        let ret = self
            .try_type()
            .ok_or_else(|| self.err("expected return type"))?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let ty_token = self.peek().clone();
                let ty = self
                    .try_type()
                    .ok_or_else(|| self.err("expected parameter type"))?
                    .ok_or_else(|| Self::err_at(&ty_token, "parameters cannot be void"))?;
                let pname = self.ident()?;
                let is_array = if self.eat_punct("[") {
                    self.expect_punct("]")?;
                    true
                } else {
                    false
                };
                params.push(Param {
                    name: pname,
                    ty,
                    is_array,
                });
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let body = self.block()?;
        Ok(Function::new(name, ret, params, body))
    }

    fn block(&mut self) -> Result<Block, IrError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if self.at_end() {
                return Err(self.err("unexpected end of input, expected `}`"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, IrError> {
        if matches!(&self.peek().tok, Tok::Punct("{")) {
            // flatten lexical blocks into If(true) to keep Block = Vec<Stmt>
            let inner = self.block()?;
            return Ok(Stmt::If {
                cond: Expr::Int(1),
                then_branch: inner,
                else_branch: None,
            });
        }
        if let Tok::Ident(kw) = &self.peek().tok {
            match kw.as_str() {
                "if" => return self.if_stmt(),
                "for" => return self.for_stmt(),
                "while" => return self.while_stmt(),
                "return" => {
                    self.bump();
                    if self.eat_punct(";") {
                        return Ok(Stmt::Return(None));
                    }
                    let value = self.expr()?;
                    self.expect_punct(";")?;
                    return Ok(Stmt::Return(Some(value)));
                }
                _ => {}
            }
        }
        if self.is_type_ahead() && matches!(self.peek2(), Tok::Ident(_)) {
            let stmt = self.decl()?;
            self.expect_punct(";")?;
            return Ok(stmt);
        }
        let stmt = self.simple_stmt()?;
        self.expect_punct(";")?;
        Ok(stmt)
    }

    fn decl(&mut self) -> Result<Stmt, IrError> {
        let ty_token = self.peek().clone();
        let ty = self
            .try_type()
            .ok_or_else(|| self.err("expected type"))?
            .ok_or_else(|| Self::err_at(&ty_token, "cannot declare a void variable"))?;
        let name = self.ident()?;
        if self.eat_punct("[") {
            let size_token = self.bump();
            let size = match size_token.tok {
                Tok::Int(n) if n >= 0 => n as usize,
                _ => {
                    return Err(Self::err_at(
                        &size_token,
                        "array size must be a non-negative integer literal",
                    ))
                }
            };
            self.expect_punct("]")?;
            return Ok(Stmt::ArrayDecl { name, ty, size });
        }
        let init = if self.eat_punct("=") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Decl { name, ty, init })
    }

    /// Assignment (incl. compound and ++/--) or expression statement,
    /// without the trailing semicolon.
    fn simple_stmt(&mut self) -> Result<Stmt, IrError> {
        // Try to parse an lvalue-led assignment by lookahead.
        if let Tok::Ident(name) = &self.peek().tok {
            let name = name.clone();
            match self.peek2() {
                Tok::Punct("=") => {
                    self.bump();
                    self.bump();
                    let value = self.expr()?;
                    return Ok(Stmt::Assign {
                        target: LValue::Var(name),
                        value,
                    });
                }
                Tok::Punct(op @ ("+=" | "-=" | "*=" | "/=")) => {
                    let bin = compound_op(op);
                    self.bump();
                    self.bump();
                    let rhs = self.expr()?;
                    return Ok(Stmt::Assign {
                        target: LValue::Var(name.clone()),
                        value: Expr::binary(bin, Expr::Var(name), rhs),
                    });
                }
                Tok::Punct(op @ ("++" | "--")) => {
                    let bin = if *op == "++" { BinOp::Add } else { BinOp::Sub };
                    self.bump();
                    self.bump();
                    return Ok(Stmt::Assign {
                        target: LValue::Var(name.clone()),
                        value: Expr::binary(bin, Expr::Var(name), Expr::Int(1)),
                    });
                }
                Tok::Punct("[") => {
                    // Could be a[i] = ... or an expression like a[i] + 1;
                    let save = self.pos;
                    self.bump(); // ident
                    self.bump(); // [
                    let index = self.expr()?;
                    if self.expect_punct("]").is_ok() {
                        if self.eat_punct("=") {
                            let value = self.expr()?;
                            return Ok(Stmt::Assign {
                                target: LValue::Index(name, Box::new(index)),
                                value,
                            });
                        }
                        if let Tok::Punct(op @ ("+=" | "-=" | "*=" | "/=")) = &self.peek().tok {
                            let bin = compound_op(op);
                            self.bump();
                            let rhs = self.expr()?;
                            let read = Expr::Index(name.clone(), Box::new(index.clone()));
                            return Ok(Stmt::Assign {
                                target: LValue::Index(name, Box::new(index)),
                                value: Expr::binary(bin, read, rhs),
                            });
                        }
                    }
                    self.pos = save;
                }
                _ => {}
            }
        }
        let expr = self.expr()?;
        Ok(Stmt::ExprStmt(expr))
    }

    fn if_stmt(&mut self) -> Result<Stmt, IrError> {
        self.bump(); // if
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then_branch = self.stmt_or_block()?;
        let else_branch = if matches!(&self.peek().tok, Tok::Ident(kw) if kw == "else") {
            self.bump();
            Some(self.stmt_or_block()?)
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn stmt_or_block(&mut self) -> Result<Block, IrError> {
        if matches!(&self.peek().tok, Tok::Punct("{")) {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn for_stmt(&mut self) -> Result<Stmt, IrError> {
        self.bump(); // for
        self.expect_punct("(")?;
        // init: `int i = e` or `i = e`
        let (var, init) = if self.is_type_ahead() {
            let ty_token = self.peek().clone();
            let ty = self.try_type().unwrap();
            if ty != Some(Type::Int) {
                return Err(Self::err_at(&ty_token, "loop variables must be integers"));
            }
            let name = self.ident()?;
            self.expect_punct("=")?;
            (name, self.expr()?)
        } else {
            let name = self.ident()?;
            self.expect_punct("=")?;
            (name, self.expr()?)
        };
        self.expect_punct(";")?;
        let cond = self.expr()?;
        self.expect_punct(";")?;
        // step: `i = e`, `i += e`, `i++`, `i--`
        let step_token = self.peek().clone();
        let step_stmt = self.simple_stmt()?;
        let step = match step_stmt {
            Stmt::Assign {
                target: LValue::Var(name),
                value,
            } if name == var => value,
            _ => {
                return Err(Self::err_at(
                    &step_token,
                    format!("for-step must assign loop variable `{var}`"),
                ))
            }
        };
        self.expect_punct(")")?;
        let body = self.stmt_or_block()?;
        Ok(Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, IrError> {
        self.bump(); // while
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let body = self.stmt_or_block()?;
        Ok(Stmt::While { cond, body })
    }

    // ---- expressions, precedence climbing ----

    fn expr(&mut self) -> Result<Expr, IrError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, IrError> {
        let mut lhs = self.and_expr()?;
        while self.eat_punct("||") {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, IrError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_punct("&&") {
            let rhs = self.cmp_expr()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, IrError> {
        let mut lhs = self.add_expr()?;
        loop {
            let op = match &self.peek().tok {
                Tok::Punct("==") => BinOp::Eq,
                Tok::Punct("!=") => BinOp::Ne,
                Tok::Punct("<=") => BinOp::Le,
                Tok::Punct(">=") => BinOp::Ge,
                Tok::Punct("<") => BinOp::Lt,
                Tok::Punct(">") => BinOp::Gt,
                _ => break,
            };
            self.bump();
            let rhs = self.add_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, IrError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match &self.peek().tok {
                Tok::Punct("+") => BinOp::Add,
                Tok::Punct("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, IrError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match &self.peek().tok {
                Tok::Punct("*") => BinOp::Mul,
                Tok::Punct("/") => BinOp::Div,
                Tok::Punct("%") => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, IrError> {
        if self.eat_punct("-") {
            let inner = self.unary_expr()?;
            return Ok(Expr::Unary(UnOp::Neg, Box::new(inner)));
        }
        if self.eat_punct("!") {
            let inner = self.unary_expr()?;
            return Ok(Expr::Unary(UnOp::Not, Box::new(inner)));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr, IrError> {
        let token = self.bump();
        match token.tok {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    Ok(Expr::Call(name, args))
                } else if self.eat_punct("[") {
                    let index = self.expr()?;
                    self.expect_punct("]")?;
                    Ok(Expr::Index(name, Box::new(index)))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Tok::Punct("(") => {
                let inner = self.expr()?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            _ => Err(Self::err_at(&token, "expected expression")),
        }
    }
}

fn compound_op(op: &str) -> BinOp {
    match op {
        "+=" => BinOp::Add,
        "-=" => BinOp::Sub,
        "*=" => BinOp::Mul,
        "/=" => BinOp::Div,
        _ => unreachable!("not a compound assignment operator: {op}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_dot_product() {
        let program = parse_program(
            "double dot(double a[], double b[], int n) {
                 double s = 0.0;
                 for (int i = 0; i < n; i++) { s += a[i] * b[i]; }
                 return s;
             }",
        )
        .unwrap();
        let f = program.function("dot").unwrap();
        assert_eq!(f.params.len(), 3);
        assert!(f.params[0].is_array);
        assert!(!f.params[2].is_array);
        assert_eq!(f.body.len(), 3);
        assert!(matches!(&f.body[1], Stmt::For { var, .. } if var == "i"));
    }

    #[test]
    fn precedence_mul_binds_tighter() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::binary(
                BinOp::Add,
                Expr::Int(1),
                Expr::binary(BinOp::Mul, Expr::Int(2), Expr::Int(3))
            )
        );
    }

    #[test]
    fn precedence_logical() {
        // a || b && c  ==  a || (b && c)
        let e = parse_expr("a || b && c").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Or, _, _)));
    }

    #[test]
    fn parentheses_override() {
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn unary_chains() {
        // note: `--5` would lex as the decrement operator, exactly like C
        let e = parse_expr("- -5").unwrap();
        assert_eq!(e.as_const_int(), Some(5));
        let e = parse_expr("!!x").unwrap();
        assert!(matches!(e, Expr::Unary(UnOp::Not, _)));
    }

    #[test]
    fn string_and_char_literals() {
        let e = parse_expr("f(\"hello\\n\", 'kernel')").unwrap();
        match e {
            Expr::Call(name, args) => {
                assert_eq!(name, "f");
                assert_eq!(args[0], Expr::Str("hello\n".into()));
                assert_eq!(args[1], Expr::Str("kernel".into()));
            }
            _ => panic!("expected call"),
        }
    }

    #[test]
    fn float_literals_with_exponent() {
        assert_eq!(parse_expr("1.5e3").unwrap(), Expr::Float(1500.0));
        assert_eq!(parse_expr("2e-2").unwrap(), Expr::Float(0.02));
        assert_eq!(parse_expr(".5").unwrap(), Expr::Float(0.5));
    }

    #[test]
    fn compound_assignments_desugar() {
        let program = parse_program("void f(int x) { x += 2; x *= 3; x--; }").unwrap();
        let f = program.function("f").unwrap();
        assert!(matches!(
            &f.body[0],
            Stmt::Assign {
                value: Expr::Binary(BinOp::Add, _, _),
                ..
            }
        ));
        assert!(matches!(
            &f.body[2],
            Stmt::Assign {
                value: Expr::Binary(BinOp::Sub, _, _),
                ..
            }
        ));
    }

    #[test]
    fn array_element_compound_assignment() {
        let program = parse_program("void f(double a[]) { a[3] += 1.0; }").unwrap();
        let f = program.function("f").unwrap();
        match &f.body[0] {
            Stmt::Assign {
                target: LValue::Index(name, _),
                value: Expr::Binary(BinOp::Add, lhs, _),
            } => {
                assert_eq!(name, "a");
                assert!(matches!(&**lhs, Expr::Index(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_else_chains() {
        let program = parse_program(
            "int sign(int x) { if (x > 0) return 1; else if (x < 0) return -1; else return 0; }",
        )
        .unwrap();
        let f = program.function("sign").unwrap();
        match &f.body[0] {
            Stmt::If {
                else_branch: Some(else_branch),
                ..
            } => {
                assert!(matches!(&else_branch[0], Stmt::If { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn while_loop_and_local_arrays() {
        let program = parse_program(
            "int f() { int acc[8]; int i = 0; while (i < 8) { acc[i] = i; i++; } return acc[7]; }",
        )
        .unwrap();
        let f = program.function("f").unwrap();
        assert!(matches!(&f.body[0], Stmt::ArrayDecl { size: 8, .. }));
        assert!(matches!(&f.body[2], Stmt::While { .. }));
    }

    #[test]
    fn custom_precision_type_parses() {
        let program = parse_program("float16 f(float16 x) { return x; }").unwrap();
        let f = program.function("f").unwrap();
        assert_eq!(f.ret, Some(Type::FCustom(16)));
        assert_eq!(f.params[0].ty, Type::FCustom(16));
    }

    #[test]
    fn comments_are_skipped() {
        let program =
            parse_program("// leading\nint f() { /* inner\n comment */ return 1; } // trailing")
                .unwrap();
        assert!(program.contains("f"));
    }

    #[test]
    fn void_function_with_bare_return() {
        let program = parse_program("void f() { return; }").unwrap();
        assert_eq!(program.function("f").unwrap().ret, None);
    }

    #[test]
    fn errors_carry_location() {
        let err = parse_program("int f() {\n  return 1 +;\n}").unwrap_err();
        match err {
            IrError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn for_step_must_touch_loop_var() {
        let err = parse_program("void f() { for (int i = 0; i < 4; j++) {} }").unwrap_err();
        assert!(err.to_string().contains("for-step"));
    }

    /// Slices the token a parse error blames out of the source line.
    fn blamed(source: &str, err: &IrError) -> String {
        let IrError::Parse {
            line, col, end_col, ..
        } = *err
        else {
            panic!("parse error with a span, got {err}");
        };
        let text = source.lines().nth(line as usize - 1).unwrap();
        text.chars()
            .skip(col as usize - 1)
            .take((end_col - col) as usize)
            .collect()
    }

    #[test]
    fn span_points_at_offending_token() {
        // previously these paths blamed the *next* token (or reported a
        // position past the construct); each must now blame the cause
        let src = "void f() { for (double i = 0; i < 4; i++) {} }";
        let err = parse_program(src).unwrap_err();
        assert_eq!(blamed(src, &err), "double", "{err}");

        let src = "void f() { void x = 1; }";
        let err = parse_program(src).unwrap_err();
        assert_eq!(blamed(src, &err), "void", "{err}");

        let src = "void f(void x) { }";
        let err = parse_program(src).unwrap_err();
        assert_eq!(blamed(src, &err), "void", "{err}");

        let src = "void f() { int a[n]; }";
        let err = parse_program(src).unwrap_err();
        assert_eq!(blamed(src, &err), "n", "{err}");

        let src = "void f() { for (int i = 0; i < 4; j++) {} }";
        let err = parse_program(src).unwrap_err();
        assert_eq!(blamed(src, &err), "j", "{err}");
    }

    #[test]
    fn span_covers_multi_column_tokens() {
        let src = "int f() {\n  return 1 + wrong_name(;\n}";
        let err = parse_program(src).unwrap_err();
        // the `;` where an expression was expected, on line 2
        assert!(matches!(err, IrError::Parse { line: 2, .. }), "{err}");
        assert_eq!(blamed(src, &err), ";");
    }

    #[test]
    fn lexical_block_statement() {
        let program = parse_program("void f() { { int x = 1; } }").unwrap();
        let f = program.function("f").unwrap();
        assert!(matches!(
            &f.body[0],
            Stmt::If {
                cond: Expr::Int(1),
                ..
            }
        ));
    }

    #[test]
    fn parse_stmt_entry_point() {
        let stmt = parse_stmt("profile_args(\"kernel\", 3);").unwrap();
        assert!(matches!(stmt, Stmt::ExprStmt(Expr::Call(_, _))));
        assert!(parse_stmt("x = 1; y = 2;").is_err());
    }

    #[test]
    fn trailing_input_rejected_for_expr() {
        assert!(parse_expr("1 + 2 3").is_err());
    }
}
