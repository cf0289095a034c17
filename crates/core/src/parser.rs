//! Lexer and recursive-descent parser for the XQuery subset.
//!
//! The grammar follows XQuery 1.0 operator precedence for the constructs we
//! support (see [`crate::ast`]).  Direct element constructors are parsed by
//! switching the lexer into character mode, exactly like a real XQuery
//! scanner does.
//!
//! The lexer works on the UTF-8 bytes of the text with byte offsets and
//! hands out tokens that borrow their text from it: a token allocates
//! nothing, and a name becomes an owned `String` only when it enters the
//! AST.  Every statement is parsed on its way to the plan cache (the cache
//! is keyed by the parsed statement's shape), so this is a hot path.

use std::fmt;

use mxq_engine::CmpOp;
use mxq_staircase::{Axis, NodeTest};

use crate::ast::*;

/// A parse error with a character offset into the query text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Character (not byte) offset of the offending token.
    pub offset: usize,
    /// Human readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XQuery parse error at offset {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Parse a complete query (prolog + body).
pub fn parse_query(src: &str) -> PResult<Query> {
    let mut p = Parser::new(src);
    let q = p.parse_query()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(q)
}

/// Parse a single expression (no prolog).
pub fn parse_expr(src: &str) -> PResult<Expr> {
    let q = parse_query(src)?;
    Ok(q.body)
}

/// Parse an update query: prolog + one or more comma-separated XQuery Update
/// Facility statements (`insert nodes`, `delete nodes`, `replace node`,
/// `replace value of node`, `rename node`).
pub fn parse_update(src: &str) -> PResult<UpdateQuery> {
    let mut p = Parser::new(src);
    let q = p.parse_update_query()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(q)
}

/// Parse a statement, auto-detecting whether the text is a query or an
/// XQuery Update Facility statement list.
///
/// After the shared prolog, a text whose first token is one of the update
/// keywords (`insert`, `delete`, `replace`, `rename`) followed by a valid
/// update statement parses as [`Statement::Update`]; everything else parses
/// as [`Statement::Query`].  A leading update keyword that turns out to be a
/// path step (e.g. the query `insert` selecting `child::insert` elements)
/// falls back to the query grammar.
pub fn parse_statement(src: &str) -> PResult<Statement> {
    let mut p = Parser::new(src);
    let (functions, variables) = p.parse_prolog()?;
    let looks_like_update = ["insert", "delete", "replace", "rename"]
        .iter()
        .any(|kw| p.at_name(kw));
    if looks_like_update {
        let save = p.save();
        match p.parse_update_statements().and_then(|stmts| {
            p.skip_ws();
            if p.at_end() {
                Ok(stmts)
            } else {
                Err(p.err("unexpected trailing input"))
            }
        }) {
            Ok(statements) => {
                return Ok(Statement::Update(UpdateQuery {
                    functions,
                    variables,
                    statements,
                }))
            }
            Err(update_err) => {
                // not a well-formed update — retry as a query; if that fails
                // too, the update-grammar error is the more helpful one
                p.restore(save);
                let body = match p.parse_expr() {
                    Ok(b) => b,
                    Err(_) => return Err(update_err),
                };
                p.skip_ws();
                if !p.at_end() {
                    return Err(update_err);
                }
                return Ok(Statement::Query(Query {
                    functions,
                    variables,
                    body,
                }));
            }
        }
    }
    let body = p.parse_expr()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(Statement::Query(Query {
        functions,
        variables,
        body,
    }))
}

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'s> {
    Name(&'s str),
    Var(&'s str),
    Int(i64),
    Dbl(f64),
    Str(&'s str),
    Sym(Sym),
    Eof,
}

/// A one- or two-character symbol, zero-padded: tokens compare as two
/// bytes, not as strings.
type Sym = [u8; 2];

/// The [`Sym`] of a symbol's text.
const fn sym(text: &str) -> Sym {
    let b = text.as_bytes();
    [b[0], if b.len() > 1 { b[1] } else { 0 }]
}

impl Tok<'_> {
    fn describe(&self) -> String {
        match self {
            Tok::Name(n) => format!("name `{n}`"),
            Tok::Var(v) => format!("variable `${v}`"),
            Tok::Int(i) => format!("integer {i}"),
            Tok::Dbl(d) => format!("number {d}"),
            Tok::Str(_) => "string literal".into(),
            Tok::Sym(s) => format!(
                "`{}`",
                String::from_utf8_lossy(&s[..1 + (s[1] != 0) as usize])
            ),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A binary operator, as [`Parser::parse_binary`] folds it.
#[derive(Clone, Copy)]
enum BinOp {
    Logical { is_and: bool },
    Comparison(CompKind),
    Arith(ArithOp),
}

impl BinOp {
    fn precedence(self) -> u8 {
        match self {
            BinOp::Logical { is_and } => 1 + is_and as u8,
            BinOp::Comparison(_) => 3,
            BinOp::Arith(ArithOp::Add | ArithOp::Sub) => 4,
            BinOp::Arith(_) => 5,
        }
    }
}

/// The binary operator a token denotes after an operand, if any.
fn binary_op(tok: &Tok) -> Option<BinOp> {
    use BinOp::{Arith, Comparison, Logical};
    Some(match *tok {
        Tok::Name("or") => Logical { is_and: false },
        Tok::Name("and") => Logical { is_and: true },
        Tok::Sym([b'=', 0]) => Comparison(CompKind::General(CmpOp::Eq)),
        Tok::Sym([b'!', b'=']) => Comparison(CompKind::General(CmpOp::Ne)),
        Tok::Sym([b'<', b'=']) => Comparison(CompKind::General(CmpOp::Le)),
        Tok::Sym([b'>', b'=']) => Comparison(CompKind::General(CmpOp::Ge)),
        Tok::Sym([b'<', 0]) => Comparison(CompKind::General(CmpOp::Lt)),
        Tok::Sym([b'>', 0]) => Comparison(CompKind::General(CmpOp::Gt)),
        Tok::Sym([b'<', b'<']) => Comparison(CompKind::NodeBefore),
        Tok::Sym([b'>', b'>']) => Comparison(CompKind::NodeAfter),
        Tok::Name("eq") => Comparison(CompKind::Value(CmpOp::Eq)),
        Tok::Name("ne") => Comparison(CompKind::Value(CmpOp::Ne)),
        Tok::Name("lt") => Comparison(CompKind::Value(CmpOp::Lt)),
        Tok::Name("le") => Comparison(CompKind::Value(CmpOp::Le)),
        Tok::Name("gt") => Comparison(CompKind::Value(CmpOp::Gt)),
        Tok::Name("ge") => Comparison(CompKind::Value(CmpOp::Ge)),
        Tok::Name("is") => Comparison(CompKind::NodeIs),
        Tok::Sym([b'+', 0]) => Arith(ArithOp::Add),
        Tok::Sym([b'-', 0]) => Arith(ArithOp::Sub),
        Tok::Sym([b'*', 0]) => Arith(ArithOp::Mul),
        Tok::Name("div") => Arith(ArithOp::Div),
        Tok::Name("idiv") => Arith(ArithOp::IDiv),
        Tok::Name("mod") => Arith(ArithOp::Mod),
        _ => return None,
    })
}

/// A saved lexer position (for backtracking between grammars).
type Saved<'s> = (usize, Option<(Tok<'s>, usize, usize)>);

struct Parser<'s> {
    src: &'s str,
    /// Byte offset into `src`, always on a character boundary.
    pos: usize,
    /// peeked token and the byte offsets it starts at / ends at
    peeked: Option<(Tok<'s>, usize, usize)>,
    /// the last token lexed and the offset it was lexed from
    memo: Option<(usize, (Tok<'s>, usize, usize))>,
}

/// Can `c` continue a name (`-`, `.` and `:` included)?
fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

impl<'s> Parser<'s> {
    fn new(src: &'s str) -> Self {
        Parser {
            src,
            pos: 0,
            peeked: None,
            memo: None,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let at = self.peeked.as_ref().map(|(_, s, _)| *s).unwrap_or(self.pos);
        ParseError {
            // byte → character offset, paid on the error path only
            offset: self.src[..at.min(self.src.len())].chars().count(),
            message: msg.into(),
        }
    }

    fn at_end(&mut self) -> bool {
        self.peek() == &Tok::Eof
    }

    // -- character level helpers -------------------------------------------

    /// The character starting at byte offset `at`; `'\0'` past the end.
    fn char_at(&self, at: usize) -> char {
        match self.src.as_bytes().get(at) {
            None => '\0',
            Some(&b) if b.is_ascii() => b as char,
            Some(_) => self.src[at..].chars().next().unwrap_or('\0'),
        }
    }

    /// The current character (`'\0'` at the end).
    fn ch(&self) -> char {
        self.char_at(self.pos)
    }

    /// The character after the current one.
    fn ch2(&self) -> char {
        self.char_at(self.pos + self.ch().len_utf8())
    }

    /// Step over the current character (no-op at the end).
    fn bump(&mut self) {
        if self.pos < self.src.len() {
            self.pos += self.ch().len_utf8();
        }
    }

    fn rest(&self) -> &'s [u8] {
        &self.src.as_bytes()[self.pos..]
    }

    /// Step over the characters of a token name: alphanumerics, `_`, `-`,
    /// `.` and, when `colons`, a `:` that does not start an axis `::`.
    fn skip_name(&mut self, colons: bool) {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' | b'.' => self.pos += 1,
                b':' if colons && bytes.get(self.pos + 1) != Some(&b':') => self.pos += 1,
                0x80..=0xff if self.ch().is_alphanumeric() => self.bump(),
                _ => break,
            }
        }
    }

    /// Skip whitespace and XQuery comments `(: … :)`, possibly nested.
    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        loop {
            match bytes.get(self.pos) {
                Some(b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c) => self.pos += 1,
                Some(b'(') if bytes.get(self.pos + 1) == Some(&b':') => {
                    let mut depth = 1;
                    self.pos += 2;
                    while depth > 0 && self.ch2() != '\0' {
                        if self.rest().starts_with(b"(:") {
                            depth += 1;
                            self.pos += 2;
                        } else if self.rest().starts_with(b":)") {
                            depth -= 1;
                            self.pos += 2;
                        } else {
                            self.bump();
                        }
                    }
                }
                Some(0x80..=0xff) if self.ch().is_whitespace() => self.bump(),
                _ => return,
            }
        }
    }

    // -- token level --------------------------------------------------------

    #[inline(never)]
    fn lex(&mut self) -> (Tok<'s>, usize, usize) {
        // lexing is a pure function of the position: a token re-lexed after
        // a lookahead was undone (`save`/`restore`) is served from the memo
        let from = self.pos;
        if let Some((at, tok)) = self.memo {
            if at == from {
                self.pos = tok.2;
                return tok;
            }
        }
        let tok = self.lex_uncached();
        self.memo = Some((from, tok));
        tok
    }

    fn lex_uncached(&mut self) -> (Tok<'s>, usize, usize) {
        self.skip_ws();
        let start = self.pos;
        if self.pos >= self.src.len() {
            return (Tok::Eof, start, start);
        }
        let c = self.ch();
        // names (may contain - . : but not start with a digit)
        if c.is_alphabetic() || c == '_' {
            // a name must not swallow `::` (axis separator)
            self.skip_name(true);
            return (Tok::Name(&self.src[start..self.pos]), start, self.pos);
        }
        if c.is_ascii_digit() {
            let mut is_dbl = false;
            loop {
                let (c, next) = (self.ch(), self.ch2());
                let fraction = c == '.' && next.is_ascii_digit();
                let exponent = (c == 'e' || c == 'E') && (next.is_ascii_digit() || next == '-');
                if !(c.is_ascii_digit() || fraction || exponent) {
                    break;
                }
                is_dbl |= fraction || exponent;
                self.pos += 1;
            }
            let text = &self.src[start..self.pos];
            let tok = if is_dbl {
                Tok::Dbl(text.parse().unwrap_or(0.0))
            } else {
                Tok::Int(text.parse().unwrap_or(0))
            };
            return (tok, start, self.pos);
        }
        if c == '"' || c == '\'' {
            let body = start + 1;
            let end = self.src[body..]
                .find(c)
                .map_or(self.src.len(), |i| body + i);
            self.pos = (end + 1).min(self.src.len()); // past the closing quote
            return (Tok::Str(&self.src[body..end]), start, self.pos);
        }
        if c == '$' {
            self.pos += 1;
            self.skip_name(false);
            return (Tok::Var(&self.src[start + 1..self.pos]), start, self.pos);
        }
        // symbols, longest first
        let text = match (c, self.ch2()) {
            ('<', '<') => "<<",
            ('>', '>') => ">>",
            ('<', '=') => "<=",
            ('>', '=') => ">=",
            ('!', '=') => "!=",
            ('/', '/') => "//",
            (':', ':') => "::",
            (':', '=') => ":=",
            ('.', '.') => "..",
            ('(', _) => "(",
            (')', _) => ")",
            ('[', _) => "[",
            (']', _) => "]",
            ('{', _) => "{",
            ('}', _) => "}",
            (',', _) => ",",
            (';', _) => ";",
            ('/', _) => "/",
            ('@', _) => "@",
            ('.', _) => ".",
            ('+', _) => "+",
            ('-', _) => "-",
            ('*', _) => "*",
            ('=', _) => "=",
            ('<', _) => "<",
            ('>', _) => ">",
            _ => "?",
        };
        if text.len() == 2 {
            self.pos += 2;
        } else {
            self.bump();
        }
        (Tok::Sym(sym(text)), start, self.pos)
    }

    /// The next token, lexed at most once.  Called a dozen times per
    /// primary expression by the precedence levels, so the hit path must
    /// inline: lexing lives out of line.
    #[inline]
    fn peek(&mut self) -> &Tok<'s> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lex());
        }
        match &self.peeked {
            Some((t, _, _)) => t,
            None => &Tok::Eof,
        }
    }

    fn next(&mut self) -> Tok<'s> {
        if let Some((t, _, _)) = self.peeked.take() {
            return t;
        }
        self.lex().0
    }

    /// Rewind the character cursor to the start of the peeked token (used to
    /// switch into constructor character mode).
    fn rewind_peek(&mut self) {
        if let Some((_, start, _)) = self.peeked.take() {
            self.pos = start;
        }
    }

    fn expect_sym(&mut self, text: &'static str) -> PResult<()> {
        match self.next() {
            Tok::Sym(s) if s == sym(text) => Ok(()),
            other => Err(self.err(format!("expected `{text}`, found {}", other.describe()))),
        }
    }

    fn expect_name(&mut self, kw: &str) -> PResult<()> {
        match self.next() {
            Tok::Name(n) if n == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, found {}", other.describe()))),
        }
    }

    fn expect_var(&mut self, what: &str) -> PResult<String> {
        match self.next() {
            Tok::Var(v) => Ok(v.to_string()),
            other => Err(self.err(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn at_name(&mut self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Name(n) if *n == kw)
    }

    fn at_sym(&mut self, text: &str) -> bool {
        matches!(self.peek(), Tok::Sym(s) if *s == sym(text))
    }

    fn eat_name(&mut self, kw: &str) -> bool {
        if self.at_name(kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, text: &'static str) -> bool {
        if self.at_sym(text) {
            self.next();
            true
        } else {
            false
        }
    }

    // -- grammar -------------------------------------------------------------

    fn parse_query(&mut self) -> PResult<Query> {
        let (functions, variables) = self.parse_prolog()?;
        let body = self.parse_expr()?;
        Ok(Query {
            functions,
            variables,
            body,
        })
    }

    fn parse_update_query(&mut self) -> PResult<UpdateQuery> {
        let (functions, variables) = self.parse_prolog()?;
        let statements = self.parse_update_statements()?;
        Ok(UpdateQuery {
            functions,
            variables,
            statements,
        })
    }

    fn parse_update_statements(&mut self) -> PResult<Vec<UpdateStmt>> {
        let mut statements = vec![self.parse_update_stmt()?];
        while self.eat_sym(",") {
            statements.push(self.parse_update_stmt()?);
        }
        Ok(statements)
    }

    /// Save the lexer position (for backtracking between grammars).
    fn save(&self) -> Saved<'s> {
        (self.pos, self.peeked)
    }

    /// Restore a previously saved lexer position.
    fn restore(&mut self, save: Saved<'s>) {
        self.pos = save.0;
        self.peeked = save.1;
    }

    fn parse_update_stmt(&mut self) -> PResult<UpdateStmt> {
        if self.eat_name("insert") {
            if !self.eat_name("nodes") {
                self.expect_name("node")?;
            }
            let source = self.parse_expr_single()?;
            let location = if self.eat_name("as") {
                let first = if self.eat_name("first") {
                    true
                } else {
                    self.expect_name("last")?;
                    false
                };
                self.expect_name("into")?;
                if first {
                    InsertLocation::FirstInto
                } else {
                    InsertLocation::LastInto
                }
            } else if self.eat_name("into") {
                InsertLocation::Into
            } else if self.eat_name("before") {
                InsertLocation::Before
            } else if self.eat_name("after") {
                InsertLocation::After
            } else {
                return Err(self.err("expected `into`, `before` or `after`"));
            };
            let target = self.parse_expr_single()?;
            Ok(UpdateStmt::Insert {
                source,
                location,
                target,
            })
        } else if self.eat_name("delete") {
            if !self.eat_name("nodes") {
                self.expect_name("node")?;
            }
            let target = self.parse_expr_single()?;
            Ok(UpdateStmt::Delete { target })
        } else if self.eat_name("replace") {
            let value_of = if self.eat_name("value") {
                self.expect_name("of")?;
                true
            } else {
                false
            };
            self.expect_name("node")?;
            let target = self.parse_expr_single()?;
            self.expect_name("with")?;
            let source = self.parse_expr_single()?;
            Ok(if value_of {
                UpdateStmt::ReplaceValue { target, source }
            } else {
                UpdateStmt::ReplaceNode { target, source }
            })
        } else if self.eat_name("rename") {
            self.expect_name("node")?;
            let target = self.parse_expr_single()?;
            self.expect_name("as")?;
            let new_name = self.parse_expr_single()?;
            Ok(UpdateStmt::Rename { target, new_name })
        } else {
            Err(self
                .err("expected an update statement (`insert`, `delete`, `replace` or `rename`)"))
        }
    }

    fn parse_prolog(&mut self) -> PResult<(Vec<FunctionDecl>, Vec<VarDecl>)> {
        let mut functions = Vec::new();
        let mut variables = Vec::new();
        while self.at_name("declare") {
            self.next();
            if self.eat_name("function") {
                let name = match self.next() {
                    Tok::Name(n) => strip_prefix(n).to_string(),
                    other => {
                        return Err(self.err(format!(
                            "expected function name, found {}",
                            other.describe()
                        )))
                    }
                };
                self.expect_sym("(")?;
                let mut params = Vec::new();
                if !self.at_sym(")") {
                    loop {
                        params.push(self.expect_var("parameter")?);
                        self.skip_type_annotation();
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                }
                self.expect_sym(")")?;
                self.skip_type_annotation();
                self.expect_sym("{")?;
                let body = self.parse_expr()?;
                self.expect_sym("}")?;
                self.expect_sym(";")?;
                functions.push(FunctionDecl { name, params, body });
            } else if self.eat_name("variable") {
                let var = self.expect_var("variable")?;
                self.skip_type_annotation();
                // `declare variable $x external;` — value supplied at
                // execution time, with an optional `:= default`
                let external = self.eat_name("external");
                let init = if self.eat_sym(":=") {
                    Some(self.parse_expr_single()?)
                } else if external {
                    None
                } else {
                    return Err(self.err("expected `:=` or `external` in variable declaration"));
                };
                self.expect_sym(";")?;
                variables.push(VarDecl {
                    name: var,
                    init,
                    external,
                });
            } else {
                return Err(self.err("unsupported declaration (only function/variable)"));
            }
        }
        Ok((functions, variables))
    }

    /// Skip an optional `as SequenceType` annotation.
    fn skip_type_annotation(&mut self) {
        if self.eat_name("as") {
            // consume a name, possibly with occurrence indicator and parens
            if let Tok::Name(_) = self.peek() {
                self.next();
                if self.at_sym("(") {
                    self.next();
                    let _ = self.eat_sym(")");
                }
                if self.at_sym("?") || self.at_sym("*") || self.at_sym("+") {
                    self.next();
                }
            }
        }
    }

    fn parse_expr(&mut self) -> PResult<Expr> {
        let first = self.parse_expr_single()?;
        if !self.at_sym(",") {
            return Ok(first);
        }
        let mut parts = Vec::with_capacity(4);
        parts.push(first);
        while self.eat_sym(",") {
            parts.push(self.parse_expr_single()?);
        }
        Ok(Expr::Sequence(parts))
    }

    fn parse_expr_single(&mut self) -> PResult<Expr> {
        if self.at_name("for") || self.at_name("let") {
            return self.parse_flwor();
        }
        if self.at_name("if") {
            return self.parse_if();
        }
        if self.at_name("some") || self.at_name("every") {
            return self.parse_quantified();
        }
        Ok(self.parse_binary(0)?.0)
    }

    fn parse_flwor(&mut self) -> PResult<Expr> {
        let mut clauses = Vec::new();
        loop {
            if self.eat_name("for") {
                loop {
                    let var = self.expect_var("`$var`")?;
                    self.skip_type_annotation();
                    let at = if self.eat_name("at") {
                        Some(self.expect_var("`$pos`")?)
                    } else {
                        None
                    };
                    self.expect_name("in")?;
                    let source = self.parse_expr_single()?;
                    clauses.push(Clause::For { var, at, source });
                    if !self.eat_sym(",") {
                        break;
                    }
                }
            } else if self.eat_name("let") {
                loop {
                    let var = self.expect_var("`$var`")?;
                    self.skip_type_annotation();
                    self.expect_sym(":=")?;
                    let value = self.parse_expr_single()?;
                    clauses.push(Clause::Let { var, value });
                    if !self.eat_sym(",") {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        let where_ = if self.eat_name("where") {
            Some(Box::new(self.parse_expr_single()?))
        } else {
            None
        };
        let order_by = if self.at_name("order") {
            self.next();
            self.expect_name("by")?;
            let mut keys = Vec::new();
            loop {
                let key = self.parse_expr_single()?;
                let descending = if self.eat_name("descending") {
                    true
                } else {
                    let _ = self.eat_name("ascending");
                    false
                };
                keys.push(OrderKey {
                    key: Box::new(key),
                    descending,
                });
                if !self.eat_sym(",") {
                    break;
                }
            }
            Some(OrderSpec { keys })
        } else {
            None
        };
        self.expect_name("return")?;
        let ret = Box::new(self.parse_expr_single()?);
        Ok(Expr::Flwor {
            clauses,
            where_,
            order_by,
            ret,
        })
    }

    fn parse_if(&mut self) -> PResult<Expr> {
        self.expect_name("if")?;
        self.expect_sym("(")?;
        let cond = Box::new(self.parse_expr()?);
        self.expect_sym(")")?;
        self.expect_name("then")?;
        let then = Box::new(self.parse_expr_single()?);
        self.expect_name("else")?;
        let els = Box::new(self.parse_expr_single()?);
        Ok(Expr::If { cond, then, els })
    }

    fn parse_quantified(&mut self) -> PResult<Expr> {
        let some = self.eat_name("some");
        if !some {
            self.expect_name("every")?;
        }
        let var = self.expect_var("`$var`")?;
        self.expect_name("in")?;
        let source = Box::new(self.parse_expr_single()?);
        self.expect_name("satisfies")?;
        let satisfies = Box::new(self.parse_expr_single()?);
        Ok(Expr::Quantified {
            some,
            var,
            source,
            satisfies,
        })
    }

    /// The binary operators by precedence climbing: `or` < `and` <
    /// comparisons (non-associative) < `+ -` < `* div idiv mod`, each
    /// left-associative level folding left.  One call per operand instead
    /// of one per precedence level.  Returns the expression and the loosest
    /// precedence still allowed to follow it: a comparison caps what may
    /// follow below it at `and`.
    fn parse_binary(&mut self, min: u8) -> PResult<(Expr, u8)> {
        let mut l = self.parse_unary()?;
        let mut max = u8::MAX;
        while let Some(op) = binary_op(self.peek()) {
            let prec = op.precedence();
            if prec < min || prec > max {
                break;
            }
            self.next();
            let (r, r_max) = self.parse_binary(prec + 1)?;
            max = max.min(r_max);
            let (l_box, r_box) = (Box::new(l), Box::new(r));
            l = match op {
                BinOp::Logical { is_and } => Expr::Logical {
                    is_and,
                    l: l_box,
                    r: r_box,
                },
                BinOp::Comparison(kind) => {
                    max = max.min(prec - 1);
                    Expr::Comparison {
                        kind,
                        l: l_box,
                        r: r_box,
                    }
                }
                BinOp::Arith(op) => Expr::Arith {
                    op,
                    l: l_box,
                    r: r_box,
                },
            };
        }
        Ok((l, max))
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        if self.eat_sym("-") {
            let e = self.parse_unary()?;
            return Ok(Expr::Neg(Box::new(e)));
        }
        let _ = self.eat_sym("+");
        self.parse_path()
    }

    fn parse_path(&mut self) -> PResult<Expr> {
        if self.at_sym("/") || self.at_sym("//") {
            return Err(self.err("absolute paths are not supported; start from doc(\"…\")"));
        }
        // the first step is either a primary expression or an axis step
        let (start, mut steps) = if self.starts_axis_step() {
            (Expr::Var(".".into()), vec![self.parse_step()?])
        } else {
            (self.parse_postfix()?, Vec::new())
        };
        loop {
            if self.at_sym("//") {
                self.next();
                steps.push(Step {
                    axis: Axis::DescendantOrSelf,
                    test: NodeTest::AnyKind,
                    predicates: Vec::new(),
                });
                steps.push(self.parse_step()?);
            } else if self.at_sym("/") {
                self.next();
                steps.push(self.parse_step()?);
            } else {
                break;
            }
        }
        if steps.is_empty() {
            Ok(start)
        } else {
            Ok(Expr::Path {
                start: Some(Box::new(start)),
                steps,
            })
        }
    }

    /// Does the upcoming token sequence start an axis step (rather than a
    /// primary expression)?  Name tests, `@`, kind tests, explicit axes, `..`.
    fn starts_axis_step(&mut self) -> bool {
        if self.at_sym("@") || self.at_sym("..") || self.at_sym("*") {
            return true;
        }
        if let Tok::Name(n) = *self.peek() {
            let keyword = matches!(
                n,
                "if" | "for"
                    | "let"
                    | "some"
                    | "every"
                    | "return"
                    | "then"
                    | "else"
                    | "and"
                    | "or"
                    | "div"
                    | "idiv"
                    | "mod"
                    | "eq"
                    | "ne"
                    | "lt"
                    | "le"
                    | "gt"
                    | "ge"
                    | "is"
                    | "to"
                    | "where"
                    | "order"
                    | "satisfies"
                    | "in"
                    | "at"
            );
            if keyword {
                return false;
            }
            // function call → primary, kind test → step, axis:: → step
            let save = self.save();
            self.next();
            let is_call = self.at_sym("(");
            let is_axis = self.at_sym("::");
            self.restore(save);
            if is_axis {
                return true;
            }
            if is_call {
                // kind tests look like calls but are steps
                return matches!(n, "text" | "node" | "comment" | "processing-instruction");
            }
            return true;
        }
        false
    }

    fn parse_step(&mut self) -> PResult<Step> {
        // axis
        let mut axis = Axis::Child;
        if self.at_sym("@") {
            self.next();
            axis = Axis::Attribute;
        } else if self.at_sym("..") {
            self.next();
            return Ok(Step {
                axis: Axis::Parent,
                test: NodeTest::AnyKind,
                predicates: self.parse_predicates()?,
            });
        } else if let Tok::Name(n) = *self.peek() {
            // explicit axis?
            let save = self.save();
            self.next();
            if self.at_sym("::") {
                self.next();
                axis = Axis::parse(n).ok_or_else(|| self.err(format!("unknown axis `{n}`")))?;
            } else {
                self.restore(save);
            }
        }
        // node test
        let test = if self.eat_sym("*") {
            NodeTest::AnyElement
        } else {
            match self.next() {
                Tok::Name(n) => {
                    if self.at_sym("(") {
                        self.next();
                        let inner = if let Tok::Str(s) = *self.peek() {
                            self.next();
                            Some(s)
                        } else {
                            None
                        };
                        self.expect_sym(")")?;
                        match n {
                            "text" => NodeTest::Text,
                            "node" => NodeTest::AnyKind,
                            "comment" => NodeTest::Comment,
                            "processing-instruction" => {
                                NodeTest::ProcessingInstruction(inner.map(|s| s.into()))
                            }
                            other => return Err(self.err(format!("unknown kind test `{other}()`"))),
                        }
                    } else {
                        NodeTest::named(strip_prefix(n))
                    }
                }
                other => {
                    return Err(
                        self.err(format!("expected a node test, found {}", other.describe()))
                    )
                }
            }
        };
        let predicates = self.parse_predicates()?;
        Ok(Step {
            axis,
            test,
            predicates,
        })
    }

    fn parse_predicates(&mut self) -> PResult<Vec<Expr>> {
        let mut preds = Vec::new();
        while self.eat_sym("[") {
            preds.push(self.parse_expr()?);
            self.expect_sym("]")?;
        }
        Ok(preds)
    }

    fn parse_postfix(&mut self) -> PResult<Expr> {
        let prim = self.parse_primary()?;
        // predicates directly on a primary (e.g. `$seq[2]`) become a
        // self-axis step with predicates
        if self.at_sym("[") {
            let predicates = self.parse_predicates()?;
            return Ok(Expr::Path {
                start: Some(Box::new(prim)),
                steps: vec![Step {
                    axis: Axis::SelfAxis,
                    test: NodeTest::AnyKind,
                    predicates,
                }],
            });
        }
        Ok(prim)
    }

    fn parse_primary(&mut self) -> PResult<Expr> {
        // direct element constructor?
        if self.at_sym("<") {
            self.rewind_peek();
            return Ok(Expr::Element(self.parse_element_ctor()?));
        }
        match self.next() {
            Tok::Int(i) => Ok(Expr::Literal(Literal::Integer(i))),
            Tok::Dbl(d) => Ok(Expr::Literal(Literal::Double(d))),
            Tok::Str(s) => Ok(Expr::Literal(Literal::String(s.to_string()))),
            Tok::Var(v) => Ok(Expr::Var(v.to_string())),
            Tok::Sym([b'.', 0]) => Ok(Expr::Var(".".into())),
            Tok::Sym([b'(', 0]) => {
                if self.eat_sym(")") {
                    return Ok(Expr::Empty);
                }
                let e = self.parse_expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Name(n) => {
                // function call
                if self.eat_sym("(") {
                    let mut args = Vec::new();
                    if !self.at_sym(")") {
                        loop {
                            args.push(self.parse_expr_single()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                    }
                    self.expect_sym(")")?;
                    Ok(Expr::FunCall {
                        name: strip_prefix(n).to_string(),
                        args,
                    })
                } else {
                    Err(self.err(format!("unexpected name `{n}` (not a function call)")))
                }
            }
            other => Err(self.err(format!("unexpected {}", other.describe()))),
        }
    }

    // -- direct element constructors (character mode) ------------------------

    fn parse_element_ctor(&mut self) -> PResult<ElementCtor> {
        self.skip_ws();
        if self.ch() != '<' {
            return Err(self.err("expected `<` to start element constructor"));
        }
        self.pos += 1;
        let name = self.read_xml_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws_chars();
            match self.ch() {
                '/' => {
                    if self.ch2() != '>' {
                        return Err(self.err("expected `/>`"));
                    }
                    self.pos += 2;
                    return Ok(ElementCtor {
                        name,
                        attributes,
                        content: Vec::new(),
                    });
                }
                '>' => {
                    self.pos += 1;
                    break;
                }
                '\0' => return Err(self.err("unterminated element constructor")),
                _ => {
                    let aname = self.read_xml_name()?;
                    self.skip_ws_chars();
                    if self.ch() != '=' {
                        return Err(self.err("expected `=` in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws_chars();
                    let quote = self.ch();
                    if quote != '"' && quote != '\'' {
                        return Err(self.err("attribute value must be quoted"));
                    }
                    self.pos += 1;
                    let parts = self.read_attr_parts(quote)?;
                    attributes.push((aname, parts));
                }
            }
        }
        // content until matching close tag
        let mut content = Vec::new();
        loop {
            match self.ch() {
                '\0' => return Err(self.err(format!("unterminated content of <{name}>"))),
                '<' => {
                    if self.ch2() == '/' {
                        self.pos += 2;
                        let close = self.read_xml_name()?;
                        if close != name {
                            return Err(self.err(format!("mismatched </{close}> for <{name}>")));
                        }
                        self.skip_ws_chars();
                        if self.ch() != '>' {
                            return Err(self.err("expected `>`"));
                        }
                        self.pos += 1;
                        break;
                    }
                    let nested = self.parse_element_ctor()?;
                    content.push(Content::Element(Box::new(nested)));
                }
                '{' => {
                    self.pos += 1;
                    let e = self.parse_expr()?;
                    // after expression parsing we are back in token mode; sync chars
                    self.sync_after_tokens();
                    self.skip_ws_chars();
                    if self.ch() != '}' {
                        return Err(self.err("expected `}` closing enclosed expression"));
                    }
                    self.pos += 1;
                    content.push(Content::Expr(e));
                }
                _ => {
                    // boundary whitespace between markup is dropped
                    let text = self.text_run(&['<', '{', '\0']);
                    if !text.trim().is_empty() {
                        content.push(Content::Text(text.to_string()));
                    }
                }
            }
        }
        Ok(ElementCtor {
            name,
            attributes,
            content,
        })
    }

    /// After parsing tokens inside an enclosed expression, drop any peeked
    /// token so character-mode parsing resumes at the right position.
    fn sync_after_tokens(&mut self) {
        self.rewind_peek();
    }

    fn skip_ws_chars(&mut self) {
        while self.ch().is_whitespace() {
            self.bump();
        }
    }

    /// Consume the text up to (not including) the first of `stops` or the
    /// end of the input.
    fn text_run(&mut self, stops: &[char]) -> &'s str {
        let start = self.pos;
        self.pos = self.src[start..]
            .find(stops)
            .map_or(self.src.len(), |i| start + i);
        &self.src[start..self.pos]
    }

    fn read_xml_name(&mut self) -> PResult<String> {
        let start = self.pos;
        while is_name_char(self.ch()) {
            self.bump();
        }
        if start == self.pos {
            return Err(self.err("expected a name"));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn read_attr_parts(&mut self, quote: char) -> PResult<Vec<AttrPart>> {
        let mut parts = Vec::new();
        loop {
            let c = self.ch();
            if c == '\0' {
                return Err(self.err("unterminated attribute value"));
            }
            if c == quote {
                self.pos += 1;
                break;
            }
            if c == '{' {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.sync_after_tokens();
                self.skip_ws_chars();
                if self.ch() != '}' {
                    return Err(self.err("expected `}` in attribute value template"));
                }
                self.pos += 1;
                parts.push(AttrPart::Expr(e));
            } else {
                let text = self.text_run(&[quote, '{', '\0']);
                parts.push(AttrPart::Text(text.to_string()));
            }
        }
        Ok(parts)
    }
}

/// Strip a namespace prefix (`fn:`, `local:`, `xs:`) from a name.
fn strip_prefix(name: &str) -> &str {
    match name.rfind(':') {
        Some(i) => &name[i + 1..],
        None => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_literals_and_sequences() {
        assert_eq!(parse_expr("42").unwrap(), Expr::integer(42));
        assert_eq!(parse_expr("\"hi\"").unwrap(), Expr::string("hi"));
        assert_eq!(parse_expr("()").unwrap(), Expr::Empty);
        match parse_expr("(1, 2, 3)").unwrap() {
            Expr::Sequence(v) => assert_eq!(v.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_flwor_with_where_and_order() {
        let q = parse_expr(
            "for $x at $i in doc(\"a.xml\")/site/item let $y := $x/name where $i > 2 order by $y descending return $y",
        )
        .unwrap();
        match q {
            Expr::Flwor {
                clauses,
                where_,
                order_by,
                ..
            } => {
                assert_eq!(clauses.len(), 2);
                assert!(where_.is_some());
                let spec = order_by.unwrap();
                assert_eq!(spec.keys.len(), 1);
                assert!(spec.keys[0].descending);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_multi_key_order_by() {
        let q = parse_expr(
            "for $x in doc(\"a.xml\")//item \
             order by $x/@dept, $x/price descending, $x/name ascending return $x",
        )
        .unwrap();
        match q {
            Expr::Flwor { order_by, .. } => {
                let spec = order_by.unwrap();
                assert_eq!(spec.keys.len(), 3);
                assert!(!spec.keys[0].descending);
                assert!(spec.keys[1].descending);
                assert!(!spec.keys[2].descending);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_paths_with_axes_and_predicates() {
        let q = parse_expr("$a/child::b//c[@id = \"x\"][2]/text()").unwrap();
        match q {
            Expr::Path { start, steps } => {
                assert_eq!(*start.unwrap(), Expr::Var("a".into()));
                // b, descendant-or-self::node(), c[..][2], text()
                assert_eq!(steps.len(), 4);
                assert_eq!(steps[2].predicates.len(), 2);
                assert_eq!(steps[3].test, NodeTest::Text);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_operators_with_precedence() {
        let q = parse_expr("1 + 2 * 3 = 7 and true()").unwrap();
        match q {
            Expr::Logical {
                is_and: true, l, ..
            } => match *l {
                Expr::Comparison { .. } => {}
                other => panic!("unexpected lhs {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_element_constructor_with_enclosed_exprs() {
        let q =
            parse_expr("<item id=\"{$x/@id}\" kind=\"a\">{$x/name/text()} trailing <b/></item>")
                .unwrap();
        match q {
            Expr::Element(e) => {
                assert_eq!(e.name, "item");
                assert_eq!(e.attributes.len(), 2);
                assert!(matches!(e.attributes[0].1[0], AttrPart::Expr(_)));
                assert_eq!(e.content.len(), 3);
                assert!(matches!(e.content[0], Content::Expr(_)));
                assert!(matches!(e.content[1], Content::Text(_)));
                assert!(matches!(e.content[2], Content::Element(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_quantified_and_if() {
        let q = parse_expr("some $x in $s satisfies $x = 3").unwrap();
        assert!(matches!(q, Expr::Quantified { some: true, .. }));
        let q = parse_expr("if ($a) then 1 else 2").unwrap();
        assert!(matches!(q, Expr::If { .. }));
    }

    #[test]
    fn parses_prolog_functions() {
        let q = parse_query(
            "declare function local:convert($v) { 2.2 * $v }; for $i in doc(\"a.xml\")//reserve return local:convert($i)",
        )
        .unwrap();
        assert_eq!(q.functions.len(), 1);
        assert_eq!(q.functions[0].name, "convert");
        assert_eq!(q.functions[0].params, vec!["v".to_string()]);
    }

    #[test]
    fn parses_node_order_comparison() {
        let q = parse_expr("$a << $b").unwrap();
        assert!(matches!(
            q,
            Expr::Comparison {
                kind: CompKind::NodeBefore,
                ..
            }
        ));
    }

    #[test]
    fn parses_comments_and_whitespace() {
        let q = parse_expr("(: a comment (: nested :) :) 1 + (: x :) 2").unwrap();
        assert!(matches!(q, Expr::Arith { .. }));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_expr("for $x").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("<a>{1}").is_err());
        assert!(parse_expr("/site/people").is_err());
        // offsets count characters, not bytes
        let text = "(\"ü\", 1) +";
        assert_eq!(parse_expr(text).unwrap_err().offset, text.chars().count());
    }

    #[test]
    fn non_ascii_names_text_and_whitespace() {
        let q = parse_expr("<straße n=\"ä{1}\">grüße{$x}</straße>\u{a0}").unwrap();
        let Expr::Element(e) = q else {
            panic!("unexpected {q:?}")
        };
        assert_eq!(e.name, "straße");
        assert_eq!(e.attributes[0].1[0], AttrPart::Text("ä".into()));
        assert_eq!(e.content[0], Content::Text("grüße".into()));
        assert_eq!(
            parse_expr("$größe/élément").unwrap(),
            Expr::Path {
                start: Some(Box::new(Expr::Var("größe".into()))),
                steps: vec![Step {
                    axis: Axis::Child,
                    test: NodeTest::named("élément"),
                    predicates: vec![],
                }],
            }
        );
    }

    #[test]
    fn parses_update_statements() {
        let u = parse_update(
            "insert nodes <bidder/> as last into doc(\"a.xml\")/site/open_auctions/open_auction[1]",
        )
        .unwrap();
        assert!(matches!(
            u.statements[0],
            UpdateStmt::Insert {
                location: InsertLocation::LastInto,
                ..
            }
        ));
        let u = parse_update("insert node <x/> before $t").unwrap();
        assert!(matches!(
            u.statements[0],
            UpdateStmt::Insert {
                location: InsertLocation::Before,
                ..
            }
        ));
        let u = parse_update("delete nodes doc(\"a.xml\")//bidder").unwrap();
        assert!(matches!(u.statements[0], UpdateStmt::Delete { .. }));
        let u = parse_update("replace node $old with <new/>").unwrap();
        assert!(matches!(u.statements[0], UpdateStmt::ReplaceNode { .. }));
        let u = parse_update("replace value of node $n with \"v\"").unwrap();
        assert!(matches!(u.statements[0], UpdateStmt::ReplaceValue { .. }));
        let u = parse_update("rename node $n as \"y\"").unwrap();
        assert!(matches!(u.statements[0], UpdateStmt::Rename { .. }));
    }

    #[test]
    fn parses_multi_statement_update_with_prolog() {
        let u = parse_update(
            "declare variable $d := doc(\"a.xml\"); \
             delete nodes $d//stale, insert nodes <fresh/> as first into $d/root",
        )
        .unwrap();
        assert_eq!(u.variables.len(), 1);
        assert_eq!(u.statements.len(), 2);
    }

    #[test]
    fn parses_external_variable_declarations() {
        let q = parse_query("declare variable $x external; $x + 1").unwrap();
        assert_eq!(q.variables.len(), 1);
        let d = &q.variables[0];
        assert_eq!(d.name, "x");
        assert!(d.external);
        assert!(d.init.is_none());

        let q = parse_query("declare variable $x external := 7; $x").unwrap();
        let d = &q.variables[0];
        assert!(d.external);
        assert_eq!(d.init, Some(Expr::integer(7)));

        let q = parse_query("declare variable $x := 1; $x").unwrap();
        let d = &q.variables[0];
        assert!(!d.external);
        assert_eq!(d.init, Some(Expr::integer(1)));

        // a declaration needs either `external` or a value
        assert!(parse_query("declare variable $x; $x").is_err());
    }

    #[test]
    fn statement_auto_detection() {
        // plain query
        let s = parse_statement("1 + 1").unwrap();
        assert!(!s.is_update());
        // update statement list
        let s = parse_statement("delete nodes doc(\"a.xml\")//stale").unwrap();
        assert!(s.is_update());
        // prolog is shared between the two grammars
        let s = parse_statement(
            "declare variable $d := doc(\"a.xml\"); insert nodes <x/> as last into $d/root",
        )
        .unwrap();
        assert!(s.is_update());
        let s = parse_statement("declare variable $d external; count($d)").unwrap();
        assert!(!s.is_update());
        // an update keyword that is actually a path step falls back to query
        let s = parse_statement("insert").unwrap();
        match s {
            Statement::Query(q) => assert!(matches!(q.body, Expr::Path { .. })),
            other => panic!("unexpected {other:?}"),
        }
        // garbage that starts with an update keyword reports the update error
        assert!(parse_statement("insert nodes <x/> sideways $t").is_err());
        assert!(parse_statement("for $x").is_err());
    }

    #[test]
    fn rejects_malformed_updates() {
        assert!(parse_update("insert nodes <x/>").is_err());
        assert!(parse_update("insert nodes <x/> sideways $t").is_err());
        assert!(parse_update("replace node $x").is_err());
        assert!(parse_update("rename node $x").is_err());
        assert!(parse_update("frobnicate nodes $x").is_err());
        assert!(parse_update("delete nodes $x trailing").is_err());
    }

    #[test]
    fn predicate_on_variable_uses_self_step() {
        let q = parse_expr("$seq[2]").unwrap();
        match q {
            Expr::Path { steps, .. } => {
                assert_eq!(steps[0].axis, Axis::SelfAxis);
                assert_eq!(steps[0].predicates.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
