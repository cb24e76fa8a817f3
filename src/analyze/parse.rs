//! Registry-free Rust lexer + item parser for the static analyses.
//!
//! The workspace's one Rust lexer — the repo lint (`crate::lint`) and
//! every analysis tokenize through [`lex`]. It produces a real token stream
//! (identifiers, string literals *with contents* — lock class names and
//! fault site names live in strings — numbers, lifetimes, punctuation),
//! and a recursive-descent item parser that builds a per-file table of
//! functions (with their own body tokens, nested items excluded), type
//! definitions (fields/variants in declaration order, derive lists) and
//! consts. No `syn`, no registry: the grammar subset is exactly what the
//! workspace uses, and the parser is total — malformed input degrades to
//! fewer recognized items, never a panic.

use std::fmt;

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// String literal (normal, raw, byte, raw-byte) with its contents.
    Str(String),
    /// Char or byte-char literal (contents never matter to us).
    Char,
    /// Numeric literal (integer or float, any base, suffix included).
    Num(String),
    /// Lifetime, without the leading quote (`'a` → `a`).
    Life(String),
    /// Single punctuation character (`::` is two `P(':')` tokens).
    P(char),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    /// 1-based source line.
    pub line: usize,
}

impl Token {
    pub fn is_p(&self, c: char) -> bool {
        matches!(self.tok, Tok::P(p) if p == c)
    }
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
    pub fn str_lit(&self) -> Option<&str> {
        match &self.tok {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }
    /// Token text for canonical (formatting-independent) rendering.
    pub fn text(&self) -> String {
        match &self.tok {
            Tok::Ident(s) | Tok::Num(s) => s.clone(),
            Tok::Str(s) => format!("{s:?}"),
            Tok::Char => "'?'".into(),
            Tok::Life(l) => format!("'{l}"),
            Tok::P(c) => c.to_string(),
        }
    }
}

/// Canonical one-line rendering of a token slice: every token's text
/// joined by single spaces, so reformatting the source cannot change it.
pub fn toks_to_string(toks: &[Token]) -> String {
    toks.iter().map(|t| t.text()).collect::<Vec<_>>().join(" ")
}

// ---------------------------------------------------------------- lexer

/// Tokenizes Rust source. Comments vanish; everything else survives.
/// Handles nested block comments, raw/byte/raw-byte strings, and the
/// char-literal vs lifetime ambiguity.
pub fn lex(content: &str) -> Vec<Token> {
    let b: Vec<char> = content.chars().collect();
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 1u32;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            let start_line = line;
            let (s, ni) = lex_plain_string(&b, i + 1, &mut line);
            out.push(Token {
                tok: Tok::Str(s),
                line: start_line,
            });
            i = ni;
        } else if (c == 'r' || c == 'b') && !prev_is_ident(&b, i) {
            if let Some((tok, ni)) = try_prefixed_literal(&b, i, &mut line) {
                let start_line = line;
                // line already advanced inside; tag with the line the
                // literal *ended* on is fine for our purposes.
                out.push(Token {
                    tok,
                    line: start_line,
                });
                i = ni;
            } else {
                let (s, ni) = lex_ident(&b, i);
                out.push(Token {
                    tok: Tok::Ident(s),
                    line,
                });
                i = ni;
            }
        } else if c == '\'' {
            match b.get(i + 1) {
                Some('\\') => {
                    // Escaped char literal: skip to the closing quote.
                    i += 2;
                    while i < b.len() && b[i] != '\'' {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                    out.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                }
                Some(&n) if n != '\'' && b.get(i + 2) == Some(&'\'') => {
                    out.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                    i += 3;
                }
                Some(&n) if n.is_alphabetic() || n == '_' => {
                    let (s, ni) = lex_ident(&b, i + 1);
                    out.push(Token {
                        tok: Tok::Life(s),
                        line,
                    });
                    i = ni;
                }
                _ => {
                    out.push(Token {
                        tok: Tok::P('\''),
                        line,
                    });
                    i += 1;
                }
            }
        } else if c.is_alphabetic() || c == '_' {
            let (s, ni) = lex_ident(&b, i);
            out.push(Token {
                tok: Tok::Ident(s),
                line,
            });
            i = ni;
        } else if c.is_ascii_digit() {
            let mut j = i;
            while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            if b.get(j) == Some(&'.') && b.get(j + 1).is_some_and(|d| d.is_ascii_digit()) {
                j += 1;
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
            }
            out.push(Token {
                tok: Tok::Num(b[i..j].iter().collect()),
                line,
            });
            i = j;
        } else {
            out.push(Token {
                tok: Tok::P(c),
                line,
            });
            i += 1;
        }
    }
    out
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

fn lex_ident(b: &[char], i: usize) -> (String, usize) {
    let mut j = i;
    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
        j += 1;
    }
    (b[i..j].iter().collect(), j)
}

/// Plain `"..."` body starting just after the opening quote. Escaped
/// chars are passed through verbatim (class/site names never use them).
fn lex_plain_string(b: &[char], mut i: usize, line: &mut usize) -> (String, usize) {
    let mut s = String::new();
    while i < b.len() {
        match b[i] {
            '\\' => {
                if let Some(&n) = b.get(i + 1) {
                    if n == '\n' {
                        *line += 1;
                    }
                    s.push(n);
                }
                i += 2;
            }
            '"' => return (s, i + 1),
            c => {
                if c == '\n' {
                    *line += 1;
                }
                s.push(c);
                i += 1;
            }
        }
    }
    (s, i)
}

/// `r"…"`, `r#"…"#`, `b"…"`, `b'…'`, `br#"…"#` at position `i`, or None
/// if this is just an identifier starting with r/b.
fn try_prefixed_literal(b: &[char], i: usize, line: &mut usize) -> Option<(Tok, usize)> {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        match b.get(j) {
            Some('\'') => {
                // Byte char: b'x' or b'\n'.
                j += 1;
                if b.get(j) == Some(&'\\') {
                    j += 1;
                }
                while j < b.len() && b[j] != '\'' {
                    j += 1;
                }
                return Some((Tok::Char, j + 1));
            }
            Some('"') => {
                let (s, ni) = lex_plain_string(b, j + 1, line);
                return Some((Tok::Str(s), ni));
            }
            Some('r') => j += 1,
            _ => return None,
        }
    }
    // Now expect r#*" (j points at 'r' for the plain-r case).
    if b[j] == 'r' {
        j += 1;
    }
    let mut hashes = 0usize;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    let mut s = String::new();
    while j < b.len() {
        if b[j] == '"' && (0..hashes).all(|k| b.get(j + 1 + k) == Some(&'#')) {
            return Some((Tok::Str(s), j + 1 + hashes));
        }
        if b[j] == '\n' {
            *line += 1;
        }
        s.push(b[j]);
        j += 1;
    }
    Some((Tok::Str(s), j))
}

// ---------------------------------------------------------------- items

/// A parsed function (free fn, method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// `impl`/`trait` owner type name, `None` for free functions.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Inside a `#[cfg(test)]` region or carrying `#[test]`.
    pub in_test: bool,
    /// The function's own body tokens; nested item bodies are excluded
    /// (they get their own `FnItem`/`TypeItem` entries).
    pub body: Vec<Token>,
    /// Raw parameter-list tokens (between the signature parens).
    pub params: Vec<Token>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    Struct,
    Enum,
}

impl fmt::Display for TypeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TypeKind::Struct => "struct",
            TypeKind::Enum => "enum",
        })
    }
}

#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name; tuple fields are `"0"`, `"1"`, …
    pub name: String,
    /// Canonical type rendering (see [`toks_to_string`]).
    pub ty: String,
}

#[derive(Debug, Clone)]
pub struct VariantDef {
    pub name: String,
    /// Empty for unit variants.
    pub fields: Vec<FieldDef>,
}

#[derive(Debug, Clone)]
pub struct TypeItem {
    pub name: String,
    pub kind: TypeKind,
    pub line: usize,
    pub in_test: bool,
    /// Traits named in `#[derive(...)]` attributes.
    pub derives: Vec<String>,
    /// Struct fields, declaration order. Empty for enums.
    pub fields: Vec<FieldDef>,
    /// Enum variants, declaration order. Empty for structs.
    pub variants: Vec<VariantDef>,
}

#[derive(Debug, Clone)]
pub struct ConstItem {
    pub name: String,
    pub line: usize,
    /// Tokens after the `=`, up to the terminating `;`.
    pub value: Vec<Token>,
}

/// Everything the analyses need from one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Root-relative path with forward slashes.
    pub rel: String,
    pub fns: Vec<FnItem>,
    pub types: Vec<TypeItem>,
    pub consts: Vec<ConstItem>,
}

/// Parses one file. Total: never panics, unparseable stretches are
/// skipped token by token.
pub fn parse_file(rel: &str, content: &str) -> ParsedFile {
    let toks = lex(content);
    let mut pf = ParsedFile {
        rel: rel.to_string(),
        ..Default::default()
    };
    let mut cur = Cursor {
        toks: &toks,
        pos: 0,
    };
    parse_items(&mut cur, &Ctx::default(), &mut pf, false);
    pf
}

#[derive(Default, Clone)]
struct Ctx {
    owner: Option<String>,
    in_test: bool,
}

struct Cursor<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }
    fn peek_at(&self, off: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + off)
    }
    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }
    fn eat_p(&mut self, c: char) -> bool {
        if self.peek().is_some_and(|t| t.is_p(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }
    /// Skips a balanced `< … >` group (cursor on `<`). `->`'s `>` does
    /// not close a group, `>>` closes two.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        let mut prev_dash = false;
        while let Some(t) = self.peek() {
            match t.tok {
                Tok::P('<') => depth += 1,
                Tok::P('>') if !prev_dash => {
                    depth -= 1;
                    if depth <= 0 {
                        self.pos += 1;
                        return;
                    }
                }
                _ => {}
            }
            prev_dash = t.is_p('-');
            self.pos += 1;
        }
    }
    /// Skips a balanced group opened by the delimiter under the cursor
    /// (`(`, `[` or `{`), returning the tokens strictly inside it.
    fn skip_group(&mut self) -> &'a [Token] {
        let (open, close) = match self.peek().map(|t| &t.tok) {
            Some(Tok::P('(')) => ('(', ')'),
            Some(Tok::P('[')) => ('[', ']'),
            Some(Tok::P('{')) => ('{', '}'),
            _ => return &[],
        };
        let start = self.pos + 1;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is_p(open) {
                depth += 1;
            } else if t.is_p(close) {
                depth -= 1;
                if depth == 0 {
                    let inner = &self.toks[start..self.pos];
                    self.pos += 1;
                    return inner;
                }
            }
            self.pos += 1;
        }
        &self.toks[start..self.toks.len().min(start)]
    }
    /// Skips to just past the next `;` at paren/bracket/brace depth 0.
    fn skip_to_semi(&mut self) {
        let (mut p, mut b, mut c) = (0i32, 0i32, 0i32);
        while let Some(t) = self.bump() {
            match t.tok {
                Tok::P('(') => p += 1,
                Tok::P(')') => p -= 1,
                Tok::P('[') => b += 1,
                Tok::P(']') => b -= 1,
                Tok::P('{') => c += 1,
                Tok::P('}') => c -= 1,
                Tok::P(';') if p <= 0 && b <= 0 && c <= 0 => return,
                _ => {}
            }
        }
    }
}

/// Accumulated facts from the attributes in front of an item.
#[derive(Default)]
struct Attrs {
    cfg_test: bool,
    is_test: bool,
    derives: Vec<String>,
}

fn parse_attrs(cur: &mut Cursor) -> Attrs {
    let mut a = Attrs::default();
    while cur.peek().is_some_and(|t| t.is_p('#')) {
        cur.bump();
        cur.eat_p('!'); // inner attribute
        if !cur.peek().is_some_and(|t| t.is_p('[')) {
            break;
        }
        let inner = cur.skip_group();
        let idents: Vec<&str> = inner.iter().filter_map(|t| t.ident()).collect();
        if idents.first() == Some(&"cfg") && idents.contains(&"test") && !idents.contains(&"not") {
            a.cfg_test = true;
        }
        if idents.len() == 1 && idents[0] == "test" {
            a.is_test = true;
        }
        if idents.first() == Some(&"derive") {
            a.derives.extend(idents[1..].iter().map(|s| s.to_string()));
        }
    }
    a
}

/// Parses a run of items. When `until_close` is set, stops after
/// consuming the `}` that closes the current block.
fn parse_items(cur: &mut Cursor, ctx: &Ctx, pf: &mut ParsedFile, until_close: bool) {
    while !cur.at_end() {
        if cur.peek().is_some_and(|t| t.is_p('}')) {
            if until_close {
                cur.bump();
            }
            return;
        }
        let attrs = parse_attrs(cur);
        parse_one_item(cur, ctx, pf, attrs);
    }
}

/// Parses the item starting at the cursor (after its attributes), or
/// advances one token if nothing recognizable starts here.
fn parse_one_item(cur: &mut Cursor, ctx: &Ctx, pf: &mut ParsedFile, attrs: Attrs) {
    // Visibility and modifiers.
    if cur.peek().is_some_and(|t| t.is_ident("pub")) {
        cur.bump();
        if cur.peek().is_some_and(|t| t.is_p('(')) {
            cur.skip_group();
        }
    }
    while cur
        .peek()
        .is_some_and(|t| matches!(t.ident(), Some("unsafe" | "async" | "default")))
    {
        cur.bump();
    }
    if cur.peek().is_some_and(|t| t.is_ident("extern")) {
        cur.bump();
        if cur.peek().is_some_and(|t| matches!(t.tok, Tok::Str(_))) {
            cur.bump();
        }
    }
    let Some(kw) = cur.peek().and_then(|t| t.ident()).map(str::to_string) else {
        cur.bump();
        return;
    };
    match kw.as_str() {
        "fn" => parse_fn(cur, ctx, pf, &attrs),
        "struct" | "enum" | "union" => parse_type(cur, ctx, pf, &attrs),
        "impl" => parse_impl(cur, ctx, pf, &attrs),
        "trait" => parse_trait(cur, ctx, pf, &attrs),
        "mod" => {
            cur.bump();
            cur.bump(); // name
            if cur.eat_p(';') {
                return;
            }
            if cur.peek().is_some_and(|t| t.is_p('{')) {
                cur.bump();
                let inner = Ctx {
                    owner: None,
                    in_test: ctx.in_test || attrs.cfg_test,
                };
                parse_items(cur, &inner, pf, true);
            }
        }
        "const" | "static" => {
            cur.bump();
            if cur.peek().is_some_and(|t| t.is_ident("fn")) {
                parse_fn(cur, ctx, pf, &attrs);
                return;
            }
            cur.eat_p('_'); // `const _: () = …`
            let name = cur.peek().and_then(|t| t.ident()).map(str::to_string);
            let line = cur.peek().map_or(0, |t| t.line);
            // Find `=` then capture the value up to the top-level `;`.
            let val_start = {
                let (mut p, mut b, mut c) = (0i32, 0i32, 0i32);
                let mut eq = None;
                let mut j = cur.pos;
                while let Some(t) = cur.toks.get(j) {
                    match t.tok {
                        Tok::P('(') => p += 1,
                        Tok::P(')') => p -= 1,
                        Tok::P('[') => b += 1,
                        Tok::P(']') => b -= 1,
                        Tok::P('{') => c += 1,
                        Tok::P('}') => c -= 1,
                        Tok::P('=') if p == 0 && b == 0 && c == 0 && eq.is_none() => {
                            eq = Some(j + 1)
                        }
                        Tok::P(';') if p <= 0 && b <= 0 && c <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                eq
            };
            cur.skip_to_semi();
            if let (Some(name), Some(vs)) = (name, val_start) {
                let end = cur.pos.saturating_sub(1).max(vs);
                pf.consts.push(ConstItem {
                    name,
                    line,
                    value: cur.toks[vs..end].to_vec(),
                });
            }
        }
        "use" | "type" => cur.skip_to_semi(),
        "macro_rules" => {
            cur.bump();
            cur.eat_p('!');
            cur.bump(); // macro name
            cur.skip_group();
        }
        _ => {
            cur.bump();
        }
    }
}

fn parse_fn(cur: &mut Cursor, ctx: &Ctx, pf: &mut ParsedFile, attrs: &Attrs) {
    let fn_line = cur.peek().map_or(0, |t| t.line);
    cur.bump(); // `fn`
    let Some(name) = cur.peek().and_then(|t| t.ident()).map(str::to_string) else {
        return;
    };
    cur.bump();
    if cur.peek().is_some_and(|t| t.is_p('<')) {
        cur.skip_angles();
    }
    let params = if cur.peek().is_some_and(|t| t.is_p('(')) {
        cur.skip_group().to_vec()
    } else {
        Vec::new()
    };
    // Return type / where clause: scan for the body `{` or a decl-only
    // `;` at paren/bracket depth 0.
    let (mut p, mut b) = (0i32, 0i32);
    loop {
        let Some(t) = cur.peek() else { return };
        match t.tok {
            Tok::P('(') => p += 1,
            Tok::P(')') => p -= 1,
            Tok::P('[') => b += 1,
            Tok::P(']') => b -= 1,
            Tok::P(';') if p <= 0 && b <= 0 => {
                cur.bump();
                pf.fns.push(FnItem {
                    name,
                    owner: ctx.owner.clone(),
                    line: fn_line,
                    in_test: ctx.in_test || attrs.cfg_test || attrs.is_test,
                    body: Vec::new(),
                    params,
                });
                return;
            }
            Tok::P('{') if p <= 0 && b <= 0 => break,
            _ => {}
        }
        cur.bump();
    }
    cur.bump(); // `{`
    let in_test = ctx.in_test || attrs.cfg_test || attrs.is_test;
    let body_ctx = Ctx {
        owner: None,
        in_test,
    };
    let body = parse_body(cur, &body_ctx, pf);
    pf.fns.push(FnItem {
        name,
        owner: ctx.owner.clone(),
        line: fn_line,
        in_test,
        body,
        params,
    });
}

/// Collects a `{ … }` body (opening brace already consumed), recursing
/// into nested items so their tokens don't pollute the parent body.
fn parse_body(cur: &mut Cursor, ctx: &Ctx, pf: &mut ParsedFile) -> Vec<Token> {
    let mut body = Vec::new();
    let mut depth = 1i32;
    while let Some(t) = cur.peek() {
        match &t.tok {
            Tok::P('{') => {
                depth += 1;
                body.push(t.clone());
                cur.bump();
            }
            Tok::P('}') => {
                depth -= 1;
                if depth == 0 {
                    cur.bump();
                    return body;
                }
                body.push(t.clone());
                cur.bump();
            }
            Tok::Ident(kw) if is_nested_item_start(cur, kw, &body) => {
                parse_one_item(cur, ctx, pf, Attrs::default());
            }
            _ => {
                body.push(t.clone());
                cur.bump();
            }
        }
    }
    body
}

/// Is the keyword under the cursor the start of a nested item inside a
/// function body (as opposed to e.g. an `fn(…)` pointer type or a
/// `.union(…)` method call)?
fn is_nested_item_start(cur: &Cursor, kw: &str, body: &[Token]) -> bool {
    let prev_dot_or_colon = body
        .last()
        .is_some_and(|t| t.is_p('.') || t.is_p(':') || t.is_p('*'));
    if prev_dot_or_colon {
        return false;
    }
    let next_is_ident = cur
        .peek_at(1)
        .is_some_and(|t| matches!(t.tok, Tok::Ident(_)));
    match kw {
        "fn" | "mod" | "trait" | "struct" | "enum" => next_is_ident,
        // `union` is a contextual keyword — require `union Name {`.
        "union" => next_is_ident && cur.peek_at(2).is_some_and(|t| t.is_p('{')),
        "impl" => cur
            .peek_at(1)
            .is_some_and(|t| matches!(t.tok, Tok::Ident(_) | Tok::P('<'))),
        "macro_rules" => cur.peek_at(1).is_some_and(|t| t.is_p('!')),
        _ => false,
    }
}

fn parse_type(cur: &mut Cursor, ctx: &Ctx, pf: &mut ParsedFile, attrs: &Attrs) {
    let kind = match cur.peek().and_then(|t| t.ident()) {
        Some("enum") => TypeKind::Enum,
        _ => TypeKind::Struct, // `struct` and `union` alike
    };
    let line = cur.peek().map_or(0, |t| t.line);
    cur.bump();
    let Some(name) = cur.peek().and_then(|t| t.ident()).map(str::to_string) else {
        return;
    };
    cur.bump();
    if cur.peek().is_some_and(|t| t.is_p('<')) {
        cur.skip_angles();
    }
    // Optional where clause before the body.
    if cur.peek().is_some_and(|t| t.is_ident("where")) {
        while let Some(t) = cur.peek() {
            if t.is_p('{') || t.is_p(';') || t.is_p('(') {
                break;
            }
            cur.bump();
        }
    }
    let mut item = TypeItem {
        name,
        kind,
        line,
        in_test: ctx.in_test || attrs.cfg_test,
        derives: attrs.derives.clone(),
        fields: Vec::new(),
        variants: Vec::new(),
    };
    if cur.eat_p(';') {
        // Unit struct.
    } else if cur.peek().is_some_and(|t| t.is_p('(')) {
        let inner = cur.skip_group();
        item.fields = tuple_fields(inner);
        cur.eat_p(';');
    } else if cur.peek().is_some_and(|t| t.is_p('{')) {
        let inner = cur.skip_group().to_vec();
        match kind {
            TypeKind::Struct => item.fields = named_fields(&inner),
            TypeKind::Enum => item.variants = enum_variants(&inner),
        }
    }
    pf.types.push(item);
}

/// Splits a token run at top-level commas.
fn split_commas(toks: &[Token]) -> Vec<&[Token]> {
    let mut parts = Vec::new();
    let (mut p, mut b, mut c, mut a) = (0i32, 0i32, 0i32, 0i32);
    let mut prev_dash = false;
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        match t.tok {
            Tok::P('(') => p += 1,
            Tok::P(')') => p -= 1,
            Tok::P('[') => b += 1,
            Tok::P(']') => b -= 1,
            Tok::P('{') => c += 1,
            Tok::P('}') => c -= 1,
            Tok::P('<') => a += 1,
            Tok::P('>') if !prev_dash => a -= 1,
            Tok::P(',') if p == 0 && b == 0 && c == 0 && a <= 0 => {
                parts.push(&toks[start..i]);
                start = i + 1;
                a = a.max(0);
            }
            _ => {}
        }
        prev_dash = t.is_p('-');
    }
    if start < toks.len() {
        parts.push(&toks[start..]);
    }
    parts
}

/// Strips leading attributes and visibility from a field chunk.
fn strip_field_prefix(mut toks: &[Token]) -> &[Token] {
    loop {
        if toks.first().is_some_and(|t| t.is_p('#')) {
            // `#[…]`
            let mut d = 0i32;
            let mut end = toks.len();
            for (i, t) in toks.iter().enumerate().skip(1) {
                if t.is_p('[') {
                    d += 1;
                } else if t.is_p(']') {
                    d -= 1;
                    if d == 0 {
                        end = i + 1;
                        break;
                    }
                }
            }
            toks = &toks[end.min(toks.len())..];
            continue;
        }
        if toks.first().is_some_and(|t| t.is_ident("pub")) {
            toks = &toks[1..];
            if toks.first().is_some_and(|t| t.is_p('(')) {
                let mut d = 0i32;
                let mut end = toks.len();
                for (i, t) in toks.iter().enumerate() {
                    if t.is_p('(') {
                        d += 1;
                    } else if t.is_p(')') {
                        d -= 1;
                        if d == 0 {
                            end = i + 1;
                            break;
                        }
                    }
                }
                toks = &toks[end.min(toks.len())..];
            }
            continue;
        }
        return toks;
    }
}

fn tuple_fields(toks: &[Token]) -> Vec<FieldDef> {
    split_commas(toks)
        .into_iter()
        .map(strip_field_prefix)
        .filter(|c| !c.is_empty())
        .enumerate()
        .map(|(i, chunk)| FieldDef {
            name: i.to_string(),
            ty: toks_to_string(chunk),
        })
        .collect()
}

fn named_fields(toks: &[Token]) -> Vec<FieldDef> {
    split_commas(toks)
        .into_iter()
        .map(strip_field_prefix)
        .filter(|c| c.len() >= 3)
        .filter_map(|chunk| {
            let name = chunk[0].ident()?.to_string();
            if !chunk[1].is_p(':') {
                return None;
            }
            Some(FieldDef {
                name,
                ty: toks_to_string(&chunk[2..]),
            })
        })
        .collect()
}

fn enum_variants(toks: &[Token]) -> Vec<VariantDef> {
    split_commas(toks)
        .into_iter()
        .map(strip_field_prefix)
        .filter(|c| !c.is_empty())
        .filter_map(|chunk| {
            let name = chunk[0].ident()?.to_string();
            let mut fields = Vec::new();
            if let Some(t) = chunk.get(1) {
                if t.is_p('(') {
                    // Tuple variant: inner tokens up to the matching `)`.
                    let mut d = 0i32;
                    let mut end = chunk.len();
                    for (i, t) in chunk.iter().enumerate().skip(1) {
                        if t.is_p('(') {
                            d += 1;
                        } else if t.is_p(')') {
                            d -= 1;
                            if d == 0 {
                                end = i;
                                break;
                            }
                        }
                    }
                    fields = tuple_fields(&chunk[2..end.min(chunk.len())]);
                } else if t.is_p('{') {
                    let mut d = 0i32;
                    let mut end = chunk.len();
                    for (i, t) in chunk.iter().enumerate().skip(1) {
                        if t.is_p('{') {
                            d += 1;
                        } else if t.is_p('}') {
                            d -= 1;
                            if d == 0 {
                                end = i;
                                break;
                            }
                        }
                    }
                    fields = named_fields(&chunk[2..end.min(chunk.len())]);
                }
            }
            Some(VariantDef { name, fields })
        })
        .collect()
}

fn parse_impl(cur: &mut Cursor, ctx: &Ctx, pf: &mut ParsedFile, attrs: &Attrs) {
    cur.bump(); // `impl`
    if cur.peek().is_some_and(|t| t.is_p('<')) {
        cur.skip_angles();
    }
    // Header tokens up to the body `{`.
    let start = cur.pos;
    let (mut p, mut b) = (0i32, 0i32);
    while let Some(t) = cur.peek() {
        match t.tok {
            Tok::P('(') => p += 1,
            Tok::P(')') => p -= 1,
            Tok::P('[') => b += 1,
            Tok::P(']') => b -= 1,
            Tok::P('{') if p <= 0 && b <= 0 => break,
            _ => {}
        }
        cur.bump();
    }
    let header = &cur.toks[start..cur.pos];
    let owner = impl_owner(header);
    if !cur.eat_p('{') {
        return;
    }
    let inner = Ctx {
        owner,
        in_test: ctx.in_test || attrs.cfg_test,
    };
    parse_items(cur, &inner, pf, true);
}

/// The self-type name of an `impl` header (tokens between `impl`'s
/// generics and the body `{`): the last angle-depth-0 identifier of the
/// type after `for` (or of the whole header when there is no `for`),
/// stopping at a `where` clause.
fn impl_owner(header: &[Token]) -> Option<String> {
    let mut depth = 0i32;
    let mut after_for: Option<usize> = None;
    let mut where_at: Option<usize> = None;
    let mut prev_dash = false;
    for (i, t) in header.iter().enumerate() {
        match &t.tok {
            Tok::P('<') => depth += 1,
            Tok::P('>') if !prev_dash => depth -= 1,
            Tok::Ident(s) if depth <= 0 && s == "for" => after_for = Some(i + 1),
            Tok::Ident(s) if depth <= 0 && s == "where" && where_at.is_none() => where_at = Some(i),
            _ => {}
        }
        prev_dash = t.is_p('-');
    }
    let lo = after_for.unwrap_or(0);
    let hi = where_at.unwrap_or(header.len()).max(lo);
    let mut depth = 0i32;
    let mut owner = None;
    let mut prev_dash = false;
    for t in &header[lo..hi] {
        match &t.tok {
            Tok::P('<') => depth += 1,
            Tok::P('>') if !prev_dash => depth -= 1,
            Tok::Ident(s) if depth <= 0 && s != "dyn" && s != "mut" => {
                owner = Some(s.clone());
            }
            _ => {}
        }
        prev_dash = t.is_p('-');
    }
    owner
}

fn parse_trait(cur: &mut Cursor, ctx: &Ctx, pf: &mut ParsedFile, attrs: &Attrs) {
    cur.bump(); // `trait`
    let name = cur.peek().and_then(|t| t.ident()).map(str::to_string);
    cur.bump();
    // Generics, supertrait bounds, where clause — up to `{` or `;`.
    let (mut p, mut b) = (0i32, 0i32);
    while let Some(t) = cur.peek() {
        match t.tok {
            Tok::P('(') => p += 1,
            Tok::P(')') => p -= 1,
            Tok::P('[') => b += 1,
            Tok::P(']') => b -= 1,
            Tok::P(';') if p <= 0 && b <= 0 => {
                cur.bump();
                return;
            }
            Tok::P('{') if p <= 0 && b <= 0 => break,
            _ => {}
        }
        cur.bump();
    }
    if !cur.eat_p('{') {
        return;
    }
    let inner = Ctx {
        owner: name,
        in_test: ctx.in_test || attrs.cfg_test,
    };
    parse_items(cur, &inner, pf, true);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> ParsedFile {
        parse_file("x.rs", src)
    }

    #[test]
    fn lexes_strings_chars_lifetimes_and_numbers() {
        let toks = lex(
            r##"let s = r#"raw "x" lit"#; let b = b"by"; let c = 'x'; let d = '\n'; fn f<'a>(x: &'a str) {} let n = 1_000u64; let f2 = 3.25;"##,
        );
        let strs: Vec<&str> = toks.iter().filter_map(|t| t.str_lit()).collect();
        assert_eq!(strs, vec![r#"raw "x" lit"#, "by"]);
        assert_eq!(toks.iter().filter(|t| t.tok == Tok::Char).count(), 2);
        let lifes: Vec<String> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Life(l) => Some(l.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(lifes, vec!["a", "a"]);
        let nums: Vec<String> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Num(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["1_000u64", "3.25"]);
    }

    #[test]
    fn lexes_nested_block_comments_and_keeps_lines() {
        let toks = lex("a /* x /* y */ z */ b\nc");
        let idents: Vec<(&str, usize)> = toks
            .iter()
            .filter_map(|t| t.ident().map(|s| (s, t.line)))
            .collect();
        assert_eq!(idents, vec![("a", 1), ("b", 1), ("c", 2)]);
    }

    #[test]
    fn parses_free_fns_methods_and_owners() {
        let pf = fns(
            "fn free(a: u32) -> u32 { a }\n\
             struct S { x: u64 }\n\
             impl S { fn method(&self) -> u64 { self.x } }\n\
             impl std::fmt::Display for S {\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, \"\") }\n\
             }\n",
        );
        let names: Vec<(Option<&str>, &str)> = pf
            .fns
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![(None, "free"), (Some("S"), "method"), (Some("S"), "fmt")]
        );
    }

    #[test]
    fn nested_items_are_excluded_from_parent_bodies() {
        let pf = fns("fn outer() {\n\
                 struct Guard { n: u32 }\n\
                 impl Drop for Guard { fn drop(&mut self) { inner_call(); } }\n\
                 fn helper() { helper_call(); }\n\
                 outer_call();\n\
             }\n");
        let outer = pf.fns.iter().find(|f| f.name == "outer").unwrap();
        let body = toks_to_string(&outer.body);
        assert!(body.contains("outer_call"));
        assert!(!body.contains("inner_call"), "{body}");
        assert!(!body.contains("helper_call"), "{body}");
        assert!(pf.fns.iter().any(|f| f.name == "drop"));
        assert!(pf.fns.iter().any(|f| f.name == "helper"));
        assert!(pf.types.iter().any(|t| t.name == "Guard"));
    }

    #[test]
    fn fn_pointer_types_and_method_calls_are_not_nested_items() {
        let pf = fns("fn f(cb: fn(u32) -> u32) { let v = a.union(b); let g: fn() = h; }\n");
        assert_eq!(pf.fns.len(), 1);
        let body = toks_to_string(&pf.fns[0].body);
        assert!(body.contains("union"));
    }

    #[test]
    fn cfg_test_marks_fns_and_types() {
        let pf = fns("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n\
             #[test]\nfn standalone() {}\n\
             #[cfg(not(test))]\nfn shipped() {}\n");
        assert!(pf.fns.iter().find(|f| f.name == "t").unwrap().in_test);
        assert!(
            pf.fns
                .iter()
                .find(|f| f.name == "standalone")
                .unwrap()
                .in_test
        );
        assert!(!pf.fns.iter().find(|f| f.name == "shipped").unwrap().in_test);
    }

    #[test]
    fn enums_capture_variants_in_order_with_fields() {
        let pf = fns("#[derive(Debug, Serialize, Deserialize)]\n\
             pub enum Request {\n\
                 Ping,\n\
                 Fund { project: u64, amount: u32 },\n\
                 Blob(Vec<u8>, String),\n\
             }\n");
        let e = &pf.types[0];
        assert_eq!(e.kind, TypeKind::Enum);
        assert_eq!(e.derives, vec!["Debug", "Serialize", "Deserialize"]);
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["Ping", "Fund", "Blob"]);
        assert_eq!(e.variants[1].fields.len(), 2);
        assert_eq!(e.variants[1].fields[0].name, "project");
        assert_eq!(e.variants[1].fields[0].ty, "u64");
        assert_eq!(e.variants[2].fields[0].name, "0");
        assert_eq!(e.variants[2].fields[0].ty, "Vec < u8 >");
    }

    #[test]
    fn structs_capture_fields_and_generics_do_not_confuse() {
        let pf = fns("pub struct Rec<T: Clone> where T: Default {\n\
                 pub id: u64,\n\
                 data: Vec<(T, String)>,\n\
             }\n\
             struct Tup(pub u32, String);\n\
             struct Unit;\n");
        assert_eq!(pf.types.len(), 3);
        let r = &pf.types[0];
        assert_eq!(r.fields.len(), 2);
        assert_eq!(r.fields[1].ty, "Vec < ( T , String ) >");
        assert_eq!(pf.types[1].fields[0].name, "0");
        assert_eq!(pf.types[1].fields[0].ty, "u32");
        assert!(pf.types[2].fields.is_empty());
    }

    #[test]
    fn consts_capture_values() {
        let pf = fns("pub const PROTOCOL_VERSION: u32 = 2;\nconst ARR: [u8; 3] = [1, 2, 3];\npub const SITE: &str = \"wal.append\";\n");
        assert_eq!(pf.consts.len(), 3);
        assert_eq!(toks_to_string(&pf.consts[0].value), "2");
        assert_eq!(pf.consts[2].name, "SITE");
        assert_eq!(pf.consts[2].value[0].str_lit(), Some("wal.append"));
    }

    #[test]
    fn turbofish_and_arrows_survive_generic_skipping() {
        let pf = fns(
            "fn f<F: Fn(u32) -> u64>(g: F) -> u64 { g(collect::<Vec<_>>(x).len() as u32) }\n\
             fn next(&mut self) -> Option<&'static str> { None }\n",
        );
        assert_eq!(pf.fns.len(), 2);
        assert_eq!(pf.fns[0].name, "f");
        assert!(toks_to_string(&pf.fns[0].body).contains("collect"));
        assert_eq!(pf.fns[1].name, "next");
    }

    #[test]
    fn impl_owner_handles_paths_generics_and_for() {
        let check = |src: &str, want: &str| {
            let pf = fns(src);
            assert_eq!(pf.fns[0].owner.as_deref(), Some(want), "src: {src}");
        };
        check("impl Store { fn f(&self) {} }", "Store");
        check("impl<'a> MergeIter<'a> { fn f(&self) {} }", "MergeIter");
        check(
            "impl fmt::Display for Violation { fn f(&self) {} }",
            "Violation",
        );
        check(
            "impl<T: Clone> From<T> for Wrapper<T> where T: Default { fn f(&self) {} }",
            "Wrapper",
        );
    }

    #[test]
    fn trait_decls_and_default_methods() {
        let pf = fns("trait Strategy {\n\
                 fn pick(&self) -> u32;\n\
                 fn name(&self) -> &'static str { \"anon\" }\n\
             }\n");
        assert_eq!(pf.fns.len(), 2);
        assert!(pf
            .fns
            .iter()
            .all(|f| f.owner.as_deref() == Some("Strategy")));
        assert!(pf
            .fns
            .iter()
            .find(|f| f.name == "pick")
            .unwrap()
            .body
            .is_empty());
    }

    #[test]
    fn parser_is_total_on_garbage() {
        for src in [
            "fn",
            "impl {",
            "struct ;;;",
            "enum E { A(",
            "}}}}",
            "fn f( {",
            "const X",
            "'",
            "r#\"unterminated",
        ] {
            let _ = parse_file("g.rs", src); // must not panic
        }
    }
}
