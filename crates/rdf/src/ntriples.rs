//! Line-oriented N-Triples reader and writer.
//!
//! N-Triples is the exchange format used by the experiment harness for data
//! graphs (one triple per line, absolute IRIs only), which makes loading
//! large generated graphs fast and allocation-light compared to full Turtle.
//!
//! # Reading
//!
//! One byte-level `Scanner` validates a line and splits it into its three
//! raw tokens — delimiters, escapes and literal suffixes included — as
//! slices of the input; nothing is copied or decoded while scanning.
//! [`parse`], [`parse_lossy`] and [`parse_line`] are its only callers.
//!
//! The bulk readers resolve each raw token through a per-document
//! token → [`TermId`] cache, so a [`Term`] is built (escapes decoded,
//! language tags lower-cased) only the first time its spelling appears;
//! real data graphs repeat most of their terms. A second cache builds each
//! distinct literal suffix (`@tag`, `^^<datatype>`, none) once, so
//! literals share one tag and one datatype [`Iri`] value. Tokens are
//! resolved subject, predicate, object, line by line, so ids come out in
//! the same first-occurrence order as inserting the triples one by one.
//! The id triples are then sorted into the graph's indexes in bulk
//! (`Graph::from_id_triples`).
//!
//! The caches are keyed by document text, which may be untrusted (`.nt`
//! files, `/update` bodies), so they keep std's randomly keyed SipHash
//! rather than the unkeyed integer hasher the id indexes use: a fixed hash
//! would let a crafted document force every token into one bucket.
//!
//! Error columns are 1-based character columns of the line as given
//! (leading whitespace included), as in the Turtle parser.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use shapefrag_govern::ErrorCode;

use crate::error::{LossyLoad, ParseError};
use crate::graph::{Graph, IdTriple, Interner, TermId};
use crate::term::{BlankNode, Iri, Literal, Term, Triple};
use crate::vocab::{self, XSD_STRING};

/// Parses an N-Triples document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    let mut loader = Loader::new(input);
    for (lineno, line) in statements(input) {
        let raw = scan(line, lineno)?;
        loader.push(raw);
    }
    Ok(loader.finish())
}

/// Error-recovering parse: the format is line-oriented, so recovery is
/// simply per-line — each malformed line yields one positioned diagnostic
/// and is skipped, every well-formed line contributes its triple.
pub fn parse_lossy(input: &str) -> LossyLoad {
    let mut loader = Loader::new(input);
    let mut report = LossyLoad::default();
    for (lineno, line) in statements(input) {
        match scan(line, lineno) {
            Ok(raw) => {
                loader.push(raw);
                report.statements_ok += 1;
            }
            Err(e) => {
                report.diagnostics.push(e);
                report.statements_skipped += 1;
            }
        }
    }
    report.graph = loader.finish();
    report
}

/// Parses one N-Triples statement; error columns count characters of
/// `line`.
pub fn parse_line(line: &str, lineno: usize) -> Result<Triple, ParseError> {
    let raw = scan(line, lineno)?;
    Ok(Triple {
        subject: term(raw.subject, suffix),
        predicate: iri(raw.predicate),
        object: term(raw.object, suffix),
    })
}

/// The statement lines of a document with their 1-based line numbers:
/// blank lines and comment lines are skipped.
fn statements(input: &str) -> impl Iterator<Item = (usize, &str)> {
    input.lines().enumerate().filter_map(|(idx, line)| {
        let trimmed = line.trim();
        (!trimmed.is_empty() && !trimmed.starts_with('#')).then_some((idx + 1, line))
    })
}

/// Scans one statement; errors are positioned on `line`.
fn scan(line: &str, lineno: usize) -> Result<RawTriple<'_>, ParseError> {
    Scanner {
        line,
        lineno,
        pos: 0,
    }
    .statement()
}

/// One scanned statement: the raw text of each term, delimiters included
/// (`<…>`, `_:…`, `"…"@…`, `"…"^^<…>`), escapes still encoded.
struct RawTriple<'a> {
    subject: &'a str,
    predicate: &'a str,
    object: &'a str,
}

/// What a raw token denotes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Iri,
    Blank,
    Literal,
}

/// Validating byte-level scanner over one line. Token bodies are searched
/// for their ASCII delimiters byte by byte: UTF-8 continuation bytes never
/// equal an ASCII byte, so `pos` is on a char boundary whenever a char is
/// decoded or an error is raised.
struct Scanner<'a> {
    line: &'a str,
    lineno: usize,
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// An error at the current position, as a 1-based char column.
    fn err(&self, code: ErrorCode, message: impl Into<String>) -> ParseError {
        let column = self.line[..self.pos].chars().count() + 1;
        ParseError::with_code(code, self.lineno, column, message)
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn peek_char(&self) -> Option<char> {
        match self.peek()? {
            b if b.is_ascii() => Some(b as char),
            _ => self.line[self.pos..].chars().next(),
        }
    }

    fn bump_char(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek_char().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
    }

    fn statement(&mut self) -> Result<RawTriple<'a>, ParseError> {
        self.skip_ws();
        let (subject, kind) = self.term()?;
        if kind == Kind::Literal {
            return Err(self.err(ErrorCode::BadStructure, "literal in subject position"));
        }
        self.skip_ws();
        let (predicate, kind) = self.term()?;
        if kind != Kind::Iri {
            return Err(self.err(
                ErrorCode::BadStructure,
                format!("predicate must be an IRI, got {}", term(predicate, suffix)),
            ));
        }
        self.skip_ws();
        let (object, _) = self.term()?;
        self.skip_ws();
        if self.peek() != Some(b'.') {
            return Err(self.err(ErrorCode::Syntax, "expected '.' at end of statement"));
        }
        self.pos += 1;
        self.skip_ws();
        match self.peek_char() {
            None | Some('#') => Ok(RawTriple {
                subject,
                predicate,
                object,
            }),
            Some(c) => Err(self.err(
                ErrorCode::Syntax,
                format!("trailing content '{c}' after '.'"),
            )),
        }
    }

    /// Scans one term. A literal's `^^` datatype is itself a term; chains
    /// like `"a"^^"b"^^<t>` are followed iteratively and rejected once
    /// the innermost term is known, at the position after it.
    fn term(&mut self) -> Result<(&'a str, Kind), ParseError> {
        let start = self.pos;
        let mut datatypes = 0;
        let kind = loop {
            match self.peek() {
                Some(b'<') => {
                    self.iri()?;
                    break Kind::Iri;
                }
                Some(b'_') => {
                    self.blank()?;
                    break Kind::Blank;
                }
                Some(b'"') => {
                    self.quoted()?;
                    match self.peek() {
                        Some(b'@') => {
                            self.pos += 1;
                            let tag = self.pos;
                            while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'-')
                            {
                                self.pos += 1;
                            }
                            if self.pos == tag {
                                return Err(self.err(ErrorCode::Syntax, "empty language tag"));
                            }
                            break Kind::Literal;
                        }
                        Some(b'^') => {
                            self.pos += 1;
                            if self.bump_char() != Some('^') {
                                return Err(self.err(ErrorCode::Syntax, "expected '^^'"));
                            }
                            datatypes += 1;
                        }
                        _ => break Kind::Literal,
                    }
                }
                Some(_) => {
                    let c = self.peek_char().unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(self.err(
                        ErrorCode::UnexpectedChar,
                        format!("unexpected character '{c}'"),
                    ));
                }
                None => return Err(self.err(ErrorCode::UnexpectedEof, "unexpected end of line")),
            }
        };
        let raw = &self.line[start..self.pos];
        match (datatypes, kind) {
            (0, kind) => Ok((raw, kind)),
            (1, Kind::Iri) => Ok((raw, Kind::Literal)),
            _ => Err(self.err(ErrorCode::Syntax, "datatype must be an IRI")),
        }
    }

    fn iri(&mut self) -> Result<(), ParseError> {
        self.pos += 1;
        while self.skip_to(b'>') {
            self.pos += 1;
            match self.bump_char() {
                Some('u') => self.unicode_escape(4)?,
                Some('U') => self.unicode_escape(8)?,
                _ => return Err(self.err(ErrorCode::InvalidEscape, "invalid IRI escape")),
            }
        }
        match self.peek() {
            Some(_) => {
                self.pos += 1;
                Ok(())
            }
            None => Err(self.err(ErrorCode::UnterminatedIri, "unterminated IRI")),
        }
    }

    /// Moves to the next `close` byte or backslash, or to the end of the
    /// line; true iff it stopped at a backslash.
    fn skip_to(&mut self, close: u8) -> bool {
        let rest = &self.line.as_bytes()[self.pos..];
        match rest.iter().position(|&b| b == close || b == b'\\') {
            Some(i) => {
                self.pos += i;
                rest[i] == b'\\'
            }
            None => {
                self.pos = self.line.len();
                false
            }
        }
    }

    fn blank(&mut self) -> Result<(), ParseError> {
        self.pos += 1;
        if self.bump_char() != Some(':') {
            return Err(self.err(ErrorCode::Syntax, "expected ':' after '_'"));
        }
        let label = self.pos;
        while let Some(c) = self
            .peek_char()
            .filter(|&c| c.is_alphanumeric() || c == '_' || c == '-')
        {
            self.pos += c.len_utf8();
        }
        if self.pos == label {
            return Err(self.err(ErrorCode::Syntax, "empty blank node label"));
        }
        Ok(())
    }

    /// Scans a quoted lexical form up to and including its closing quote.
    fn quoted(&mut self) -> Result<(), ParseError> {
        self.pos += 1;
        while self.skip_to(b'"') {
            self.pos += 1;
            match self.bump_char() {
                Some('t' | 'n' | 'r' | 'b' | 'f' | '"' | '\'' | '\\') => {}
                Some('u') => self.unicode_escape(4)?,
                Some('U') => self.unicode_escape(8)?,
                Some(c) => {
                    return Err(
                        self.err(ErrorCode::InvalidEscape, format!("invalid escape '\\{c}'"))
                    )
                }
                None => return Err(self.err(ErrorCode::InvalidEscape, "bad escape")),
            }
        }
        match self.peek() {
            Some(_) => {
                self.pos += 1;
                Ok(())
            }
            None => Err(self.err(ErrorCode::UnterminatedString, "unterminated literal")),
        }
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<(), ParseError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            let c = self
                .bump_char()
                .ok_or_else(|| self.err(ErrorCode::InvalidEscape, "short unicode escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.err(ErrorCode::InvalidEscape, "invalid hex digit"))?;
            v = v * 16 + d;
        }
        match char::from_u32(v) {
            Some(_) => Ok(()),
            None => Err(self.err(ErrorCode::InvalidEscape, "invalid code point")),
        }
    }
}

/// The language tag (lower-cased) and datatype of a literal.
type Suffix = (Option<Arc<str>>, Iri);

/// Builds the term of a scanned raw token; `suffix` resolves the raw text
/// after a literal's closing quote (empty, `@tag` or `^^<…>`).
fn term<'a>(raw: &'a str, suffix: impl FnOnce(&'a str) -> Suffix) -> Term {
    match raw.as_bytes()[0] {
        b'<' => Term::Iri(iri(raw)),
        b'_' => Term::Blank(BlankNode::new(&raw[2..])),
        _ => {
            let close = closing_quote(raw);
            let (language, datatype) = suffix(&raw[close + 1..]);
            Term::Literal(Literal::from_parts(
                unescape(&raw[1..close]),
                language,
                datatype,
            ))
        }
    }
}

/// Builds the language tag and datatype of a scanned literal suffix.
fn suffix(raw: &str) -> Suffix {
    if let Some(tag) = raw.strip_prefix('@') {
        (
            Some(tag.to_ascii_lowercase().into()),
            vocab::rdf::lang_string(),
        )
    } else if let Some(dt) = raw.strip_prefix("^^") {
        (None, iri(dt))
    } else {
        (None, vocab::xsd::string())
    }
}

/// Builds the IRI of a scanned raw `<…>` token.
fn iri(raw: &str) -> Iri {
    Iri::new(unescape(&raw[1..raw.len() - 1]))
}

/// Byte index of the quote closing a scanned literal token. Every escape
/// the scanner accepts starts with an ASCII letter or quote, so skipping
/// the byte after a backslash never lands inside a multibyte char.
fn closing_quote(raw: &str) -> usize {
    let bytes = raw.as_bytes();
    let mut i = 1;
    while bytes[i] != b'"' {
        i += if bytes[i] == b'\\' { 2 } else { 1 };
    }
    i
}

/// Decodes the escapes of a scanned token body (borrowing when it has
/// none).
fn unescape(body: &str) -> Cow<'_, str> {
    if !body.contains('\\') {
        return Cow::Borrowed(body);
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('t') => '\t',
            Some('n') => '\n',
            Some('r') => '\r',
            Some('b') => '\u{8}',
            Some('f') => '\u{c}',
            Some('u') => hex_char(&mut chars, 4),
            Some('U') => hex_char(&mut chars, 8),
            Some(c) => c,
            None => '\\',
        });
    }
    Cow::Owned(out)
}

/// Reads the `digits` hex digits of a scanned `\u`/`\U` escape.
fn hex_char(chars: &mut std::str::Chars<'_>, digits: usize) -> char {
    let v = chars
        .take(digits)
        .fold(0, |v, c| v * 16 + c.to_digit(16).unwrap_or(0));
    char::from_u32(v).unwrap_or(char::REPLACEMENT_CHARACTER)
}

/// Bulk-load state shared by [`parse`] and [`parse_lossy`]: the interner,
/// the raw-token caches and the id triples collected so far.
struct Loader<'a> {
    terms: Interner,
    ids: HashMap<&'a str, TermId>,
    suffixes: HashMap<&'a str, Suffix>,
    /// The previous statement's subject token and id (empty before the
    /// first; scanned tokens never are): sorted dumps list a subject's
    /// triples together, so most subjects skip the hash lookup.
    last_subject: (&'a str, TermId),
    triples: Vec<IdTriple>,
}

impl<'a> Loader<'a> {
    /// Sizing: the newline count bounds the statement count, and data
    /// graphs intern well under one new term per statement, so half of it
    /// sizes the term tables without a rehash on typical inputs.
    fn new(input: &str) -> Self {
        // Newlines counted per 255-byte chunk in `u8` lanes, which
        // vectorizes several times wider than one `usize` count.
        let newlines: usize = input
            .as_bytes()
            .chunks(255)
            .map(|chunk| chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n')) as usize)
            .sum();
        let statements = newlines + 1;
        Loader {
            terms: Interner {
                lookup: HashMap::with_capacity(statements / 2),
                terms: Vec::with_capacity(statements / 2),
            },
            ids: HashMap::with_capacity(statements / 2),
            suffixes: HashMap::new(),
            last_subject: ("", TermId(0)),
            triples: Vec::with_capacity(statements),
        }
    }

    fn push(&mut self, raw: RawTriple<'a>) {
        let s = if raw.subject == self.last_subject.0 {
            self.last_subject.1
        } else {
            let s = self.id(raw.subject);
            self.last_subject = (raw.subject, s);
            s
        };
        let p = self.id(raw.predicate);
        let o = self.id(raw.object);
        self.triples.push((s, p, o));
    }

    /// The id of a raw token, building and interning its term on the
    /// token's first appearance. Different spellings of one term (escaped
    /// or not, tag case) miss the cache once each and then share the
    /// interner's id.
    fn id(&mut self, raw: &'a str) -> TermId {
        match self.ids.entry(raw) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let suffixes = &mut self.suffixes;
                let term = term(raw, |s| {
                    suffixes.entry(s).or_insert_with(|| suffix(s)).clone()
                });
                *e.insert(self.terms.intern_owned(term))
            }
        }
    }

    fn finish(self) -> Graph {
        drop(self.ids);
        drop(self.suffixes);
        Graph::from_id_triples(self.terms, self.triples)
    }
}

/// Serializes one term in N-Triples syntax.
fn write_term(out: &mut String, term: &Term) {
    match term {
        Term::Iri(iri) => {
            out.push('<');
            out.push_str(iri.as_str());
            out.push('>');
        }
        Term::Blank(b) => {
            out.push_str("_:");
            out.push_str(b.as_str());
        }
        Term::Literal(lit) => {
            out.push('"');
            out.push_str(&crate::term::escape_literal(lit.lexical()));
            out.push('"');
            if let Some(lang) = lit.language() {
                out.push('@');
                out.push_str(lang);
            } else if lit.datatype().as_str() != XSD_STRING {
                out.push_str("^^<");
                out.push_str(lit.datatype().as_str());
                out.push('>');
            }
        }
    }
}

/// Serializes a graph as N-Triples (sorted, deterministic).
pub fn serialize(graph: &Graph) -> String {
    let mut triples: Vec<_> = graph.iter().collect();
    triples.sort();
    let mut out = String::with_capacity(triples.len() * 64);
    for t in triples {
        write_term(&mut out, &t.subject);
        out.push(' ');
        write_term(&mut out, &Term::Iri(t.predicate.clone()));
        out.push(' ');
        write_term(&mut out, &t.object);
        out.push_str(" .\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::xsd;

    #[test]
    fn parse_basic() {
        let g =
            parse("<http://e/a> <http://e/p> <http://e/b> .\n<http://e/a> <http://e/q> \"lit\" .")
                .unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn parse_typed_and_lang_literals() {
        let g = parse(
            "<http://e/a> <http://e/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n<http://e/a> <http://e/q> \"hi\"@en-GB .",
        )
        .unwrap();
        let objs = g.objects_for(&Term::iri("http://e/a"), &Iri::new("http://e/p"));
        assert_eq!(objs[0].as_literal().unwrap().datatype(), &xsd::integer());
        let objs = g.objects_for(&Term::iri("http://e/a"), &Iri::new("http://e/q"));
        assert_eq!(objs[0].as_literal().unwrap().language(), Some("en-gb"));
    }

    #[test]
    fn parse_blank_nodes() {
        let g = parse("_:a <http://e/p> _:b .").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn comments_and_blank_lines() {
        let g = parse("# comment\n\n<http://e/a> <http://e/p> <http://e/b> . # tail\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn error_reports_line() {
        let err = parse("<http://e/a> <http://e/p> <http://e/b> .\nbogus").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn missing_dot_is_error() {
        assert!(parse("<http://e/a> <http://e/p> <http://e/b>").is_err());
    }

    #[test]
    fn literal_subject_is_error() {
        assert!(parse("\"x\" <http://e/p> <http://e/b> .").is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            Term::iri("http://e/a"),
            Iri::new("http://e/p"),
            Term::Literal(Literal::string("a\"b\\c\nd\te")),
        ));
        let text = serialize(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn serialize_round_trip() {
        let input = "<http://e/a> <http://e/p> <http://e/b> .\n<http://e/a> <http://e/q> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n_:x <http://e/p> \"hi\"@en .\n";
        let g = parse(input).unwrap();
        let g2 = parse(&serialize(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn lossy_skips_bad_lines() {
        let report = parse_lossy(
            "<http://e/a> <http://e/p> <http://e/b> .\n\
             totally bogus line\n\
             <http://e/c> <http://e/p> \"x\" .\n\
             \"lit\" <http://e/p> <http://e/d> .\n\
             <http://e/e> <http://e/p> <http://e/f> .",
        );
        assert_eq!(report.graph.len(), 3);
        assert_eq!(report.statements_ok, 3);
        assert_eq!(report.statements_skipped, 2);
        assert_eq!(report.diagnostics.len(), 2);
        assert_eq!(report.diagnostics[0].line, 2);
        assert_eq!(report.diagnostics[1].line, 4);
        assert_eq!(report.diagnostics[1].code, ErrorCode::BadStructure);
    }

    #[test]
    fn lossy_clean_input() {
        let report = parse_lossy("<http://e/a> <http://e/p> <http://e/b> .\n# comment\n");
        assert!(report.is_clean());
        assert_eq!(report.statements_ok, 1);
        assert_eq!(report.graph.len(), 1);
    }

    #[test]
    fn duplicate_lines_are_one_triple_but_count_as_statements() {
        let doc = "<http://e/a> <http://e/p> \"x\" .\n\
                   <http://e/a> <http://e/p> \"x\" .\n\
                   <http://e/a> <http://e/p> \"x\" .\n";
        assert_eq!(parse(doc).unwrap().len(), 1);
        let report = parse_lossy(doc);
        assert_eq!(report.graph.len(), 1);
        assert_eq!(report.statements_ok, 3);
        assert!(report.is_clean());
    }

    #[test]
    fn ids_match_line_by_line_insert() {
        let doc = "_:b0 <http://e/p> <http://e/\\u0061> .\n\
                   <http://e/a> <http://e/q> \"w\"@EN-gb .\n\
                   <http://e/a> <http://e/q> \"w\"@en-GB .\n\
                   <http://e/c> <http://e/r> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
                   <http://e/c> <http://e/r> \"x\"^^<http://www.w3.org/2001/XMLSchema#string> .\n\
                   <http://e/c> <http://e/r> \"x\" .\n\
                   <http://e/\\U00000063> <http://e/p> _:b0 .\n\
                   <http://e/d> <http://e/p> \"caf\\u00E9 \\\"q\\\" \\t\" .\n";
        let mut expected = Graph::new();
        for (idx, line) in doc.lines().enumerate() {
            expected.insert(parse_line(line, idx + 1).unwrap());
        }
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), expected.len());
        assert_eq!(g.terms.len(), expected.terms.len());
        for i in 0..g.terms.len() as u32 {
            assert_eq!(g.term(TermId(i)), expected.term(TermId(i)));
        }
        assert_eq!(
            g.iter_ids().collect::<Vec<_>>(),
            expected.iter_ids().collect::<Vec<_>>()
        );
        assert_eq!(g, expected);
        assert_eq!(g.node_ids(), expected.node_ids());
        assert_eq!(
            g.freeze().iter_ids().collect::<Vec<_>>(),
            expected.freeze().iter_ids().collect::<Vec<_>>()
        );
    }

    #[test]
    fn error_column_counts_indentation() {
        let err = parse(
            "<http://e/a> <http://e/p> <http://e/b> .\n  \t<http://e/a> <http://e/p> bogus .",
        )
        .unwrap_err();
        assert_eq!((err.line, err.column), (2, 30));
        assert_eq!(err.code, ErrorCode::UnexpectedChar);
    }

    #[test]
    fn error_column_counts_chars_after_non_ascii() {
        let err = parse("<http://e/a> <http://e/p> \"café\" x .").unwrap_err();
        assert_eq!((err.line, err.column), (1, 34));
        let err = parse("<http://e/a> <http://e/p> \"café").unwrap_err();
        assert_eq!((err.column, err.code), (32, ErrorCode::UnterminatedString));
    }

    #[test]
    fn parse_line_columns_are_relative_to_the_given_line() {
        let err = parse_line("  <http://e/a> <http://e/p> .", 7).unwrap_err();
        assert_eq!((err.line, err.column), (7, 29));
        assert_eq!(err.code, ErrorCode::UnexpectedChar);
    }

    #[test]
    fn datatype_chains_are_rejected_after_the_innermost_term() {
        let err =
            parse_line("<http://e/a> <http://e/p> \"a\"^^\"b\"^^<http://e/t> .", 1).unwrap_err();
        assert_eq!(err.column, 49);
        assert_eq!(err.message, "datatype must be an IRI");
        let err = parse_line("<http://e/a> <http://e/p> \"a\"^^_:b .", 1).unwrap_err();
        assert_eq!(err.column, 35);
    }

    #[test]
    fn unicode_escape_in_literal() {
        let g = parse("<http://e/a> <http://e/p> \"caf\\u00E9\" .").unwrap();
        let objs = g.objects_for(&Term::iri("http://e/a"), &Iri::new("http://e/p"));
        assert_eq!(objs[0].as_literal().unwrap().lexical(), "café");
    }
}
