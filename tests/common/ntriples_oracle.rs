//! Reference N-Triples reader: a straightforward char-vector cursor that
//! builds owned terms token by token and inserts every statement through
//! `Graph::insert`. The production reader in `shapefrag_rdf::ntriples`
//! must agree with it on every input — same triples, same term ids, same
//! lossy counts, same error `(line, column, code)` — which
//! `prop_parser_totality.rs` checks.
//!
//! Error columns are 1-based character columns of the original line
//! (leading whitespace included), as in the Turtle parser.

use shape_fragments::govern::ErrorCode;
use shape_fragments::rdf::{BlankNode, Graph, Iri, Literal, LossyLoad, ParseError, Term, Triple};

/// Strict parse: the first malformed statement aborts the load.
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    let mut graph = Graph::new();
    for (lineno, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        graph.insert(parse_line(line, lineno + 1)?);
    }
    Ok(graph)
}

/// Lossy parse: each malformed line yields one diagnostic and is skipped.
pub fn parse_lossy(input: &str) -> LossyLoad {
    let mut report = LossyLoad::default();
    for (lineno, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse_line(line, lineno + 1) {
            Ok(triple) => {
                report.graph.insert(triple);
                report.statements_ok += 1;
            }
            Err(e) => {
                report.diagnostics.push(e);
                report.statements_skipped += 1;
            }
        }
    }
    report
}

/// Parses one statement; columns count characters of `line`.
pub fn parse_line(line: &str, lineno: usize) -> Result<Triple, ParseError> {
    let mut cursor = Cursor {
        chars: line.chars().collect(),
        pos: 0,
        lineno,
    };
    cursor.skip_ws();
    let subject = cursor.parse_term()?;
    if subject.is_literal() {
        return Err(cursor
            .err("literal in subject position")
            .code(ErrorCode::BadStructure));
    }
    cursor.skip_ws();
    let predicate = match cursor.parse_term()? {
        Term::Iri(iri) => iri,
        other => {
            return Err(cursor
                .err(format!("predicate must be an IRI, got {other}"))
                .code(ErrorCode::BadStructure))
        }
    };
    cursor.skip_ws();
    let object = cursor.parse_term()?;
    cursor.skip_ws();
    match cursor.peek() {
        Some('.') => {
            cursor.pos += 1;
            cursor.skip_ws();
            match cursor.peek() {
                None | Some('#') => Ok(Triple {
                    subject,
                    predicate,
                    object,
                }),
                Some(c) => Err(cursor.err(format!("trailing content '{c}' after '.'"))),
            }
        }
        _ => Err(cursor.err("expected '.' at end of statement")),
    }
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    lineno: usize,
}

impl Cursor {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.lineno, self.pos + 1, msg)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some('<') => {
                self.bump();
                let mut iri = String::new();
                loop {
                    match self.bump() {
                        Some('>') => break,
                        Some('\\') => match self.bump() {
                            Some('u') => iri.push(self.unicode_escape(4)?),
                            Some('U') => iri.push(self.unicode_escape(8)?),
                            _ => {
                                return Err(self
                                    .err("invalid IRI escape")
                                    .code(ErrorCode::InvalidEscape))
                            }
                        },
                        Some(c) => iri.push(c),
                        None => {
                            return Err(self
                                .err("unterminated IRI")
                                .code(ErrorCode::UnterminatedIri))
                        }
                    }
                }
                Ok(Term::Iri(Iri::new(iri)))
            }
            Some('_') => {
                self.bump();
                if self.bump() != Some(':') {
                    return Err(self.err("expected ':' after '_'"));
                }
                let mut label = String::new();
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        label.push(c);
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if label.is_empty() {
                    return Err(self.err("empty blank node label"));
                }
                Ok(Term::Blank(BlankNode::new(label)))
            }
            Some('"') => {
                self.bump();
                let mut lexical = String::new();
                loop {
                    match self.bump() {
                        Some('"') => break,
                        Some('\\') => {
                            let esc = self.bump().ok_or_else(|| {
                                self.err("bad escape").code(ErrorCode::InvalidEscape)
                            })?;
                            lexical.push(match esc {
                                't' => '\t',
                                'n' => '\n',
                                'r' => '\r',
                                'b' => '\u{8}',
                                'f' => '\u{c}',
                                '"' => '"',
                                '\'' => '\'',
                                '\\' => '\\',
                                'u' => self.unicode_escape(4)?,
                                'U' => self.unicode_escape(8)?,
                                c => {
                                    return Err(self
                                        .err(format!("invalid escape '\\{c}'"))
                                        .code(ErrorCode::InvalidEscape))
                                }
                            });
                        }
                        Some(c) => lexical.push(c),
                        None => {
                            return Err(self
                                .err("unterminated literal")
                                .code(ErrorCode::UnterminatedString))
                        }
                    }
                }
                match self.peek() {
                    Some('@') => {
                        self.bump();
                        let mut lang = String::new();
                        while let Some(c) = self.peek() {
                            if c.is_ascii_alphanumeric() || c == '-' {
                                lang.push(c);
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                        if lang.is_empty() {
                            return Err(self.err("empty language tag"));
                        }
                        Ok(Term::Literal(Literal::lang_string(lexical, &lang)))
                    }
                    Some('^') => {
                        self.bump();
                        if self.bump() != Some('^') {
                            return Err(self.err("expected '^^'"));
                        }
                        match self.parse_term()? {
                            Term::Iri(dt) => Ok(Term::Literal(Literal::typed(lexical, dt))),
                            _ => Err(self.err("datatype must be an IRI")),
                        }
                    }
                    _ => Ok(Term::Literal(Literal::string(lexical))),
                }
            }
            Some(c) => Err(self
                .err(format!("unexpected character '{c}'"))
                .code(ErrorCode::UnexpectedChar)),
            None => Err(self
                .err("unexpected end of line")
                .code(ErrorCode::UnexpectedEof)),
        }
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            let c = self.bump().ok_or_else(|| {
                self.err("short unicode escape")
                    .code(ErrorCode::InvalidEscape)
            })?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit").code(ErrorCode::InvalidEscape))?;
            v = v * 16 + d;
        }
        char::from_u32(v).ok_or_else(|| {
            self.err("invalid code point")
                .code(ErrorCode::InvalidEscape)
        })
    }
}
