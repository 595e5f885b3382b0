//! Totality fuzzing: every parser in the workspace must return a proper
//! error (never panic) on arbitrary input, including inputs that start out
//! as valid documents and get mangled.

mod common;

use proptest::prelude::*;

use common::{graph_strategy, ntriples_oracle};
use shape_fragments::govern::{Budget, ErrorCode, ExecCtx};
use shape_fragments::rdf::{ntriples, turtle, Graph, GraphAccess, ParseError, TermId};
use shape_fragments::shacl::parser::parse_shapes_turtle;
use shape_fragments::shacl::regex::Pattern;
use shape_fragments::sparql::parser::parse_select;
use shape_fragments::sparql::{eval_select_governed, EvalConfig};

const VALID_TURTLE: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://e/> .
ex:S a sh:NodeShape ; sh:targetClass ex:T ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ; sh:pattern "^a+$" ] ;
  sh:or ( ex:A ex:B ) .
"#;

const VALID_SPARQL: &str = "PREFIX ex: <http://e/>\nSELECT DISTINCT ?s WHERE { \
    { ?s ex:p/ex:q* ?o . FILTER (?o != ex:x && strlen(str(?o)) > 2) } \
    UNION { ?s !(ex:p|ex:q) ?o } OPTIONAL { ?o ex:r ?z } }";

const VALID_NTRIPLES: &str = "<http://e/a> <http://e/p> <http://e/b> .\n\
<http://e/b> <http://e/p> \"lit\"@en .\n\
<http://e/c> <http://e/q> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";

/// Deletes, duplicates, or replaces one character.
fn mangle(text: &str, pos: usize, mode: u8, replacement: char) -> String {
    let chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return String::new();
    }
    let pos = pos % chars.len();
    let mut out = chars.clone();
    match mode % 3 {
        0 => {
            out.remove(pos);
        }
        1 => out.insert(pos, replacement),
        _ => out[pos] = replacement,
    }
    out.into_iter().collect()
}

/// Byte-level mangling: deletes, inserts, or overwrites a raw byte, then
/// re-interprets the buffer lossily as UTF-8. This reaches byte sequences
/// the char-based [`mangle`] never produces (split multibyte sequences,
/// interior NULs, stray continuation bytes).
fn mangle_bytes(text: &str, pos: usize, mode: u8, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let pos = pos % bytes.len();
    match mode % 3 {
        0 => {
            bytes.remove(pos);
        }
        1 => bytes.insert(pos, byte),
        _ => bytes[pos] = byte,
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Raw spellings for synthetic statements. Several spell one term —
/// escaped or not, language tags in any case, an explicit `xsd:string` —
/// so the reader's token cache must fall through to one interned id.
const SUBJECTS: &[&str] = &[
    "<http://t.example.org/n0>",
    "<http://t.example.org/n1>",
    "<http://t.example.org/n\\u0031>",
    "<http://t.example.org/\\U0000006E2>",
    "<http://t.example.org/n2>",
    "_:b0",
    "_:b1",
];

const PREDICATES: &[&str] = &[
    "<http://t.example.org/p0>",
    "<http://t.example.org/p\\u0030>",
    "<http://t.example.org/p1>",
];

const LITERALS: &[&str] = &[
    "\"w\"@en",
    "\"w\"@EN",
    "\"w\"@En-gB",
    "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>",
    "\"5\"^^<http://www.w3.org/2001/XMLSchema#int\\u0065ger>",
    "\"x\"",
    "\"x\"^^<http://www.w3.org/2001/XMLSchema#string>",
    "\"caf\\u00E9\"",
    "\"café\"",
    "\"a\\\"b\\\\c\\n\\t\\r\"",
    "\"\\U0001F600 \\b\\f\\'\"",
];

const INDENTS: &[&str] = &["", "  ", "\t", " \t ", "\u{a0}"];

/// An N-Triples document: a generated graph as serialized, followed by
/// synthetic statements over [`SUBJECTS`], [`PREDICATES`] and
/// [`LITERALS`] with indentation, trailing comments, comment and blank
/// lines, duplicated lines and (optionally) CRLF endings.
fn ntriples_document() -> impl Strategy<Value = String> {
    let statement = (
        0..SUBJECTS.len(),
        0..PREDICATES.len(),
        0..SUBJECTS.len() + LITERALS.len(),
        0..INDENTS.len(),
        0u8..6,
    );
    (
        graph_strategy(6),
        prop::collection::vec(statement, 0..12),
        any::<bool>(),
    )
        .prop_map(|(g, statements, crlf)| {
            let mut lines: Vec<String> =
                ntriples::serialize(&g).lines().map(String::from).collect();
            for (s, p, o, indent, extra) in statements {
                let object = SUBJECTS
                    .get(o)
                    .copied()
                    .unwrap_or_else(|| LITERALS[o - SUBJECTS.len()]);
                let line = format!(
                    "{}{} {} {} .",
                    INDENTS[indent], SUBJECTS[s], PREDICATES[p], object
                );
                match extra {
                    0 => lines.push(format!("{line} # trailing")),
                    1 => lines.push("# a comment line".into()),
                    2 => lines.push(String::new()),
                    3 => {
                        if let Some(prev) = lines.last().cloned() {
                            lines.push(prev);
                        }
                    }
                    _ => {}
                }
                lines.push(line);
            }
            let eol = if crlf { "\r\n" } else { "\n" };
            lines.into_iter().map(|l| l + eol).collect()
        })
}

fn error_position(e: &ParseError) -> (usize, usize, ErrorCode) {
    (e.line, e.column, e.code)
}

/// Same triple count, same term behind every id, same triples by id.
fn same_graph(got: &Graph, want: &Graph) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    prop_assert_eq!(got.term_count(), want.term_count());
    for i in 0..want.term_count() as u32 {
        prop_assert_eq!(got.term(TermId(i)), want.term(TermId(i)));
    }
    prop_assert_eq!(
        got.iter_ids().collect::<Vec<_>>(),
        want.iter_ids().collect::<Vec<_>>()
    );
    Ok(())
}

/// The strict and lossy readers agree with the reference oracle.
fn agrees_with_oracle(input: &str) -> Result<(), TestCaseError> {
    match (ntriples::parse(input), ntriples_oracle::parse(input)) {
        (Ok(got), Ok(want)) => same_graph(&got, &want)?,
        (Err(got), Err(want)) => prop_assert_eq!(error_position(&got), error_position(&want)),
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "parse disagrees on {input:?}: {:?} vs oracle {:?}",
                got.map(|g| g.len()),
                want.map(|g| g.len())
            )))
        }
    }
    let got = ntriples::parse_lossy(input);
    let want = ntriples_oracle::parse_lossy(input);
    same_graph(&got.graph, &want.graph)?;
    prop_assert_eq!(got.statements_ok, want.statements_ok);
    prop_assert_eq!(got.statements_skipped, want.statements_skipped);
    prop_assert_eq!(
        got.diagnostics
            .iter()
            .map(error_position)
            .collect::<Vec<_>>(),
        want.diagnostics
            .iter()
            .map(error_position)
            .collect::<Vec<_>>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The byte-level reader matches the reference oracle on generated
    /// documents, on their byte-mangled variants and on printable noise.
    #[test]
    fn ntriples_reader_agrees_with_oracle(
        doc in ntriples_document(),
        pos in 0usize..2000,
        mode in 0u8..4,
        b in any::<u8>(),
        noise in "[ -~\\n]{0,120}",
    ) {
        agrees_with_oracle(&doc)?;
        if mode < 3 {
            agrees_with_oracle(&mangle_bytes(&doc, pos, mode, b))?;
        }
        agrees_with_oracle(&noise)?;
    }

    #[test]
    fn turtle_parser_total(input in "[ -~\\n]{0,120}") {
        let _ = turtle::parse(&input);
    }

    #[test]
    fn ntriples_parser_total(input in "[ -~\\n]{0,120}") {
        let _ = ntriples::parse(&input);
    }

    #[test]
    fn sparql_parser_total(input in "[ -~\\n]{0,120}") {
        let _ = parse_select(&input);
    }

    #[test]
    fn shapes_graph_parser_total(input in "[ -~\\n]{0,120}") {
        let _ = parse_shapes_turtle(&input);
    }

    #[test]
    fn regex_compiler_total(input in "[ -~]{0,40}") {
        let _ = Pattern::compile(&input, "i");
    }

    /// Mutations of a valid shapes document never panic the full pipeline.
    #[test]
    fn mangled_shapes_graph_total(pos in 0usize..400, mode in 0u8..3, c in any::<char>()) {
        let mangled = mangle(VALID_TURTLE, pos, mode, c);
        let _ = parse_shapes_turtle(&mangled);
    }

    /// Mutations of a valid query never panic the SPARQL parser, and when
    /// they still parse, evaluation on a small graph never panics either.
    /// Evaluation runs under a per-case step cap so that a mutation which
    /// happens to produce an expensive query terminates with a structured
    /// error instead of hanging the fuzz run.
    #[test]
    fn mangled_sparql_total(pos in 0usize..200, mode in 0u8..3, c in any::<char>()) {
        let mangled = mangle(VALID_SPARQL, pos, mode, c);
        if let Ok(query) = parse_select(&mangled) {
            let g = turtle::parse("@prefix ex: <http://e/> . ex:a ex:p ex:b . ex:b ex:q ex:c .")
                .unwrap();
            let exec = ExecCtx::with_budget(Budget::unlimited().steps(50_000));
            let _ = eval_select_governed(&g, &query, &EvalConfig::indexed(), &exec);
        }
    }

    /// Byte-level mutations of a valid Turtle document never panic the
    /// strict parser, and the lossy loader stays total on the same inputs.
    #[test]
    fn byte_mangled_turtle_total(pos in 0usize..400, mode in 0u8..3, b in any::<u8>()) {
        let mangled = mangle_bytes(VALID_TURTLE, pos, mode, b);
        let _ = turtle::parse(&mangled);
        let _ = turtle::parse_lossy(&mangled);
        let _ = parse_shapes_turtle(&mangled);
    }

    /// Byte-level mutations of valid N-Triples never panic, and for every
    /// mutation the lossy loader recovers at least the untouched lines
    /// (three lines, at most one damaged → at least two triples).
    #[test]
    fn byte_mangled_ntriples_total(pos in 0usize..200, mode in 0u8..3, b in any::<u8>()) {
        let mangled = mangle_bytes(VALID_NTRIPLES, pos, mode, b);
        let _ = ntriples::parse(&mangled);
        let load = ntriples::parse_lossy(&mangled);
        prop_assert_eq!(load.diagnostics.len(), load.statements_skipped);
        // One mutated byte damages at most two adjacent lines (a deleted
        // newline merges two statements), so of the three triples at least
        // one always survives.
        prop_assert!(!load.graph.is_empty());
    }

    /// Byte-level mutations of a valid query: parse is total, and surviving
    /// queries evaluate under a step cap without panicking.
    #[test]
    fn byte_mangled_sparql_total(pos in 0usize..200, mode in 0u8..3, b in any::<u8>()) {
        let mangled = mangle_bytes(VALID_SPARQL, pos, mode, b);
        if let Ok(query) = parse_select(&mangled) {
            let g = turtle::parse("@prefix ex: <http://e/> . ex:a ex:p ex:b . ex:b ex:q ex:c .")
                .unwrap();
            let exec = ExecCtx::with_budget(Budget::unlimited().steps(50_000));
            let _ = eval_select_governed(&g, &query, &EvalConfig::indexed(), &exec);
        }
    }

    /// The lossy loaders are total on arbitrary input and never report a
    /// diagnostic without a skipped statement (and vice versa).
    #[test]
    fn lossy_loaders_total(input in "[ -~\\n]{0,120}") {
        let t = turtle::parse_lossy(&input);
        prop_assert_eq!(t.diagnostics.len(), t.statements_skipped);
        let n = ntriples::parse_lossy(&input);
        prop_assert_eq!(n.diagnostics.len(), n.statements_skipped);
    }
}
