//! Agreement between the work-stealing engine (DESIGN.md §12) at every
//! option combination and the per-node reference drivers.
//!
//! On random graphs and random nonrecursive schemas, [`Engine`] at 1, 2, 4
//! and 8 worker threads, with the containment index off and on, and with
//! an unlimited and a generous step budget, must agree **exactly** with
//! the per-node references:
//!
//! - `Engine::validate` reproduces `validate`'s report bit for bit — same
//!   `checked` count and the same violations in the same
//!   (definition-major, target-minor) order;
//! - `Engine::extract` reproduces both the report and the extracted
//!   fragment of `validate_extract_fragment_per_node`;
//! - validation and extraction run on the schema plus a renamed copy of
//!   every definition, so the containment index has equivalent
//!   definitions to settle from their originals' bits;
//! - `Engine::fragment` reproduces `fragment_ids_per_node`'s id-triple
//!   set, and the materialized parallel fragment answers the generated
//!   SPARQL fragment query with the same bindings as the one-thread one.

mod common;

use proptest::prelude::*;

use std::sync::Arc;

use common::{graph_strategy, shape_strategy};
use shape_fragments::analyze::ContainmentMatrix;
use shape_fragments::core::neighborhood::materialize;
use shape_fragments::core::to_sparql::fragment_query;
use shape_fragments::core::{
    fragment_ids_per_node, validate_batch_par, validate_extract_fragment_per_node, Engine,
};
use shape_fragments::govern::Budget;
use shape_fragments::rdf::Term;
use shape_fragments::shacl::validator::validate;
use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};
use shape_fragments::sparql::eval;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// `schema` plus a copy of every definition under a new name: each copy
/// is equivalent to its original and has the same target, so with the
/// containment index attached the copies are settled from the originals'
/// bits in the engine's second pass.
fn with_duplicates(schema: &Schema) -> Schema {
    let copies: Vec<ShapeDef> = schema
        .iter()
        .enumerate()
        .map(|(i, def)| {
            let name = Term::iri(format!("{}D{i}", common::NS));
            ShapeDef::new(name, def.shape.clone(), def.target.clone())
        })
        .collect();
    Schema::new(schema.iter().cloned().chain(copies)).expect("copies add no references")
}

/// Every engine configuration under test: each thread count with the
/// containment index off and on, and with no budget and a step budget far
/// above what these small inputs need.
fn engines(schema: &Schema) -> Vec<(String, Engine)> {
    let index = Arc::new(ContainmentMatrix::of_schema(schema).to_index(schema));
    let mut out = Vec::new();
    for threads in THREADS {
        for containment in [false, true] {
            for generous in [false, true] {
                let mut engine = Engine::new().threads(threads);
                if containment {
                    engine = engine.containment(Arc::clone(&index));
                }
                if generous {
                    engine = engine.budget(Budget::unlimited().steps(50_000_000));
                }
                let label = format!(
                    "threads = {threads}, containment = {containment}, budget = {generous}"
                );
                out.push((label, engine));
            }
        }
    }
    out
}

fn shape_name(i: usize) -> Term {
    Term::iri(format!("{}S{i}", common::NS))
}

/// Target shapes in the real-SHACL forms of §4 (plus ⊤ = "all nodes").
fn target_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0u8..6).prop_map(|i| Shape::HasValue(common::node_term(i))),
        (0u8..3).prop_map(|p| Shape::geq(1, PathExpr::Prop(common::pred(p)), Shape::True)),
        Just(Shape::True),
    ]
}

/// Random nonrecursive schemas of 1–4 definitions with forward `hasShape`
/// references (the memo-sharing case the shared memo must get right
/// across workers).
fn schema_strategy() -> impl Strategy<Value = Schema> {
    (
        prop::collection::vec((shape_strategy(), target_strategy()), 1..5),
        prop::collection::vec(any::<bool>(), 8),
    )
        .prop_map(|(parts, links)| {
            let n = parts.len();
            let defs: Vec<ShapeDef> = parts
                .into_iter()
                .enumerate()
                .map(|(i, (mut shape, target))| {
                    if i + 1 < n && links[(2 * i) % links.len()] {
                        shape = shape.and(Shape::HasShape(shape_name(i + 1)));
                    }
                    ShapeDef::new(shape_name(i), shape, target)
                })
                .collect();
            Schema::new(defs).expect("forward references only — nonrecursive")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel validation reproduces the per-node report bit for bit at
    /// every thread count, containment setting and budget.
    #[test]
    fn parallel_validation_agrees(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        let schema = with_duplicates(&schema);
        let sequential = validate(&schema, &f);
        for threads in THREADS {
            let parallel = validate_batch_par(&schema, &f, threads);
            prop_assert_eq!(&sequential, &parallel, "threads = {}", threads);
        }
        for (label, engine) in engines(&schema) {
            let (report, _) = engine.validate(&schema, &f).expect("generous budget");
            prop_assert_eq!(&sequential, &report, "{}", label);
        }
    }

    /// Parallel instrumented extraction reproduces both the report and
    /// the fragment of the per-node driver.
    #[test]
    fn parallel_extraction_agrees(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        let schema = with_duplicates(&schema);
        let (seq_report, seq_frag) = validate_extract_fragment_per_node(&schema, &f);
        let seq_frag = seq_frag.to_graph(&f);
        for (label, engine) in engines(&schema) {
            let (report, frag, _) = engine.extract(&schema, &f).expect("generous budget");
            prop_assert_eq!(&seq_report, &report, "{}", label);
            prop_assert_eq!(&seq_frag, &frag.to_graph(&f), "{}", label);
        }
    }

    /// Parallel request-shape fragments reproduce the per-node id-triple
    /// set exactly.
    #[test]
    fn parallel_fragment_ids_agree(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        let shapes = schema.request_shapes();
        let sequential = fragment_ids_per_node(&schema, &f, &shapes);
        for (label, engine) in engines(&schema) {
            let (parallel, _) = engine.fragment(&schema, &f, &shapes).expect("generous budget");
            prop_assert_eq!(&sequential, &parallel, "{}", label);
        }
    }

    /// The materialized parallel fragment is SPARQL-indistinguishable from
    /// the one-thread one: the generated fragment query returns the same
    /// bindings over both.
    #[test]
    fn parallel_fragment_sparql_agrees(g in graph_strategy(12), schema in schema_strategy()) {
        let f = g.freeze();
        let shapes = schema.request_shapes();
        let query = fragment_query(&schema, &shapes);
        let fragment = |threads: usize| {
            let (ids, _) = Engine::new().threads(threads).fragment(&schema, &f, &shapes).unwrap();
            materialize(&f, &ids)
        };
        let seq_frag = fragment(1);
        for threads in [2, 8] {
            let par_frag = fragment(threads);
            prop_assert_eq!(&seq_frag, &par_frag, "threads = {}", threads);
            prop_assert_eq!(
                eval(&seq_frag, &query),
                eval(&par_frag, &query),
                "threads = {}", threads
            );
        }
    }
}
