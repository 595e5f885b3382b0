//! Agreement between the two [`GraphAccess`] backends: the mutable
//! [`Graph`] (hash/tree indexes) and the immutable [`FrozenGraph`] CSR
//! snapshot built by [`Graph::freeze`].
//!
//! Two layers are exercised on random graphs:
//!
//! - **Accessor agreement** — every trait accessor (`contains_ids`,
//!   `objects_ids`, `subjects_ids`, `out_edges_ids`, `in_edges_ids`,
//!   `edges_with_predicate_ids`, `predicates_out_ids`, `iter_ids`,
//!   `node_ids`, `term`, `id_of`) returns identical results, in the same
//!   order, for the same ids. Freezing is id-stable, so ids are comparable
//!   across backends directly.
//! - **Kernel agreement** — validation reports, path evaluation and
//!   tracing, fragment extraction, and SPARQL query results are identical
//!   whichever backend the generic kernels run over.

mod common;

use proptest::prelude::*;

use common::{graph_strategy, path_strategy, shape_strategy};
use shape_fragments::core::to_sparql::fragment_query;
use shape_fragments::core::{schema_fragment, validate_batch_par, validate_extract_fragment};
use shape_fragments::rdf::{Graph, GraphAccess, Term, TermId};
use shape_fragments::shacl::validator::{validate, Context};
use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};
use shape_fragments::sparql::eval;

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
/// references (the memo-sharing case).
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

/// All interned ids of a graph (nodes *and* predicates), so accessors are
/// also probed with ids in "wrong" positions (e.g. a predicate id as a
/// subject), where both backends must agree on emptiness.
fn all_ids(g: &Graph) -> Vec<TermId> {
    let mut ids: std::collections::BTreeSet<TermId> = g.node_ids();
    for (s, p, o) in g.iter_ids() {
        ids.extend([s, p, o]);
    }
    ids.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every per-id accessor agrees, element for element, in order.
    #[test]
    fn accessors_agree(g in graph_strategy(20)) {
        let f = g.freeze();
        prop_assert_eq!(g.len(), f.len());
        prop_assert_eq!(g.is_empty(), f.is_empty());
        prop_assert_eq!(
            g.iter_ids().collect::<Vec<_>>(),
            f.iter_ids().collect::<Vec<_>>()
        );
        prop_assert_eq!(GraphAccess::node_ids(&g), f.node_ids());
        let ids = all_ids(&g);
        for &a in &ids {
            prop_assert_eq!(g.term(a), f.term(a));
            prop_assert_eq!(f.id_of(g.term(a)), Some(a));
            prop_assert_eq!(
                g.out_edges_ids(a).collect::<Vec<_>>(),
                f.out_edges_ids(a).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                g.in_edges_ids(a).collect::<Vec<_>>(),
                f.in_edges_ids(a).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                g.edges_with_predicate_ids(a).collect::<Vec<_>>(),
                f.edges_with_predicate_ids(a).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                g.predicates_out_ids(a).collect::<Vec<_>>(),
                f.predicates_out_ids(a).collect::<Vec<_>>()
            );
            for &b in &ids {
                prop_assert_eq!(
                    g.objects_ids(a, b).collect::<Vec<_>>(),
                    f.objects_ids(a, b).collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    g.subjects_ids(a, b).collect::<Vec<_>>(),
                    f.subjects_ids(a, b).collect::<Vec<_>>()
                );
                for &c in &ids {
                    prop_assert_eq!(g.contains_ids(a, b, c), f.contains_ids(a, b, c));
                }
            }
        }
    }

    /// Path evaluation and tracing are backend-independent.
    #[test]
    fn eval_and_trace_agree(g in graph_strategy(16), path in path_strategy()) {
        let f = g.freeze();
        let schema = Schema::empty();
        let mut ctx_g = Context::new(&schema, &g);
        let mut ctx_f = Context::new(&schema, &f);
        for v in g.node_ids() {
            let endpoints = ctx_g.eval_path(&path, v);
            prop_assert_eq!(&endpoints, &ctx_f.eval_path(&path, v));
            prop_assert_eq!(
                ctx_g.trace_path(&path, v, &endpoints),
                ctx_f.trace_path(&path, v, &endpoints)
            );
        }
    }

    /// `validate` and the one-thread engine produce identical reports over
    /// either backend.
    #[test]
    fn validation_agrees(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        prop_assert_eq!(validate(&schema, &g), validate(&schema, &f));
        prop_assert_eq!(
            validate_batch_par(&schema, &g, 1),
            validate_batch_par(&schema, &f, 1)
        );
    }

    /// Fragment extraction (both the plain union and the instrumented
    /// validate-and-extract driver) is backend-independent.
    #[test]
    fn fragments_agree(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        prop_assert_eq!(schema_fragment(&schema, &g), schema_fragment(&schema, &f));
        let (report_g, frag_g) = validate_extract_fragment(&schema, &g);
        let (report_f, frag_f) = validate_extract_fragment(&schema, &f);
        prop_assert_eq!(report_g, report_f);
        prop_assert_eq!(frag_g.to_graph(&g), frag_f.to_graph(&f));
    }

    /// The generated SPARQL fragment query returns the same bindings over
    /// either backend.
    #[test]
    fn sparql_agrees(g in graph_strategy(12), schema in schema_strategy()) {
        let f = g.freeze();
        let shapes = schema.request_shapes();
        let query = fragment_query(&schema, &shapes);
        prop_assert_eq!(eval(&g, &query), eval(&f, &query));
    }
}
