//! Agreement between a schema and its analyzer-simplified form: the
//! rewrites of [`shape_fragments::analyze::simplify`] are semantics
//! preserving. At [`SimplifyLevel::Validation`] the validation report must
//! be identical; at [`SimplifyLevel::Fragment`] the extracted provenance
//! (neighborhoods, shape fragments) must be identical as well. Both are
//! checked over both graph backends (mutable [`Graph`] and the frozen CSR
//! snapshot), on random schemas covering the full shape grammar.

mod common;

use proptest::prelude::*;

use common::{graph_strategy, shape_strategy};
use shape_fragments::analyze::{simplify, SimplifyLevel};
use shape_fragments::core::{
    schema_fragment, validate_batch_par, validate_extract_fragment, Engine,
};
use shape_fragments::rdf::Term;
use shape_fragments::shacl::validator::validate;
use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};

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
/// references, so the reference-status pass is exercised too.
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Validation-level simplification preserves the validation report —
    /// same checked count, same violations — over both backends and both
    /// validator drivers.
    #[test]
    fn validation_level_preserves_reports(
        g in graph_strategy(14),
        schema in schema_strategy(),
    ) {
        let (simplified, _diags) = simplify(&schema, SimplifyLevel::Validation);
        let f = g.freeze();
        prop_assert_eq!(validate(&schema, &g), validate(&simplified, &g));
        prop_assert_eq!(validate(&schema, &f), validate(&simplified, &f));
        prop_assert_eq!(
            validate_batch_par(&schema, &g, 1),
            validate_batch_par(&simplified, &g, 1)
        );
        prop_assert_eq!(
            validate_batch_par(&schema, &f, 1),
            validate_batch_par(&simplified, &f, 1)
        );
    }

    /// Fragment-level simplification additionally preserves provenance:
    /// the schema fragment and the instrumented validate-and-extract
    /// result are identical on the simplified schema, over both backends.
    #[test]
    fn fragment_level_preserves_fragments(
        g in graph_strategy(14),
        schema in schema_strategy(),
    ) {
        let (simplified, _diags) = simplify(&schema, SimplifyLevel::Fragment);
        let f = g.freeze();
        prop_assert_eq!(validate(&schema, &g), validate(&simplified, &g));
        prop_assert_eq!(
            schema_fragment(&schema, &g),
            schema_fragment(&simplified, &g)
        );
        prop_assert_eq!(
            schema_fragment(&schema, &f),
            schema_fragment(&simplified, &f)
        );
        let (report, frag) = validate_extract_fragment(&schema, &g);
        let (report_s, frag_s) = validate_extract_fragment(&simplified, &g);
        prop_assert_eq!(report, report_s);
        prop_assert_eq!(frag.to_graph(&g), frag_s.to_graph(&g));
        let (report_f, frag_f) = validate_extract_fragment(&simplified, &f);
        let (report_o, frag_o) = validate_extract_fragment(&schema, &f);
        prop_assert_eq!(report_o, report_f);
        prop_assert_eq!(frag_o.to_graph(&f), frag_f.to_graph(&f));
    }

    /// Extraction on two threads over the fragment-level simplified schema
    /// produces exactly the report and fragment of the unsimplified
    /// instrumented driver.
    #[test]
    fn simplified_driver_agrees(
        g in graph_strategy(14),
        schema in schema_strategy(),
    ) {
        let (report, frag) = validate_extract_fragment(&schema, &g);
        let (simplified, _diags) = simplify(&schema, SimplifyLevel::Fragment);
        let (report_s, frag_s, _) = Engine::new().threads(2).extract(&simplified, &g).unwrap();
        prop_assert_eq!(report, report_s);
        prop_assert_eq!(frag.to_graph(&g), frag_s.to_graph(&g));
    }

    /// Simplification is idempotent on the schema: a second pass finds
    /// nothing left to rewrite.
    #[test]
    fn simplify_is_idempotent(schema in schema_strategy()) {
        let (once, _) = simplify(&schema, SimplifyLevel::Fragment);
        let (twice, _) = simplify(&once, SimplifyLevel::Fragment);
        let once_defs: Vec<_> = once.iter().collect();
        let twice_defs: Vec<_> = twice.iter().collect();
        prop_assert_eq!(once_defs, twice_defs);
    }
}
