//! Instrumented validation (§5.2): validation that also returns provenance.
//!
//! This is the Rust analogue of the paper's pySHACL-fragments: a validation
//! engine adapted so that, in the same pass that checks each target node,
//! it also extracts the node's neighborhood. The overhead experiment
//! (Figure 1) compares [`validate_extract_fragment`] against plain
//! [`shapefrag_shacl::validator::validate`].
//!
//! Two cost considerations shape the implementation:
//!
//! - The neighborhood of a request shape `φ ∧ τ` splits as
//!   `B(v, φ) ∪ B(v, τ)`. The target part is the same for every node of a
//!   target class, so the evidence for the standard SHACL target forms is
//!   **precomputed once per shape definition** (`TargetEvidence`) instead
//!   of being re-traced per node — mirroring how a validator resolves
//!   targets once.
//! - [`validate_extract_fragment`] accumulates the union fragment only
//!   (the §5.3.1 measurement); [`validate_with_provenance`] additionally
//!   materializes one neighborhood graph per (shape, node) pair for
//!   API consumers.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use shapefrag_rdf::{Graph, GraphAccess, Term, TermId};
use shapefrag_shacl::path::PathExpr;
use shapefrag_shacl::validator::{Context, ValidationReport, Violation};
use shapefrag_shacl::{Nnf, Schema, Shape};

use crate::engine::Engine;
use crate::neighborhood::{conforms_and_collect, materialize, neighborhood_nnf_ids, IdTriples};

/// The fragment collected by [`validate_extract_fragment`], kept as interned
/// id triples (the cheap form an instrumented validator accumulates);
/// materialize with [`SchemaFragment::to_graph`].
#[derive(Debug, Clone)]
pub struct SchemaFragment {
    triples: IdTriples,
}

impl SchemaFragment {
    /// Number of collected triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True iff no triples were collected.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Materializes the fragment as a standalone [`Graph`] (`graph` must be
    /// the graph the fragment was extracted from).
    pub fn to_graph<G: GraphAccess>(&self, graph: &G) -> Graph {
        materialize(graph, &self.triples)
    }

    /// Wraps an already-collected id-triple set (the parallel engine's
    /// merge step).
    pub(crate) fn from_ids(triples: IdTriples) -> SchemaFragment {
        SchemaFragment { triples }
    }
}

/// The outcome of instrumented validation: the ordinary report, plus
/// per-(shape, focus node) neighborhoods, plus their union (the shape
/// fragment of the schema restricted to target nodes).
#[derive(Debug, Clone)]
pub struct ProvenancedReport {
    pub report: ValidationReport,
    /// `(shape name, focus node) → neighborhood` for every *conforming*
    /// target node.
    pub neighborhoods: BTreeMap<(Term, Term), Graph>,
    /// The union of all neighborhoods: `Frag(G, H)` when the graph
    /// conforms (target triples are included via the `φ ∧ τ` request
    /// shapes).
    pub fragment: Graph,
}

/// Precomputed `B(v, τ)` evidence for the standard SHACL target forms.
pub(crate) enum TargetEvidence {
    /// Node targets (`hasValue`): no triples.
    Empty,
    /// Subjects-of targets `≥1 p.⊤`: all outgoing `p`-triples of `v`.
    SubjectsOf(TermId),
    /// Objects-of targets `≥1 p⁻.⊤`: all incoming `p`-triples of `v`.
    ObjectsOf(TermId),
    /// Class targets `≥1 type/sub*.hasValue(C)`: the `(v, type, c)` edges
    /// into classes reaching `C`, plus each class's (shared, precomputed)
    /// subclass chain.
    Class {
        type_pid: TermId,
        chains: HashMap<TermId, Vec<(TermId, TermId, TermId)>>,
    },
    /// Anything else: fall back to the generic Table 2 machinery.
    Generic(Box<Nnf>),
}

impl TargetEvidence {
    pub(crate) fn analyze<G: GraphAccess>(
        ctx: &mut Context<'_, G>,
        target: &Shape,
    ) -> TargetEvidence {
        match target {
            Shape::HasValue(_) => TargetEvidence::Empty,
            Shape::Geq(1, path, inner) => match (path, inner.as_ref()) {
                (PathExpr::Prop(p), Shape::True) => match ctx.graph.id_of_iri(p) {
                    Some(pid) => TargetEvidence::SubjectsOf(pid),
                    None => TargetEvidence::Empty,
                },
                (PathExpr::Inverse(inv), Shape::True) => match inv.as_ref() {
                    PathExpr::Prop(p) => match ctx.graph.id_of_iri(p) {
                        Some(pid) => TargetEvidence::ObjectsOf(pid),
                        None => TargetEvidence::Empty,
                    },
                    _ => TargetEvidence::generic(target),
                },
                (PathExpr::Seq(first, rest), Shape::HasValue(c)) => {
                    let (PathExpr::Prop(type_p), PathExpr::ZeroOrMore(sub)) =
                        (first.as_ref(), rest.as_ref())
                    else {
                        return TargetEvidence::generic(target);
                    };
                    let PathExpr::Prop(sub_p) = sub.as_ref() else {
                        return TargetEvidence::generic(target);
                    };
                    let (Some(type_pid), Some(cid)) =
                        (ctx.graph.id_of_iri(type_p), ctx.graph.id_of(c))
                    else {
                        return TargetEvidence::Empty;
                    };
                    // All classes reaching C via sub*, each with its chain
                    // of subclass triples traced once.
                    let back = PathExpr::Prop(sub_p.clone()).inverse().star();
                    let classes = ctx.eval_path(&back, cid);
                    let sub_star = PathExpr::Prop(sub_p.clone()).star();
                    let mut chains = HashMap::new();
                    let target_set = BTreeSet::from([cid]);
                    for class in classes {
                        let chain: Vec<_> = ctx
                            .trace_path(&sub_star, class, &target_set)
                            .into_iter()
                            .collect();
                        chains.insert(class, chain);
                    }
                    TargetEvidence::Class { type_pid, chains }
                }
                (PathExpr::Prop(type_p), Shape::HasValue(c)) => {
                    let (Some(type_pid), Some(cid)) =
                        (ctx.graph.id_of_iri(type_p), ctx.graph.id_of(c))
                    else {
                        return TargetEvidence::Empty;
                    };
                    TargetEvidence::Class {
                        type_pid,
                        chains: HashMap::from([(cid, Vec::new())]),
                    }
                }
                _ => TargetEvidence::generic(target),
            },
            _ => TargetEvidence::generic(target),
        }
    }

    fn generic(target: &Shape) -> TargetEvidence {
        TargetEvidence::Generic(Box::new(Nnf::from_shape(target)))
    }

    /// Appends `B(v, τ)` to `out`.
    pub(crate) fn collect<G: GraphAccess>(
        &self,
        ctx: &mut Context<'_, G>,
        v: TermId,
        out: &mut IdTriples,
    ) {
        match self {
            TargetEvidence::Empty => {}
            TargetEvidence::SubjectsOf(pid) => {
                let objs: Vec<TermId> = ctx.graph.objects_ids(v, *pid).collect();
                out.extend(objs.into_iter().map(|o| (v, *pid, o)));
            }
            TargetEvidence::ObjectsOf(pid) => {
                let subs: Vec<TermId> = ctx.graph.subjects_ids(v, *pid).collect();
                out.extend(subs.into_iter().map(|s| (s, *pid, v)));
            }
            TargetEvidence::Class { type_pid, chains } => {
                let types: Vec<TermId> = ctx.graph.objects_ids(v, *type_pid).collect();
                for c in types {
                    if let Some(chain) = chains.get(&c) {
                        out.insert((v, *type_pid, c));
                        out.extend(chain.iter().copied());
                    }
                }
            }
            TargetEvidence::Generic(nnf) => {
                out.extend(neighborhood_nnf_ids(ctx, v, nnf));
            }
        }
    }
}

/// Validates and, in the same pass, extracts the schema's shape fragment
/// `Frag(G, H)` (the union of `B(v, φ ∧ τ)` over all conforming target
/// nodes). This is the configuration the Figure 1 overhead experiment
/// measures against plain validation: a one-thread [`Engine::extract`].
pub fn validate_extract_fragment<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
) -> (ValidationReport, SchemaFragment) {
    let (report, fragment, _) = Engine::new()
        .extract(schema, graph)
        .expect("an unbounded engine cannot fault");
    (report, fragment)
}

/// Below this many target nodes per definition, the single-pass per-node
/// collector ([`conforms_and_collect`]) beats the two-pass batch driver
/// (decide-all, then re-evaluate the paths to collect): the multi-source
/// kernel's sharing cannot amortize evaluating every path twice.
pub(crate) const BATCH_MIN_TARGETS: usize = 16;

/// The per-node reference implementation of [`validate_extract_fragment`]:
/// one instrumented [`conforms_and_collect`] traversal per (definition,
/// target) pair. Kept as the baseline for the batch-vs-per-node benchmark
/// and the agreement property tests.
pub fn validate_extract_fragment_per_node<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
) -> (ValidationReport, SchemaFragment) {
    let mut ctx = Context::new(schema, graph);
    let mut report = ValidationReport::default();
    let mut all = IdTriples::default();
    let mut journal: Vec<(TermId, TermId, TermId)> = Vec::new();
    for def in schema.iter() {
        let shape_nnf = schema.def_nnf(&def.name);
        let targets = ctx.target_nodes(&def.target);
        let evidence = TargetEvidence::analyze(&mut ctx, &def.target);
        for node in targets {
            report.checked += 1;
            journal.clear();
            if conforms_and_collect(&mut ctx, node, shape_nnf, &mut journal) {
                all.extend(journal.iter().copied());
                evidence.collect(&mut ctx, node, &mut all);
            } else {
                report.violations.push(Violation {
                    shape: def.name.clone(),
                    focus: graph.term(node).clone(),
                });
            }
        }
    }
    (report, SchemaFragment { triples: all })
}

/// Validates and simultaneously extracts per-node provenance (the
/// neighborhood of `φ ∧ τ` for every conforming target node) plus the
/// union fragment.
pub fn validate_with_provenance<G: GraphAccess>(schema: &Schema, graph: &G) -> ProvenancedReport {
    let mut ctx = Context::new(schema, graph);
    let mut report = ValidationReport::default();
    let mut neighborhoods = BTreeMap::new();
    let mut all = IdTriples::default();
    for def in schema.iter() {
        let shape_nnf = schema.def_nnf(&def.name);
        let targets = ctx.target_nodes(&def.target);
        let evidence = TargetEvidence::analyze(&mut ctx, &def.target);
        for node in targets {
            report.checked += 1;
            if ctx.conforms(node, &def.shape) {
                let mut ids = neighborhood_nnf_ids(&mut ctx, node, shape_nnf);
                evidence.collect(&mut ctx, node, &mut ids);
                all.extend(ids.iter().copied());
                neighborhoods.insert(
                    (def.name.clone(), graph.term(node).clone()),
                    materialize(graph, &ids),
                );
            } else {
                report.violations.push(Violation {
                    shape: def.name.clone(),
                    focus: graph.term(node).clone(),
                });
            }
        }
    }
    ProvenancedReport {
        report,
        neighborhoods,
        fragment: materialize(graph, &all),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::schema_fragment;
    use shapefrag_rdf::{Iri, Triple};
    use shapefrag_shacl::validator::validate;
    use shapefrag_shacl::ShapeDef;

    fn iri(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    fn term(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(term(s), iri(p), term(o))
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::Prop(iri(n))
    }

    fn workshop_schema() -> Schema {
        Schema::new([ShapeDef::new(
            term("WorkshopShape"),
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::geq(1, p("type"), Shape::has_value(term("Paper"))),
        )])
        .unwrap()
    }

    #[test]
    fn report_matches_plain_validation() {
        let schema = workshop_schema();
        let g = Graph::from_triples([
            t("p1", "type", "Paper"),
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("p2", "type", "Paper"),
            t("p2", "author", "bob"),
        ]);
        let plain = validate(&schema, &g);
        let instrumented = validate_with_provenance(&schema, &g);
        assert_eq!(plain, instrumented.report);
        assert_eq!(instrumented.report.violations.len(), 1);
        let (fast_report, fast_fragment) = validate_extract_fragment(&schema, &g);
        assert_eq!(plain, fast_report);
        assert_eq!(fast_fragment.to_graph(&g), instrumented.fragment);
    }

    #[test]
    fn per_node_neighborhoods_recorded() {
        let schema = workshop_schema();
        let g = Graph::from_triples([
            t("p1", "type", "Paper"),
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
        ]);
        let out = validate_with_provenance(&schema, &g);
        let key = (term("WorkshopShape"), term("p1"));
        let b = out.neighborhoods.get(&key).expect("neighborhood recorded");
        assert_eq!(b.len(), 3); // target triple + author + student-type
        assert!(b.contains(&t("p1", "type", "Paper")));
    }

    #[test]
    fn fragment_matches_schema_fragment_on_conforming_graph() {
        let schema = workshop_schema();
        let g = Graph::from_triples([
            t("p1", "type", "Paper"),
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("noise", "x", "y"),
        ]);
        let out = validate_with_provenance(&schema, &g);
        assert!(out.report.conforms());
        assert_eq!(out.fragment, schema_fragment(&schema, &g));
        let (_, fast) = validate_extract_fragment(&schema, &g);
        assert_eq!(fast.to_graph(&g), out.fragment);
    }

    #[test]
    fn class_target_evidence_includes_subclass_chains() {
        // Target class Publication, instance typed via a subclass chain:
        // the evidence must include the chain triples (they are part of
        // B(v, ≥1 type/sub*.hasValue(Publication))).
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::True,
            Shape::geq(
                1,
                p("type").then(p("sub").star()),
                Shape::has_value(term("Publication")),
            ),
        )])
        .unwrap();
        let g = Graph::from_triples([
            t("x", "type", "Paper"),
            t("Paper", "sub", "Publication"),
            t("unrelated", "type", "Venue"),
        ]);
        let (report, fragment) = validate_extract_fragment(&schema, &g);
        assert!(report.conforms());
        let fragment = fragment.to_graph(&g);
        assert_eq!(fragment, schema_fragment(&schema, &g));
        assert!(fragment.contains(&t("x", "type", "Paper")));
        assert!(fragment.contains(&t("Paper", "sub", "Publication")));
        assert!(!fragment.contains(&t("unrelated", "type", "Venue")));
    }

    #[test]
    fn subjects_and_objects_of_targets_fast_paths() {
        for target in [
            Shape::geq(1, p("q"), Shape::True),
            Shape::geq(1, p("q").inverse(), Shape::True),
            Shape::has_value(term("a")),
        ] {
            let schema = Schema::new([ShapeDef::new(term("S"), Shape::True, target)]).unwrap();
            let g = Graph::from_triples([t("a", "q", "b"), t("a", "q", "c"), t("z", "r", "a")]);
            let (_, fast) = validate_extract_fragment(&schema, &g);
            assert_eq!(fast.to_graph(&g), schema_fragment(&schema, &g));
        }
    }

    #[test]
    fn generic_target_fallback_agrees() {
        // An unusual target form (∀-based) exercises the generic path.
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("q"), Shape::True),
            Shape::geq(2, p("q"), Shape::True),
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "q", "b"), t("a", "q", "c"), t("d", "q", "e")]);
        let (_, fast) = validate_extract_fragment(&schema, &g);
        assert_eq!(fast.to_graph(&g), schema_fragment(&schema, &g));
    }

    #[test]
    fn parallel_validation_matches_sequential() {
        // A multi-definition schema with mixed outcomes.
        let schema = Schema::new([
            ShapeDef::new(
                term("S1"),
                Shape::geq(1, p("author"), Shape::True),
                Shape::geq(1, p("type"), Shape::has_value(term("Paper"))),
            ),
            ShapeDef::new(
                term("S2"),
                Shape::geq(1, p("title"), Shape::True),
                Shape::geq(1, p("type"), Shape::has_value(term("Paper"))),
            ),
            ShapeDef::new(
                term("S3"),
                Shape::leq(1, p("author"), Shape::True),
                Shape::geq(1, p("author"), Shape::True),
            ),
        ])
        .unwrap();
        let g = Graph::from_triples([
            t("p1", "type", "Paper"),
            t("p1", "author", "a"),
            t("p1", "author", "b"),
            t("p2", "type", "Paper"),
            t("p2", "title", "x"),
        ]);
        let sequential = validate(&schema, &g);
        for workers in [1, 2, 4] {
            let (parallel, _) = Engine::new()
                .threads(workers)
                .validate(&schema, &g)
                .unwrap();
            assert_eq!(sequential, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn violating_nodes_get_no_neighborhood() {
        let schema = workshop_schema();
        let g = Graph::from_triples([t("p2", "type", "Paper"), t("p2", "author", "bob")]);
        let out = validate_with_provenance(&schema, &g);
        assert!(!out.report.conforms());
        assert!(out.neighborhoods.is_empty());
        assert!(out.fragment.is_empty());
    }
}
