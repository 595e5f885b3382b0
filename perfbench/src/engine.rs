//! The calls into the engine that the in-process workloads share: loading
//! input text the way `shapefrag validate|fragment` does, the traced
//! layer-by-layer pass, and report comparison.

use std::collections::BTreeMap;
use std::sync::Arc;

use shapefrag_analyze::{analyze_schema, has_deny, ContainmentMatrix};
use shapefrag_core::neighborhood::{collect_neighborhood_many, materialize, IdTriples};
use shapefrag_core::validate_batch_par_stats;
use shapefrag_rdf::{ntriples, FrozenGraph, Graph, GraphAccess, Term, TermId};
use shapefrag_shacl::parser::parse_shapes_turtle_with_spans;
use shapefrag_shacl::validator::{ConformanceMemo, Context, ValidationReport};
use shapefrag_shacl::{Nnf, PathExpr, PathOrId, Schema, Shape};

use crate::trace::Tracer;

/// Parses and gates a shapes document as the CLI's `load_schema` does:
/// parse, static analysis, refuse deny-level findings.
pub fn load_schema(t: &Tracer, text: &str) -> Schema {
    let (schema, spans) = t.span("shacl.parse", || {
        parse_shapes_turtle_with_spans(text).expect("generated shapes parse")
    });
    let diags = t.span("analyze", || analyze_schema(&schema, Some(&spans)));
    assert!(!has_deny(&diags), "generated shapes pass the analyzer gate");
    schema
}

/// Parses N-Triples data and freezes it, as the CLI does before
/// validating. The mutable graph is kept, as the CLI keeps it.
pub fn load_data(t: &Tracer, text: &str) -> (Graph, FrozenGraph) {
    let graph = t.span("rdf.parse", || {
        ntriples::parse(text).expect("generated data parses")
    });
    let frozen = t.span("rdf.freeze", || graph.freeze());
    (graph, frozen)
}

/// A report in comparable form: checks and sorted `(shape, focus)` pairs.
pub type ReportKey = (usize, Vec<(String, String)>);

pub fn report_key(report: &ValidationReport) -> ReportKey {
    let mut v: Vec<(String, String)> = report
        .violations
        .iter()
        .map(|v| (v.shape.to_string(), v.focus.to_string()))
        .collect();
    v.sort();
    (report.checked, v)
}

/// Counters of one layer-by-layer pass; summed over passes.
#[derive(Default, Clone)]
pub struct Ledger {
    pub counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// The paths a shape evaluates, following `hasShape` references (each
/// definition once): the property shapes a node shape refers to.
fn paths_of<'a>(
    schema: &'a Schema,
    shape: &'a Shape,
    seen: &mut Vec<&'a Term>,
    out: &mut Vec<PathExpr>,
) {
    let mut rec = |s: &'a Shape, out: &mut Vec<PathExpr>| paths_of(schema, s, seen, out);
    match shape {
        Shape::Geq(_, p, s) | Shape::Leq(_, p, s) | Shape::ForAll(p, s) => {
            out.push(p.clone());
            rec(s, out);
        }
        Shape::Eq(PathOrId::Path(p), _) | Shape::Disj(PathOrId::Path(p), _) => out.push(p.clone()),
        Shape::LessThan(p, _)
        | Shape::LessThanEq(p, _)
        | Shape::MoreThan(p, _)
        | Shape::MoreThanEq(p, _)
        | Shape::UniqueLang(p) => out.push(p.clone()),
        Shape::Not(s) => rec(s, out),
        Shape::And(ss) | Shape::Or(ss) => ss.iter().for_each(|s| rec(s, out)),
        Shape::HasShape(name) => {
            if let Some(def) = schema.get(name) {
                if !seen.contains(&name) {
                    seen.push(name);
                    paths_of(schema, &def.shape, seen, out);
                }
            }
        }
        _ => {}
    }
}

/// Validation split into its layers, each call in its own span: the
/// containment matrix, then per definition target resolution, path
/// evaluation from the targets (on a separate context, so it warms no
/// cache the conformance step uses) and memoised conformance with the
/// containment index attached. Returns the report for checking.
pub fn validation_layers(
    t: &Tracer,
    schema: &Schema,
    g: &FrozenGraph,
    led: &mut Ledger,
) -> ValidationReport {
    let matrix = t.span("analyze.matrix", || ContainmentMatrix::of_schema(schema));
    let edges: usize = (0..schema.len() as u32)
        .map(|i| matrix.subs_of(i).filter(|&j| j != i).count())
        .sum();
    led.add("analyze.matrix_edges", edges as f64);
    let index = Arc::new(matrix.to_index(schema));
    let memo = Arc::new(ConformanceMemo::new());
    let mut ctx = Context::with_memo(schema, g, Arc::clone(&memo));
    memo.attach_containment(index);
    let mut path_ctx = Context::new(schema, g);
    let mut report = ValidationReport::default();
    for def in schema.iter() {
        let targets: Vec<TermId> = t
            .span("validator.targets", || ctx.target_nodes(&def.target))
            .into_iter()
            .collect();
        led.add("validator.focus_nodes", targets.len() as f64);
        if targets.is_empty() {
            continue;
        }
        let mut paths = Vec::new();
        paths_of(schema, &def.shape, &mut Vec::new(), &mut paths);
        for p in &paths {
            let reached = t.span("rpq.eval", || path_ctx.eval_path_many(p, &targets));
            led.add("rpq.sources", targets.len() as f64);
            led.add(
                "rpq.pairs",
                reached.iter().map(|s| s.len()).sum::<usize>() as f64,
            );
        }
        let shape = Shape::HasShape(def.name.clone());
        let ok = t.span("validator.conform", || ctx.conforms_all(&targets, &shape));
        report.checked += targets.len();
        for (node, ok) in targets.iter().zip(ok) {
            if !ok {
                report
                    .violations
                    .push(shapefrag_shacl::validator::Violation {
                        shape: def.name.clone(),
                        focus: g.term(*node).clone(),
                    });
            }
        }
    }
    led.add("validator.checks", report.checked as f64);
    led.add("validator.violations", report.violations.len() as f64);
    led.add("validator.memo_entries", memo.len() as f64);
    let (hits, misses) = memo.containment_counters();
    led.add("validator.containment_hits", hits as f64);
    led.add("validator.containment_misses", misses as f64);
    report
}

/// Two-thread validation through the CLI's parallel entry point, with the
/// scheduler's run counters.
pub fn sched_layer(
    t: &Tracer,
    schema: &Schema,
    g: &FrozenGraph,
    led: &mut Ledger,
) -> ValidationReport {
    let (report, stats) = t.span("sched.validate_2t", || {
        validate_batch_par_stats(schema, g, 2)
    });
    led.add("sched.units", stats.units as f64);
    led.add("sched.steals", stats.steals as f64);
    led.add("sched.busy_ms", stats.busy_nanos as f64 / 1e6);
    led.add("sched.idle_ms", stats.idle_nanos as f64 / 1e6);
    led.add("sched.shapes_skipped", stats.shapes_skipped as f64);
    report
}

/// `schema_fragment` + N-Triples serialization split into its layers: the
/// all-nodes decision per request shape, neighborhood collection of the
/// conforming nodes, materialization and serialization. Returns the
/// N-Triples text for checking against the library call.
pub fn fragment_layers(t: &Tracer, schema: &Schema, g: &FrozenGraph, led: &mut Ledger) -> String {
    let memo = Arc::new(ConformanceMemo::new());
    let mut ctx = Context::with_memo(schema, g, memo);
    let nodes: Vec<TermId> = g.node_ids().into_iter().collect();
    let mut out = IdTriples::default();
    for shape in schema.request_shapes() {
        let nnf = Nnf::from_shape(&shape);
        let decisions = t.span("fragment.decide", || ctx.conforms_all_nnf(&nodes, &nnf));
        let conforming: Vec<TermId> = nodes
            .iter()
            .zip(decisions)
            .filter(|(_, ok)| *ok)
            .map(|(&v, _)| v)
            .collect();
        led.add("fragment.nodes_decided", nodes.len() as f64);
        led.add("fragment.conforming", conforming.len() as f64);
        t.span("neighborhood.collect", || {
            collect_neighborhood_many(&mut ctx, &conforming, &nnf, &mut out)
        });
    }
    let graph = t.span("fragment.materialize", || materialize(g, &out));
    let text = t.span("rdf.serialize", || ntriples::serialize(&graph));
    led.add("rdf.serialize_bytes", text.len() as f64);
    text
}

/// Turns a traced run's span self times and ledger counters into the
/// per-layer metrics. Set-up spans are divided by the number of set-ups.
pub fn put_layers(
    t: &Tracer,
    out: &mut crate::Outcome,
    led: &Ledger,
    setups: usize,
    triples: usize,
) {
    let self_ms = t.self_ms();
    let span = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let per_setup = |name: &str| span(name) / setups.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.put("rdf.parse_ms", per_setup("rdf.parse"));
    out.put(
        "rdf.parse_triples_per_s",
        ratio(triples as f64, per_setup("rdf.parse") / 1e3),
    );
    out.put("rdf.freeze_ms", per_setup("rdf.freeze"));
    out.put("shacl.parse_ms", per_setup("shacl.parse"));
    out.put("analyze.ms", per_setup("analyze"));
    for (metric, name) in [
        ("analyze.matrix_ms", "analyze.matrix"),
        ("validator.targets_ms", "validator.targets"),
        ("rpq.eval_ms", "rpq.eval"),
        ("validator.conform_ms", "validator.conform"),
        ("fragment.decide_ms", "fragment.decide"),
        ("neighborhood.collect_ms", "neighborhood.collect"),
        ("fragment.materialize_ms", "fragment.materialize"),
        ("rdf.serialize_ms", "rdf.serialize"),
    ] {
        out.put(metric, span(name));
    }
    for (name, v) in &led.counts {
        out.put(name, *v);
    }
    let hits = led.get("validator.containment_hits");
    out.put(
        "validator.derive_ratio",
        ratio(hits, hits + led.get("validator.containment_misses")),
    );
    out.put(
        "fragment.useful_ratio",
        ratio(
            led.get("fragment.conforming"),
            led.get("fragment.nodes_decided"),
        ),
    );
    let busy = led.get("sched.busy_ms");
    out.put(
        "sched.idle_frac",
        ratio(led.get("sched.idle_ms"), busy + led.get("sched.idle_ms")),
    );
}
