//! Pass 4: per-shape cost annotation.
//!
//! Classifies the evaluation cost of every definition so the engine can
//! route work: the fan-out class of its paths (does an edge step stay
//! within one node's adjacency, or can it traverse the graph?) and whether
//! batch evaluation shares work across focus nodes (the memo-sharing
//! potential exploited by set-at-a-time validation). `shapefrag-core`'s
//! engine prices its work units with [`shape_cost`] and routes
//! instrumented extraction with [`shape_shares_work`].

use std::collections::BTreeMap;

use shapefrag_rdf::Term;
use shapefrag_shacl::shape::PathOrId;
use shapefrag_shacl::{Nnf, PathExpr, Schema};

/// Fan-out class of a path expression, ordered by cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathClass {
    /// One forward or inverse property step: a single adjacency lookup.
    Simple,
    /// A closure-free combination (sequence, alternative, negated sets,
    /// optional): bounded by a constant number of adjacency scans.
    Local,
    /// Contains a Kleene closure: evaluation is a product-graph BFS whose
    /// frontier can span the whole graph.
    Traversing,
}

/// Classifies a path expression by fan-out.
pub fn path_class(path: &PathExpr) -> PathClass {
    match path {
        PathExpr::Prop(_) => PathClass::Simple,
        PathExpr::NegProp(_) => PathClass::Local,
        PathExpr::Inverse(inner) => match inner.as_ref() {
            PathExpr::Prop(_) => PathClass::Simple,
            other => path_class(other).max(PathClass::Local),
        },
        PathExpr::Seq(a, b) | PathExpr::Alt(a, b) => {
            path_class(a).max(path_class(b)).max(PathClass::Local)
        }
        PathExpr::ZeroOrMore(_) => PathClass::Traversing,
        PathExpr::ZeroOrOne(inner) => path_class(inner).max(PathClass::Local),
    }
}

/// True iff the path is a single forward or inverse property step, which
/// the per-node evaluator answers with one index lookup.
pub fn path_is_simple(path: &PathExpr) -> bool {
    path_class(path) == PathClass::Simple
}

/// True iff batch (set-at-a-time) evaluation of this shape shares work
/// across focus nodes: a non-simple path (multi-source BFS amortizes the
/// product-graph exploration), a non-trivial quantifier inner (endpoint
/// conformance checks hit the shared memo), or a path-equality pair.
/// Shapes that are pure local lookups gain nothing from batching, and the
/// batch driver routes them to the cheaper per-node loop.
pub fn shape_shares_work(schema: &Schema, shape: &Nnf) -> bool {
    match shape {
        Nnf::Geq(_, e, inner) | Nnf::Leq(_, e, inner) | Nnf::ForAll(e, inner) => {
            !path_is_simple(e) || !matches!(inner.as_ref(), Nnf::True)
        }
        Nnf::Eq(PathOrId::Path(_), _) => true,
        Nnf::And(items) | Nnf::Or(items) => items.iter().any(|i| shape_shares_work(schema, i)),
        Nnf::HasShape(name) | Nnf::NotHasShape(name) => {
            shape_shares_work(schema, schema.def_nnf(name))
        }
        _ => false,
    }
}

/// Cost annotation for one definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeCost {
    /// The most expensive path class appearing in `φ ∧ τ` (transitively
    /// through references). `None` when the definition touches no path.
    pub fan_out: Option<PathClass>,
    /// Whether batch evaluation shares work across focus nodes.
    pub shares_work: bool,
}

/// Cost annotation of one (already NNF-converted) shape: the scheduling
/// priority input for the parallel engine, which routes arbitrary request
/// shapes — not only named definitions — by cost.
pub fn shape_cost(schema: &Schema, shape: &Nnf) -> ShapeCost {
    ShapeCost {
        fan_out: max_path_class(schema, shape),
        shares_work: shape_shares_work(schema, shape),
    }
}

/// Annotates every definition of a schema with its cost class.
pub fn annotate(schema: &Schema) -> BTreeMap<Term, ShapeCost> {
    let mut out = BTreeMap::new();
    for def in schema.iter() {
        let nnf = Nnf::from_shape(&def.shape.clone().and(def.target.clone()));
        out.insert(def.name.clone(), shape_cost(schema, &nnf));
    }
    out
}

fn max_path_class(schema: &Schema, shape: &Nnf) -> Option<PathClass> {
    let mut best: Option<PathClass> = None;
    let bump = |c: PathClass, best: &mut Option<PathClass>| {
        *best = Some(best.map_or(c, |b: PathClass| b.max(c)));
    };
    let mut stack: Vec<&Nnf> = vec![shape];
    let mut seen_defs: Vec<&Term> = Vec::new();
    while let Some(node) = stack.pop() {
        match node {
            Nnf::Geq(_, e, inner) | Nnf::Leq(_, e, inner) | Nnf::ForAll(e, inner) => {
                bump(path_class(e), &mut best);
                stack.push(inner);
            }
            Nnf::UniqueLang(e) | Nnf::NotUniqueLang(e) => bump(path_class(e), &mut best),
            Nnf::Eq(PathOrId::Path(e), _)
            | Nnf::NotEq(PathOrId::Path(e), _)
            | Nnf::Disj(PathOrId::Path(e), _)
            | Nnf::NotDisj(PathOrId::Path(e), _) => bump(path_class(e), &mut best),
            Nnf::LessThan(e, _)
            | Nnf::NotLessThan(e, _)
            | Nnf::LessThanEq(e, _)
            | Nnf::NotLessThanEq(e, _)
            | Nnf::MoreThan(e, _)
            | Nnf::NotMoreThan(e, _)
            | Nnf::MoreThanEq(e, _)
            | Nnf::NotMoreThanEq(e, _) => bump(path_class(e), &mut best),
            Nnf::And(items) | Nnf::Or(items) => stack.extend(items),
            // Schemas are acyclic, but avoid re-walking shared refs.
            Nnf::HasShape(name) | Nnf::NotHasShape(name) if !seen_defs.contains(&name) => {
                seen_defs.push(name);
                stack.push(schema.def_nnf(name));
            }
            _ => {}
        }
    }
    best
}
