//! The validation engine (DESIGN.md §12): one builder for validation,
//! instrumented extraction and shape fragments, with the thread count,
//! resource budget, cancellation token and containment index as options.
//!
//! ```
//! use shapefrag_core::Engine;
//! use shapefrag_rdf::{turtle, Iri, Term};
//! use shapefrag_shacl::{Budget, PathExpr, Schema, Shape, ShapeDef};
//!
//! let data = turtle::parse(r#"
//!     @prefix ex: <http://example.org/> .
//!     ex:p1 ex:author ex:alice . ex:p2 ex:title "untitled" .
//! "#).unwrap();
//! let author = PathExpr::prop(Iri::new("http://example.org/author"));
//! let schema = Schema::new([ShapeDef::new(
//!     Term::iri("http://example.org/HasAuthor"),
//!     Shape::geq(1, author, Shape::True),
//!     Shape::has_value(Term::iri("http://example.org/p2")),
//! )])
//! .unwrap();
//!
//! let engine = Engine::new().threads(2).budget(Budget::unlimited().steps(10_000));
//! let (report, stats) = engine.validate(&schema, &data).unwrap();
//! assert_eq!(report.violations.len(), 1);
//! assert_eq!(stats.units, 1);
//! ```
//!
//! Every job runs the same three steps:
//!
//! 1. **Plan** sequentially under the job's budget: resolve each
//!    definition's targets (identical target shapes are resolved once) and
//!    split every row of nodes into spans. A span's cost is the analyzer's
//!    fan-out class of the row's shape ([`shape_cost`]) times its length, so
//!    product-graph BFS shapes are dispatched before cheap lookups.
//! 2. **Run** the spans on the [`shapefrag_sched`] work-stealing scheduler.
//!    Every worker has its own [`Context`] over one shared
//!    [`ConformanceMemo`], governed by an equal share of what the job has
//!    left ([`ExecCtx::share`]) and the cancellation token. The first
//!    fault by planning order wins and stops the other workers at their
//!    next span.
//! 3. **Merge** span results by sequence number, so reports come out in
//!    definition-major, target-minor order whatever the thread count or
//!    the execution order. Fragments are id-triple sets; their union is
//!    order-free.
//!
//! With one thread the scheduler runs the spans inline, one span per row,
//! in descending cost order. The budget covers the whole job: the deadline
//! is absolute, and the steps the workers of one run spend are charged to
//! the job before the next run, so planning and every pass together stay
//! within it. The workers' shares are their own counters, not a shared
//! pool, so a parallel run may trip a step budget a one-thread run squeaks
//! under; the error taxonomy is the same.
//!
//! With a containment index attached, definitions whose shape is provably
//! equivalent to an earlier definition with the same target run in a
//! second pass, after every other row: their bits then derive from the
//! representative's memo entries without evaluation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use shapefrag_analyze::{shape_cost, shape_shares_work, PathClass};
use shapefrag_govern::{Budget, CancelToken, EngineError, ExecCtx};
use shapefrag_rdf::{GraphAccess, TermId};
use shapefrag_sched::{run, RunStats, WorkUnit};
use shapefrag_shacl::validator::{
    ConformanceMemo, ContainmentIndex, Context, ValidationReport, Violation,
};
use shapefrag_shacl::{Nnf, Schema, Shape, ShapeDef};

use crate::instrumented::{SchemaFragment, TargetEvidence, BATCH_MIN_TARGETS};
use crate::neighborhood::{collect_neighborhood_many, conforms_and_collect, IdTriples};

/// Options for one validation, extraction or fragment job. The default is
/// one thread, no limits, no cancellation and no containment index.
#[derive(Clone, Default)]
pub struct Engine {
    threads: usize,
    budget: Budget,
    cancel: Option<CancelToken>,
    containment: Option<Arc<ContainmentIndex>>,
}

/// One job's shared pieces: the schema, graph and memo every context of
/// the job reads, and the sequential planning context, whose governor
/// holds the job's whole budget.
pub(crate) struct Job<'a, G: GraphAccess> {
    schema: &'a Schema,
    graph: &'a G,
    memo: Arc<ConformanceMemo>,
    pub(crate) planner: Context<'a, G>,
}

/// One row of planned work: the nodes its spans cover and the shape whose
/// cost class prices them.
struct Row<'a> {
    nodes: &'a [TermId],
    cost: &'a Nnf,
}

/// A contiguous slice `[lo, hi)` of one row, tagged with its planning-order
/// sequence number for the merge.
#[derive(Clone, Copy)]
struct Span {
    seq: usize,
    row: usize,
    lo: usize,
    hi: usize,
}

impl Engine {
    /// The default engine.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Runs on `n` worker threads (0 and 1 both mean the calling thread).
    pub fn threads(mut self, n: usize) -> Engine {
        self.threads = n;
        self
    }

    /// Runs the whole job, planning and every run of workers together,
    /// under `budget`.
    pub fn budget(mut self, budget: Budget) -> Engine {
        self.budget = budget;
        self
    }

    /// Stops with [`EngineError::Cancelled`] once `token` is cancelled.
    pub fn cancel(mut self, token: &CancelToken) -> Engine {
        self.cancel = Some(token.clone());
        self
    }

    /// Derives conformance bits across the index's subsumption edges and
    /// settles definitions equivalent to an earlier one from its bits. An
    /// index proven over a different schema is refused and the job runs
    /// without it.
    pub fn containment(mut self, index: Arc<ContainmentIndex>) -> Engine {
        self.containment = Some(index);
        self
    }

    /// Validates `graph` against `schema`: the report of
    /// [`shapefrag_shacl::validate`], with the same violation order, plus
    /// the scheduler's counters.
    pub fn validate<G: GraphAccess>(
        &self,
        schema: &Schema,
        graph: &G,
    ) -> Result<(ValidationReport, RunStats), EngineError> {
        let mut job = self.job(schema, graph, self.memo(schema, graph));
        let (targets, deduped) = resolve_targets(&mut job.planner, schema)?;
        let (bits, mut stats) = self.decide(&job, &targets)?;
        stats.targets_deduped = deduped;
        Ok((report(schema, graph, &targets, &bits), stats))
    }

    /// Validates and, in the same pass, extracts the schema's shape
    /// fragment `Frag(G, H)`: the union of `B(v, φ ∧ τ)` over every
    /// conforming target node (§5.2, the Figure 1 configuration). Equals
    /// [`crate::validate_extract_fragment_per_node`].
    pub fn extract<G: GraphAccess>(
        &self,
        schema: &Schema,
        graph: &G,
    ) -> Result<(ValidationReport, SchemaFragment, RunStats), EngineError> {
        let mut job = self.job(schema, graph, self.memo(schema, graph));
        let (targets, deduped) = resolve_targets(&mut job.planner, schema)?;
        let mut evidence = Vec::with_capacity(schema.len());
        for def in schema.iter() {
            evidence.push(TargetEvidence::analyze(&mut job.planner, &def.target));
            if let Some(e) = job.planner.take_fault() {
                return Err(e);
            }
        }
        let rows = def_rows(schema, &targets);
        // A definition with few targets, or whose shape gives the batch
        // kernels no work to share, runs the single-pass per-node
        // collector; the route is decided on the whole target list.
        let per_node: Vec<bool> = rows
            .iter()
            .map(|row| row.nodes.len() < BATCH_MIN_TARGETS || !shape_shares_work(schema, row.cost))
            .collect();
        let (bits, states, mut stats) = self.run(
            &job,
            &rows,
            || (IdTriples::default(), Vec::new()),
            |ctx, (triples, journal), d, nodes| {
                let (nnf, evidence) = (rows[d].cost, &evidence[d]);
                if per_node[d] {
                    return nodes
                        .iter()
                        .map(|&node| {
                            journal.clear();
                            let ok = conforms_and_collect(ctx, node, nnf, journal);
                            if ok {
                                triples.extend(journal.iter().copied());
                                evidence.collect(ctx, node, triples);
                            }
                            ok
                        })
                        .collect();
                }
                let bits = ctx.conforms_all_nnf(nodes, nnf);
                let conforming = select(nodes, &bits);
                for &node in &conforming {
                    evidence.collect(ctx, node, triples);
                }
                collect_neighborhood_many(ctx, &conforming, nnf, triples);
                bits
            },
        )?;
        stats.targets_deduped = deduped;
        let fragment = union(states.into_iter().map(|(triples, _)| triples));
        Ok((
            report(schema, graph, &targets, &bits),
            SchemaFragment::from_ids(fragment),
            stats,
        ))
    }

    /// The shape fragment `Frag(G, S)` for request shapes `S` (§4), as id
    /// triples of `graph`: per shape, every node is decided and the
    /// conforming nodes' neighborhoods are collected.
    pub fn fragment<G: GraphAccess>(
        &self,
        schema: &Schema,
        graph: &G,
        shapes: &[Shape],
    ) -> Result<(IdTriples, RunStats), EngineError> {
        let job = self.job(schema, graph, self.memo(schema, graph));
        job.planner.exec().check_now()?;
        let nodes: Vec<TermId> = graph.node_ids().into_iter().collect();
        let nnfs: Vec<Nnf> = shapes.iter().map(Nnf::from_shape).collect();
        let rows: Vec<Row> = nnfs
            .iter()
            .map(|nnf| Row {
                nodes: &nodes,
                cost: nnf,
            })
            .collect();
        let (_, states, stats) =
            self.run(&job, &rows, IdTriples::default, |ctx, triples, r, chunk| {
                let bits = ctx.conforms_all_nnf(chunk, &nnfs[r]);
                collect_neighborhood_many(ctx, &select(chunk, &bits), &nnfs[r], triples);
                Vec::new()
            })?;
        Ok((union(states), stats))
    }

    /// Decides `hasShape(def)` for every definition's row of `nodes`
    /// through the job's memo, so definition-level bits land where
    /// containment derivation and the incremental engine can see them.
    /// Definitions the memo's containment index covers run in a second
    /// pass.
    pub(crate) fn decide<G: GraphAccess>(
        &self,
        job: &Job<'_, G>,
        nodes: &[Vec<TermId>],
    ) -> Result<(Vec<Vec<bool>>, RunStats), EngineError> {
        let schema = job.schema;
        let named: Vec<Shape> = schema
            .iter()
            .map(|def| Shape::HasShape(def.name.clone()))
            .collect();
        let covered = covered_defs(schema, job.memo.containment().as_deref());
        let pass = |second: bool| {
            let rows: Vec<Row> = def_rows(schema, nodes)
                .into_iter()
                .zip(&covered)
                .map(|(row, &c)| Row {
                    nodes: if c == second { row.nodes } else { &[] },
                    cost: row.cost,
                })
                .collect();
            self.run(
                job,
                &rows,
                || (),
                |ctx, _, d, chunk| ctx.conforms_all(chunk, &named[d]),
            )
        };
        let (mut bits, _, mut stats) = pass(false)?;
        let skipped = covered.iter().filter(|&&c| c).count();
        if skipped > 0 {
            let (late, _, late_stats) = pass(true)?;
            for (row, late) in bits.iter_mut().zip(late) {
                if !late.is_empty() {
                    *row = late;
                }
            }
            stats.units += late_stats.units;
            stats.busy_nanos += late_stats.busy_nanos;
            stats.idle_nanos += late_stats.idle_nanos;
            stats.checks_derived = late_stats.checks_derived;
            stats.derive_misses = late_stats.derive_misses;
        }
        stats.shapes_skipped = skipped as u64;
        Ok((bits, stats))
    }

    /// A fresh memo bound to `(schema, graph)`, with the containment index
    /// attached when one is set and was proven over this schema.
    fn memo<G: GraphAccess>(&self, schema: &Schema, graph: &G) -> Arc<ConformanceMemo> {
        let memo = Arc::new(ConformanceMemo::new());
        memo.rebind(schema, graph);
        if let Some(index) = &self.containment {
            memo.attach_containment(Arc::clone(index));
        }
        memo
    }

    /// A new job over `memo`, its planner holding the whole budget.
    pub(crate) fn job<'a, G: GraphAccess>(
        &self,
        schema: &'a Schema,
        graph: &'a G,
        memo: Arc<ConformanceMemo>,
    ) -> Job<'a, G> {
        let mut exec = ExecCtx::with_budget(self.budget);
        if let Some(token) = &self.cancel {
            exec = exec.with_cancel(token);
        }
        Job {
            schema,
            graph,
            planner: Context::with_memo(schema, graph, Arc::clone(&memo)).with_exec(exec),
            memo,
        }
    }

    /// The unit runner behind every job: splits `rows` into spans, runs
    /// `work(ctx, state, row, nodes)` on each, and returns the bits of each
    /// row in node order, every worker's final `state`, and the
    /// scheduler's counters. The workers share what the job's budget has
    /// left, and what they spend is charged to the job.
    #[allow(clippy::type_complexity)]
    fn run<G, S, W>(
        &self,
        job: &Job<'_, G>,
        rows: &[Row],
        init: impl Fn() -> S + Sync,
        work: W,
    ) -> Result<(Vec<Vec<bool>>, Vec<S>, RunStats), EngineError>
    where
        G: GraphAccess,
        S: Send,
        W: Fn(&mut Context<'_, G>, &mut S, usize, &[TermId]) -> Vec<bool> + Sync,
    {
        let (schema, graph, memo, exec) = (job.schema, job.graph, &job.memo, job.planner.exec());
        let threads = self.threads.max(1);
        let mut units = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            let len = row.nodes.len();
            if len == 0 {
                continue;
            }
            // About four spans per worker for steal granularity, but never
            // so small that per-span overhead dominates.
            let chunk = if threads == 1 {
                len
            } else {
                (len / (threads * 4)).clamp(64, 2048)
            };
            let cost = unit_cost(schema, row.cost);
            for lo in (0..len).step_by(chunk) {
                let hi = (lo + chunk).min(len);
                let seq = units.len();
                units.push(WorkUnit {
                    cost: cost * (hi - lo) as u64,
                    item: Span {
                        seq,
                        row: r,
                        lo,
                        hi,
                    },
                });
            }
        }
        // As many shares as the scheduler starts workers.
        let workers = threads.min(units.len()).max(1);
        let shares = Mutex::new(
            (0..workers)
                .map(|_| exec.share(workers))
                .collect::<Vec<_>>(),
        );
        let fault: Mutex<Option<(usize, EngineError)>> = Mutex::new(None);
        let abort = AtomicBool::new(false);
        let (per_worker, mut stats) = run(
            units,
            threads,
            |_| {
                let exec = shares.lock().expect("shares poisoned").pop();
                let exec = exec.expect("one share per worker");
                let start = exec.steps_used();
                let ctx = Context::with_memo(schema, graph, Arc::clone(memo)).with_exec(exec);
                (ctx, start, init(), Vec::new())
            },
            |(ctx, _, state, out), span: Span| {
                if abort.load(Ordering::Acquire) {
                    return;
                }
                let bits = work(
                    ctx,
                    state,
                    span.row,
                    &rows[span.row].nodes[span.lo..span.hi],
                );
                match ctx.take_fault() {
                    None => out.push((span.seq, span.row, bits)),
                    Some(e) => {
                        let mut slot = fault.lock().expect("fault slot poisoned");
                        if slot.as_ref().is_none_or(|(seq, _)| span.seq < *seq) {
                            *slot = Some((span.seq, e));
                        }
                        abort.store(true, Ordering::Release);
                    }
                }
            },
            |_, (ctx, start, state, out)| (ctx.exec().steps_used() - start, state, out),
        );
        if let Some((_, e)) = fault.into_inner().expect("fault slot poisoned") {
            return Err(e);
        }
        let mut states = Vec::with_capacity(per_worker.len());
        let mut outs = Vec::new();
        for (spent, state, out) in per_worker {
            exec.tick(spent)?;
            states.push(state);
            outs.extend(out);
        }
        outs.sort_unstable_by_key(|&(seq, _, _)| seq);
        let mut bits: Vec<Vec<bool>> = vec![Vec::new(); rows.len()];
        for (_, row, b) in outs {
            bits[row].extend(b);
        }
        (stats.checks_derived, stats.derive_misses) = memo.containment_counters();
        Ok((bits, states, stats))
    }
}

/// Static span priority per node: the shape's fan-out class (a
/// Kleene-closure BFS outranks bounded adjacency scans outranks single
/// lookups), doubled when batch evaluation shares work across nodes.
fn unit_cost(schema: &Schema, nnf: &Nnf) -> u64 {
    let cost = shape_cost(schema, nnf);
    let base: u64 = match cost.fan_out {
        Some(PathClass::Traversing) => 16,
        Some(PathClass::Local) => 4,
        Some(PathClass::Simple) => 2,
        None => 1,
    };
    base * if cost.shares_work { 2 } else { 1 }
}

/// One row per definition, priced by its precomputed NNF.
fn def_rows<'a>(schema: &'a Schema, nodes: &'a [Vec<TermId>]) -> Vec<Row<'a>> {
    schema
        .iter()
        .zip(nodes)
        .map(|(def, nodes)| Row {
            nodes,
            cost: schema.def_nnf(&def.name),
        })
        .collect()
}

/// Resolves every definition's sorted target list in definition order,
/// checking the governor between definitions. Definitions with a
/// syntactically identical target share one resolution; the count of
/// shared lists is returned alongside.
pub(crate) fn resolve_targets<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    schema: &Schema,
) -> Result<(Vec<Vec<TermId>>, u64), EngineError> {
    let defs: Vec<&ShapeDef> = schema.iter().collect();
    let mut lists: Vec<Vec<TermId>> = Vec::with_capacity(defs.len());
    let mut deduped = 0;
    for (i, def) in defs.iter().enumerate() {
        ctx.exec().check_now()?;
        let list = match defs[..i].iter().position(|e| e.target == def.target) {
            Some(j) => {
                deduped += 1;
                lists[j].clone()
            }
            None => ctx.target_nodes(&def.target).into_iter().collect(),
        };
        if let Some(e) = ctx.take_fault() {
            return Err(e);
        }
        lists.push(list);
    }
    Ok((lists, deduped))
}

/// Definition `i` is covered when an earlier, itself uncovered definition
/// has a provably equivalent shape (containment edges both ways) and a
/// syntactically identical target: all of `i`'s bits derive from that
/// representative's.
fn covered_defs(schema: &Schema, index: Option<&ContainmentIndex>) -> Vec<bool> {
    let defs: Vec<&ShapeDef> = schema.iter().collect();
    let mut covered = vec![false; defs.len()];
    let Some(index) = index else {
        return covered;
    };
    for i in 0..defs.len() {
        // The index's dense ids are definition positions.
        debug_assert_eq!(schema.name_id(&defs[i].name), Some(i as u32));
        covered[i] = (0..i).any(|j| {
            !covered[j]
                && defs[i].target == defs[j].target
                && index.supers_of(i as u32).contains(&(j as u32))
                && index.subs_of(i as u32).contains(&(j as u32))
        });
    }
    covered
}

/// [`Engine::validate`] on `threads` workers, unbounded.
pub fn validate_batch_par<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    threads: usize,
) -> ValidationReport {
    validate_batch_par_stats(schema, graph, threads).0
}

/// [`validate_batch_par`] plus the scheduler's run counters.
pub fn validate_batch_par_stats<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    threads: usize,
) -> (ValidationReport, RunStats) {
    Engine::new()
        .threads(threads)
        .validate(schema, graph)
        .expect("an unbounded engine cannot fault")
}

/// The nodes whose bit is set.
fn select(nodes: &[TermId], bits: &[bool]) -> Vec<TermId> {
    nodes
        .iter()
        .zip(bits)
        .filter(|(_, &ok)| ok)
        .map(|(&v, _)| v)
        .collect()
}

/// Unions worker triple sets, reusing the first worker's allocation.
fn union(sets: impl IntoIterator<Item = IdTriples>) -> IdTriples {
    let mut sets = sets.into_iter();
    let mut all = sets.next().unwrap_or_default();
    for set in sets {
        all.extend(set);
    }
    all
}

/// The report of per-definition target rows and their bits.
fn report<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    targets: &[Vec<TermId>],
    bits: &[Vec<bool>],
) -> ValidationReport {
    let mut report = ValidationReport::default();
    for ((def, nodes), bits) in schema.iter().zip(targets).zip(bits) {
        report.checked += nodes.len();
        for (&node, &ok) in nodes.iter().zip(bits) {
            if !ok {
                report.violations.push(Violation {
                    shape: def.name.clone(),
                    focus: graph.term(node).clone(),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::fragment_ids_per_node;
    use crate::instrumented::validate_extract_fragment_per_node;
    use shapefrag_govern::BudgetKind;
    use shapefrag_rdf::{Graph, Iri, Term, Triple};
    use shapefrag_shacl::path::PathExpr;
    use shapefrag_shacl::validator::{schema_fingerprint, validate};

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

    /// A chain graph with typed nodes: big enough to split into several
    /// spans at 4–8 threads, with both conforming and violating targets.
    fn chain_graph(n: usize) -> Graph {
        let mut triples = Vec::new();
        for i in 0..n {
            triples.push(t(&format!("n{i}"), "next", &format!("n{}", (i + 1) % n)));
            triples.push(t(&format!("n{i}"), "type", "Node"));
            if i % 3 != 0 {
                triples.push(t(&format!("n{i}"), "label", &format!("l{i}")));
            }
        }
        Graph::from_triples(triples)
    }

    fn chain_schema() -> Schema {
        Schema::new([
            ShapeDef::new(
                term("Labelled"),
                Shape::geq(1, p("label"), Shape::True),
                Shape::geq(1, p("type"), Shape::has_value(term("Node"))),
            ),
            ShapeDef::new(
                term("Reaches"),
                Shape::geq(1, p("next").star(), Shape::has_value(term("n0"))),
                Shape::geq(1, p("type"), Shape::has_value(term("Node"))),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn parallel_report_is_bit_identical_to_per_node() {
        let g = chain_graph(300).freeze();
        let schema = chain_schema();
        let sequential = validate(&schema, &g);
        for threads in [1, 2, 4, 8] {
            let (parallel, stats) = Engine::new()
                .threads(threads)
                .validate(&schema, &g)
                .unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
            assert!(stats.units > 0);
            // Both definitions share one target shape.
            assert_eq!(stats.targets_deduped, 1, "threads = {threads}");
        }
    }

    #[test]
    fn engine_matches_validate_on_nested_shapes() {
        let schema = Schema::new([
            ShapeDef::new(
                term("S"),
                Shape::geq(
                    1,
                    p("author"),
                    Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
                ),
                Shape::geq(1, p("author"), Shape::True),
            ),
            ShapeDef::new(
                term("T"),
                Shape::for_all(p("author"), Shape::geq(1, p("type"), Shape::True)),
                Shape::geq(1, p("author"), Shape::True),
            ),
        ])
        .unwrap();
        let g = Graph::from_triples([
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("p2", "author", "bob"),
            t("p3", "author", "alice"),
            t("p3", "author", "bob"),
        ]);
        let per_node = validate(&schema, &g);
        let (batch, _) = Engine::new().validate(&schema, &g).unwrap();
        assert_eq!(per_node, batch);
        assert_eq!(batch.checked, per_node.checked);
    }

    #[test]
    fn containment_parallel_is_bit_identical_and_skips() {
        let g = chain_graph(300).freeze();
        // Labelled2 duplicates Labelled; Labelled1of2 is weaker than both.
        let target = Shape::geq(1, p("type"), Shape::has_value(term("Node")));
        let schema = Schema::new([
            ShapeDef::new(
                term("Labelled"),
                Shape::geq(2, p("label").or(p("alt")), Shape::True),
                target.clone(),
            ),
            ShapeDef::new(
                term("Labelled1of2"),
                Shape::geq(1, p("label").or(p("alt")), Shape::True),
                target.clone(),
            ),
            ShapeDef::new(
                term("Labelled2"),
                Shape::geq(2, p("label").or(p("alt")), Shape::True),
                target.clone(),
            ),
            ShapeDef::new(
                term("Reaches"),
                Shape::geq(1, p("next").star(), Shape::has_value(term("n0"))),
                target,
            ),
        ])
        .unwrap();
        let matrix = shapefrag_analyze::ContainmentMatrix::of_schema(&schema);
        let index = Arc::new(matrix.to_index(&schema));
        let sequential = validate(&schema, &g);
        for threads in [1, 2, 4] {
            let engine = Engine::new()
                .threads(threads)
                .containment(Arc::clone(&index));
            let (report, stats) = engine.validate(&schema, &g).unwrap();
            assert_eq!(sequential, report, "threads = {threads}");
            assert_eq!(stats.shapes_skipped, 1, "threads = {threads}");
            assert_eq!(stats.targets_deduped, 3, "threads = {threads}");
            assert!(stats.checks_derived > 0, "threads = {threads}");
        }
        // A mismatched index is refused and the run stays exact.
        let other = Schema::new([ShapeDef::new(
            term("Only"),
            Shape::geq(1, p("label"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let stale =
            Arc::new(shapefrag_analyze::ContainmentMatrix::of_schema(&other).to_index(&other));
        let (report, stats) = Engine::new()
            .threads(2)
            .containment(stale)
            .validate(&schema, &g)
            .unwrap();
        assert_eq!(sequential, report);
        assert_eq!(stats.shapes_skipped, 0);
    }

    #[test]
    fn containment_index_derives_bits_and_skips_equivalent_defs() {
        // A ≥1 q (loose), B ≥2 q (strict, ⊑ A), C duplicates A. Dense ids
        // follow name order: A=0, B=1, C=2.
        let mk = |n: u32| Shape::geq(n, p("q"), Shape::True);
        let target = Shape::geq(1, p("t"), Shape::True);
        let schema = Schema::new([
            ShapeDef::new(term("A"), mk(1), target.clone()),
            ShapeDef::new(term("B"), mk(2), target.clone()),
            ShapeDef::new(term("C"), mk(1), target),
        ])
        .unwrap();
        let g = Graph::from_triples([
            t("a", "t", "m"),
            t("a", "q", "x"),
            t("b", "t", "m"),
            t("b", "q", "x"),
            t("b", "q", "y"),
            t("c", "t", "m"),
        ]);
        let index = Arc::new(ContainmentIndex::from_edges(
            3,
            &[(1, 0), (0, 2), (2, 0), (1, 2)],
            schema_fingerprint(&schema),
        ));
        let (report, stats) = Engine::new()
            .containment(index)
            .validate(&schema, &g)
            .unwrap();
        // C is fully derived from A's bits (equivalent shape, same target).
        assert_eq!(stats.shapes_skipped, 1);
        assert!(
            stats.checks_derived > 0,
            "expected derived answers, got none"
        );
        // Bit-identical to the per-node driver.
        assert_eq!(report, validate(&schema, &g));
    }

    #[test]
    fn parallel_extract_matches_per_node() {
        let g = chain_graph(200).freeze();
        let schema = chain_schema();
        let (seq_report, seq_frag) = validate_extract_fragment_per_node(&schema, &g);
        for threads in [1, 2, 4, 8] {
            let (report, frag, _) = Engine::new().threads(threads).extract(&schema, &g).unwrap();
            assert_eq!(seq_report, report, "threads = {threads}");
            assert_eq!(
                seq_frag.to_graph(&g),
                frag.to_graph(&g),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_fragment_ids_match_per_node() {
        let g = chain_graph(150).freeze();
        let schema = chain_schema();
        let shapes = schema.request_shapes();
        let sequential = fragment_ids_per_node(&schema, &g, &shapes);
        for threads in [1, 2, 4, 8] {
            let (parallel, _) = Engine::new()
                .threads(threads)
                .fragment(&schema, &g, &shapes)
                .unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn governed_parallel_agrees_when_generous() {
        let g = chain_graph(120).freeze();
        let schema = chain_schema();
        let sequential = validate(&schema, &g);
        let (seq_report, seq_frag) = validate_extract_fragment_per_node(&schema, &g);
        for threads in [1, 2, 4] {
            let engine = Engine::new()
                .threads(threads)
                .budget(Budget::unlimited().steps(10_000_000));
            assert_eq!(sequential, engine.validate(&schema, &g).unwrap().0);
            let (report, frag, _) = engine.extract(&schema, &g).unwrap();
            assert_eq!(seq_report, report, "threads = {threads}");
            assert_eq!(seq_frag.to_graph(&g), frag.to_graph(&g));
        }
    }

    #[test]
    fn governed_parallel_surfaces_budget_fault() {
        let g = chain_graph(200).freeze();
        let schema = chain_schema();
        for threads in [1, 2, 4] {
            let engine = Engine::new()
                .threads(threads)
                .budget(Budget::unlimited().steps(5));
            for err in [
                engine.validate(&schema, &g).map(|_| ()).unwrap_err(),
                engine.extract(&schema, &g).map(|_| ()).unwrap_err(),
                engine
                    .fragment(&schema, &g, &schema.request_shapes())
                    .map(|_| ())
                    .unwrap_err(),
            ] {
                assert!(
                    matches!(
                        err,
                        EngineError::BudgetExceeded {
                            kind: BudgetKind::Steps,
                            ..
                        }
                    ),
                    "threads = {threads}: {err:?}"
                );
            }
        }
    }

    /// Planning and the evaluation passes spend from one budget: a step
    /// limit either phase alone fits in is too small for the job. With a
    /// containment index the copy of a definition runs in a second pass,
    /// which spends from the same budget.
    #[test]
    fn one_budget_covers_planning_and_evaluation() {
        let g = chain_graph(300).freeze();
        // A target that walks `next*` makes planning spend steps too.
        let def = |name: &str| {
            ShapeDef::new(
                term(name),
                Shape::geq(1, p("label"), Shape::True),
                Shape::geq(1, p("next").star(), Shape::has_value(term("n0"))),
            )
        };
        let one = Schema::new([def("Labelled")]).unwrap();
        let two = Schema::new([def("Labelled"), def("Copy")]).unwrap();
        let index = Arc::new(shapefrag_analyze::ContainmentMatrix::of_schema(&two).to_index(&two));
        for (schema, open) in [
            (one, Engine::new()),
            (two, Engine::new().containment(index)),
        ] {
            let mut job = open.job(&schema, &g, open.memo(&schema, &g));
            let (targets, _) = resolve_targets(&mut job.planner, &schema).unwrap();
            let planning = job.planner.exec().steps_used();
            open.decide(&job, &targets).unwrap();
            let total = job.planner.exec().steps_used();
            let evaluation = total - planning;
            assert!(planning > 0 && evaluation > 0, "{planning} + {evaluation}");
            let steps = |n: u64| open.clone().budget(Budget::unlimited().steps(n));
            for limit in [planning.max(evaluation), total - 1] {
                let err = steps(limit).validate(&schema, &g).map(|_| ()).unwrap_err();
                assert_eq!(
                    err,
                    EngineError::BudgetExceeded {
                        kind: BudgetKind::Steps,
                        limit
                    }
                );
            }
            let (report, stats) = steps(total).validate(&schema, &g).unwrap();
            assert_eq!(report, validate(&schema, &g));
            assert_eq!(stats.shapes_skipped, schema.len() as u64 - 1);
        }
    }

    #[test]
    fn governed_parallel_observes_pre_cancelled_token() {
        let g = chain_graph(100).freeze();
        let schema = chain_schema();
        let token = CancelToken::new();
        token.cancel();
        let engine = Engine::new().threads(4).cancel(&token);
        let err = engine.validate(&schema, &g).map(|_| ()).unwrap_err();
        assert_eq!(err, EngineError::Cancelled);
        let err = engine.fragment(&schema, &g, &[]).map(|_| ()).unwrap_err();
        assert_eq!(err, EngineError::Cancelled);
    }

    #[test]
    fn empty_schema_and_empty_graph_are_fine() {
        let g = Graph::default().freeze();
        let schema = Schema::empty();
        let (report, stats) = Engine::new().threads(4).validate(&schema, &g).unwrap();
        assert!(report.conforms());
        assert_eq!(report.checked, 0);
        assert_eq!(stats.units, 0);
        let (frag, _) = Engine::new().threads(4).fragment(&schema, &g, &[]).unwrap();
        assert!(frag.is_empty());
    }
}
