//! Cost-routed work-stealing parallel validation and extraction (DESIGN.md
//! §12).
//!
//! The engines here partition work by **shape × target-chunk** over a
//! shared graph snapshot (typically an `Arc<FrozenGraph>` deref) and run
//! the chunks on the [`shapefrag_sched`] work-stealing scheduler. Each
//! unit's static cost is the analyze crate's per-shape cost class
//! ([`shape_cost`]) scaled by chunk size, so product-graph BFS shapes are
//! dispatched before cheap local lookups and stragglers backfill via
//! steals.
//!
//! Determinism: planning happens sequentially (per-definition target
//! resolution, NNF conversion, target-evidence analysis) and every unit is
//! tagged with its planning-order sequence number. Workers record results
//! per unit; the merge sorts by sequence number, which reproduces the
//! single-threaded batch drivers' reports **exactly** — same `checked`
//! count, same violations in the same (definition-major, target-minor)
//! order. Fragments are id-triple *sets*, so their union is order-free by
//! construction.
//!
//! Sharing: all workers validate against one lock-free dense
//! [`ConformanceMemo`], so a `hasShape` sub-shape referenced from units on
//! different workers is still decided at most once per (shape, node) —
//! modulo benign races where two workers decide the same pair
//! concurrently (both compute the same value).
//!
//! Governance: the governed engine gives every worker its own [`ExecCtx`]
//! carrying `budget.split(threads)` and a clone of the caller's
//! [`CancelToken`]. Budgets are per-context counters, not a shared pool,
//! so the split is an approximation: a parallel run may trip a step budget
//! a single-threaded run would squeak under (and vice versa), but the
//! *kind* of enforcement — steps, memory, deadline, depth, cancellation —
//! and the error taxonomy are preserved. When several workers fault, the
//! fault attached to the lowest planning sequence number wins, mirroring
//! "first fault in definition order" from the sequential driver.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use shapefrag_analyze::{shape_cost, shape_shares_work, PathClass};
use shapefrag_govern::{Budget, CancelToken, EngineError, ExecCtx};
use shapefrag_rdf::{GraphAccess, Term, TermId};
use shapefrag_sched::{run, RunStats, WorkUnit};
use shapefrag_shacl::validator::{
    ConformanceMemo, ContainmentIndex, Context, ValidationReport, Violation,
};
use shapefrag_shacl::{Nnf, Schema, Shape, ShapeDef};

use crate::instrumented::{SchemaFragment, TargetEvidence, BATCH_MIN_TARGETS};
use crate::neighborhood::{collect_neighborhood_many, conforms_and_collect, IdTriples};

/// One schedulable span: a contiguous slice `[lo, hi)` of one
/// definition's (or request shape's) sorted target list, tagged with its
/// planning-order sequence number for the deterministic merge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) seq: usize,
    pub(crate) def: usize,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

/// Static unit priority: the shape's fan-out class (a Kleene-closure BFS
/// outranks bounded adjacency scans outranks single lookups), doubled when
/// batch evaluation shares work across the chunk's nodes, scaled by chunk
/// length.
pub(crate) fn unit_cost(schema: &Schema, nnf: &Nnf, len: usize) -> u64 {
    let cost = shape_cost(schema, nnf);
    let base: u64 = match cost.fan_out {
        Some(PathClass::Traversing) => 16,
        Some(PathClass::Local) => 4,
        Some(PathClass::Simple) => 2,
        None => 1,
    };
    let shared: u64 = if cost.shares_work { 2 } else { 1 };
    base * shared * len.max(1) as u64
}

/// Chunk length for a target list: about four units per worker for steal
/// granularity, but never so small that per-unit overhead dominates. With
/// one thread the whole list is a single unit (the engine then matches the
/// sequential driver call-for-call).
pub(crate) fn chunk_len(total: usize, threads: usize) -> usize {
    if threads <= 1 {
        total.max(1)
    } else {
        (total / (threads * 4)).clamp(64, 2048)
    }
}

pub(crate) fn spans_for(
    targets: usize,
    chunk: usize,
    def: usize,
    seq: &mut usize,
    out: &mut Vec<Span>,
) {
    let mut lo = 0;
    while lo < targets {
        let hi = (lo + chunk).min(targets);
        out.push(Span {
            seq: *seq,
            def,
            lo,
            hi,
        });
        *seq += 1;
        lo = hi;
    }
}

fn violation<G: GraphAccess>(graph: &G, name: &Term, node: TermId) -> Violation {
    Violation {
        shape: name.clone(),
        focus: graph.term(node).clone(),
    }
}

/// Per-unit validation result: `(seq, checked, violations)`.
type UnitOut = (usize, usize, Vec<Violation>);

fn merge_report(per_worker: Vec<Vec<UnitOut>>) -> ValidationReport {
    let mut units: Vec<UnitOut> = per_worker.into_iter().flatten().collect();
    units.sort_by_key(|(seq, _, _)| *seq);
    let mut report = ValidationReport::default();
    for (_, checked, violations) in units {
        report.checked += checked;
        report.violations.extend(violations);
    }
    report
}

struct DefPlan<'a> {
    name: &'a Term,
    /// Top-level check routed through the *named* path
    /// (`hasShape(def.name)` ≡ the definition's shape), so definition-level
    /// bits land in the shared memo where subsumption derivation and
    /// cross-definition reuse can see them.
    shape: Shape,
    targets: Vec<TermId>,
}

fn plan_defs<'a, G: GraphAccess>(
    schema: &'a Schema,
    ctx: &mut Context<'_, G>,
    threads: usize,
) -> (Vec<DefPlan<'a>>, Vec<WorkUnit<Span>>) {
    let mut plans = Vec::new();
    let mut units = Vec::new();
    let mut seq = 0;
    for (d, def) in schema.iter().enumerate() {
        let nnf = Nnf::from_shape(&def.shape);
        let targets: Vec<TermId> = ctx.target_nodes(&def.target).into_iter().collect();
        let chunk = chunk_len(targets.len(), threads);
        let mut spans = Vec::new();
        spans_for(targets.len(), chunk, d, &mut seq, &mut spans);
        for s in spans {
            units.push(WorkUnit {
                cost: unit_cost(schema, &nnf, s.hi - s.lo),
                item: s,
            });
        }
        plans.push(DefPlan {
            name: &def.name,
            shape: Shape::HasShape(def.name.clone()),
            targets,
        });
    }
    (plans, units)
}

/// Parallel [`shapefrag_shacl::validate_batch`]: identical report (same
/// `checked` count, same violation order), computed by `threads` workers
/// over shape × target-chunk units with cost-ordered work stealing.
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
    let threads = threads.max(1);
    let memo = Arc::new(ConformanceMemo::new());
    let mut plan_ctx = Context::with_memo(schema, graph, Arc::clone(&memo));
    let (plans, units) = plan_defs(schema, &mut plan_ctx, threads);
    drop(plan_ctx);
    let (per_worker, stats) = run(
        units,
        threads,
        |_| {
            (
                Context::with_memo(schema, graph, Arc::clone(&memo)),
                Vec::<UnitOut>::new(),
            )
        },
        |(ctx, out), span: Span| {
            let plan = &plans[span.def];
            let nodes = &plan.targets[span.lo..span.hi];
            let decisions = ctx.conforms_all(nodes, &plan.shape);
            let mut violations = Vec::new();
            for (node, ok) in nodes.iter().zip(decisions) {
                if !ok {
                    violations.push(violation(graph, plan.name, *node));
                }
            }
            out.push((span.seq, nodes.len(), violations));
        },
        |_, (_, out)| out,
    );
    (merge_report(per_worker), stats)
}

/// Containment-aware [`validate_batch_par_stats`]: the planner dedupes
/// syntactically identical target lists, withholds definitions whose
/// answers are fully derivable from an earlier *equivalent* definition
/// (mutual containment edges + identical target), and attaches `index` to
/// the shared memo so workers derive answers through containment edges.
/// The report is bit-identical to [`shapefrag_shacl::validate_batch`];
/// `RunStats` carries `shapes_skipped` / `checks_derived` /
/// `targets_deduped`.
pub fn validate_batch_par_containment<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    threads: usize,
    index: Arc<ContainmentIndex>,
) -> (ValidationReport, RunStats) {
    let threads = threads.max(1);
    let memo = Arc::new(ConformanceMemo::new());
    let mut plan_ctx = Context::with_memo(schema, graph, Arc::clone(&memo));
    // Attach after `with_memo` has bound the fingerprint, so an index from
    // a different schema is refused (the run then proceeds underived).
    let attached = memo.attach_containment(Arc::clone(&index));
    let defs: Vec<&ShapeDef> = schema.iter().collect();
    // Dedupe target resolution across definitions with syntactically
    // identical target shapes (resolution is deterministic, so reuse is
    // exact).
    let mut targets_deduped = 0u64;
    let mut target_lists: Vec<Vec<TermId>> = Vec::with_capacity(defs.len());
    for (i, def) in defs.iter().enumerate() {
        match defs[..i].iter().position(|e| e.target == def.target) {
            Some(j) => {
                targets_deduped += 1;
                let reused = target_lists[j].clone();
                target_lists.push(reused);
            }
            None => target_lists.push(plan_ctx.target_nodes(&def.target).into_iter().collect()),
        }
    }
    drop(plan_ctx);
    // A definition is covered when an earlier, not-itself-covered
    // definition has a provably equivalent shape and the same target: all
    // its bits will derive from that representative's.
    let mut covered = vec![false; defs.len()];
    if attached {
        for i in 0..defs.len() {
            for j in 0..i {
                if !covered[j]
                    && defs[i].target == defs[j].target
                    && index.supers_of(i as u32).contains(&(j as u32))
                    && index.subs_of(i as u32).contains(&(j as u32))
                {
                    covered[i] = true;
                    break;
                }
            }
        }
    }
    let mut plans = Vec::new();
    let mut units = Vec::new();
    let mut seq = 0usize;
    // Covered definitions reserve one sequence slot each (report rows are
    // merged by seq, so their violations land in definition order) but
    // emit no work units; their rows are resolved from memo bits after
    // the run.
    let mut deferred: Vec<(usize, usize)> = Vec::new();
    for (d, def) in defs.iter().enumerate() {
        let targets = std::mem::take(&mut target_lists[d]);
        if covered[d] {
            deferred.push((seq, d));
            seq += 1;
        } else {
            let nnf = Nnf::from_shape(&def.shape);
            let chunk = chunk_len(targets.len(), threads);
            let mut spans = Vec::new();
            spans_for(targets.len(), chunk, d, &mut seq, &mut spans);
            for s in spans {
                units.push(WorkUnit {
                    cost: unit_cost(schema, &nnf, s.hi - s.lo),
                    item: s,
                });
            }
        }
        plans.push(DefPlan {
            name: &def.name,
            shape: Shape::HasShape(def.name.clone()),
            targets,
        });
    }
    let (per_worker, mut stats) = run(
        units,
        threads,
        |_| {
            (
                Context::with_memo(schema, graph, Arc::clone(&memo)),
                Vec::<UnitOut>::new(),
            )
        },
        |(ctx, out), span: Span| {
            let plan = &plans[span.def];
            let nodes = &plan.targets[span.lo..span.hi];
            let decisions = ctx.conforms_all(nodes, &plan.shape);
            let mut violations = Vec::new();
            for (node, ok) in nodes.iter().zip(decisions) {
                if !ok {
                    violations.push(violation(graph, plan.name, *node));
                }
            }
            out.push((span.seq, nodes.len(), violations));
        },
        |_, (_, out)| out,
    );
    let mut rows = per_worker;
    if !deferred.is_empty() {
        let mut ctx = Context::with_memo(schema, graph, Arc::clone(&memo));
        let mut extra: Vec<UnitOut> = Vec::new();
        for (slot, d) in deferred {
            let plan = &plans[d];
            let mut violations = Vec::new();
            for &node in &plan.targets {
                let ok = match memo.lookup_or_derive(d as u32, node) {
                    Some(v) => v,
                    // Defensive: the representative should have decided
                    // every shared target, but an underivable pair is
                    // simply evaluated (still exact).
                    None => ctx.conforms_all(&[node], &plan.shape)[0],
                };
                if !ok {
                    violations.push(violation(graph, plan.name, node));
                }
            }
            extra.push((slot, plan.targets.len(), violations));
        }
        rows.push(extra);
    }
    stats.shapes_skipped = covered.iter().filter(|&&c| c).count() as u64;
    stats.checks_derived = memo.containment_counters().0;
    stats.targets_deduped = targets_deduped;
    (merge_report(rows), stats)
}

/// Resource-governed [`validate_batch_par`]: every worker runs under its
/// own [`ExecCtx`] carrying `budget.split(threads)` and the shared
/// cancellation token; the first fault in planning order is surfaced as
/// the result. With one thread this is exactly
/// [`shapefrag_shacl::validator::validate_batch_governed`].
pub fn validate_batch_par_governed<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    threads: usize,
    budget: Budget,
    cancel: Option<&CancelToken>,
) -> Result<ValidationReport, EngineError> {
    let attach = |mut exec: ExecCtx| {
        if let Some(token) = cancel {
            exec = exec.with_cancel(token);
        }
        exec
    };
    let threads = threads.max(1);
    if threads == 1 {
        return shapefrag_shacl::validator::validate_batch_governed(
            schema,
            graph,
            attach(ExecCtx::with_budget(budget)),
        );
    }
    let memo = Arc::new(ConformanceMemo::new());
    // Planning (target resolution) runs sequentially under the full
    // budget, exactly like the sequential driver's per-definition prelude.
    let mut plan_ctx = Context::with_memo(schema, graph, Arc::clone(&memo))
        .with_exec(attach(ExecCtx::with_budget(budget)));
    let mut plans = Vec::new();
    let mut units = Vec::new();
    let mut seq = 0;
    for (d, def) in schema.iter().enumerate() {
        plan_ctx.exec().check_now()?;
        let nnf = Nnf::from_shape(&def.shape);
        let targets: Vec<TermId> = plan_ctx.target_nodes(&def.target).into_iter().collect();
        if let Some(e) = plan_ctx.take_fault() {
            return Err(e);
        }
        let chunk = chunk_len(targets.len(), threads);
        let mut spans = Vec::new();
        spans_for(targets.len(), chunk, d, &mut seq, &mut spans);
        for s in spans {
            units.push(WorkUnit {
                cost: unit_cost(schema, &nnf, s.hi - s.lo),
                item: s,
            });
        }
        plans.push(DefPlan {
            name: &def.name,
            shape: Shape::HasShape(def.name.clone()),
            targets,
        });
    }
    drop(plan_ctx);
    let worker_budget = budget.split(threads);
    let fault: Mutex<Option<(usize, EngineError)>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let record_fault = |seq: usize, e: EngineError| {
        let mut slot = fault.lock().expect("fault slot poisoned");
        match &*slot {
            Some((s, _)) if *s <= seq => {}
            _ => *slot = Some((seq, e)),
        }
        abort.store(true, Ordering::Release);
    };
    let (per_worker, _) = run(
        units,
        threads,
        |_| {
            (
                Context::with_memo(schema, graph, Arc::clone(&memo))
                    .with_exec(attach(ExecCtx::with_budget(worker_budget))),
                Vec::<UnitOut>::new(),
            )
        },
        |(ctx, out), span: Span| {
            if abort.load(Ordering::Acquire) {
                return;
            }
            let plan = &plans[span.def];
            let nodes = &plan.targets[span.lo..span.hi];
            let decisions = ctx.conforms_all(nodes, &plan.shape);
            if let Some(e) = ctx.take_fault() {
                record_fault(span.seq, e);
                return;
            }
            let mut violations = Vec::new();
            for (node, ok) in nodes.iter().zip(decisions) {
                if !ok {
                    violations.push(violation(graph, plan.name, *node));
                }
            }
            out.push((span.seq, nodes.len(), violations));
        },
        |_, (_, out)| out,
    );
    if let Some((_, e)) = fault.into_inner().expect("fault slot poisoned") {
        return Err(e);
    }
    Ok(merge_report(per_worker))
}

struct ExtractPlan<'a> {
    name: &'a Term,
    nnf: Nnf,
    targets: Vec<TermId>,
    evidence: TargetEvidence,
    /// Route of the *whole definition* (decided on the full target count,
    /// matching the sequential driver): below [`BATCH_MIN_TARGETS`] or
    /// without shared work, units run the single-pass per-node collector.
    per_node: bool,
}

/// Parallel [`crate::validate_extract_fragment`]: identical report and
/// fragment, with neighborhoods collected by the workers and unioned.
pub fn validate_extract_fragment_par<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    threads: usize,
) -> (ValidationReport, SchemaFragment) {
    let (report, fragment, _) = validate_extract_fragment_par_stats(schema, graph, threads);
    (report, fragment)
}

/// [`validate_extract_fragment_par`] plus the scheduler's run counters.
pub fn validate_extract_fragment_par_stats<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    threads: usize,
) -> (ValidationReport, SchemaFragment, RunStats) {
    let threads = threads.max(1);
    let memo = Arc::new(ConformanceMemo::new());
    let mut plan_ctx = Context::with_memo(schema, graph, Arc::clone(&memo));
    let mut plans = Vec::new();
    let mut units = Vec::new();
    let mut seq = 0;
    for (d, def) in schema.iter().enumerate() {
        let nnf = Nnf::from_shape(&def.shape);
        let targets: Vec<TermId> = plan_ctx.target_nodes(&def.target).into_iter().collect();
        let evidence = TargetEvidence::analyze(&mut plan_ctx, &def.target);
        let per_node = targets.len() < BATCH_MIN_TARGETS || !shape_shares_work(schema, &nnf);
        let chunk = chunk_len(targets.len(), threads);
        let mut spans = Vec::new();
        spans_for(targets.len(), chunk, d, &mut seq, &mut spans);
        for s in spans {
            units.push(WorkUnit {
                cost: unit_cost(schema, &nnf, s.hi - s.lo),
                item: s,
            });
        }
        plans.push(ExtractPlan {
            name: &def.name,
            nnf,
            targets,
            evidence,
            per_node,
        });
    }
    drop(plan_ctx);
    struct State<'a, G: GraphAccess> {
        ctx: Context<'a, G>,
        journal: Vec<(TermId, TermId, TermId)>,
        triples: IdTriples,
        out: Vec<UnitOut>,
    }
    let (per_worker, stats) = run(
        units,
        threads,
        |_| State {
            ctx: Context::with_memo(schema, graph, Arc::clone(&memo)),
            journal: Vec::new(),
            triples: IdTriples::default(),
            out: Vec::new(),
        },
        |state, span: Span| {
            let plan = &plans[span.def];
            let nodes = &plan.targets[span.lo..span.hi];
            let mut violations = Vec::new();
            if plan.per_node {
                for &node in nodes {
                    state.journal.clear();
                    if conforms_and_collect(&mut state.ctx, node, &plan.nnf, &mut state.journal) {
                        state.triples.extend(state.journal.iter().copied());
                        plan.evidence
                            .collect(&mut state.ctx, node, &mut state.triples);
                    } else {
                        violations.push(violation(graph, plan.name, node));
                    }
                }
            } else {
                let decisions = state.ctx.conforms_all_nnf(nodes, &plan.nnf);
                let mut conforming: Vec<TermId> = Vec::with_capacity(nodes.len());
                for (node, ok) in nodes.iter().zip(decisions) {
                    if ok {
                        conforming.push(*node);
                        plan.evidence
                            .collect(&mut state.ctx, *node, &mut state.triples);
                    } else {
                        violations.push(violation(graph, plan.name, *node));
                    }
                }
                collect_neighborhood_many(
                    &mut state.ctx,
                    &conforming,
                    &plan.nnf,
                    &mut state.triples,
                );
            }
            state.out.push((span.seq, nodes.len(), violations));
        },
        |_, state| (state.out, state.triples),
    );
    let mut all = IdTriples::default();
    let mut outs = Vec::new();
    for (out, triples) in per_worker {
        all.extend(triples);
        outs.push(out);
    }
    (merge_report(outs), SchemaFragment::from_ids(all), stats)
}

/// Parallel [`crate::fragment_ids`]: the fragment for request shapes `S`,
/// partitioned by shape × node-chunk. The result is the identical id-triple
/// set (fragments are sets, so the union is order-free).
pub fn fragment_ids_par<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    shapes: &[Shape],
    threads: usize,
) -> IdTriples {
    fragment_ids_par_stats(schema, graph, shapes, threads).0
}

/// [`fragment_ids_par`] plus the scheduler's run counters.
pub fn fragment_ids_par_stats<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    shapes: &[Shape],
    threads: usize,
) -> (IdTriples, RunStats) {
    let threads = threads.max(1);
    let memo = Arc::new(ConformanceMemo::new());
    let nodes: Vec<TermId> = graph.node_ids().into_iter().collect();
    let nnfs: Vec<Nnf> = shapes.iter().map(Nnf::from_shape).collect();
    let mut units = Vec::new();
    let mut seq = 0;
    for (d, nnf) in nnfs.iter().enumerate() {
        let chunk = chunk_len(nodes.len(), threads);
        let mut spans = Vec::new();
        spans_for(nodes.len(), chunk, d, &mut seq, &mut spans);
        for s in spans {
            units.push(WorkUnit {
                cost: unit_cost(schema, nnf, s.hi - s.lo),
                item: s,
            });
        }
    }
    let (per_worker, stats) = run(
        units,
        threads,
        |_| {
            (
                Context::with_memo(schema, graph, Arc::clone(&memo)),
                IdTriples::default(),
            )
        },
        |(ctx, triples), span: Span| {
            let nnf = &nnfs[span.def];
            let chunk = &nodes[span.lo..span.hi];
            let decisions = ctx.conforms_all_nnf(chunk, nnf);
            let conforming: Vec<TermId> = chunk
                .iter()
                .zip(decisions)
                .filter(|(_, ok)| *ok)
                .map(|(&v, _)| v)
                .collect();
            collect_neighborhood_many(ctx, &conforming, nnf, triples);
        },
        |_, (_, triples)| triples,
    );
    let mut all = IdTriples::default();
    for triples in per_worker {
        all.extend(triples);
    }
    (all, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::fragment_ids;
    use crate::instrumented::validate_extract_fragment;
    use shapefrag_rdf::{Graph, Iri, Triple};
    use shapefrag_shacl::path::PathExpr;
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

    /// A chain graph with typed nodes: big enough to split into several
    /// chunks at 4–8 threads, with both conforming and violating targets.
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
    fn parallel_report_is_bit_identical_to_batch() {
        let g = chain_graph(300).freeze();
        let schema = chain_schema();
        let sequential = shapefrag_shacl::validate_batch(&schema, &g);
        for threads in [1, 2, 4, 8] {
            let (parallel, stats) = validate_batch_par_stats(&schema, &g, threads);
            assert_eq!(sequential, parallel, "threads = {threads}");
            assert!(stats.units > 0);
        }
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
        let sequential = shapefrag_shacl::validate_batch(&schema, &g);
        for threads in [1, 2, 4] {
            let (report, stats) =
                validate_batch_par_containment(&schema, &g, threads, Arc::clone(&index));
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
        let (report, stats) = validate_batch_par_containment(&schema, &g, 2, stale);
        assert_eq!(sequential, report);
        assert_eq!(stats.shapes_skipped, 0);
    }

    #[test]
    fn parallel_extract_matches_sequential() {
        let g = chain_graph(200).freeze();
        let schema = chain_schema();
        let (seq_report, seq_frag) = validate_extract_fragment(&schema, &g);
        for threads in [1, 2, 4, 8] {
            let (report, frag) = validate_extract_fragment_par(&schema, &g, threads);
            assert_eq!(seq_report, report, "threads = {threads}");
            assert_eq!(
                seq_frag.to_graph(&g),
                frag.to_graph(&g),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_fragment_ids_match_sequential() {
        let g = chain_graph(150).freeze();
        let schema = chain_schema();
        let shapes = schema.request_shapes();
        let sequential = fragment_ids(&schema, &g, &shapes);
        for threads in [1, 2, 4, 8] {
            let parallel = fragment_ids_par(&schema, &g, &shapes, threads);
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn governed_parallel_agrees_when_unconstrained() {
        let g = chain_graph(120).freeze();
        let schema = chain_schema();
        let sequential = shapefrag_shacl::validate_batch(&schema, &g);
        for threads in [1, 2, 4] {
            let report =
                validate_batch_par_governed(&schema, &g, threads, Budget::unlimited(), None)
                    .expect("unlimited budget cannot fault");
            assert_eq!(sequential, report, "threads = {threads}");
        }
    }

    #[test]
    fn governed_parallel_surfaces_budget_fault() {
        let g = chain_graph(200).freeze();
        let schema = chain_schema();
        for threads in [2, 4] {
            let err = validate_batch_par_governed(
                &schema,
                &g,
                threads,
                Budget::unlimited().steps(5),
                None,
            )
            .expect_err("five steps cannot validate 200 nodes");
            assert!(
                matches!(err, EngineError::BudgetExceeded { .. }),
                "threads = {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn governed_parallel_observes_pre_cancelled_token() {
        let g = chain_graph(100).freeze();
        let schema = chain_schema();
        let token = CancelToken::new();
        token.cancel();
        let err = validate_batch_par_governed(&schema, &g, 4, Budget::unlimited(), Some(&token))
            .expect_err("cancelled before start");
        assert_eq!(err, EngineError::Cancelled);
    }

    #[test]
    fn empty_schema_and_empty_graph_are_fine() {
        let g = Graph::default().freeze();
        let schema = Schema::empty();
        let (report, stats) = validate_batch_par_stats(&schema, &g, 4);
        assert!(report.conforms());
        assert_eq!(report.checked, 0);
        assert_eq!(stats.units, 0);
        let (frag, _) = fragment_ids_par_stats(&schema, &g, &[], 4);
        assert!(frag.is_empty());
    }
}
