//! `per-shape`: the paper's Figure 1 protocol on a 6k-individual graph
//! (~34k triples). Each of the 57 suite shapes is its own schema, written
//! to Turtle with its property shapes and parsed back. A pass runs, for
//! every shape, `validate`, instrumented validation and the `fragment`
//! command's path (`schema_fragment` + N-Triples serialization).

use std::time::Instant;

use shapefrag_core::{schema_fragment, validate_extract_fragment};
use shapefrag_rdf::{ntriples, FrozenGraph, GraphAccess, Term};
use shapefrag_shacl::validator::{validate, Context};
use shapefrag_shacl::Schema;

use crate::engine::{self, report_key, Ledger, ReportKey};
use crate::stats::{median, ms_since, peak_rss_mb, quantile, reset_peak_rss};
use crate::trace::Tracer;
use crate::{gen, Args, Outcome};

const INDIVIDUALS: usize = 6_000;
const SETUPS: usize = 9;

/// The checked outputs of one shape.
struct Expected {
    report: ReportKey,
    fragment_len: usize,
    fragment_text: String,
}

/// Per-shape times of every pass, in ms: `[pass][shape]`.
#[derive(Default)]
struct Passes {
    validate: Vec<Vec<f64>>,
    provenance: Vec<Vec<f64>>,
    fragment: Vec<Vec<f64>>,
    total: Vec<f64>,
    reference: Vec<f64>,
}

impl Passes {
    /// Median over passes of one shape's time.
    fn per_shape(rows: &[Vec<f64>], shape: usize) -> f64 {
        median(&rows.iter().map(|r| r[shape]).collect::<Vec<_>>())
    }

    /// The time of one pass over all shapes: the sum of the per-shape
    /// medians, which a noisy moment during one call does not move.
    fn pass_ms(rows: &[Vec<f64>]) -> f64 {
        (0..rows[0].len()).map(|i| Passes::per_shape(rows, i)).sum()
    }
}

fn measure(
    t: &Tracer,
    schemas: &[Schema],
    g: &FrozenGraph,
    want: &[Expected],
    seconds: f64,
    out: &mut Outcome,
) -> Passes {
    let mut p = Passes::default();
    let mut reference = crate::stats::Reference::new();
    let start = Instant::now();
    while p.total.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        p.reference.push(reference.time_ms());
        let pass = Instant::now();
        let (mut val, mut pro, mut fra) = (Vec::new(), Vec::new(), Vec::new());
        for (schema, want) in schemas.iter().zip(want) {
            t.next_op();
            let s = Instant::now();
            let rep = t.span("op.validate", || validate(schema, g));
            val.push(ms_since(s));
            out.check(report_key(&rep) == want.report, "validate report");
            t.next_op();
            let s = Instant::now();
            let (rep, frag) = t.span("op.provenance", || validate_extract_fragment(schema, g));
            pro.push(ms_since(s));
            out.check(
                report_key(&rep) == want.report && frag.len() == want.fragment_len,
                "instrumented report and fragment",
            );
            t.next_op();
            let s = Instant::now();
            let text = t.span("op.fragment", || {
                ntriples::serialize(&schema_fragment(schema, g))
            });
            fra.push(ms_since(s));
            out.check(text == want.fragment_text, "fragment text");
        }
        p.validate.push(val);
        p.provenance.push(pro);
        p.fragment.push(fra);
        p.total.push(ms_since(pass));
    }
    p
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let t = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    eprintln!(
        "per-shape: generating {INDIVIDUALS} individuals (seed {})",
        args.seed
    );
    let suite = gen::suite_turtle();
    let shapes: Vec<(Term, String)> = gen::shape_turtles();
    let data = gen::data(INDIVIDUALS, args.seed).text;
    reset_peak_rss();

    // Set-up: 57 single-shape schemas parsed and analysed, data parsed
    // and frozen.
    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUPS {
        drop(loaded.take());
        let s = Instant::now();
        let schemas: Vec<Schema> = shapes
            .iter()
            .map(|(_, text)| engine::load_schema(&t, text))
            .collect();
        let (graph, frozen) = engine::load_data(&t, &data);
        setup_s.push(s.elapsed().as_secs_f64());
        loaded = Some((schemas, graph, frozen));
    }
    let (schemas, graph, g) = loaded.expect("set up at least once");
    let defs: usize = schemas.iter().map(Schema::len).sum();
    eprintln!(
        "per-shape: {} schemas ({defs} definitions), {} triples, setup {:.3}s",
        schemas.len(),
        graph.len(),
        median(&setup_s)
    );

    // Correctness first. Each single-shape schema must report exactly
    // what the full suite reports for that shape (a schema that lost its
    // property shapes would not), its instrumented run must agree with
    // it, and the instrumented fragment must equal `schema_fragment`.
    let full = engine::load_schema(&quiet, &suite);
    let full_report = report_key(&validate(&full, &g));
    let mut ctx = Context::new(&full, &g);
    let mut want = Vec::new();
    for ((name, _), schema) in shapes.iter().zip(&schemas) {
        let def = full.get(name).expect("suite defines every shape");
        let targets = ctx.target_nodes(&def.target).len();
        let label = name.to_string();
        let expected: Vec<(String, String)> = full_report
            .1
            .iter()
            .filter(|(s, _)| *s == label)
            .cloned()
            .collect();
        let report = report_key(&validate(schema, &g));
        out.check(
            report == (targets, expected),
            &format!("{label}: single-shape report equals the suite's"),
        );
        let (prov, frag) = validate_extract_fragment(schema, &g);
        out.check(
            report_key(&prov) == report,
            &format!("{label}: instrumented report"),
        );
        let fragment_text = ntriples::serialize(&schema_fragment(schema, &g));
        out.check(
            ntriples::serialize(&frag.to_graph(&g)) == fragment_text,
            &format!("{label}: instrumented fragment equals schema_fragment"),
        );
        want.push(Expected {
            report,
            fragment_len: frag.len(),
            fragment_text,
        });
    }
    drop(ctx);

    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = measure(&quiet, &schemas, &g, &want, untraced_secs, &mut out);
    eprintln!("per-shape: pass times (ms) {:.0?}", plain.total);
    out.put("setup_s", median(&setup_s));
    out.put("peak_rss_mb", peak_rss_mb(None));
    out.put_times(
        Passes::pass_ms(&plain.validate),
        Passes::pass_ms(&plain.provenance),
        (schemas.len() * 3) as f64 / (median(&plain.total) / 1e3),
        median(&plain.reference),
    );
    out.put("workload.fragment_ms", Passes::pass_ms(&plain.fragment));

    if args.trace {
        // Figure 1: per-shape overhead of instrumented over plain
        // validation, from the untraced passes.
        let n = schemas.len();
        let val: Vec<f64> = (0..n)
            .map(|i| Passes::per_shape(&plain.validate, i))
            .collect();
        let pro: Vec<f64> = (0..n)
            .map(|i| Passes::per_shape(&plain.provenance, i))
            .collect();
        let pct: Vec<f64> = val
            .iter()
            .zip(&pro)
            .map(|(v, p)| (p - v) / v * 100.0)
            .collect();
        let worst = (0..n)
            .max_by(|&a, &b| pct[a].total_cmp(&pct[b]))
            .unwrap_or(0);
        let (sv, sp): (f64, f64) = (val.iter().sum(), pro.iter().sum());
        out.put("instrumented.overhead_sum_pct", (sp - sv) / sv * 100.0);
        out.put(
            "instrumented.overhead_mean_pct",
            pct.iter().sum::<f64>() / n as f64,
        );
        out.put("instrumented.overhead_median_pct", median(&pct));
        out.put("instrumented.overhead_p90_pct", quantile(&pct, 0.9));
        out.put("instrumented.overhead_worst_pct", pct[worst]);
        eprintln!(
            "per-shape: worst Figure 1 overhead {:.1}% on {}",
            pct[worst], shapes[worst].0
        );
        out.put("neighborhood.ms", sp - sv);
        out.put(
            "neighborhood.triples",
            want.iter().map(|w| w.fragment_len).sum::<usize>() as f64,
        );

        let traced = measure(&t, &schemas, &g, &want, args.seconds / 2.0, &mut out);
        out.put(
            "bench.tracing_overhead_pct",
            (median(&traced.total) - median(&plain.total)) / median(&plain.total) * 100.0,
        );
        let mut led = Ledger::default();
        for (schema, want) in schemas.iter().zip(&want) {
            let rep = engine::validation_layers(&t, schema, &g, &mut led);
            out.check(report_key(&rep) == want.report, "layer-by-layer report");
            let text = engine::fragment_layers(&t, schema, &g, &mut led);
            out.check(text == want.fragment_text, "layer-by-layer fragment");
        }
        out.put("rdf.terms", g.term_count() as f64);
        out.put("shacl.defs", defs as f64);
        engine::put_layers(&t, &mut out, &led, SETUPS, graph.len());
        let path = args
            .out
            .join(format!("per-shape-seed{}-trace.jsonl", args.seed));
        if let Err(e) = t.write(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    out
}
