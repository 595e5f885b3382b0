//! `suite-large`: the 57-shape suite, loaded from Turtle (212
//! definitions), against a 54k-individual Tyrolean graph (~307k triples).
//! Operations: `validate` on 1 thread, on 2 threads, and instrumented
//! validation (`validate_extract_fragment`), as `shapefrag validate` and
//! the provenance path call them.

use std::time::Instant;

use shapefrag_core::{validate_batch_par, validate_extract_fragment};
use shapefrag_rdf::{FrozenGraph, GraphAccess};
use shapefrag_shacl::validator::validate;
use shapefrag_shacl::Schema;

use crate::engine::{self, report_key, Ledger, ReportKey};
use crate::stats::{median, ms_since, peak_rss_mb, reset_peak_rss};
use crate::trace::Tracer;
use crate::{gen, Args, Outcome};

const INDIVIDUALS: usize = 54_000;
const SETUPS: usize = 4;

/// Per-round times of the three operations, in ms.
#[derive(Default)]
struct Rounds {
    validate: Vec<f64>,
    validate_2t: Vec<f64>,
    provenance: Vec<f64>,
    total: Vec<f64>,
    reference: Vec<f64>,
}

/// Runs rounds of the three operations until `seconds` have passed (at
/// least two rounds), checking every output against the reference.
fn measure(
    t: &Tracer,
    schema: &Schema,
    g: &FrozenGraph,
    want: &ReportKey,
    want_frag: usize,
    seconds: f64,
    out: &mut Outcome,
) -> Rounds {
    let mut r = Rounds::default();
    let mut reference = crate::stats::Reference::new();
    let start = Instant::now();
    while r.total.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        r.reference.push(reference.time_ms());
        let round = Instant::now();
        t.next_op();
        let s = Instant::now();
        let rep = t.span("op.validate", || validate(schema, g));
        r.validate.push(ms_since(s));
        out.check(report_key(&rep) == *want, "validate report");
        t.next_op();
        let s = Instant::now();
        let rep = t.span("op.validate_2t", || validate_batch_par(schema, g, 2));
        r.validate_2t.push(ms_since(s));
        out.check(report_key(&rep) == *want, "2-thread report");
        t.next_op();
        let s = Instant::now();
        let (rep, frag) = t.span("op.provenance", || validate_extract_fragment(schema, g));
        r.provenance.push(ms_since(s));
        out.check(
            report_key(&rep) == *want && frag.len() == want_frag,
            "instrumented report and fragment",
        );
        r.total.push(ms_since(round));
    }
    r
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let t = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    eprintln!(
        "suite-large: generating {INDIVIDUALS} individuals (seed {})",
        args.seed
    );
    let shapes = gen::suite_turtle();
    let data = gen::data(INDIVIDUALS, args.seed).text;
    reset_peak_rss();

    // Set-up: shapes parse + analysis, data parse + freeze.
    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUPS {
        drop(loaded.take());
        let s = Instant::now();
        let schema = engine::load_schema(&t, &shapes);
        let (graph, frozen) = engine::load_data(&t, &data);
        setup_s.push(s.elapsed().as_secs_f64());
        loaded = Some((schema, graph, frozen));
    }
    let (schema, graph, g) = loaded.expect("set up at least once");
    eprintln!(
        "suite-large: {} definitions, {} triples, setup {:.3}s",
        schema.len(),
        graph.len(),
        median(&setup_s)
    );

    // Correctness first: 1-thread, 2-thread and instrumented reports agree.
    let want = report_key(&validate(&schema, &g));
    out.check(want.0 > 0 && !want.1.is_empty(), "non-trivial report");
    out.check(
        report_key(&validate_batch_par(&schema, &g, 2)) == want,
        "2-thread report equals 1-thread report",
    );
    let (prov, frag) = validate_extract_fragment(&schema, &g);
    out.check(
        report_key(&prov) == want,
        "instrumented report equals plain report",
    );
    let want_frag = frag.len();

    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = measure(
        &quiet,
        &schema,
        &g,
        &want,
        want_frag,
        untraced_secs,
        &mut out,
    );
    eprintln!("suite-large: round times (ms) {:.0?}", plain.total);
    out.put("setup_s", median(&setup_s));
    out.put("peak_rss_mb", peak_rss_mb(None));
    out.put_times(
        median(&plain.validate),
        median(&plain.provenance),
        3.0 / (median(&plain.total) / 1e3),
        median(&plain.reference),
    );
    out.put("workload.validate_2t_ms", median(&plain.validate_2t));

    if args.trace {
        let traced = measure(
            &t,
            &schema,
            &g,
            &want,
            want_frag,
            args.seconds / 2.0,
            &mut out,
        );
        let mut led = Ledger::default();
        let rep = engine::validation_layers(&t, &schema, &g, &mut led);
        out.check(report_key(&rep) == want, "layer-by-layer report");
        let rep = engine::sched_layer(&t, &schema, &g, &mut led);
        out.check(report_key(&rep) == want, "scheduler report");
        let val = median(&traced.validate);
        let pro = median(&traced.provenance);
        let overhead = (pro - val) / val * 100.0;
        for name in [
            "instrumented.overhead_sum_pct",
            "instrumented.overhead_mean_pct",
            "instrumented.overhead_median_pct",
            "instrumented.overhead_p90_pct",
            "instrumented.overhead_worst_pct",
        ] {
            out.put(name, overhead);
        }
        out.put("neighborhood.ms", pro - val);
        out.put("neighborhood.triples", want_frag as f64);
        out.put(
            "bench.tracing_overhead_pct",
            (median(&traced.total) - median(&plain.total)) / median(&plain.total) * 100.0,
        );
        out.put("rdf.terms", g.term_count() as f64);
        out.put("shacl.defs", schema.len() as f64);
        engine::put_layers(&t, &mut out, &led, SETUPS, graph.len());
        let path = args
            .out
            .join(format!("suite-large-seed{}-trace.jsonl", args.seed));
        if let Err(e) = t.write(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    out
}
