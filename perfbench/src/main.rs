//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! shapefrag-perfbench --workload <suite-large|per-shape|serve-mix> --seed N
//!                     --seconds S --trace <0|1> [--shapefrag PATH] [--out DIR]
//! ```
//!
//! Inputs are generated from the seed as text and handed to the engine
//! (or to a `shapefrag serve` child) only as text. Every output is checked
//! before it is timed. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0`
//! the end-to-end metrics of an untraced run, with `--trace 1` the
//! per-layer metrics of a traced run. See README.md for the metrics.

mod engine;
mod gen;
mod http;
mod per_shape;
mod serve_mix;
mod stats;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, printed by every workload with `--trace 0`. The
/// two operation times are given in units of the reference workload's
/// time measured in the same run ([`stats::Reference`]), which cancels
/// most of the slowdown a busy host imposes on a whole run; the times in
/// ms are kept as `workload.*` per-layer values and in the result file.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("validate_rel", "x"),
    ("provenance_rel", "x"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rdf.parse_ms", "ms"),
    ("rdf.parse_triples_per_s", "1/s"),
    ("rdf.freeze_ms", "ms"),
    ("rdf.terms", "count"),
    ("shacl.parse_ms", "ms"),
    ("shacl.defs", "count"),
    ("analyze.ms", "ms"),
    ("analyze.matrix_ms", "ms"),
    ("analyze.matrix_edges", "count"),
    ("validator.targets_ms", "ms"),
    ("validator.focus_nodes", "count"),
    ("rpq.eval_ms", "ms"),
    ("rpq.sources", "count"),
    ("rpq.pairs", "count"),
    ("validator.conform_ms", "ms"),
    ("validator.checks", "count"),
    ("validator.violations", "count"),
    ("validator.memo_entries", "count"),
    ("validator.containment_hits", "count"),
    ("validator.containment_misses", "count"),
    ("validator.derive_ratio", "ratio"),
    ("neighborhood.ms", "ms"),
    ("neighborhood.collect_ms", "ms"),
    ("neighborhood.triples", "count"),
    ("instrumented.overhead_sum_pct", "%"),
    ("instrumented.overhead_mean_pct", "%"),
    ("instrumented.overhead_median_pct", "%"),
    ("instrumented.overhead_p90_pct", "%"),
    ("instrumented.overhead_worst_pct", "%"),
    ("fragment.decide_ms", "ms"),
    ("fragment.materialize_ms", "ms"),
    ("fragment.nodes_decided", "count"),
    ("fragment.conforming", "count"),
    ("fragment.useful_ratio", "ratio"),
    ("rdf.serialize_ms", "ms"),
    ("rdf.serialize_bytes", "bytes"),
    ("sched.units", "count"),
    ("sched.steals", "count"),
    ("sched.busy_ms", "ms"),
    ("sched.idle_ms", "ms"),
    ("sched.idle_frac", "ratio"),
    ("sched.shapes_skipped", "count"),
    ("incremental.apply_ms", "ms"),
    ("incremental.scratch_ms", "ms"),
    ("incremental.vs_scratch", "ratio"),
    ("incremental.delta_len", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.s429", "count"),
    ("serve.s504", "count"),
    ("serve.s500", "count"),
    ("serve.fragment_cache_hit_ratio", "ratio"),
    ("serve.validate_p50_ms", "ms"),
    ("serve.fragment_p50_ms", "ms"),
    ("serve.sparql_p50_ms", "ms"),
    ("serve.containment_hits", "count"),
    ("serve.containment_misses", "count"),
    ("workload.validate_ms", "ms"),
    ("workload.provenance_ms", "ms"),
    ("workload.goodput_per_s", "1/s"),
    ("workload.validate_2t_ms", "ms"),
    ("workload.fragment_ms", "ms"),
    ("workload.read_p50_ms", "ms"),
    ("workload.read_tail_ms", "ms"),
    ("workload.read_tail_q", "quantile"),
    ("workload.update_p50_ms", "ms"),
    ("workload.update_tail_ms", "ms"),
    ("workload.update_tail_q", "quantile"),
    ("workload.failed_frac", "ratio"),
    ("bench.sender_lag_p99_ms", "ms"),
    ("bench.reference_ms", "ms"),
    ("bench.calibration_ms", "ms"),
    ("bench.host_cores", "count"),
    ("bench.tracing_overhead_pct", "%"),
];

/// Command-line options.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub shapefrag: Option<PathBuf>,
    pub out: PathBuf,
}

/// What a run reports: correctness, operation counts, metric values.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Counts one checked operation; a wrong output is a failure.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
            eprintln!("check failed: {what}");
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records the run's operation times in ms, its goodput, the median
    /// reference time, and the end-to-end times relative to it.
    pub fn put_times(
        &mut self,
        validate_ms: f64,
        provenance_ms: f64,
        goodput: f64,
        reference_ms: f64,
    ) {
        self.put("workload.validate_ms", validate_ms);
        self.put("workload.provenance_ms", provenance_ms);
        self.put("workload.goodput_per_s", goodput);
        self.put("bench.reference_ms", reference_ms);
        self.put("validate_rel", validate_ms / reference_ms);
        self.put("provenance_rel", provenance_ms / reference_ms);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        shapefrag: None,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid {flag} value '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad(()))? == 1,
            "--shapefrag" => args.shapefrag = Some(PathBuf::from(value)),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let calibration = stats::calibration_ms();
    let mut outcome = match args.workload.as_str() {
        "suite-large" => suite::run(&args),
        "per-shape" => per_shape::run(&args),
        "serve-mix" => serve_mix::run(&args),
        other => {
            eprintln!("error: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    outcome.put("bench.calibration_ms", calibration);
    outcome.put("bench.host_cores", stats::host_cores() as f64);
    eprintln!(
        "host: {} cores, calibration loop {calibration:.1} ms",
        stats::host_cores()
    );
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("workload did not measure {name}"),
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    // The result file keeps every measured value, host cores and the
    // calibration loop included.
    let all: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {}", json_number(*value)))
        .collect();
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    let file = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"result\": {line}, \"all\": {{{}}}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        all.join(", ")
    );
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|_| std::fs::write(&path, file)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{line}");
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
