//! Experiment: subsumption-keyed memo reuse on an overlapping shape suite.
//!
//! Real-world schemas accumulate near-duplicate and weakened copies of the
//! same constraints (profile layering, versioned vocabularies, copy-paste
//! evolution). This experiment models that by augmenting the 57-shape
//! Tyrolean suite with an exact duplicate of every definition plus a
//! `minCount 1` weakening of every `minCount >= 2` definition, then
//! validates a Tyrolean graph two ways:
//!
//! - plain: one-thread [`Engine::validate`] with no containment index;
//! - containment: the same engine with a [`ContainmentMatrix`]-derived
//!   index attached, so decided bits of an
//!   equivalent or subsuming definition answer top-level checks without
//!   evaluating the shape body.
//!
//! The reports must be bit-identical (asserted before any timing); the win
//! is the fraction of top-level conformance checks answered by derivation
//! (`checks_avoided_pct`, expected well above 20% on this workload) and the
//! count of definitions that needed no body evaluation at all
//! (`shapes_skipped`). Writes `BENCH_containment.json`.
//!
//! Usage: `exp_containment [--scale F] [--runs N] [--out PATH]`

use std::sync::Arc;
use std::time::Duration;

use shapefrag_analyze::ContainmentMatrix;
use shapefrag_bench::{ms, print_table, time, write_json_to, ExpOptions};
use shapefrag_core::Engine;
use shapefrag_rdf::Term;
use shapefrag_shacl::{Schema, Shape, ShapeDef};
use shapefrag_workloads::shapes57::benchmark_shapes;
use shapefrag_workloads::tyrolean::{generate, TyroleanConfig};

struct ContainmentResults {
    suite: String,
    individuals: usize,
    triples: usize,
    shapes_base: usize,
    shapes_aug: usize,
    /// Containment edges (proper + equivalence halves) in the matrix.
    matrix_edges: usize,
    matrix_build_ms: f64,
    plain_ms: f64,
    containment_ms: f64,
    speedup: f64,
    /// Top-level `(definition, target node)` conformance checks.
    checked: u64,
    /// Checks answered from a related definition's memo bits.
    derived_hits: u64,
    /// Derivation attempts that found no usable related bit.
    derived_misses: u64,
    /// Definitions whose every target was answered by derivation.
    shapes_skipped: u64,
    /// `derived_hits / checked * 100` — the headline reuse number.
    checks_avoided_pct: f64,
}

shapefrag_bench::impl_to_json!(ContainmentResults {
    suite,
    individuals,
    triples,
    shapes_base,
    shapes_aug,
    matrix_edges,
    matrix_build_ms,
    plain_ms,
    containment_ms,
    speedup,
    checked,
    derived_hits,
    derived_misses,
    shapes_skipped,
    checks_avoided_pct,
});

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Derives a sibling definition name (`…Dup`, `…Weak`) from an IRI name.
fn derived_name(name: &Term, suffix: &str) -> Option<Term> {
    match name {
        Term::Iri(iri) => Some(Term::iri(format!("{}{}", iri.as_str(), suffix))),
        _ => None,
    }
}

/// The base suite plus an exact duplicate of every definition and a
/// `minCount 1` weakening of every `minCount >= 2` definition. Originals
/// come first so their bits are already in the memo when the derived
/// copies are checked.
fn augmented_suite() -> Vec<ShapeDef> {
    let base = benchmark_shapes();
    let mut defs = base.clone();
    for def in &base {
        if let Some(name) = derived_name(&def.name, "Dup") {
            defs.push(ShapeDef::new(name, def.shape.clone(), def.target.clone()));
        }
    }
    for def in &base {
        if let Shape::Geq(n, path, inner) = &def.shape {
            if *n >= 2 {
                if let Some(name) = derived_name(&def.name, "Weak") {
                    defs.push(ShapeDef::new(
                        name,
                        Shape::Geq(1, path.clone(), inner.clone()),
                        def.target.clone(),
                    ));
                }
            }
        }
    }
    defs
}

fn main() {
    let opts = ExpOptions::from_args();
    let individuals = opts.scaled(6_000);
    let runs = opts.runs.max(3);

    let graph = generate(&TyroleanConfig::new(individuals, 0xC0A17));
    let frozen = Arc::new(graph.freeze());
    let base = benchmark_shapes();
    let shapes_base = base.len();
    let defs = augmented_suite();
    let shapes_aug = defs.len();
    let schema = Schema::new(defs).expect("augmented suite is well-formed");

    let (matrix, t_matrix) = time(|| ContainmentMatrix::of_schema(&schema));
    let matrix_edges = matrix.edges.len();
    let index = Arc::new(matrix.to_index(&schema));

    // Correctness gate: containment-assisted validation must be
    // bit-identical to the plain batch driver before anything is timed.
    let plain = Engine::new();
    let assisted_engine = Engine::new().containment(Arc::clone(&index));
    let (baseline, _) = plain.validate(&schema, frozen.as_ref()).unwrap();
    let (assisted, stats) = assisted_engine.validate(&schema, frozen.as_ref()).unwrap();
    assert_eq!(
        baseline, assisted,
        "containment-assisted report diverged from plain batch"
    );
    let (derived_hits, derived_misses, shapes_skipped) = (
        stats.checks_derived,
        stats.derive_misses,
        stats.shapes_skipped,
    );
    let checked = assisted.checked as u64;
    let checks_avoided_pct = if checked == 0 {
        0.0
    } else {
        derived_hits as f64 / checked as f64 * 100.0
    };
    if checks_avoided_pct <= 20.0 {
        eprintln!(
            "WARNING: only {checks_avoided_pct:.1}% of checks avoided \
             (expected > 20% on the duplicated suite)"
        );
    }

    let mut s_plain = Vec::with_capacity(runs);
    let mut s_cont = Vec::with_capacity(runs);
    for _ in 0..runs {
        let (_, t) = time(|| plain.validate(&schema, frozen.as_ref()).unwrap());
        s_plain.push(t);
        let (_, t) = time(|| assisted_engine.validate(&schema, frozen.as_ref()).unwrap());
        s_cont.push(t);
    }
    let t_plain = median(s_plain);
    let t_cont = median(s_cont);

    println!(
        "\nContainment-assisted batch validation \
         ({shapes_base}->{shapes_aug} shapes, median of {runs})\n"
    );
    let rows = vec![vec![
        format!("{individuals}"),
        format!("{checked}"),
        format!("{derived_hits}"),
        format!("{shapes_skipped}"),
        format!("{checks_avoided_pct:.1}%"),
        format!("{:.1}ms", ms(t_plain)),
        format!("{:.1}ms", ms(t_cont)),
        format!("{:.2}x", ms(t_plain) / ms(t_cont).max(1e-9)),
    ]];
    print_table(
        &[
            "indiv",
            "checked",
            "derived",
            "skipped",
            "avoided",
            "plain",
            "containment",
            "speedup",
        ],
        &rows,
    );

    let results = ContainmentResults {
        suite: "tyrolean-57-containment".to_string(),
        individuals,
        triples: frozen.len(),
        shapes_base,
        shapes_aug,
        matrix_edges,
        matrix_build_ms: ms(t_matrix),
        plain_ms: ms(t_plain),
        containment_ms: ms(t_cont),
        speedup: ms(t_plain) / ms(t_cont).max(1e-9),
        checked,
        derived_hits,
        derived_misses,
        shapes_skipped,
        checks_avoided_pct,
    };
    let out = opts.out.as_deref().unwrap_or("BENCH_containment.json");
    write_json_to(out, &results);
}
