//! **Robustness experiment** — the cost of resource governance.
//!
//! The governed kernels thread an `ExecCtx` (step budget, memory
//! estimate, deadline, cancellation) through every hot loop. This
//! experiment quantifies what that bookkeeping costs when nothing faults:
//! per graph size, the median wall-clock time (after a discarded warmup
//! round per side) of one-thread [`Engine::validate`] without limits vs.
//! the same engine under an hour-long deadline and a cancellation token
//! (every check stride then reads the clock and the flag), and the
//! relative overhead — clamped at 0 for the
//! headline number (governance cannot make the kernel faster; negative
//! medians are noise) with the raw value kept in `raw_overhead_pct`. It
//! also measures how quickly a governed run aborts once its wall-clock
//! deadline expires (abort latency = observed runtime minus the
//! configured deadline).
//!
//! Results are written to `BENCH_robustness.json`. The contract (DESIGN.md
//! §9) is ≤ 5% governance overhead on the largest workload graph.

use std::time::Duration;

use shapefrag_bench::{ms, print_table, time, write_json_to, ExpOptions};
use shapefrag_core::Engine;
use shapefrag_shacl::{Budget, CancelToken, EngineError, Schema};
use shapefrag_workloads::shapes57::benchmark_shapes;
use shapefrag_workloads::tyrolean::{generate, sample_induced, TyroleanConfig};

struct OverheadRow {
    individuals: usize,
    triples: usize,
    ungoverned_ms: f64,
    governed_ms: f64,
    /// Reported overhead, clamped at 0: the governed path cannot be
    /// genuinely faster, so a negative median difference is measurement
    /// noise and reads as "0% overhead".
    overhead_pct: f64,
    /// The unclamped median difference, kept so noise stays visible.
    raw_overhead_pct: f64,
}

struct AbortRow {
    deadline_ms: f64,
    observed_ms: f64,
    latency_ms: f64,
}

struct RobustnessResults {
    suite: String,
    shape_count: usize,
    runs: usize,
    rows: Vec<OverheadRow>,
    largest_overhead_pct: f64,
    overhead_budget_pct: f64,
    within_budget: bool,
    aborts: Vec<AbortRow>,
}

shapefrag_bench::impl_to_json!(OverheadRow {
    individuals,
    triples,
    ungoverned_ms,
    governed_ms,
    overhead_pct,
    raw_overhead_pct,
});
shapefrag_bench::impl_to_json!(AbortRow {
    deadline_ms,
    observed_ms,
    latency_ms,
});
shapefrag_bench::impl_to_json!(RobustnessResults {
    suite,
    shape_count,
    runs,
    rows,
    largest_overhead_pct,
    overhead_budget_pct,
    within_budget,
    aborts,
});

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let opts = ExpOptions::from_args();
    let base_individuals = opts.scaled(6_000);
    let sizes: Vec<usize> = [1usize, 2, 3]
        .iter()
        .map(|k| k * base_individuals / 3)
        .collect();
    let runs = opts.runs.max(5);

    eprintln!("generating tourism graph with {base_individuals} individuals…");
    let full = generate(&TyroleanConfig::new(base_individuals, 0xBA7C));
    let shapes = benchmark_shapes();
    let shape_count = shapes.len();
    let schema = Schema::new(shapes).expect("57-shape suite is nonrecursive");

    let mut rows = Vec::new();
    for (i, &individuals) in sizes.iter().enumerate() {
        let graph = if individuals >= base_individuals {
            full.clone()
        } else {
            sample_induced(&full, individuals, 300 + i as u64)
        };
        eprintln!(
            "size {individuals} individuals → {} triples ({} runs each)…",
            graph.len(),
            runs
        );

        // Both sides run over the CSR snapshot (the production read path).
        let frozen = graph.freeze();

        let plain = Engine::new();
        let token = CancelToken::new();
        let governed = Engine::new()
            .budget(Budget::unlimited().deadline(Duration::from_secs(3600)))
            .cancel(&token);

        // Sanity: governance must not change the verdicts. This is also
        // the warmup: one discarded round per side pulls the graph and
        // memo structures into cache so the first timed run is not an
        // outlier.
        assert_eq!(
            plain.validate(&schema, &frozen).unwrap().0,
            governed
                .validate(&schema, &frozen)
                .expect("an hour-long deadline cannot expire here")
                .0,
            "governed validation diverged at {individuals} individuals"
        );

        // Interleave so machine drift hits both sides equally.
        let mut s_plain = Vec::with_capacity(runs);
        let mut s_governed = Vec::with_capacity(runs);
        for _ in 0..runs {
            s_plain.push(time(|| plain.validate(&schema, &frozen).unwrap()).1);
            s_governed.push(time(|| governed.validate(&schema, &frozen).unwrap()).1);
        }
        let t_plain = median(s_plain);
        let t_governed = median(s_governed);
        let raw_overhead_pct = (ms(t_governed) / ms(t_plain).max(1e-9) - 1.0) * 100.0;
        rows.push(OverheadRow {
            individuals,
            triples: graph.len(),
            ungoverned_ms: ms(t_plain),
            governed_ms: ms(t_governed),
            overhead_pct: raw_overhead_pct.max(0.0),
            raw_overhead_pct,
        });
    }

    // Deadline abort latency: the gap between the configured deadline and
    // the moment the fault actually surfaces.
    let mut aborts = Vec::new();
    let full_frozen = full.freeze();
    for deadline in [Duration::from_millis(1), Duration::from_millis(5)] {
        let engine = Engine::new().budget(Budget::unlimited().deadline(deadline));
        let (res, observed) = time(|| engine.validate(&schema, &full_frozen));
        match res {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => {
                eprintln!("warning: {deadline:?} deadline did not fault ({other:?})");
                continue;
            }
        }
        aborts.push(AbortRow {
            deadline_ms: ms(deadline),
            observed_ms: ms(observed),
            latency_ms: ms(observed) - ms(deadline),
        });
    }

    println!("\nGovernance overhead (57-shape suite, median of {runs})\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.individuals),
                format!("{}", r.triples),
                format!("{:.1}ms", r.ungoverned_ms),
                format!("{:.1}ms", r.governed_ms),
                format!("{:.2}%", r.overhead_pct),
                format!("{:+.2}%", r.raw_overhead_pct),
            ]
        })
        .collect();
    print_table(
        &[
            "individuals",
            "triples",
            "ungoverned",
            "governed",
            "overhead",
            "raw",
        ],
        &table,
    );
    if !aborts.is_empty() {
        println!("\nDeadline abort latency\n");
        let table: Vec<Vec<String>> = aborts
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}ms", r.deadline_ms),
                    format!("{:.1}ms", r.observed_ms),
                    format!("{:.2}ms", r.latency_ms),
                ]
            })
            .collect();
        print_table(&["deadline", "observed", "latency"], &table);
    }

    let largest_overhead_pct = rows.last().map(|r| r.overhead_pct).unwrap_or(0.0);
    let overhead_budget_pct = 5.0;
    let within_budget = largest_overhead_pct <= overhead_budget_pct;
    if !within_budget {
        eprintln!(
            "warning: governance overhead {largest_overhead_pct:.2}% exceeds the \
             {overhead_budget_pct}% budget on the largest graph"
        );
    }

    let results = RobustnessResults {
        suite: "tyrolean-57".to_string(),
        shape_count,
        runs,
        rows,
        largest_overhead_pct,
        overhead_budget_pct,
        within_budget,
        aborts,
    };
    let out = opts.out.as_deref().unwrap_or("BENCH_robustness.json");
    write_json_to(out, &results);
    println!("\nwrote {out}");
}
