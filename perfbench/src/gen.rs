//! Seeded input generation. Everything the program receives is text: the
//! Tyrolean data graph as N-Triples, shapes as SHACL Turtle, edit scripts
//! as signed N-Triples, SPARQL as query strings.

use shapefrag_rdf::{ntriples, Graph, Term, Triple};
use shapefrag_shacl::writer::schema_to_turtle;
use shapefrag_shacl::Schema;
use shapefrag_workloads::shapes57::{benchmark_schema, benchmark_shapes};
use shapefrag_workloads::tyrolean::{generate, TyroleanConfig};

/// SplitMix64: a tiny seeded generator for the benchmark's own choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The generated Tyrolean graph and its N-Triples text.
pub struct Data {
    pub graph: Graph,
    pub text: String,
}

pub fn data(individuals: usize, seed: u64) -> Data {
    let graph = generate(&TyroleanConfig::new(individuals, seed));
    let text = ntriples::serialize(&graph);
    Data { graph, text }
}

/// The 57-shape suite as one Turtle document.
pub fn suite_turtle() -> String {
    schema_to_turtle(&benchmark_schema())
}

/// Each suite shape as its own single-shape Turtle document (with its
/// property shapes), paired with the shape's name.
pub fn shape_turtles() -> Vec<(Term, String)> {
    benchmark_shapes()
        .into_iter()
        .map(|def| {
            let name = def.name.clone();
            let schema = Schema::new([def]).expect("a suite shape alone is a valid schema");
            (name, schema_to_turtle(&schema))
        })
        .collect()
}

/// One `/update` edit script: its text and the triples it adds and
/// removes.
pub struct Edit {
    pub text: String,
    pub adds: Vec<Triple>,
    pub removes: Vec<Triple>,
}

/// `count` edit scripts of `size` signed triples each. No triple occurs in
/// two scripts, so the scripts commute and the final graph does not
/// depend on the order in which the server applies them. Half of each
/// script removes existing triples; the other half re-asserts the
/// predicate and object of such triples on fresh subjects.
pub fn edits(graph: &Graph, seed: u64, count: usize, size: usize) -> Vec<Edit> {
    let mut rng = Rng::new(seed ^ 0xED17);
    let triples: Vec<Triple> = graph.iter().collect();
    let mut order: Vec<usize> = (0..triples.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut picks = order.into_iter();
    (0..count)
        .map(|k| {
            let mut removes = Vec::new();
            let mut adds = Vec::new();
            for j in 0..size {
                let t = triples[picks.next().expect("graph larger than all edits")].clone();
                if j % 2 == 0 {
                    removes.push(t);
                } else {
                    let fresh = Term::iri(format!("http://tkg.example.org/bench/new-{k}-{j}"));
                    adds.push(Triple::new(fresh, t.predicate, t.object));
                }
            }
            let mut text = String::new();
            for (sign, t) in adds
                .iter()
                .map(|t| ('+', t))
                .chain(removes.iter().map(|t| ('-', t)))
            {
                text.push(sign);
                text.push(' ');
                text.push_str(&ntriples::serialize(&Graph::from_triples([t.clone()])));
            }
            Edit {
                text,
                adds,
                removes,
            }
        })
        .collect()
}

/// `count` small SELECT queries over the graph: the outgoing edges of a
/// random subject, or the subjects sharing a random triple's
/// predicate-object pair.
pub fn sparql_queries(graph: &Graph, seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x5A);
    let triples: Vec<Triple> = graph.iter().filter(|t| t.object.is_iri()).collect();
    (0..count)
        .map(|i| {
            let t = &triples[rng.below(triples.len())];
            if i % 2 == 0 {
                format!("SELECT ?p ?o WHERE {{ {} ?p ?o }}", t.subject)
            } else {
                format!(
                    "SELECT ?s WHERE {{ ?s <{}> {} }}",
                    t.predicate.as_str(),
                    t.object
                )
            }
        })
        .collect()
}

/// Zipf(1) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}
