//! `serve-mix`: a `shapefrag serve` child process over a 6k-individual
//! graph (~34k triples) and the 57-shape suite, driven open-loop at a
//! fixed rate by two sender threads with one keep-alive connection each.
//! The mix: 50% `/fragment` for one shape (Zipf over the 57), 20%
//! `/validate`, 20% `/sparql` (small seeded SELECTs), 10% `/update`
//! (34 signed triples each). Latency is measured from each request's due
//! time, so a stalled server also delays the requests queued behind.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use shapefrag_core::{fragment, EditScript, IncrementalValidator};
use shapefrag_rdf::{ntriples, Graph, Term};
use shapefrag_shacl::validator::validate;
use shapefrag_shacl::Schema;

use crate::engine::{self, report_key, Ledger};
use crate::gen::{self, Rng, Zipf};
use crate::http::Conn;
use crate::stats::{median, peak_rss_mb, quantile, tail};
use crate::trace::Tracer;
use crate::{Args, Outcome};

const INDIVIDUALS: usize = 6_000;
const SETUPS: usize = 9;
/// Offered load, requests per second. Fixed (not calibrated per host) so
/// that two commits are driven identically; it sits well below the
/// server's capacity on a 2-core host.
const RATE: f64 = 20.0;
const SENDERS: usize = 2;
const EDIT_TRIPLES: usize = 34;
/// A run whose senders fall this far behind schedule in its last quarter
/// has a growing backlog and counts as failed.
const MAX_LAG_MS: f64 = 250.0;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Fragment(usize),
    Validate,
    Sparql(usize),
    Update(usize),
}

/// One answered (or failed) request.
struct Done {
    kind: Kind,
    ok: bool,
    due: Instant,
    sent: Instant,
    done: Instant,
    cache_hit: bool,
    epoch: u64,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }
    fn service_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
    fn lag_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// A running `shapefrag serve` child; killed and reaped on drop.
struct Server {
    child: std::process::Child,
    addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// Starts the server on the input files and waits until `/healthz`
/// answers 200; returns it with the elapsed set-up time in seconds.
fn start_server(bin: &Path, shapes: &Path, data: &Path) -> (Server, f64) {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .arg("serve")
        .arg(shapes)
        .arg(data)
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
    let stderr = child.stderr.take().expect("stderr is piped");
    let (tx, rx) = mpsc::channel();
    // Reads the banner for the bound address, then drains stderr until
    // the child exits.
    let drain = std::thread::spawn(move || {
        let mut tx = Some(tx);
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                if let Some(tx) = tx.take() {
                    let _ = tx.send(addr);
                }
            }
        }
    });
    let mut server = Server {
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        drain: Some(drain),
    };
    let addr = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("server printed its address");
    server.addr = addr.parse().expect("banner address parses");
    let mut conn = Conn::new(server.addr);
    loop {
        if let Ok(r) = conn.request("GET", "/healthz", b"") {
            if r.status == 200 {
                break;
            }
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "server became healthy"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    (server, t0.elapsed().as_secs_f64())
}

/// Everything a session sends, generated from the seed.
struct Inputs {
    shape_names: Vec<Term>,
    /// `/fragment` request bodies: each shape's IRI.
    shape_bodies: Vec<String>,
    queries: Vec<String>,
    edits: Vec<gen::Edit>,
    schedule: Vec<Kind>,
}

fn inputs(graph: &Graph, seed: u64, ops: usize) -> Inputs {
    let shape_names: Vec<Term> = gen::shape_turtles().into_iter().map(|(n, _)| n).collect();
    let zipf = Zipf::new(shape_names.len());
    // The request sequence is the same for every seed, so runs differ
    // only in the data, the edits and the queries: which shapes are hot
    // and where the slow requests fall stay fixed.
    let mut rng = Rng::new(0x3E7);
    let (mut queries, mut updates) = (0, 0);
    let schedule: Vec<Kind> = (0..ops)
        .map(|_| {
            let u = rng.unit();
            if u < 0.5 {
                Kind::Fragment(zipf.sample(&mut rng))
            } else if u < 0.7 {
                Kind::Validate
            } else if u < 0.9 {
                queries += 1;
                Kind::Sparql(queries - 1)
            } else {
                updates += 1;
                Kind::Update(updates - 1)
            }
        })
        .collect();
    Inputs {
        queries: gen::sparql_queries(graph, seed, queries),
        edits: gen::edits(graph, seed, updates, EDIT_TRIPLES),
        shape_bodies: shape_names.iter().map(Term::to_string).collect(),
        shape_names,
        schedule,
    }
}

/// Sends the schedule open-loop at [`RATE`] and collects every answer.
fn drive(addr: SocketAddr, inp: &Inputs, schedule: &[Kind]) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut all: Vec<(usize, Done)> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..SENDERS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::new(addr);
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.len() {
                            return done;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let kind = schedule[i];
                        let (path, body): (&str, &[u8]) = match kind {
                            Kind::Fragment(k) => ("/fragment", inp.shape_bodies[k].as_bytes()),
                            Kind::Validate => ("/validate", b""),
                            Kind::Sparql(k) => ("/sparql", inp.queries[k].as_bytes()),
                            Kind::Update(k) => ("/update", inp.edits[k].text.as_bytes()),
                        };
                        let sent = Instant::now();
                        let resp = conn.request("POST", path, body);
                        let finished = Instant::now();
                        let mut d = Done {
                            kind,
                            ok: false,
                            due,
                            sent,
                            done: finished,
                            cache_hit: false,
                            epoch: 0,
                        };
                        if let Ok(r) = resp {
                            let text = r.text();
                            d.cache_hit = r.header("x-fragment-cache") == Some("hit");
                            d.ok = r.status == 200
                                && match kind {
                                    Kind::Fragment(_) => text.lines().all(|l| l.ends_with(" .")),
                                    Kind::Validate => text.contains("\"conforms\":"),
                                    Kind::Sparql(_) => text.contains("\"bindings\":["),
                                    Kind::Update(_) => text.contains("\"report\":"),
                                };
                            d.epoch = json_u64(&text, "epoch").unwrap_or(0);
                        }
                        done.push((i, d));
                    }
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread"))
            .collect()
    });
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, d)| d).collect()
}

fn json_u64(body: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let at = body.find(&needle)? + needle.len();
    body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

/// The server's JSON string escaping, to compare reports textually.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One `/stats` snapshot: the counters the ledger needs.
fn stats(conn: &mut Conn) -> Vec<(&'static str, u64)> {
    let body = conn
        .request("GET", "/stats", b"")
        .map(|r| r.text())
        .unwrap_or_default();
    [
        ("queue_wait_us", "queue_wait_us"),
        ("service_us", "service_us"),
        ("admitted", "admitted"),
        ("shed", "shed"),
        ("containment_hits", "containment_hits"),
        ("containment_misses", "containment_misses"),
        ("s429", "429"),
        ("s500", "500"),
        ("s504", "504"),
    ]
    .into_iter()
    .map(|(k, field)| (k, json_u64(&body, field).unwrap_or(0)))
    .collect()
}

/// Result of one load session against one server.
struct Session {
    done: Vec<Done>,
    peak_rss_mb: f64,
    stats: Vec<(&'static str, u64)>,
    /// Acknowledged edit scripts, in the order the server applied them.
    acked: Vec<usize>,
    /// Reference workload times around the load, in ms.
    reference: Vec<f64>,
}

/// Drives one server through the schedule, then checks its final state:
/// `/validate` must equal a from-scratch validation of the seed graph
/// plus every acknowledged update, and `/fragment` of every shape must
/// equal the fragment computed in-process on that graph.
fn session(
    server: &Server,
    inp: &Inputs,
    schedule: &[Kind],
    seed_graph: &Graph,
    schema: &Schema,
    out: &mut Outcome,
) -> Session {
    // The reference workload runs while the server is idle, before and
    // after the load, so it does not compete with the requests.
    let mut reference = crate::stats::Reference::new();
    let mut reference_ms: Vec<f64> = (0..5).map(|_| reference.time_ms()).collect();
    let mut conn = Conn::new(server.addr);
    let before = stats(&mut conn);
    let done = drive(server.addr, inp, schedule);
    let after = stats(&mut conn);
    reference_ms.extend((0..5).map(|_| reference.time_ms()));
    let peak = peak_rss_mb(Some(server.child.id()));

    for d in &done {
        out.check(d.ok, "request answered 200 with a well-formed body");
    }
    // A backlog that keeps growing is a failed run.
    let tail_lags: Vec<f64> = done[done.len() * 3 / 4..]
        .iter()
        .map(Done::lag_ms)
        .collect();
    let lag = quantile(&tail_lags, 0.9);
    if lag > MAX_LAG_MS {
        eprintln!("serve-mix: senders {lag:.0} ms behind schedule at the end: backlog grew");
        out.failed = out.attempted;
        out.correct = false;
    }

    let mut acked: Vec<(u64, usize)> = done
        .iter()
        .filter_map(|d| match d.kind {
            Kind::Update(k) if d.ok => Some((d.epoch, k)),
            _ => None,
        })
        .collect();
    acked.sort();
    let acked: Vec<usize> = acked.into_iter().map(|(_, k)| k).collect();
    let mut final_graph = seed_graph.clone();
    for &k in &acked {
        for t in &inp.edits[k].removes {
            final_graph.remove(t);
        }
        for t in &inp.edits[k].adds {
            final_graph.insert(t.clone());
        }
    }
    let g = final_graph.freeze();
    let want = validate(schema, &g);
    let mut want_pairs: Vec<String> = want
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"shape\":\"{}\",\"focus\":\"{}\"}}",
                json_escape(&v.shape.to_string()),
                json_escape(&v.focus.to_string())
            )
        })
        .collect();
    want_pairs.sort();
    let body = conn
        .request("POST", "/validate", b"")
        .map(|r| r.text())
        .unwrap_or_default();
    let mut got_pairs: Vec<String> = body
        .split_once("\"violations\":[")
        .map(|(_, v)| v.trim_end_matches("]}"))
        .filter(|v| !v.is_empty())
        .map(|v| {
            v.split("},")
                .map(|p| format!("{}}}", p.trim_end_matches('}')))
                .collect()
        })
        .unwrap_or_default();
    got_pairs.sort();
    out.check(
        json_u64(&body, "checked") == Some(want.checked as u64) && got_pairs == want_pairs,
        "final /validate equals from-scratch validation of seed + acknowledged updates",
    );
    for (name, body) in inp.shape_names.iter().zip(&inp.shape_bodies) {
        let def = schema.get(name).expect("suite defines every shape");
        let want = ntriples::serialize(&fragment(
            schema,
            &g,
            &[def.shape.clone().and(def.target.clone())],
        ));
        let got = conn
            .request("POST", "/fragment", body.as_bytes())
            .map(|r| r.text())
            .unwrap_or_default();
        out.check(got == want, &format!("final /fragment {name}"));
    }
    let stats = before
        .iter()
        .zip(&after)
        .map(|((k, a), (_, b))| (*k, b.saturating_sub(*a)))
        .collect();
    Session {
        done,
        peak_rss_mb: peak,
        stats,
        acked,
        reference: reference_ms,
    }
}

fn latencies(done: &[Done], pick: impl Fn(&Kind) -> bool, f: fn(&Done) -> f64) -> Vec<f64> {
    done.iter()
        .filter(|d| d.ok && pick(&d.kind))
        .map(f)
        .collect()
}

fn is_read(k: &Kind) -> bool {
    !matches!(k, Kind::Update(_))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let bin = args
        .shapefrag
        .clone()
        .expect("--shapefrag names the shapefrag binary");
    eprintln!(
        "serve-mix: generating {INDIVIDUALS} individuals (seed {})",
        args.seed
    );
    let data = gen::data(INDIVIDUALS, args.seed);
    let suite = gen::suite_turtle();
    let dir = args.out.join(format!("serve-mix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let (shapes_path, data_path) = (dir.join("shapes.ttl"), dir.join("data.nt"));
    std::fs::write(&shapes_path, &suite).expect("write shapes");
    std::fs::write(&data_path, &data.text).expect("write data");
    let quiet = Tracer::new(false);
    let schema = engine::load_schema(&quiet, &suite);
    let ops = (RATE * args.seconds).round().max(20.0) as usize;
    let inp = inputs(&data.graph, args.seed, ops);

    // Set-up: start to first healthy /healthz, several times; the last
    // server takes the load.
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let (s, secs) = start_server(&bin, &shapes_path, &data_path);
        setup_s.push(secs);
        server = Some(s);
    }
    let server = server.expect("started at least once");

    // A traced run measures the first half of the schedule untraced and
    // again traced, each on a fresh server.
    let measured = if args.trace {
        &inp.schedule[..ops / 2]
    } else {
        &inp.schedule[..]
    };
    let plain = session(&server, &inp, measured, &data.graph, &schema, &mut out);
    drop(server);

    let d = &plain.done;
    let elapsed = d
        .iter()
        .map(|x| x.done)
        .max()
        .zip(d.iter().map(|x| x.due).min())
        .map_or(1.0, |(end, start)| (end - start).as_secs_f64());
    let ok = d.iter().filter(|x| x.ok).count();
    out.put("setup_s", median(&setup_s));
    out.put("peak_rss_mb", plain.peak_rss_mb);
    out.put_times(
        median(&latencies(d, |k| *k == Kind::Validate, Done::latency_ms)),
        median(&latencies(
            d,
            |k| matches!(k, Kind::Fragment(_)),
            Done::latency_ms,
        )),
        ok as f64 / elapsed,
        median(&plain.reference),
    );

    if args.trace {
        let t = Tracer::new(true);
        let (server, _) = start_server(&bin, &shapes_path, &data_path);
        let traced = session(&server, &inp, measured, &data.graph, &schema, &mut out);
        drop(server);
        for (i, d) in traced.done.iter().enumerate() {
            t.record("serve.sender_wait", d.due, d.sent, i as u64);
            t.record("serve.request", d.sent, d.done, i as u64);
        }
        let all = |s: &Session| latencies(&s.done, |_| true, Done::latency_ms);
        out.put(
            "bench.tracing_overhead_pct",
            (median(&all(&traced)) - median(&all(&plain))) / median(&all(&plain)) * 100.0,
        );
        put_serve_layers(&mut out, &plain);
        replay_updates(&t, &mut out, &schema, &data.graph, &inp, &plain.acked);
        // The engine layers on this workload's input, in-process.
        let schema = engine::load_schema(&t, &suite);
        let (graph, g) = engine::load_data(&t, &data.text);
        let mut led = Ledger::default();
        let rep = engine::validation_layers(&t, &schema, &g, &mut led);
        out.check(
            report_key(&rep) == report_key(&validate(&schema, &g)),
            "layer-by-layer report",
        );
        out.put(
            "rdf.terms",
            shapefrag_rdf::GraphAccess::term_count(&g) as f64,
        );
        out.put("shacl.defs", schema.len() as f64);
        engine::put_layers(&t, &mut out, &led, 1, graph.len());
        let path = args
            .out
            .join(format!("serve-mix-seed{}-trace.jsonl", args.seed));
        if let Err(e) = t.write(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn put_serve_layers(out: &mut Outcome, s: &Session) {
    let d = &s.done;
    let stat = |k: &str| s.stats.iter().find(|(n, _)| *n == k).map_or(0, |(_, v)| *v) as f64;
    let n = d.len().max(1) as f64;
    let queue = stat("queue_wait_us") / n / 1e3;
    let service = stat("service_us") / stat("admitted").max(1.0) / 1e3;
    let client: f64 = d.iter().map(Done::service_ms).sum::<f64>() / n;
    out.put("serve.queue_wait_ms", queue);
    out.put("serve.service_ms", service);
    out.put("serve.http_ms", client - queue - service);
    out.put("serve.shed", stat("shed"));
    out.put("serve.s429", stat("s429"));
    out.put("serve.s504", stat("s504"));
    out.put("serve.s500", stat("s500"));
    out.put("serve.containment_hits", stat("containment_hits"));
    out.put("serve.containment_misses", stat("containment_misses"));
    let frags: Vec<&Done> = d
        .iter()
        .filter(|x| matches!(x.kind, Kind::Fragment(_)))
        .collect();
    out.put(
        "serve.fragment_cache_hit_ratio",
        frags.iter().filter(|x| x.cache_hit).count() as f64 / frags.len().max(1) as f64,
    );
    let by = |pick: fn(&Kind) -> bool| median(&latencies(d, pick, Done::service_ms));
    out.put("serve.validate_p50_ms", by(|k| *k == Kind::Validate));
    out.put(
        "serve.fragment_p50_ms",
        by(|k| matches!(k, Kind::Fragment(_))),
    );
    out.put("serve.sparql_p50_ms", by(|k| matches!(k, Kind::Sparql(_))));
    let reads = latencies(d, is_read, Done::latency_ms);
    let updates = latencies(d, |k| !is_read(k), Done::latency_ms);
    let qs = [0.9, 0.95, 0.99];
    out.put("workload.read_p50_ms", median(&reads));
    let (q, v) = tail(&reads, &qs);
    out.put("workload.read_tail_ms", v);
    out.put("workload.read_tail_q", q);
    out.put("workload.update_p50_ms", median(&updates));
    let (q, v) = tail(&updates, &qs);
    out.put("workload.update_tail_ms", v);
    out.put("workload.update_tail_q", q);
    out.put(
        "workload.failed_frac",
        d.iter().filter(|x| !x.ok).count() as f64 / n,
    );
    let lags: Vec<f64> = d.iter().map(Done::lag_ms).collect();
    out.put("bench.sender_lag_p99_ms", quantile(&lags, 0.99));
}

/// Replays the acknowledged edit scripts through the incremental
/// validator and, after each, validates the edited view from scratch.
fn replay_updates(
    t: &Tracer,
    out: &mut Outcome,
    schema: &Schema,
    seed_graph: &Graph,
    inp: &Inputs,
    acked: &[usize],
) {
    let mut inc =
        IncrementalValidator::new(Arc::new(schema.clone()), Arc::new(seed_graph.freeze()));
    let (mut apply, mut scratch) = (Vec::new(), Vec::new());
    for &k in acked {
        let script = EditScript::parse(&inp.edits[k].text).expect("edit script parses");
        let s = Instant::now();
        let rep = t.span("incremental.apply", || inc.apply(&script));
        apply.push(s.elapsed().as_secs_f64() * 1e3);
        let s = Instant::now();
        let full = t.span("incremental.scratch", || validate(schema, inc.graph()));
        scratch.push(s.elapsed().as_secs_f64() * 1e3);
        out.check(
            report_key(&rep) == report_key(&full),
            "incremental report equals from-scratch report",
        );
    }
    let (a, s) = (median(&apply), median(&scratch));
    out.put("incremental.apply_ms", a);
    out.put("incremental.scratch_ms", s);
    out.put("incremental.vs_scratch", if a > 0.0 { s / a } else { 0.0 });
    out.put("incremental.delta_len", inc.graph().delta_len() as f64);
}
