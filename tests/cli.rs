//! End-to-end tests for the `shapefrag` command-line interface, driving the
//! compiled binary against files on disk.

use std::path::PathBuf;
use std::process::{Command, Output};

fn write_file(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write fixture");
    path
}

fn shapefrag(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_shapefrag"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn fixtures() -> (tempdir::TempDir, PathBuf, PathBuf) {
    let dir = tempdir::TempDir::new();
    let shapes = write_file(
        dir.path(),
        "shapes.ttl",
        r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:PaperShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 1 ] .
"#,
    );
    let data = write_file(
        dir.path(),
        "data.ttl",
        r#"
@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:good rdf:type ex:Paper ; ex:author ex:ann .
ex:bad rdf:type ex:Paper .
ex:noise ex:p ex:q .
"#,
    );
    (dir, shapes, data)
}

/// Minimal self-cleaning temp dir (no external crates).
mod tempdir {
    use std::path::{Path, PathBuf};

    pub struct TempDir(PathBuf);

    impl TempDir {
        pub fn new() -> TempDir {
            let path = std::env::temp_dir().join(format!(
                "shapefrag-cli-test-{}-{:?}",
                std::process::id(),
                std::thread::current().id(),
            ));
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }

        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[test]
fn validate_reports_violations_and_exit_code() {
    let (_dir, shapes, data) = fixtures();
    let out = shapefrag(&["validate", shapes.to_str().unwrap(), data.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "violations → exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("http://example.org/bad"), "{stdout}");
    assert!(!stdout.contains("http://example.org/good"));
}

#[test]
fn validate_emits_turtle_report() {
    let (_dir, shapes, data) = fixtures();
    let out = shapefrag(&[
        "validate",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--report-ttl",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sh:ValidationReport"), "{stdout}");
    assert!(stdout.contains("sh:focusNode"), "{stdout}");
    // The emitted Turtle parses back.
    shape_fragments::rdf::turtle::parse(&stdout).expect("report parses");
}

#[test]
fn fragment_writes_ntriples_subset() {
    let (dir, shapes, data) = fixtures();
    let out_path = dir.path().join("frag.nt");
    let out = shapefrag(&[
        "fragment",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&out_path).expect("fragment file");
    let frag = shape_fragments::rdf::ntriples::parse(&text).expect("fragment parses");
    // good's type + author triples; nothing about noise.
    assert_eq!(frag.len(), 2);
    assert!(text.contains("http://example.org/author"));
    assert!(!text.contains("noise"));
}

#[test]
fn explain_prints_evidence() {
    let (_dir, shapes, data) = fixtures();
    let out = shapefrag(&[
        "explain",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "http://example.org/good",
        "http://example.org/PaperShape",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("conforms to"), "{stdout}");
    assert!(
        stdout.contains("ex") || stdout.contains("author"),
        "{stdout}"
    );
}

#[test]
fn translate_emits_parseable_sparql() {
    let (_dir, shapes, _) = fixtures();
    let out = shapefrag(&["translate", shapes.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    shape_fragments::sparql::parser::parse_select(&stdout).expect("generated query parses");
}

#[test]
fn analyze_reports_findings_with_exit_codes() {
    let (dir, shapes, _data) = fixtures();
    // A clean schema: exit 0.
    let out = shapefrag(&["analyze", shapes.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "clean schema → exit 0");
    // A contradictory schema: the findings print and the exit code is 3,
    // distinct from the engine-error code 2.
    let bad = write_file(
        dir.path(),
        "bad.ttl",
        r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:PaperShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 2 ; sh:maxCount 1 ] .
"#,
    );
    let out = shapefrag(&["analyze", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "deny findings → exit 3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SF-E002"), "{stdout}");
    assert!(stdout.contains("deny"), "{stdout}");
    // JSON output carries the same findings.
    let out = shapefrag(&["analyze", bad.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"SF-E002\""));
}

#[test]
fn analyze_containment_prints_matrix_and_findings() {
    let dir = tempdir::TempDir::new();
    let shapes = write_file(
        dir.path(),
        "shapes.ttl",
        r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:OneAuthor a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 1 ] .
ex:TwoAuthors a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 2 ] .
"#,
    );
    // Text mode: subsumption findings plus the rendered matrix.
    let out = shapefrag(&["analyze", shapes.to_str().unwrap(), "--containment"]);
    assert_eq!(out.status.code(), Some(0), "warnings never gate analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SF-W031"), "{stdout}");
    assert!(
        stdout.contains("ex:TwoAuthors") || stdout.contains("TwoAuthors> \u{2291}"),
        "matrix line for the ≥2 ⊑ ≥1 edge missing: {stdout}"
    );
    assert!(stdout.contains("proper containment(s)"), "{stdout}");
    // JSON mode: diagnostics and matrix under stable keys.
    let out = shapefrag(&[
        "analyze",
        shapes.to_str().unwrap(),
        "--containment",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"diagnostics\""), "{stdout}");
    assert!(stdout.contains("\"containment\""), "{stdout}");
    assert!(stdout.contains("\"SF-W031\""), "{stdout}");
    assert!(stdout.contains("\"fingerprint\""), "{stdout}");
    // An unknown flag is still a usage error.
    let out = shapefrag(&["analyze", shapes.to_str().unwrap(), "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn deny_findings_gate_validation() {
    let (dir, _shapes, data) = fixtures();
    let bad = write_file(
        dir.path(),
        "bad.ttl",
        r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:PaperShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 2 ; sh:maxCount 1 ] .
"#,
    );
    let out = shapefrag(&["validate", bad.to_str().unwrap(), data.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "contradictory shapes graph is rejected before validation"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SF-E002"), "{stderr}");
}

#[test]
fn help_documents_exit_codes() {
    let out = shapefrag(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("analyze"), "{stdout}");
    assert!(stdout.contains("exit codes"), "{stdout}");
    assert!(stdout.contains('3'), "{stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = shapefrag(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_file_is_reported() {
    let out = shapefrag(&[
        "validate",
        "/nonexistent/shapes.ttl",
        "/nonexistent/data.ttl",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn governed_validate_honors_budget_and_exit_code() {
    let (_dir, shapes, data) = fixtures();
    // A generous budget changes nothing: same verdicts, same exit code.
    let out = shapefrag(&[
        "validate",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--budget-steps",
        "1000000",
        "--deadline-ms",
        "60000",
    ]);
    assert_eq!(out.status.code(), Some(1), "violations still → exit 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("http://example.org/bad"));

    // One step cannot validate anything → resource-fault exit 4.
    let out = shapefrag(&[
        "validate",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--budget-steps",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(4), "budget trip → exit 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resource fault"), "{stderr}");
    assert!(stderr.contains("budget"), "{stderr}");
}

#[test]
fn governed_fragment_honors_deadline_and_exit_code() {
    let (_dir, shapes, data) = fixtures();
    // A generous governor extracts the same fragment.
    let out = shapefrag(&[
        "fragment",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--deadline-ms",
        "60000",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("http://example.org/author"));

    // An already-expired deadline faults with exit 4.
    let out = shapefrag(&[
        "fragment",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--deadline-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(4), "deadline trip → exit 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("deadline"));
}

#[test]
fn bad_governance_flag_values_are_usage_errors() {
    let (_dir, shapes, data) = fixtures();
    let out = shapefrag(&[
        "validate",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--deadline-ms",
        "soon",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deadline-ms"));
}

#[test]
fn parallel_fragment_under_generous_budget_matches_ungoverned() {
    let (_dir, shapes, data) = fixtures();
    let (shapes, data) = (shapes.to_str().unwrap(), data.to_str().unwrap());
    let plain = shapefrag(&["fragment", shapes, data]);
    assert!(plain.status.success());
    let governed = shapefrag(&[
        "fragment",
        shapes,
        data,
        "--threads",
        "2",
        "--budget-steps",
        "100000000",
    ]);
    assert!(governed.status.success());
    assert!(!plain.stdout.is_empty());
    assert_eq!(plain.stdout, governed.stdout);
}

#[test]
fn parallel_fragment_under_tiny_budget_exits_4() {
    let (_dir, shapes, data) = fixtures();
    let out = shapefrag(&[
        "fragment",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--threads",
        "2",
        "--budget-steps",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(4), "budget trip → exit 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("resource fault"));
}
