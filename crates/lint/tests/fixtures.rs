//! Golden-file tests: each `fixtures/<name>.rs` is linted as if it lived at
//! the workspace path named in its `//@ path:` header, and the JSON report
//! must match `fixtures/<name>.json` byte for byte. `fixtures/stats.rs`
//! is counted by `--stats` instead, against `fixtures/stats.txt`.
//!
//! Regenerate goldens after an intentional rule change with
//! `TSPN_LINT_BLESS=1 cargo test -p tspn-lint --test fixtures`.

use std::fs;
use std::path::{Path, PathBuf};

use tspn_lint::{code_lines, lint_files, render_json, render_stats};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Reads the `//@ key: value` headers off the top of a fixture.
fn header(src: &str, key: &str) -> Option<String> {
    let tag = format!("//@ {key}:");
    src.lines()
        .take_while(|l| l.starts_with("//@"))
        .find_map(|l| l.strip_prefix(&tag).map(|v| v.trim().to_string()))
}

fn run_fixture(name: &str) {
    let dir = fixtures_dir();
    let src = fs::read_to_string(dir.join(format!("{name}.rs")))
        .unwrap_or_else(|e| panic!("read fixture {name}.rs: {e}"));
    let rel = header(&src, "path")
        .unwrap_or_else(|| panic!("fixture {name}.rs is missing a `//@ path:` header"));
    let knobs = header(&src, "knobs").map(|f| {
        fs::read_to_string(dir.join(&f)).unwrap_or_else(|e| panic!("read registry {f}: {e}"))
    });
    let diags = lint_files(&[(rel, src)], knobs.as_deref());
    check_golden(&format!("{name}.json"), &render_json(&diags));
}

/// Compares `got` with the committed golden `file` (or rewrites it under
/// `TSPN_LINT_BLESS`).
fn check_golden(file: &str, got: &str) {
    let golden_path = fixtures_dir().join(file);
    if std::env::var("TSPN_LINT_BLESS").is_ok() {
        fs::write(&golden_path, got).expect("bless golden");
        return;
    }
    let want = fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read golden {file} (bless first?): {e}"));
    assert_eq!(
        got, want,
        "golden `{file}` drifted — if the rule change is intentional, \
         re-bless with TSPN_LINT_BLESS=1"
    );
}

#[test]
fn stats_fixture() {
    let src = fs::read_to_string(fixtures_dir().join("stats.rs")).expect("read stats.rs");
    let rel = header(&src, "path").expect("stats.rs `//@ path:` header");
    // The same source as an integration test is all test scope: its crate
    // row stays, but it adds no lines.
    let files = vec![
        (rel, src.clone()),
        ("crates/demo/tests/it.rs".to_string(), src.clone()),
        ("perfbench/src/main.rs".to_string(), src),
    ];
    check_golden("stats.txt", &render_stats(&code_lines(&files)));
}

#[test]
fn hash_order_fixture() {
    run_fixture("hash_order");
}

#[test]
fn suppression_fixture() {
    run_fixture("suppression");
}

#[test]
fn raw_strings_fixture() {
    run_fixture("raw_strings");
}

#[test]
fn unsafe_safety_fixture() {
    run_fixture("unsafe_safety");
}

#[test]
fn serve_panic_fixture() {
    run_fixture("serve_panic");
}

#[test]
fn env_registry_fixture() {
    run_fixture("env_registry");
}

/// Every fixture must exercise at least one finding or suppression — an
/// all-quiet fixture tests nothing and usually means a header typo.
#[test]
fn goldens_are_not_empty() {
    for name in [
        "hash_order",
        "suppression",
        "raw_strings",
        "unsafe_safety",
        "serve_panic",
        "env_registry",
    ] {
        let golden = fixtures_dir().join(format!("{name}.json"));
        let Ok(text) = fs::read_to_string(&golden) else {
            continue; // fixture not blessed yet; its own test will fail
        };
        assert!(
            text.contains("\"rule\""),
            "golden {name}.json contains no findings — fixture is inert"
        );
    }
}
