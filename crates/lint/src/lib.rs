//! `tspn-lint` — the workspace static-analysis pass.
//!
//! Dependency-free by design: a hand-written lexer ([`lexer`]), typed
//! diagnostics with a hand-rendered JSON form ([`diag`]), and a rule
//! engine ([`rules`]) enforcing the project's determinism, unsafe-hygiene
//! and panic-freedom contracts. See `crates/lint/README.md` for the rule
//! catalogue and the suppression syntax.
//!
//! The library surface takes `(path, contents)` pairs so fixture tests can
//! lint virtual files without touching the filesystem; [`lint_workspace`]
//! is the thin disk-walking wrapper the binary uses. [`code_lines`] reuses
//! the same lexing and test-scope detection to count non-test code lines
//! per crate (`tspn-lint --stats`).

pub mod diag;
pub mod lexer;
pub mod rules;

pub use diag::{render_json, Diagnostic, Severity};

use rules::{env_registry, hash_order, serve_panic, unsafe_safety, wall_clock, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// Lints a set of in-memory files. `files` is `(workspace-relative path,
/// contents)`; `knobs_md` is the content of `docs/KNOBS.md` when present.
/// Returns diagnostics sorted by file/line/rule.
pub fn lint_files(files: &[(String, String)], knobs_md: Option<&str>) -> Vec<Diagnostic> {
    let registry = env_registry::parse_registry(knobs_md);
    let mut out = Vec::new();
    let mut live = BTreeSet::new();
    for (rel, src) in files {
        let file = SourceFile::new(rel, src);
        let mut raw = Vec::new();
        hash_order::check(&file, &mut raw);
        unsafe_safety::check(&file, &mut raw);
        serve_panic::check(&file, &mut raw);
        wall_clock::check(&file, &mut raw);
        env_registry::check_file(&file, &registry, knobs_md.is_some(), &mut raw, &mut live);
        rules::apply_suppressions(&file, raw, &mut out);
    }
    env_registry::check_dead_rows(&registry, &live, &mut out);
    diag::sort(&mut out);
    out
}

/// Directories the walker never descends into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github", "node_modules"];

/// Walks `root` for workspace `.rs` files (skipping build output, vendored
/// shims and the lint fixtures, which are deliberately rule-violating) and
/// lints them against `docs/KNOBS.md`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let files = workspace_files(root)?;
    let knobs = fs::read_to_string(root.join("docs/KNOBS.md")).ok();
    Ok(lint_files(&files, knobs.as_deref()))
}

/// Every workspace `.rs` file under `root` as `(relative path, contents)`,
/// sorted by path (the walk [`lint_workspace`] lints).
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    // Deterministic order in, deterministic order out.
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// Non-test code lines per crate: lines that carry at least one code
/// token (comments and blank lines never count; a multi-line literal
/// counts on the lines its tokens start on), outside whole-test files
/// (`tests/`, `benches/`, `examples/`) and `#[cfg(test)]`/`#[test]` item
/// extents. `crates/<name>/…` counts toward `<name>`, any other path
/// toward its first segment.
pub fn code_lines(files: &[(String, String)]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for (rel, src) in files {
        let file = SourceFile::new(rel, src);
        let name = file
            .crate_name()
            .or_else(|| rel.split('/').next())
            .unwrap_or(rel)
            .to_string();
        let lines = (1..file.lexed.lines_with_code.len() as u32)
            .filter(|&l| file.lexed.line_has_code(l) && !file.in_test(l))
            .count();
        *out.entry(name).or_insert(0) += lines;
    }
    out
}

/// Renders [`code_lines`] as a `name lines` table ending in a `total`
/// row.
pub fn render_stats(stats: &BTreeMap<String, usize>) -> String {
    let total: usize = stats.values().sum();
    let mut out = String::new();
    for (k, v) in stats {
        out.push_str(&format!("{k:<12} {v:>7}\n"));
    }
    out.push_str(&format!("{:<12} {total:>7}\n", "total"));
    out
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            // The lint fixtures are known-bad snippets by construction.
            if rel.contains("tests/fixtures/") {
                continue;
            }
            let src = fs::read_to_string(&path)?;
            out.push((rel, src));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    #[test]
    fn end_to_end_clean_file() {
        let files = vec![(
            "crates/graph/src/ok.rs".to_string(),
            "use std::collections::BTreeSet;\nfn f(edges: &BTreeSet<u32>) -> u32 { edges.iter().sum() }\n".to_string(),
        )];
        let diags = lint_files(&files, Some("| knob | default |\n"));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn end_to_end_suppression_flow() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &mut HashMap<u32, u32>) {\n\
                   \x20   // tspn-lint: allow(hash-order) — recycled buffers, order never observed\n\
                   \x20   m.drain();\n\
                   }\n";
        let files = vec![("crates/tensor/src/ok.rs".to_string(), src.to_string())];
        let diags = lint_files(&files, Some("| `X` |\n"));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn end_to_end_reasonless_suppression_denies() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &mut HashMap<u32, u32>) {\n\
                   \x20   // tspn-lint: allow(hash-order)\n\
                   \x20   m.drain();\n\
                   }\n";
        let files = vec![("crates/tensor/src/ok.rs".to_string(), src.to_string())];
        let diags = lint_files(&files, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "suppression");
        assert_eq!(diags[0].severity, Severity::Deny);
    }

    #[test]
    fn end_to_end_env_registry_round_trip() {
        let files = vec![(
            "crates/serve/src/config.rs".to_string(),
            "fn f() { std::env::var(\"TSPN_NEW_KNOB\").ok(); }".to_string(),
        )];
        // Unregistered literal.
        let d = lint_files(&files, Some("| `TSPN_DEAD_KNOB` | 0 |\n"));
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("TSPN_NEW_KNOB")));
        assert!(d.iter().any(|x| x.message.contains("TSPN_DEAD_KNOB")));
        // Registered: clean.
        let d = lint_files(&files, Some("| `TSPN_NEW_KNOB` | 0 |\n"));
        assert!(d.is_empty(), "{d:?}");
    }
}
