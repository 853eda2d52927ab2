//! Rule engine: per-file context (test-scope detection), the suppression
//! comment protocol, and the rule registry.
//!
//! Suppression syntax, placed on the offending line or the line above it:
//!
//! ```text
//! // tspn-lint: allow(<rule>) — <why the invariant still holds>
//! ```
//!
//! A suppression without a reason is itself a deny-level finding; a
//! suppression that matches no diagnostic is a warn-level finding.

pub mod env_registry;
pub mod hash_order;
pub mod serve_panic;
pub mod unsafe_safety;
pub mod wall_clock;

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, Lexed, Token, TokenKind};

/// Static description of one rule, for `--list-rules` and severity lookup.
pub struct RuleInfo {
    /// Slug used in diagnostics and `allow(...)`.
    pub name: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description.
    pub summary: &'static str,
}

/// Every rule the engine knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-order",
        severity: Severity::Deny,
        summary: "no iteration over HashMap/HashSet in deterministic crates \
                  (core, graph, geo, roadnet, tensor, data) outside tests",
    },
    RuleInfo {
        name: "unsafe-safety",
        severity: Severity::Deny,
        summary: "every unsafe block/fn/impl must carry a `// SAFETY:` (or \
                  `# Safety` doc) comment on the preceding lines",
    },
    RuleInfo {
        name: "serve-panic",
        severity: Severity::Deny,
        summary: "no unwrap()/expect()/panic-family macros in the serve \
                  request path (http, protocol, server, mux, router, \
                  session, batcher) outside tests",
    },
    RuleInfo {
        name: "serve-index",
        severity: Severity::Deny,
        summary: "direct `[...]` indexing in the serve request path can \
                  panic; prefer get()/get_mut() or a checked slice",
    },
    RuleInfo {
        name: "wall-clock",
        severity: Severity::Deny,
        summary: "no SystemTime::now/Instant::now/thread_rng in compute \
                  crates (core, tensor, graph) outside tests",
    },
    RuleInfo {
        name: "env-registry",
        severity: Severity::Deny,
        summary: "every TSPN_* env-knob literal must be registered in \
                  docs/KNOBS.md, and every registry row must be live",
    },
];

/// Looks up a rule's default severity; unknown rules report as deny so a
/// typo in the engine itself cannot silently downgrade anything.
pub fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.name == rule)
        .map(|r| r.severity)
        .unwrap_or(Severity::Deny)
}

/// One lexed source file plus the scope metadata rules need.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Lexed token/comment streams.
    pub lexed: Lexed,
    /// True when the whole file is test/bench/example scope.
    pub all_test: bool,
    /// Inclusive 1-based line ranges of `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes `src` and computes test scope from both the path and the
    /// token stream.
    pub fn new(rel: &str, src: &str) -> Self {
        let lexed = lex(src);
        let all_test = path_is_test(rel);
        let test_ranges = if all_test {
            Vec::new()
        } else {
            compute_test_ranges(&lexed.tokens)
        };
        SourceFile {
            rel: rel.to_string(),
            lexed,
            all_test,
            test_ranges,
        }
    }

    /// True when 1-based `line` is inside test scope.
    pub fn in_test(&self, line: u32) -> bool {
        self.all_test
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// The crate this file belongs to (`crates/<name>/…` → `<name>`).
    pub fn crate_name(&self) -> Option<&str> {
        let rest = self.rel.strip_prefix("crates/")?;
        rest.split('/').next()
    }
}

/// Whole files that are test scope by construction.
fn path_is_test(rel: &str) -> bool {
    let segs: Vec<&str> = rel.split('/').collect();
    if segs
        .iter()
        .any(|s| *s == "tests" || *s == "benches" || *s == "examples")
    {
        return true;
    }
    match segs.last() {
        Some(f) => *f == "tests.rs" || f.ends_with("_test.rs") || f.ends_with("_tests.rs"),
        None => false,
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct && t.text.len() == c.len_utf8() && t.text.starts_with(c)
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

/// Index of the token closing the bracket opened at `open` (which must be
/// the opening token), or `tokens.len()` when unbalanced.
fn match_delim(tokens: &[Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if is_punct(&tokens[i], oc) {
            depth += 1;
        } else if is_punct(&tokens[i], cc) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Finds `#[test]` / `#[cfg(test)]` / `#[bench]` attributes and marks the
/// line range of the item they decorate (brace-matched for blocks,
/// semicolon-terminated for declarations).
fn compute_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(is_punct(&tokens[i], '#') && is_punct(&tokens[i + 1], '[')) {
            i += 1;
            continue;
        }
        let close = match_delim(tokens, i + 1, '[', ']');
        if close >= tokens.len() {
            break;
        }
        let attr = &tokens[i + 2..close];
        if attr_marks_test(attr) {
            let start_line = tokens[i].line;
            let end = item_end(tokens, close + 1);
            let end_line = if end < tokens.len() {
                tokens[end].line
            } else {
                tokens.last().map(|t| t.line).unwrap_or(start_line)
            };
            ranges.push((start_line, end_line));
        }
        i = close + 1;
    }
    ranges
}

/// Is this attribute body a test marker? `test`, `bench`, or a `cfg(...)`
/// whose predicate mentions `test` outside a `not(...)`.
fn attr_marks_test(attr: &[Token]) -> bool {
    let Some(first) = attr.first() else {
        return false;
    };
    if is_ident(first, "test") || is_ident(first, "bench") {
        return true;
    }
    if !is_ident(first, "cfg") {
        return false;
    }
    for (k, t) in attr.iter().enumerate() {
        if is_ident(t, "test") {
            let negated = k >= 2 && is_ident(&attr[k - 2], "not") && is_punct(&attr[k - 1], '(');
            if !negated {
                return true;
            }
        }
    }
    false
}

/// Token index where the item starting at `from` ends: the matching `}` of
/// its first depth-0 `{`, or its first depth-0 `;` — skipping any further
/// attributes in between.
fn item_end(tokens: &[Token], mut from: usize) -> usize {
    // Skip stacked attributes.
    while from + 1 < tokens.len()
        && is_punct(&tokens[from], '#')
        && is_punct(&tokens[from + 1], '[')
    {
        from = match_delim(tokens, from + 1, '[', ']') + 1;
    }
    let mut paren = 0i32;
    let mut brack = 0i32;
    let mut i = from;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, '(') {
            paren += 1;
        } else if is_punct(t, ')') {
            paren -= 1;
        } else if is_punct(t, '[') {
            brack += 1;
        } else if is_punct(t, ']') {
            brack -= 1;
        } else if is_punct(t, '{') && paren == 0 && brack == 0 {
            return match_delim(tokens, i, '{', '}');
        } else if is_punct(t, ';') && paren == 0 && brack == 0 {
            return i;
        }
        i += 1;
    }
    tokens.len()
}

/// A parsed `// tspn-lint: allow(...)` comment.
pub struct Suppression {
    /// Rule slug named in `allow(...)`.
    pub rule: String,
    /// 1-based line the suppression covers (the comment's own line if it
    /// carries code, else the next line with code).
    pub target_line: u32,
    /// 1-based line of the comment itself.
    pub comment_line: u32,
    /// Whether a reason followed the `allow(...)`.
    pub has_reason: bool,
}

/// Extracts every suppression comment from `file`.
pub fn parse_suppressions(file: &SourceFile) -> Vec<Suppression> {
    let mut out = Vec::new();
    let max_line = file.lexed.lines_with_code.len() as u32;
    for c in &file.lexed.comments {
        let Some(pos) = c.text.find("tspn-lint:") else {
            continue;
        };
        let rest = &c.text[pos + "tspn-lint:".len()..];
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules = &rest[..close];
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
            .trim();
        let target_line = if file.lexed.line_has_code(c.line) {
            c.line
        } else {
            let mut l = c.line + 1;
            while l < max_line && !file.lexed.line_has_code(l) {
                l += 1;
            }
            l
        };
        for rule in rules.split(',') {
            let rule = rule.trim();
            // Rule slugs are strictly kebab-case; anything else (like the
            // `<rule>` placeholder in documentation examples) is prose,
            // not a suppression.
            if rule.is_empty()
                || !rule
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
            {
                continue;
            }
            out.push(Suppression {
                rule: rule.to_string(),
                target_line,
                comment_line: c.line,
                has_reason: !reason.is_empty(),
            });
        }
    }
    out
}

/// Applies suppressions to `raw` diagnostics for one file. Suppressed
/// findings are dropped; malformed (reason-less) suppressions become deny
/// findings; unused or unknown-rule suppressions become warn findings.
pub fn apply_suppressions(file: &SourceFile, raw: Vec<Diagnostic>, out: &mut Vec<Diagnostic>) {
    let sups = parse_suppressions(file);
    let mut used = vec![false; sups.len()];
    'diag: for d in raw {
        for (k, s) in sups.iter().enumerate() {
            if s.rule == d.rule && (s.target_line == d.line || s.comment_line == d.line) {
                used[k] = true;
                if s.has_reason {
                    continue 'diag;
                }
                // A reason-less suppression still hides the original
                // finding, but surfaces as its own deny — otherwise the
                // same site would double-report.
                continue 'diag;
            }
        }
        out.push(d);
    }
    for (k, s) in sups.iter().enumerate() {
        if !s.has_reason {
            out.push(Diagnostic {
                rule: "suppression",
                severity: Severity::Deny,
                file: file.rel.clone(),
                line: s.comment_line,
                message: format!(
                    "suppression for `{}` has no reason — write \
                     `// tspn-lint: allow({}) — <why this is sound>`",
                    s.rule, s.rule
                ),
            });
        } else if !used[k] {
            let known = RULES.iter().any(|r| r.name == s.rule);
            out.push(Diagnostic {
                rule: "suppression",
                severity: Severity::Warn,
                file: file.rel.clone(),
                line: s.comment_line,
                message: if known {
                    format!(
                        "suppression for `{}` matches no finding — remove it",
                        s.rule
                    )
                } else {
                    format!("suppression names unknown rule `{}`", s.rule)
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_ranges() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(!f.in_test(1));
        assert!(f.in_test(2));
        assert!(f.in_test(4));
        assert!(!f.in_test(6));
    }

    #[test]
    fn cfg_not_test_is_live() {
        let src = "#[cfg(not(test))]\nfn live() {}\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(!f.in_test(2));
    }

    #[test]
    fn test_fn_attr() {
        let src = "fn live() {}\n#[test]\nfn t() {\n    boom();\n}\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(!f.in_test(1));
        assert!(f.in_test(4));
    }

    #[test]
    fn tests_dir_is_all_test() {
        let f = SourceFile::new("crates/core/tests/it.rs", "fn x() {}");
        assert!(f.in_test(1));
        assert!(f.all_test);
    }

    #[test]
    fn suppression_parsing() {
        let src = "// tspn-lint: allow(hash-order) — recycling order is irrelevant\nlet x = 1;\n// tspn-lint: allow(wall-clock)\nlet y = 2;\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        let sups = parse_suppressions(&f);
        assert_eq!(sups.len(), 2);
        assert_eq!(sups[0].rule, "hash-order");
        assert_eq!(sups[0].target_line, 2);
        assert!(sups[0].has_reason);
        assert!(!sups[1].has_reason);
    }
}
