//! Rules `serve-panic` and `serve-index` (both deny): the serve request
//! path must not be able to panic.
//!
//! A panic in a batcher flush takes down a lane's batch, and the mux
//! thread runs routing and protocol parsing for every connection, so a
//! panic there would reach all of them. Request-path modules must return
//! typed `ApiError`/`ReadError` values instead.
//!
//! `serve-index` covers indexing and slicing (`buf[i]`, `buf[a..b]`),
//! which panic out of range just like `unwrap`; use `get()`/`get_mut()`
//! or a checked slice.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::rules::{is_punct, SourceFile};

/// Request-handling modules under `crates/serve/src/`.
const SERVE_PATH_FILES: &[&str] = &[
    "http.rs",
    "protocol.rs",
    "server.rs",
    "mux.rs",
    "router.rs",
    "session.rs",
    "batcher.rs",
];

/// Methods that panic on the failure arm.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that panic unconditionally when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn applies(file: &SourceFile) -> bool {
    if file.crate_name() != Some("serve") {
        return false;
    }
    let Some(name) = file.rel.rsplit('/').next() else {
        return false;
    };
    file.rel.contains("/src/") && SERVE_PATH_FILES.contains(&name)
}

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !applies(file) || file.all_test {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || file.in_test(t.line) {
            continue;
        }
        // `.unwrap(` / `.expect(` — method position only, so a local
        // helper named `unwrap_or_shed` or a field is not flagged.
        if PANIC_METHODS.contains(&t.text.as_str())
            && i >= 1
            && is_punct(&toks[i - 1], '.')
            && i + 1 < toks.len()
            && is_punct(&toks[i + 1], '(')
        {
            out.push(Diagnostic {
                rule: "serve-panic",
                severity: Severity::Deny,
                file: file.rel.clone(),
                line: t.line,
                message: format!(
                    "`.{}()` on the serve request path can panic a lane; \
                     return a typed ApiError/ReadError (or recover poisons \
                     with `unwrap_or_else(|p| p.into_inner())`)",
                    t.text
                ),
            });
        }
        // `panic!(`-family macros.
        if PANIC_MACROS.contains(&t.text.as_str())
            && i + 1 < toks.len()
            && is_punct(&toks[i + 1], '!')
        {
            out.push(Diagnostic {
                rule: "serve-panic",
                severity: Severity::Deny,
                file: file.rel.clone(),
                line: t.line,
                message: format!(
                    "`{}!` on the serve request path aborts the worker; \
                     surface a typed error instead",
                    t.text
                ),
            });
        }
        // `name[` — indexing or slicing expression: panics on
        // out-of-range.
        if i + 1 < toks.len() && is_punct(&toks[i + 1], '[') {
            let indexee_ok = t.kind == TokenKind::Ident && !is_keyword_before_bracket(&t.text);
            if indexee_ok && !is_attr_or_decl_context(toks, i) {
                out.push(Diagnostic {
                    rule: "serve-index",
                    severity: Severity::Deny,
                    file: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "`{}[…]` indexing can panic on the request path; \
                         prefer get()/checked slicing",
                        t.text
                    ),
                });
            }
        }
    }
}

/// Identifiers that legitimately precede `[` without being an indexing
/// base: type/keyword positions (`let x: [u8; 4]`, `impl Index<…>`,
/// `-> [f32; 8]`, `in [a, b]`).
fn is_keyword_before_bracket(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "in"
            | "as"
            | "mut"
            | "return"
            | "break"
            | "const"
            | "static"
            | "ref"
            | "move"
            | "else"
            | "match"
            | "if"
            | "while"
            | "loop"
            | "for"
            | "where"
    )
}

/// True when `toks[i]` sits in a type or pattern position rather than an
/// expression: directly after `:`/`->`/`=` is still an expression, but a
/// preceding `#` means attribute machinery.
fn is_attr_or_decl_context(toks: &[crate::lexer::Token], i: usize) -> bool {
    i >= 1 && is_punct(&toks[i - 1], '#')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::SourceFile;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new("crates/serve/src/http.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_and_expect() {
        let d = run("fn f() { x.unwrap(); y.expect(\"msg\"); }");
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == "serve-panic"));
    }

    #[test]
    fn flags_panic_macros() {
        let d = run("fn f() { panic!(\"boom\"); unreachable!(); }");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn indexing_is_deny_tier() {
        let d = run("fn f(buf: &[u8]) -> u8 { buf[0] }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "serve-index");
        assert_eq!(d[0].severity, Severity::Deny);
    }

    #[test]
    fn unwrap_or_else_is_fine() {
        let d = run("fn f() { let g = m.lock().unwrap_or_else(|p| p.into_inner()); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn non_request_path_files_are_exempt() {
        let f = SourceFile::new(
            "crates/serve/src/bin/serve_bench.rs",
            "fn f() { x.unwrap(); }",
        );
        let mut out = Vec::new();
        check(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn tests_are_exempt() {
        let d =
            run("#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); panic!(); }\n}");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn attribute_brackets_are_not_indexing() {
        let d = run("#[derive(Debug)]\nstruct S;\n");
        assert!(d.is_empty(), "{d:?}");
    }
}
