//! CLI for `tspn-lint`.
//!
//! ```text
//! tspn-lint [--root <dir>] [--format text|json] [--list-rules] [--stats]
//! ```
//!
//! Exit codes: 0 = no deny-level findings, 1 = deny-level findings,
//! 2 = usage or I/O error. Warn-level findings never fail the build.
//! `--stats` prints non-test code lines per crate instead of linting.

use std::path::PathBuf;
use std::process::ExitCode;

use tspn_lint::diag::{render_json, Severity};
use tspn_lint::rules::RULES;

fn usage() -> &'static str {
    "usage: tspn-lint [--root <dir>] [--format text|json] [--list-rules] [--stats]\n\
     \n\
     Walks every workspace .rs file (skipping target/, vendor/ and the\n\
     lint fixtures) and enforces the project contracts. Suppress a finding\n\
     with `// tspn-lint: allow(<rule>) — <reason>` on or above the line.\n\
     --stats instead prints non-test code lines per crate.\n"
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format_json = false;
    let mut stats = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a path\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                _ => {
                    eprintln!("--format must be `text` or `json`\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for r in RULES {
                    println!("{:<14} {:<5} {}", r.name, r.severity.name(), r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--stats" => stats = true,
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    if stats {
        return match tspn_lint::workspace_files(&root) {
            Ok(files) => {
                let lines = tspn_lint::code_lines(&files);
                print!("{}", tspn_lint::render_stats(&lines));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("tspn-lint: cannot walk {}: {e}", root.display());
                ExitCode::from(2)
            }
        };
    }

    let diags = match tspn_lint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tspn-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let deny = diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count();
    let warn = diags.len() - deny;

    if format_json {
        print!("{}", render_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        println!(
            "tspn-lint: {deny} deny, {warn} warn across {} finding(s)",
            diags.len()
        );
    }

    if deny > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
