//! Repo-invariant lint: a registry-free, token-level checker for the
//! cross-cutting rules the compiler cannot see.
//!
//! The workspace has conventions that span crates — "environment knobs
//! are read in exactly two places", "the store never panics on its
//! commit/recovery paths", "locks go through the instrumented
//! `parking_lot` shim", "determinism-contracted regions never read the
//! clock". Each lives in module docs somewhere; this lint makes them
//! enforceable. It has no `syn`, no registry dependency at all: it walks
//! `crates/*/src` and `src/`, tokenizes each file with the analyses'
//! lexer ([`crate::analyze::parse::lex`] — comments vanish, literals are
//! single tokens), tracks `#[cfg(test)]` regions by brace depth, and
//! matches token windows line by line.
//!
//! ## Rules
//!
//! * `env-var` — `std::env::var` (and `var_os`) may appear only in
//!   `crates/core/src/config.rs` (the engine's sanctioned override
//!   surface) and `crates/store/src/envknob.rs` (the raw store's shared
//!   strict parser). Everything else must take configuration as
//!   arguments.
//! * `store-unwrap` — no `.unwrap()` / `.expect(` in non-test store
//!   code: commit and recovery paths return typed `StoreError`s instead
//!   of unwinding mid-protocol.
//! * `std-sync` — no direct `std::sync::{Mutex, RwLock, Condvar}`
//!   anywhere under `crates/`: every crate must use the instrumented
//!   `parking_lot` shim so the lockcheck tracker sees each acquisition.
//!   (`crowd::model` is the one exemption — its scheduler IS the
//!   instrumentation and needs the raw primitives, as does the shim
//!   itself, which is not walked.)
//! * `determinism-instant` — no `Instant::now()` / `SystemTime::now()`
//!   between a `lint: determinism` fence comment and its matching
//!   `lint: end determinism`: fenced regions promise bit-identical
//!   output for a given input and seed.
//!
//! ## Directives
//!
//! A comment line of exactly `lint: allow(<rule>)` (after `//`) waives
//! the next match of `<rule>` within the following four lines. Waivers
//! are budgeted per rule ([`waiver_budget`]): a rule at budget zero
//! cannot be waived at all — extending its allowlist here, in reviewed
//! code, is the only way out. A waiver that suppresses nothing is a
//! violation too (stale waivers rot), as is a waiver naming an unknown
//! rule. Fences open with `lint: determinism` and close with
//! `lint: end determinism`; unbalanced fences are violations.
//!
//! `allow(panic-path)` is accepted but handled by the call-graph
//! analyses in [`crate::analyze`] (function-granular, budgeted there).

use crate::analyze::parse::{lex, Tok, Token};
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule breach (or lint-configuration problem) at a location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Root-relative path with forward slashes.
    pub file: String,
    /// 1-based line, 0 for file-level problems.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A waiver directive that suppressed a match.
#[derive(Debug, Clone)]
pub struct UsedWaiver {
    pub file: String,
    pub line: usize,
    pub rule: String,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
    /// Every waiver that actually fired — the run's reviewed-exception
    /// list, printed even on clean runs so it stays visible.
    pub waivers_used: Vec<UsedWaiver>,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

const RULES: [&str; 4] = ["env-var", "store-unwrap", "std-sync", "determinism-instant"];

/// Rules handled by the call-graph analyses in `crate::analyze`, not
/// here. Their `lint: allow(...)` directives are legal comments (so a
/// file can carry both kinds), but this lint neither applies nor
/// stale-tracks them — `itag-lint panics` does.
const EXTERNAL_RULES: [&str; 1] = ["panic-path"];

/// Files where `env::var` is sanctioned.
const ENV_VAR_ALLOWED: [&str; 2] = ["crates/core/src/config.rs", "crates/store/src/envknob.rs"];

/// The `std-sync` rule covers every crate except `crowd::model`: the
/// schedule explorer IS the instrumentation and needs raw primitives
/// (as does the `parking_lot` shim itself, which is not walked).
fn std_sync_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/") && rel != "crates/crowd/src/model.rs"
}

/// How many `lint: allow(<rule>)` directives each rule tolerates
/// repo-wide. Raising a budget is a reviewed change to this file.
pub fn waiver_budget(rule: &str) -> usize {
    match rule {
        // The two apply-batch shard-guard expects in `store::db`: the
        // guard set is computed from the same routes the loop indexes
        // with, and the batch is already in the WAL — there is no caller
        // left to surface an error to.
        "store-unwrap" => 2,
        _ => 0,
    }
}

/// A directive window: waives `rule` matches on lines
/// `line..=line + WAIVER_WINDOW`.
const WAIVER_WINDOW: usize = 4;

struct Waiver {
    rule: String,
    line: usize,
    used: bool,
}

/// Lints the workspace rooted at `root`; see the module docs for the
/// rule set.
pub fn run(root: &Path) -> LintReport {
    let mut report = LintReport::default();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("src"), &mut files);
    files.sort();

    let mut waivers_per_rule: Vec<(String, usize)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(content) = std::fs::read_to_string(path) else {
            report.violations.push(Violation {
                file: rel,
                line: 0,
                rule: "env-var",
                message: "file could not be read as UTF-8".into(),
            });
            continue;
        };
        report.files_scanned += 1;
        lint_file(&rel, &content, &mut report, &mut waivers_per_rule);
    }

    for rule in RULES {
        let used = waivers_per_rule
            .iter()
            .filter(|(r, _)| r == rule)
            .map(|(_, n)| n)
            .sum::<usize>();
        let budget = waiver_budget(rule);
        if used > budget {
            report.violations.push(Violation {
                file: "<workspace>".into(),
                line: 0,
                rule: rule_static(rule),
                message: format!(
                    "{used} waivers for rule `{rule}` exceed its budget of {budget}; \
                     fix the new site or raise the budget in src/lint.rs (reviewed)"
                ),
            });
        }
    }
    report
}

fn rule_static(rule: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| **r == rule)
        .copied()
        .unwrap_or("env-var")
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "tests" | "benches" | "examples" | "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") && name != "testutil.rs" {
            out.push(path);
        }
    }
}

fn lint_file(
    rel: &str,
    content: &str,
    report: &mut LintReport,
    waivers_per_rule: &mut Vec<(String, usize)>,
) {
    let raw_lines: Vec<&str> = content.lines().collect();
    let code_lines = code_lines(content);

    let mut waivers: Vec<Waiver> = Vec::new();
    let mut fence_open_at: Option<usize> = None;
    let mut depth: i32 = 0;
    let mut test_region: Option<i32> = None;
    let mut pending_test = false;

    // Pattern text lives in literals so the lint never flags itself: a
    // literal is one token, never matched by a window.
    let p_env = ["env::var", "env::var_os", "env::vars", "env::vars_os"].map(pattern);
    let p_unwrap = pattern(".unwrap()");
    let p_expect = pattern(".expect(");
    let p_std_sync = pattern("std::sync::");
    let p_instant = pattern("Instant::now");
    let p_systime = pattern("SystemTime::now");
    let p_cfg_test = pattern("cfg(test");

    for (idx, raw) in raw_lines.iter().enumerate() {
        let line_no = idx + 1;
        let trimmed = raw.trim_start();

        // -- directives (read from the raw line; they are comments) --
        if let Some(rest) = trimmed.strip_prefix("// lint: ") {
            let rest = rest.trim_end();
            if rest == "determinism" {
                if fence_open_at.is_some() {
                    report.violations.push(Violation {
                        file: rel.into(),
                        line: line_no,
                        rule: "determinism-instant",
                        message: "nested determinism fence (previous one never closed)".into(),
                    });
                }
                fence_open_at = Some(line_no);
            } else if rest == "end determinism" {
                if fence_open_at.take().is_none() {
                    report.violations.push(Violation {
                        file: rel.into(),
                        line: line_no,
                        rule: "determinism-instant",
                        message: "`end determinism` without an open fence".into(),
                    });
                }
            } else if let Some(rule) = rest
                .strip_prefix("allow(")
                .and_then(|r| r.strip_suffix(')'))
            {
                if RULES.contains(&rule) {
                    waivers.push(Waiver {
                        rule: rule.to_string(),
                        line: line_no,
                        used: false,
                    });
                } else if EXTERNAL_RULES.contains(&rule) {
                    // Owned by crate::analyze; nothing to do here.
                } else {
                    report.violations.push(Violation {
                        file: rel.into(),
                        line: line_no,
                        rule: rule_static(rule),
                        message: format!("waiver names unknown rule `{rule}`"),
                    });
                }
            }
            // Anything else after "// lint: " is prose, not a directive.
        }

        let code: &[Token] = code_lines.get(idx).map_or(&[], Vec::as_slice);
        let has = |pat: &[Tok]| {
            code.windows(pat.len())
                .any(|w| w.iter().map(|t| &t.tok).eq(pat))
        };

        // -- test-region tracking --
        let in_test = test_region.is_some() || pending_test;
        if test_region.is_none() && has(&p_cfg_test) {
            pending_test = true;
        }
        for t in code {
            let Tok::P(ch) = t.tok else { continue };
            match ch {
                '{' => {
                    depth += 1;
                    if pending_test {
                        test_region = Some(depth);
                        pending_test = false;
                    }
                }
                '}' => {
                    depth -= 1;
                    if let Some(d) = test_region {
                        if depth < d {
                            test_region = None;
                        }
                    }
                }
                ';' => {
                    // `#[cfg(test)] use ...;` — item without a body.
                    pending_test = false;
                }
                _ => {}
            }
        }
        if in_test {
            continue;
        }

        // -- rules --
        let mut flag = |rule: &'static str, message: String| {
            if let Some(w) = waivers.iter_mut().find(|w| {
                w.rule == rule && !w.used && (w.line..=w.line + WAIVER_WINDOW).contains(&line_no)
            }) {
                w.used = true;
                report.waivers_used.push(UsedWaiver {
                    file: rel.into(),
                    line: w.line,
                    rule: rule.to_string(),
                });
                return;
            }
            report.violations.push(Violation {
                file: rel.into(),
                line: line_no,
                rule,
                message,
            });
        };

        if p_env.iter().any(|p| has(p)) && !ENV_VAR_ALLOWED.contains(&rel) {
            flag(
                "env-var",
                "environment read outside core::config / store::envknob; \
                 take the value as an argument instead"
                    .into(),
            );
        }
        if rel.starts_with("crates/store/src/") && (has(&p_unwrap) || has(&p_expect)) {
            flag(
                "store-unwrap",
                "panic in non-test store code; return a typed StoreError".into(),
            );
        }
        if std_sync_in_scope(rel)
            && has(&p_std_sync)
            && code.iter().filter_map(Token::ident).any(|id| {
                ["Mutex", "RwLock", "Condvar"]
                    .iter()
                    .any(|lock| id.contains(lock))
            })
        {
            flag(
                "std-sync",
                "direct std::sync lock where the instrumented parking_lot shim is mandated".into(),
            );
        }
        if fence_open_at.is_some() && (has(&p_instant) || has(&p_systime)) {
            flag(
                "determinism-instant",
                "clock read inside a determinism fence".into(),
            );
        }
    }

    if let Some(open) = fence_open_at {
        report.violations.push(Violation {
            file: rel.into(),
            line: open,
            rule: "determinism-instant",
            message: "determinism fence never closed".into(),
        });
    }

    for w in waivers {
        if w.used {
            waivers_per_rule.push((w.rule, 1));
        } else {
            report.violations.push(Violation {
                file: rel.into(),
                line: w.line,
                rule: rule_static(&w.rule),
                message: format!("stale waiver: no `{}` match within its window", w.rule),
            });
        }
    }
}

/// The tokens of `pattern` — the window a rule matches.
fn pattern(pattern: &str) -> Vec<Tok> {
    lex(pattern).into_iter().map(|t| t.tok).collect()
}

/// `content`'s tokens grouped by line (index 0 is line 1), one entry per
/// source line: comments are gone and every literal is a single token,
/// so a rule's window never matches text inside either.
fn code_lines(content: &str) -> Vec<Vec<Token>> {
    let mut lines: Vec<Vec<Token>> = vec![Vec::new(); content.lines().count()];
    for t in lex(content) {
        if let Some(line) = lines.get_mut(t.line.saturating_sub(1)) {
            line.push(t);
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_source(rel: &str, src: &str) -> LintReport {
        let mut report = LintReport::default();
        let mut wpr = Vec::new();
        lint_file(rel, src, &mut report, &mut wpr);
        report
    }

    /// True when some line of `lines` holds the window `pat`.
    fn any_line_has(lines: &[Vec<Token>], pat: &str) -> bool {
        let pat = pattern(pat);
        lines.iter().any(|l| {
            l.windows(pat.len())
                .any(|w| w.iter().map(|t| &t.tok).eq(&pat))
        })
    }

    #[test]
    fn stripping_blanks_comments_strings_and_chars_but_not_lifetimes() {
        let src = "let a = \"env::var\"; // env::var\nfn f<'a>(x: &'a str) { let c = 'x'; }\n";
        let lines = code_lines(src);
        assert!(!any_line_has(&lines, "env::var"));
        assert!(any_line_has(&lines, "fn f<'a>(x: &'a str)"));
        assert_eq!(lines[1][3].tok, Tok::Life("a".into()));
        assert_eq!(lines.len(), src.lines().count());
    }

    #[test]
    fn stripping_handles_raw_strings_and_nested_block_comments() {
        let src = "let p = r#\"std::sync::Mutex\"#; /* outer /* std::sync::Mutex */ still */ let q = 1;\n";
        let lines = code_lines(src);
        assert!(!lines[0]
            .iter()
            .any(|t| t.is_ident("Mutex") || t.is_ident("still")));
        assert!(any_line_has(&lines, "let q = 1;"));
        // A multi-line literal keeps later tokens on their own lines.
        let lines = code_lines("let s = \"a\nb\";\nlet t = Instant::now();\n");
        assert!(lines[2].iter().any(|t| t.is_ident("Instant")));
    }

    #[test]
    fn env_var_flagged_outside_allowlist_only() {
        let bad = "fn f() { let v = std::env::var(\"X\"); }\n";
        assert_eq!(
            lint_source("crates/core/src/engine.rs", bad)
                .violations
                .len(),
            1
        );
        assert!(lint_source("crates/core/src/config.rs", bad).is_clean());
        assert!(lint_source("crates/store/src/envknob.rs", bad).is_clean());
    }

    #[test]
    fn store_unwrap_skips_test_modules() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   }\n";
        let r = lint_source("crates/store/src/db.rs", src);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].line, 1);
    }

    #[test]
    fn waiver_suppresses_within_window_and_stale_waivers_are_flagged() {
        let waived = "// lint: allow(store-unwrap)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let r = lint_source("crates/store/src/db.rs", waived);
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.waivers_used.len(), 1);

        let stale = "// lint: allow(store-unwrap)\nfn f() {}\n";
        let r = lint_source("crates/store/src/db.rs", stale);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("stale"));

        let unknown = "// lint: allow(no-such-rule)\n";
        let r = lint_source("crates/store/src/db.rs", unknown);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("unknown rule"));

        // Externally-owned rules pass through without stale-tracking.
        let external = "// lint: allow(panic-path)\nfn f() {}\n";
        assert!(lint_source("crates/store/src/db.rs", external).is_clean());
    }

    #[test]
    fn std_sync_scope_covers_parallel_but_not_model() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(
            lint_source("crates/crowd/src/parallel.rs", src)
                .violations
                .len(),
            1
        );
        assert!(lint_source("crates/crowd/src/model.rs", src).is_clean());
        assert_eq!(
            lint_source("crates/store/src/db.rs", src).violations.len(),
            1
        );
        // The server's session/engine locks must go through the shim too.
        assert_eq!(
            lint_source("crates/server/src/queue.rs", src)
                .violations
                .len(),
            1
        );
        // Since PR 9 the scope is every crate (minus model.rs).
        for rel in [
            "crates/quality/src/metric.rs",
            "crates/strategy/src/lib.rs",
            "crates/model/src/delicious.rs",
            "crates/crowd/src/behavior.rs",
        ] {
            assert_eq!(lint_source(rel, src).violations.len(), 1, "{rel}");
        }
        // Arc and atomics are fine everywhere.
        assert!(lint_source("crates/store/src/db.rs", "use std::sync::Arc;\n").is_clean());
    }

    #[test]
    fn determinism_fence_catches_clock_reads_and_unbalanced_fences() {
        let src =
            "// lint: determinism\nlet t = std::time::Instant::now();\n// lint: end determinism\n";
        let r = lint_source("crates/crowd/src/parallel.rs", src);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].line, 2);

        let outside = "let t = std::time::Instant::now();\n";
        assert!(lint_source("crates/crowd/src/parallel.rs", outside).is_clean());

        let unclosed = "// lint: determinism\nfn f() {}\n";
        let r = lint_source("crates/crowd/src/parallel.rs", unclosed);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("never closed"));
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        // The tier-1 gate also lives in tests/lint_clean.rs; this copy
        // keeps `cargo test -p itag --lib` self-contained.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let report = run(root);
        assert!(
            report.is_clean(),
            "repo lint violations:\n{}",
            report
                .violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.files_scanned > 40, "walk found too few files");
    }
}
