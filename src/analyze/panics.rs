//! Panic-reachability: no panic source may be transitively reachable
//! from the store's commit/recovery entry points or the server's
//! session-dispatch entry points, unless the containing function
//! carries a reviewed, budgeted `// lint: allow(panic-path)` waiver.
//!
//! Roots ([`ROOTS`]): `Store::commit`, `Store::open` (recovery),
//! `serve_session` (the per-connection dispatch loop) and
//! `apply_in_process` (its loopback twin). A missing root is itself a
//! violation — renaming an entry point must update this list.
//!
//! Panic sources: `panic!`/`unreachable!`/`todo!`/`unimplemented!`
//! macros and `.unwrap()`/`.expect()` everywhere under `crates/`;
//! index/slice expressions only in the store and server crates (the
//! durability and wire paths, where an out-of-bounds is a torn-state
//! hazard rather than a plain bug). `src/` (this analyzer and the CLI)
//! is not a serving path and is out of scope.
//!
//! Waivers are *function-granular*: `// lint: allow(panic-path)` within
//! the three lines above a `fn` waives every source inside that one
//! function — the call-graph generalization of the old per-line waiver
//! window. The budget ([`BUDGET`]) counts waived functions that are
//! actually reached; a waiver on an unreached or panic-free function is
//! stale and flagged.

use std::collections::HashMap;
use std::path::Path;

use super::callgraph::Workspace;
use super::AnalysisPart;
use crate::lint::Violation;

pub const RULE: &str = "panic-path";

/// Entry points: (owner, fn name, what it anchors).
pub const ROOTS: &[(Option<&str>, &str, &str)] = &[
    (Some("Store"), "commit", "store commit path"),
    (Some("Store"), "open", "store recovery path"),
    (None, "serve_session", "server session dispatch"),
    (None, "apply_in_process", "loopback session dispatch"),
];

/// Repo-wide budget of waived *functions* on panic-reachable paths.
/// Raising it is a reviewed change to this file.
pub const BUDGET: usize = 28;

/// Files whose index/slice expressions count as panic sources.
fn index_in_scope(file: &str) -> bool {
    file.starts_with("crates/store/src/") || file.starts_with("crates/server/src/")
}

fn fn_in_scope(file: &str) -> bool {
    file.starts_with("crates/")
}

/// Scans raw file text for `// lint: allow(panic-path)` lines.
/// (The lexer drops comments, so waivers are collected separately.)
pub fn waiver_lines(content: &str) -> Vec<usize> {
    content
        .lines()
        .enumerate()
        .filter_map(|(idx, raw)| {
            let t = raw.trim_start();
            let rest = t.strip_prefix("// lint: ")?.trim_end();
            (rest == "allow(panic-path)").then_some(idx + 1)
        })
        .collect()
}

/// How many lines above the `fn` keyword a waiver comment may sit
/// (room for doc comments / attributes in between).
const WAIVER_REACH: usize = 3;

pub fn check(root: &Path, ws: &Workspace) -> AnalysisPart {
    let mut part = AnalysisPart::new("panic-reachability");

    // Waiver lines per file (read raw text once per relevant file).
    let mut waivers: HashMap<String, Vec<(usize, bool)>> = HashMap::new();
    for pf in &ws.files {
        if !fn_in_scope(&pf.rel) {
            continue;
        }
        if let Ok(content) = std::fs::read_to_string(root.join(&pf.rel)) {
            let lines = waiver_lines(&content);
            if !lines.is_empty() {
                waivers.insert(
                    pf.rel.clone(),
                    lines.into_iter().map(|l| (l, false)).collect(),
                );
            }
        }
    }
    // A fn is waived if a waiver line sits within WAIVER_REACH lines
    // above its `fn` line.
    let mut fn_waived: HashMap<usize, (String, usize)> = HashMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if let Some(lines) = waivers.get_mut(&f.file) {
            for (l, used) in lines.iter_mut() {
                if *l <= f.item.line && f.item.line.saturating_sub(*l) <= WAIVER_REACH {
                    *used = true;
                    fn_waived.insert(i, (f.file.clone(), *l));
                }
            }
        }
    }

    // Roots.
    let mut roots = Vec::new();
    for (owner, name, what) in ROOTS {
        let found = ws.find(*owner, name);
        let found: Vec<usize> = found
            .into_iter()
            .filter(|&i| !ws.fns[i].item.in_test && fn_in_scope(&ws.fns[i].file))
            .collect();
        if found.is_empty() {
            part.violations.push(Violation {
                file: "<workspace>".into(),
                line: 0,
                rule: RULE,
                message: format!(
                    "panic-reachability root `{}{}` ({what}) not found — update ROOTS in src/analyze/panics.rs",
                    owner.map(|o| format!("{o}::")).unwrap_or_default(),
                    name
                ),
            });
        }
        roots.extend(found);
    }

    let parents = ws.reach(&roots, true);

    // Walk reachable fns; collect violations / used waivers.
    let mut reached: Vec<usize> = parents.keys().copied().collect();
    reached.sort_unstable();
    let mut waived_used = 0usize;
    for i in reached {
        let f = &ws.fns[i];
        if !fn_in_scope(&f.file) || f.item.in_test {
            continue;
        }
        let sources: Vec<_> = f
            .facts
            .panics
            .iter()
            .filter(|p| p.kind != super::callgraph::PanicKind::Index || index_in_scope(&f.file))
            .collect();
        if sources.is_empty() {
            continue;
        }
        if let Some((file, line)) = fn_waived.get(&i) {
            waived_used += 1;
            part.waivers.push(format!(
                "{file}:{line}: allow(panic-path) on {} ({} source{})",
                f.qname(),
                sources.len(),
                if sources.len() == 1 { "" } else { "s" }
            ));
            continue;
        }
        let path = ws.path_to(&parents, i).join(" → ");
        for s in &sources {
            part.violations.push(Violation {
                file: f.file.clone(),
                line: s.line,
                rule: RULE,
                message: format!(
                    "{} `{}` reachable from a no-panic root via {path}; \
                     return a typed error or add a reviewed `// lint: allow(panic-path)` above the fn",
                    s.kind.describe(),
                    s.what
                ),
            });
        }
    }

    // Stale waivers: a panic-path waiver line that never attached to a
    // reached, panicking function.
    let attached: std::collections::HashSet<(String, usize)> = fn_waived
        .iter()
        .filter(|(i, _)| {
            parents.contains_key(i) && {
                let f = &ws.fns[**i];
                f.facts.panics.iter().any(|p| {
                    p.kind != super::callgraph::PanicKind::Index || index_in_scope(&f.file)
                })
            }
        })
        .map(|(_, w)| w.clone())
        .collect();
    for (file, lines) in &waivers {
        for (l, _) in lines {
            if !attached.contains(&(file.clone(), *l)) {
                part.violations.push(Violation {
                    file: file.clone(),
                    line: *l,
                    rule: RULE,
                    message: "stale panic-path waiver: no reachable panic source in the fn below"
                        .into(),
                });
            }
        }
    }

    if waived_used > BUDGET {
        part.violations.push(Violation {
            file: "<workspace>".into(),
            line: 0,
            rule: RULE,
            message: format!(
                "{waived_used} panic-path waivers exceed the budget of {BUDGET}; \
                 fix the new site or raise BUDGET in src/analyze/panics.rs (reviewed)"
            ),
        });
    }

    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::callgraph::Workspace;
    use crate::analyze::parse::parse_file;

    fn part_for(srcs: &[(&str, &str)]) -> AnalysisPart {
        // Use a nonexistent root: waiver files are unreadable, so only
        // source-level checks run.
        let ws = Workspace::from_files(srcs.iter().map(|(r, s)| parse_file(r, s)).collect());
        check(Path::new("/nonexistent-analysis-root"), &ws)
    }

    const ROOT_STUBS: &str = "struct Store;\n\
         impl Store { pub fn commit(&self) { commit_inner(); } pub fn open() {} }\n\
         fn serve_session() {}\n\
         fn apply_in_process() {}\n";

    #[test]
    fn transitive_unwrap_is_flagged_with_path() {
        let src = format!("{ROOT_STUBS}fn commit_inner() {{ deep(); }}\nfn deep(o: Option<u8>) {{ o.unwrap(); }}\n");
        let part = part_for(&[("crates/store/src/db.rs", &src)]);
        assert_eq!(part.violations.len(), 1, "{:?}", part.violations);
        let v = &part.violations[0];
        assert!(
            v.message.contains("Store::commit → commit_inner → deep"),
            "{}",
            v.message
        );
    }

    #[test]
    fn unreached_panics_are_not_flagged() {
        let src = format!(
            "{ROOT_STUBS}fn commit_inner() {{}}\nfn orphan(o: Option<u8>) {{ o.unwrap(); }}\n"
        );
        let part = part_for(&[("crates/store/src/db.rs", &src)]);
        assert!(part.violations.is_empty(), "{:?}", part.violations);
    }

    #[test]
    fn index_sources_count_only_in_store_and_server() {
        let core = format!("{ROOT_STUBS}fn commit_inner() {{ helper(); }}\n");
        let helper_core = "pub fn helper(v: &[u8]) { let x = v[0]; }\n";
        let part = part_for(&[
            ("crates/store/src/db.rs", &core),
            ("crates/core/src/util.rs", helper_core),
        ]);
        assert!(part.violations.is_empty(), "{:?}", part.violations);
        let part = part_for(&[
            ("crates/store/src/db.rs", &core),
            ("crates/store/src/util.rs", helper_core),
        ]);
        assert_eq!(part.violations.len(), 1);
    }

    #[test]
    fn missing_root_is_a_violation() {
        let part = part_for(&[("crates/store/src/db.rs", "fn nothing() {}\n")]);
        assert_eq!(part.violations.len(), ROOTS.len());
        assert!(part.violations[0].message.contains("not found"));
    }

    #[test]
    fn waiver_lines_parse() {
        let src = "// lint: allow(panic-path)\n// lint: allow(store-unwrap)\n   // lint: allow(panic-path)\n";
        assert_eq!(waiver_lines(src), vec![1, 3]);
    }
}
