//! Tier-1 gate: the repo-invariant lint must be clean.
//!
//! This is the CI hook for `itag::lint` — the same check `itag-lint`
//! runs from the command line, wired into `cargo test` so a new
//! `env::var` site, a panicking store path, a raw `std::sync` lock in a
//! shimmed crate, or a clock read inside a determinism fence fails the
//! build, not a review.

use std::path::Path;

#[test]
fn repo_invariant_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = itag::lint::run(root);

    assert!(
        report.is_clean(),
        "itag-lint found {} violation(s):\n{}",
        report.violations.len(),
        report
            .violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The waiver list is part of the contract: exactly the one reviewed
    // shard-guard expect in the store's apply path. A waiver appearing
    // or disappearing should be a conscious change, so pin it here.
    let mut waivers: Vec<String> = report
        .waivers_used
        .iter()
        .map(|w| format!("{}:{}", w.file, w.rule))
        .collect();
    waivers.sort();
    assert_eq!(
        waivers,
        vec!["crates/store/src/db.rs:store-unwrap".to_string()],
        "the reviewed waiver list changed — update this test deliberately"
    );
}
