//! Tier-1 gate: the four call-graph analyses must be clean on the repo.
//!
//! The CI hook for `itag::analyze` — panic-reachability, serbin schema
//! drift, static lock-order, and fault-site coverage all run exactly as
//! `itag-lint all` does, so a panic sneaking into a commit path, a
//! reordered wire enum, an unsanctioned lock order, or unguarded
//! durability I/O fails `cargo test`, not a review.
//!
//! After a reviewed schema change, re-bless the lock with
//! `ITAG_BLESS=1 cargo test --test analysis_gate` (or
//! `itag-lint schema --bless`) and commit the new `schema.lock`.

use std::collections::BTreeMap;
use std::path::Path;

#[test]
fn repo_passes_all_static_analyses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bless = std::env::var("ITAG_BLESS").as_deref() == Ok("1");
    let report = itag::analyze::run_all(root, bless);

    assert!(
        report.is_clean(),
        "static analysis found violation(s):\n{}",
        report
            .violations()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Sanity: the parser actually saw the workspace (an empty walk
    // would be vacuously clean).
    assert!(
        report.files_parsed > 50,
        "only {} files parsed",
        report.files_parsed
    );
    assert!(
        report.fns_analyzed > 800,
        "only {} fns analyzed",
        report.fns_analyzed
    );
}

#[test]
fn panic_path_waivers_are_pinned() {
    // The reviewed waiver surface is part of the contract: one entry
    // per function, pinned here per file so a new waiver (or a stale
    // one disappearing) is a conscious diff to this test.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ws = itag::analyze::Workspace::load(root);
    let part = itag::analyze::panics::check(root, &ws);
    assert!(part.is_clean(), "{:?}", part.violations);

    let mut per_file: BTreeMap<String, usize> = BTreeMap::new();
    for w in &part.waivers {
        let file = w.split(':').next().unwrap_or("?").to_string();
        *per_file.entry(file).or_default() += 1;
    }
    let got: Vec<(String, usize)> = per_file.into_iter().collect();
    let want: Vec<(String, usize)> = [
        ("crates/core/src/export.rs", 1),
        ("crates/crowd/src/audience.rs", 1),
        ("crates/crowd/src/parallel.rs", 1),
        ("crates/crowd/src/payment.rs", 2),
        ("crates/crowd/src/platform.rs", 2),
        ("crates/model/src/vocab.rs", 2),
        ("crates/model/src/zipf.rs", 2),
        ("crates/quality/src/metric.rs", 1),
        ("crates/quality/src/rfd.rs", 1),
        ("crates/server/src/frame.rs", 1),
        ("crates/store/src/codec.rs", 2),
        ("crates/store/src/db.rs", 8),
        ("crates/store/src/faults.rs", 2),
        ("crates/store/src/wal.rs", 1),
        ("crates/strategy/src/fc.rs", 1),
    ]
    .into_iter()
    .map(|(f, n)| (f.to_string(), n))
    .collect();
    assert_eq!(
        got, want,
        "the reviewed panic-path waiver set changed — update this test \
         (and the BUDGET in src/analyze/panics.rs) deliberately"
    );
}

#[test]
fn schema_lock_is_committed_and_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lock = itag::analyze::lock_path(root);
    assert!(
        lock.exists(),
        "schema.lock missing — run `itag-lint schema --bless` and commit it"
    );
    let ws = itag::analyze::Workspace::load(root);
    let part = itag::analyze::schema::check(root, &ws.files, &lock, false);
    assert!(part.is_clean(), "{:?}", part.violations);
}
