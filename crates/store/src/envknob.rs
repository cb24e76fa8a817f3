//! The store's sanctioned environment reads.
//!
//! The repo lint (`itag-lint`, rule `env-var`) pins this module and
//! `core::config` as the only files allowed to call `std::env::var`.
//!
//! `ITAG_FAULTS` arms the deterministic fault-injection layer (see
//! [`crate::faults`]) with a comma-separated `<site>:<kind>[@<trigger>]`
//! plan. Its posture is strict everywhere: a plan that does not parse
//! panics at [`crate::faults::init_env`] time, because silently running
//! a "fault storm" that injects nothing would be worse than aborting.

/// Parses an `ITAG_FAULTS` value: comma-separated `<site>:<kind>[@<trigger>]`
/// entries, validated against the known fault sites. Unset or empty means
/// no plan.
pub fn parse_faults(
    raw: Option<&str>,
) -> std::result::Result<Vec<(String, crate::faults::FaultSpec)>, String> {
    let Some(raw) = raw else {
        return Ok(Vec::new());
    };
    crate::faults::parse_plan(raw).map_err(|e| format!("ITAG_FAULTS: {e}"))
}

/// Reads and parses `ITAG_FAULTS` from the environment.
pub fn env_fault_plan() -> std::result::Result<Vec<(String, crate::faults::FaultSpec)>, String> {
    parse_faults(std::env::var("ITAG_FAULTS").ok().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_values() {
        use crate::faults::{FaultKind, FaultSpec, Trigger};
        assert_eq!(parse_faults(Some("  ")), Ok(Vec::new()));
        // Every declared site, and every kind/trigger form the grammar
        // documents; empty entries between commas are skipped.
        for site in crate::faults::SITES {
            let plan = parse_faults(Some(&format!("{site}:eio"))).unwrap();
            assert_eq!(
                plan,
                vec![(
                    site.to_string(),
                    FaultSpec::new(FaultKind::Eio, Trigger::Once)
                )]
            );
        }
        let plan = parse_faults(Some(
            "wal.append:enospc@once, ,wal.sync:eintr@every3,snapshot.write:short@after2,\
             checkpoint.stream:crash100,recovery.scan:eio@seeded7x25",
        ))
        .unwrap();
        let specs: Vec<FaultSpec> = plan.into_iter().map(|(_, s)| s).collect();
        assert_eq!(
            specs,
            vec![
                FaultSpec::new(FaultKind::Enospc, Trigger::Once),
                FaultSpec::new(FaultKind::Eintr, Trigger::Every(3)),
                FaultSpec::new(FaultKind::Short, Trigger::After(2)),
                FaultSpec::new(FaultKind::Crash(100), Trigger::Once),
                FaultSpec::new(FaultKind::Eio, Trigger::Seeded { seed: 7, pct: 25 }),
            ]
        );
    }

    #[test]
    fn parse_rejects_garbage_with_the_variable_name() {
        for bad in [
            "yes",
            "wal.sync:",
            "wal.sync:crash",
            "wal.sync:eio@seeded7x101",
        ] {
            let err = parse_faults(Some(bad)).unwrap_err();
            assert!(err.starts_with("ITAG_FAULTS: "), "{err}");
        }
    }

    #[test]
    fn parse_faults_is_strict_and_names_the_variable() {
        assert!(parse_faults(None).unwrap().is_empty());
        assert!(parse_faults(Some("")).unwrap().is_empty());
        let plan = parse_faults(Some("wal.append:eio@nth2,wal.sync:enospc")).unwrap();
        assert_eq!(plan.len(), 2);
        for bad in [
            "wal.append",
            "nope:eio",
            "wal.append:zap",
            "wal.append:eio@weird",
        ] {
            let err = parse_faults(Some(bad)).unwrap_err();
            assert!(err.contains("ITAG_FAULTS"), "{err}");
        }
    }
}
