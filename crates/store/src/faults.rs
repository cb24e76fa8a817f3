//! Deterministic fault injection for the storage and serving layers.
//!
//! A **fault site** is a named point in the I/O path (`wal.append`,
//! `server.accept`, ...) that can be armed with a [`FaultSpec`]: a fault
//! *kind* (what goes wrong) plus a *trigger* (when it goes wrong). Sites
//! are polled at two layers:
//!
//! * the **call layer** — [`check_io`] at the entry of the guarded
//!   operation; this is where whole-operation errors (`ENOSPC`, `EIO`)
//!   fire, and where every non-file site (recovery, server accept,
//!   session writes) is polled;
//! * the **file layer** — [`FaultFile`], a `std::fs::File` wrapper that
//!   injects `EINTR`, short writes, and crash-at-byte-offset (silently
//!   swallowed writes, simulating power loss) into the byte stream, and
//!   routes `sync_data`/`sync_all` failures through the call layer of a
//!   separate sync site.
//!
//! A kind only ever fires at its own layer, and a poll at the *other*
//! layer does not consume a trigger hit — so `wal.append:short@once`
//! fires at the first buffered byte write even though `Wal::append` also
//! polls the same site at its entry.
//!
//! Arming is either programmatic ([`arm`], returning a guard that
//! restores the previous plan on drop) or environmental (`ITAG_FAULTS`,
//! parsed strictly via [`crate::envknob::parse_faults`] and installed
//! once per process by [`init_env`]). Everything is deterministic: the
//! only randomness is a seeded splitmix64 stream owned by the
//! [`Trigger::Seeded`] variant.
//!
//! ## Test isolation
//!
//! The armed plan is **process-global**. A test that arms faults affects
//! every store and server in the same process, so fault-arming tests
//! must live in dedicated test binaries (`fault_torture`,
//! `wal_fault_sweep`, `server_faults`, ...) where *every* test arms (the
//! [`ArmedFaults`] guard serializes armers against each other).
//!
//! ## Cost when disarmed / compiled out
//!
//! With the `faults` feature on but nothing armed, every poll is one
//! relaxed atomic load. With the feature off (`--no-default-features`),
//! [`check_io`] is an inlined `Ok(())`, [`FaultFile`] is a transparent
//! delegating wrapper, and the registry does not exist — mirroring the
//! `lockcheck` pattern in the `parking_lot` shim.

use std::io;

// ---------------------------------------------------------------------------
// Site names — the single source of truth; storage and serving layers
// import these constants rather than repeating the strings.
// ---------------------------------------------------------------------------

/// WAL frame append (call layer) and the WAL file's byte stream (file layer).
pub const WAL_APPEND: &str = "wal.append";
/// WAL flush + fsync.
pub const WAL_SYNC: &str = "wal.sync";
/// Reference snapshot writer (`snapshot::write`).
pub const SNAPSHOT_WRITE: &str = "snapshot.write";
/// Streaming checkpoint writer (`snapshot::SnapshotWriter`).
pub const CHECKPOINT_STREAM: &str = "checkpoint.stream";
/// Recovery-time reads: WAL scan and snapshot load.
pub const RECOVERY_SCAN: &str = "recovery.scan";
/// Server accept loop (a fired fault drops the fresh connection).
pub const SERVER_ACCEPT: &str = "server.accept";
/// Server response writes (a fired fault drops the session).
pub const SERVER_SESSION_WRITE: &str = "server.session_write";

/// Every site the stack declares, for validation of parsed plans.
pub const SITES: &[&str] = &[
    WAL_APPEND,
    WAL_SYNC,
    SNAPSHOT_WRITE,
    CHECKPOINT_STREAM,
    RECOVERY_SCAN,
    SERVER_ACCEPT,
    SERVER_SESSION_WRITE,
];

// ---------------------------------------------------------------------------
// Specs: kind + trigger. These types exist regardless of the feature so
// parsing and plan construction compile everywhere.
// ---------------------------------------------------------------------------

/// What goes wrong when the trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC` (os error 28) from the whole operation. Call layer.
    Enospc,
    /// `EIO` (os error 5) from the whole operation. Call layer.
    Eio,
    /// `EINTR` (os error 4) from one `write`. File layer; absorbed by
    /// `write_all`/`BufWriter` retry loops, so it exercises the retry
    /// machinery rather than failing the operation.
    Eintr,
    /// A short write: half the buffer is written and reported. File
    /// layer; also absorbed by retry loops (a 1-byte buffer shortens to
    /// zero and surfaces as `WriteZero`).
    Short,
    /// Power-loss simulation: every byte past the given cumulative file
    /// offset is silently swallowed (reported as written, never hits the
    /// disk), including later flushes and drop-time writes. The trigger
    /// is ignored — the offset *is* the trigger. File layer.
    Crash(u64),
}

impl FaultKind {
    #[cfg_attr(not(feature = "faults"), allow(dead_code))]
    fn is_call_layer(self) -> bool {
        matches!(self, FaultKind::Enospc | FaultKind::Eio)
    }
}

/// When the fault fires, counted in qualifying polls at the kind's layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fires on the first poll only.
    Once,
    /// Fires on the K-th poll only (1-based).
    Nth(u64),
    /// Fires on every N-th poll.
    Every(u64),
    /// Passes the first K polls, then fires on every poll.
    After(u64),
    /// Fires on each poll with probability `pct`/100, drawn from a
    /// splitmix64 stream seeded with `seed` — deterministic across runs.
    Seeded { seed: u64, pct: u8 },
}

/// One armed fault: kind + trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub kind: FaultKind,
    pub trigger: Trigger,
}

impl FaultSpec {
    pub fn new(kind: FaultKind, trigger: Trigger) -> Self {
        FaultSpec { kind, trigger }
    }

    /// Parses the `<kind>[@<trigger>]` half of the `ITAG_FAULTS` grammar,
    /// e.g. `eio@nth3`, `enospc`, `short@every2`, `crash100`,
    /// `eio@seeded7x25`. A missing trigger means `once`.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let (kind_s, trig_s) = match s.split_once('@') {
            Some((k, t)) => (k, Some(t)),
            None => (s, None),
        };
        let kind = match kind_s {
            "enospc" => FaultKind::Enospc,
            "eio" => FaultKind::Eio,
            "eintr" => FaultKind::Eintr,
            "short" => FaultKind::Short,
            _ => {
                if let Some(off) = kind_s.strip_prefix("crash") {
                    let off: u64 = off.parse().map_err(|_| {
                        format!("fault kind {kind_s:?}: crash needs a byte offset (crash<N>)")
                    })?;
                    FaultKind::Crash(off)
                } else {
                    return Err(format!(
                        "unknown fault kind {kind_s:?} (expected enospc/eio/eintr/short/crash<N>)"
                    ));
                }
            }
        };
        let trigger = match trig_s {
            None => Trigger::Once,
            Some("once") => Trigger::Once,
            Some(t) => {
                if let Some(k) = t.strip_prefix("nth") {
                    Trigger::Nth(parse_num(t, k)?)
                } else if let Some(n) = t.strip_prefix("every") {
                    Trigger::Every(parse_num(t, n)?)
                } else if let Some(k) = t.strip_prefix("after") {
                    Trigger::After(parse_num(t, k)?)
                } else if let Some(rest) = t.strip_prefix("seeded") {
                    let (seed_s, pct_s) = rest.split_once('x').ok_or_else(|| {
                        format!("fault trigger {t:?}: seeded wants seeded<SEED>x<PCT>")
                    })?;
                    let seed = parse_num(t, seed_s)?;
                    let pct = parse_num(t, pct_s)? as u8;
                    if pct > 100 {
                        return Err(format!("fault trigger {t:?}: percentage above 100"));
                    }
                    Trigger::Seeded { seed, pct }
                } else {
                    return Err(format!(
                        "unknown fault trigger {t:?} \
                         (expected once/nth<K>/every<N>/after<K>/seeded<S>x<P>)"
                    ));
                }
            }
        };
        Ok(FaultSpec { kind, trigger })
    }
}

fn parse_num(ctx: &str, s: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("fault trigger {ctx:?}: {s:?} is not a number"))
}

/// Parses the full `ITAG_FAULTS` grammar: `<site>:<spec>` entries
/// separated by commas, where `<spec>` is `<kind>[@<trigger>]`. Site
/// names are validated against [`SITES`]. Empty input means no plan.
pub fn parse_plan(raw: &str) -> Result<Vec<(String, FaultSpec)>, String> {
    let mut entries = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, spec_s) = part
            .split_once(':')
            .ok_or_else(|| format!("fault entry {part:?}: expected <site>:<kind>[@<trigger>]"))?;
        if !SITES.contains(&site) {
            return Err(format!(
                "unknown fault site {site:?} (known: {})",
                SITES.join(", ")
            ));
        }
        let spec = FaultSpec::parse(spec_s)?;
        entries.push((site.to_string(), spec));
    }
    Ok(entries)
}

/// A programmatic plan for [`arm`]: sites paired with specs, built with
/// the fluent [`FaultPlan::site`] or parsed via [`FaultPlan::parse`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(String, FaultSpec)>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms `site` with `spec` (replacing an earlier entry for the site).
    pub fn site(mut self, site: &str, spec: FaultSpec) -> Self {
        self.entries.retain(|(s, _)| s != site);
        self.entries.push((site.to_string(), spec));
        self
    }

    /// Parses the same grammar as `ITAG_FAULTS`.
    pub fn parse(raw: &str) -> Result<FaultPlan, String> {
        Ok(FaultPlan {
            entries: parse_plan(raw)?,
        })
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Splitmix64 — the workspace's stock deterministic bit mixer.
#[cfg_attr(not(feature = "faults"), allow(dead_code))]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Live machinery (feature = "faults").
// ---------------------------------------------------------------------------

#[cfg(feature = "faults")]
mod live {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Fast gate: true while any plan (env or programmatic) is armed.
    /// With this false, a poll is one relaxed load and nothing else.
    static ACTIVE: AtomicBool = AtomicBool::new(false);

    /// Serializes [`arm`] holders: a second armer blocks until the first
    /// guard drops. Deliberately not a lock so no guard is held across
    /// the workload (which would trip lockcheck's fsync probe).
    static ARM_HELD: AtomicBool = AtomicBool::new(false);

    /// The armed plan. Unnamed (lockcheck-untracked) on purpose: polls
    /// happen under storage locks and the registry lock is leaf-only.
    static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

    /// The env-armed base plan, restored when an [`ArmedFaults`] drops.
    static ENV_PLAN: Mutex<Option<Vec<(String, FaultSpec)>>> = Mutex::new(None);

    #[derive(Default)]
    pub(super) struct Registry {
        sites: HashMap<String, SiteState>,
    }

    struct SiteState {
        spec: FaultSpec,
        /// Qualifying polls at the spec's own layer.
        polls: u64,
        fired: u64,
        /// Seeded-trigger stream state.
        rng: u64,
        /// Cumulative file-layer bytes seen (crash offsets count these).
        bytes: u64,
    }

    impl SiteState {
        fn new(spec: FaultSpec) -> Self {
            let rng = match spec.trigger {
                Trigger::Seeded { seed, .. } => seed,
                _ => 0,
            };
            SiteState {
                spec,
                polls: 0,
                fired: 0,
                rng,
                bytes: 0,
            }
        }

        /// Counts one qualifying poll and decides whether to fire.
        fn fire(&mut self) -> bool {
            self.polls += 1;
            let hit = match self.spec.trigger {
                Trigger::Once => self.polls == 1,
                Trigger::Nth(k) => self.polls == k,
                Trigger::Every(n) => n > 0 && self.polls.is_multiple_of(n),
                Trigger::After(k) => self.polls > k,
                Trigger::Seeded { pct, .. } => (splitmix64(&mut self.rng) >> 33) % 100 < pct as u64,
            };
            if hit {
                self.fired += 1;
            }
            hit
        }
    }

    pub(super) fn install(entries: &[(String, FaultSpec)]) {
        let mut reg = REGISTRY.lock();
        let mut sites = HashMap::new();
        for (site, spec) in entries {
            sites.insert(site.clone(), SiteState::new(*spec));
        }
        let any = !sites.is_empty();
        *reg = Some(Registry { sites });
        ACTIVE.store(any, Ordering::SeqCst);
    }

    pub(super) fn check_io_impl(site: &str) -> io::Result<()> {
        if !ACTIVE.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut reg = REGISTRY.lock();
        let Some(reg) = reg.as_mut() else {
            return Ok(());
        };
        let Some(st) = reg.sites.get_mut(site) else {
            return Ok(());
        };
        let errno = match st.spec.kind {
            FaultKind::Enospc => 28,
            FaultKind::Eio => 5,
            // File-layer kinds are not consumed by call-layer polls.
            _ => return Ok(()),
        };
        if st.fire() {
            Err(io::Error::from_raw_os_error(errno))
        } else {
            Ok(())
        }
    }

    /// File-layer decision for one `write(buf)`: how many bytes to pass
    /// through to the real file, and what to report to the caller.
    pub(super) enum WriteDecision {
        /// Write everything, report the real result.
        Pass,
        /// Report `Err(EINTR)` without writing.
        Eintr,
        /// Write only `keep` bytes and report `Ok(keep)`.
        Short { keep: usize },
        /// Write only `keep` bytes but report the full length as
        /// written (power already lost past the crash offset).
        Swallow { keep: usize },
    }

    pub(super) fn file_write_decision(site: &str, len: usize) -> WriteDecision {
        if !ACTIVE.load(Ordering::Relaxed) {
            return WriteDecision::Pass;
        }
        let mut reg = REGISTRY.lock();
        let Some(reg) = reg.as_mut() else {
            return WriteDecision::Pass;
        };
        let Some(st) = reg.sites.get_mut(site) else {
            return WriteDecision::Pass;
        };
        if st.spec.kind.is_call_layer() {
            return WriteDecision::Pass;
        }
        match st.spec.kind {
            FaultKind::Crash(offset) => {
                let before = st.bytes;
                st.bytes += len as u64;
                if before >= offset {
                    WriteDecision::Swallow { keep: 0 }
                } else if st.bytes > offset {
                    // This write crosses the crash point.
                    st.fired += 1;
                    WriteDecision::Swallow {
                        keep: (offset - before) as usize,
                    }
                } else {
                    WriteDecision::Pass
                }
            }
            FaultKind::Eintr => {
                if st.fire() {
                    WriteDecision::Eintr
                } else {
                    st.bytes += len as u64;
                    WriteDecision::Pass
                }
            }
            FaultKind::Short => {
                if st.fire() {
                    // Never shorten to zero: `Ok(0)` from `write` means
                    // "pipe closed" and turns retry loops into
                    // `WriteZero` errors instead of exercising them.
                    let keep = (len / 2).max(1);
                    st.bytes += keep as u64;
                    WriteDecision::Short { keep }
                } else {
                    st.bytes += len as u64;
                    WriteDecision::Pass
                }
            }
            FaultKind::Enospc | FaultKind::Eio => WriteDecision::Pass,
        }
    }

    pub(super) fn fired_impl(site: &str) -> u64 {
        REGISTRY
            .lock()
            .as_ref()
            .and_then(|r| r.sites.get(site))
            .map(|s| s.fired)
            .unwrap_or(0)
    }

    // lint: allow(panic-path)
    pub(super) fn init_env_impl() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let entries = match crate::envknob::env_fault_plan() {
                Ok(entries) => entries,
                // Strict posture: an unparseable plan aborts rather than
                // silently testing nothing.
                Err(e) => panic!("{e}"),
            };
            if !entries.is_empty() {
                install(&entries);
            }
            *ENV_PLAN.lock() = Some(entries);
        });
    }

    pub(super) fn arm_impl(plan: &FaultPlan) -> ArmedFaults {
        init_env_impl();
        while ARM_HELD
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::thread::yield_now();
        }
        install(&plan.entries);
        ArmedFaults { _priv: () }
    }

    pub(super) fn disarm_impl() {
        let env = ENV_PLAN.lock().clone().unwrap_or_default();
        install(&env);
        ARM_HELD.store(false, Ordering::Release);
    }
}

/// Guard returned by [`arm`]. While alive it owns the process-global
/// plan; dropping it restores the `ITAG_FAULTS` base plan (or nothing)
/// and lets the next armer in.
#[must_use = "faults are disarmed when the guard drops"]
pub struct ArmedFaults {
    #[allow(dead_code)]
    _priv: (),
}

impl ArmedFaults {
    /// Times the armed plan actually fired at `site` so far.
    pub fn fired(&self, site: &str) -> u64 {
        fired(site)
    }

    /// Replaces the armed plan without letting go of the guard; fire
    /// counts start over. A test that has fault-free phases (set-up,
    /// twin replays) arms an empty plan first and swaps plans under the
    /// held guard, so no other test's plan can fire inside those phases.
    #[cfg(feature = "faults")]
    pub fn rearm(&mut self, plan: &FaultPlan) {
        live::install(&plan.entries);
    }
}

#[cfg(feature = "faults")]
impl Drop for ArmedFaults {
    fn drop(&mut self) {
        live::disarm_impl();
    }
}

// ---------------------------------------------------------------------------
// Public polls — real with the feature on, inert without it.
// ---------------------------------------------------------------------------

/// True when the crate was built with fault injection compiled in.
pub fn compiled_in() -> bool {
    cfg!(feature = "faults")
}

/// Call-layer poll: returns the injected error when `site` is armed with
/// a call-layer kind whose trigger fires.
#[cfg(feature = "faults")]
#[inline]
pub fn check_io(site: &str) -> io::Result<()> {
    live::check_io_impl(site)
}

/// Call-layer poll (fault injection compiled out — always `Ok`).
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn check_io(_site: &str) -> io::Result<()> {
    Ok(())
}

/// Parses `ITAG_FAULTS` once per process and installs it as the base
/// plan. Called from `Store` construction and by [`arm`]; panics on an
/// unparseable plan, and (without the `faults` feature) on any non-empty
/// plan — silently ignoring a requested fault storm would be worse.
#[cfg(feature = "faults")]
pub fn init_env() {
    live::init_env_impl();
}

/// See the feature-on twin.
#[cfg(not(feature = "faults"))]
// lint: allow(panic-path)
pub fn init_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| match crate::envknob::env_fault_plan() {
        Ok(entries) if entries.is_empty() => {}
        Ok(_) => panic!("ITAG_FAULTS is set but itag-store was built without the `faults` feature"),
        Err(e) => panic!("{e}"),
    });
}

/// Installs `plan` as the process-global fault plan, serializing against
/// other armers. See the module docs for the test-isolation rules.
#[cfg(feature = "faults")]
pub fn arm(plan: &FaultPlan) -> ArmedFaults {
    live::arm_impl(plan)
}

/// Arming stub: without the `faults` feature a non-empty plan panics
/// (the caller asked for faults that cannot fire).
#[cfg(not(feature = "faults"))]
pub fn arm(plan: &FaultPlan) -> ArmedFaults {
    assert!(
        plan.is_empty(),
        "itag-store was built without the `faults` feature; cannot arm a fault plan"
    );
    ArmedFaults { _priv: () }
}

/// Times the armed plan fired at `site` (0 when nothing is armed).
#[cfg(feature = "faults")]
pub fn fired(site: &str) -> u64 {
    live::fired_impl(site)
}

/// See the feature-on twin.
#[cfg(not(feature = "faults"))]
pub fn fired(_site: &str) -> u64 {
    0
}

// ---------------------------------------------------------------------------
// FaultFile — the faulty `File` wrapper.
// ---------------------------------------------------------------------------

/// Wraps a `std::fs::File`, injecting file-layer faults armed at
/// `write_site` into the write path and call-layer faults armed at
/// `sync_site` into `sync_data`/`sync_all`. With the `faults` feature
/// off this is a transparent delegating wrapper.
pub struct FaultFile {
    inner: std::fs::File,
    #[cfg_attr(not(feature = "faults"), allow(dead_code))]
    write_site: &'static str,
    sync_site: &'static str,
}

impl FaultFile {
    /// Wraps `inner`; sync faults default to the same site as writes.
    pub fn new(inner: std::fs::File, write_site: &'static str) -> Self {
        FaultFile {
            inner,
            write_site,
            sync_site: write_site,
        }
    }

    /// Routes `sync_data`/`sync_all` polls to a separate site (the WAL
    /// uses `wal.append` for bytes and `wal.sync` for fsync).
    pub fn with_sync_site(mut self, sync_site: &'static str) -> Self {
        self.sync_site = sync_site;
        self
    }

    pub fn sync_data(&self) -> io::Result<()> {
        check_io(self.sync_site)?;
        self.inner.sync_data()
    }

    pub fn sync_all(&self) -> io::Result<()> {
        check_io(self.sync_site)?;
        self.inner.sync_all()
    }

    pub fn set_len(&self, size: u64) -> io::Result<()> {
        self.inner.set_len(size)
    }

    pub fn get_ref(&self) -> &std::fs::File {
        &self.inner
    }
}

impl io::Write for FaultFile {
    #[cfg(feature = "faults")]
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        use live::WriteDecision;
        match live::file_write_decision(self.write_site, buf.len()) {
            WriteDecision::Pass => self.inner.write(buf),
            WriteDecision::Eintr => Err(io::Error::from_raw_os_error(4)),
            WriteDecision::Short { keep } => {
                self.inner.write_all(&buf[..keep])?;
                Ok(keep)
            }
            WriteDecision::Swallow { keep } => {
                self.inner.write_all(&buf[..keep])?;
                Ok(buf.len())
            }
        }
    }

    #[cfg(not(feature = "faults"))]
    #[inline(always)]
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl io::Seek for FaultFile {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_roundtrips() {
        assert_eq!(
            FaultSpec::parse("eio").unwrap(),
            FaultSpec::new(FaultKind::Eio, Trigger::Once)
        );
        assert_eq!(
            FaultSpec::parse("enospc@nth3").unwrap(),
            FaultSpec::new(FaultKind::Enospc, Trigger::Nth(3))
        );
        assert_eq!(
            FaultSpec::parse("short@every2").unwrap(),
            FaultSpec::new(FaultKind::Short, Trigger::Every(2))
        );
        assert_eq!(
            FaultSpec::parse("eintr@after5").unwrap(),
            FaultSpec::new(FaultKind::Eintr, Trigger::After(5))
        );
        assert_eq!(
            FaultSpec::parse("crash1024").unwrap(),
            FaultSpec::new(FaultKind::Crash(1024), Trigger::Once)
        );
        assert_eq!(
            FaultSpec::parse("eio@seeded7x25").unwrap(),
            FaultSpec::new(FaultKind::Eio, Trigger::Seeded { seed: 7, pct: 25 })
        );
    }

    #[test]
    fn spec_grammar_rejects_garbage() {
        for bad in [
            "nope",
            "eio@sometimes",
            "crash",
            "crashx",
            "eio@nthx",
            "eio@seeded7",
            "eio@seeded7x200",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn plan_grammar_validates_sites() {
        let plan = parse_plan("wal.append:eio@nth2, wal.sync:enospc").unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].0, WAL_APPEND);
        assert!(parse_plan("").unwrap().is_empty());
        assert!(parse_plan("bogus.site:eio").is_err());
        assert!(parse_plan("wal.append").is_err());
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42;
        let mut b = 42;
        for _ in 0..100 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
    }

    // The lib test binary runs these alongside every other store unit
    // test, so they may only arm the `server.*` sites — the one pair no
    // store code path ever polls. The real storage sites are exercised
    // by the dedicated `fault_torture` / `wal_fault_sweep` binaries.

    #[cfg(feature = "faults")]
    #[test]
    fn arm_guard_fires_and_restores() {
        // Serialized with every other arming test by the guard itself.
        let guard =
            arm(&FaultPlan::new()
                .site(SERVER_ACCEPT, FaultSpec::new(FaultKind::Eio, Trigger::Once)));
        let err = check_io(SERVER_ACCEPT).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        assert_eq!(guard.fired(SERVER_ACCEPT), 1);
        // `once` does not fire twice.
        assert!(check_io(SERVER_ACCEPT).is_ok());
        drop(guard);
        assert!(check_io(SERVER_ACCEPT).is_ok());
        assert_eq!(fired(SERVER_ACCEPT), 0);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn nth_trigger_counts_polls() {
        let site = SERVER_SESSION_WRITE;
        let guard =
            arm(&FaultPlan::new().site(site, FaultSpec::new(FaultKind::Enospc, Trigger::Nth(3))));
        assert!(check_io(site).is_ok());
        assert!(check_io(site).is_ok());
        let err = check_io(site).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert!(check_io(site).is_ok());
        assert_eq!(guard.fired(site), 1);
    }
}
