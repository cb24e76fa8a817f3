//! User Manager — tracks "their approval rate, which is the ratio of
//! providers approving the tags of a given tagger, and on the tagger side,
//! the ratio of taggers approving a provider", and "guarantees that the
//! approval rate of taggers from crowdsourcing platforms are at a reliable
//! level" (Section III-A).
//!
//! Reputation reads come in three flavours, all answering through the same
//! [`reliability_gate`] math:
//!
//! * **live** ([`UserManager::is_reliable`]) — the stored counters, for
//!   reporting;
//! * **snapshot** ([`ReputationSnapshot`]) — a frozen round-start view the
//!   parallel tick reads, immune to the merger committing mid-round;
//! * **ledger** ([`ReputationLedger`]) — the engine-held incremental
//!   structure that *produces* snapshots without rescanning the tagger
//!   table: built from the table once at engine open/recovery, then kept
//!   current by applying each round's already-aggregated per-worker
//!   decision deltas ([`DecisionDeltas`]) as the merger commits them.

use crate::records::{UserRecord, UserRole};
use crate::Result;
use itag_store::codec::FxHashMap;
use itag_store::table::Entity;
use itag_store::{Store, TypedTable, WriteBatch};
use parking_lot::Mutex;
use std::sync::Arc;

/// A point-in-time view of every tagger's received-decision counters,
/// taken at the start of a parallel round. The pipelined tick reads
/// reputation through this snapshot instead of the live tables, so a
/// project that is still ticking can never observe the merger committing
/// an earlier project's decisions — which is what keeps the round
/// deterministic at every thread count and pipeline depth. (It also
/// matches the pre-pipeline behaviour exactly: the tables used to be
/// frozen for the whole round, so a live read *was* a round-start read.)
///
/// The counter map is shared (`Arc`), so taking a snapshot off a
/// [`ReputationLedger`] is O(1) — no scan, no copy. Taggers with zero
/// decided submissions are equivalent to absent entries (the gate treats
/// both as `(0, 0)`), so neither build path materializes them.
#[derive(Debug, Clone)]
pub struct ReputationSnapshot {
    /// `tagger id → (approvals_received, rejections_received)`.
    counters: Arc<FxHashMap<u32, (u32, u32)>>,
    threshold: f64,
    grace: u32,
}

impl ReputationSnapshot {
    /// The reliability gate over the snapshot, with a project's own
    /// in-round decisions layered on top (see
    /// [`UserManager::is_reliable_with`]).
    pub fn is_reliable_with(&self, tagger: u32, extra_approved: u32, extra_rejected: u32) -> bool {
        let (base_approved, base_rejected) = self.counters.get(&tagger).copied().unwrap_or((0, 0));
        reliability_gate(
            self.threshold,
            self.grace,
            base_approved,
            base_rejected,
            extra_approved,
            extra_rejected,
        )
    }
}

/// One project-round's decision effects, aggregated per worker — the exact
/// deltas [`UserManager::stage_round_deltas`] persists and a
/// [`ReputationLedger`] applies. Building it is the parallel half of the
/// round's user accounting (it runs on whichever worker thread staged the
/// project); staging and applying are the serial half (merger thread, in
/// project-id order).
#[derive(Debug, Clone, Default)]
pub struct DecisionDeltas {
    /// `(tagger, approved, rejected, earned_cents)`, ascending tagger id —
    /// a deterministic order, so each record is staged identically no
    /// matter which thread folded the round.
    per_worker: Vec<(u32, u32, u32, u64)>,
    /// Round totals, mirrored onto the provider's given-counters.
    approved_total: u32,
    rejected_total: u32,
}

impl DecisionDeltas {
    /// Folds raw `(worker, approved, pay_cents)` decisions into per-worker
    /// deltas. Counters are additive, so the fold stages the same final
    /// records as the equivalent per-decision staging sequence.
    pub fn from_decisions<I: IntoIterator<Item = (u32, bool, u32)>>(decisions: I) -> Self {
        let mut per_worker: FxHashMap<u32, (u32, u32, u64)> = FxHashMap::default();
        let (mut approved_total, mut rejected_total) = (0u32, 0u32);
        for (worker, approved, pay) in decisions {
            let e = per_worker.entry(worker).or_insert((0, 0, 0));
            if approved {
                e.0 += 1;
                e.2 += pay as u64;
                approved_total += 1;
            } else {
                e.1 += 1;
                rejected_total += 1;
            }
        }
        let mut per_worker: Vec<(u32, u32, u32, u64)> = per_worker
            .into_iter()
            .map(|(w, (a, r, c))| (w, a, r, c))
            .collect();
        per_worker.sort_unstable_by_key(|(w, ..)| *w);
        DecisionDeltas {
            per_worker,
            approved_total,
            rejected_total,
        }
    }

    /// True when the round decided nothing (no worker rows, no provider
    /// row, nothing for a ledger to apply).
    pub fn is_empty(&self) -> bool {
        self.per_worker.is_empty()
    }
}

/// The engine-held incremental reputation structure: every tagger's
/// received-decision counters, built from the tagger table **once** (at
/// engine open, which after a crash is the recovery rebuild) and
/// thereafter maintained by applying [`DecisionDeltas`] instead of
/// rescanning — per-round cost scales with the round's *active* worker
/// set, not the registered population.
///
/// Concurrency contract: [`ReputationLedger::snapshot`] hands out the
/// current counters as a shared `Arc` (the round-start view);
/// [`ReputationLedger::apply`] — called on the merger thread, in
/// project-id order, only for rounds whose commit succeeded — accumulates
/// deltas into a pending overlay without touching the shared map, so
/// outstanding snapshots keep reading the exact round-start state;
/// [`ReputationLedger::fold_pending`] (after the round, snapshots
/// dropped) folds the overlay into the counters in place. Counter deltas
/// commute, so the folded state is independent of apply order, and at
/// every round boundary it equals a fresh scan of the tagger table
/// ([`UserManager::reputation_ledger`]) — the oracle the engine's tests
/// check it against.
#[derive(Debug)]
pub struct ReputationLedger {
    pub(crate) counters: Arc<FxHashMap<u32, (u32, u32)>>,
    /// Deltas applied during the current round, keyed by tagger.
    pending: Mutex<FxHashMap<u32, (u32, u32)>>,
    threshold: f64,
    grace: u32,
}

impl ReputationLedger {
    /// The round-start view: O(1), shares the counter map.
    pub fn snapshot(&self) -> ReputationSnapshot {
        ReputationSnapshot {
            counters: Arc::clone(&self.counters),
            threshold: self.threshold,
            grace: self.grace,
        }
    }

    /// Accumulates one committed round's per-worker deltas into the
    /// pending overlay. Call only after the round's commit succeeded —
    /// the ledger must never run ahead of the durable tagger table.
    pub fn apply(&self, deltas: &DecisionDeltas) {
        if deltas.is_empty() {
            return;
        }
        let mut pending = self.pending.lock();
        for &(worker, approved, rejected, _earned) in &deltas.per_worker {
            let e = pending.entry(worker).or_insert((0, 0));
            e.0 += approved;
            e.1 += rejected;
        }
    }

    /// Folds the pending overlay into the shared counters. Call between
    /// rounds, after every [`ReputationSnapshot`] taken from this ledger
    /// has been dropped — the fold then mutates the map in place
    /// (`Arc::make_mut` finds it uniquely owned). A still-live snapshot
    /// costs a one-off copy but can never see the fold.
    pub fn fold_pending(&mut self) {
        let pending = std::mem::take(self.pending.get_mut());
        if pending.is_empty() {
            return;
        }
        let counters = Arc::make_mut(&mut self.counters);
        for (worker, (approved, rejected)) in pending {
            let e = counters.entry(worker).or_insert((0, 0));
            e.0 += approved;
            e.1 += rejected;
        }
    }

    /// Number of taggers with decided submissions (diagnostics/tests).
    pub fn tracked_taggers(&self) -> usize {
        self.counters.len()
    }
}

/// The gate math shared by live and snapshot reads: approval rate over
/// all decided tasks, after a grace period.
fn reliability_gate(
    threshold: f64,
    grace: u32,
    base_approved: u32,
    base_rejected: u32,
    extra_approved: u32,
    extra_rejected: u32,
) -> bool {
    let approved = base_approved as u64 + extra_approved as u64;
    let decided = approved + base_rejected as u64 + extra_rejected as u64;
    if decided < grace as u64 {
        return true;
    }
    approved as f64 / decided as f64 >= threshold
}

/// Exclusive end bound of role `tag`'s key range: the first key of the
/// next role, or `None` (scan to the end of the table) when `tag` is the
/// maximum value — `tag + 1` would overflow there, and the wrapped bound
/// `(0, 0)` would silently turn the scan into an empty range.
fn role_range_end(tag: u16) -> Option<(u16, u32)> {
    tag.checked_add(1).map(|next| (next, 0u32))
}

/// Profiles + two-sided approval accounting.
///
/// The staged-record overlay (`staged`) provides read-your-own-writes
/// semantics while decisions are staged into a not-yet-committed batch;
/// callers clear it with [`UserManager::clear_staged`] once the batch
/// resolves (committed or abandoned), so it stays bounded by one round's
/// active worker set instead of accumulating every user ever touched.
pub struct UserManager {
    table: TypedTable<UserRecord>,
    staged: Mutex<FxHashMap<(u16, u32), UserRecord>>,
    /// Taggers below this received-approval rate (after a grace period of
    /// decided tasks) are flagged unreliable.
    reliability_threshold: f64,
    /// Decisions before the threshold applies.
    grace_decisions: u32,
}

impl UserManager {
    pub fn new(store: Arc<Store>) -> Self {
        UserManager {
            table: TypedTable::new(store),
            staged: Mutex::named("core.user_mgr.staged", FxHashMap::default()),
            reliability_threshold: 0.5,
            grace_decisions: 5,
        }
    }

    /// Registers a user if absent; returns the stored record. The
    /// get-then-upsert cycle runs under the store's RMW lock (the same
    /// one [`TypedTable::update`] takes), so two concurrent registrations
    /// of the same id serialize: the first writer's record is stored and
    /// every caller gets that exact record back.
    pub fn register(&self, role: UserRole, id: u32, name: &str) -> Result<UserRecord> {
        let _rmw = self.table.store().rmw_guard();
        if let Some(existing) = self.get(role, id)? {
            return Ok(existing);
        }
        let record = UserRecord::new(role, id, name.to_string());
        self.table.upsert(&record)?;
        Ok(record)
    }

    /// Bulk-registers `count` users with ids `start..start + count`
    /// (population seeding for scale scenarios; the range saturates at
    /// `u32::MAX`, which is never registered). Existing records are left
    /// untouched. Rows go in 4,096-id chunks, one commit each, so seeding
    /// a large population costs a handful of commits, not one per user.
    /// Each chunk finds its existing ids with one range scan and encodes
    /// every new record straight into its batch through one reused
    /// record.
    ///
    /// With `threads > 1`, one scoped encoder thread scans and encodes
    /// chunk k+1 while this thread commits chunk k. Batches cross a
    /// channel two deep and are committed here in id order, so the
    /// committed frames are byte for byte those of the inline schedule
    /// (`threads <= 1`), and every stored pair and memtable page is
    /// allocated on the calling thread. The RMW lock is held for the
    /// whole seed: a chunk is scanned ahead of the commits before it, so
    /// no `register` or `update` may slip in between. On an error the
    /// pipeline stops and the encoder is joined; the chunks committed
    /// before the error stay.
    pub fn register_bulk(
        &self,
        role: UserRole,
        start: u32,
        count: u32,
        prefix: &str,
        threads: usize,
    ) -> Result<()> {
        const CHUNK: usize = 4096;
        let end = start.saturating_add(count);
        let chunks = (start..end)
            .step_by(CHUNK)
            .map(move |id| id..id.saturating_add(CHUNK as u32).min(end));
        let mut record = UserRecord::new(role, start, String::new());
        let mut encode = move |ids| self.encode_chunk(&mut record, prefix, ids);
        let store = self.table.store();
        let _rmw = store.rmw_guard();
        if threads <= 1 {
            for ids in chunks {
                store.commit(encode(ids)?)?;
            }
            return Ok(());
        }
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Result<WriteBatch>>(2);
            let encoder = std::thread::Builder::new()
                .name("seed-encoder".into())
                .spawn_scoped(scope, move || {
                    for ids in chunks {
                        let batch = encode(ids);
                        let failed = batch.is_err();
                        // A closed channel means the committer stopped.
                        if tx.send(batch).is_err() || failed {
                            break;
                        }
                    }
                })
                .map_err(itag_store::StoreError::from)?;
            let mut outcome = Ok(());
            for batch in &rx {
                if let Err(e) = batch.and_then(|b| Ok(store.commit(b)?)) {
                    outcome = Err(e);
                    break;
                }
            }
            // Closing the channel fails the encoder's next send, so it
            // stops even when it is blocked on a full channel.
            drop(rx);
            if let Err(panic) = encoder.join() {
                std::panic::resume_unwind(panic);
            }
            outcome
        })
    }

    /// One chunk of [`UserManager::register_bulk`]: the records of `ids`
    /// not already stored, encoded into one batch.
    fn encode_chunk(
        &self,
        record: &mut UserRecord,
        prefix: &str,
        ids: std::ops::Range<u32>,
    ) -> Result<WriteBatch> {
        use std::fmt::Write as _;
        let tag = record.role.tag();
        let mut existing = self
            .table
            .keys_in_range(&(tag, ids.start), Some(&(tag, ids.end)))?
            .into_iter()
            .map(|(_, i)| i)
            .peekable();
        let mut batch = WriteBatch::with_capacity(ids.len());
        for i in ids {
            if existing.next_if_eq(&i).is_some() {
                continue;
            }
            record.id = i;
            record.name.clear();
            // Formatting into a `String` cannot fail.
            let _ = write!(record.name, "{prefix}{i}");
            self.table.stage_upsert(&mut batch, record)?;
        }
        Ok(batch)
    }

    /// Fetches a user (staged overlay first, then storage).
    pub fn get(&self, role: UserRole, id: u32) -> Result<Option<UserRecord>> {
        if let Some(u) = self.staged.lock().get(&(role.tag(), id)) {
            return Ok(Some(u.clone()));
        }
        Ok(self.table.get(&(role.tag(), id))?)
    }

    /// Records one approval decision: the provider decided on the
    /// tagger's submission. Stages both updates into `batch`.
    pub fn stage_decision(
        &self,
        batch: &mut WriteBatch,
        provider: u32,
        tagger: u32,
        approved: bool,
        pay_cents: u32,
    ) -> Result<()> {
        let (approved_n, rejected_n) = if approved { (1, 0) } else { (0, 1) };
        self.stage_decisions(
            batch,
            provider,
            tagger,
            approved_n,
            rejected_n,
            if approved { pay_cents as u64 } else { 0 },
        )
    }

    /// Records a whole round of decisions between one provider and one
    /// tagger at once: `approved`/`rejected` counter deltas plus the pay
    /// released. Counters are additive, so this stages the same final
    /// records as the equivalent sequence of [`UserManager::stage_decision`]
    /// calls while encoding each record once instead of once per decision.
    pub fn stage_decisions(
        &self,
        batch: &mut WriteBatch,
        provider: u32,
        tagger: u32,
        approved: u32,
        rejected: u32,
        earned_cents: u64,
    ) -> Result<()> {
        self.stage_tagger_decisions(batch, tagger, approved, rejected, earned_cents)?;
        self.stage_provider_decisions(batch, provider, approved, rejected)
    }

    /// Stages one round's aggregated deltas: every worker's tagger row
    /// (ascending id) plus the provider's round totals — one encode per
    /// touched record. This is the per-round delta surface: the same
    /// [`DecisionDeltas`] value staged here is what a
    /// [`ReputationLedger`] applies once the batch commits.
    pub fn stage_round_deltas(
        &self,
        batch: &mut WriteBatch,
        provider: u32,
        deltas: &DecisionDeltas,
    ) -> Result<()> {
        for &(worker, approved, rejected, earned) in &deltas.per_worker {
            self.stage_tagger_decisions(batch, worker, approved, rejected, earned)?;
        }
        if !deltas.is_empty() {
            self.stage_provider_decisions(
                batch,
                provider,
                deltas.approved_total,
                deltas.rejected_total,
            )?;
        }
        Ok(())
    }

    /// The tagger half of [`UserManager::stage_decisions`]: received
    /// counters + earnings only.
    pub fn stage_tagger_decisions(
        &self,
        batch: &mut WriteBatch,
        tagger: u32,
        approved: u32,
        rejected: u32,
        earned_cents: u64,
    ) -> Result<()> {
        let mut t = self.get(UserRole::Tagger, tagger)?.unwrap_or_else(|| {
            UserRecord::new(UserRole::Tagger, tagger, format!("tagger-{tagger}"))
        });
        t.approvals_received += approved;
        t.rejections_received += rejected;
        t.earned_cents += earned_cents;
        self.table.stage_upsert(batch, &t)?;
        self.staged.lock().insert(t.primary_key(), t);
        Ok(())
    }

    /// The provider half of [`UserManager::stage_decisions`]: given
    /// counters only.
    pub fn stage_provider_decisions(
        &self,
        batch: &mut WriteBatch,
        provider: u32,
        approved: u32,
        rejected: u32,
    ) -> Result<()> {
        let mut p = self.get(UserRole::Provider, provider)?.unwrap_or_else(|| {
            UserRecord::new(UserRole::Provider, provider, format!("provider-{provider}"))
        });
        p.approvals_given += approved;
        p.rejections_given += rejected;
        self.table.stage_upsert(batch, &p)?;
        self.staged.lock().insert(p.primary_key(), p);
        Ok(())
    }

    /// Drops the staged-record overlay. Call once the batch the records
    /// were staged into has resolved — after a successful commit the
    /// table serves the same values, and after a failed one the overlay
    /// would otherwise keep answering with records that were never
    /// stored.
    pub fn clear_staged(&self) {
        let mut staged = self.staged.lock();
        if !staged.is_empty() {
            *staged = FxHashMap::default();
        }
    }

    /// Number of records in the staged overlay (bounded-memory tests).
    pub fn staged_len(&self) -> usize {
        self.staged.lock().len()
    }

    /// The received-approval rate of a tagger (1.0 for unknown users —
    /// they have no history yet).
    pub fn tagger_approval_rate(&self, tagger: u32) -> Result<f64> {
        Ok(self
            .get(UserRole::Tagger, tagger)?
            .map(|u| u.approval_rate_received())
            .unwrap_or(1.0))
    }

    /// The given-approval rate of a provider (how generous they are).
    pub fn provider_approval_rate(&self, provider: u32) -> Result<f64> {
        Ok(self
            .get(UserRole::Provider, provider)?
            .map(|u| u.approval_rate_given())
            .unwrap_or(1.0))
    }

    /// The reliability gate: false once a tagger with enough history falls
    /// below the threshold.
    pub fn is_reliable(&self, tagger: u32) -> Result<bool> {
        self.is_reliable_with(tagger, 0, 0)
    }

    /// The reliability gate with not-yet-persisted decisions added on top
    /// of the stored counters. The engine's parallel tick buffers each
    /// round's decisions and commits them after the round, so in-round
    /// gating reads the stored base plus the project-local overlay —
    /// deterministic regardless of how many threads run the round.
    pub fn is_reliable_with(
        &self,
        tagger: u32,
        extra_approved: u32,
        extra_rejected: u32,
    ) -> Result<bool> {
        let (base_approved, base_rejected) = self.tagger_counters(tagger)?;
        Ok(reliability_gate(
            self.reliability_threshold,
            self.grace_decisions,
            base_approved,
            base_rejected,
            extra_approved,
            extra_rejected,
        ))
    }

    /// Builds the incremental [`ReputationLedger`] from the tagger table —
    /// the build-once path at engine open, which doubles as the recovery
    /// rebuild after a crash (the WAL replay restores the table, this
    /// scan restores the ledger).
    pub fn reputation_ledger(&self) -> Result<ReputationLedger> {
        Ok(ReputationLedger {
            counters: Arc::new(self.scan_tagger_counters()?),
            pending: Mutex::named("core.reputation.pending", FxHashMap::default()),
            threshold: self.reliability_threshold,
            grace: self.grace_decisions,
        })
    }

    /// The ledger's scan: every tagger with at least one decided
    /// submission. Zero-counter rows are skipped — the
    /// gate treats them exactly like absent entries — so the map size is
    /// bounded by the decided population, not the registered one.
    fn scan_tagger_counters(&self) -> Result<FxHashMap<u32, (u32, u32)>> {
        let tag = UserRole::Tagger.tag();
        let mut counters = FxHashMap::default();
        self.table.for_each_range(
            &(tag, 0u32),
            role_range_end(tag).as_ref(),
            |u: UserRecord| {
                if u.approvals_received != 0 || u.rejections_received != 0 {
                    counters.insert(u.id, (u.approvals_received, u.rejections_received));
                }
                true
            },
        )?;
        Ok(counters)
    }

    /// Received-decision counters of a tagger without cloning the whole
    /// profile (the reliability gate runs per rejected submission). The
    /// storage fallback reads through [`TypedTable::get_arc`], so a cache
    /// miss decodes into a shared record instead of cloning one out.
    fn tagger_counters(&self, tagger: u32) -> Result<(u32, u32)> {
        if let Some(u) = self.staged.lock().get(&(UserRole::Tagger.tag(), tagger)) {
            return Ok((u.approvals_received, u.rejections_received));
        }
        Ok(self
            .table
            .get_arc(&(UserRole::Tagger.tag(), tagger))?
            .map(|u| (u.approvals_received, u.rejections_received))
            .unwrap_or((0, 0)))
    }

    /// All users in `role`, streamed off the role's own key range —
    /// the other role's records are never visited or decoded.
    fn by_role(&self, role: UserRole) -> Result<Vec<UserRecord>> {
        let tag = role.tag();
        let mut out = Vec::new();
        self.table.for_each_range(
            &(tag, 0u32),
            role_range_end(tag).as_ref(),
            |u: UserRecord| {
                out.push(u);
                true
            },
        )?;
        Ok(out)
    }

    /// All taggers, for reporting.
    pub fn taggers(&self) -> Result<Vec<UserRecord>> {
        self.by_role(UserRole::Tagger)
    }

    /// All providers, for id allocation and reporting.
    pub fn providers(&self) -> Result<Vec<UserRecord>> {
        self.by_role(UserRole::Provider)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> UserManager {
        UserManager::new(Arc::new(Store::in_memory()))
    }

    #[test]
    fn register_is_idempotent() {
        let m = mgr();
        let a = m.register(UserRole::Provider, 1, "alice").unwrap();
        let b = m.register(UserRole::Provider, 1, "other-name").unwrap();
        assert_eq!(a, b, "second registration must not overwrite");
    }

    #[test]
    fn concurrent_registration_of_one_id_converges_on_one_record() {
        // Pre-fix, register was a non-atomic get-then-upsert: two racers
        // could both miss the get, the last upsert's name would win, and
        // the first caller's returned record would disagree with storage.
        // Under the RMW lock every caller must get the stored record.
        let m = Arc::new(mgr());
        let returned: Vec<UserRecord> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let m = Arc::clone(&m);
                    scope.spawn(move || {
                        m.register(UserRole::Tagger, 7, &format!("racer-{i}"))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stored = m.get(UserRole::Tagger, 7).unwrap().unwrap();
        for r in &returned {
            assert_eq!(
                r, &stored,
                "a register call returned a record that is not the stored one"
            );
        }
    }

    #[test]
    fn register_bulk_seeds_population_without_clobbering() {
        let m = mgr();
        // An existing tagger with history must survive bulk seeding over
        // its id range.
        let mut batch = WriteBatch::new();
        m.stage_decision(&mut batch, 1, 10_002, true, 5).unwrap();
        m.table.store().commit(batch).unwrap();
        m.clear_staged();

        m.register_bulk(UserRole::Tagger, 10_000, 5_000, "seed-", 1)
            .unwrap();
        assert_eq!(m.taggers().unwrap().len(), 5_000);
        let survivor = m.get(UserRole::Tagger, 10_002).unwrap().unwrap();
        assert_eq!(survivor.approvals_received, 1, "seeding clobbered history");
        assert_eq!(
            m.get(UserRole::Tagger, 10_001).unwrap().unwrap().name,
            "seed-10001"
        );
        // Zero-decision seeds are invisible to the ledger's scan.
        assert_eq!(m.reputation_ledger().unwrap().tracked_taggers(), 1);
    }

    /// Ids that exist on either side of a chunk boundary (4096) are
    /// skipped, never overwritten, and every other id is seeded, inline
    /// and pipelined alike.
    #[test]
    fn register_bulk_skips_existing_ids_at_chunk_boundaries() {
        for threads in [1, 2] {
            register_bulk_skips_existing_ids_at(threads);
        }
    }

    fn register_bulk_skips_existing_ids_at(threads: usize) {
        let m = mgr();
        for id in [4095, 4096, 4097] {
            m.register(UserRole::Tagger, id, &format!("old-{id}"))
                .unwrap();
        }
        let mut batch = WriteBatch::new();
        m.stage_decision(&mut batch, 1, 4096, true, 5).unwrap();
        m.table.store().commit(batch).unwrap();
        m.clear_staged();
        let before: Vec<UserRecord> = [4095, 4096, 4097]
            .map(|id| m.get(UserRole::Tagger, id).unwrap().unwrap())
            .to_vec();

        m.register_bulk(UserRole::Tagger, 0, 3 * 4096, "seed-", threads)
            .unwrap();
        assert_eq!(m.taggers().unwrap().len(), 3 * 4096);
        for (id, old) in [4095, 4096, 4097].into_iter().zip(&before) {
            assert_eq!(&m.get(UserRole::Tagger, id).unwrap().unwrap(), old);
        }
        for id in [0, 4094, 4098, 3 * 4096 - 1] {
            let seeded = m.get(UserRole::Tagger, id).unwrap().unwrap();
            assert_eq!(
                seeded,
                UserRecord::new(UserRole::Tagger, id, format!("seed-{id}"))
            );
        }
        // A second seed over the same range changes nothing.
        let digest = m.table.store().content_checksum();
        m.register_bulk(UserRole::Tagger, 0, 3 * 4096, "again-", threads)
            .unwrap();
        assert_eq!(m.table.store().content_checksum(), digest);
    }

    /// A range ending at `u32::MAX` (and one that would overflow it)
    /// stops below `u32::MAX` and keeps the existing id inside it.
    #[test]
    fn register_bulk_range_ending_at_u32_max() {
        for threads in [1, 2] {
            register_bulk_range_ending_at_u32_max_on(threads);
        }
    }

    fn register_bulk_range_ending_at_u32_max_on(threads: usize) {
        let m = mgr();
        m.register(UserRole::Tagger, u32::MAX - 2, "old").unwrap();
        m.register_bulk(UserRole::Tagger, u32::MAX - 5000, 5000, "seed-", threads)
            .unwrap();
        assert_eq!(m.taggers().unwrap().len(), 5000);
        assert_eq!(
            m.get(UserRole::Tagger, u32::MAX - 2).unwrap().unwrap().name,
            "old"
        );
        assert_eq!(
            m.get(UserRole::Tagger, u32::MAX - 1).unwrap().unwrap().name,
            format!("seed-{}", u32::MAX - 1)
        );
        assert!(m.get(UserRole::Tagger, u32::MAX).unwrap().is_none());
        m.register_bulk(UserRole::Tagger, u32::MAX - 10, 100, "more-", threads)
            .unwrap();
        assert_eq!(m.taggers().unwrap().len(), 5000);
        assert!(m.get(UserRole::Tagger, u32::MAX).unwrap().is_none());
    }

    #[test]
    fn decisions_update_both_sides() {
        let m = mgr();
        let mut batch = WriteBatch::new();
        m.stage_decision(&mut batch, 1, 7, true, 10).unwrap();
        m.stage_decision(&mut batch, 1, 7, false, 10).unwrap();
        m.table.store().commit(batch).unwrap();

        let p = m.get(UserRole::Provider, 1).unwrap().unwrap();
        assert_eq!((p.approvals_given, p.rejections_given), (1, 1));
        let t = m.get(UserRole::Tagger, 7).unwrap().unwrap();
        assert_eq!((t.approvals_received, t.rejections_received), (1, 1));
        assert_eq!(t.earned_cents, 10);
        assert!((m.tagger_approval_rate(7).unwrap() - 0.5).abs() < 1e-12);
        assert!((m.provider_approval_rate(1).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn staged_overlay_clears_to_bounded_size_and_storage_agrees() {
        let m = mgr();
        let mut batch = WriteBatch::new();
        for t in 0..64u32 {
            m.stage_decision(&mut batch, 1, t, t % 2 == 0, 5).unwrap();
        }
        assert_eq!(m.staged_len(), 65, "64 taggers + 1 provider staged");
        m.table.store().commit(batch).unwrap();
        m.clear_staged();
        assert_eq!(m.staged_len(), 0, "overlay must be empty after resolve");
        // Reads fall through to storage and see the committed values.
        let t = m.get(UserRole::Tagger, 0).unwrap().unwrap();
        assert_eq!((t.approvals_received, t.rejections_received), (1, 0));
        assert!((m.provider_approval_rate(1).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clearing_an_abandoned_batch_discards_never_committed_records() {
        let m = mgr();
        let mut batch = WriteBatch::new();
        m.stage_decision(&mut batch, 1, 9, false, 5).unwrap();
        drop(batch); // the batch never commits (e.g. a failed merge)
        m.clear_staged();
        assert!(
            m.get(UserRole::Tagger, 9).unwrap().is_none(),
            "a record staged into an abandoned batch must not survive"
        );
    }

    #[test]
    fn reliability_gate_kicks_in_after_grace() {
        let m = mgr();
        // 2 rejections: within grace, still reliable.
        let mut batch = WriteBatch::new();
        for _ in 0..2 {
            m.stage_decision(&mut batch, 1, 9, false, 5).unwrap();
        }
        m.table.store().commit(batch).unwrap();
        assert!(m.is_reliable(9).unwrap());

        // 5 decisions, all rejected: below threshold → unreliable.
        let mut batch = WriteBatch::new();
        for _ in 0..3 {
            m.stage_decision(&mut batch, 1, 9, false, 5).unwrap();
        }
        m.table.store().commit(batch).unwrap();
        assert!(!m.is_reliable(9).unwrap());
    }

    /// Seeds `tagger` with exact counters, committed (not staged).
    fn seed_counters(m: &UserManager, tagger: u32, approved: u32, rejected: u32) {
        let mut batch = WriteBatch::new();
        m.stage_decisions(&mut batch, 1, tagger, approved, rejected, 0)
            .unwrap();
        m.table.store().commit(batch).unwrap();
        m.clear_staged();
    }

    #[test]
    fn gate_boundaries_agree_on_live_snapshot_and_ledger_paths() {
        // Default gate: threshold 0.5, grace 5.
        let m = mgr();
        seed_counters(&m, 1, 0, 4); // decided = 4 < grace → reliable
        seed_counters(&m, 2, 0, 5); // decided == grace exactly → gate applies
        seed_counters(&m, 3, 5, 5); // rate exactly == threshold → reliable
        seed_counters(&m, 4, 4, 5); // rate 4/9 < threshold → unreliable
        let snap = m.reputation_ledger().unwrap().snapshot();
        let expect = [(1u32, true), (2, false), (3, true), (4, false)];
        for (tagger, reliable) in expect {
            assert_eq!(m.is_reliable(tagger).unwrap(), reliable, "live, {tagger}");
            assert_eq!(
                snap.is_reliable_with(tagger, 0, 0),
                reliable,
                "ledger snapshot, {tagger}"
            );
        }
        // In-round overlay exactly to the boundary: tagger 2 (0/5) gains
        // 5 approvals → 5/10, exactly the threshold → reliable again.
        assert!(m.is_reliable_with(2, 5, 0).unwrap());
        assert!(snap.is_reliable_with(2, 5, 0));
        // One short of the boundary stays unreliable.
        assert!(!m.is_reliable_with(2, 4, 0).unwrap());
        assert!(!snap.is_reliable_with(2, 4, 0));
    }

    #[test]
    fn banned_tagger_can_cross_back_above_threshold_mid_campaign() {
        // A tagger who fell through the gate (and was banned) keeps
        // accruing decisions from already-claimed tasks; enough approvals
        // push the rate back over the threshold and every path must flip
        // back to reliable at the same decision.
        let m = mgr();
        seed_counters(&m, 8, 1, 5); // 1/6 → unreliable (banned)
        assert!(!m.is_reliable(8).unwrap());
        let snap = m.reputation_ledger().unwrap().snapshot();
        // 3 more approvals: 4/9 — still below 0.5 on both paths.
        assert!(!m.is_reliable_with(8, 3, 0).unwrap());
        assert!(!snap.is_reliable_with(8, 3, 0));
        // A 4th approval: 5/10 == threshold — reliable again on both.
        assert!(m.is_reliable_with(8, 4, 0).unwrap());
        assert!(snap.is_reliable_with(8, 4, 0));
    }

    #[test]
    fn unknown_users_are_trusted_by_default() {
        let m = mgr();
        assert!(m.is_reliable(42).unwrap());
        assert_eq!(m.tagger_approval_rate(42).unwrap(), 1.0);
    }

    #[test]
    fn reputation_snapshot_matches_live_gate_and_freezes_at_round_start() {
        let m = mgr();
        let mut batch = WriteBatch::new();
        for _ in 0..5 {
            m.stage_decision(&mut batch, 1, 9, false, 5).unwrap();
        }
        for _ in 0..6 {
            m.stage_decision(&mut batch, 1, 8, true, 5).unwrap();
        }
        m.table.store().commit(batch).unwrap();

        let snap = m.reputation_ledger().unwrap().snapshot();
        for t in [8u32, 9, 42] {
            assert_eq!(
                snap.is_reliable_with(t, 0, 0),
                m.is_reliable(t).unwrap(),
                "snapshot and live gate disagree for tagger {t}"
            );
        }
        // In-round overlays layer identically over both reads.
        assert_eq!(
            snap.is_reliable_with(42, 1, 4),
            m.is_reliable_with(42, 1, 4).unwrap()
        );

        // Later commits must not leak into the snapshot: that is exactly
        // the property the pipelined round relies on.
        let mut batch = WriteBatch::new();
        for _ in 0..7 {
            m.stage_decision(&mut batch, 1, 8, false, 5).unwrap();
        }
        m.table.store().commit(batch).unwrap();
        assert!(
            !m.is_reliable(8).unwrap(),
            "live gate sees the new rejections"
        );
        assert!(
            snap.is_reliable_with(8, 0, 0),
            "snapshot still answers from round start"
        );
    }

    #[test]
    fn decision_deltas_fold_matches_per_decision_order() {
        let decisions = [
            (3u32, true, 5u32),
            (1, false, 5),
            (3, false, 5),
            (2, true, 7),
            (3, true, 5),
        ];
        let d = DecisionDeltas::from_decisions(decisions);
        assert_eq!(
            d.per_worker,
            vec![(1, 0, 1, 0), (2, 1, 0, 7), (3, 2, 1, 10)],
            "per-worker deltas must fold and sort by worker id"
        );
        assert_eq!((d.approved_total, d.rejected_total), (3, 2));
        assert!(!d.is_empty());
        assert!(DecisionDeltas::from_decisions([]).is_empty());
    }

    #[test]
    fn ledger_apply_fold_matches_a_rescan_and_snapshots_freeze() {
        let m = mgr();
        seed_counters(&m, 5, 2, 3);
        let mut ledger = m.reputation_ledger().unwrap();
        let round_start = ledger.snapshot();

        // A round commits deltas for taggers 5 and 6; the ledger applies
        // the same deltas on the merger side.
        let deltas =
            DecisionDeltas::from_decisions([(5u32, true, 4u32), (5, true, 4), (6, false, 4)]);
        let mut batch = WriteBatch::new();
        m.stage_round_deltas(&mut batch, 1, &deltas).unwrap();
        m.table.store().commit(batch).unwrap();
        m.clear_staged();
        ledger.apply(&deltas);

        // The outstanding round-start snapshot is frozen: pending deltas
        // are invisible until the fold.
        assert_eq!(
            round_start.counters.get(&5).copied(),
            Some((2, 3)),
            "snapshot must keep the round-start view while deltas are pending"
        );
        drop(round_start);
        ledger.fold_pending();

        // After the fold the ledger equals a fresh rescan of the table.
        let folded = ledger.snapshot();
        let rescan = m.reputation_ledger().unwrap();
        assert_eq!(
            *folded.counters, *rescan.counters,
            "ledger diverged from the tagger table"
        );
        assert_eq!(folded.counters.get(&5).copied(), Some((4, 3)));
        assert_eq!(folded.counters.get(&6).copied(), Some((0, 1)));
    }

    #[test]
    fn role_range_end_is_overflow_safe() {
        assert_eq!(role_range_end(0), Some((1, 0)));
        assert_eq!(role_range_end(1), Some((2, 0)));
        assert_eq!(
            role_range_end(u16::MAX),
            None,
            "the last role tag must scan open-ended, not wrap to an empty range"
        );
    }

    #[test]
    fn role_scan_reaches_rows_under_the_maximum_role_tag() {
        // No current role uses tag u16::MAX, but the scan helpers must not
        // silently rely on that: plant a row under the max tag directly
        // and prove the same bound construction still enumerates it.
        let m = mgr();
        let record = UserRecord::new(UserRole::Tagger, 5, "edge".into());
        let mut key = Vec::new();
        use itag_store::table::KeyCodec;
        (u16::MAX, 5u32).encode_into(&mut key);
        m.table
            .store()
            .put(
                UserRecord::TABLE,
                key,
                itag_store::serbin::to_bytes(&record).unwrap(),
            )
            .unwrap();
        let mut seen = 0;
        m.table
            .for_each_range(
                &(u16::MAX, 0u32),
                role_range_end(u16::MAX).as_ref(),
                |_: UserRecord| {
                    seen += 1;
                    true
                },
            )
            .unwrap();
        assert_eq!(seen, 1, "row under the max role tag was not scanned");
    }

    #[test]
    fn taggers_listing_filters_providers() {
        let m = mgr();
        m.register(UserRole::Provider, 1, "p").unwrap();
        m.register(UserRole::Tagger, 1, "t1").unwrap();
        m.register(UserRole::Tagger, 2, "t2").unwrap();
        assert_eq!(m.taggers().unwrap().len(), 2);
    }
}
