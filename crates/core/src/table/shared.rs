//! Lock-free shared-writer operations (`&self` CAS insert/remove).
//!
//! The paper's commit protocol already funnels every mutation's
//! visibility through one 8-byte occupancy-bitmap word, which is exactly
//! the shape a compare-and-swap loop wants. This module exposes that as a
//! first-class write path: any number of writer threads sharing one
//! [`GroupHash`] by reference can insert and remove concurrently through
//! [`PmemWrite`] handles, with **no shard- or table-wide lock**:
//!
//! 1. a volatile [`TableClaims`] bit (DRAM, [`CellClaims`] per level)
//!    reserves the target cell so two writers never interleave bytes in
//!    one cell;
//! 2. the cell bytes are written and persisted while unpublished;
//! 3. the occupancy bit is flipped with a CAS loop on its bitmap *word*
//!    ([`CellStore::try_publish`] / [`CellStore::try_retract`]), so
//!    writers publishing different cells of the same word serialize on
//!    the hardware CAS instead of a lock;
//! 4. the persistent count moves by a CAS loop too
//!    ([`TableHeader::inc_count_shared`]).
//!
//! The per-op persistence trace is identical to the exclusive path —
//! 3 flushes / 3 fences / 2 atomic writes uncontended — because the CAS
//! *is* the paper's atomic bitmap write; contention only re-runs the CAS
//! (counted, never re-flushed cell bytes).
//!
//! Scope: only [`CommitStrategy::AtomicBitmap`] tables support shared
//! writes (the undo-log ablation journals through `&mut` state and must
//! keep the exclusive path). Callers must serialize operations *on the
//! same key* (e.g. by key-range ownership or the sharded wrapper's
//! routing); concurrent same-key inserts would commit two cells for one
//! key, exactly as two unsynchronized inserts into any multi-writer map.
//!
//! [`CellStore::try_publish`]: nvm_table::CellStore::try_publish
//! [`CellStore::try_retract`]: nvm_table::CellStore::try_retract
//! [`TableHeader::inc_count_shared`]: nvm_table::TableHeader::inc_count_shared
//! [`CommitStrategy::AtomicBitmap`]: crate::config::CommitStrategy::AtomicBitmap

use super::{probe, GroupHash, Level};
use crate::config::{CommitStrategy, CountMode};
use nvm_hashfn::{HashKey, Pod};
use nvm_pmem::{Pmem, PmemRead, PmemWrite};
use nvm_table::{CellClaims, InsertError, TryPublish, TryRetract};
use std::sync::atomic::Ordering;

/// Volatile claim bits for both levels of one table — the DRAM half of
/// the shared write path. One instance per table, shared by reference
/// among all writers of that table.
#[derive(Debug)]
pub struct TableClaims {
    l1: CellClaims,
    l2: CellClaims,
}

impl TableClaims {
    /// Fresh (all-unclaimed) claim bits for a table with
    /// `cells_per_level` cells in each level.
    pub fn new(cells_per_level: u64) -> Self {
        TableClaims {
            l1: CellClaims::new(cells_per_level),
            l2: CellClaims::new(cells_per_level),
        }
    }

    fn of(&self, level: Level) -> &CellClaims {
        match level {
            Level::One => &self.l1,
            Level::Two => &self.l2,
        }
    }
}

/// What a successful shared-path commit cost in contention events.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedCommit {
    /// Failed CAS attempts across the bitmap-word and count loops
    /// (0 single-writer — pinned by the stress suite).
    pub cas_failures: u64,
    /// Times the placement plan was thrown away because another writer
    /// claimed or published the chosen cell first.
    pub replans: u64,
}

impl<P: Pmem, K: HashKey, V: Pod> GroupHash<P, K, V> {
    /// Whether this table's configuration admits the lock-free shared
    /// write path (the paper's atomic-bitmap commit; the undo-log
    /// ablation journals through exclusive state).
    pub fn supports_shared_writes(&self) -> bool {
        self.config.commit == CommitStrategy::AtomicBitmap
    }

    /// Moves the count by ±1 through the shared-writer discipline,
    /// returning CAS failures (0 for a volatile count).
    fn count_delta_shared<W: PmemWrite>(&self, w: &W, up: bool) -> u64 {
        match self.config.count_mode {
            CountMode::Persistent => {
                if up {
                    self.header.inc_count_shared(w)
                } else {
                    self.header.dec_count_shared(w)
                }
            }
            CountMode::Volatile => {
                if up {
                    self.volatile_count.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.volatile_count.fetch_sub(1, Ordering::Relaxed);
                }
                0
            }
        }
    }

    /// Algorithm 1's placement decision against the *committed* bits plus
    /// the live claim table: a cell is a candidate only if its occupancy
    /// bit is clear and no concurrent writer holds its claim. Pure reads.
    fn plan_insert_shared<R: PmemRead>(
        &self,
        pm: &R,
        claims: &TableClaims,
        key: &K,
    ) -> Result<(Level, u64), InsertError> {
        let free_l1 = |k: u64| !self.store1.is_occupied(pm, k) && !claims.l1.is_claimed(k);
        let free_l2 = |idx: u64| !self.store2.is_occupied(pm, idx) && !claims.l2.is_claimed(idx);
        let (k1, k2) = probe::candidate_slots(&self.hash, &self.config, key);
        let mut probes = 1u64;
        // Occupied cells stepped over before the chosen one.
        let mut occupied = 0u64;
        let placed = 'plan: {
            if free_l1(k1) {
                break 'plan Ok((Level::One, k1));
            }
            occupied += 1;
            if let Some(k2) = k2 {
                probes += 1;
                if free_l1(k2) {
                    break 'plan Ok((Level::One, k2));
                }
                occupied += 1;
            }
            let plan = self.plan();
            let g1 = plan.group_of_slot(k1);
            let mut groups = [Some(g1), None];
            if let Some(k2) = k2 {
                let g2 = plan.group_of_slot(k2);
                if g2 != g1 {
                    groups[1] = Some(g2);
                }
            }
            for g in groups.into_iter().flatten() {
                for i in 0..self.config.group_size {
                    let idx = plan.cell(g, i);
                    probes += 1;
                    if free_l2(idx) {
                        break 'plan Ok((Level::Two, idx));
                    }
                    occupied += 1;
                }
            }
            Err(InsertError::TableFull)
        };
        self.instr.record_insert(probes, occupied, 0);
        placed
    }

    /// Lock-free Algorithm 1: plans against committed-plus-claimed cells,
    /// then publishes through the claim → write → persist → CAS-bit
    /// choreography. Replans (without re-flushing anything) whenever a
    /// racing writer takes the chosen cell first. The DRAM fingerprint
    /// tag is updated inside the claim window, after the commit.
    ///
    /// Requires [`GroupHash::supports_shared_writes`]; panics otherwise —
    /// routing the ablation here would silently skip its journaling.
    pub fn try_insert_shared<W: PmemWrite>(
        &self,
        w: &W,
        claims: &TableClaims,
        key: K,
        value: V,
    ) -> Result<SharedCommit, InsertError> {
        assert!(
            self.supports_shared_writes(),
            "shared writes require the atomic-bitmap commit strategy"
        );
        let mut out = SharedCommit::default();
        loop {
            let (level, idx) = self.plan_insert_shared(w, claims, &key)?;
            let store = self.level_store(level);
            let fp_hook = || {
                if let Some(fp) = &self.fp {
                    fp[level.idx()].set(idx, self.fp_tag(&key));
                }
            };
            match store.try_publish(w, claims.of(level), idx, &key, &value, fp_hook) {
                TryPublish::Done { cas_failures } => {
                    out.cas_failures = out.cas_failures + cas_failures
                        + self.count_delta_shared(w, true);
                    return Ok(out);
                }
                TryPublish::Busy => out.replans += 1,
            }
        }
    }

    /// Lock-free Algorithm 3: locates the key through the committed bits,
    /// then retracts through claim → CAS-bit-clear → scrub. `Gone`
    /// verdicts (the cell changed between locate and claim) re-locate;
    /// a key no longer anywhere returns `None`. The fingerprint tag is
    /// dropped inside the claim window, after the bit clear.
    ///
    /// Same preconditions as [`GroupHash::try_insert_shared`].
    pub fn try_remove_shared<W: PmemWrite>(
        &self,
        w: &W,
        claims: &TableClaims,
        key: &K,
    ) -> Option<SharedCommit> {
        assert!(
            self.supports_shared_writes(),
            "shared writes require the atomic-bitmap commit strategy"
        );
        let mut out = SharedCommit::default();
        loop {
            let (level, idx) = self.locate(w, key)?;
            let store = self.level_store(level);
            let fp_hook = || {
                if let Some(fp) = &self.fp {
                    fp[level.idx()].clear(idx);
                }
            };
            match store.try_retract(w, claims.of(level), idx, key, fp_hook) {
                TryRetract::Done { cas_failures } => {
                    out.cas_failures = out.cas_failures + cas_failures
                        + self.count_delta_shared(w, false);
                    return Some(out);
                }
                // The cell was republished/retracted under us — the key
                // may now live elsewhere (or nowhere): re-locate.
                TryRetract::Gone | TryRetract::Busy => out.replans += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CountMode, FpMode, GroupHashConfig};
    use crate::table::GroupHash;
    use nvm_pmem::{Pmem, Region, SimConfig, SimPmem};
    use nvm_table::HashScheme;
    use std::sync::Arc;

    fn build(
        cfg: GroupHashConfig,
    ) -> (SimPmem, GroupHash<SimPmem, u64, u64>, TableClaims) {
        let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let t = GroupHash::create(&mut pm, Region::new(0, size), cfg).unwrap();
        let claims = TableClaims::new(cfg.cells_per_level);
        (pm, t, claims)
    }

    #[test]
    fn shared_ops_match_exclusive_semantics_single_writer() {
        let (mut pm, t, claims) = build(GroupHashConfig::new(1 << 10, 64));
        let w = pm.write_handle();
        for k in 0..500u64 {
            let c = t.try_insert_shared(&w, &claims, k, k * 2).unwrap();
            assert_eq!(c.cas_failures, 0, "single writer never loses a CAS");
            assert_eq!(c.replans, 0);
        }
        assert_eq!(t.len(&pm), 500);
        for k in 0..500u64 {
            assert_eq!(t.get(&pm, &k), Some(k * 2));
        }
        for k in 0..250u64 {
            let c = t.try_remove_shared(&w, &claims, &k).unwrap();
            assert_eq!(c.cas_failures, 0);
        }
        assert!(t.try_remove_shared(&w, &claims, &0).is_none());
        assert_eq!(t.len(&pm), 250);
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    fn shared_insert_budget_matches_paper_trace() {
        // 3 flushes / 3 fences / 2 atomic writes per op, uncontended —
        // the CAS path must not cost one event more than the exclusive
        // path it replaces.
        let (mut pm, t, claims) = build(GroupHashConfig::new(1 << 10, 64));
        let w = pm.write_handle();
        t.try_insert_shared(&w, &claims, 1, 1).unwrap(); // warm-up
        let base = pm.stats();
        t.try_insert_shared(&w, &claims, 2, 2).unwrap();
        let d = pm.stats().delta_since(&base);
        assert_eq!((d.flushes, d.fences, d.atomic_writes), (3, 3, 2), "insert");
        let base = pm.stats();
        t.try_remove_shared(&w, &claims, &2).unwrap();
        let d = pm.stats().delta_since(&base);
        assert_eq!((d.flushes, d.fences, d.atomic_writes), (3, 3, 2), "remove");
    }

    #[test]
    fn shared_path_keeps_fingerprint_cache_coherent() {
        let cfg = GroupHashConfig::new(1 << 9, 64).with_fp_mode(FpMode::On);
        let (mut pm, t, claims) = build(cfg);
        let w = pm.write_handle();
        for k in 0..300u64 {
            t.try_insert_shared(&w, &claims, k, !k).unwrap();
        }
        for k in (0..300u64).step_by(3) {
            t.try_remove_shared(&w, &claims, &k).unwrap();
        }
        t.verify_fp_cache(&pm).unwrap();
        for k in 0..300u64 {
            assert_eq!(t.get(&pm, &k), (k % 3 != 0).then_some(!k));
        }
    }

    #[test]
    fn concurrent_shared_writers_lose_nothing() {
        // Four writers insert disjoint ranges into ONE table (no shards,
        // no locks); every key must be present exactly once afterwards.
        for count_mode in [CountMode::Persistent, CountMode::Volatile] {
            let cfg = GroupHashConfig::new(1 << 12, 64).with_count_mode(count_mode);
            let (mut pm, t, claims) = build(cfg);
            let w = pm.write_handle();
            let t = Arc::new(t);
            let claims = Arc::new(claims);
            let per = 700u64;
            let threads: Vec<_> = (0..4u64)
                .map(|tid| {
                    let (t, claims, w) = (Arc::clone(&t), Arc::clone(&claims), w.clone());
                    std::thread::spawn(move || {
                        let mut failures = 0;
                        for i in 0..per {
                            let k = tid * 100_000 + i;
                            failures += t
                                .try_insert_shared(&w, &claims, k, k + 1)
                                .unwrap()
                                .cas_failures;
                        }
                        failures
                    })
                })
                .collect();
            let _total_failures: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
            assert_eq!(t.len(&pm), 4 * per, "{count_mode:?}");
            for tid in 0..4u64 {
                for i in 0..per {
                    let k = tid * 100_000 + i;
                    assert_eq!(t.get(&pm, &k), Some(k + 1), "lost key {k}");
                }
            }
            t.check_consistency(&pm).unwrap();
        }
    }

    #[test]
    fn concurrent_insert_remove_churn_stays_consistent() {
        // Each writer churns its own key range (insert → remove →
        // reinsert) against the shared claim table; the final state must
        // be exactly the last round's inserts.
        let cfg = GroupHashConfig::new(1 << 12, 64);
        let (mut pm, t, claims) = build(cfg);
        let w = pm.write_handle();
        let t = Arc::new(t);
        let claims = Arc::new(claims);
        let threads: Vec<_> = (0..4u64)
            .map(|tid| {
                let (t, claims, w) = (Arc::clone(&t), Arc::clone(&claims), w.clone());
                std::thread::spawn(move || {
                    let lo = tid * 100_000;
                    for round in 0..3u64 {
                        for k in lo..lo + 300 {
                            t.try_insert_shared(&w, &claims, k, k + round).unwrap();
                            assert!(t.try_remove_shared(&w, &claims, &k).is_some());
                        }
                    }
                    for k in lo..lo + 300 {
                        t.try_insert_shared(&w, &claims, k, k + 99).unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.len(&pm), 4 * 300);
        for tid in 0..4u64 {
            for k in tid * 100_000..tid * 100_000 + 300 {
                assert_eq!(t.get(&pm, &k), Some(k + 99));
            }
        }
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    #[should_panic(expected = "atomic-bitmap commit strategy")]
    fn undo_log_ablation_rejects_shared_writes() {
        use crate::config::CommitStrategy;
        let cfg = GroupHashConfig::new(256, 16).with_commit(CommitStrategy::UndoLog);
        let (mut pm, t, claims) = build(cfg);
        let w = pm.write_handle();
        let _ = t.try_insert_shared(&w, &claims, 1, 1);
    }
}
