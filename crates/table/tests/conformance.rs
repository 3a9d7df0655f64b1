//! Cross-scheme conformance suite.
//!
//! Every hashing scheme in the workspace — group hashing plus the four
//! baselines (linear, PFHT, path, iceberg) — is driven through the shared
//! [`HashScheme`] trait across both [`ConsistencyMode`]s. The suite
//! asserts the behavioural contract the trait documents (insert/get/remove
//! roundtrips, duplicate handling, graceful `TableFull`, persistence
//! across reopen, crash-recovery) without knowing anything scheme-specific
//! beyond the constructor.
//!
//! This is the payoff of the layered split: the generic drivers below
//! compile once and exercise five ops-layer implementations that all sit
//! on the same probe-plan + cell-store primitives.

use group_hash::{CommitStrategy, FpMode, GroupHash, GroupHashConfig};
use nvm_baselines::{Iceberg, LinearProbing, MetaMode, PathHash, Pfht};
use nvm_pmem::{
    run_with_crash, CrashPlan, CrashResolution, Pmem, PmemRead, Region, SimConfig, SimPmem,
};
use nvm_table::{ConsistencyMode, HashScheme, InsertError};

const MODES: [ConsistencyMode; 2] = [ConsistencyMode::None, ConsistencyMode::UndoLog];

// ---------------------------------------------------------------- fixtures

fn group_pool(mode: ConsistencyMode, cells: u64) -> (SimPmem, GroupHash<SimPmem, u64, u64>) {
    let commit = match mode {
        ConsistencyMode::None => CommitStrategy::AtomicBitmap,
        ConsistencyMode::UndoLog => CommitStrategy::UndoLog,
    };
    let cfg = GroupHashConfig::new(cells, 16).with_commit(commit);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let t = GroupHash::create(&mut pm, Region::new(0, size), cfg).unwrap();
    (pm, t)
}

fn group_pool_fp(
    mode: ConsistencyMode,
    cells: u64,
    fp: FpMode,
) -> (SimPmem, GroupHash<SimPmem, u64, u64>) {
    let commit = match mode {
        ConsistencyMode::None => CommitStrategy::AtomicBitmap,
        ConsistencyMode::UndoLog => CommitStrategy::UndoLog,
    };
    let cfg = GroupHashConfig::new(cells, 16).with_commit(commit).with_fp_mode(fp);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let t = GroupHash::create(&mut pm, Region::new(0, size), cfg).unwrap();
    (pm, t)
}

fn group_open(pm: &mut SimPmem) -> GroupHash<SimPmem, u64, u64> {
    let len = pm.len();
    GroupHash::open(pm, Region::new(0, len)).unwrap()
}

fn linear_pool(mode: ConsistencyMode, n: u64) -> (SimPmem, LinearProbing<SimPmem, u64, u64>) {
    let size = LinearProbing::<SimPmem, u64, u64>::required_size(n);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let t = LinearProbing::create(&mut pm, Region::new(0, size), n, 7, mode).unwrap();
    (pm, t)
}

fn linear_open(pm: &mut SimPmem) -> LinearProbing<SimPmem, u64, u64> {
    let len = pm.len();
    LinearProbing::open(pm, Region::new(0, len)).unwrap()
}

fn pfht_pool(mode: ConsistencyMode, n_buckets: u64) -> (SimPmem, Pfht<SimPmem, u64, u64>) {
    let stash = (n_buckets / 4).max(2);
    let size = Pfht::<SimPmem, u64, u64>::required_size(n_buckets, stash);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let t = Pfht::create(&mut pm, Region::new(0, size), n_buckets, stash, 7, mode).unwrap();
    (pm, t)
}

fn pfht_open(pm: &mut SimPmem) -> Pfht<SimPmem, u64, u64> {
    let len = pm.len();
    Pfht::open(pm, Region::new(0, len)).unwrap()
}

fn path_pool(mode: ConsistencyMode, leaf_bits: u32) -> (SimPmem, PathHash<SimPmem, u64, u64>) {
    let size = PathHash::<SimPmem, u64, u64>::required_size(leaf_bits, 4);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let t = PathHash::create(&mut pm, Region::new(0, size), leaf_bits, 4, 7, mode).unwrap();
    (pm, t)
}

fn path_open(pm: &mut SimPmem) -> PathHash<SimPmem, u64, u64> {
    let len = pm.len();
    PathHash::open(pm, Region::new(0, len)).unwrap()
}

fn iceberg_pool_meta(
    mode: ConsistencyMode,
    cells: u64,
    meta: MetaMode,
) -> (SimPmem, Iceberg<SimPmem, u64, u64>) {
    let geo = Iceberg::<SimPmem, u64, u64>::geometry_for(cells);
    let size = Iceberg::<SimPmem, u64, u64>::required_size(geo.0, geo.1, geo.2);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let t = Iceberg::create(&mut pm, Region::new(0, size), geo, 7, mode, meta).unwrap();
    (pm, t)
}

fn iceberg_pool(mode: ConsistencyMode, cells: u64) -> (SimPmem, Iceberg<SimPmem, u64, u64>) {
    iceberg_pool_meta(mode, cells, MetaMode::On)
}

fn iceberg_open(pm: &mut SimPmem) -> Iceberg<SimPmem, u64, u64> {
    let len = pm.len();
    Iceberg::open(pm, Region::new(0, len)).unwrap()
}

const META_MODES: [MetaMode; 2] = [MetaMode::Off, MetaMode::On];

// ------------------------------------------------------- generic drivers

/// Insert/get/remove roundtrip plus duplicate handling, on a table big
/// enough that no scheme hits its collision limit.
fn basic_ops<S: HashScheme<SimPmem, u64, u64>>(pm: &mut SimPmem, t: &mut S) {
    let label = t.name();
    assert!(t.is_empty(pm), "{label}: fresh table not empty");
    assert_eq!(t.get(pm, &42), None);
    assert!(!t.remove(pm, &42), "{label}: remove on empty");

    for k in 0..60u64 {
        t.insert(pm, k, k * 3).unwrap_or_else(|e| panic!("{label}: insert {k}: {e}"));
    }
    assert_eq!(t.len(pm), 60, "{label}");
    for k in 0..60u64 {
        assert_eq!(t.get(pm, &k), Some(k * 3), "{label}: key {k}");
        assert!(t.contains(pm, &k), "{label}: contains {k}");
    }
    assert_eq!(t.get(pm, &999), None, "{label}: absent key");
    assert!(t.load_factor(pm) > 0.0 && t.load_factor(pm) <= 1.0);

    // Duplicate handling: insert_unique refuses and leaves state intact.
    assert_eq!(t.insert_unique(pm, 7, 1), Err(InsertError::DuplicateKey), "{label}");
    assert_eq!(t.get(pm, &7), Some(21), "{label}: duplicate must not clobber");
    assert_eq!(t.len(pm), 60, "{label}: duplicate must not grow the table");

    // Delete half, verify the survivors and the holes.
    for k in 0..30u64 {
        assert!(t.remove(pm, &k), "{label}: remove {k}");
    }
    assert!(!t.remove(pm, &0), "{label}: double remove");
    assert_eq!(t.len(pm), 30, "{label}");
    for k in 0..30u64 {
        assert_eq!(t.get(pm, &k), None, "{label}: deleted key {k}");
    }
    for k in 30..60u64 {
        assert_eq!(t.get(pm, &k), Some(k * 3), "{label}: survivor {k}");
    }

    // Holes must be reusable.
    for k in 0..30u64 {
        t.insert(pm, k, k + 1000).unwrap_or_else(|e| panic!("{label}: reinsert {k}: {e}"));
    }
    assert_eq!(t.len(pm), 60, "{label}");
    for k in 0..30u64 {
        assert_eq!(t.get(pm, &k), Some(k + 1000), "{label}: reinserted {k}");
    }
    t.check_consistency(pm).unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// Fill until `TableFull`; the table must fail gracefully and keep every
/// key it accepted.
fn full_table<S: HashScheme<SimPmem, u64, u64>>(pm: &mut SimPmem, t: &mut S) {
    let label = t.name();
    let cap = t.capacity();
    let mut stored = Vec::new();
    for k in 0..20 * cap {
        // Odd-multiplier bijection keeps the keys distinct but scrambled.
        let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        match t.insert(pm, key, k) {
            Ok(()) => stored.push((key, k)),
            Err(InsertError::TableFull) => break,
            Err(e) => panic!("{label}: unexpected {e}"),
        }
        assert!((k as usize) < 2 * cap as usize + 16, "{label}: never reported full");
    }
    assert_eq!(t.len(pm), stored.len() as u64, "{label}");
    assert!(t.len(pm) <= cap, "{label}: len above capacity");
    assert!(
        stored.len() as u64 >= cap / 5,
        "{label}: gave up at {} of {cap} cells",
        stored.len()
    );
    for (key, v) in &stored {
        assert_eq!(t.get(pm, key), Some(*v), "{label}: key {key} lost during fill");
    }
    t.check_consistency(pm).unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// Contents survive a drop + reopen of the pool bytes.
fn persists_across_reopen<S: HashScheme<SimPmem, u64, u64>>(
    mk: impl Fn() -> (SimPmem, S),
    open: impl Fn(&mut SimPmem) -> S,
) {
    let (mut pm, mut t) = mk();
    for k in 0..40u64 {
        t.insert(&mut pm, k, k * 7).unwrap();
    }
    t.remove(&mut pm, &11);
    let label = t.name();
    drop(t);

    let mut t = open(&mut pm);
    t.recover(&mut pm);
    assert_eq!(t.len(&pm), 39, "{label}");
    for k in 0..40u64 {
        let want = if k == 11 { None } else { Some(k * 7) };
        assert_eq!(t.get(&pm, &k), want, "{label}: key {k} after reopen");
    }
    t.check_consistency(&pm).unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// Crash at every pmem event inside one `op`, then reopen + recover. After
/// recovery the structure must satisfy its invariants and all pre-existing
/// keys must be intact; `check` sees the recovered table to assert the
/// op-specific all-or-nothing visibility.
fn crash_loop<S: HashScheme<SimPmem, u64, u64>>(
    mk: impl Fn() -> (SimPmem, S),
    open: impl Fn(&mut SimPmem) -> S,
    op: impl Fn(&mut SimPmem, &mut S),
    check: impl Fn(&mut SimPmem, &S, u64),
) {
    let (mut pm0, mut t0) = mk();
    for k in 0..20u64 {
        t0.insert(&mut pm0, k, k + 100).unwrap();
    }
    let label = t0.name();
    drop(t0);

    for at in 0u64.. {
        assert!(at < 4096, "{label}: crash loop never finished");
        let mut pm = pm0.clone();
        let mut t = open(&mut pm);
        let base = pm.events();
        pm.set_crash_plan(Some(CrashPlan { at_event: base + at }));
        let done = run_with_crash(|| op(&mut pm, &mut t)).is_ok();
        if done {
            break;
        }
        pm.crash(CrashResolution::Random(at));
        let mut t = open(&mut pm);
        t.recover(&mut pm);
        t.check_consistency(&pm)
            .unwrap_or_else(|e| panic!("{label}: crash at +{at}: {e}"));
        for k in 0..20u64 {
            if k != 13 {
                assert_eq!(
                    t.get(&pm, &k),
                    Some(k + 100),
                    "{label}: pre-existing key {k} damaged by crash at +{at}"
                );
            }
        }
        check(&mut pm, &t, at);
    }
}

/// Batch API contract: roundtrip, empty batches, duplicate keys in a
/// remove batch, and absent keys counting zero.
fn batch_ops<S: HashScheme<SimPmem, u64, u64>>(pm: &mut SimPmem, t: &mut S) {
    let label = t.name();
    t.insert_batch(pm, &[]).unwrap_or_else(|e| panic!("{label}: empty batch: {e}"));
    let items: Vec<(u64, u64)> = (0..48u64).map(|k| (k, k * 3)).collect();
    t.insert_batch(pm, &items).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(t.len(pm), 48, "{label}");
    for (k, v) in &items {
        assert_eq!(t.get(pm, k), Some(*v), "{label}: key {k}");
    }
    assert_eq!(t.remove_batch(pm, &[]), 0, "{label}: empty remove batch");
    // Duplicates and absent keys: each present key counts exactly once.
    assert_eq!(t.remove_batch(pm, &[0, 1, 1, 999, 2]), 3, "{label}");
    for k in [0u64, 1, 2] {
        assert_eq!(t.get(pm, &k), None, "{label}: removed {k}");
    }
    assert_eq!(t.len(pm), 45, "{label}");
    t.check_consistency(pm).unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// Batch insert into a table too small for the batch: the error reports
/// the committed prefix, which is durably stored; nothing after it is.
fn batch_full_table<S: HashScheme<SimPmem, u64, u64>>(pm: &mut SimPmem, t: &mut S) {
    let label = t.name();
    let cap = t.capacity();
    let items: Vec<(u64, u64)> = (0..2 * cap + 16)
        .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1, k))
        .collect();
    let err = t.insert_batch(pm, &items).unwrap_err();
    assert_eq!(err.error, InsertError::TableFull, "{label}");
    assert_eq!(t.len(pm), err.committed as u64, "{label}: committed prefix");
    for (k, v) in &items[..err.committed] {
        assert_eq!(t.get(pm, k), Some(*v), "{label}: committed key {k} lost");
    }
    t.check_consistency(pm).unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// Keys used by the crash-batch drivers. Inserted fresh by
/// [`crash_insert_batch`]; a subset of the seeded keys for
/// [`crash_remove_batch`].
const INSERT_BATCH: [u64; 6] = [500, 501, 502, 503, 504, 505];
const REMOVE_BATCH: [u64; 5] = [3, 6, 9, 12, 15];

/// Crash at every pmem event inside a multi-op batch `op`, then reopen +
/// recover; the recovered table must satisfy its invariants and `check`
/// asserts the batch's prefix-durability contract.
fn crash_batch_loop<S: HashScheme<SimPmem, u64, u64>>(
    mk: impl Fn() -> (SimPmem, S),
    open: impl Fn(&mut SimPmem) -> S,
    op: impl Fn(&mut SimPmem, &mut S),
    check: impl Fn(&mut SimPmem, &S, u64),
) {
    let (mut pm0, mut t0) = mk();
    for k in 0..20u64 {
        t0.insert(&mut pm0, k, k + 100).unwrap();
    }
    let label = t0.name();
    drop(t0);

    for at in 0u64.. {
        assert!(at < 8192, "{label}: crash loop never finished");
        let mut pm = pm0.clone();
        let mut t = open(&mut pm);
        let base = pm.events();
        pm.set_crash_plan(Some(CrashPlan { at_event: base + at }));
        let done = run_with_crash(|| op(&mut pm, &mut t)).is_ok();
        if done {
            break;
        }
        pm.crash(CrashResolution::Random(at));
        let mut t = open(&mut pm);
        t.recover(&mut pm);
        t.check_consistency(&pm)
            .unwrap_or_else(|e| panic!("{label}: crash at +{at}: {e}"));
        check(&mut pm, &t, at);
    }
}

/// Crash-during-`insert_batch`: some *prefix* of the batch is durable —
/// never a gap in the middle, never a torn op — and every pre-existing
/// key survives.
fn crash_insert_batch<S: HashScheme<SimPmem, u64, u64>>(
    mk: impl Fn() -> (SimPmem, S),
    open: impl Fn(&mut SimPmem) -> S,
) {
    crash_batch_loop(
        mk,
        open,
        |pm, t| {
            let items: Vec<(u64, u64)> = INSERT_BATCH.iter().map(|&k| (k, k + 7)).collect();
            t.insert_batch(pm, &items).unwrap();
        },
        |pm, t, at| {
            let label = t.name();
            for k in 0..20u64 {
                assert_eq!(
                    t.get(pm, &k),
                    Some(k + 100),
                    "{label}: pre-existing key {k} damaged by crash at +{at}"
                );
            }
            let present: Vec<bool> = INSERT_BATCH
                .iter()
                .map(|&k| match t.get(pm, &k) {
                    None => false,
                    Some(v) => {
                        assert_eq!(v, k + 7, "{label}: torn value for {k} at +{at}");
                        true
                    }
                })
                .collect();
            let prefix = present.iter().take_while(|&&p| p).count();
            assert!(
                present[prefix..].iter().all(|&p| !p),
                "{label}: non-prefix durability at +{at}: {present:?}"
            );
        },
    );
}

/// Crash-during-`remove_batch`: some *prefix* of the batch's keys is gone,
/// the rest are fully intact, and untouched keys always survive.
fn crash_remove_batch<S: HashScheme<SimPmem, u64, u64>>(
    mk: impl Fn() -> (SimPmem, S),
    open: impl Fn(&mut SimPmem) -> S,
) {
    crash_batch_loop(
        mk,
        open,
        |pm, t| {
            assert_eq!(t.remove_batch(pm, &REMOVE_BATCH), REMOVE_BATCH.len());
        },
        |pm, t, at| {
            let label = t.name();
            for k in 0..20u64 {
                if REMOVE_BATCH.contains(&k) {
                    continue;
                }
                assert_eq!(
                    t.get(pm, &k),
                    Some(k + 100),
                    "{label}: untouched key {k} damaged by crash at +{at}"
                );
            }
            let removed: Vec<bool> = REMOVE_BATCH
                .iter()
                .map(|&k| match t.get(pm, &k) {
                    None => true,
                    Some(v) => {
                        assert_eq!(v, k + 100, "{label}: torn value for {k} at +{at}");
                        false
                    }
                })
                .collect();
            let prefix = removed.iter().take_while(|&&r| r).count();
            assert!(
                removed[prefix..].iter().all(|&r| !r),
                "{label}: non-prefix removal at +{at}: {removed:?}"
            );
        },
    );
}

/// Vectorized reads: `get_batch` must equal N sequential `get`s — same
/// hits, same misses, answers in input order, duplicates allowed — and
/// stay a pure read (zero persistence events), whatever pipeline the
/// scheme overrides it with.
fn get_batch_matches_gets<S: HashScheme<SimPmem, u64, u64>>(pm: &mut SimPmem, t: &mut S) {
    let label = t.name();
    for k in 0..120u64 {
        t.insert(pm, k, k.wrapping_mul(31))
            .unwrap_or_else(|e| panic!("{label}: insert {k}: {e}"));
    }
    // Tombstoned keys probe differently from never-present ones; cover both.
    for k in 0..40u64 {
        assert!(t.remove(pm, &(k * 3)), "{label}: remove {}", k * 3);
    }
    let keys: Vec<u64> = (0..160u64).chain([7, 7, 100_000, 3]).collect();
    assert!(t.get_batch(pm, &[]).is_empty(), "{label}: empty batch");
    let base = pm.stats();
    let batch = t.get_batch(pm, &keys);
    let spent = pm.stats().delta_since(&base);
    assert_eq!(
        (spent.flushes, spent.fences, spent.atomic_writes, spent.writes),
        (0, 0, 0, 0),
        "{label}: get_batch performed persistence events"
    );
    assert_eq!(batch.len(), keys.len(), "{label}");
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(batch[i], t.get(pm, k), "{label}: key {k} at position {i}");
    }
}

/// Crash-during-insert: the new key is either fully present or absent.
fn crash_insert<S: HashScheme<SimPmem, u64, u64>>(
    mk: impl Fn() -> (SimPmem, S),
    open: impl Fn(&mut SimPmem) -> S,
) {
    crash_loop(
        mk,
        open,
        |pm, t| {
            t.insert(pm, 500, 77).unwrap();
        },
        |pm, t, at| {
            let got = t.get(pm, &500);
            assert!(
                got.is_none() || got == Some(77),
                "{}: torn insert visible at +{at}: {got:?}",
                t.name()
            );
        },
    );
}

/// Crash-during-remove: the victim is either fully present or fully gone.
fn crash_remove<S: HashScheme<SimPmem, u64, u64>>(
    mk: impl Fn() -> (SimPmem, S),
    open: impl Fn(&mut SimPmem) -> S,
) {
    crash_loop(
        mk,
        open,
        |pm, t| {
            assert!(t.remove(pm, &13));
        },
        |pm, t, at| {
            let got = t.get(pm, &13);
            assert!(
                got.is_none() || got == Some(113),
                "{}: torn remove visible at +{at}: {got:?}",
                t.name()
            );
        },
    );
}

// ------------------------------------------------------------- group hash

#[test]
fn group_basic_ops() {
    for mode in MODES {
        let (mut pm, mut t) = group_pool(mode, 256);
        basic_ops(&mut pm, &mut t);
    }
}

#[test]
fn group_full_table() {
    for mode in MODES {
        let (mut pm, mut t) = group_pool(mode, 64);
        full_table(&mut pm, &mut t);
    }
}

#[test]
fn group_reopen() {
    for mode in MODES {
        persists_across_reopen(|| group_pool(mode, 256), group_open);
    }
}

#[test]
fn group_crash_insert() {
    for mode in MODES {
        crash_insert(|| group_pool(mode, 256), group_open);
    }
}

#[test]
fn group_crash_remove() {
    // Group hashing is failure-atomic in both modes: the 8-byte bitmap
    // commit (AtomicBitmap) or the undo log makes removal all-or-nothing.
    for mode in MODES {
        crash_remove(|| group_pool(mode, 256), group_open);
    }
}

#[test]
fn group_batch_ops() {
    for mode in MODES {
        let (mut pm, mut t) = group_pool(mode, 256);
        batch_ops(&mut pm, &mut t);
    }
}

#[test]
fn group_batch_full_table() {
    for mode in MODES {
        let (mut pm, mut t) = group_pool(mode, 64);
        batch_full_table(&mut pm, &mut t);
    }
}

#[test]
fn group_crash_insert_batch() {
    for mode in MODES {
        crash_insert_batch(|| group_pool(mode, 256), group_open);
    }
}

#[test]
fn group_crash_remove_batch() {
    for mode in MODES {
        crash_remove_batch(|| group_pool(mode, 256), group_open);
    }
}

/// The tentpole's headline number, pinned: a K-op insert batch costs one
/// drain fence + one per-op commit fence + one count fence — K + 2 total,
/// against 3K for K single ops (3 → 1 + 2/K fences per op).
#[test]
fn group_batch_of_64_inserts_pins_k_plus_two_fences() {
    let (mut pm, mut t) = group_pool(ConsistencyMode::None, 256);
    let items: Vec<(u64, u64)> = (0..64u64).map(|k| (k, k * 9)).collect();
    let base = pm.stats();
    t.insert_batch(&mut pm, &items).unwrap();
    let spent = pm.stats().delta_since(&base);
    assert!(spent.fences <= 64 + 2, "fences {} > K+2", spent.fences);
    assert_eq!(spent.fences, 64 + 2, "drain + 64 bit flips + count");
    assert_eq!(spent.flushes, 2 * 64 + 1, "64 cells + 64 words + count");
    assert_eq!(spent.atomic_writes, 64 + 1, "64 bits + count");
    for (k, v) in &items {
        assert_eq!(t.get(&pm, k), Some(*v));
    }
}

#[test]
fn group_get_batch_matches_gets() {
    // Both consistency modes × both fingerprint-cache modes: the tag-first
    // SWAR path and the key-first path must both match sequential gets.
    for mode in MODES {
        for fp in [FpMode::Off, FpMode::On] {
            let (mut pm, mut t) = group_pool_fp(mode, 256, fp);
            get_batch_matches_gets(&mut pm, &mut t);
        }
    }
}

// --------------------------------------------------------- linear probing

#[test]
fn linear_basic_ops() {
    for mode in MODES {
        let (mut pm, mut t) = linear_pool(mode, 256);
        basic_ops(&mut pm, &mut t);
    }
}

#[test]
fn linear_full_table() {
    for mode in MODES {
        let (mut pm, mut t) = linear_pool(mode, 64);
        full_table(&mut pm, &mut t);
    }
}

#[test]
fn linear_reopen() {
    for mode in MODES {
        persists_across_reopen(|| linear_pool(mode, 256), linear_open);
    }
}

#[test]
fn linear_crash_insert() {
    // A bare linear insert persists the cell before publishing its bitmap
    // bit, so even `ConsistencyMode::None` recovers cleanly.
    for mode in MODES {
        crash_insert(|| linear_pool(mode, 256), linear_open);
    }
}

#[test]
fn linear_crash_remove() {
    // Backward-shift deletion moves cells; only the logged variant is
    // all-or-nothing (the paper's point about the bare scheme).
    crash_remove(
        || linear_pool(ConsistencyMode::UndoLog, 256),
        linear_open,
    );
}

#[test]
fn linear_batch_ops() {
    for mode in MODES {
        let (mut pm, mut t) = linear_pool(mode, 256);
        batch_ops(&mut pm, &mut t);
    }
}

#[test]
fn linear_batch_full_table() {
    for mode in MODES {
        let (mut pm, mut t) = linear_pool(mode, 64);
        batch_full_table(&mut pm, &mut t);
    }
}

#[test]
fn linear_crash_insert_batch() {
    for mode in MODES {
        crash_insert_batch(|| linear_pool(mode, 256), linear_open);
    }
}

#[test]
fn linear_crash_remove_batch() {
    // remove_batch falls back to per-op backward-shift deletes, so the
    // same logged-only rule as `linear_crash_remove` applies.
    crash_remove_batch(|| linear_pool(ConsistencyMode::UndoLog, 256), linear_open);
}

#[test]
fn linear_get_batch_matches_gets() {
    for mode in MODES {
        let (mut pm, mut t) = linear_pool(mode, 256);
        get_batch_matches_gets(&mut pm, &mut t);
    }
}

// ------------------------------------------------------------------- pfht

#[test]
fn pfht_basic_ops() {
    for mode in MODES {
        let (mut pm, mut t) = pfht_pool(mode, 64);
        basic_ops(&mut pm, &mut t);
    }
}

#[test]
fn pfht_full_table() {
    for mode in MODES {
        let (mut pm, mut t) = pfht_pool(mode, 16);
        full_table(&mut pm, &mut t);
    }
}

#[test]
fn pfht_reopen() {
    for mode in MODES {
        persists_across_reopen(|| pfht_pool(mode, 64), pfht_open);
    }
}

#[test]
fn pfht_crash_insert() {
    // At this fill level no displacement triggers, so the bare mode's
    // cell-then-bit publish order is crash-safe too.
    for mode in MODES {
        crash_insert(|| pfht_pool(mode, 64), pfht_open);
    }
}

#[test]
fn pfht_crash_remove() {
    crash_remove(|| pfht_pool(ConsistencyMode::UndoLog, 64), pfht_open);
}

#[test]
fn pfht_batch_ops() {
    for mode in MODES {
        let (mut pm, mut t) = pfht_pool(mode, 64);
        batch_ops(&mut pm, &mut t);
    }
}

#[test]
fn pfht_batch_full_table() {
    for mode in MODES {
        let (mut pm, mut t) = pfht_pool(mode, 16);
        batch_full_table(&mut pm, &mut t);
    }
}

#[test]
fn pfht_crash_insert_batch() {
    // At this fill level every batch key finds a free bucket slot, so the
    // whole batch stages (no displacement fallback) in both modes.
    for mode in MODES {
        crash_insert_batch(|| pfht_pool(mode, 64), pfht_open);
    }
}

#[test]
fn pfht_crash_remove_batch() {
    crash_remove_batch(|| pfht_pool(ConsistencyMode::UndoLog, 64), pfht_open);
}

#[test]
fn pfht_get_batch_matches_gets() {
    for mode in MODES {
        let (mut pm, mut t) = pfht_pool(mode, 64);
        get_batch_matches_gets(&mut pm, &mut t);
    }
}

// ------------------------------------------------------------ path hashing

#[test]
fn path_basic_ops() {
    for mode in MODES {
        let (mut pm, mut t) = path_pool(mode, 8);
        basic_ops(&mut pm, &mut t);
    }
}

#[test]
fn path_full_table() {
    for mode in MODES {
        let (mut pm, mut t) = path_pool(mode, 6);
        full_table(&mut pm, &mut t);
    }
}

#[test]
fn path_reopen() {
    for mode in MODES {
        persists_across_reopen(|| path_pool(mode, 8), path_open);
    }
}

#[test]
fn path_crash_insert() {
    for mode in MODES {
        crash_insert(|| path_pool(mode, 8), path_open);
    }
}

#[test]
fn path_crash_remove() {
    crash_remove(|| path_pool(ConsistencyMode::UndoLog, 8), path_open);
}

#[test]
fn path_batch_ops() {
    for mode in MODES {
        let (mut pm, mut t) = path_pool(mode, 8);
        batch_ops(&mut pm, &mut t);
    }
}

#[test]
fn path_batch_full_table() {
    for mode in MODES {
        let (mut pm, mut t) = path_pool(mode, 6);
        batch_full_table(&mut pm, &mut t);
    }
}

#[test]
fn path_crash_insert_batch() {
    // Path's small undo log (4 ops/txn for u64 cells) splits the 6-op
    // batch into two chunks under UndoLog — chunk boundaries are also
    // valid prefix points, so the same assertion covers both modes.
    for mode in MODES {
        crash_insert_batch(|| path_pool(mode, 8), path_open);
    }
}

#[test]
fn path_crash_remove_batch() {
    crash_remove_batch(|| path_pool(ConsistencyMode::UndoLog, 8), path_open);
}

#[test]
fn path_get_batch_matches_gets() {
    for mode in MODES {
        let (mut pm, mut t) = path_pool(mode, 8);
        get_batch_matches_gets(&mut pm, &mut t);
    }
}

// ---------------------------------------------------------------- iceberg

#[test]
fn iceberg_basic_ops() {
    for mode in MODES {
        for meta in META_MODES {
            let (mut pm, mut t) = iceberg_pool_meta(mode, 256, meta);
            basic_ops(&mut pm, &mut t);
        }
    }
}

#[test]
fn iceberg_full_table() {
    for mode in MODES {
        for meta in META_MODES {
            let (mut pm, mut t) = iceberg_pool_meta(mode, 64, meta);
            full_table(&mut pm, &mut t);
        }
    }
}

#[test]
fn iceberg_reopen() {
    for mode in MODES {
        for meta in META_MODES {
            persists_across_reopen(|| iceberg_pool_meta(mode, 256, meta), iceberg_open);
        }
    }
}

#[test]
fn iceberg_crash_insert() {
    // Stability means an insert is a pure publish (cell bytes, then the
    // 8-byte bit flip) — crash-safe in both modes, like linear's insert.
    for mode in MODES {
        crash_insert(|| iceberg_pool(mode, 256), iceberg_open);
    }
}

#[test]
fn iceberg_crash_remove() {
    // Unlike every displacement baseline, iceberg's remove is a pure
    // retract (no backward-shift, no re-home) — so the *bare* mode is
    // crash-atomic too, and both modes run the loop.
    for mode in MODES {
        crash_remove(|| iceberg_pool(mode, 256), iceberg_open);
    }
}

#[test]
fn iceberg_batch_ops() {
    for mode in MODES {
        for meta in META_MODES {
            let (mut pm, mut t) = iceberg_pool_meta(mode, 256, meta);
            batch_ops(&mut pm, &mut t);
        }
    }
}

#[test]
fn iceberg_batch_full_table() {
    for mode in MODES {
        let (mut pm, mut t) = iceberg_pool(mode, 64);
        batch_full_table(&mut pm, &mut t);
    }
}

#[test]
fn iceberg_crash_insert_batch() {
    // No displacement fallback exists, so the whole batch always stages
    // and the prefix points are exactly the staged-commit boundaries.
    for mode in MODES {
        crash_insert_batch(|| iceberg_pool(mode, 256), iceberg_open);
    }
}

#[test]
fn iceberg_crash_remove_batch() {
    // Pure retracts: both modes hold prefix durability, not just -L.
    for mode in MODES {
        crash_remove_batch(|| iceberg_pool(mode, 256), iceberg_open);
    }
}

#[test]
fn iceberg_get_batch_matches_gets() {
    // Both consistency modes × both metadata modes: the SWAR tag-word
    // path and the occupancy-scan path must both match sequential gets.
    for mode in MODES {
        for meta in META_MODES {
            let (mut pm, mut t) = iceberg_pool_meta(mode, 256, meta);
            get_batch_matches_gets(&mut pm, &mut t);
        }
    }
}
