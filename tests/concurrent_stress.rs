//! Concurrency stress for the `Store` — the workspace's one sharded
//! concurrent table — and the thread-safety boundary of the whole stack.

use group_hashing::core::{GroupHash, GroupHashConfig, HashScheme};
use group_hashing::kv::{KvError, Store, StoreBuilder, StoreError};
use group_hashing::pmem::{Pmem, RealPmem, SimConfig, SimPmem};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Iteration scale factor for the writer stress tests. CI runs the
/// release binary with `NVM_STRESS_ITERS` elevated (see `ci.sh`); the
/// default keeps debug-mode `cargo test` fast.
fn stress_iters(default: u64) -> u64 {
    std::env::var("NVM_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A `Store` over zero-latency `RealPmem` shard pools: real intrinsics,
/// no emulated NVM stall.
fn real_store(shards: usize, items: u64, avg_value: u64) -> Store<RealPmem> {
    StoreBuilder::new()
        .capacity(items, avg_value)
        .shards(shards)
        .create_with(|_, n| RealPmem::with_write_latency(n, 0))
        .unwrap()
}

fn key(k: u64) -> [u8; 8] {
    k.to_le_bytes()
}

/// A 24-byte value that names its key twice around a writer round, so
/// a reader can tell a torn or misdirected blob from a committed one.
fn value(k: u64, round: u64) -> Vec<u8> {
    [k, round, k].iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// The key a [`value`] names, or `None` if its two key words disagree
/// (a torn read) or its length is wrong.
fn value_key(v: &[u8]) -> Option<u64> {
    if v.len() != 24 {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(v[i * 8..i * 8 + 8].try_into().unwrap());
    (word(0) == word(2)).then(|| word(0))
}

/// Heavy mixed workload from many threads against a sharded store on the
/// real-intrinsics backend; afterwards every shard must be structurally
/// consistent and hold exactly the surviving keys.
#[test]
fn sharded_mixed_stress_real_backend() {
    let threads = 8u64;
    let per_thread = 4000u64;
    let store = real_store(8, threads * per_thread, 32);
    let barrier = Arc::new(Barrier::new(threads as usize));
    let survivors = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let store = store.clone();
            let barrier = Arc::clone(&barrier);
            let survivors = Arc::clone(&survivors);
            std::thread::spawn(move || {
                barrier.wait();
                let mut kept = 0u64;
                for i in 0..per_thread {
                    // Disjoint key ranges per thread: deterministic final
                    // state without cross-thread coordination.
                    let k = tid * 1_000_000 + i;
                    store.set(&key(k), &key(k ^ 0xABCD)).unwrap();
                    if i % 3 == 0 {
                        assert_eq!(store.get(&key(k)).as_deref(), Some(&key(k ^ 0xABCD)[..]));
                    }
                    if i % 5 == 0 {
                        assert!(store.delete(&key(k)).unwrap());
                    } else {
                        kept += 1;
                    }
                }
                survivors.fetch_add(kept, Ordering::Relaxed);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(store.len(), survivors.load(Ordering::Relaxed));
    store.check_consistency().unwrap();
    // Spot-check final contents.
    for tid in 0..threads {
        for i in [1u64, 2, 3, 4, 6, 7] {
            let k = tid * 1_000_000 + i;
            assert_eq!(store.get(&key(k)).as_deref(), Some(&key(k ^ 0xABCD)[..]), "key {k}");
        }
        assert_eq!(store.get(&key(tid * 1_000_000)), None); // i % 5 == 0 removed
    }
}

/// The simulator backend is also Send: a whole (pool, table) pair can
/// move to another thread and continue (ownership transfer, the pattern
/// a thread-per-shard service uses).
#[test]
fn sim_pool_moves_across_threads() {
    let cfg = GroupHashConfig::new(256, 32);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = group_hashing::pmem::Region::new(0, size);
    let mut t = GroupHash::<SimPmem, u64, u64>::create(&mut pm, region, cfg).unwrap();
    for k in 0..100u64 {
        t.insert(&mut pm, k, k).unwrap();
    }

    let handle = std::thread::spawn(move || {
        for k in 100..200u64 {
            t.insert(&mut pm, k, k).unwrap();
        }
        (pm, t)
    });
    let (pm, t) = handle.join().unwrap();
    assert_eq!(t.len(&pm), 200);
    t.check_consistency(&pm).unwrap();
}

/// Keys `0..SHARED` stay present for the whole churn.
const SHARED: u64 = 256;
/// Private keys per writer, inserted and deleted every round.
const PRIVATE: u64 = 32;

/// First private key of writer `tid`.
fn private_base(tid: u64) -> u64 {
    (tid + 1) * 1_000_000
}

/// Populates the shared keys, then starts two writers that churn the
/// store for `rounds` rounds. Each round is one pump per writer:
///
/// 1. overwrite the first half of the shared keys — an overwrite is a
///    pointer swap plus a blob free, so every old slot is freed;
/// 2. delete the writer's private keys (inserted the round before) —
///    more freed slots;
/// 3. overwrite the second half of the shared keys, whose new blobs can
///    land in the slots steps 1 and 2 just freed;
/// 4. re-insert the private keys.
///
/// Every value has the same size, so every blob shares one size class
/// and a freed slot is reused inside the same pump. A reader that read
/// a shared key's old pointer before step 1 and its blob after step 3
/// would see another key's bytes — the seqlock must make it retry.
fn churn(store: &Store<RealPmem>, rounds: u64) -> Vec<std::thread::JoinHandle<()>> {
    let shared: Vec<(Vec<u8>, Vec<u8>)> =
        (0..SHARED).map(|k| (key(k).to_vec(), value(k, 0))).collect();
    let refs: Vec<(&[u8], &[u8])> =
        shared.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    store.set_batch(&refs).unwrap();
    (0..2u64)
        .map(|tid| {
            let store = store.clone();
            std::thread::spawn(move || {
                let private = private_base(tid);
                for round in 1..=rounds {
                    let mut tickets = Vec::new();
                    for k in 0..SHARED / 2 {
                        tickets.push(store.stage_set(&key(k), &value(k, round)));
                    }
                    if round > 1 {
                        for k in private..private + PRIVATE {
                            tickets.push(store.stage_delete(&key(k)));
                        }
                    }
                    for k in SHARED / 2..SHARED {
                        tickets.push(store.stage_set(&key(k), &value(k, round)));
                    }
                    for k in private..private + PRIVATE {
                        tickets.push(store.stage_set(&key(k), &value(k, round)));
                    }
                    store.pump();
                    for t in tickets {
                        assert_eq!(t.wait(), Ok(true), "writer {tid} round {round}");
                    }
                }
            })
        })
        .collect()
}

/// After the churn: consistent, and every shared key holds a value that
/// names it.
fn assert_churn_end_state(store: &Store<RealPmem>) {
    store.check_consistency().unwrap();
    for k in 0..SHARED {
        let v = store.get(&key(k)).expect("shared key lost after the stress");
        assert_eq!(value_key(&v), Some(k));
    }
}

/// The seqlock guarantee, stressed on the `Store`: writers overwrite
/// always-present keys (pointer swap + blob free, with the freed slots
/// reused inside the same pump) and insert/delete private keys, while
/// readers spin on lock-free `get`. Readers must never observe a torn
/// value, a phantom miss of an always-present key, or a private hit
/// whose value names another key.
#[test]
fn seqlock_readers_see_no_torn_or_phantom_state() {
    let store = real_store(4, 4096, 32);
    let stop = Arc::new(AtomicU64::new(0));
    let writers = churn(&store, 60);

    let readers: Vec<_> = (0..2u64)
        .map(|rid| {
            let view = store.read_view();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let k = reads * (2 * rid + 1) % SHARED;
                    let v = view.get(&key(k)).expect("phantom miss of a shared key");
                    assert_eq!(value_key(&v), Some(k), "torn value for key {k}: {v:?}");
                    // Private keys may or may not be stored right now,
                    // but a hit must name that key.
                    let p = private_base(reads % 2) + reads % PRIVATE;
                    if let Some(v) = view.get(&key(p)) {
                        assert_eq!(value_key(&v), Some(p), "ghost value for key {p}: {v:?}");
                    }
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    let total_reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_reads > 0);
    assert_churn_end_state(&store);
}

/// The seqlock guarantee for the vectorized read path: the same churn,
/// but readers issue whole `get_batch` calls mixing always-present
/// shared keys, churned private keys and never-present keys. One
/// sequence validation covers each per-shard sub-batch, so every answer
/// must still name its own key (no torn values), every shared key must
/// hit (no phantom misses), and never-present keys must miss (no
/// ghosts).
#[test]
fn seqlock_get_batch_readers_see_no_torn_or_phantom_state() {
    let store = real_store(4, 4096, 32);
    let stop = Arc::new(AtomicU64::new(0));
    let writers = churn(&store, 50);

    let readers: Vec<_> = (0..2u64)
        .map(|rid| {
            let view = store.read_view();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut batches = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    // 64 shared + 16 churned-private + 4 never-present.
                    let ks: Vec<u64> = (0..64u64)
                        .map(|i| (batches * (2 * rid + 1) + i * 7) % SHARED)
                        .chain((0..16u64).map(|i| private_base(i % 2) + (batches + i) % PRIVATE))
                        .chain((0..4u64).map(|i| 5_000_000 + i))
                        .collect();
                    let keys: Vec<[u8; 8]> = ks.iter().map(|&k| key(k)).collect();
                    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                    for (&k, got) in ks.iter().zip(view.get_batch(&refs)) {
                        if k < SHARED {
                            let v = got.expect("phantom miss of a shared key");
                            assert_eq!(value_key(&v), Some(k), "torn value for key {k}: {v:?}");
                        } else if k >= 5_000_000 {
                            assert_eq!(got, None, "ghost hit for never-present key {k}");
                        } else if let Some(v) = got {
                            assert_eq!(value_key(&v), Some(k), "ghost value for key {k}: {v:?}");
                        }
                    }
                    batches += 1;
                }
                batches
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    let total_batches: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_batches > 0);
    assert_churn_end_state(&store);
}

/// The `&self` read refactor must leave single-op persistence budgets
/// byte-identical to the paper's: 3 flushes / 3 fences / 2 atomic
/// writes per insert and per remove, and a `get` that costs no
/// persistence events at all.
#[test]
fn single_op_budgets_unchanged_by_shared_read_refactor() {
    let cfg = GroupHashConfig::new(256, 32);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = group_hashing::pmem::Region::new(0, size);
    let mut t = GroupHash::<SimPmem, u64, u64>::create(&mut pm, region, cfg).unwrap();

    pm.reset_stats();
    t.insert(&mut pm, 7, 700).unwrap();
    let s = pm.stats();
    assert_eq!((s.flushes, s.fences, s.atomic_writes), (3, 3, 2), "insert budget");

    pm.reset_stats();
    assert_eq!(t.get(&pm, &7), Some(700));
    let s = pm.stats();
    assert_eq!((s.flushes, s.fences, s.atomic_writes), (0, 0, 0), "get budget");
    assert_eq!(s.writes, 0, "get must not write");

    pm.reset_stats();
    assert!(t.remove(&mut pm, &7));
    let s = pm.stats();
    assert_eq!((s.flushes, s.fences, s.atomic_writes), (3, 3, 2), "remove budget");
}

/// The vectorized read path inherits the paper's query budget: whatever
/// prefetching and interleaving `get_batch` does, it must cost **zero**
/// flushes, zero fences, zero atomic writes, and zero plain writes —
/// prefetch is a pure hint, not a persistence event.
#[test]
fn get_batch_costs_zero_persistence_events() {
    let cfg = GroupHashConfig::new(256, 32);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = group_hashing::pmem::Region::new(0, size);
    let mut t = GroupHash::<SimPmem, u64, u64>::create(&mut pm, region, cfg).unwrap();
    for k in 0..200u64 {
        t.insert(&mut pm, k, k * 11).unwrap();
    }

    // Positive, negative, and mixed batches all stay event-free.
    let hits: Vec<u64> = (0..128u64).collect();
    let misses: Vec<u64> = (10_000..10_128u64).collect();
    let mixed: Vec<u64> = hits.iter().chain(misses.iter()).copied().collect();
    for keys in [&hits, &misses, &mixed] {
        pm.reset_stats();
        let out = t.get_batch(&pm, keys);
        assert_eq!(out.len(), keys.len());
        let s = pm.stats();
        assert_eq!(
            (s.flushes, s.fences, s.atomic_writes, s.writes),
            (0, 0, 0, 0),
            "get_batch budget"
        );
    }
}

/// Maximum writer contention: eight writers on one shard, so every op
/// funnels through one staged queue, one leader election and one shard
/// mutex. All sets and deletes must land exactly once (disjoint key
/// ranges make the final state deterministic), and the commit counters
/// must account for every op.
#[test]
fn single_shard_contention_loses_no_writes() {
    let per_thread = stress_iters(2000);
    let threads = 8u64;
    let store = real_store(1, threads * per_thread, 32);
    let barrier = Arc::new(Barrier::new(threads as usize));
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let store = store.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    let k = tid * 10_000_000 + i;
                    store.set(&key(k), &key(k ^ 0xF00D)).unwrap();
                    if i % 2 == 0 {
                        assert!(store.delete(&key(k)).unwrap());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let kept = per_thread / 2;
    assert_eq!(store.len(), threads * kept);
    let c = store.counters();
    assert_eq!(c.sets, threads * per_thread);
    assert_eq!(c.deletes, threads * per_thread.div_ceil(2));
    assert!(c.batches <= c.sets + c.deletes);
    store.check_consistency().unwrap();
    for tid in 0..threads {
        for i in 0..per_thread {
            let k = tid * 10_000_000 + i;
            let want = (i % 2 == 1).then(|| key(k ^ 0xF00D).to_vec());
            assert_eq!(store.get(&key(k)), want, "key {k}");
        }
    }
}

/// A single writer has nobody to share a group commit with: every sync
/// `set`/`delete` is exactly one batch of one op, and with no reader
/// racing it no optimistic read ever retries. A refactor that made the
/// writer commit ops twice, or split one op across batches, fails here.
#[test]
fn single_writer_commits_one_op_per_batch() {
    let store = real_store(4, 4096, 32);
    let mut deletes = 0u64;
    let mut sets = 0u64;
    for k in 0..2000u64 {
        store.set(&key(k), &key(k)).unwrap();
        sets += 1;
        if k % 3 == 0 {
            assert!(store.delete(&key(k)).unwrap());
            deletes += 1;
        }
        if k % 7 == 0 {
            store.set(&key(k / 2), &key(k)).unwrap();
            sets += 1;
        }
    }
    let c = store.counters();
    assert_eq!((c.sets, c.deletes), (sets, deletes));
    assert_eq!(c.batches, sets + deletes, "one batch per sync op");
    let h = store.batch_size_histogram();
    assert_eq!(h.count(), c.batches);
    assert_eq!(h.max(), Some(1), "a single writer's batch held several ops");
    assert_eq!(store.seqlock_retries(), 0, "retry without a concurrent reader");
    store.check_consistency().unwrap();
}

/// A shard has a fixed capacity: once its index is full, a `set` of a
/// new key fails with the typed `IndexFull` (the server's `SERVER_ERROR
/// out of memory`) and changes nothing, while concurrent writers keep
/// overflowing it. Every acknowledged write must stay readable with its
/// exact value, every refused key must be absent, and the shard must
/// stay consistent.
#[test]
fn full_shard_reports_index_full_and_keeps_acked_writes() {
    let per_thread = stress_iters(3000);
    let threads = 2u64;
    // The index holds well under what the writers send. Values are 8
    // bytes against a 512-byte sizing hint, so the heap has room for
    // more blobs than the index has cells: the index is what fills.
    let store = real_store(1, per_thread / 2, 512);
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let store = store.clone();
            std::thread::spawn(move || {
                let (mut acked, mut refused) = (Vec::new(), Vec::new());
                for i in 0..per_thread {
                    let k = tid * 10_000_000 + i;
                    match store.set(&key(k), &key(k ^ 0xBEEF)) {
                        Ok(()) => acked.push(k),
                        Err(StoreError::Kv(KvError::IndexFull)) => refused.push(k),
                        Err(e) => panic!("key {k}: unexpected error {e}"),
                    }
                }
                (acked, refused)
            })
        })
        .collect();
    let (mut acked, mut refused) = (Vec::new(), Vec::new());
    for h in handles {
        let (a, r) = h.join().unwrap();
        acked.extend(a);
        refused.extend(r);
    }

    assert!(!refused.is_empty(), "the writers never filled the shard");
    assert_eq!(store.len(), acked.len() as u64);
    assert_eq!(store.counters().sets, acked.len() as u64);
    store.check_consistency().unwrap();
    for &k in &acked {
        assert_eq!(store.get(&key(k)).as_deref(), Some(&key(k ^ 0xBEEF)[..]), "key {k}");
    }
    for &k in &refused {
        assert_eq!(store.get(&key(k)), None, "refused key {k} is visible");
    }
}

/// Concurrent read-heavy workload: many reader threads over a populated
/// sharded store never block each other into inconsistency.
#[test]
fn concurrent_readers_after_bulk_population() {
    let store = real_store(4, 4096, 32);
    let items: Vec<([u8; 8], [u8; 8])> = (0..3000u64).map(|k| (key(k), key(k * 2))).collect();
    let refs: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
    store.set_batch(&refs).unwrap();

    let handles: Vec<_> = (0..6)
        .map(|r| {
            let view = store.read_view();
            std::thread::spawn(move || {
                for pass in 0..5u64 {
                    for k in (r..3000u64).step_by(6) {
                        assert_eq!(
                            view.get(&key(k)).as_deref(),
                            Some(&key(k * 2)[..]),
                            "reader {r} pass {pass}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(store.len(), 3000);
    assert_eq!(store.seqlock_retries(), 0, "retry without any writer");
}
