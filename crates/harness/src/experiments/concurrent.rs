//! Concurrent throughput of the `Store`: lock-free reads, group-committed
//! writes.
//!
//! Two sweeps over a [`Store`] of [`SHARDS`] simulator shards:
//!
//! * **Readers** (`concurrent.csv`): pre-populate, then sweep
//!   reader-thread counts with and without a background writer. `get`
//!   takes no lock — an optimistic probe through the shard's
//!   [`KvReadView`](nvm_kv::KvReadView), validated by its seqlock.
//! * **Writers** (`concurrent_writers.csv`): sweep writer-thread counts
//!   W ∈ {1, 2, 4, 8} of `set`s over disjoint key ranges. A writer
//!   stages its op and pumps; whoever leads a shard's pump commits every
//!   op staged there as one group commit. Per-op latency is recorded
//!   (p50/p95/p99) alongside the commit counters: batches, ops per batch
//!   and fences per set.
//!
//! Invariants checked on every run (and surfaced as counters so the
//! acceptance tests can pin them to zero):
//!
//! * no **phantom miss** — every pre-populated key must stay visible even
//!   mid-overwrite, because an overwrite swaps the index pointer in place;
//! * no **torn value** — values encode `(key << 20) | round`, so a reader
//!   observing a value whose key bits mismatch caught a half-applied
//!   overwrite (or a reused blob slot) that the seqlock should have
//!   rejected;
//! * no **lost update** — after the writer sweep every key must hold
//!   exactly the value its writer committed.

use crate::experiments::runner::experiment_json;
use crate::tablefmt::{count, emit_json, Table};
use crate::{Args, TraceKind};
use nvm_kv::{Store, StoreBuilder};
use nvm_metrics::{Histogram, Json};
use nvm_pmem::{SimConfig, SimPmem};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Reader thread counts swept.
pub const READERS: [usize; 4] = [1, 2, 4, 8];
/// Writer thread counts swept (0 isolates the uncontended read path).
pub const WRITERS: [usize; 2] = [0, 1];
/// Writer thread counts swept in the write-scaling arms.
pub const WRITER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shards in the store under test.
pub const SHARDS: usize = 8;

/// Value encoding: the key in the high bits, the writer's round in the
/// low [`ROUND_BITS`], so readers can detect torn values.
const ROUND_BITS: u32 = 20;

fn encode(key: u64, round: u64) -> [u8; 8] {
    ((key << ROUND_BITS) | (round & ((1 << ROUND_BITS) - 1))).to_le_bytes()
}

fn decode(v: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(v.try_into().ok()?))
}

fn key(k: u64) -> [u8; 8] {
    k.to_le_bytes()
}

/// A fresh simulator-backed store sized for `items` 8-byte values.
fn store(items: u64, seed: u64) -> Store<SimPmem> {
    StoreBuilder::new()
        .capacity(items, 64)
        .shards(SHARDS)
        .seed(seed)
        .create_sim(SimConfig::fast_test())
        .unwrap()
}

/// One (readers, writers) arm: wall-clock read throughput and the
/// seqlock retries accumulated during the arm.
#[derive(Debug, Clone, Copy)]
pub struct RunData {
    pub readers: usize,
    pub writers: usize,
    /// Total lookups completed across all reader threads.
    pub reads: u64,
    /// Lookups that returned a missing key (must stay 0).
    pub phantom_misses: u64,
    /// Lookups that returned a value with mismatched key bits (must stay 0).
    pub torn_values: u64,
    /// Overwrites completed by the writer threads.
    pub writes: u64,
    /// Wall-clock duration of the read phase.
    pub wall_ns: u64,
    /// Optimistic reads that overlapped a write section and re-ran.
    pub seqlock_retries: u64,
}

impl RunData {
    /// Aggregate lookups per second across all reader threads.
    pub fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Per-thread lookup rate — flat across the sweep iff reads scale.
    pub fn reads_per_thread_per_sec(&self) -> f64 {
        self.reads_per_sec() / self.readers.max(1) as f64
    }
}

/// Builds the store, pre-populates `n_keys`, then runs `readers` lookup
/// threads (each doing `reads_per_thread` gets over the key space) while
/// `writers` threads cycle overwrites until the readers finish.
fn run_one(
    readers: usize,
    writers: usize,
    n_keys: u64,
    seed: u64,
    reads_per_thread: usize,
) -> RunData {
    let s = store(2 * n_keys, seed);
    let items: Vec<([u8; 8], [u8; 8])> = (0..n_keys).map(|k| (key(k), encode(k, 0))).collect();
    let refs: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
    s.set_batch(&refs).unwrap();

    let stop = AtomicBool::new(false);
    let writes = AtomicU64::new(0);
    let phantom = AtomicU64::new(0);
    let torn = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|sc| {
        for _ in 0..writers {
            sc.spawn(|| {
                let mut round = 1u64;
                let mut done = 0u64;
                'outer: loop {
                    for k in 0..n_keys {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        s.set(&key(k), &encode(k, round)).unwrap();
                        done += 1;
                    }
                    round += 1;
                }
                writes.fetch_add(done, Ordering::Relaxed);
            });
        }
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let (phantom, torn) = (&phantom, &torn);
                let view = s.read_view();
                sc.spawn(move || {
                    // Each reader walks the key space at its own odd
                    // stride, so threads do not probe in lockstep.
                    let stride = 2 * r as u64 + 1;
                    let mut k = r as u64 % n_keys.max(1);
                    for _ in 0..reads_per_thread {
                        match view.get(&key(k)) {
                            None => {
                                phantom.fetch_add(1, Ordering::Relaxed);
                            }
                            Some(v) if decode(&v).map(|v| v >> ROUND_BITS) != Some(k) => {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                            Some(_) => {}
                        }
                        k = (k + stride) % n_keys.max(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let wall_ns = start.elapsed().as_nanos() as u64;

    s.check_consistency().unwrap();
    RunData {
        readers,
        writers,
        reads: (readers * reads_per_thread) as u64,
        phantom_misses: phantom.load(Ordering::Relaxed),
        torn_values: torn.load(Ordering::Relaxed),
        writes: writes.load(Ordering::Relaxed),
        wall_ns,
        seqlock_retries: s.seqlock_retries(),
    }
}

/// One writer-scaling arm: wall-clock set throughput, per-op latency
/// quantiles, and the group-commit counters for the arm.
#[derive(Debug, Clone, Copy)]
pub struct WriterRunData {
    pub writers: usize,
    /// Total sets committed across all writer threads.
    pub sets: u64,
    /// Keys whose post-run value differs from what their writer committed
    /// (must stay 0 — a lost or torn update).
    pub lost_updates: u64,
    /// Wall-clock duration of the set phase.
    pub wall_ns: u64,
    /// Per-set latency quantiles (nanoseconds), merged across threads.
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
    /// Group commits that carried the sets.
    pub batches: u64,
    /// Fences issued across all shard pools during the set phase.
    pub fences: u64,
}

impl WriterRunData {
    /// Aggregate sets per second across all writer threads.
    pub fn sets_per_sec(&self) -> f64 {
        self.sets as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Mean group-commit size.
    pub fn ops_per_batch(&self) -> f64 {
        self.sets as f64 / self.batches.max(1) as f64
    }

    /// Fences per committed set — below the ~3 of an uncoalesced insert
    /// whenever writers share commits.
    pub fn fences_per_set(&self) -> f64 {
        self.fences as f64 / self.sets.max(1) as f64
    }
}

/// Runs `writers` threads setting disjoint key ranges (`total` sets
/// split evenly). Values encode `(key, writer)` so the post-run sweep
/// detects any lost or torn update exactly.
fn run_writers_one(writers: usize, seed: u64, total: u64) -> WriterRunData {
    let s = store(total, seed);
    s.reset_pmem_stats();

    let per_thread = total / writers as u64;
    let start = Instant::now();
    let hists: Vec<Histogram> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..writers as u64)
            .map(|w| {
                let s = &s;
                sc.spawn(move || {
                    let h = Histogram::latency_ns();
                    let base = w * per_thread;
                    for k in base..base + per_thread {
                        let t0 = Instant::now();
                        s.set(&key(k), &encode(k, w)).unwrap();
                        h.record(t0.elapsed().as_nanos() as u64);
                    }
                    h
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let fences = s.pmem_stats().fences;

    let mut lost = 0u64;
    for w in 0..writers as u64 {
        let base = w * per_thread;
        for k in base..base + per_thread {
            if s.get(&key(k)).as_deref() != Some(&encode(k, w)[..]) {
                lost += 1;
            }
        }
    }
    s.check_consistency().unwrap();

    let merged = Histogram::latency_ns();
    for h in &hists {
        merged.merge(h);
    }
    let c = s.counters();
    WriterRunData {
        writers,
        sets: c.sets,
        lost_updates: lost,
        wall_ns,
        p50_ns: merged.p50(),
        p95_ns: merged.p95(),
        p99_ns: merged.p99(),
        batches: c.batches,
        fences,
    }
}

/// All writer-scaling arms, W ∈ [`WRITER_COUNTS`].
pub fn collect_writers(args: &Args) -> Vec<WriterRunData> {
    // Same total work per arm (half the cell budget), so arm wall-clocks
    // compare directly.
    let total = args.cells_for(TraceKind::RandomNum) / 2;
    WRITER_COUNTS
        .iter()
        .map(|&writers| run_writers_one(writers, args.seed, total))
        .collect()
}

/// The writer sweep's JSON metrics document, including the W=4 over W=1
/// throughput ratio. (Recorded, not asserted: on a host with fewer cores
/// than writers the arms time-slice and the ratio hovers near 1.)
pub fn writer_metrics_json(data: &[WriterRunData]) -> Json {
    let runs = data
        .iter()
        .map(|r| {
            let mut j = Json::obj();
            j.insert("writers", r.writers as u64);
            j.insert("sets", r.sets);
            j.insert("lost_updates", r.lost_updates);
            j.insert("wall_ns", r.wall_ns);
            j.insert("sets_per_sec", r.sets_per_sec());
            j.insert("p50_ns", r.p50_ns);
            j.insert("p95_ns", r.p95_ns);
            j.insert("p99_ns", r.p99_ns);
            j.insert("batches", r.batches);
            j.insert("ops_per_batch", r.ops_per_batch());
            j.insert("fences", r.fences);
            j.insert("fences_per_set", r.fences_per_set());
            j
        })
        .collect();
    let mut doc = experiment_json("concurrent_writers", runs);
    let rate = |w: usize| {
        data.iter()
            .find(|r| r.writers == w)
            .map(WriterRunData::sets_per_sec)
    };
    if let (Some(w1), Some(w4)) = (rate(1), rate(4)) {
        doc.insert("speedup_w4_over_w1", w4 / w1.max(1e-9));
    }
    doc
}

/// All (readers, writers) arms.
pub fn collect(args: &Args) -> Vec<RunData> {
    // A quarter of the cell budget: probes stay representative.
    let n_keys = (args.cells_for(TraceKind::RandomNum) / 4).min(1u64 << (64 - ROUND_BITS));
    // `--ops` scales the per-thread read count; the default (1000) gives
    // 64k lookups per reader — enough for a stable wall-clock rate
    // without making the sweep slow.
    let reads_per_thread = args.ops.saturating_mul(64);
    let mut out = Vec::new();
    for &writers in &WRITERS {
        for &readers in &READERS {
            out.push(run_one(readers, writers, n_keys, args.seed, reads_per_thread));
        }
    }
    out
}

/// The experiment's JSON metrics document: one run per arm.
pub fn metrics_json(data: &[RunData]) -> Json {
    let runs = data
        .iter()
        .map(|r| {
            let mut j = Json::obj();
            j.insert("readers", r.readers as u64);
            j.insert("writers", r.writers as u64);
            j.insert("reads", r.reads);
            j.insert("phantom_misses", r.phantom_misses);
            j.insert("torn_values", r.torn_values);
            j.insert("writes", r.writes);
            j.insert("wall_ns", r.wall_ns);
            j.insert("reads_per_sec", r.reads_per_sec());
            j.insert("reads_per_thread_per_sec", r.reads_per_thread_per_sec());
            j.insert("seqlock_retries", r.seqlock_retries);
            j
        })
        .collect();
    experiment_json("concurrent", runs)
}

/// Builds the report tables (and writes CSV/JSON when `out_dir` is set).
///
/// The writer sweep's table is emitted here under its own name
/// (`concurrent_writers.csv`) rather than returned, because the binaries
/// emit every returned table under the experiment's single name.
pub fn run(args: &Args) -> Vec<Table> {
    let data = collect(args);
    emit_json(args.out_dir.as_deref(), "concurrent", &metrics_json(&data));

    let wdata = collect_writers(args);
    emit_json(
        args.out_dir.as_deref(),
        "concurrent_writers",
        &writer_metrics_json(&wdata),
    );
    let mut wtable = Table::new(
        "Concurrent writes: Store set scaling under group commit",
        &[
            "writers",
            "sets",
            "sets/s",
            "p50 ns",
            "p95 ns",
            "p99 ns",
            "batches",
            "ops/batch",
            "fences/set",
            "lost updates",
        ],
    );
    for r in &wdata {
        wtable.row(vec![
            r.writers.to_string(),
            count(r.sets as f64),
            count(r.sets_per_sec()),
            count(r.p50_ns),
            count(r.p95_ns),
            count(r.p99_ns),
            count(r.batches as f64),
            count(r.ops_per_batch()),
            count(r.fences_per_set()),
            count(r.lost_updates as f64),
        ]);
    }
    wtable.emit(args.out_dir.as_deref(), "concurrent_writers");

    let mut detail = Table::new(
        "Concurrent reads: lock-free Store get throughput vs reader/writer mix",
        &[
            "readers",
            "writers",
            "reads",
            "reads/s",
            "reads/s/thread",
            "writes",
            "seqlock retries",
        ],
    );
    for r in &data {
        detail.row(vec![
            r.readers.to_string(),
            r.writers.to_string(),
            count(r.reads as f64),
            count(r.reads_per_sec()),
            count(r.reads_per_thread_per_sec()),
            count(r.writes as f64),
            count(r.seqlock_retries as f64),
        ]);
    }
    vec![detail]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: every arm completes with zero phantom misses
    /// and zero torn values, and the writer-free arms never retry (no
    /// writer ever makes a sequence odd).
    #[test]
    fn reads_are_never_phantom_or_torn() {
        let args = Args {
            cells_log2: Some(13),
            ops: 50,
            ..Args::default()
        };
        let data = collect(&args);
        assert_eq!(data.len(), READERS.len() * WRITERS.len());
        for r in &data {
            assert_eq!(r.phantom_misses, 0, "{}r/{}w lost a key", r.readers, r.writers);
            assert_eq!(r.torn_values, 0, "{}r/{}w saw a torn value", r.readers, r.writers);
            assert_eq!(r.reads, (r.readers * 50 * 64) as u64);
            if r.writers == 0 {
                assert_eq!(r.seqlock_retries, 0, "retry without any writer");
            } else {
                assert!(r.writes > 0, "writer made no progress");
            }
        }
    }

    /// The writer sweep's acceptance bar: no arm loses an update, every
    /// set is counted once, and a lone writer commits one op per batch
    /// (nobody to share a group commit with).
    #[test]
    fn writers_never_lose_updates_and_single_writer_commits_alone() {
        let args = Args {
            cells_log2: Some(13),
            ops: 50,
            ..Args::default()
        };
        let data = collect_writers(&args);
        assert_eq!(data.len(), WRITER_COUNTS.len());
        let total = (1u64 << 13) / 2;
        for r in &data {
            assert_eq!(r.lost_updates, 0, "{}w lost an update", r.writers);
            assert_eq!(r.sets, total / r.writers as u64 * r.writers as u64);
            assert!(r.batches >= 1 && r.batches <= r.sets);
            assert!(r.fences > 0);
        }
        let w1 = &data[0];
        assert_eq!(w1.writers, 1);
        assert_eq!(w1.batches, w1.sets, "a lone writer shared a commit");
    }
}
