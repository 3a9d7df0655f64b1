//! Write scaling: concurrent `set`s across threads through the `Store`.
//!
//! Writers stage their ops on a shard's queue and pump; one leader per
//! shard commits everything staged there as one group commit, under the
//! shard mutex and a seqlock write section. This bench measures
//! aggregate throughput at 1, 2, 4, and 8 threads over a
//! `RealPmem`-backed `Store`, for a pure insert workload and a 50/50
//! insert/get mix.
//!
//! Interpreting the numbers: more writers than a shard's commit rate
//! can absorb share commits (fewer fences per set), so throughput can
//! rise with threads even though each shard has one writer at a time;
//! on a host with fewer cores than threads the arms time-slice and the
//! curve flattens.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use nvm_kv::{Store, StoreBuilder};
use nvm_pmem::RealPmem;

const SHARDS: usize = 8;
const OPS_PER_THREAD: u64 = 2048;

fn fresh_store() -> Store<RealPmem> {
    // Zero emulated write latency: the bench isolates the coordination
    // cost (staging, leader election, shard mutex, seqlock bumps), not
    // the 300 ns NVM stall.
    StoreBuilder::new()
        .capacity(8 * OPS_PER_THREAD, 64)
        .shards(SHARDS)
        .create_with(|_, size| RealPmem::with_write_latency(size, 0))
        .expect("create shards")
}

/// Disjoint per-thread key ranges: thread `ti` owns
/// `[ti * OPS_PER_THREAD, (ti + 1) * OPS_PER_THREAD)`.
fn thread_key(ti: usize, i: u64) -> [u8; 8] {
    (ti as u64 * OPS_PER_THREAD + i).to_le_bytes()
}

fn bench_write_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_scaling");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.throughput(Throughput::Elements(threads as u64 * OPS_PER_THREAD));
        g.bench_with_input(
            BenchmarkId::new("insert", threads),
            &threads,
            |b, &nt| {
                b.iter_batched(
                    fresh_store,
                    |s| {
                        std::thread::scope(|sc| {
                            for ti in 0..nt {
                                let s = &s;
                                sc.spawn(move || {
                                    for i in 0..OPS_PER_THREAD {
                                        let k = thread_key(ti, i);
                                        s.set(&k, &k).unwrap();
                                    }
                                });
                            }
                        });
                        s
                    },
                    BatchSize::LargeInput,
                )
            },
        );
        g.bench_with_input(BenchmarkId::new("mixed_50_50", threads), &threads, |b, &nt| {
            b.iter_batched(
                fresh_store,
                |s| {
                    std::thread::scope(|sc| {
                        for ti in 0..nt {
                            let s = &s;
                            sc.spawn(move || {
                                let mut inserted = 0u64;
                                for i in 0..OPS_PER_THREAD {
                                    if i % 2 == 0 {
                                        let k = thread_key(ti, inserted);
                                        s.set(&k, &k).unwrap();
                                        inserted += 1;
                                    } else {
                                        // Read back a key this thread
                                        // already wrote: always a hit.
                                        let k = thread_key(ti, i % inserted);
                                        assert!(s.get(&k).is_some());
                                    }
                                }
                            });
                        }
                    });
                    s
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_write_scaling);
criterion_main!(benches);
