//! Shared helpers for the wall-clock (criterion) benchmarks.
//!
//! These benches measure what neither the harness experiments nor the
//! `perfbench` suite cover: the design ablations, bulk load, and thread
//! scaling of the shared read and write paths. They run on [`RealPmem`] —
//! a DRAM pool driven by real `clflush`/`mfence` intrinsics plus an
//! emulated NVM write delay. Absolute numbers are machine-specific.
//!
//! [`RealPmem`]: nvm_pmem::RealPmem

use nvm_traces::{RandomNum, Trace};

/// Emulated extra NVM write latency for benches. Shorter than the paper's
/// 300 ns so criterion converges quickly while keeping flushes dominant.
pub const BENCH_NVM_NS: u64 = 100;

/// Fresh keys disjoint from the first `skip` keys of `RandomNum::new(seed)`
/// — drawn from the same generator continued past them.
pub fn fresh_keys(seed: u64, skip: usize, n: usize) -> Vec<u64> {
    let mut trace = RandomNum::new(seed);
    let _ = trace.take_keys(skip);
    trace.take_keys(n)
}
