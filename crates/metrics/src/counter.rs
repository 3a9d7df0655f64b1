//! Cheap monotonic counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Saturating add on an atomic (event counts pin at `u64::MAX` rather
/// than wrapping). One `fetch_add`; the add that overflows stores
/// `u64::MAX` back, so a concurrent reader may briefly see the wrapped
/// value, never a final one. Adding 0 touches nothing.
pub(crate) fn saturating_fetch_add(a: &AtomicU64, n: u64) {
    if n == 0 {
        return;
    }
    let prev = a.fetch_add(n, Ordering::Relaxed);
    if prev.checked_add(n).is_none() {
        a.store(u64::MAX, Ordering::Relaxed);
    }
}

/// A monotonically increasing event counter.
///
/// Uses a relaxed [`AtomicU64`] so hot read paths (`get`-style methods
/// taking `&self`) can record without `&mut` plumbing, and so tables that
/// embed counters stay `Sync` for lock-free concurrent readers. These are
/// statistics, not synchronization: all ordering is `Relaxed`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Clone for Counter {
    fn clone(&self) -> Counter {
        Counter(AtomicU64::new(self.get()))
    }
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating; these are event counts, not arithmetic).
    #[inline]
    pub fn add(&self, n: u64) {
        saturating_fetch_add(&self.0, n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// Folds another counter's value into this one (shard aggregation).
    pub fn merge(&self, other: &Counter) {
        self.add(other.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_merges() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let d = Counter::new();
        d.add(10);
        c.merge(&d);
        assert_eq!(c.get(), 15);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn add_saturates() {
        let c = Counter::new();
        c.add(u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
