//! The workspace's one sequence lock.
//!
//! A [`SeqLock`] guards state that has exactly one exclusive writer at a
//! time (the caller serializes writers with its own latch) and any number
//! of optimistic readers that take no lock at all:
//!
//! * a writer enters through [`SeqLock::write`], which bumps the sequence
//!   word to odd before the first mutation; the returned guard bumps it
//!   back to even on drop — also when the write section panics, so
//!   readers never spin forever on a stuck-odd word;
//! * a reader runs its probe inside [`SeqLock::read`], which re-runs it
//!   (with a spin-then-yield backoff) whenever an exclusive writer was active at the
//!   start or moved the sequence before the end, and reports how many
//!   retries that took.
//!
//! The guard must be released while the caller's writer latch is still
//! held: if the latch drops first, a second writer can bump the word
//! before the first one's closing bump, and the two sequences interleave
//! (debug builds assert the closing bump starts from odd). A struct that
//! holds both guards declares the sequence guard *before* the latch
//! guard, since fields drop in declaration order.
//!
//! This is pure DRAM synchronization — it carries no durability and
//! never names the pool.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// A sequence word: even = quiescent, odd = an exclusive writer is
/// mutating.
#[derive(Debug, Default)]
pub struct SeqLock {
    seq: AtomicU64,
}

/// An open exclusive write section of a [`SeqLock`]; closes (sequence back
/// to even) on drop.
#[must_use = "the write section closes when the guard drops"]
#[derive(Debug)]
pub struct SeqWriteGuard<'a> {
    seq: &'a AtomicU64,
}

impl Drop for SeqWriteGuard<'_> {
    fn drop(&mut self) {
        // Order every mutation before the even-publish: a reader that sees
        // the new (even) sequence also sees the writes.
        fence(Ordering::SeqCst);
        let prev = self.seq.fetch_add(1, Ordering::Release);
        debug_assert_eq!(prev & 1, 1, "seqlock closed from an even sequence");
    }
}

/// Retry backoff for optimistic readers: a short spin (the writer is
/// usually mid-publish for nanoseconds), then yield — on few-core
/// machines a descheduled writer would otherwise leave the reader
/// spinning out its whole timeslice against a stuck-odd sequence.
#[inline]
fn backoff(spins: &mut u32) {
    if *spins < 64 {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl SeqLock {
    /// A quiescent (even) sequence lock.
    pub fn new() -> SeqLock {
        SeqLock::default()
    }

    /// Opens an exclusive write section: the sequence turns odd, so
    /// overlapping readers retry instead of trusting in-flight state. The
    /// caller must already hold its writer latch, and must drop the guard
    /// before releasing it.
    pub fn write(&self) -> SeqWriteGuard<'_> {
        let prev = self.seq.fetch_add(1, Ordering::AcqRel);
        debug_assert_eq!(prev & 1, 0, "seqlock opened twice");
        // Order the odd-publish before the mutation's first write.
        fence(Ordering::SeqCst);
        SeqWriteGuard { seq: &self.seq }
    }

    /// Runs the optimistic probe `f` until it completes inside one window
    /// free of exclusive writers, returning its answer and the number of
    /// retries it took. `f` must only read (it may run several times and
    /// its answers from overlapped windows are discarded).
    #[inline]
    pub fn read<T>(&self, mut f: impl FnMut() -> T) -> (T, u64) {
        let mut retries = 0u64;
        let mut spins = 0u32;
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let out = f();
                // Order the probe's loads before the validation load.
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return (out, retries);
                }
            }
            retries += 1;
            backoff(&mut spins);
        }
    }

    /// The current sequence value (even when no writer is active).
    pub fn sequence(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn write_sections_advance_by_two() {
        let l = SeqLock::new();
        assert_eq!(l.sequence(), 0);
        {
            let _w = l.write();
            assert_eq!(l.sequence(), 1);
        }
        assert_eq!(l.sequence(), 2);
        assert_eq!(l.read(|| 7), (7, 0), "quiescent reads never retry");
    }

    #[test]
    fn overlapped_read_retries_and_counts() {
        // The first probe runs a whole write section, so its answer must
        // be discarded and the probe re-run exactly once.
        let l = SeqLock::new();
        let mut calls = 0;
        let out = l.read(|| {
            calls += 1;
            if calls == 1 {
                drop(l.write());
            }
            calls
        });
        assert_eq!(out, (2, 1));
    }

    #[test]
    fn panicking_writer_restores_even_parity() {
        let l = SeqLock::new();
        let r = std::panic::catch_unwind(|| {
            let _w = l.write();
            panic!("boom");
        });
        assert!(r.is_err());
        assert_eq!(l.sequence() & 1, 0, "parity restored for readers");
        assert_eq!(l.read(|| 1).0, 1, "readers do not spin forever");
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_pair() {
        // The writer keeps two words equal, updating them one at a time
        // inside each write section; a validated read must never observe
        // them unequal.
        let l = Arc::new(SeqLock::new());
        let pair = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (l, pair, stop) = (Arc::clone(&l), Arc::clone(&pair), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let ((a, b), _) = l.read(|| {
                            (pair.0.load(Ordering::Relaxed), pair.1.load(Ordering::Relaxed))
                        });
                        assert_eq!(a, b, "torn read validated");
                    }
                })
            })
            .collect();
        for i in 1..=20_000u64 {
            let _w = l.write();
            pair.0.store(i, Ordering::Relaxed);
            pair.1.store(i, Ordering::Relaxed);
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(l.sequence(), 40_000);
    }
}
