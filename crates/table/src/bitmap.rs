//! The persistent occupancy bitmap.
//!
//! The paper attaches a 1-bit `bitmap` to each hash cell and commits every
//! insert/delete by atomically flipping it. We pack those bits 64 to a
//! word in a dedicated contiguous array: flipping a bit is then a
//! naturally-aligned 8-byte read-modify-write — failure-atomic under the
//! paper's assumption — and one bitmap cacheline summarizes the occupancy
//! of 512 cells, which is exactly the contiguity the group-sharing design
//! wants.

use nvm_pmem::{Pmem, PmemRead, PmemWrite, Region};

/// A fixed-size bitset in persistent memory, one bit per table cell.
#[derive(Debug, Clone, Copy)]
pub struct PmemBitmap {
    region: Region,
    bits: u64,
}

impl PmemBitmap {
    /// Bytes needed for `bits` bits (whole 8-byte words, cacheline-rounded
    /// up to the caller's allocator).
    pub fn region_size(bits: u64) -> usize {
        (bits.div_ceil(64) * 8) as usize
    }

    /// Creates a bitmap over `region`, zeroing (and persisting) it.
    pub fn create<P: Pmem>(pm: &mut P, region: Region, bits: u64) -> Self {
        let b = Self::attach(region, bits);
        let zeros = vec![0u8; region.len.min(4096)];
        let mut off = region.off;
        let end = region.off + Self::region_size(bits);
        while off < end {
            let n = zeros.len().min(end - off);
            pm.write(off, &zeros[..n]);
            off += n;
        }
        pm.persist(region.off, Self::region_size(bits));
        b
    }

    /// Attaches to an existing bitmap without touching it.
    pub fn attach(region: Region, bits: u64) -> Self {
        assert_eq!(region.off % 8, 0, "bitmap must be 8-byte aligned");
        assert!(
            region.len >= Self::region_size(bits),
            "bitmap region too small: {} < {}",
            region.len,
            Self::region_size(bits)
        );
        PmemBitmap { region, bits }
    }

    /// Number of bits (cells) tracked.
    pub fn len(&self) -> u64 {
        self.bits
    }

    /// True if the bitmap tracks zero cells.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    #[inline]
    fn word_off(&self, idx: u64) -> usize {
        debug_assert!(idx < self.bits, "bit {idx} out of range {}", self.bits);
        self.region.off + (idx / 64) as usize * 8
    }

    /// Reads bit `idx`. Shared-capability: any [`PmemRead`] view works.
    #[inline]
    pub fn get<R: PmemRead>(&self, pm: &R, idx: u64) -> bool {
        let w = pm.read_u64(self.word_off(idx));
        (w >> (idx % 64)) & 1 == 1
    }

    /// Atomically sets bit `idx` to `value` and persists the containing
    /// word — the paper's commit step (`Atomic Update bitmap;
    /// Persist(bitmap)`).
    #[inline]
    pub fn set_and_persist<P: Pmem>(&self, pm: &mut P, idx: u64, value: bool) {
        let off = self.word_off(idx);
        let w = pm.read_u64(off);
        let nw = if value {
            w | (1 << (idx % 64))
        } else {
            w & !(1 << (idx % 64))
        };
        pm.atomic_write_u64(off, nw);
        pm.persist(off, 8);
    }

    /// Like [`PmemBitmap::set_and_persist`] but without the persist (for
    /// bulk loading followed by a single range persist).
    #[inline]
    pub fn set_volatile<P: Pmem>(&self, pm: &mut P, idx: u64, value: bool) {
        let off = self.word_off(idx);
        let w = pm.read_u64(off);
        let nw = if value {
            w | (1 << (idx % 64))
        } else {
            w & !(1 << (idx % 64))
        };
        pm.atomic_write_u64(off, nw);
    }

    /// Lock-free variant of [`PmemBitmap::set_and_persist`] for shared
    /// writers: flips bit `idx` with a CAS loop on its containing word and
    /// persists the word. Neighbouring bits written concurrently by other
    /// writers survive — each lost race re-reads the word and retries.
    ///
    /// Returns the number of *lost* CAS attempts (0 on an uncontended
    /// flip). The winning attempt is the commit point; callers must hold
    /// the cell's claim so no two writers flip the *same* bit.
    #[inline]
    pub fn cas_bit_and_persist<W: PmemWrite>(&self, w: &W, idx: u64, value: bool) -> u64 {
        let off = self.word_off(idx);
        let mask = 1u64 << (idx % 64);
        let mut cur = w.read_u64(off);
        let mut failures = 0;
        loop {
            let nw = if value { cur | mask } else { cur & !mask };
            match w.compare_exchange_u64(off, cur, nw) {
                Ok(_) => break,
                Err(actual) => {
                    failures += 1;
                    cur = actual;
                }
            }
        }
        w.persist(off, 8);
        failures
    }

    /// Pool offset of the word containing bit `idx` (for undo logging).
    pub fn word_off_of(&self, idx: u64) -> usize {
        self.word_off(idx)
    }

    /// Reads the whole 64-bit word containing bit `idx` (bit `i` of the
    /// result is cell `idx - idx%64 + i`). One memory access covers 64
    /// cells' occupancy — the word-wise scan primitive.
    #[inline]
    pub fn word_containing<R: PmemRead>(&self, pm: &R, idx: u64) -> u64 {
        pm.read_u64(self.word_off(idx))
    }

    /// Finds the first zero bit in `[start, start + n)`, reading word-wise
    /// (at most `n/64 + 2` word reads — this is why a group's empty-cell
    /// search is effectively one cacheline touch).
    pub fn find_zero_in_range<R: PmemRead>(&self, pm: &R, start: u64, n: u64) -> Option<u64> {
        let end = (start + n).min(self.bits);
        let mut idx = start;
        while idx < end {
            let word_base = idx - idx % 64;
            let w = pm.read_u64(self.word_off(idx));
            // Mask off bits below idx and at/after end within this word.
            let lo = idx % 64;
            let hi = (end - word_base).min(64);
            let mut free = !w & (u64::MAX << lo);
            if hi < 64 {
                free &= (1u64 << hi) - 1;
            }
            if free != 0 {
                return Some(word_base + free.trailing_zeros() as u64);
            }
            idx = word_base + 64;
        }
        None
    }

    /// Counts set bits in `[start, start + n)`.
    pub fn count_ones_in_range<R: PmemRead>(&self, pm: &R, start: u64, n: u64) -> u64 {
        let end = (start + n).min(self.bits);
        let mut idx = start;
        let mut total = 0u64;
        while idx < end {
            let word_base = idx - idx % 64;
            let w = pm.read_u64(self.word_off(idx));
            let lo = idx % 64;
            let hi = (end - word_base).min(64);
            let mut m = w & (u64::MAX << lo);
            if hi < 64 {
                m &= (1u64 << hi) - 1;
            }
            total += m.count_ones() as u64;
            idx = word_base + 64;
        }
        total
    }

    /// Total set bits.
    pub fn count_ones<R: PmemRead>(&self, pm: &R) -> u64 {
        self.count_ones_in_range(pm, 0, self.bits)
    }

    /// The bitmap's region.
    pub fn region(&self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{CrashResolution, SimConfig, SimPmem};

    fn setup(bits: u64) -> (SimPmem, PmemBitmap) {
        let mut pm = SimPmem::new(1 << 16, SimConfig::fast_test());
        let bm = PmemBitmap::create(&mut pm, Region::new(0, PmemBitmap::region_size(bits)), bits);
        (pm, bm)
    }

    #[test]
    fn set_get_clear() {
        let (mut pm, bm) = setup(200);
        assert!(!bm.get(&pm, 77));
        bm.set_and_persist(&mut pm, 77, true);
        assert!(bm.get(&pm, 77));
        bm.set_and_persist(&mut pm, 77, false);
        assert!(!bm.get(&pm, 77));
    }

    #[test]
    fn bits_are_independent() {
        let (mut pm, bm) = setup(256);
        for i in (0..256).step_by(3) {
            bm.set_and_persist(&mut pm, i, true);
        }
        for i in 0..256 {
            assert_eq!(bm.get(&pm, i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn committed_bit_survives_crash() {
        let (mut pm, bm) = setup(128);
        bm.set_and_persist(&mut pm, 100, true);
        pm.crash(CrashResolution::DropUnflushed);
        assert!(bm.get(&pm, 100));
    }

    #[test]
    fn uncommitted_volatile_bit_may_vanish() {
        let (mut pm, bm) = setup(128);
        bm.set_volatile(&mut pm, 100, true);
        pm.crash(CrashResolution::DropUnflushed);
        assert!(!bm.get(&pm, 100));
    }

    #[test]
    fn find_zero_basic() {
        let (mut pm, bm) = setup(512);
        assert_eq!(bm.find_zero_in_range(&pm, 128, 256), Some(128));
        for i in 128..140 {
            bm.set_and_persist(&mut pm, i, true);
        }
        assert_eq!(bm.find_zero_in_range(&pm, 128, 256), Some(140));
    }

    #[test]
    fn find_zero_none_when_full() {
        let (mut pm, bm) = setup(256);
        for i in 64..128 {
            bm.set_and_persist(&mut pm, i, true);
        }
        assert_eq!(bm.find_zero_in_range(&pm, 64, 64), None);
        assert_eq!(bm.find_zero_in_range(&pm, 64, 65), Some(128));
    }

    #[test]
    fn find_zero_unaligned_start() {
        let (mut pm, bm) = setup(256);
        for i in 70..100 {
            bm.set_and_persist(&mut pm, i, true);
        }
        assert_eq!(bm.find_zero_in_range(&pm, 70, 30), None);
        assert_eq!(bm.find_zero_in_range(&pm, 70, 31), Some(100));
        assert_eq!(bm.find_zero_in_range(&pm, 69, 31), Some(69));
    }

    #[test]
    fn find_zero_clamps_to_len() {
        let (mut pm, bm) = setup(100);
        assert_eq!(bm.find_zero_in_range(&pm, 90, 1000), Some(90));
        for i in 90..100 {
            bm.set_and_persist(&mut pm, i, true);
        }
        assert_eq!(bm.find_zero_in_range(&pm, 90, 1000), None);
    }

    #[test]
    fn count_ones_ranges() {
        let (mut pm, bm) = setup(300);
        for i in [0u64, 63, 64, 127, 128, 200, 299] {
            bm.set_and_persist(&mut pm, i, true);
        }
        assert_eq!(bm.count_ones(&pm), 7);
        assert_eq!(bm.count_ones_in_range(&pm, 0, 64), 2);
        assert_eq!(bm.count_ones_in_range(&pm, 64, 64), 2);
        assert_eq!(bm.count_ones_in_range(&pm, 63, 2), 2);
        assert_eq!(bm.count_ones_in_range(&pm, 128, 172), 3);
    }

    #[test]
    fn create_zeroes_prior_garbage() {
        let mut pm = SimPmem::new(4096, SimConfig::fast_test());
        pm.write(0, &[0xFF; 64]);
        pm.persist(0, 64);
        let bm = PmemBitmap::create(&mut pm, Region::new(0, 64), 512);
        assert_eq!(bm.count_ones(&pm), 0);
    }
}
