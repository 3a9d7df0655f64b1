//! The slab store: slot arrays in the pool, occupancy in DRAM.
//!
//! One layer above the pure geometry in [`crate::classes`]: this module
//! anchors slabs in a pool region and writes blobs into their slots.
//! Every slab is a contiguous array of fixed-width slots. Which slots are
//! taken is recorded in a DRAM atomic bitset, one bit per slot, and
//! never in the pool: the owner's persistent pointers (e.g. `PmemKv`'s
//! index) are the heap's only durable allocation record, because a slot
//! is live exactly when the owner references it. After a restart the
//! owner hands its pointers to [`SlabStore::rebuild`], which sets
//! exactly those bits.
//!
//! * **allocate** writes the blob (length prefix + bytes) into a free
//!   slot, persists it (its blob lines plus one fence), and sets the
//!   slot's DRAM bit. No metadata line is written.
//! * **free** clears the DRAM bit and writes no pool byte.
//!
//! The safety argument is the owner's ordering, and rebuilding from the
//! owner makes it exact after any crash:
//!
//! * the owner links a slot only after the fence that makes its blob
//!   durable, so every pointer that survives a crash names intact bytes;
//! * the owner frees a slot only after the fence that durably unlinks
//!   it, so a slot is never handed out again while a durable pointer
//!   still names it.
//!
//! A crash between an allocation and its link leaves an unreferenced
//! slot, and a crash between an unlink and its free leaves nothing
//! behind: the DRAM bits die with the process, and the rebuild marks
//! only what the owner names. Nothing leaks and nothing needs a sweep.
//!
//! The bitset sits behind an [`Arc`]: cloning a store shares the same
//! words, so read views captured once (see
//! [`PmemHeap::read_view`](crate::PmemHeap::read_view)) see every later
//! allocation and free.
//!
//! Placement *policy* — which slab of a class to allocate from — lives
//! one layer up in [`crate::heap`]; this layer only answers "allocate in
//! slab `s`".

use crate::classes::{HeapConfig, SlabGeometry, LEN_PREFIX};
use crate::{AllocError, PmemPtr};
use nvm_pmem::{Pmem, PmemRead, Region, RegionAllocator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One slab: a slot array anchored in the pool, plus its run of words in
/// the store's DRAM occupancy bitset.
#[derive(Debug, Clone, Copy)]
pub struct Slab {
    /// Index of the slab's size class in the heap's class table.
    pub class_idx: usize,
    /// The slab's freelist geometry (slot width and count).
    pub geom: SlabGeometry,
    slots_region: Region,
    /// First flat slot index of this slab (slabs number their slots into
    /// one contiguous space for GC cursors).
    flat_base: u64,
    /// First occupancy word of this slab (each slab starts on a word).
    word_base: usize,
}

impl Slab {
    /// Pool offset of slot `i`.
    pub fn slot_off(&self, i: u64) -> u64 {
        self.slots_region.off as u64 + self.geom.slot_off(i)
    }

    /// Slot index of pool offset `off`, if it names a slot start here.
    fn slot_of(&self, off: u64) -> Option<u64> {
        let base = self.slots_region.off as u64;
        off.checked_sub(base).and_then(|rel| self.geom.slot_of(rel))
    }

    /// The slab's slot storage region (for per-range media wear stats).
    pub fn slots_region(&self) -> Region {
        self.slots_region
    }

    /// First flat slot index of this slab.
    pub fn flat_base(&self) -> u64 {
        self.flat_base
    }

    /// Occupancy word index and bit mask of slot `slot`.
    #[inline]
    fn bit(&self, slot: u64) -> (usize, u64) {
        debug_assert!(slot < self.geom.slots);
        (self.word_base + (slot / 64) as usize, 1 << (slot % 64))
    }
}

/// The slab store: every slab of every class, anchored in one pool
/// region, with occupancy in DRAM. Purely mechanical — placement policy
/// lives in [`crate::heap::PmemHeap`]. Clones share one occupancy bitset.
#[derive(Debug, Clone)]
pub struct SlabStore {
    slabs: Vec<Slab>,
    /// Slabs per class (slab `class * per_class + k` is class `class`'s
    /// `k`-th slab).
    per_class: u64,
    total_slots: u64,
    occupancy: Arc<[AtomicU64]>,
}

impl SlabStore {
    /// Pool bytes the store needs for `config`, excluding any caller
    /// header (each slab costs a cacheline-rounded slot array).
    pub fn required_size(config: &HeapConfig) -> usize {
        use nvm_pmem::CACHELINE;
        (0..config.classes.len())
            .map(|i| {
                (config.slab_geometry(i).slots_bytes() + CACHELINE)
                    * config.slabs_per_class as usize
            })
            .sum()
    }

    /// Lays the store out from `ra` (class-major, deterministic — create
    /// and open must call with identical geometry to agree on offsets),
    /// with every slot free. Touches no pool byte.
    pub fn new(ra: &mut RegionAllocator, config: &HeapConfig) -> SlabStore {
        let mut slabs = Vec::new();
        let mut flat = 0u64;
        let mut words = 0usize;
        for ci in 0..config.classes.len() {
            let g = config.slab_geometry(ci);
            for _ in 0..config.slabs_per_class {
                slabs.push(Slab {
                    class_idx: ci,
                    geom: g,
                    slots_region: ra.alloc_lines(g.slots_bytes()),
                    flat_base: flat,
                    word_base: words,
                });
                flat += g.slots;
                words += g.bitmap_bytes() / 8;
            }
        }
        SlabStore {
            slabs,
            per_class: config.slabs_per_class,
            total_slots: flat,
            occupancy: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of slabs.
    pub fn n_slabs(&self) -> usize {
        self.slabs.len()
    }

    /// Total slots across all slabs (the flat cursor space).
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// The slab at index `s`.
    pub fn slab(&self, s: usize) -> &Slab {
        &self.slabs[s]
    }

    /// Slab indices belonging to class `ci`.
    pub fn class_slabs(&self, ci: usize) -> std::ops::Range<usize> {
        let per = self.per_class as usize;
        ci * per..(ci + 1) * per
    }

    /// The slab and slot owning flat slot index `flat`, if in range.
    pub fn locate_flat(&self, flat: u64) -> Option<(usize, u64)> {
        // Slabs are ordered by flat_base; partition_point finds the owner.
        let s = self.slabs.partition_point(|sl| sl.flat_base <= flat);
        let slab = &self.slabs[s.checked_sub(1)?];
        let rel = flat - slab.flat_base;
        (rel < slab.geom.slots).then_some((s - 1, rel))
    }

    /// The slab and slot whose start is pool offset `ptr`, allocated or
    /// not.
    fn locate(&self, ptr: PmemPtr) -> Option<(usize, u64)> {
        self.slabs
            .iter()
            .enumerate()
            .find_map(|(s, slab)| slab.slot_of(ptr.0).map(|slot| (s, slot)))
    }

    /// Bit stores are `Release` and loads `Acquire`: a reader that sees a
    /// slot's bit set also sees the blob bytes written before it was set.
    /// Writers are exclusive (the owner's latch); lock-free readers
    /// validate with the owner's seqlock.
    fn set_bit(&self, s: usize, slot: u64, value: bool) {
        let (w, mask) = self.slabs[s].bit(slot);
        if value {
            self.occupancy[w].fetch_or(mask, Ordering::Release);
        } else {
            self.occupancy[w].fetch_and(!mask, Ordering::Release);
        }
    }

    /// Whether slot `slot` of slab `s` is allocated.
    pub fn slot_allocated(&self, s: usize, slot: u64) -> bool {
        let (w, mask) = self.slabs[s].bit(slot);
        self.occupancy[w].load(Ordering::Acquire) & mask != 0
    }

    /// First free slot of slab `s` at or after `cursor` (wrapping), with
    /// candidates for which `staged` returns `true` skipped — so a
    /// fence-coalesced batch can place several blobs in one slab before
    /// any of their bits are set.
    pub fn find_free_skipping(
        &self,
        s: usize,
        cursor: u64,
        staged: impl Fn(u64) -> bool,
    ) -> Option<u64> {
        let slab = &self.slabs[s];
        let n = slab.geom.slots;
        let start = cursor % n;
        // Two linear segments: [start, n) then [0, start).
        for (lo, hi) in [(start, n), (0, start)] {
            let mut probe = lo;
            while probe < hi {
                let (w, _) = slab.bit(probe);
                let word = self.occupancy[w].load(Ordering::Acquire);
                // Free bits of this word at or after `probe`.
                let mut free = !word & (u64::MAX << (probe % 64));
                let word_end = (probe - probe % 64 + 64).min(hi);
                while free != 0 {
                    let slot = probe - probe % 64 + free.trailing_zeros() as u64;
                    if slot >= word_end {
                        break;
                    }
                    if !staged(slot) {
                        return Some(slot);
                    }
                    free &= free - 1;
                }
                probe = word_end;
            }
        }
        None
    }

    /// Writes `blob` (length prefix + bytes) into free slot `slot` of
    /// slab `s`, returning the pool range to persist.
    fn write_blob<P: Pmem>(&self, pm: &mut P, s: usize, slot: u64, blob: &[u8]) -> (usize, usize) {
        let slab = &self.slabs[s];
        debug_assert!(blob.len() <= slab.geom.slot_size as usize - LEN_PREFIX);
        debug_assert!(!self.slot_allocated(s, slot), "writing an allocated slot");
        let off = slab.slot_off(slot) as usize;
        pm.write_u64(off, blob.len() as u64);
        if !blob.is_empty() {
            pm.write(off + LEN_PREFIX, blob);
        }
        (off, LEN_PREFIX + blob.len())
    }

    /// Exclusive-writer allocation in slab `s`: stores `blob` in the
    /// first free slot at or after `cursor` (wrapping). Costs the blob's
    /// lines plus one fence; the slot's DRAM bit is set once the blob is
    /// durable, so the caller may link the pointer as soon as this
    /// returns.
    pub fn alloc_in<P: Pmem>(
        &self,
        pm: &mut P,
        s: usize,
        blob: &[u8],
        cursor: u64,
    ) -> Result<(PmemPtr, u64), AllocError> {
        let slot = self
            .find_free_skipping(s, cursor, |_| false)
            .ok_or(AllocError::OutOfMemory)?;
        let (off, len) = self.write_blob(pm, s, slot, blob);
        pm.persist(off, len);
        self.set_bit(s, slot, true);
        Ok((PmemPtr(off as u64), slot))
    }

    /// Stage half of a fence-coalesced batched allocation: writes `blob`
    /// into free slot `slot` of slab `s` and flushes its lines, with no
    /// fence and no bit set. The batch completes with one
    /// [`SlabStore::publish_staged`] call.
    pub fn stage_write<P: Pmem>(&self, pm: &mut P, s: usize, slot: u64, blob: &[u8]) -> PmemPtr {
        let (off, len) = self.write_blob(pm, s, slot, blob);
        pm.flush(off, len);
        PmemPtr(off as u64)
    }

    /// Commit half of a fence-coalesced batched allocation: one fence
    /// makes every staged blob durable, then each staged slot's DRAM bit
    /// is set — K allocations for one fence instead of K.
    pub fn publish_staged<P: Pmem>(&self, pm: &mut P, staged: &[(usize, u64)]) {
        if staged.is_empty() {
            return;
        }
        pm.fence();
        for &(s, slot) in staged {
            self.set_bit(s, slot, true);
        }
    }

    /// Resolves `ptr` to its slab and slot, requiring the slot to be
    /// allocated.
    pub fn resolve(&self, ptr: PmemPtr) -> Result<(usize, u64), AllocError> {
        match self.locate(ptr) {
            Some((s, slot)) if self.slot_allocated(s, slot) => Ok((s, slot)),
            _ => Err(AllocError::BadPointer(ptr)),
        }
    }

    /// Frees the slot at `ptr` by clearing its DRAM bit; writes no pool
    /// byte. Returns the slab and slot freed.
    ///
    /// **Ordering contract.** The caller must issue the free only after
    /// the fence that durably unlinks `ptr` from its owner, so the slot
    /// is never reallocated while a durable pointer still names it.
    pub fn free(&self, ptr: PmemPtr) -> Result<(usize, u64), AllocError> {
        let (s, slot) = self.resolve(ptr)?;
        self.set_bit(s, slot, false);
        Ok((s, slot))
    }

    /// Resets occupancy to exactly the slots named by `live` — the
    /// owner's persistent pointers — and frees every other slot.
    ///
    /// A pointer that is not a slot start inside the store is
    /// [`AllocError::BadPointer`]; a slot named twice is
    /// [`AllocError::DuplicatePointer`]. On error the occupancy is
    /// partial and the store must not be used.
    pub fn rebuild(&self, live: impl IntoIterator<Item = PmemPtr>) -> Result<(), AllocError> {
        for w in self.occupancy.iter() {
            w.store(0, Ordering::Release);
        }
        for ptr in live {
            let (s, slot) = self.locate(ptr).ok_or(AllocError::BadPointer(ptr))?;
            if self.slot_allocated(s, slot) {
                return Err(AllocError::DuplicatePointer(ptr));
            }
            self.set_bit(s, slot, true);
        }
        Ok(())
    }

    /// Reads the blob at `ptr`. A length prefix exceeding the slot's
    /// capacity — a torn slot observed by a lock-free reader racing a
    /// writer, or media corruption — is an error, never a read past the
    /// slot's bounds.
    pub fn read<R: PmemRead>(&self, pm: &R, ptr: PmemPtr) -> Result<Vec<u8>, AllocError> {
        let (s, _) = self.resolve(ptr)?;
        let len = pm.read_u64(ptr.0 as usize) as usize;
        if len > self.slabs[s].geom.slot_size as usize - LEN_PREFIX {
            return Err(AllocError::BadPointer(ptr));
        }
        let mut buf = vec![0u8; len];
        if len > 0 {
            pm.read(ptr.0 as usize + LEN_PREFIX, &mut buf);
        }
        Ok(buf)
    }

    /// True if `ptr` names a currently-allocated slot.
    pub fn is_allocated(&self, ptr: PmemPtr) -> bool {
        self.resolve(ptr).is_ok()
    }

    /// Visits every allocated slot.
    pub fn for_each_allocated(&self, mut f: impl FnMut(PmemPtr)) {
        for (s, slab) in self.slabs.iter().enumerate() {
            for slot in 0..slab.geom.slots {
                if self.slot_allocated(s, slot) {
                    f(PmemPtr(slab.slot_off(slot)));
                }
            }
        }
    }

    /// Allocated slots in slab `s`.
    pub fn live_slots(&self, s: usize) -> u64 {
        let slab = &self.slabs[s];
        let words = slab.geom.bitmap_bytes() / 8;
        self.occupancy[slab.word_base..slab.word_base + words]
            .iter()
            .map(|w| u64::from(w.load(Ordering::Acquire).count_ones()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{SimConfig, SimPmem};

    fn setup() -> (SimPmem, SlabStore) {
        let cfg = HeapConfig {
            classes: vec![
                crate::ClassSpec {
                    slot_size: 64,
                    slots_per_slab: 16,
                },
                crate::ClassSpec {
                    slot_size: 128,
                    slots_per_slab: 8,
                },
            ],
            slabs_per_class: 2,
        };
        let size = SlabStore::required_size(&cfg);
        let pm = SimPmem::new(size, SimConfig::fast_test());
        let mut ra = RegionAllocator::new(0, size);
        let store = SlabStore::new(&mut ra, &cfg);
        (pm, store)
    }

    #[test]
    fn alloc_free_roundtrip_per_slab() {
        let (mut pm, store) = setup();
        let (p, slot) = store.alloc_in(&mut pm, 1, b"second slab of class 0", 0).unwrap();
        assert_eq!(slot, 0);
        assert_eq!(store.read(&pm, p).unwrap(), b"second slab of class 0");
        assert_eq!(store.live_slots(1), 1);
        assert_eq!(store.live_slots(0), 0);
        assert_eq!(store.free(p).unwrap(), (1, 0));
        assert!(!store.is_allocated(p));
    }

    #[test]
    fn flat_slot_space_round_trips() {
        let (_, store) = setup();
        assert_eq!(store.total_slots(), 16 * 2 + 8 * 2);
        let mut flat = 0;
        for s in 0..store.n_slabs() {
            assert_eq!(store.slab(s).flat_base(), flat);
            for slot in 0..store.slab(s).geom.slots {
                assert_eq!(store.locate_flat(flat + slot), Some((s, slot)));
            }
            flat += store.slab(s).geom.slots;
        }
        assert_eq!(store.locate_flat(flat), None);
    }

    #[test]
    fn exhaustion_is_per_slab() {
        let (mut pm, store) = setup();
        for _ in 0..16 {
            store.alloc_in(&mut pm, 0, &[7; 40], 0).unwrap();
        }
        assert_eq!(
            store.alloc_in(&mut pm, 0, &[7; 40], 0),
            Err(AllocError::OutOfMemory)
        );
        // The sibling slab still has room.
        assert!(store.alloc_in(&mut pm, 1, &[7; 40], 0).is_ok());
    }

    #[test]
    fn clones_share_occupancy() {
        let (mut pm, store) = setup();
        let view = store.clone();
        let (p, _) = store.alloc_in(&mut pm, 0, b"seen by the clone", 0).unwrap();
        assert_eq!(view.read(&pm, p).unwrap(), b"seen by the clone");
        store.free(p).unwrap();
        assert!(!view.is_allocated(p));
    }

    #[test]
    fn rebuild_marks_exactly_the_named_slots() {
        let (mut pm, store) = setup();
        let a = store.alloc_in(&mut pm, 0, b"a", 0).unwrap().0;
        let b = store.alloc_in(&mut pm, 2, b"b", 0).unwrap().0;
        store.alloc_in(&mut pm, 3, b"unreferenced", 0).unwrap();
        store.rebuild([a, b]).unwrap();
        let mut live = vec![];
        store.for_each_allocated(|p| live.push(p));
        assert_eq!(live, vec![a, b]);
        // Not a slot start, outside the store, or named twice.
        let odd = PmemPtr(a.0 + 8);
        assert_eq!(store.rebuild([odd]), Err(AllocError::BadPointer(odd)));
        let outside = PmemPtr(1 << 40);
        assert_eq!(store.rebuild([outside]), Err(AllocError::BadPointer(outside)));
        assert_eq!(store.rebuild([a, b, a]), Err(AllocError::DuplicatePointer(a)));
    }
}
