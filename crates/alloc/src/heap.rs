//! The heap policy layer: wear-aware placement and a GC compactor.
//!
//! [`PmemHeap`] owns a [`SlabStore`] plus a persisted geometry header and
//! decides *where* allocations land:
//!
//! * **Wear-aware rotation** ([`RotationPolicy::WearAware`], the
//!   default): each size class owns several slabs, and allocation steers
//!   to the least-written eligible slab using per-slab write counters.
//!   Hot small-value churn therefore spreads across a class's slabs
//!   instead of grinding one region of the media — the same wear axis
//!   `results/wear.csv` instruments for the index.
//!   [`RotationPolicy::FirstFit`] is the no-rotation baseline the `heap`
//!   experiment compares against.
//! * **GC/compaction drainer** ([`PmemHeap::gc_step`]): a bounded,
//!   incremental sweep. A volatile cursor walks the flat slot space;
//!   each allocated slot is checked against the *owner* (the structure
//!   holding pointers into the heap, e.g. `PmemKv`'s index) via
//!   [`GcOwner::is_live`]. Dead slots are freed; live slots in sparse
//!   slabs are compacted by copy-then-[`GcOwner::repoint`]-then-free, so
//!   at any crash point the owner's pointer names an intact blob.
//!
//! # Occupancy lives in DRAM; the owner is the allocation record
//!
//! The slab store keeps its occupancy bits in DRAM, not in the pool (see
//! [`crate::slab`]). The owner's persistent pointers are the only
//! durable record of which slots are live, so [`PmemHeap::open`] takes
//! them and sets exactly those bits, and [`PmemHeap::rebuild`] does the
//! same for an open heap after the owner repaired itself. This is safe
//! because every caller keeps two orderings:
//!
//! * it links a slot only after the fence that makes the blob durable
//!   ([`PmemHeap::alloc`] and [`PmemHeap::alloc_batch`] return after
//!   that fence), so a durable pointer never names torn bytes;
//! * it frees a slot only after the fence that durably unlinks it, so a
//!   slot is never reused while a durable pointer names it.
//!
//! A crash anywhere therefore leaves, after the rebuild, a slot
//! allocated exactly when the owner names it: no leak, and no recovery
//! sweep. An allocation costs its blob lines plus one fence and a free
//! costs nothing in the pool. The write counters, placement cursors and
//! the GC cursor are volatile as well; a crash mid-GC-pass loses nothing
//! the rebuild does not restore.

use crate::classes::{ClassSpec, ClassTable, HeapConfig, MAX_CLASSES, MAX_SLABS_PER_CLASS};
use crate::slab::SlabStore;
use crate::{AllocError, PmemPtr};
use nvm_pmem::{align_up, Pmem, PmemRead, Region, RegionAllocator, CACHELINE};

/// Magic word identifying a heap header ("NVHEAP02"; "NVHEAP01" images
/// kept persistent occupancy bitmaps and are rejected).
const MAGIC: u64 = 0x4E56_4845_4150_3032;

/// Header offsets relative to the header region: magic, class count,
/// slabs per class, then per-class (slot_size, slots_per_slab) pairs.
const H_MAGIC: usize = 0;
const H_NCLASSES: usize = 8;
const H_SLABS: usize = 16;
const H_CLASSES: usize = 24;

/// How the heap picks a slab within a size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RotationPolicy {
    /// Steer to the least-written eligible slab (wear leveling).
    #[default]
    WearAware,
    /// Always try slabs in index order — the no-rotation baseline.
    FirstFit,
}

/// Volatile heap counters (see `HeapCounters` in nvm-metrics for the
/// instrumented mirror).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Completed allocations.
    pub allocs: u64,
    /// Completed frees (including GC-initiated ones).
    pub frees: u64,
    /// Blobs relocated by the GC compactor.
    pub gc_moves: u64,
    /// Unreferenced blobs the GC pass freed.
    pub leaked_reclaimed: u64,
}

/// Fragmentation accounting from [`PmemHeap::frag_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragStats {
    /// Bytes of live blob payload (length prefixes excluded).
    pub live_blob_bytes: u64,
    /// Bytes of slots currently allocated (slot widths, not payloads).
    pub allocated_slot_bytes: u64,
    /// Total slot bytes the heap owns.
    pub total_slot_bytes: u64,
}

/// The heap's view of the structure that owns pointers into it, consulted
/// by the GC pass.
pub trait GcOwner<P: Pmem> {
    /// Whether the owner still references the blob at `ptr` (whose bytes
    /// are `blob`). Unreferenced blobs are reclaimed.
    fn is_live(&mut self, pm: &P, ptr: PmemPtr, blob: &[u8]) -> bool;

    /// Atomically retarget the owner's reference from `old` to `new`
    /// (both allocated, same bytes). Return `false` to decline — e.g. the
    /// reference changed since [`GcOwner::is_live`] — in which case the
    /// drainer frees `new` and leaves `old` in place.
    fn repoint(&mut self, pm: &mut P, old: PmemPtr, new: PmemPtr, blob: &[u8]) -> bool;
}

/// The value heap: slab store + placement policy + GC, behind one
/// persisted geometry header.
#[derive(Debug)]
pub struct PmemHeap {
    store: SlabStore,
    table: ClassTable,
    region: Region,
    rotation: RotationPolicy,
    /// Per-slab rotating allocation cursors (volatile hints).
    cursors: Vec<u64>,
    /// Per-slab write counters: slot writes from allocs + GC copy-ins
    /// (volatile hints driving wear-aware rotation).
    writes: Vec<u64>,
    /// Flat slot index the in-flight GC pass resumes at, if one is.
    gc_cursor: Option<u64>,
    stats: HeapStats,
}

impl PmemHeap {
    fn header_len(n_classes: usize) -> usize {
        H_CLASSES + n_classes * 16
    }

    /// Pool bytes needed for `config`.
    pub fn required_size(config: &HeapConfig) -> usize {
        align_up(Self::header_len(config.classes.len()), 8)
            + CACHELINE
            + SlabStore::required_size(config)
    }

    /// Lays out the header and the slab store in `region`.
    fn assemble(region: Region, config: &HeapConfig) -> (Region, Self) {
        let mut ra = RegionAllocator::new(region.off, region.end());
        let header = ra.alloc_lines(align_up(Self::header_len(config.classes.len()), 8));
        let store = SlabStore::new(&mut ra, config);
        let n = store.n_slabs();
        let heap = PmemHeap {
            store,
            table: config.class_table().expect("validated config"),
            region,
            rotation: RotationPolicy::default(),
            cursors: vec![0; n],
            writes: vec![0; n],
            gc_cursor: None,
            stats: HeapStats::default(),
        };
        (header, heap)
    }

    /// Creates a fresh, empty heap in `region`. Writes only the geometry
    /// header.
    pub fn create<P: Pmem>(
        pm: &mut P,
        region: Region,
        config: &HeapConfig,
    ) -> Result<Self, AllocError> {
        config.validate()?;
        let need = Self::required_size(config);
        if region.len < need {
            return Err(AllocError::RegionTooSmall {
                have: region.len,
                need,
            });
        }
        let (header, heap) = Self::assemble(region, config);
        // Header: geometry first, magic last (a header is valid only once
        // fully initialized).
        pm.write_u64(header.off + H_NCLASSES, config.classes.len() as u64);
        pm.write_u64(header.off + H_SLABS, config.slabs_per_class);
        for (i, c) in config.classes.iter().enumerate() {
            pm.write_u64(header.off + H_CLASSES + i * 16, c.slot_size);
            pm.write_u64(header.off + H_CLASSES + i * 16 + 8, c.slots_per_slab);
        }
        pm.persist(header.off, Self::header_len(config.classes.len()));
        pm.atomic_write_u64(header.off + H_MAGIC, MAGIC);
        pm.persist(header.off + H_MAGIC, 8);
        Ok(heap)
    }

    /// Re-opens a heap previously created in `region`, reading its
    /// geometry back from the persisted header and marking allocated
    /// exactly the slots `live` names — the owner's persistent pointers.
    /// Read-only: any [`PmemRead`] handle suffices.
    ///
    /// The result is exact after any crash (see the module docs). A live
    /// pointer that is not a slot start of this heap fails with
    /// [`AllocError::BadPointer`], one named twice with
    /// [`AllocError::DuplicatePointer`].
    pub fn open<R: PmemRead>(
        pm: &R,
        region: Region,
        live: impl IntoIterator<Item = PmemPtr>,
    ) -> Result<Self, AllocError> {
        let header_off = align_up(region.off, CACHELINE);
        if !region.contains(header_off, H_CLASSES) {
            return Err(AllocError::BadHeader("region too small for a heap header"));
        }
        if pm.read_u64(header_off + H_MAGIC) != MAGIC {
            return Err(AllocError::BadHeader("heap magic mismatch"));
        }
        let n = pm.read_u64(header_off + H_NCLASSES);
        if n == 0 || n > MAX_CLASSES as u64 {
            return Err(AllocError::CorruptClassCount(n));
        }
        let slabs_per_class = pm.read_u64(header_off + H_SLABS);
        if slabs_per_class == 0 || slabs_per_class > MAX_SLABS_PER_CLASS {
            return Err(AllocError::BadSlabCount(slabs_per_class));
        }
        let classes = (0..n as usize)
            .map(|i| ClassSpec {
                slot_size: pm.read_u64(header_off + H_CLASSES + i * 16),
                slots_per_slab: pm.read_u64(header_off + H_CLASSES + i * 16 + 8),
            })
            .collect::<Vec<_>>();
        let config = HeapConfig {
            classes,
            slabs_per_class,
        };
        config.validate()?;
        let need = Self::required_size(&config);
        if region.len < need {
            return Err(AllocError::RegionTooSmall {
                have: region.len,
                need,
            });
        }
        let (_, mut heap) = Self::assemble(region, &config);
        heap.rebuild(live)?;
        Ok(heap)
    }

    /// Resets occupancy to exactly the slots `live` names, e.g. after the
    /// owner repaired itself post-crash. Read views share the rebuilt
    /// bits. Ends any GC pass in flight. Fails like [`PmemHeap::open`];
    /// on error the heap must not be used.
    pub fn rebuild(&mut self, live: impl IntoIterator<Item = PmemPtr>) -> Result<(), AllocError> {
        self.gc_cursor = None;
        self.store.rebuild(live)
    }

    /// Switches the slab-selection policy (volatile; takes effect on the
    /// next allocation).
    pub fn set_rotation(&mut self, policy: RotationPolicy) {
        self.rotation = policy;
    }

    /// Class `ci`'s slabs in the order the rotation policy tries them.
    fn slab_order(&self, ci: usize) -> Vec<usize> {
        let mut order: Vec<usize> = self.store.class_slabs(ci).collect();
        if self.rotation == RotationPolicy::WearAware {
            order.sort_by_key(|&s| self.writes[s]);
        }
        order
    }

    /// Allocates and stores `blob`, returning its persistent pointer.
    /// The blob is durable when this returns (its lines plus one fence),
    /// so the caller may link the pointer; placement follows the
    /// configured [`RotationPolicy`].
    pub fn alloc<P: Pmem>(&mut self, pm: &mut P, blob: &[u8]) -> Result<PmemPtr, AllocError> {
        let ci = self.table.class_for(blob.len())?;
        for s in self.slab_order(ci) {
            match self.store.alloc_in(pm, s, blob, self.cursors[s]) {
                Ok((ptr, slot)) => {
                    self.cursors[s] = slot + 1;
                    self.writes[s] += 1;
                    self.stats.allocs += 1;
                    return Ok(ptr);
                }
                Err(AllocError::OutOfMemory) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(AllocError::OutOfMemory)
    }

    /// Allocates and stores every blob in `blobs` under **one fence**:
    /// all blob bytes are written and flushed first, then one fence makes
    /// them durable together — K allocations for 1 fence instead of the K
    /// that K [`PmemHeap::alloc`] calls would spend. Placement follows the
    /// same [`RotationPolicy`] as single allocations, with slots already
    /// staged by this batch vetoed.
    ///
    /// Returns one pointer per blob, in input order, all durable. On
    /// error (a blob too large for every class, or the heap out of space)
    /// **nothing is allocated** and the heap is unchanged.
    pub fn alloc_batch<P: Pmem>(
        &mut self,
        pm: &mut P,
        blobs: &[&[u8]],
    ) -> Result<Vec<PmemPtr>, AllocError> {
        if blobs.is_empty() {
            return Ok(Vec::new());
        }
        let mut staged: Vec<(usize, u64)> = Vec::with_capacity(blobs.len());
        let mut staged_set: std::collections::HashSet<(usize, u64)> =
            std::collections::HashSet::with_capacity(blobs.len());
        let mut ptrs = Vec::with_capacity(blobs.len());
        // Remember the cursor/wear hints so a failed batch rolls the
        // volatile policy state back along with it.
        let saved_cursors = self.cursors.clone();
        let saved_writes = self.writes.clone();
        for blob in blobs {
            let placed = self.table.class_for(blob.len()).and_then(|ci| {
                self.slab_order(ci)
                    .into_iter()
                    .find_map(|s| {
                        let slot = self.store.find_free_skipping(s, self.cursors[s], |slot| {
                            staged_set.contains(&(s, slot))
                        })?;
                        Some((s, slot))
                    })
                    .ok_or(AllocError::OutOfMemory)
            });
            let (s, slot) = match placed {
                Ok(p) => p,
                Err(e) => {
                    // No bit set yet: the staged bytes are unreachable
                    // and the heap is observably unchanged.
                    self.cursors = saved_cursors;
                    self.writes = saved_writes;
                    return Err(e);
                }
            };
            ptrs.push(self.store.stage_write(pm, s, slot, blob));
            staged_set.insert((s, slot));
            staged.push((s, slot));
            self.cursors[s] = slot + 1;
            self.writes[s] += 1;
        }
        self.store.publish_staged(pm, &staged);
        self.stats.allocs += blobs.len() as u64;
        Ok(ptrs)
    }

    /// Frees the blob at `ptr`: clears its DRAM occupancy bit and writes
    /// no pool byte (`pm` is not touched).
    ///
    /// Call it only after the fence that durably unlinks `ptr` from its
    /// owner (the index's pointer swap, retract or repoint), so the slot
    /// is never reused while a durable pointer names it.
    pub fn free<P: Pmem>(&mut self, _pm: &mut P, ptr: PmemPtr) -> Result<(), AllocError> {
        self.release(ptr)
    }

    fn release(&mut self, ptr: PmemPtr) -> Result<(), AllocError> {
        let (s, slot) = self.store.free(ptr)?;
        self.cursors[s] = slot; // freed slot becomes the next candidate
        self.stats.frees += 1;
        Ok(())
    }

    /// Reads the blob at `ptr`.
    pub fn read<R: PmemRead>(&self, pm: &R, ptr: PmemPtr) -> Result<Vec<u8>, AllocError> {
        self.store.read(pm, ptr)
    }

    /// True if `ptr` names a currently-allocated slot.
    pub fn is_allocated(&self, ptr: PmemPtr) -> bool {
        self.store.is_allocated(ptr)
    }

    /// (allocated slots, total slots) per class.
    pub fn class_usage(&self) -> Vec<(u64, u64)> {
        (0..self.table.len())
            .map(|ci| {
                self.store.class_slabs(ci).fold((0, 0), |(live, total), s| {
                    (
                        live + self.store.live_slots(s),
                        total + self.store.slab(s).geom.slots,
                    )
                })
            })
            .collect()
    }

    /// Total allocated slots.
    pub fn allocated(&self) -> u64 {
        (0..self.store.n_slabs())
            .map(|s| self.store.live_slots(s))
            .sum()
    }

    /// Live-payload vs slot-byte accounting for fragmentation reporting.
    pub fn frag_stats<R: PmemRead>(&self, pm: &R) -> FragStats {
        let mut f = FragStats::default();
        for s in 0..self.store.n_slabs() {
            let slab = self.store.slab(s);
            f.total_slot_bytes += slab.geom.slot_size * slab.geom.slots;
            f.allocated_slot_bytes += self.store.live_slots(s) * slab.geom.slot_size;
        }
        self.store.for_each_allocated(|p| {
            f.live_blob_bytes += pm.read_u64(p.0 as usize);
        });
        f
    }

    /// The heap's volatile counters.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Per-slab write counters (slot writes from allocs + GC copy-ins;
    /// volatile, reset on re-open).
    pub fn slab_writes(&self) -> &[u64] {
        &self.writes
    }

    /// The heap's pool region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// A read-only view over the heap's slots, safe to clone into reader
    /// threads. It shares the heap's occupancy bits (never a copy), so it
    /// sees every later allocation and free.
    pub fn read_view(&self) -> HeapReadView {
        HeapReadView {
            store: self.store.clone(),
        }
    }

    // ---- GC/compaction drainer ------------------------------------------

    /// Whether a GC pass is in flight (volatile: a restart ends it).
    pub fn gc_pending(&self) -> bool {
        self.gc_cursor.is_some()
    }

    /// Runs one bounded GC increment: scans up to `max_slots` slots from
    /// the pass's cursor, reclaiming blobs the `owner` no longer
    /// references and compacting sparse slabs (copy → `repoint` → free).
    /// Returns `true` while the pass is incomplete — keep calling;
    /// `false` ends the pass.
    pub fn gc_step<P: Pmem>(
        &mut self,
        pm: &mut P,
        max_slots: u64,
        owner: &mut impl GcOwner<P>,
    ) -> Result<bool, AllocError> {
        let total = self.store.total_slots();
        let mut cur = self.gc_cursor.unwrap_or(0);
        let end = cur.saturating_add(max_slots.max(1)).min(total);
        while cur < end {
            if let Some((s, slot)) = self.store.locate_flat(cur) {
                if self.store.slot_allocated(s, slot) {
                    let ptr = PmemPtr(self.store.slab(s).slot_off(slot));
                    let blob = self.store.read(pm, ptr)?;
                    if !owner.is_live(pm, ptr, &blob) {
                        // Orphaned: the owner never linked it.
                        self.release(ptr)?;
                        self.stats.leaked_reclaimed += 1;
                    } else if self.slab_is_sparse(s) {
                        self.compact_one(pm, s, ptr, &blob, owner)?;
                    }
                }
            }
            cur += 1;
        }
        self.gc_cursor = (cur < total).then_some(cur);
        Ok(self.gc_pending())
    }

    /// A slab is compaction-worthy when ≤ ¼ full (and big enough for the
    /// ratio to mean anything).
    fn slab_is_sparse(&self, s: usize) -> bool {
        let slots = self.store.slab(s).geom.slots;
        slots >= 4 && self.store.live_slots(s) * 4 <= slots
    }

    /// Moves one live blob out of sparse slab `s`: copy into the densest
    /// non-full sibling slab, retarget the owner, free the original.
    /// Skips (without error) when no sibling has room or the owner
    /// declines the repoint.
    fn compact_one<P: Pmem>(
        &mut self,
        pm: &mut P,
        s: usize,
        old: PmemPtr,
        blob: &[u8],
        owner: &mut impl GcOwner<P>,
    ) -> Result<(), AllocError> {
        let ci = self.store.slab(s).class_idx;
        let dest = self
            .store
            .class_slabs(ci)
            .filter(|&t| t != s)
            .map(|t| (t, self.store.live_slots(t)))
            .filter(|&(t, live)| live < self.store.slab(t).geom.slots)
            .max_by_key(|&(_, live)| live);
        let Some((dest, dest_live)) = dest else {
            return Ok(()); // every sibling is full
        };
        if dest_live <= self.store.live_slots(s) {
            return Ok(()); // we're already the densest option
        }
        let (new, slot) = match self.store.alloc_in(pm, dest, blob, self.cursors[dest]) {
            Ok(ok) => ok,
            Err(AllocError::OutOfMemory) => return Ok(()),
            Err(e) => return Err(e),
        };
        self.cursors[dest] = slot + 1;
        self.writes[dest] += 1;
        // Crash window: the owner still names `old`, so the rebuild keeps
        // `old` and drops `new`.
        if owner.repoint(pm, old, new, blob) {
            self.release(old)?;
            self.stats.gc_moves += 1;
        } else {
            self.store.free(new)?;
        }
        Ok(())
    }

    /// Runs GC passes to completion: finishes any pass in flight, then
    /// one full fresh pass. Returns the number of orphaned blobs
    /// reclaimed.
    pub fn gc_full<P: Pmem>(
        &mut self,
        pm: &mut P,
        owner: &mut impl GcOwner<P>,
    ) -> Result<u64, AllocError> {
        let before = self.stats.leaked_reclaimed;
        while self.gc_pending() && self.gc_step(pm, 1024, owner)? {}
        while self.gc_step(pm, 1024, owner)? {}
        Ok(self.stats.leaked_reclaimed - before)
    }
}

/// A read-only heap view for reader threads: resolves and reads blobs
/// through any [`PmemRead`] handle, never writes.
#[derive(Debug, Clone)]
pub struct HeapReadView {
    store: SlabStore,
}

impl HeapReadView {
    /// Reads the blob at `ptr`.
    pub fn read<R: PmemRead>(&self, pm: &R, ptr: PmemPtr) -> Result<Vec<u8>, AllocError> {
        self.store.read(pm, ptr)
    }

    /// True if `ptr` names a currently-allocated slot.
    pub fn is_allocated(&self, ptr: PmemPtr) -> bool {
        self.store.is_allocated(ptr)
    }
}
