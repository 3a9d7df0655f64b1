//! A small crash-consistent key-value engine on group hashing.
//!
//! The paper's table stores fixed-size cells; real stores (the
//! memcached-class systems its introduction cites) hold string keys and
//! variable-size values. `PmemKv` composes the workspace's pieces into
//! that system, inside one persistent pool:
//!
//! * a [`GroupHash`] **index** mapping 16-byte key fingerprints
//!   (MurmurHash3 x64-128) to 8-byte persistent pointers;
//! * a [`PmemHeap`] **value heap** holding `[key_len | key | value]`
//!   blobs in wear-rotated slab classes, so fingerprint collisions are
//!   detected by comparing the stored key. The store talks only to the
//!   heap's policy layer — never to slab-store internals (enforced by a
//!   `ci.sh` layering lint).
//!
//! # Crash consistency, without a log
//!
//! Every mutation is a sequence of individually-committed steps ordered
//! so that a crash anywhere leaves the store *consistent*:
//!
//! * **insert**: make the blob durable → commit the index entry.
//! * **update**: make the new blob durable → atomically swap the 8-byte
//!   pointer in the index (old value or new value, never torn) → free
//!   the old blob.
//! * **delete**: remove the index entry (atomic bitmap clear) → free the
//!   blob.
//!
//! The index is the heap's only allocation record. Heap occupancy lives
//! in DRAM, and opening a store and [`PmemKv::recover`] rebuild it from
//! the index's entries, so after any crash a heap slot is allocated
//! exactly when the index names it: a blob whose link never committed,
//! or whose unlink did, is simply free again. An allocation therefore
//! flushes only its blob, a free writes nothing to the pool, and
//! recovery runs no sweep. The rebuild rejects an index pointer that is
//! not a heap slot start, or that two entries share, with
//! [`KvError::Corrupt`].
//!
//! The index itself is exactly the paper's structure, so its own
//! crash-recovery story (Algorithm 4) carries over; [`PmemKv::recover`]
//! runs it and then rebuilds the heap's occupancy from the repaired
//! index. The heap's bounded compactor is available online via
//! [`PmemKv::gc_step`] / [`PmemKv::gc_pending`], driven with the index
//! as [`GcOwner`].

use group_hash::{CommitStrategy, FpMode, GroupHash, GroupHashConfig, GroupReadView};
use nvm_alloc::{AllocError, FragStats, GcOwner, HeapConfig, HeapReadView, PmemHeap, PmemPtr};
use nvm_hashfn::murmur3_x64_128;
use nvm_metrics::{HeapCounters, MetricsRegistry};
use nvm_pmem::{align_up, Pmem, PmemRead, Region, RegionAllocator, CACHELINE};
use nvm_table::{ConsistencyMode, HashScheme, InsertError, MigrationSource, TableError};
use std::collections::{HashMap, HashSet};

mod store;

pub mod prelude;

pub use store::{
    Store, StoreBuilder, StoreCounters, StoreError, StoreReadView, WriteTicket,
};

/// Magic word identifying a KV header ("NVKVSTR1").
const MAGIC: u64 = 0x4E56_4B56_5354_5231;

/// Errors from the KV engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The index has no free cell for this key.
    IndexFull,
    /// The heap cannot store this value.
    Heap(AllocError),
    /// Creating/opening the index table failed.
    Table(TableError),
    /// Region split / KV header problems.
    Layout(String),
    /// A consistency check found the store's invariants violated.
    Corrupt(String),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::IndexFull => write!(f, "index full"),
            KvError::Heap(e) => write!(f, "heap: {e}"),
            KvError::Table(e) => write!(f, "index: {e}"),
            KvError::Layout(e) => write!(f, "layout: {e}"),
            KvError::Corrupt(e) => write!(f, "corrupt: {e}"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<AllocError> for KvError {
    fn from(e: AllocError) -> Self {
        KvError::Heap(e)
    }
}

impl From<TableError> for KvError {
    fn from(e: TableError) -> Self {
        KvError::Table(e)
    }
}

/// Engine geometry.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Index cells per level (power of two); capacity ≈ 2× this.
    pub index_cells_per_level: u64,
    /// Group size for the index.
    pub group_size: u64,
    /// Heap slot-storage budget in bytes.
    pub heap_bytes: u64,
    /// Hash seed.
    pub seed: u64,
    /// Index fingerprint-tag mode (create-time; reopened stores restore
    /// it from the index's own persisted header).
    pub fp: FpMode,
    /// Index consistency mode (create-time; `UndoLog` wraps index
    /// commits in the undo journal, `None` uses the paper's atomic
    /// bitmap commit).
    pub consistency: ConsistencyMode,
}

impl KvConfig {
    /// A store sized for roughly `items` entries of ≤`avg_value` bytes.
    pub fn for_capacity(items: u64, avg_value: u64) -> Self {
        let cells = (items * 2).next_power_of_two().max(128);
        KvConfig {
            index_cells_per_level: cells / 2,
            group_size: 64.min(cells / 2),
            // 4x headroom: the balanced memcached-style class split
            // cannot match every value-size distribution exactly, and
            // small blobs all round up to the 80-byte base class.
            heap_bytes: (items * (avg_value + 64) * 4).max(8192),
            seed: 0x4B56_5354,
            fp: FpMode::default(),
            consistency: ConsistencyMode::default(),
        }
    }

    /// Overrides the index geometry (cells per level; power of two).
    pub fn with_index_cells_per_level(mut self, cells: u64) -> Self {
        self.index_cells_per_level = cells;
        self
    }

    /// Overrides the index group size.
    pub fn with_group_size(mut self, group_size: u64) -> Self {
        self.group_size = group_size;
        self
    }

    /// Overrides the heap budget.
    pub fn with_heap_bytes(mut self, heap_bytes: u64) -> Self {
        self.heap_bytes = heap_bytes;
        self
    }

    /// Overrides the hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the index fingerprint-tag mode.
    pub fn with_fp_mode(mut self, fp: FpMode) -> Self {
        self.fp = fp;
        self
    }

    /// Overrides the index consistency mode.
    pub fn with_consistency(mut self, consistency: ConsistencyMode) -> Self {
        self.consistency = consistency;
        self
    }
}

/// 16-byte fingerprint of `key` (MurmurHash3 x64-128).
fn fingerprint(key: &[u8]) -> [u8; 16] {
    let (lo, hi) = murmur3_x64_128(key, 0x4B56);
    let mut f = [0u8; 16];
    f[..8].copy_from_slice(&lo.to_le_bytes());
    f[8..].copy_from_slice(&hi.to_le_bytes());
    f
}

/// `[key_len u32-LE | key | value]`.
fn encode_blob(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut blob = Vec::with_capacity(4 + key.len() + value.len());
    blob.extend_from_slice(&(key.len() as u32).to_le_bytes());
    blob.extend_from_slice(key);
    blob.extend_from_slice(value);
    blob
}

fn decode_blob(blob: &[u8]) -> (&[u8], &[u8]) {
    let klen = u32::from_le_bytes(blob[..4].try_into().unwrap()) as usize;
    (&blob[4..4 + klen], &blob[4 + klen..])
}

/// [`decode_blob`] for blobs that may not be well-formed KV records:
/// the GC sweep can encounter torn or foreign allocations, and the
/// lock-free [`KvReadView`] paths can observe a slot mid-rewrite (new
/// length prefix, stale bytes) before seqlock validation discards the
/// result — neither may panic.
fn try_decode_blob(blob: &[u8]) -> Option<(&[u8], &[u8])> {
    let klen = u32::from_le_bytes(blob.get(..4)?.try_into().ok()?) as usize;
    let key = blob.get(4..4 + klen)?;
    Some((key, &blob[4 + klen..]))
}

/// The engine. All persistent state lives in its pool region.
pub struct PmemKv<P: Pmem> {
    index: GroupHash<P, [u8; 16], u64>,
    heap: PmemHeap,
    region: Region,
}

/// Every heap pointer the index holds — the heap's live set.
fn index_ptrs<P: Pmem>(index: &GroupHash<P, [u8; 16], u64>, pm: &P) -> Vec<PmemPtr> {
    let mut ptrs = Vec::with_capacity(index.len(pm) as usize);
    index.for_each_entry(pm, |_, ptr| ptrs.push(PmemPtr(ptr)));
    ptrs
}

/// Maps a failed occupancy rebuild to the engine's error: a pointer the
/// index should never hold is corruption, anything else is the heap's.
fn rebuild_error(e: AllocError) -> KvError {
    match e {
        AllocError::BadPointer(_) | AllocError::DuplicatePointer(_) => {
            KvError::Corrupt(format!("index names a bad heap pointer: {e}"))
        }
        e => KvError::Heap(e),
    }
}

/// The index as the heap's [`GcOwner`]: a blob is live iff its stored
/// key's fingerprint maps to exactly that blob's pointer, and a repoint
/// is the same atomic in-place pointer swap updates use.
struct IndexOwner<'a, P: Pmem> {
    index: &'a mut GroupHash<P, [u8; 16], u64>,
}

impl<P: Pmem> GcOwner<P> for IndexOwner<'_, P> {
    fn is_live(&mut self, pm: &P, ptr: PmemPtr, blob: &[u8]) -> bool {
        // A blob that doesn't parse as a KV record can't be referenced by
        // the index — it's garbage from a crashed writer.
        let Some((key, _)) = try_decode_blob(blob) else {
            return false;
        };
        self.index.get(pm, &fingerprint(key)) == Some(ptr.0)
    }

    fn repoint(&mut self, pm: &mut P, old: PmemPtr, new: PmemPtr, blob: &[u8]) -> bool {
        let Some((key, _)) = try_decode_blob(blob) else {
            return false;
        };
        let fp = fingerprint(key);
        // Re-check under the same borrow: decline if the entry moved on.
        if self.index.get(pm, &fp) != Some(old.0) {
            return false;
        }
        self.index.update_in_place(pm, &fp, new.0)
    }
}

impl<P: Pmem> PmemKv<P> {
    /// Header: magic + the four config words (self-describing pools).
    const HEADER_LEN: usize = 40;

    fn split(region: Region, config: &KvConfig) -> Result<(Region, Region, Region), KvError> {
        let index_cfg = Self::index_config(config);
        let index_size = GroupHash::<P, [u8; 16], u64>::required_size(&index_cfg);
        let heap_cfg = HeapConfig::balanced(config.heap_bytes);
        let heap_size = PmemHeap::required_size(&heap_cfg);
        let mut alloc = RegionAllocator::new(region.off, region.end());
        if region.len < Self::HEADER_LEN + index_size + heap_size + 320 {
            return Err(KvError::Layout(format!(
                "region too small: {} < {}",
                region.len,
                Self::HEADER_LEN + index_size + heap_size + 320
            )));
        }
        let header_r = alloc.alloc_lines(Self::HEADER_LEN);
        let index_r = alloc.alloc_lines(index_size);
        let heap_r = alloc.alloc_lines(heap_size);
        Ok((header_r, index_r, heap_r))
    }

    fn index_config(config: &KvConfig) -> GroupHashConfig {
        GroupHashConfig::new(config.index_cells_per_level, config.group_size)
            .with_seed(config.seed)
            .with_fp_mode(config.fp)
            .with_commit(match config.consistency {
                ConsistencyMode::None => CommitStrategy::AtomicBitmap,
                ConsistencyMode::UndoLog => CommitStrategy::UndoLog,
            })
    }

    /// Pool bytes needed for `config`.
    pub fn required_size(config: &KvConfig) -> usize {
        let index_cfg = Self::index_config(config);
        Self::HEADER_LEN
            + GroupHash::<P, [u8; 16], u64>::required_size(&index_cfg)
            + PmemHeap::required_size(&HeapConfig::balanced(config.heap_bytes))
            + 576
    }

    /// Creates a fresh store in `region` (public construction goes
    /// through the [`Store`] facade).
    pub(crate) fn create(pm: &mut P, region: Region, config: &KvConfig) -> Result<Self, KvError> {
        let (header_r, index_r, heap_r) = Self::split(region, config)?;
        let index = GroupHash::create(pm, index_r, Self::index_config(config))
            .map_err(KvError::Table)?;
        let heap = PmemHeap::create(pm, heap_r, &HeapConfig::balanced(config.heap_bytes))
            .map_err(KvError::Heap)?;
        // Self-describing header: config words first, magic last.
        pm.write_u64(header_r.off + 8, config.index_cells_per_level);
        pm.write_u64(header_r.off + 16, config.group_size);
        pm.write_u64(header_r.off + 24, config.heap_bytes);
        pm.write_u64(header_r.off + 32, config.seed);
        pm.persist(header_r.off, Self::HEADER_LEN);
        pm.atomic_write_u64(header_r.off, MAGIC);
        pm.persist(header_r.off, 8);
        Ok(PmemKv {
            index,
            heap,
            region,
        })
    }

    /// Reads the persisted configuration of a store in `region`.
    pub fn read_config(pm: &P, region: Region) -> Result<KvConfig, KvError> {
        let off = align_up(region.off, CACHELINE);
        if !region.contains(off, Self::HEADER_LEN) {
            return Err(KvError::Layout("region too small for a KV header".into()));
        }
        if pm.read_u64(off) != MAGIC {
            return Err(KvError::Layout("KV magic mismatch".into()));
        }
        Ok(KvConfig {
            index_cells_per_level: pm.read_u64(off + 8),
            group_size: pm.read_u64(off + 16),
            heap_bytes: pm.read_u64(off + 24),
            seed: pm.read_u64(off + 32),
            // Index modes live in the index's *own* persisted header
            // (flag word), which `GroupHash::open` restores; the layout
            // is mode-independent, so reopening never needs them.
            fp: FpMode::default(),
            consistency: ConsistencyMode::default(),
        })
    }

    /// Re-opens a store from its persisted header — no configuration
    /// needed. Heap occupancy is rebuilt from the index, so it is exact
    /// even after an unclean shutdown; [`PmemKv::recover`] is still
    /// needed to repair the index itself.
    pub(crate) fn open(pm: &mut P, region: Region) -> Result<Self, KvError> {
        let config = Self::read_config(pm, region)?;
        let (_, index_r, heap_r) = Self::split(region, &config)?;
        let index = GroupHash::open(pm, index_r).map_err(KvError::Table)?;
        let heap = PmemHeap::open(pm, heap_r, index_ptrs(&index, pm)).map_err(rebuild_error)?;
        Ok(PmemKv {
            index,
            heap,
            region,
        })
    }

    /// Reads the blob behind an index entry and checks the stored key.
    fn load_checked(&self, pm: &P, ptr: u64, key: &[u8]) -> Option<Vec<u8>> {
        let blob = self.heap.read(pm, PmemPtr(ptr)).ok()?;
        let (stored_key, value) = decode_blob(&blob);
        (stored_key == key).then(|| value.to_vec())
    }

    /// Stores `key → value` (insert or update).
    pub fn set(&mut self, pm: &mut P, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        let fp = fingerprint(key);
        let ptr = self.heap.alloc(pm, &encode_blob(key, value))?;
        // Update: atomically swap the pointer to the committed new blob;
        // once the swap's fence returns the old blob is unreachable.
        match self.index.update_batch(pm, &[(fp, ptr.0)])[0] {
            Some(old_ptr) => {
                let _ = self.heap.free(pm, PmemPtr(old_ptr));
                Ok(())
            }
            None => {
                match self.index.insert(pm, fp, ptr.0) {
                    Ok(()) => Ok(()),
                    Err(InsertError::TableFull) => {
                        // Index refused: roll the blob back (nothing
                        // links it, so a crash here frees it too).
                        let _ = self.heap.free(pm, ptr);
                        Err(KvError::IndexFull)
                    }
                    Err(e) => unreachable!("insert: {e}"),
                }
            }
        }
    }

    /// Stores many pairs with fence-coalesced heap *and* index commits.
    ///
    /// All K blobs become durable through one [`PmemHeap::alloc_batch`]
    /// (1 fence for the whole batch instead of 1 per blob). Then one
    /// [`GroupHash::update_batch`] swaps every stored key's pointer in
    /// place under a single shared fence, and the I keys it did not find
    /// group-commit through the index's batch insert (~I+2 fences
    /// instead of 3I). The replaced blobs are freed after the swap fence,
    /// which writes nothing to the pool. End to end a batch costs 1
    /// fence for the heap, 1 for all its swaps (if any key was stored)
    /// and ~I+2 for its fresh inserts (if any): 2 for an all-update
    /// batch, ~K+3 for K fresh inserts — the engine-level realization of
    /// the paper's group-commit arithmetic.
    /// Crash ordering: blobs are durable before index entries, each swap
    /// lands whole or not at all, and a crash mid-batch durably keeps
    /// some prefix of the new entries (the rest are unreferenced, and
    /// the occupancy rebuild frees them).
    ///
    /// Duplicate keys within the batch collapse in DRAM (last write
    /// wins) before anything touches the pool. If the heap cannot place
    /// every blob, *nothing* is stored; on `IndexFull` the
    /// already-committed prefix stays stored and the unindexed blobs
    /// are rolled back.
    pub fn set_batch(&mut self, pm: &mut P, items: &[(&[u8], &[u8])]) -> Result<(), KvError> {
        if items.is_empty() {
            return Ok(());
        }
        // Pass one (DRAM only): collapse duplicate keys, last write wins.
        let mut ops: Vec<([u8; 16], &[u8], &[u8])> = Vec::with_capacity(items.len());
        let mut at: HashMap<[u8; 16], usize> = HashMap::new();
        for &(key, value) in items {
            let fp = fingerprint(key);
            match at.get(&fp) {
                Some(&i) => ops[i] = (fp, key, value),
                None => {
                    at.insert(fp, ops.len());
                    ops.push((fp, key, value));
                }
            }
        }
        // Pass two: make every blob durable with one fence-coalesced heap
        // batch. On failure the heap allocated nothing, so the store is
        // unchanged.
        let blobs: Vec<Vec<u8>> = ops.iter().map(|(_, k, v)| encode_blob(k, v)).collect();
        let blob_refs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        let ptrs = self.heap.alloc_batch(pm, &blob_refs)?;
        // Pass three: every stored key swaps its pointer under one
        // fence; the replaced blobs are unreachable once it returns.
        // Keys not found defer into one index batch.
        let swaps: Vec<([u8; 16], u64)> = ops
            .iter()
            .zip(&ptrs)
            .map(|((fp, _, _), p)| (*fp, p.0))
            .collect();
        let replaced = self.index.update_batch(pm, &swaps);
        let mut pending: Vec<([u8; 16], u64)> = Vec::new();
        for (swap, old_ptr) in swaps.into_iter().zip(replaced) {
            match old_ptr {
                Some(old_ptr) => {
                    let _ = self.heap.free(pm, PmemPtr(old_ptr));
                }
                None => pending.push(swap),
            }
        }
        if pending.is_empty() {
            return Ok(());
        }
        match self.index.insert_batch(pm, &pending) {
            Ok(()) => Ok(()),
            Err(e) => {
                for (_, ptr) in &pending[e.committed..] {
                    let _ = self.heap.free(pm, PmemPtr(*ptr));
                }
                match e.error {
                    InsertError::TableFull => Err(KvError::IndexFull),
                    err => unreachable!("insert_batch: {err}"),
                }
            }
        }
    }

    /// Fetches `key`'s value.
    pub fn get(&self, pm: &P, key: &[u8]) -> Option<Vec<u8>> {
        self.try_get(pm, key).ok().flatten()
    }

    /// Fetches many keys at once, one answer per key in input order —
    /// same results as calling [`PmemKv::get`] per element, pipelined for
    /// NVM latency: fingerprint every key up front, resolve all index
    /// probes through the vectorized [`GroupHash::get_batch`] (which
    /// software-prefetches every candidate line before comparing any),
    /// software-prefetch every hit's heap blob, then decode and
    /// key-verify the blobs against warm cache. Still a pure read: zero
    /// flushes, zero fences, zero writes.
    pub fn get_batch(&self, pm: &P, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        let fps: Vec<[u8; 16]> = keys.iter().map(|k| fingerprint(k)).collect();
        let ptrs = self.index.get_batch(pm, &fps);
        // Warm each hit's first blob line (length prefix + leading bytes)
        // before any decode dereferences it.
        for ptr in ptrs.iter().flatten() {
            pm.prefetch(*ptr as usize, 8);
        }
        keys.iter()
            .zip(ptrs)
            .map(|(key, ptr)| self.load_checked(pm, ptr?, key))
            .collect()
    }

    /// Fetches `key`'s value, distinguishing "not stored" (`Ok(None)`)
    /// from a heap read failure — a dangling index pointer — which
    /// [`PmemKv::get`] silently folds into `None`.
    pub fn try_get(&self, pm: &P, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let fp = fingerprint(key);
        let Some(ptr) = self.index.get(pm, &fp) else {
            return Ok(None);
        };
        let blob = self
            .heap
            .read(pm, PmemPtr(ptr))
            .map_err(|e| KvError::Corrupt(format!("index points at bad blob: {e}")))?;
        let (stored_key, value) = decode_blob(&blob);
        Ok((stored_key == key).then(|| value.to_vec()))
    }

    /// Deletes `key`, returning whether it was present.
    pub fn delete(&mut self, pm: &mut P, key: &[u8]) -> bool {
        let fp = fingerprint(key);
        let Some(ptr) = self.index.get(pm, &fp) else {
            return false;
        };
        // Verify before destroying (fingerprint collision paranoia).
        if self.load_checked(pm, ptr, key).is_none() {
            return false;
        }
        let removed = self.index.remove(pm, &fp);
        debug_assert!(removed);
        let _ = self.heap.free(pm, PmemPtr(ptr));
        true
    }

    /// Deletes many keys with one fence-coalesced index commit per chunk;
    /// returns, per key in input order, whether this call removed it: the
    /// first occurrence of a present key answers `true`, later duplicates
    /// `false` (the key is already gone when their turn comes). Index
    /// entries retract first, then the blobs free, exactly like
    /// single-key deletes.
    pub fn delete_batch(&mut self, pm: &mut P, keys: &[&[u8]]) -> Vec<bool> {
        let mut fps: Vec<[u8; 16]> = Vec::new();
        let mut ptrs: Vec<u64> = Vec::new();
        let mut seen: HashSet<[u8; 16]> = HashSet::new();
        let present = keys
            .iter()
            .map(|key| {
                let fp = fingerprint(key);
                if seen.contains(&fp) {
                    return false; // duplicate key in the batch
                }
                let Some(ptr) = self.index.get(pm, &fp) else {
                    return false;
                };
                // Verify before destroying (fingerprint collision paranoia).
                if self.load_checked(pm, ptr, key).is_none() {
                    return false;
                }
                seen.insert(fp);
                fps.push(fp);
                ptrs.push(ptr);
                true
            })
            .collect();
        let removed = self.index.remove_batch(pm, &fps);
        debug_assert_eq!(removed, fps.len());
        for ptr in ptrs {
            let _ = self.heap.free(pm, PmemPtr(ptr));
        }
        present
    }

    /// Number of entries.
    pub fn len(&self, pm: &P) -> u64 {
        self.index.len(pm)
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self, pm: &P) -> bool {
        self.len(pm) == 0
    }

    /// Post-crash recovery: repairs the index (Algorithm 4), then
    /// rebuilds heap occupancy from the repaired index, so afterwards a
    /// heap slot is allocated exactly when an index entry names it
    /// (`usage()` entries == slots). Fails with [`KvError::Corrupt`] if
    /// an index pointer is not a heap slot start or two entries share
    /// one.
    pub fn recover(&mut self, pm: &mut P) -> Result<(), KvError> {
        self.index.recover(pm);
        let live = index_ptrs(&self.index, pm);
        self.heap.rebuild(live).map_err(rebuild_error)
    }

    /// Runs the heap's GC pass to completion (finishing one in flight
    /// first): frees blobs the index does not name and compacts sparse
    /// slabs. Returns the number of unreferenced blobs freed — zero
    /// unless the heap was used behind the index's back.
    pub fn gc(&mut self, pm: &mut P) -> Result<u64, KvError> {
        let mut owner = IndexOwner {
            index: &mut self.index,
        };
        self.heap.gc_full(pm, &mut owner).map_err(KvError::Heap)
    }

    /// True while a GC pass is in flight (volatile; a restart ends it).
    /// Keep calling [`PmemKv::gc_step`] until it returns `Ok(false)`.
    pub fn gc_pending(&self) -> bool {
        self.heap.gc_pending()
    }

    /// Runs one bounded GC increment over up to `max_slots` heap slots —
    /// the online counterpart of [`PmemKv::gc`], shaped like
    /// [`PmemKv::migrate_into`]: unreferenced blobs are freed, and live
    /// blobs in sparse slabs are compacted by copy → pointer swap → free,
    /// so a crash anywhere leaves the index naming an intact blob.
    /// Returns `Ok(true)` while the pass is incomplete.
    pub fn gc_step(&mut self, pm: &mut P, max_slots: u64) -> Result<bool, KvError> {
        let mut owner = IndexOwner {
            index: &mut self.index,
        };
        self.heap
            .gc_step(pm, max_slots, &mut owner)
            .map_err(KvError::Heap)
    }

    /// Structural validation: index invariants, every index pointer
    /// resolves to an allocated blob whose stored key fingerprints back
    /// to its index cell, no two entries share a blob, and no other heap
    /// slot is allocated.
    pub fn check_consistency(&self, pm: &P) -> Result<(), KvError> {
        self.index.check_consistency(pm)?;
        self.check_heap_links(pm)
    }

    /// The heap half of [`PmemKv::check_consistency`]. Holds right after
    /// `open`, before [`PmemKv::recover`] repairs the index's own torn
    /// cells.
    fn check_heap_links(&self, pm: &P) -> Result<(), KvError> {
        let mut entries = Vec::new();
        self.index.for_each_entry(pm, |fp, ptr| {
            entries.push((fp, ptr));
        });
        let mut seen = HashSet::new();
        for &(fp, ptr) in &entries {
            if !seen.insert(ptr) {
                return Err(KvError::Corrupt(format!("blob {ptr:#x} referenced twice")));
            }
            let blob = self
                .heap
                .read(pm, PmemPtr(ptr))
                .map_err(|e| KvError::Corrupt(format!("index points at bad blob: {e}")))?;
            let (key, _) = decode_blob(&blob);
            if fingerprint(key) != fp {
                return Err(KvError::Corrupt(format!(
                    "blob {ptr:#x} key does not match its fingerprint"
                )));
            }
        }
        let slots = self.heap.allocated();
        if slots != entries.len() as u64 {
            return Err(KvError::Corrupt(format!(
                "{slots} heap slots allocated for {} index entries",
                entries.len()
            )));
        }
        Ok(())
    }

    /// Visits every `(key, value)` pair (order unspecified).
    pub fn for_each(&self, pm: &P, mut f: impl FnMut(&[u8], &[u8])) {
        let mut ptrs = Vec::new();
        self.index.for_each_entry(pm, |_, ptr| ptrs.push(ptr));
        for ptr in ptrs {
            if let Ok(blob) = self.heap.read(pm, PmemPtr(ptr)) {
                let (k, v) = decode_blob(&blob);
                f(k, v);
            }
        }
    }

    /// True while an interrupted [`PmemKv::migrate_into`] still has
    /// entries to move (including across a crash — the flag persists in
    /// the index header). Keep calling `migrate_into` until it returns
    /// `Ok(false)`.
    pub fn migration_pending(&self, pm: &P) -> bool {
        self.index.migration_active(pm)
    }

    /// Moves up to `max_moves` entries into `dst` (a store in another
    /// region of the same pool, typically sized larger), returning
    /// `Ok(true)` while entries remain — the kv-level counterpart of the
    /// index's incremental online expansion, for when the *store* has
    /// outgrown its region and must relocate wholesale without a
    /// stop-the-world rebuild.
    ///
    /// Each moved entry is re-stored in `dst` under its original key
    /// (blob copied into `dst`'s heap, fingerprint re-indexed), then
    /// evicted here (index retract + heap free). The persisted migration
    /// cursor in this store's index header makes the drain resumable:
    /// after a crash, reopen both stores, run [`PmemKv::recover`] on
    /// each, and keep calling `migrate_into` — re-moving the boundary
    /// entry is an idempotent upsert in `dst`, so the cursor only needs
    /// persisting once per call, not once per entry. Mid-drain, a key
    /// lives in exactly one store except for the entry being moved,
    /// which may transiently exist in both (with equal values); route
    /// lookups `dst`-first and the window is invisible.
    ///
    /// On `Err` (e.g. `dst` full) the migration stays pending and no
    /// entry is lost; the failing entry is still stored here.
    pub fn migrate_into(
        &mut self,
        pm: &mut P,
        dst: &mut PmemKv<P>,
        max_moves: u64,
    ) -> Result<bool, KvError> {
        let total = self.index.migration_cells();
        if !self.index.migration_active(pm) {
            // Cursor first, flag second: a crash between the two leaves
            // the flag clear, and the next call restarts cleanly.
            self.index.set_migration_cursor(pm, 0);
            self.index.set_migration_active(pm, true);
        }
        let mut cursor = self.index.migration_cursor(pm);
        let mut moved = 0u64;
        while cursor < total && moved < max_moves {
            if let Some((_, ptr)) = self.index.entry_at(pm, cursor) {
                let blob = self
                    .heap
                    .read(pm, PmemPtr(ptr))
                    .map_err(|e| KvError::Corrupt(format!("index points at bad blob: {e}")))?;
                let (key, value) = decode_blob(&blob);
                if let Err(e) = dst.set(pm, key, value) {
                    self.index.set_migration_cursor(pm, cursor);
                    return Err(e);
                }
                let evicted = self.index.evict_cell(pm, cursor);
                debug_assert!(evicted);
                let _ = self.heap.free(pm, PmemPtr(ptr));
                moved += 1;
            }
            cursor += 1;
        }
        self.index.set_migration_cursor(pm, cursor);
        if cursor >= total {
            self.index.set_migration_active(pm, false);
            return Ok(false);
        }
        Ok(true)
    }

    /// (index entries, heap slots allocated) — equal by construction,
    /// right after `open` too: entries are counted from the index's
    /// occupied cells, not its persisted counter (which only
    /// [`PmemKv::recover`] repairs). Scans the index.
    pub fn usage(&self, pm: &P) -> (u64, u64) {
        let mut entries = 0;
        self.index.for_each_entry(pm, |_, _| entries += 1);
        (entries, self.heap.allocated())
    }

    /// The heap's fragmentation snapshot (live blob bytes vs allocated
    /// and total slot bytes) — the byte-level counterpart of
    /// [`PmemKv::usage`].
    pub fn frag_stats(&self, pm: &P) -> FragStats {
        self.heap.frag_stats(pm)
    }

    /// Captures a [`KvReadView`]: a read-only lookup facade over the
    /// index's [`GroupReadView`] and the heap geometry, usable through
    /// any [`PmemRead`] handle (e.g. [`Pmem::read_handle`] clones handed
    /// to reader threads). The view holds no pool bytes, so it stays
    /// valid across mutations; concurrent use needs an external
    /// validation protocol, exactly as for `GroupReadView`.
    pub fn read_view(&self) -> KvReadView {
        KvReadView {
            index: self.index.read_view(),
            heap: self.heap.read_view(),
        }
    }

    /// The store's pool region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The store's observability snapshot: cumulative pmem counters,
    /// cache-hierarchy counters when the backend models one, the value
    /// heap's alloc/free/GC counters and per-slab write histogram under
    /// `heap`, and — when built with the `instrument` feature — the
    /// index's probe/occupancy/displacement histograms under `index`.
    pub fn metrics(&self, pm: &P) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.set_pmem("pmem", &pm.stats());
        if let Some(c) = pm.cache_stats() {
            reg.set_cache("cache", &c);
        }
        let hs = self.heap.stats();
        reg.set_heap(
            "heap",
            &HeapCounters::from_heap(
                hs.allocs,
                hs.frees,
                hs.gc_moves,
                hs.leaked_reclaimed,
                self.heap.slab_writes(),
            ),
        );
        if let Some(i) = HashScheme::<P, [u8; 16], u64>::instrumentation(&self.index) {
            reg.set_instrumentation("index", i);
        }
        reg
    }
}

/// A read-only facade over a [`PmemKv`]: fingerprint the key, probe the
/// index through a [`GroupReadView`], then read + verify the heap blob —
/// all through a bare [`PmemRead`] handle, no `&mut` pool access.
#[derive(Debug, Clone)]
pub struct KvReadView {
    index: GroupReadView<[u8; 16], u64>,
    heap: HeapReadView,
}

impl KvReadView {
    /// Fetches `key`'s value. Dangling index pointers and torn blobs
    /// (possible only when racing a writer without a validation
    /// protocol — the caller's seqlock retry then yields the correct
    /// answer) read as `None`, like [`PmemKv::get`].
    pub fn get<R: PmemRead>(&self, pm: &R, key: &[u8]) -> Option<Vec<u8>> {
        let ptr = self.index.get(pm, &fingerprint(key))?;
        let blob = self.heap.read(pm, PmemPtr(ptr)).ok()?;
        let (stored_key, value) = try_decode_blob(&blob)?;
        (stored_key == key).then(|| value.to_vec())
    }

    /// Fetches many keys at once through a bare read handle — the view
    /// analogue of [`PmemKv::get_batch`]: fingerprint everything, probe
    /// the index via the vectorized [`GroupReadView::get_batch`],
    /// software-prefetch every hit's blob line, then decode + key-verify.
    /// Answers come back one per key in input order.
    pub fn get_batch<R: PmemRead>(&self, pm: &R, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        let fps: Vec<[u8; 16]> = keys.iter().map(|k| fingerprint(k)).collect();
        let ptrs = self.index.get_batch(pm, &fps);
        for ptr in ptrs.iter().flatten() {
            pm.prefetch(*ptr as usize, 8);
        }
        keys.iter()
            .zip(ptrs)
            .map(|(key, ptr)| {
                let blob = self.heap.read(pm, PmemPtr(ptr?)).ok()?;
                let (stored_key, value) = try_decode_blob(&blob)?;
                (stored_key == *key).then(|| value.to_vec())
            })
            .collect()
    }

    /// Whether `key` is stored.
    pub fn contains<R: PmemRead>(&self, pm: &R, key: &[u8]) -> bool {
        self.get(pm, key).is_some()
    }
}

#[cfg(test)]
mod tests {
    // The engine tests exercise `PmemKv` directly, below the `Store`
    // facade.
    use super::*;
    use nvm_alloc::LEN_PREFIX;
    use nvm_pmem::{CrashResolution, SimConfig, SimPmem};

    fn setup(items: u64) -> (SimPmem, PmemKv<SimPmem>, Region, KvConfig) {
        setup_avg(items, 64)
    }

    fn setup_avg(items: u64, avg_value: u64) -> (SimPmem, PmemKv<SimPmem>, Region, KvConfig) {
        let cfg = KvConfig::for_capacity(items, avg_value);
        let size = PmemKv::<SimPmem>::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let region = Region::new(0, size);
        let kv = PmemKv::create(&mut pm, region, &cfg).unwrap();
        (pm, kv, region, cfg)
    }

    /// Two stores side by side in one pool: `src` sized for `src_items`,
    /// `dst` sized for `dst_items`.
    fn setup_pair(
        src_items: u64,
        dst_items: u64,
    ) -> (SimPmem, PmemKv<SimPmem>, PmemKv<SimPmem>, Region, Region) {
        let src_cfg = KvConfig::for_capacity(src_items, 32);
        let dst_cfg = KvConfig::for_capacity(dst_items, 32);
        let src_size = PmemKv::<SimPmem>::required_size(&src_cfg);
        let dst_size = PmemKv::<SimPmem>::required_size(&dst_cfg);
        let mut pm = SimPmem::new(src_size + dst_size, SimConfig::fast_test());
        let src_region = Region::new(0, src_size);
        let dst_region = Region::new(src_size, dst_size);
        let src = PmemKv::create(&mut pm, src_region, &src_cfg).unwrap();
        let dst = PmemKv::create(&mut pm, dst_region, &dst_cfg).unwrap();
        (pm, src, dst, src_region, dst_region)
    }

    /// The end state crash tests assert after `open` and again after
    /// `recover`: heap occupancy is exactly the index's entries
    /// (`usage()` equal), each naming its intact blob. The index's own
    /// torn cells are repaired only by `recover`, so before it the check
    /// is the heap half of `check_consistency`.
    fn assert_exact(kv: &PmemKv<SimPmem>, pm: &SimPmem, stage: &str, ctx: &str) {
        let check = match stage {
            "open" => kv.check_heap_links(pm),
            _ => kv.check_consistency(pm),
        };
        check.unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let (entries, slots) = kv.usage(pm);
        assert_eq!(entries, slots, "{ctx}: heap occupancy differs from the index");
    }

    /// Pool offset of the index value word holding `ptr` (the only
    /// 8-byte word in the pool equal to a heap pointer).
    fn value_word_of(pm: &SimPmem, ptr: u64) -> usize {
        let mut hits = (0..pm.len() / 8)
            .map(|w| w * 8)
            .filter(|&off| pm.read_u64(off) == ptr);
        let off = hits.next().expect("pointer not found in the pool");
        assert!(hits.next().is_none(), "pointer stored twice");
        off
    }

    #[test]
    fn migrate_into_moves_store_in_bounded_steps() {
        let (mut pm, mut src, mut dst, _, _) = setup_pair(64, 256);
        for i in 0..50u32 {
            let key = format!("mig-{i}");
            src.set(&mut pm, key.as_bytes(), &vec![i as u8; (i % 40) as usize])
                .unwrap();
        }
        dst.set(&mut pm, b"resident", b"already-here").unwrap();

        let mut steps = 0u32;
        while src.migrate_into(&mut pm, &mut dst, 7).unwrap() {
            assert!(src.migration_pending(&pm));
            steps += 1;
            assert!(steps < 10_000, "drain never finished");
        }
        assert!(steps > 1, "max_moves=7 over 50 entries must take many steps");

        assert!(src.is_empty(&pm));
        assert!(!src.migration_pending(&pm));
        assert_eq!(dst.len(&pm), 51);
        for i in 0..50u32 {
            let key = format!("mig-{i}");
            assert_eq!(src.get(&pm, key.as_bytes()), None);
            assert_eq!(
                dst.get(&pm, key.as_bytes()),
                Some(vec![i as u8; (i % 40) as usize]),
                "{key}"
            );
        }
        assert_eq!(dst.get(&pm, b"resident").as_deref(), Some(&b"already-here"[..]));
        src.check_consistency(&pm).unwrap();
        dst.check_consistency(&pm).unwrap();
        assert_eq!(src.usage(&pm), (0, 0));
        let (entries, slots) = dst.usage(&pm);
        assert_eq!(entries, slots, "migration leaked dst heap slots");
    }

    #[test]
    fn crash_anywhere_during_migrate_into_is_safe() {
        use nvm_pmem::{run_with_crash, CrashPlan};
        let (mut pm0, mut src0, _dst0, src_region, dst_region) = setup_pair(32, 128);
        let n = 12u32;
        for i in 0..n {
            src0.set(&mut pm0, format!("ck-{i}").as_bytes(), &[i as u8; 9])
                .unwrap();
        }
        drop(src0);

        let mut at = 0u64;
        loop {
            let mut pm = pm0.clone();
            let mut src = PmemKv::open(&mut pm, src_region).unwrap();
            let mut dst = PmemKv::open(&mut pm, dst_region).unwrap();
            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + at,
            }));
            let done = run_with_crash(|| {
                while src.migrate_into(&mut pm, &mut dst, 3).unwrap() {}
            })
            .is_ok();
            pm.crash(CrashResolution::Random(at));

            // Reopen and audit the torn state, then recover and audit it
            // again: occupancy is exact from `open` on.
            let mut src = PmemKv::open(&mut pm, src_region).unwrap();
            let mut dst = PmemKv::open(&mut pm, dst_region).unwrap();
            for stage in ["open", "recover"] {
                if stage == "recover" {
                    src.recover(&mut pm).unwrap();
                    dst.recover(&mut pm).unwrap();
                }
                assert_exact(&src, &pm, stage, &format!("src after {stage} at +{at}"));
                assert_exact(&dst, &pm, stage, &format!("dst after {stage} at +{at}"));
                let mut dups = 0u64;
                for i in 0..n {
                    let key = format!("ck-{i}");
                    let want = vec![i as u8; 9];
                    let s = src.get(&pm, key.as_bytes());
                    let d = dst.get(&pm, key.as_bytes());
                    // Every copy that exists is intact, and at least one does.
                    for got in [&s, &d].into_iter().flatten() {
                        assert_eq!(*got, want, "{key} after {stage} at +{at}");
                    }
                    assert!(s.is_some() || d.is_some(), "{key} lost after {stage} at +{at}");
                    if s.is_some() && d.is_some() {
                        dups += 1;
                    }
                }
                // Only the entry in flight can transiently live in both.
                assert!(dups <= 1, "{dups} duplicated keys after {stage} at +{at}");
            }

            // Resume the drain to completion; the boundary re-move is an
            // idempotent upsert.
            while src.migrate_into(&mut pm, &mut dst, 3).unwrap() {}
            assert!(src.is_empty(&pm));
            assert!(!src.migration_pending(&pm));
            assert_eq!(dst.len(&pm), n as u64);
            for i in 0..n {
                let key = format!("ck-{i}");
                assert_eq!(dst.get(&pm, key.as_bytes()), Some(vec![i as u8; 9]), "{key}");
            }
            src.check_consistency(&pm).unwrap();
            dst.check_consistency(&pm).unwrap();
            let (entries, slots) = dst.usage(&pm);
            assert_eq!(entries, slots, "leak after resumed drain at +{at}");

            if done {
                break;
            }
            at += 1;
            assert!(at < 5000, "migration never completed");
        }
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let (mut pm, mut kv, _, _) = setup(100);
        kv.set(&mut pm, b"user:1", b"ada").unwrap();
        kv.set(&mut pm, b"user:2", b"grace").unwrap();
        assert_eq!(kv.get(&pm, b"user:1").as_deref(), Some(&b"ada"[..]));
        assert_eq!(kv.get(&pm, b"user:2").as_deref(), Some(&b"grace"[..]));
        assert_eq!(kv.get(&pm, b"user:3"), None);
        assert!(kv.delete(&mut pm, b"user:1"));
        assert_eq!(kv.get(&pm, b"user:1"), None);
        assert!(!kv.delete(&mut pm, b"user:1"));
        assert_eq!(kv.len(&pm), 1);
        kv.check_consistency(&pm).unwrap();
        assert_eq!(kv.usage(&pm), (1, 1));
    }

    #[test]
    fn batch_set_get_delete_roundtrip() {
        let (mut pm, mut kv, _, _) = setup(300);
        kv.set(&mut pm, b"pre", b"existing").unwrap();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..100u32)
            .map(|i| (format!("bk-{i}").into_bytes(), vec![i as u8; 16]))
            .collect();
        let refs: Vec<(&[u8], &[u8])> = items
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        kv.set_batch(&mut pm, &refs).unwrap();
        for (k, v) in &items {
            assert_eq!(kv.get(&pm, k).as_deref(), Some(v.as_slice()));
        }
        assert_eq!(kv.len(&pm), 101);
        // Updates and duplicate keys inside one batch: last write wins.
        kv.set_batch(
            &mut pm,
            &[
                (b"pre".as_slice(), b"updated".as_slice()),
                (b"dup".as_slice(), b"first".as_slice()),
                (b"dup".as_slice(), b"second".as_slice()),
            ],
        )
        .unwrap();
        assert_eq!(kv.get(&pm, b"pre").as_deref(), Some(&b"updated"[..]));
        assert_eq!(kv.get(&pm, b"dup").as_deref(), Some(&b"second"[..]));
        kv.check_consistency(&pm).unwrap();
        // Batch delete with a duplicate and a missing key mixed in.
        let kill: Vec<&[u8]> = vec![
            b"bk-0".as_slice(),
            b"bk-1".as_slice(),
            b"bk-1".as_slice(),
            b"missing".as_slice(),
            b"dup".as_slice(),
        ];
        assert_eq!(
            kv.delete_batch(&mut pm, &kill),
            vec![true, true, false, false, true]
        );
        assert_eq!(kv.get(&pm, b"bk-0"), None);
        assert_eq!(kv.get(&pm, b"dup"), None);
        kv.check_consistency(&pm).unwrap();
        let (entries, slots) = kv.usage(&pm);
        assert_eq!(entries, slots, "batch ops leaked heap slots");
    }

    #[test]
    fn try_get_distinguishes_missing_from_corrupt() {
        let (mut pm, mut kv, _, _) = setup(64);
        kv.set(&mut pm, b"k", b"v").unwrap();
        assert_eq!(
            kv.try_get(&pm, b"k").unwrap().as_deref(),
            Some(&b"v"[..])
        );
        assert_eq!(kv.try_get(&pm, b"absent").unwrap(), None);
        // Free the blob out from under the index: try_get must report the
        // dangling pointer instead of pretending the key is absent.
        let mut ptr = 0;
        kv.index.for_each_entry(&pm, |_, p| ptr = p);
        kv.heap.free(&mut pm, PmemPtr(ptr)).unwrap();
        assert!(matches!(kv.try_get(&pm, b"k"), Err(KvError::Corrupt(_))));
        assert_eq!(kv.get(&pm, b"k"), None);
    }

    #[test]
    fn read_view_treats_torn_blobs_as_misses_without_panicking() {
        // A lock-free reader racing a writer can observe a slot whose
        // length words are newer than its payload bytes. The view must
        // degrade to a miss (the caller's seqlock retry corrects it),
        // never slice out of bounds or panic.
        let (mut pm, mut kv, _, _) = setup(64);
        kv.set(&mut pm, b"k", b"value").unwrap();
        let view = kv.read_view();
        assert_eq!(view.get(&pm, b"k").as_deref(), Some(&b"value"[..]));
        let mut ptr = 0;
        kv.index.for_each_entry(&pm, |_, p| ptr = p);

        // Torn key-length prefix: klen runs past the blob's end.
        pm.write(ptr as usize + 8, &u32::MAX.to_le_bytes());
        assert_eq!(view.get(&pm, b"k"), None);
        assert_eq!(view.get_batch(&pm, &[b"k".as_slice()]), vec![None]);

        // Torn slot-length word: blob length exceeds the slot capacity.
        pm.write_u64(ptr as usize, 1 << 40);
        assert_eq!(view.get(&pm, b"k"), None);
        assert_eq!(view.get_batch(&pm, &[b"k".as_slice()]), vec![None]);
    }

    #[test]
    fn config_builders_override_fields() {
        let cfg = KvConfig::for_capacity(100, 64)
            .with_index_cells_per_level(256)
            .with_group_size(32)
            .with_heap_bytes(1 << 16)
            .with_seed(9);
        assert_eq!(cfg.index_cells_per_level, 256);
        assert_eq!(cfg.group_size, 32);
        assert_eq!(cfg.heap_bytes, 1 << 16);
        assert_eq!(cfg.seed, 9);
        let size = PmemKv::<SimPmem>::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut kv = PmemKv::create(&mut pm, Region::new(0, size), &cfg).unwrap();
        kv.set(&mut pm, b"a", b"b").unwrap();
        assert_eq!(kv.get(&pm, b"a").as_deref(), Some(&b"b"[..]));
    }

    #[test]
    fn metrics_snapshot_has_pmem_counters() {
        let (mut pm, mut kv, _, _) = setup(100);
        kv.set(&mut pm, b"k", b"v").unwrap();
        let json = kv.metrics(&pm).to_string_pretty();
        assert!(json.contains("\"pmem\""), "{json}");
        assert!(json.contains("\"flushes\""), "{json}");
        // With `instrument` (directly or via feature unification) the
        // index section carries the probe histogram.
        if cfg!(feature = "instrument") {
            assert!(json.contains("\"index\""), "{json}");
            assert!(json.contains("\"probe\""), "{json}");
        }
    }

    #[test]
    fn update_replaces_and_reclaims() {
        let (mut pm, mut kv, _, _) = setup(100);
        kv.set(&mut pm, b"k", b"small").unwrap();
        kv.set(&mut pm, b"k", b"a much longer value that needs a bigger class")
            .unwrap();
        assert_eq!(
            kv.get(&pm, b"k").as_deref(),
            Some(&b"a much longer value that needs a bigger class"[..])
        );
        // No leak: old blob was freed.
        assert_eq!(kv.usage(&pm), (1, 1));
        kv.check_consistency(&pm).unwrap();
    }

    #[test]
    fn variable_sizes_and_many_keys() {
        let (mut pm, mut kv, _, _) = setup_avg(500, 256);
        for i in 0..300u32 {
            let key = format!("key-{i}");
            let value = vec![i as u8; (i % 200) as usize];
            kv.set(&mut pm, key.as_bytes(), &value).unwrap();
        }
        for i in 0..300u32 {
            let key = format!("key-{i}");
            assert_eq!(
                kv.get(&pm, key.as_bytes()),
                Some(vec![i as u8; (i % 200) as usize]),
                "{key}"
            );
        }
        assert_eq!(kv.len(&pm), 300);
        kv.check_consistency(&pm).unwrap();
    }

    #[test]
    fn reopen_preserves_store() {
        let (mut pm, mut kv, region, _cfg) = setup(100);
        kv.set(&mut pm, b"alpha", b"1").unwrap();
        kv.set(&mut pm, b"beta", b"2").unwrap();
        drop(kv);
        let kv2 = PmemKv::open(&mut pm, region).unwrap();
        assert_eq!(kv2.get(&pm, b"alpha").as_deref(), Some(&b"1"[..]));
        assert_eq!(kv2.len(&pm), 2);
        kv2.check_consistency(&pm).unwrap();
    }

    #[test]
    fn gc_reclaims_orphans() {
        let (mut pm, mut kv, _, _) = setup(100);
        kv.set(&mut pm, b"live", b"v").unwrap();
        // Fabricate an orphan: allocate directly in the heap, bypassing
        // the index.
        kv.heap.alloc(&mut pm, b"orphan").unwrap();
        assert_eq!(kv.usage(&pm), (1, 2));
        assert_eq!(kv.gc(&mut pm), Ok(1));
        assert_eq!(kv.usage(&pm), (1, 1));
        assert_eq!(kv.get(&pm, b"live").as_deref(), Some(&b"v"[..]));
        kv.check_consistency(&pm).unwrap();
    }

    #[test]
    fn crash_anywhere_in_set_update_delete_is_safe() {
        use nvm_pmem::{run_with_crash, CrashPlan};
        let (mut pm0, mut kv0, region, _cfg) = setup(64);
        kv0.set(&mut pm0, b"stable", b"rock").unwrap();
        kv0.set(&mut pm0, b"victim", b"old-value").unwrap();

        // Three in-flight ops to crash: fresh set, update, delete.
        type OpFn = fn(&mut PmemKv<SimPmem>, &mut SimPmem);
        let ops: [(&str, OpFn); 3] = [
            ("set-new", |kv, pm| kv.set(pm, b"fresh", b"new").unwrap()),
            ("update", |kv, pm| {
                kv.set(pm, b"victim", b"new-value").unwrap()
            }),
            ("delete", |kv, pm| {
                assert!(kv.delete(pm, b"victim"));
            }),
        ];
        for (name, op) in ops {
            let mut at = 0u64;
            loop {
                let mut pm = pm0.clone();
                let mut kv = PmemKv::open(&mut pm, region).unwrap();
                let base = pm.events();
                pm.set_crash_plan(Some(CrashPlan {
                    at_event: base + at,
                }));
                let done = run_with_crash(|| op(&mut kv, &mut pm)).is_ok();
                pm.crash(CrashResolution::Random(at));

                let mut kv = PmemKv::open(&mut pm, region).unwrap();
                for stage in ["open", "recover"] {
                    if stage == "recover" {
                        kv.recover(&mut pm).unwrap();
                    }
                    let ctx = format!("{name} after {stage} at +{at}");
                    assert_exact(&kv, &pm, stage, &ctx);
                    // Stable entry always intact.
                    assert_eq!(kv.get(&pm, b"stable").as_deref(), Some(&b"rock"[..]), "{ctx}");
                    // The targeted key is in a sane pre- or post-state.
                    let ok = match name {
                        "set-new" => {
                            let got = kv.get(&pm, b"fresh");
                            got.is_none() || got.as_deref() == Some(b"new")
                        }
                        "update" => {
                            let got = kv.get(&pm, b"victim");
                            got.as_deref() == Some(b"old-value")
                                || got.as_deref() == Some(b"new-value")
                        }
                        "delete" => {
                            let got = kv.get(&pm, b"victim");
                            got.is_none() || got.as_deref() == Some(b"old-value")
                        }
                        _ => unreachable!(),
                    };
                    assert!(ok, "{ctx}");
                }
                if done {
                    break;
                }
                at += 1;
                assert!(at < 300, "{name}: op never completed");
            }
        }
    }

    #[test]
    fn crash_while_reusing_a_lazily_freed_slot_is_safe() {
        use nvm_table::crashtest::{exhaust_crash_points, CrashCheck};
        // Slot X holds `v`'s first blob. It is the first slot of the
        // class's first slab, so after a reopen (which resets the heap's
        // placement hints) the next allocation of the class lands on it.
        let (mut pm0, mut kv0, region, _cfg) = setup(64);
        kv0.set(&mut pm0, b"v", b"value-1").unwrap();
        let x = kv0.index.get(&pm0, &fingerprint(b"v")).unwrap();
        kv0.set(&mut pm0, b"stable", b"rock").unwrap();
        // The update frees X in DRAM only; the pool keeps no record of
        // the free.
        kv0.set(&mut pm0, b"v", b"value-2").unwrap();
        assert!(!kv0.heap.is_allocated(PmemPtr(x)));
        drop(kv0);
        {
            // A crash that drops every unflushed word still reopens with
            // X free: the index no longer names it.
            let mut pm = pm0.clone();
            pm.crash(CrashResolution::DropUnflushed);
            let mut kv = PmemKv::open(&mut pm, region).unwrap();
            assert_eq!(kv.usage(&pm), (2, 2), "open is exact");
            kv.recover(&mut pm).unwrap();
            assert_eq!(kv.usage(&pm), (2, 2));
        }

        // Each op with the values `v` and `w` may hold after a crash
        // mid-op (old or new state); the last entry is the acked state.
        type OpFn = fn(&mut PmemKv<SimPmem>, &mut SimPmem);
        type State = (Option<&'static [u8]>, Option<&'static [u8]>);
        let ops: [(&str, OpFn, [State; 2]); 3] = [
            (
                "update reusing X",
                |kv, pm| kv.set(pm, b"v", b"value-3").unwrap(),
                [(Some(b"value-2"), None), (Some(b"value-3"), None)],
            ),
            (
                "insert reusing X",
                |kv, pm| kv.set(pm, b"w", b"fresh-w").unwrap(),
                [
                    (Some(b"value-2"), None),
                    (Some(b"value-2"), Some(b"fresh-w")),
                ],
            ),
            (
                "delete",
                |kv, pm| assert!(kv.delete(pm, b"v")),
                [(Some(b"value-2"), None), (None, None)],
            ),
        ];
        let check = |pm: &mut SimPmem, states: &[State]| {
            let mut kv = PmemKv::open(pm, region)?;
            for stage in ["open", "recover"] {
                if stage == "recover" {
                    kv.recover(pm)?;
                    kv.check_consistency(pm)?;
                } else {
                    kv.check_heap_links(pm)?;
                }
                let state = (kv.get(pm, b"v"), kv.get(pm, b"w"));
                let stable = kv.get(pm, b"stable");
                let (entries, slots) = kv.usage(pm);
                let ok = stable.as_deref() == Some(b"rock")
                    && states
                        .iter()
                        .any(|&(v, w)| (state.0.as_deref(), state.1.as_deref()) == (v, w))
                    && entries == slots;
                if !ok {
                    return Err(KvError::Corrupt(format!(
                        "after {stage}: stable {stable:?}, (v, w) {state:?}, \
                         {entries} entries vs {slots} slots"
                    )));
                }
            }
            Ok(())
        };
        for (name, op, states) in ops {
            // The completed op reuses X for the blob it writes (delete
            // writes none), and its effect survives a crash that drops
            // every unflushed word.
            let mut pm = pm0.clone();
            op(&mut PmemKv::open(&mut pm, region).unwrap(), &mut pm);
            let kv = PmemKv::open(&mut pm, region).unwrap();
            let written = match name {
                "update reusing X" => kv.index.get(&pm, &fingerprint(b"v")),
                "insert reusing X" => kv.index.get(&pm, &fingerprint(b"w")),
                _ => Some(x),
            };
            assert_eq!(written, Some(x), "{name}: X was not reused");
            pm.crash(CrashResolution::DropUnflushed);
            check(&mut pm, &states[1..]).unwrap_or_else(|e| panic!("{name} acked: {e}"));

            let report = exhaust_crash_points(CrashCheck {
                setup: &|| pm0.clone(),
                op: &|pm| op(&mut PmemKv::open(pm, region).unwrap(), pm),
                recover_and_check: &|pm| {
                    check(pm, &states).map_err(|e| TableError::Corrupt(e.to_string()))
                },
                max_events: 300,
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(report.crash_points > 5, "{name}: {report:?}");
        }
    }

    #[test]
    fn crash_anywhere_during_set_batch_is_safe() {
        use nvm_pmem::{run_with_crash, CrashPlan};
        let (mut pm0, mut kv0, region, _cfg) = setup(128);
        kv0.set(&mut pm0, b"stable", b"rock").unwrap();
        kv0.set(&mut pm0, b"upd-a", b"old-a").unwrap();
        kv0.set(&mut pm0, b"upd-b", b"old-b").unwrap();
        drop(kv0);

        // Fresh inserts, two updates, and an in-batch duplicate: every
        // branch of the two-stage (blobs first, grouped index commit
        // second) choreography gets a crash window.
        let fresh: Vec<(Vec<u8>, Vec<u8>)> = (0..6u32)
            .map(|i| (format!("bf-{i}").into_bytes(), vec![0x40 + i as u8; 24]))
            .collect();
        let mut items: Vec<(&[u8], &[u8])> = fresh
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        items.push((b"upd-a", b"new-a"));
        items.push((b"upd-b", b"new-b"));
        items.push((b"dupk", b"first"));
        items.push((b"dupk", b"second"));

        let mut at = 0u64;
        loop {
            let mut pm = pm0.clone();
            let mut kv = PmemKv::open(&mut pm, region).unwrap();
            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + at,
            }));
            let done = run_with_crash(|| kv.set_batch(&mut pm, &items).unwrap()).is_ok();
            pm.crash(CrashResolution::Random(at));

            let mut kv = PmemKv::open(&mut pm, region).unwrap();
            for stage in ["open", "recover"] {
                if stage == "recover" {
                    kv.recover(&mut pm).unwrap();
                }
                let ctx = format!("after {stage} at +{at}");
                // Occupancy is exactly the index: committed blobs awaiting
                // their index entry, new update blobs never swapped in and
                // old update blobs never freed are all free again.
                assert_exact(&kv, &pm, stage, &ctx);
                assert_eq!(kv.get(&pm, b"stable").as_deref(), Some(&b"rock"[..]), "{ctx}");
                // Every batch key is in a sane pre- or post-state; torn
                // values never surface.
                for (i, (k, _)) in fresh.iter().enumerate() {
                    let got = kv.get(&pm, k);
                    assert!(
                        got.is_none() || got.as_deref() == Some(&[0x40 + i as u8; 24][..]),
                        "bf-{i} {ctx}: {got:?}"
                    );
                }
                for (k, old, new) in [
                    (&b"upd-a"[..], &b"old-a"[..], &b"new-a"[..]),
                    (&b"upd-b"[..], &b"old-b"[..], &b"new-b"[..]),
                ] {
                    let got = kv.get(&pm, k);
                    assert!(
                        got.as_deref() == Some(old) || got.as_deref() == Some(new),
                        "update {ctx}: {got:?}"
                    );
                }
                // In-batch last-write-wins resolves in DRAM before the
                // index commit, so the first duplicate's value is never
                // visible.
                let got = kv.get(&pm, b"dupk");
                assert!(
                    got.is_none() || got.as_deref() == Some(b"second"),
                    "dupk {ctx}: {got:?}"
                );
            }

            // Re-running the batch converges on the post state.
            kv.set_batch(&mut pm, &items).unwrap();
            for (i, (k, _)) in fresh.iter().enumerate() {
                assert_eq!(kv.get(&pm, k), Some(vec![0x40 + i as u8; 24]), "at +{at}");
            }
            assert_eq!(kv.get(&pm, b"upd-a").as_deref(), Some(&b"new-a"[..]));
            assert_eq!(kv.get(&pm, b"dupk").as_deref(), Some(&b"second"[..]));
            assert_exact(&kv, &pm, "recover", &format!("after replay at +{at}"));

            if done {
                break;
            }
            at += 1;
            assert!(at < 5000, "set_batch never completed");
        }
    }

    #[test]
    fn crash_anywhere_during_gc_step_is_safe() {
        use nvm_pmem::{run_with_crash, CrashPlan};
        let (mut pm0, mut kv0, region, _cfg) = setup(96);
        // Live entries, then churn: delete most of them so slabs go
        // sparse and the drainer's compactor has real work to do.
        let n = 24u32;
        for i in 0..n {
            kv0.set(&mut pm0, format!("gk-{i}").as_bytes(), &[i as u8; 20])
                .unwrap();
        }
        let survivors: Vec<u32> = (0..n).filter(|i| i % 6 == 0).collect();
        for i in 0..n {
            if !survivors.contains(&i) {
                assert!(kv0.delete(&mut pm0, format!("gk-{i}").as_bytes()));
            }
        }
        drop(kv0);

        let mut at = 0u64;
        loop {
            let mut pm = pm0.clone();
            let mut kv = PmemKv::open(&mut pm, region).unwrap();
            // Fabricate orphans — well-formed KV records whose keys the
            // index never saw, and raw garbage that doesn't even decode —
            // so the pass frees blobs as well as compacting.
            for i in 0..4u32 {
                kv.heap
                    .alloc(&mut pm, &encode_blob(format!("ghost-{i}").as_bytes(), &[0xEE; 12]))
                    .unwrap();
            }
            kv.heap.alloc(&mut pm, b"not a kv record").unwrap();
            let (entries0, slots0) = kv.usage(&pm);
            assert_eq!(entries0, survivors.len() as u64);
            assert_eq!(slots0, entries0 + 5, "fixture must hold orphans");
            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + at,
            }));
            let done = run_with_crash(|| {
                while kv.gc_step(&mut pm, 4).unwrap() {}
            })
            .is_ok();
            pm.crash(CrashResolution::Random(at));

            // A crash mid-compaction leaves the index naming the old or
            // the new copy of the moved blob; the other one, and every
            // orphan, is free after the rebuild.
            let mut kv = PmemKv::open(&mut pm, region).unwrap();
            assert!(!kv.gc_pending(), "a reopened store has no pass in flight");
            for stage in ["open", "recover"] {
                if stage == "recover" {
                    kv.recover(&mut pm).unwrap();
                }
                let ctx = format!("after {stage} at +{at}");
                assert_exact(&kv, &pm, stage, &ctx);
                for &i in &survivors {
                    assert_eq!(
                        kv.get(&pm, format!("gk-{i}").as_bytes()),
                        Some(vec![i as u8; 20]),
                        "gk-{i} lost {ctx}"
                    );
                }
                assert_eq!(kv.len(&pm), survivors.len() as u64, "{ctx}");
            }

            if done {
                break;
            }
            at += 1;
            assert!(at < 5000, "gc pass never completed");
        }
    }

    /// One `set` that updates a key costs its blob's lines plus the index
    /// value word, under two fences: blob durable, pointer swap durable.
    /// The free of the replaced blob writes nothing.
    #[test]
    fn set_update_budget_is_pinned() {
        let (mut pm, mut kv, _, _) = setup(64);
        kv.set(&mut pm, b"key", b"old").unwrap();
        let value = [7u8; 100];
        pm.reset_stats();
        kv.set(&mut pm, b"key", &value).unwrap();
        let st = pm.stats();
        let ptr = kv.index.get(&pm, &fingerprint(b"key")).unwrap() as usize;
        let len = LEN_PREFIX + encode_blob(b"key", &value).len();
        let blob_lines = ((ptr + len).div_ceil(64) - ptr / 64) as u64;
        assert_eq!((st.flushes, st.fences), (blob_lines + 1, 2));
    }

    /// Recovery rejects an index pointer the heap could never have handed
    /// out — not a slot start, outside the heap, or named by two entries
    /// — with a typed error instead of a panic.
    #[test]
    fn recover_rejects_bad_index_pointers() {
        let (mut pm0, mut kv0, region, _) = setup(64);
        kv0.set(&mut pm0, b"a", b"alpha").unwrap();
        kv0.set(&mut pm0, b"b", b"beta").unwrap();
        let a = kv0.index.get(&pm0, &fingerprint(b"a")).unwrap();
        let b = kv0.index.get(&pm0, &fingerprint(b"b")).unwrap();
        drop(kv0);
        let b_word = value_word_of(&pm0, b);
        for bad in [b + 8, pm0.len() as u64 + 64, a] {
            let mut pm = pm0.clone();
            let mut kv = PmemKv::open(&mut pm, region).unwrap();
            pm.write_u64(b_word, bad);
            assert!(
                matches!(kv.recover(&mut pm), Err(KvError::Corrupt(_))),
                "recover accepted index pointer {bad:#x}"
            );
            assert!(
                matches!(PmemKv::open(&mut pm, region), Err(KvError::Corrupt(_))),
                "open accepted index pointer {bad:#x}"
            );
        }
    }

    #[test]
    fn read_view_matches_engine_reads() {
        let (mut pm, mut kv, _, _) = setup(200);
        for i in 0..100u32 {
            kv.set(&mut pm, format!("rv-{i}").as_bytes(), &[i as u8; 12])
                .unwrap();
        }
        let view = kv.read_view();
        let reader = pm.read_handle();
        for i in 0..100u32 {
            let key = format!("rv-{i}");
            assert_eq!(
                view.get(&reader, key.as_bytes()),
                kv.get(&pm, key.as_bytes()),
                "{key}"
            );
            assert!(view.contains(&reader, key.as_bytes()));
        }
        assert_eq!(view.get(&reader, b"absent"), None);
        // The view tracks later mutations (it holds layout, not bytes).
        assert!(kv.delete(&mut pm, b"rv-0"));
        assert_eq!(view.get(&reader, b"rv-0"), None);
    }

    #[test]
    fn get_batch_matches_sequential_gets() {
        let (mut pm, mut kv, _, _) = setup_avg(300, 64);
        for i in 0..200u32 {
            kv.set(&mut pm, format!("mb-{i}").as_bytes(), &vec![i as u8; (i % 90) as usize])
                .unwrap();
        }
        let owned: Vec<Vec<u8>> = (0..260u32) // 200.. miss
            .map(|i| format!("mb-{i}").into_bytes())
            .chain([b"mb-7".to_vec()]) // duplicate
            .collect();
        let keys: Vec<&[u8]> = owned.iter().map(|k| k.as_slice()).collect();
        let batch = kv.get_batch(&pm, &keys);
        assert_eq!(batch.len(), keys.len());
        for (key, got) in keys.iter().zip(&batch) {
            assert_eq!(*got, kv.get(&pm, key));
        }
        // The read view agrees, through a bare read handle.
        let view = kv.read_view();
        let reader = pm.read_handle();
        assert_eq!(view.get_batch(&reader, &keys), batch);
        assert!(kv.get_batch(&pm, &[]).is_empty());
        // A pure read: the batch added no persistence events.
        pm.reset_stats();
        let _ = kv.get_batch(&pm, &keys);
        let s = pm.stats();
        assert_eq!(
            (s.flushes, s.fences, s.atomic_writes, s.writes),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn empty_keys_and_values() {
        let (mut pm, mut kv, _, _) = setup(32);
        kv.set(&mut pm, b"", b"empty-key").unwrap();
        kv.set(&mut pm, b"empty-value", b"").unwrap();
        assert_eq!(kv.get(&pm, b"").as_deref(), Some(&b"empty-key"[..]));
        assert_eq!(kv.get(&pm, b"empty-value").as_deref(), Some(&b""[..]));
        kv.check_consistency(&pm).unwrap();
    }

    #[test]
    fn index_full_is_clean() {
        let cfg = KvConfig {
            index_cells_per_level: 16,
            group_size: 16,
            heap_bytes: 64 * 1024,
            seed: 1,
            fp: FpMode::default(),
            consistency: ConsistencyMode::default(),
        };
        let size = PmemKv::<SimPmem>::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut kv = PmemKv::create(&mut pm, Region::new(0, size), &cfg).unwrap();
        let mut stored = 0;
        let mut full = false;
        for i in 0..200u32 {
            match kv.set(&mut pm, format!("k{i}").as_bytes(), b"v") {
                Ok(()) => stored += 1,
                Err(KvError::IndexFull) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(full, "tiny index never filled ({stored} stored)");
        // The failed insert must not leak its blob.
        let (entries, slots) = kv.usage(&pm);
        assert_eq!(entries, slots);
        kv.check_consistency(&pm).unwrap();
    }
}
