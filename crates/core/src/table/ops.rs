//! Algorithms 1–4: the group table's insert/get/delete/recover policy,
//! written as probe-plan + cell-store compositions.
//!
//! The scans here decide *which* cells to examine (via the pure plans in
//! [`super::probe`]) and read occupancy words/keys through the shared
//! [`CellStore`](nvm_table::CellStore) accessors; every mutation funnels
//! through the commit choreography in `store.rs`.

use super::{GroupHash, Level};
use crate::config::{CountMode, ProbeLayout};
use nvm_hashfn::{HashKey, Pod};
use nvm_pmem::{Pmem, PmemRead};
use nvm_table::probe::{match_bits, Selection};
use nvm_table::meta::META_LANES;
use nvm_table::{BatchError, BatchSession, InsertError};

impl<P: Pmem, K: HashKey, V: Pod> GroupHash<P, K, V> {
    /// Finds an empty level-2 cell in group `g`, honouring the probe
    /// layout; cells claimed by a staged publish in `sess` count as
    /// occupied. Also returns how many cells were examined: the offset of
    /// the free cell plus one, or the whole group on a miss (every cell
    /// examined before the free one is occupied, which is what the
    /// occupancy histogram records).
    fn find_free_in_group(
        &self,
        pm: &P,
        sess: &BatchSession<K, V>,
        g: u64,
    ) -> (Option<u64>, u64) {
        match self.config.probe {
            ProbeLayout::Contiguous => {
                let start = g * self.config.group_size;
                let end = start + self.config.group_size;
                let mut cur = start;
                while cur < end {
                    match self.store2.bitmap.find_zero_in_range(pm, cur, end - cur) {
                        Some(idx) if sess.is_claimed(&self.store2, idx) => cur = idx + 1,
                        Some(idx) => return (Some(idx), idx - start + 1),
                        None => break,
                    }
                }
                (None, self.config.group_size)
            }
            ProbeLayout::Strided => {
                // The stride is `n_groups`, so consecutive probe steps
                // often land in the same 64-bit word; hoist the word read
                // like the contiguous path instead of one `get` per cell.
                let mut cached: Option<(u64, u64)> = None; // (word_base, word)
                for i in 0..self.config.group_size {
                    let idx = self.group_cell(g, i);
                    let word_base = idx & !63;
                    let word = match cached {
                        Some((b, w)) if b == word_base => w,
                        _ => {
                            let w = self.store2.bitmap.word_containing(pm, idx);
                            cached = Some((word_base, w));
                            w
                        }
                    };
                    if word >> (idx % 64) & 1 == 0 && !sess.is_claimed(&self.store2, idx) {
                        return (Some(idx), i + 1);
                    }
                }
                (None, self.config.group_size)
            }
        }
    }

    /// Scans group `g`'s level-2 cells for `key`; returns the cell index.
    ///
    /// In the contiguous layout the scan is word-wise: one bitmap read
    /// covers 64 cells, and the occupied cells are then compared in
    /// ascending address order — an access pattern the hardware stream
    /// prefetcher locks onto (the mechanism behind the paper's
    /// "a single memory access can prefetch the following cells").
    ///
    /// `tag` is `Some` exactly under `FpMode::On`: the scan then goes
    /// *tag-first* — eight cached tags load as one word, a SWAR compare
    /// against the probe tag ANDed with the occupancy bits selects the
    /// candidate cells, and only those have their key bytes read from the
    /// pool.
    ///
    /// The second return value counts occupied cells examined in scan
    /// order up to (and including) the hit — the same value in both
    /// fingerprint modes, so probe histograms stay mode-independent and
    /// comparable (under `FpMode::On` an "examined" cell may have been
    /// resolved from its DRAM tag alone).
    fn find_key_in_group<R: PmemRead>(
        &self,
        pm: &R,
        g: u64,
        key: &K,
        tag: Option<u8>,
    ) -> (Option<u64>, u64) {
        let mut examined = 0u64;
        match self.config.probe {
            ProbeLayout::Contiguous => {
                let start = g * self.config.group_size;
                let end = start + self.config.group_size;
                let mut base = start;
                while base < end {
                    let mut word = self.store2.bitmap.word_containing(pm, base);
                    // Mask off bits outside [start, end) within this word
                    // (only relevant for groups smaller than 64).
                    let lo = base % 64;
                    if lo != 0 {
                        word &= u64::MAX << lo;
                    }
                    let word_base = base - lo;
                    let span = (end - word_base).min(64);
                    if span < 64 {
                        word &= (1u64 << span) - 1;
                    }
                    match tag {
                        Some(tag) => {
                            let fp = self.fp.as_ref().expect("tag implies cache");
                            // Tag-first: 8 cells (one tag word) at a time.
                            let mut sub = 0u64;
                            while sub < 64 {
                                let occ = word >> sub & 0xFF;
                                if occ != 0 {
                                    let bucket = (word_base + sub) / META_LANES;
                                    let tags = fp[Level::Two.idx()].word(bucket);
                                    let cand = match_bits(tags, tag) & occ;
                                    let mut c = cand;
                                    while c != 0 {
                                        let bit = c.trailing_zeros() as u64;
                                        let idx = word_base + sub + bit;
                                        self.note_key_reads(1);
                                        if self.store2.cells.read_key(pm, idx) == *key {
                                            let below = (1u64 << bit) - 1;
                                            examined +=
                                                u64::from((occ & (below | 1 << bit)).count_ones());
                                            let skipped = (occ & !cand & below).count_ones();
                                            self.note_fp(u64::from(skipped), 0, 1);
                                            return (Some(idx), examined);
                                        }
                                        self.note_fp(0, 1, 0);
                                        c &= c - 1;
                                    }
                                    examined += u64::from(occ.count_ones());
                                    self.note_fp(u64::from((occ & !cand).count_ones()), 0, 0);
                                }
                                sub += 8;
                            }
                        }
                        None => {
                            while word != 0 {
                                let bit = word.trailing_zeros() as u64;
                                let idx = word_base + bit;
                                examined += 1;
                                self.note_key_reads(1);
                                if self.store2.cells.read_key(pm, idx) == *key {
                                    return (Some(idx), examined);
                                }
                                word &= word - 1;
                            }
                        }
                    }
                    base = word_base + 64;
                }
                (None, examined)
            }
            ProbeLayout::Strided => {
                // Hoisted occupancy-word reads (stride = n_groups, so
                // consecutive steps often share a word); per-cell tag
                // checks — strided tags are not adjacent in the cache, so
                // there is no word to load.
                let mut cached: Option<(u64, u64)> = None;
                for i in 0..self.config.group_size {
                    let idx = self.group_cell(g, i);
                    let word_base = idx & !63;
                    let word = match cached {
                        Some((b, w)) if b == word_base => w,
                        _ => {
                            let w = self.store2.bitmap.word_containing(pm, idx);
                            cached = Some((word_base, w));
                            w
                        }
                    };
                    if word >> (idx % 64) & 1 == 0 {
                        continue;
                    }
                    examined += 1;
                    if let Some(tag) = tag {
                        let fp = self.fp.as_ref().expect("tag implies cache");
                        if fp[Level::Two.idx()].tag(idx) != tag {
                            self.note_fp(1, 0, 0);
                            continue;
                        }
                    }
                    self.note_key_reads(1);
                    if self.store2.cells.read_key(pm, idx) == *key {
                        if tag.is_some() {
                            self.note_fp(0, 0, 1);
                        }
                        return (Some(idx), examined);
                    }
                    if tag.is_some() {
                        self.note_fp(0, 1, 0);
                    }
                }
                (None, examined)
            }
        }
    }

    /// Candidate level-1 slots for `key`, primary first.
    #[inline]
    fn candidate_slots(&self, key: &K) -> (u64, Option<u64>) {
        super::probe::candidate_slots(&self.hash, &self.config, key)
    }

    /// Algorithm 1's placement decision (with the §4.4 two-choice
    /// extension when configured: try the second slot and the second
    /// matched group before giving up), planned against the committed bits
    /// *plus* `sess`'s staged claims so a batch never places two keys in
    /// one cell. Pure reads — records the insert's probe/occupancy sample
    /// but writes nothing.
    fn plan_insert(
        &self,
        pm: &P,
        sess: &BatchSession<K, V>,
        key: &K,
    ) -> Result<(Level, u64), InsertError> {
        let (k1, k2) = self.candidate_slots(key);
        let mut probes = 1u64; // the k1 slot check
        if self.store1.is_free_for(pm, sess, k1) {
            self.note_insert(probes, 0);
            return Ok((Level::One, k1));
        }
        if let Some(k2) = k2 {
            probes += 1;
            if self.store1.is_free_for(pm, sess, k2) {
                self.note_insert(probes, 1);
                return Ok((Level::One, k2));
            }
        }
        // Occupied cells stepped over so far: every checked level-1 slot.
        let mut occupied = probes;
        let g1 = self.group_of(k1);
        let (free, examined) = self.find_free_in_group(pm, sess, g1);
        probes += examined;
        if let Some(idx) = free {
            occupied += examined - 1;
            self.note_insert(probes, occupied);
            return Ok((Level::Two, idx));
        }
        occupied += examined;
        if let Some(k2) = k2 {
            let g2 = self.group_of(k2);
            if g2 != g1 {
                let (free, examined) = self.find_free_in_group(pm, sess, g2);
                probes += examined;
                if let Some(idx) = free {
                    occupied += examined - 1;
                    self.note_insert(probes, occupied);
                    return Ok((Level::Two, idx));
                }
                occupied += examined;
            }
        }
        // "If there are no empty cells in the matched group, the
        // capacity of the hash table needs to be expanded."
        self.note_insert(probes, occupied);
        Err(InsertError::TableFull)
    }

    /// Algorithm 1: a one-element batch, reproducing the paper's 3-flush /
    /// 3-fence / 2-atomic single-op trace event for event.
    pub fn insert(&mut self, pm: &mut P, key: K, value: V) -> Result<(), InsertError> {
        self.insert_batch(pm, &[(key, value)]).map_err(|e| e.error)
    }

    /// Batched Algorithm 1 with fence coalescing: each op is planned
    /// against the committed bits plus the batch's staged claims, its cell
    /// write is staged, and the commits are grouped so `K` inserts cost
    /// `K + 2` fences instead of `3K` — while keeping each op's 8-byte
    /// bitmap flip individually failure-atomic (prefix durability; see
    /// [`BatchSession`]). Under the forced-logging ablation the batch is
    /// split into log-capacity chunks, each an all-or-nothing transaction.
    ///
    /// On `TableFull` the already-staged prefix is committed before
    /// returning; [`BatchError::committed`] reports its length.
    pub fn insert_batch(&mut self, pm: &mut P, items: &[(K, V)]) -> Result<(), BatchError> {
        if items.is_empty() {
            return Ok(());
        }
        let base = pm.stats();
        let per_op = [self.store1.cells.entry_len(), 8];
        let fixed: &[usize] = match self.config.count_mode {
            CountMode::Persistent => &[8],
            CountMode::Volatile => &[],
        };
        let chunk_cap = self.journal.ops_per_txn(&per_op, fixed);
        let mut sess = BatchSession::new();
        let mut committed = 0usize;
        let mut failure = None;
        for (key, value) in items {
            match self.plan_insert(pm, &sess, key) {
                Ok((level, idx)) => {
                    self.stage_insert(pm, &mut sess, level, idx, key, value);
                    if sess.staged() >= chunk_cap {
                        let n = sess.staged();
                        self.commit_batch(pm, &mut sess, n as i64);
                        committed += n;
                    }
                }
                Err(error) => {
                    failure = Some(error);
                    break;
                }
            }
        }
        if !sess.is_empty() {
            let n = sess.staged();
            self.commit_batch(pm, &mut sess, n as i64);
            committed += n;
        }
        let spent = pm.stats().delta_since(&base);
        self.note_batch(committed as u64, spent.fences, spent.flushes);
        match failure {
            Some(error) => Err(BatchError { committed, error }),
            None => Ok(()),
        }
    }

    /// Algorithm 2.
    pub fn get(&self, pm: &P, key: &K) -> Option<V> {
        self.locate(pm, key)
            .map(|(level, idx)| self.level_store(level).read_value(pm, idx))
    }

    /// Vectorized Algorithm 2: one lookup per key, same results (and same
    /// probe/fingerprint instrumentation totals) as calling
    /// [`GroupHash::get`] per element, but pipelined so NVM read latencies
    /// overlap instead of serializing:
    ///
    /// 1. hash the whole key vector up front (slots, groups, tags);
    /// 2. software-prefetch every key's level-1 bitmap word and cell line;
    /// 3. resolve all level-1 probes against the now-warm lines; keys
    ///    still unresolved survive into a [`Selection`] vector;
    /// 4. prefetch the matched groups' occupancy words for the survivors,
    ///    then (contiguous layout) the candidate cells those words + the
    ///    DRAM tag cache select;
    /// 5. run the group scans — every line they touch was prefetched.
    ///
    /// Like `get`, this is a pure read: zero flushes, zero fences, zero
    /// (atomic) writes. The strided ablation layout skips the group
    /// prefetches (its cells share no lines — there is nothing coherent
    /// to fetch ahead), keeping the comparison honest.
    pub fn get_batch(&self, pm: &P, keys: &[K]) -> Vec<Option<V>> {
        let mut out: Vec<Option<V>> = vec![None; keys.len()];
        if keys.is_empty() {
            return out;
        }
        // Phase 1: hash everything before touching the pool.
        let tagging = self.fp.is_some();
        let mut slots: Vec<(u64, Option<u64>)> = Vec::with_capacity(keys.len());
        let mut tags: Vec<u8> = Vec::with_capacity(keys.len());
        for key in keys {
            slots.push(self.candidate_slots(key));
            tags.push(if tagging { self.fp_tag(key) } else { 0 });
        }
        // Phase 2: issue the level-1 prefetches for the whole batch.
        for (i, &(k1, k2)) in slots.iter().enumerate() {
            let tag = tagging.then(|| tags[i]);
            self.prefetch_level1(pm, k1, tag);
            if let Some(k2) = k2 {
                self.prefetch_level1(pm, k2, tag);
            }
        }
        // Phase 3: resolve level 1 for every key; survivors go on.
        let mut sel = Selection::new();
        let mut probes: Vec<u64> = vec![0; keys.len()];
        for (i, key) in keys.iter().enumerate() {
            let (k1, k2) = slots[i];
            let tag = tagging.then(|| tags[i]);
            probes[i] = 1;
            if self.level1_holds(pm, k1, key, tag) {
                self.note_probe(probes[i]);
                out[i] = Some(self.store1.read_value(pm, k1));
                continue;
            }
            if let Some(k2) = k2 {
                probes[i] += 1;
                if self.level1_holds(pm, k2, key, tag) {
                    self.note_probe(probes[i]);
                    out[i] = Some(self.store1.read_value(pm, k2));
                    continue;
                }
            }
            sel.push(i as u32);
        }
        // Phase 4: warm the survivors' groups before scanning any of them.
        if self.config.probe == ProbeLayout::Contiguous {
            for &i in sel.indices() {
                let (k1, k2) = slots[i as usize];
                let g1 = self.group_of(k1);
                self.prefetch_group(pm, g1, tagging.then(|| tags[i as usize]));
                if let Some(k2) = k2 {
                    let g2 = self.group_of(k2);
                    if g2 != g1 {
                        self.prefetch_group(pm, g2, tagging.then(|| tags[i as usize]));
                    }
                }
            }
        }
        // Phase 5: the scans themselves — identical code (and identical
        // instrumentation) to the single-key path, now against warm lines.
        for &i in sel.indices() {
            let i = i as usize;
            let key = &keys[i];
            let (k1, k2) = slots[i];
            let tag = tagging.then(|| tags[i]);
            let g1 = self.group_of(k1);
            let (found, compared) = self.find_key_in_group(pm, g1, key, tag);
            probes[i] += compared;
            if let Some(idx) = found {
                self.note_probe(probes[i]);
                out[i] = Some(self.store2.read_value(pm, idx));
                continue;
            }
            if let Some(k2) = k2 {
                let g2 = self.group_of(k2);
                if g2 != g1 {
                    let (found, compared) = self.find_key_in_group(pm, g2, key, tag);
                    probes[i] += compared;
                    if let Some(idx) = found {
                        self.note_probe(probes[i]);
                        out[i] = Some(self.store2.read_value(pm, idx));
                        continue;
                    }
                }
            }
            self.note_probe(probes[i]);
        }
        out
    }

    /// Prefetches the lines a level-1 probe of slot `k` will touch: the
    /// occupancy word, and — unless the DRAM tag sieve already rejects
    /// the slot — the cell's key/value bytes. Under `FpMode::On` the
    /// resolve phase never reads a mismatching slot's key, so warming
    /// that line would be pure issue overhead (the sieve rejects
    /// ~255/256 of wrong slots).
    #[inline]
    fn prefetch_level1(&self, pm: &P, k: u64, tag: Option<u8>) {
        pm.prefetch(self.store1.bitmap.word_off_of(k), 8);
        if let Some(tag) = tag {
            let fp = self.fp.as_ref().expect("tag implies cache");
            if fp[Level::One.idx()].tag(k) != tag {
                return;
            }
        }
        pm.prefetch(self.store1.cells.cell_off(k), self.store1.cells.entry_len());
    }

    /// Prefetches what a contiguous group scan of `g` will read, without
    /// duplicating the hardware stream prefetcher:
    ///
    /// * the group's occupancy words, always (the scan's first load, and
    ///   a random access no streamer predicts);
    /// * with the tag sieve **off**, only the *head* of the group's cell
    ///   range — the scan walks the cells in ascending line order, which
    ///   is exactly the pattern the L2 streamer locks onto after the
    ///   first touches, so issuing a software prefetch per line would
    ///   pay the issue cost for lines the streamer covers free;
    /// * with the tag sieve **on**, exactly the cells whose cached tag
    ///   matches — the sieve leaves a sparse candidate set that forms no
    ///   stream, so each survivor is prefetched individually (peeking at
    ///   the just-warmed occupancy words plus the DRAM tag cache; the
    ///   peek re-reads lines the scan reads again later, and neither
    ///   read is a persistence event).
    fn prefetch_group(&self, pm: &P, g: u64, tag: Option<u8>) {
        let start = g * self.config.group_size;
        let end = start + self.config.group_size;
        let bits_lo = self.store2.bitmap.word_off_of(start);
        let bits_hi = self.store2.bitmap.word_off_of(end - 1) + 8;
        pm.prefetch(bits_lo, bits_hi - bits_lo);
        let Some(tag) = tag else {
            let lo = self.store2.cells.cell_off(start);
            let span = self.store2.cells.cell_off(end - 1) + self.store2.cells.entry_len() - lo;
            pm.prefetch(lo, span.min(2 * 64));
            return;
        };
        let fp = self.fp.as_ref().expect("tag implies cache");
        let mut base = start;
        while base < end {
            let mut word = self.store2.bitmap.word_containing(pm, base);
            let lo = base % 64;
            if lo != 0 {
                word &= u64::MAX << lo;
            }
            let word_base = base - lo;
            let span = (end - word_base).min(64);
            if span < 64 {
                word &= (1u64 << span) - 1;
            }
            let mut cand = 0u64;
            let mut sub = 0u64;
            while sub < 64 {
                let occ = word >> sub & 0xFF;
                if occ != 0 {
                    let bucket = (word_base + sub) / META_LANES;
                    let tags = fp[Level::Two.idx()].word(bucket);
                    cand |= (match_bits(tags, tag) & occ) << sub;
                }
                sub += 8;
            }
            while cand != 0 {
                let bit = cand.trailing_zeros() as u64;
                let idx = word_base + bit;
                pm.prefetch(self.store2.cells.cell_off(idx), self.store2.cells.entry_len());
                cand &= cand - 1;
            }
            base = word_base + 64;
        }
    }

    /// Checks whether level-1 slot `k` holds `key`, reading the key bytes
    /// only when the slot is occupied and (under `FpMode::On`) its
    /// cached tag matches.
    #[inline]
    fn level1_holds<R: PmemRead>(&self, pm: &R, k: u64, key: &K, tag: Option<u8>) -> bool {
        if !self.store1.is_occupied(pm, k) {
            return false;
        }
        if let Some(tag) = tag {
            let fp = self.fp.as_ref().expect("tag implies cache");
            if fp[Level::One.idx()].tag(k) != tag {
                self.note_fp(1, 0, 0);
                return false;
            }
        }
        self.note_key_reads(1);
        let hit = self.store1.cells.read_key(pm, k) == *key;
        if tag.is_some() {
            if hit {
                self.note_fp(0, 0, 1);
            } else {
                self.note_fp(0, 1, 0);
            }
        }
        hit
    }

    /// Finds the `(level, cell)` holding `key`, probing the candidate
    /// slot(s) then the matched group(s). Records one probe-length sample
    /// (cells examined) per call when instrumentation is enabled.
    pub(super) fn locate<R: PmemRead>(&self, pm: &R, key: &K) -> Option<(Level, u64)> {
        let (k1, k2) = self.candidate_slots(key);
        let tag = self.fp.as_ref().map(|_| self.fp_tag(key));
        let mut probes = 1u64;
        if self.level1_holds(pm, k1, key, tag) {
            self.note_probe(probes);
            return Some((Level::One, k1));
        }
        if let Some(k2) = k2 {
            probes += 1;
            if self.level1_holds(pm, k2, key, tag) {
                self.note_probe(probes);
                return Some((Level::One, k2));
            }
        }
        let g1 = self.group_of(k1);
        let (found, compared) = self.find_key_in_group(pm, g1, key, tag);
        probes += compared;
        if let Some(idx) = found {
            self.note_probe(probes);
            return Some((Level::Two, idx));
        }
        if let Some(k2) = k2 {
            let g2 = self.group_of(k2);
            if g2 != g1 {
                let (found, compared) = self.find_key_in_group(pm, g2, key, tag);
                probes += compared;
                if let Some(idx) = found {
                    self.note_probe(probes);
                    return Some((Level::Two, idx));
                }
            }
        }
        self.note_probe(probes);
        None
    }

    /// Updates the value of an existing `key` in place, returning whether
    /// the key was found — a one-element [`GroupHash::update_batch`].
    pub fn update_in_place(&mut self, pm: &mut P, key: &K, value: V) -> bool {
        self.update_batch(pm, &[(*key, value)])[0].is_some()
    }

    /// Overwrites the value of every present key in `items`, in order,
    /// and returns each key's replaced value (`None` for a key not
    /// stored, which is left absent). Each found key's value bytes are
    /// written and flushed where they are, then **one** fence makes the
    /// whole batch durable: K found keys cost K flushes, 1 fence and no
    /// atomic writes; a batch with no key found touches nothing.
    ///
    /// For values of 8 bytes or less each overwrite is
    /// **failure-atomic** (a single aligned store — cells are 8-byte
    /// aligned and the key prefix is a multiple of 8 for all provided key
    /// types): a crash leaves every key with either its old or its new
    /// value, independently of the others. For larger values a crash
    /// can tear at 8-byte granularity; use remove+insert (or an
    /// indirection pointer as `nvm-kv` does) when multi-word values must
    /// switch atomically. A key listed twice is overwritten twice, and
    /// its second answer is the value the first wrote.
    pub fn update_batch(&mut self, pm: &mut P, items: &[(K, V)]) -> Vec<Option<V>> {
        debug_assert!(V::SIZE <= 64);
        let mut buf = [0u8; 64];
        let old: Vec<Option<V>> = items
            .iter()
            .map(|(key, value)| {
                let (level, idx) = self.locate(pm, key)?;
                let store = self.level_store(level);
                let prev = store.read_value(pm, idx);
                value.write_to(&mut buf[..V::SIZE]);
                let off = store.cells.cell_off(idx) + K::SIZE;
                pm.write(off, &buf[..V::SIZE]);
                pm.flush(off, V::SIZE);
                Some(prev)
            })
            .collect();
        if old.iter().any(Option::is_some) {
            pm.fence();
        }
        old
    }

    /// Algorithm 3: a one-element batch, reproducing the single-op trace.
    pub fn remove(&mut self, pm: &mut P, key: &K) -> bool {
        self.remove_batch(pm, std::slice::from_ref(key)) == 1
    }

    /// Batched Algorithm 3, same fence coalescing and prefix durability as
    /// [`GroupHash::insert_batch`]. Returns how many keys were present
    /// (and are now gone); when one key appears several times in `keys`,
    /// at most one removal takes effect (there is only one cell to
    /// retract — its bit stays set until the chunk commits).
    pub fn remove_batch(&mut self, pm: &mut P, keys: &[K]) -> usize {
        if keys.is_empty() {
            return 0;
        }
        let base = pm.stats();
        let per_op = [8, self.store1.cells.entry_len()];
        let fixed: &[usize] = match self.config.count_mode {
            CountMode::Persistent => &[8],
            CountMode::Volatile => &[],
        };
        let chunk_cap = self.journal.ops_per_txn(&per_op, fixed);
        let mut sess = BatchSession::new();
        let mut removed = 0usize;
        for key in keys {
            let Some((level, idx)) = self.locate(pm, key) else {
                continue;
            };
            if sess.is_retracted(&self.level_store(level), idx) {
                continue; // duplicate key within the batch
            }
            self.stage_delete(pm, &mut sess, level, idx);
            if sess.staged() >= chunk_cap {
                let n = sess.staged();
                self.commit_batch(pm, &mut sess, -(n as i64));
                removed += n;
            }
        }
        if !sess.is_empty() {
            let n = sess.staged();
            self.commit_batch(pm, &mut sess, -(n as i64));
            removed += n;
        }
        let spent = pm.stats().delta_since(&base);
        self.note_batch(removed as u64, spent.fences, spent.flushes);
        removed
    }

    /// Algorithm 4: post-crash recovery. Scans the whole table, erases any
    /// cell whose occupancy bit is clear (wiping partial inserts/deletes),
    /// and recounts `count`. Idempotent; O(capacity).
    pub fn recover(&mut self, pm: &mut P) {
        // Forced-logging ablation: roll back an in-flight transaction
        // before trusting the cells.
        self.journal.recover(pm);
        let count = self.store1.recover_cells(pm) + self.store2.recover_cells(pm);
        self.set_count_committed(pm, count);
        // The volatile tags may describe pre-crash state; rebuild them
        // from the (now repaired) bitmaps + cells.
        self.rebuild_fp_cache(pm);
    }
}
