//! Per-layer replays: each layer's public functions called from here,
//! on the workload's keys, blobs and batch sizes, with a span around each
//! call (or around each timed run of calls for the nanosecond-scale ones).

use std::collections::HashSet;
use std::time::Instant;

use group_hash::{GroupHash, GroupHashConfig, HashScheme};
use nvm_alloc::{GcOwner, HeapConfig, PmemHeap, PmemPtr};
use nvm_hashfn::murmur3_x64_128;
use nvm_kv::prelude::*;
use nvm_kv::KvConfig;
use nvm_pmem::{Pmem, RealPmem, Region};
use nvm_server::protocol::{self, Parsed};
use nvm_server::{ServerStats, Session};

use crate::gen::{self, Model, Op, Rng, Zipf};
use crate::net::{check_reply, Reply, DEPTH};
use crate::phase::{apply, Tally};
use crate::stats::{quantile, Metrics};
use crate::trace::{Span, Tracer};

/// Group-commit size the batch replays use: the ≈4 ops per batch
/// `net-ycsb-a` commits (see BENCHMARK.json).
pub const K_NET: usize = 4;
/// Calls per timed run for nanosecond-scale calls (one span each).
const RUN: usize = 256;
/// Single-call replays per metric.
const CALLS: usize = 20_000;
/// First id of the keys no workload ever stores.
const ABSENT_BASE: u64 = 100_000_000_000;
/// Seed the store derives key fingerprints with (`nvm-kv`'s
/// `fingerprint`).
const FP_SEED: u32 = 0x4B56;

/// The 16-byte fingerprint `nvm-kv` indexes a key under.
pub fn fingerprint(key: &[u8]) -> [u8; 16] {
    let (lo, hi) = murmur3_x64_128(key, FP_SEED);
    let mut f = [0u8; 16];
    f[..8].copy_from_slice(&lo.to_le_bytes());
    f[8..].copy_from_slice(&hi.to_le_bytes());
    f
}

/// `nvm-kv`'s blob layout: `[key_len u32-LE | key | value]`.
pub fn blob(id: u64, ver: u32) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + gen::KEY_LEN + gen::VALUE_LEN);
    b.extend_from_slice(&(gen::KEY_LEN as u32).to_le_bytes());
    b.extend_from_slice(&gen::key(id));
    b.extend_from_slice(&gen::value(id, ver));
    b
}

/// Picks resident ids the way the workload does (Zipfian or uniform
/// over `0..n`), independently of the run's model.
pub struct Picker {
    zipf: Option<Zipf>,
    n: u64,
    rng: Rng,
}

impl Picker {
    pub fn new(n: u64, skewed: bool, seed: u64) -> Picker {
        Picker {
            zipf: skewed.then(|| Zipf::new(n, 0.99)),
            n,
            rng: Rng::new(seed ^ 0x7265_706C_6179),
        }
    }

    pub fn pick(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => z.next(&mut self.rng),
            None => self.rng.below(self.n),
        }
    }
}

/// Median duration (ns) of the single-call spans named `name`.
pub fn p50(t: &Tracer, name: &str) -> f64 {
    quantile(&mut t.durations(name), 0.5)
}

fn span(t: &mut Tracer, name: &'static str, parent: u32, t0: Instant, t1: Instant, calls: u32) {
    let (start, end) = (t.at(t0), t.at(t1));
    t.record(Span {
        name,
        start,
        end,
        parent,
        req: 0,
        calls,
    });
}

/// Times `f` in runs of [`RUN`] calls, one span per run.
fn runs(t: &mut Tracer, name: &'static str, parent: u32, total: usize, mut f: impl FnMut()) {
    for _ in 0..total.div_ceil(RUN) {
        let t0 = Instant::now();
        for _ in 0..RUN {
            f();
        }
        span(t, name, parent, t0, Instant::now(), RUN as u32);
    }
}

// ---- kv + server layers, replayed on the run's own store -------------

/// Facade replays on the live store. Every write goes through `model`,
/// so the post-run verification still knows every expected value.
pub fn kv_replays(
    store: &Store<RealPmem>,
    framed: bool,
    model: &mut Model,
    t: &mut Tracer,
    tally: &mut Tally,
    need: &[&'static str],
) {
    let root = t.open("replay.kv");
    for &name in need {
        for _ in 0..CALLS {
            let op = match name {
                "kv.get" => model.next_get(),
                "kv.set" => model.next_update(),
                _ => {
                    let (del, ins) = model.next_delete_reinsert();
                    let t0 = Instant::now();
                    let ok = apply(store, &del, framed, false);
                    span(t, "kv.delete", root, t0, Instant::now(), 1);
                    tally.settle(&del, ok);
                    tally.settle(&ins, apply(store, &ins, framed, false));
                    continue;
                }
            };
            let t0 = Instant::now();
            let ok = apply(store, &op, framed, false);
            span(t, name, root, t0, Instant::now(), 1);
            tally.settle(&op, ok);
        }
    }
    // Staging and the group-commit pump, at the net batch size.
    for _ in 0..CALLS / K_NET {
        let ops: Vec<Op> = (0..K_NET).map(|_| model.next_update()).collect();
        let mut tickets = Vec::with_capacity(K_NET);
        for op in &ops {
            let v = gen::stored(op.id, op.ver, framed);
            let t0 = Instant::now();
            tickets.push(store.stage_set(&gen::key(op.id), v.as_slice()));
            span(t, "kv.stage", root, t0, Instant::now(), 1);
        }
        let t0 = Instant::now();
        store.pump();
        span(t, "kv.pump", root, t0, Instant::now(), K_NET as u32);
        for (op, ticket) in ops.iter().zip(tickets) {
            tally.settle(op, ticket.wait() == Ok(true));
        }
    }
    // The facade's own cost: a write with nothing to commit (delete of
    // an absent key) still stages, pumps and waits; its engine work is a
    // fingerprint and an index miss, which the index replay prices.
    for i in 0..CALLS as u64 {
        let k = gen::key(ABSENT_BASE + i);
        let t0 = Instant::now();
        let absent = store.delete(&k) == Ok(false);
        span(t, "kv.delete_absent", root, t0, Instant::now(), 1);
        tally.check(absent);
    }
    t.close(root, 0);
}

/// Protocol parse and session replays over the workload's command
/// stream, executed on `store`, a store of their own holding the
/// workload's keys (pumps excluded from the spans).
pub fn server_replays(
    store: &Store<RealPmem>,
    model: &mut Model,
    t: &mut Tracer,
    tally: &mut Tally,
) {
    let root = t.open("replay.server");
    let stats = ServerStats::new();
    let chunks: Vec<(Vec<Op>, Vec<u8>)> = (0..CALLS / DEPTH)
        .map(|_| {
            let ops: Vec<Op> = (0..DEPTH).map(|_| model.next_op()).collect();
            let mut wire = Vec::new();
            for op in &ops {
                gen::encode(op, &mut wire);
            }
            (ops, wire)
        })
        .collect();
    for (_, wire) in &chunks {
        let t0 = Instant::now();
        let mut pos = 0;
        let mut n = 0;
        while let Parsed::Cmd { consumed, .. } = protocol::parse(&wire[pos..]) {
            pos += consumed;
            n += 1;
        }
        span(t, "server.parse", root, t0, Instant::now(), n);
    }
    let mut session = Session::new();
    for (ops, wire) in &chunks {
        let t0 = Instant::now();
        session.feed(wire);
        let mut staged = session.step(store, &stats, false);
        let mut busy = t0.elapsed();
        while staged > 0 || session.in_flight() > 0 {
            store.pump();
            let t1 = Instant::now();
            staged = session.step(store, &stats, false);
            busy += t1.elapsed();
        }
        let start = t.at(t0);
        t.record(Span {
            name: "server.session",
            start,
            end: start + busy.as_nanos() as u64,
            parent: root,
            req: 0,
            calls: ops.len() as u32,
        });
        let out = session.output().to_vec();
        session.consume_output(out.len());
        let mut pos = 0;
        for op in ops {
            let (ok, used) = match check_reply(&out[pos..], op, false) {
                Reply::Ok(u) => (true, u),
                Reply::Wrong(u) => (false, u),
                Reply::Incomplete => (false, out.len() - pos),
            };
            tally.settle(op, ok);
            pos += used;
        }
    }
    t.close(root, 0);
}

/// Metrics of the server replays.
pub fn server_metrics(t: &Tracer, m: &mut Metrics) {
    let parse = t.median_per_call("server.parse");
    m.add("server.parse_ns", parse, "ns");
    m.add_noted(
        "server.session_ns",
        t.median_per_call("server.session") - parse,
        "ns",
        "feed + step per command, minus the parse step runs inside".into(),
    );
}

// ---- bare index, heap and pmem ---------------------------------------

fn index_config(resident: u64) -> GroupHashConfig {
    let kv = KvConfig::for_capacity(resident, crate::AVG_VALUE_HINT);
    GroupHashConfig::new(kv.index_cells_per_level, kv.group_size).with_seed(kv.seed)
}

fn heap_config(resident: u64) -> HeapConfig {
    HeapConfig::balanced(KvConfig::for_capacity(resident, crate::AVG_VALUE_HINT).heap_bytes)
}

type Index = GroupHash<RealPmem, [u8; 16], u64>;

/// A bare index, sized as the store sizes it, holding ids `0..resident`.
pub fn build_index(resident: u64) -> (RealPmem, Index) {
    let cfg = index_config(resident);
    let size = Index::required_size(&cfg);
    let mut pm = RealPmem::new(size);
    let mut idx = Index::create(&mut pm, Region::new(0, size), cfg).expect("index create");
    let items: Vec<([u8; 16], u64)> = (0..resident)
        .map(|id| (fingerprint(&gen::key(id)), id))
        .collect();
    for chunk in items.chunks(1024) {
        idx.insert_batch(&mut pm, chunk).expect("index preload");
    }
    (pm, idx)
}

/// Whether the index layer was compiled with its `instrument` feature.
pub fn index_instrumented() -> bool {
    let (_, idx) = build_index(16);
    HashScheme::<RealPmem, [u8; 16], u64>::instrumentation(&idx).is_some()
}

pub fn index_replays(resident: u64, picker: &mut Picker, t: &mut Tracer, m: &mut Metrics) {
    let (mut pm, mut idx) = build_index(resident);
    let root = t.open("replay.index");
    let keys: Vec<[u8; 16]> = (0..CALLS).map(|_| gen::key(picker.pick())).collect();
    let mut i = 0;
    let mut sink = 0u64;
    runs(t, "hashfn.fingerprint", root, CALLS, || {
        sink ^= fingerprint(&keys[i % keys.len()])[0] as u64;
        i += 1;
    });
    let fps: Vec<[u8; 16]> = keys.iter().map(|k| fingerprint(k)).collect();
    let absent: Vec<[u8; 16]> = (0..CALLS as u64)
        .map(|i| fingerprint(&gen::key(ABSENT_BASE + i)))
        .collect();
    let mut hits = 0u64;
    runs(t, "index.get_miss", root, CALLS, || {
        hits += idx.get(&pm, &absent[i % absent.len()]).is_some() as u64;
        i += 1;
    });
    runs(t, "index.get", root, CALLS, || {
        hits += idx.get(&pm, &fps[i % fps.len()]).is_some() as u64;
        i += 1;
    });
    for batch in fps.chunks(16) {
        let t0 = Instant::now();
        hits += idx.get_batch(&pm, batch).iter().flatten().count() as u64;
        span(
            t,
            "index.get_batch",
            root,
            t0,
            Instant::now(),
            batch.len() as u32,
        );
    }
    std::hint::black_box((sink, hits));
    for (n, fp) in fps.iter().enumerate() {
        let t0 = Instant::now();
        let ok = idx.update_in_place(&mut pm, fp, n as u64);
        span(t, "index.update", root, t0, Instant::now(), 1);
        assert!(ok, "bare index lost a resident key");
    }
    // Distinct keys for remove/insert, so each remove finds its entry.
    let distinct: Vec<[u8; 16]> = {
        let mut seen = HashSet::new();
        fps.iter().copied().filter(|f| seen.insert(*f)).collect()
    };
    let (mut flushes, mut fences) = (0u64, 0u64);
    for fp in &distinct {
        let t0 = Instant::now();
        let ok = idx.remove(&mut pm, fp);
        span(t, "index.remove", root, t0, Instant::now(), 1);
        assert!(ok, "bare index lost a resident key");
        let before = pm.stats();
        let t0 = Instant::now();
        idx.insert_batch(&mut pm, &[(*fp, 1)]).expect("reinsert");
        span(t, "index.insert_batch_k1", root, t0, Instant::now(), 1);
        let d = pm.stats().delta_since(&before);
        flushes += d.flushes;
        fences += d.fences;
    }
    for batch in distinct.chunks(K_NET) {
        assert_eq!(idx.remove_batch(&mut pm, batch), batch.len());
        let items: Vec<([u8; 16], u64)> = batch.iter().map(|f| (*f, 2)).collect();
        let t0 = Instant::now();
        idx.insert_batch(&mut pm, &items).expect("reinsert batch");
        span(
            t,
            "index.insert_batch_knet",
            root,
            t0,
            Instant::now(),
            items.len() as u32,
        );
    }
    t.close(root, 0);
    m.add(
        "hashfn.fingerprint_ns",
        t.median_per_call("hashfn.fingerprint"),
        "ns",
    );
    m.add("index.get_ns", t.median_per_call("index.get"), "ns");
    m.add(
        "index.get_batch_ns_per_key",
        t.median_per_call("index.get_batch"),
        "ns",
    );
    m.add("index.update_ns", p50(t, "index.update"), "ns");
    m.add("index.remove_ns", p50(t, "index.remove"), "ns");
    m.add(
        "index.insert_batch_ns_per_key_k1",
        p50(t, "index.insert_batch_k1"),
        "ns",
    );
    m.add(
        "index.insert_batch_ns_per_key_knet",
        t.median_per_call("index.insert_batch_knet"),
        "ns",
    );
    let n = distinct.len() as f64;
    m.add("index.flushes_per_insert", flushes as f64 / n, "lines/op");
    m.add("index.fences_per_insert", fences as f64 / n, "fences/op");
}

type Heap = (RealPmem, PmemHeap, Vec<PmemPtr>);

/// A bare heap, sized as the store sizes it, holding one blob per id.
fn build_heap(resident: u64) -> Heap {
    let cfg = heap_config(resident);
    let size = PmemHeap::required_size(&cfg);
    let mut pm = RealPmem::new(size);
    let mut heap = PmemHeap::create(&mut pm, Region::new(0, size), &cfg).expect("heap create");
    let mut ptrs = Vec::with_capacity(resident as usize);
    let ids: Vec<u64> = (0..resident).collect();
    for chunk in ids.chunks(1024) {
        let blobs: Vec<Vec<u8>> = chunk.iter().map(|&id| blob(id, 0)).collect();
        let refs: Vec<&[u8]> = blobs.iter().map(Vec::as_slice).collect();
        ptrs.extend(heap.alloc_batch(&mut pm, &refs).expect("heap preload"));
    }
    (pm, heap, ptrs)
}

pub fn heap_replays(resident: u64, picker: &mut Picker, t: &mut Tracer, m: &mut Metrics) {
    let (mut pm, mut heap, mut ptrs) = build_heap(resident);
    let frag = heap.frag_stats(&pm);
    m.add(
        "heap.slot_bytes_per_blob_byte",
        frag.allocated_slot_bytes as f64 / frag.live_blob_bytes as f64,
        "ratio",
    );
    let root = t.open("replay.heap");
    let ids: Vec<u64> = (0..CALLS).map(|_| picker.pick()).collect();
    let mut i = 0;
    let mut bytes = 0usize;
    runs(t, "heap.read", root, CALLS, || {
        bytes += heap
            .read(&pm, ptrs[ids[i % ids.len()] as usize])
            .map_or(0, |b| b.len());
        i += 1;
    });
    std::hint::black_box(bytes);
    let before = pm.stats();
    for (n, &id) in ids.iter().enumerate() {
        let b = blob(id, n as u32 + 1);
        let t0 = Instant::now();
        let new = heap.alloc(&mut pm, &b).expect("heap alloc");
        let t1 = Instant::now();
        heap.free(&mut pm, ptrs[id as usize]).expect("heap free");
        let t2 = Instant::now();
        span(t, "heap.alloc", root, t0, t1, 1);
        span(t, "heap.free", root, t1, t2, 1);
        ptrs[id as usize] = new;
    }
    let d = pm.stats().delta_since(&before);
    for group in ids.chunks(K_NET) {
        let mut group = group.to_vec();
        group.sort_unstable();
        group.dedup();
        let blobs: Vec<Vec<u8>> = group.iter().map(|&id| blob(id, 0)).collect();
        let refs: Vec<&[u8]> = blobs.iter().map(Vec::as_slice).collect();
        let t0 = Instant::now();
        let new = heap.alloc_batch(&mut pm, &refs).expect("heap alloc_batch");
        span(
            t,
            "heap.alloc_batch",
            root,
            t0,
            Instant::now(),
            refs.len() as u32,
        );
        for (&id, ptr) in group.iter().zip(new) {
            heap.free(&mut pm, ptrs[id as usize]).expect("heap free");
            ptrs[id as usize] = ptr;
        }
    }
    t.close(root, 0);
    m.add("heap.alloc_ns", p50(t, "heap.alloc"), "ns");
    m.add(
        "heap.alloc_batch_ns_per_blob",
        t.median_per_call("heap.alloc_batch"),
        "ns",
    );
    m.add("heap.free_ns", p50(t, "heap.free"), "ns");
    m.add("heap.read_ns", t.median_per_call("heap.read"), "ns");
    // Each update above is one alloc plus one free; both persist.
    m.add_noted(
        "heap.flushes_per_alloc",
        d.flushes as f64 / ids.len() as f64,
        "lines/op",
        "alloc + free of the replaced blob".into(),
    );
}

/// Every blob is live; repoints move the entry.
struct LiveSet(HashSet<u64>);

impl<P: Pmem> GcOwner<P> for LiveSet {
    fn is_live(&mut self, _pm: &P, ptr: PmemPtr, _blob: &[u8]) -> bool {
        self.0.contains(&ptr.0)
    }

    fn repoint(&mut self, _pm: &mut P, old: PmemPtr, new: PmemPtr, _blob: &[u8]) -> bool {
        self.0.remove(&old.0) && self.0.insert(new.0)
    }
}

/// `GroupHash::recover` and `PmemHeap::gc_full` at `resident` entries.
pub fn recovery_replays(resident: u64, t: &mut Tracer, m: &mut Metrics) {
    let root = t.open("replay.recovery");
    let (mut pm, mut idx) = build_index(resident);
    let t0 = Instant::now();
    idx.recover(&mut pm);
    span(t, "index.recover", root, t0, Instant::now(), 1);
    assert_eq!(idx.len(&pm), resident, "index recovery lost entries");
    drop((pm, idx));
    let (mut pm, mut heap, ptrs) = build_heap(resident);
    let mut owner = LiveSet(ptrs.iter().map(|p| p.0).collect());
    let t0 = Instant::now();
    let reclaimed = heap.gc_full(&mut pm, &mut owner).expect("gc_full");
    span(t, "heap.gc_full", root, t0, Instant::now(), 1);
    assert_eq!(reclaimed, 0, "gc reclaimed a live blob");
    t.close(root, 0);
    m.add("index.recover_s", p50(t, "index.recover") / 1e9, "s");
    m.add("heap.gc_full_s", p50(t, "heap.gc_full") / 1e9, "s");
}

/// `RealPmem` persist of one dirtied line, and a bare fence.
pub fn pmem_replays(t: &mut Tracer, m: &mut Metrics) {
    let root = t.open("replay.pmem");
    let lines = 4096;
    let mut pm = RealPmem::new(lines * 64);
    let mut line = 0usize;
    runs(t, "pmem.persist_line", root, CALLS, || {
        let off = (line % lines) * 64;
        pm.write_u64(off, line as u64);
        pm.persist(off, 64);
        line += 1;
    });
    runs(t, "pmem.fence", root, CALLS, || pm.fence());
    t.close(root, 0);
    m.add(
        "pmem.persist_line_ns",
        t.median_per_call("pmem.persist_line"),
        "ns",
    );
    m.add("pmem.fence_ns", t.median_per_call("pmem.fence"), "ns");
}
