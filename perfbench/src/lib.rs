//! The repository's benchmark: three workloads against the serving stack
//! `nvm-server` → `nvm-kv` `Store` → `nvm-alloc` `PmemHeap` →
//! `group-hash` `GroupHash` → `nvm-pmem` `RealPmem` (300 ns per flushed
//! line), measured end to end with tracing off, and layer by layer in a
//! separate traced run. See `perfbench/README.md` for the metric
//! definitions and how to run it.

pub mod affinity;
pub mod gen;
pub mod layers;
pub mod net;
pub mod phase;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use nvm_kv::prelude::*;
use nvm_pmem::RealPmem;
use nvm_server::{serve, ServerConfig};

use gen::{Mix, Model};
use layers::Picker;
use phase::{summarize, Segment, Tally};
use stats::Metrics;
use trace::Tracer;

/// The `avg_value` the stores are sized with. `capacity(n, 64)` refuses
/// 64-byte values after about 78% of `n` keys (the balanced heap split
/// gives the 84–88-byte blob class too few slots), so the heap is sized
/// for 128; the index geometry depends only on `n` and is unchanged.
pub const AVG_VALUE_HINT: u64 = 128;
/// Resident keys of `store-churn`, the size recovery is replayed at.
pub const CHURN_RESIDENT: u64 = 100_000;

/// End-to-end metrics every workload reports in its result line.
pub const E2E: [&str; 10] = [
    "setup_s",
    "throughput_kops",
    "get_p50_us",
    "get_p99_us",
    "set_p50_us",
    "set_p99_us",
    "flushes_per_write",
    "fences_per_write",
    "nvm_bytes_per_user_byte",
    "space_per_user_byte",
];

/// Per-layer metrics of a traced run.
pub const PER_LAYER: [&str; 33] = [
    "server.parse_ns",
    "server.session_ns",
    "server.wait_us_p50",
    "server.ops_per_batch",
    "kv.get_ns",
    "kv.set_ns",
    "kv.delete_ns",
    "kv.stage_ns",
    "kv.pump_ns_per_op",
    "kv.facade_self_ns",
    "kv.get_hit_ratio",
    "hashfn.fingerprint_ns",
    "index.get_ns",
    "index.get_batch_ns_per_key",
    "index.update_ns",
    "index.remove_ns",
    "index.insert_batch_ns_per_key_k1",
    "index.insert_batch_ns_per_key_knet",
    "index.flushes_per_insert",
    "index.fences_per_insert",
    "index.recover_s",
    "heap.alloc_ns",
    "heap.alloc_batch_ns_per_blob",
    "heap.free_ns",
    "heap.read_ns",
    "heap.flushes_per_alloc",
    "heap.slot_bytes_per_blob_byte",
    "heap.gc_full_s",
    "pmem.persist_line_ns",
    "pmem.fence_ns",
    "trace_overhead_pct",
    "recon.kv_set_residual_pct",
    "recon.client_set_residual_pct",
];

/// Stores an untraced run sets up and measures in turn; `setup_s` is
/// the median of their set-up times.
pub const SETUPS: usize = 5;
/// Slices each store's measured phase is cut into; timings are medians
/// over the slices.
pub const SEGMENTS: usize = 10;

/// Largest set-path residual, as a share of the set latency, that still
/// counts as reconciled.
pub const RECON_TOLERANCE_PCT: f64 = 25.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NetYcsbA,
    StoreChurn,
    StoreReadLarge,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NetYcsbA,
        Workload::StoreChurn,
        Workload::StoreReadLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NetYcsbA => "net-ycsb-a",
            Workload::StoreChurn => "store-churn",
            Workload::StoreReadLarge => "store-read-large",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn resident(self) -> u64 {
        match self {
            Workload::NetYcsbA | Workload::StoreChurn => CHURN_RESIDENT,
            Workload::StoreReadLarge => 1_000_000,
        }
    }

    fn mix(self) -> Mix {
        match self {
            Workload::NetYcsbA => Mix::YcsbA,
            Workload::StoreChurn => Mix::Churn,
            Workload::StoreReadLarge => Mix::YcsbBUniform,
        }
    }

    /// Whether the run times a restart with recovery. `store-read-large`
    /// reopens without it: recovery grows superlinearly with the key
    /// count and would not fit the run.
    fn measures_recovery(self) -> bool {
        self != Workload::StoreReadLarge
    }

    /// Values go through `nvm-server`, which stores a flags word first.
    fn framed(self) -> bool {
        self == Workload::NetYcsbA
    }

    /// Connections (key partitions) the workload drives.
    fn partitions(self) -> u64 {
        if self == Workload::NetYcsbA {
            2
        } else {
            1
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub resident: u64,
    /// Expect a wrong value for the first `get`, to prove the oracle
    /// catches it.
    pub corrupt_oracle: bool,
    /// Where a traced run writes its spans.
    pub trace_dir: Option<PathBuf>,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            resident: workload.resident(),
            corrupt_oracle: false,
            trace_dir: None,
        }
    }
}

/// One run's result: the contract metrics, every other metric it
/// measured, and the host/build record.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Exactly [`E2E`] (untraced) or [`PER_LAYER`] (traced), in order.
    pub metrics: Metrics,
    /// Everything measured, for the printed report.
    pub report: Metrics,
    pub record: Vec<(String, String)>,
}

fn builder(resident: u64) -> StoreBuilder {
    StoreBuilder::new()
        .capacity(resident, AVG_VALUE_HINT)
        .shards(1)
}

fn initial_models(w: Workload, resident: u64, seed: u64) -> Vec<Model> {
    let parts = w.partitions();
    (0..parts)
        .map(|p| {
            let n = resident / parts + u64::from(p < resident % parts);
            Model::new(w.mix(), n, p, parts, gen::mix64(seed ^ (p + 1) << 40))
        })
        .collect()
}

type Preload = Vec<([u8; gen::KEY_LEN], gen::StoredValue)>;

/// Every resident key with its current value, generated before set-up
/// is timed.
fn preload_items(models: &[Model], framed: bool) -> Preload {
    models
        .iter()
        .flat_map(|m| m.resident())
        .map(|(id, ver)| (gen::key(id), gen::stored(id, ver, framed)))
        .collect()
}

/// Creates a store and writes every preload item.
fn set_up(resident: u64, preload: &Preload) -> Result<Store<RealPmem>, String> {
    let store = builder(resident)
        .create_with(|_, size| RealPmem::new(size))
        .map_err(|e| format!("store create: {e}"))?;
    for chunk in preload.chunks(1024) {
        let items: Vec<(&[u8], &[u8])> =
            chunk.iter().map(|(k, v)| (&k[..], v.as_slice())).collect();
        store
            .set_batch(&items)
            .map_err(|e| format!("preload refused: {e}"))?;
    }
    Ok(store)
}

/// Reads back every resident key, then checks the count and the store's
/// own consistency check.
fn verify(store: &Store<RealPmem>, models: &[Model], framed: bool, tally: &mut Tally) {
    let mut live = 0u64;
    for m in models {
        for (id, ver) in m.resident() {
            live += 1;
            let ok = store.get(&gen::key(id)).as_deref()
                == Some(gen::stored(id, ver, framed).as_slice());
            tally.check(ok);
        }
    }
    tally.check(store.len() == live);
    tally.check(store.check_consistency().is_ok());
}

/// One measured phase on one store, with tracing on or off.
struct Phase {
    segs: Vec<Segment>,
    tally: Tally,
    pmem: nvm_pmem::PmemStats,
    counters: StoreCounters,
}

fn delta_counters(a: StoreCounters, b: StoreCounters) -> StoreCounters {
    StoreCounters {
        sets: b.sets - a.sets,
        deletes: b.deletes - a.deletes,
        gets: b.gets - a.gets,
        get_hits: b.get_hits - a.get_hits,
        batches: b.batches - a.batches,
    }
}

/// Drives one workload for `parts` back-to-back phases (length, traced).
#[allow(clippy::too_many_arguments)]
fn drive(
    cfg: &Config,
    store: &Store<RealPmem>,
    models: &mut Vec<Model>,
    parts: &[(f64, bool)],
    tally: &mut Tally,
    tracer: &mut Tracer,
    corrupt: &mut bool,
    server_set_ns: &mut f64,
    cpus: &[usize],
) -> Result<Vec<Phase>, String> {
    let total: f64 = parts.iter().map(|p| p.0).sum();
    let warm = Duration::from_secs_f64((total / 10.0).min(1.0));
    let mut out = Vec::new();
    if cfg.workload == Workload::NetYcsbA {
        // Server threads inherit the CPU the spawning thread is pinned
        // to; the client then moves back to its own.
        let placed = cpus.len() >= 2 && affinity::pin_current_thread(cpus[1]);
        let handle = serve(
            store.clone(),
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                coalesce: true,
            },
        )
        .map_err(|e| format!("serve: {e}"))?;
        if placed {
            affinity::pin_current_thread(cpus[0]);
        }
        let result = (|| -> Result<Vec<Model>, String> {
            let mut client = net::Client::connect(handle.addr(), std::mem::take(models))
                .map_err(|e| format!("connect: {e}"))?;
            client
                .segment(warm, tally, None, corrupt)
                .map_err(|e| format!("client: {e}"))?;
            handle.stats().set_ns.reset();
            handle.stats().get_ns.reset();
            for &(secs, traced) in parts {
                let (t0, p0, c0) = (*tally, store.pmem_stats(), store.counters());
                let len = Duration::from_secs_f64(secs / SEGMENTS as f64);
                let mut segs = Vec::new();
                for _ in 0..SEGMENTS {
                    let tr = traced.then_some(&mut *tracer);
                    segs.push(
                        client
                            .segment(len, tally, tr, corrupt)
                            .map_err(|e| format!("client: {e}"))?,
                    );
                }
                out.push(Phase {
                    segs,
                    tally: tally.since(&t0),
                    pmem: store.pmem_stats().delta_since(&p0),
                    counters: delta_counters(c0, store.counters()),
                });
            }
            *server_set_ns = handle.stats().set_ns.p50();
            client.finish(tally).map_err(|e| format!("client: {e}"))?;
            Ok(client.into_models())
        })();
        handle.shutdown();
        *models = result?;
    } else {
        let model = &mut models[0];
        phase::embedded_segment(store, model, warm, tally, None, corrupt);
        for &(secs, traced) in parts {
            let (t0, p0, c0) = (*tally, store.pmem_stats(), store.counters());
            let len = Duration::from_secs_f64(secs / SEGMENTS as f64);
            let segs: Vec<Segment> = (0..SEGMENTS)
                .map(|_| {
                    let tr = traced.then_some(&mut *tracer);
                    phase::embedded_segment(store, model, len, tally, tr, corrupt)
                })
                .collect();
            out.push(Phase {
                segs,
                tally: tally.since(&t0),
                pmem: store.pmem_stats().delta_since(&p0),
                counters: delta_counters(c0, store.counters()),
            });
        }
    }
    Ok(out)
}

fn llc_bytes() -> Option<u64> {
    let s = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    Some(num.parse::<u64>().ok()? * mult)
}

/// The host/build line of a result; taken before any thread is pinned.
fn host_record(cfg: &Config, cpus: &[usize]) -> Vec<(String, String)> {
    let pool_bytes = builder(cfg.resident).shard_size::<RealPmem>();
    let llc = llc_bytes();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let placement = match (cfg.workload, cpus) {
        (Workload::NetYcsbA, [client, server, ..]) => {
            format!("client thread on cpu {client}, server threads on cpu {server}")
        }
        (_, [cpu, ..]) => format!("benchmark thread on cpu {cpu}"),
        _ => "unpinned".to_string(),
    };
    vec![
        ("workload".into(), cfg.workload.name().into()),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), cfg.trace.to_string()),
        ("resident_keys".into(), cfg.resident.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("placement".into(), placement),
        (
            "llc_bytes".into(),
            llc.map_or("unknown".into(), |b| b.to_string()),
        ),
        ("pool_bytes".into(), pool_bytes.to_string()),
        (
            "pool_vs_llc".into(),
            llc.map_or("unknown".into(), |b| {
                format!("{:.2}", pool_bytes as f64 / b as f64)
            }),
        ),
        (
            "flush_policy".into(),
            format!(
                "RealPmem clflush+mfence, {} ns spin per flushed line",
                RealPmem::DEFAULT_EXTRA_WRITE_NS
            ),
        ),
        ("rustc".into(), env!("PERFBENCH_RUSTC").into()),
        ("git_commit".into(), env!("PERFBENCH_GIT").into()),
        (
            "features".into(),
            format!(
                "perfbench workspace, default features (group-hash instrument: {})",
                if layers::index_instrumented() {
                    "ON"
                } else {
                    "off"
                }
            ),
        ),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ]
}

fn pct_residual(observed: f64, predicted: f64) -> f64 {
    (observed - predicted) / observed * 100.0
}

/// Runs one workload per `cfg`.
///
/// An untraced run sets up [`SETUPS`] independent stores in turn and
/// measures each for an equal share of `cfg.seconds`, so one store's
/// memory placement does not decide the result; timings are medians over
/// the segments of all of them. A traced run uses one store.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let framed = w.framed();
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut corrupt = cfg.corrupt_oracle;
    let cpus = affinity::allowed_cpus();
    let record = host_record(cfg, &cpus);
    if let Some(&cpu) = cpus.first() {
        affinity::pin_current_thread(cpu);
    }
    let instances = if cfg.trace { 1 } else { SETUPS };
    let parts: Vec<(f64, bool)> = if cfg.trace {
        vec![(cfg.seconds / 2.0, false), (cfg.seconds / 2.0, true)]
    } else {
        vec![(cfg.seconds / instances as f64, false)]
    };
    let mut segs: Vec<Segment> = Vec::new();
    let mut measured = Tally::default();
    let mut pmem = nvm_pmem::PmemStats::default();
    let (mut setup_s, mut recover_s, mut space) = (Vec::new(), Vec::new(), Vec::new());
    let mut layer = Metrics::default();
    let mut untraced_set_p50_us = f64::NAN;

    for inst in 0..instances as u64 {
        let seed = if inst == 0 {
            cfg.seed
        } else {
            gen::mix64(cfg.seed ^ inst << 32)
        };
        let mut models = initial_models(w, cfg.resident, seed);
        let preload = preload_items(&models, framed);
        let t0 = Instant::now();
        let store = set_up(cfg.resident, &preload)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(preload);

        let mut server_set_ns = f64::NAN;
        let mut phases = drive(
            cfg,
            &store,
            &mut models,
            &parts,
            &mut tally,
            &mut tracer,
            &mut corrupt,
            &mut server_set_ns,
            &cpus,
        )?;
        let live: u64 = models.iter().map(|m| m.resident_len() as u64).sum();
        let live_bytes = live * (gen::KEY_LEN + gen::VALUE_LEN) as u64;
        space.push(store.frag_stats().allocated_slot_bytes as f64 / live_bytes as f64);

        if cfg.trace {
            untraced_set_p50_us = facade_layers(
                &store,
                &mut phases,
                &mut models[0],
                w,
                server_set_ns,
                &mut tracer,
                &mut tally,
                &mut layer,
            );
        }
        let e2e = phases.swap_remove(0);
        segs.extend(e2e.segs);
        measured.acked_writes += e2e.tally.acked_writes;
        measured.user_bytes += e2e.tally.user_bytes;
        pmem.flushes += e2e.pmem.flushes;
        pmem.fences += e2e.pmem.fences;
        pmem.bytes_written += e2e.pmem.bytes_written;

        // Restart: tear the facade down to its pools and reopen them.
        let pools = store
            .into_pools()
            .map_err(|_| "store still shared after the run".to_string())?;
        let reopened = if w.measures_recovery() {
            let t0 = Instant::now();
            let s = StoreBuilder::new()
                .recover(pools)
                .map_err(|e| format!("recover: {e}"))?;
            recover_s.push(t0.elapsed().as_secs_f64());
            s
        } else {
            StoreBuilder::new()
                .open(pools)
                .map_err(|e| format!("reopen: {e}"))?
        };
        verify(&reopened, &models, framed, &mut tally);
    }

    let s = summarize(&mut segs);
    let writes = measured.acked_writes.max(1) as f64;
    let mut report = Metrics::default();
    report.add("setup_s", stats::median(&setup_s), "s");
    report.add("throughput_kops", s.throughput_kops, "kops/s");
    report.add_noted("get_p50_us", s.get_p50_us, "us", format!("n={}", s.gets));
    report.add_noted("get_p99_us", s.get_p99_us, "us", format!("n={}", s.gets));
    report.add_noted("set_p50_us", s.set_p50_us, "us", format!("n={}", s.sets));
    report.add_noted("set_p99_us", s.set_p99_us, "us", format!("n={}", s.sets));
    if s.deletes > 0 {
        report.add_noted(
            "delete_p50_us",
            s.delete_p50_us,
            "us",
            format!("n={}", s.deletes),
        );
    }
    report.add(
        "flushes_per_write",
        pmem.flushes as f64 / writes,
        "lines/op",
    );
    report.add("fences_per_write", pmem.fences as f64 / writes, "fences/op");
    report.add(
        "nvm_bytes_per_user_byte",
        pmem.bytes_written as f64 / measured.user_bytes.max(1) as f64,
        "ratio",
    );
    report.add("space_per_user_byte", stats::median(&space), "ratio");
    if !recover_s.is_empty() {
        report.add("recover_s", stats::median(&recover_s), "s");
    }

    if cfg.trace {
        // The server layer on its own pool, fed the workload's commands.
        let mut fresh = initial_models(w, cfg.resident, cfg.seed ^ 0x5E55_1011);
        let sstore = set_up(cfg.resident, &preload_items(&fresh, true))?;
        layers::server_replays(&sstore, &mut fresh[0], &mut tracer, &mut tally);
        drop(sstore);
        layers::server_metrics(&tracer, &mut layer);
        let skewed = w.mix() != Mix::YcsbBUniform;
        let mut picker = Picker::new(cfg.resident, skewed, cfg.seed);
        layers::index_replays(cfg.resident, &mut picker, &mut tracer, &mut layer);
        layers::heap_replays(cfg.resident, &mut picker, &mut tracer, &mut layer);
        layers::recovery_replays(cfg.resident.min(CHURN_RESIDENT), &mut tracer, &mut layer);
        layers::pmem_replays(&mut tracer, &mut layer);
        reconcile(&tracer, &mut layer, framed, untraced_set_p50_us);
        if let Some(dir) = &cfg.trace_dir {
            let path = dir.join(format!("{}-seed{}.spans.csv", w.name(), cfg.seed));
            tracer
                .write_csv(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    report.add(
        "fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );

    let names: &[&str] = if cfg.trace { &PER_LAYER } else { &E2E };
    let source = if cfg.trace { &layer } else { &report };
    let mut metrics = Metrics::default();
    for &n in names {
        let m = source
            .0
            .iter()
            .find(|m| m.name == n)
            .ok_or_else(|| format!("metric {n} was not measured"))?;
        metrics.0.push(m.clone());
    }
    if cfg.trace {
        report.0.extend(layer.0);
    }
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
        record,
    })
}

/// Per-layer metrics from the traced run's own store: its phase counters,
/// the Store-call spans, and the facade replays. Returns the untraced
/// phase's set p50 (µs).
#[allow(clippy::too_many_arguments)]
fn facade_layers(
    store: &Store<RealPmem>,
    phases: &mut [Phase],
    model: &mut Model,
    w: Workload,
    server_set_ns: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    layer: &mut Metrics,
) -> f64 {
    let framed = w.framed();
    let untraced = summarize(&mut phases[0].segs.clone());
    let traced = summarize(&mut phases[1].segs);
    let sum = |f: fn(&StoreCounters) -> u64| -> u64 { phases.iter().map(|p| f(&p.counters)).sum() };
    let writes = sum(|c| c.sets + c.deletes);
    let batches = sum(|c| c.batches).max(1);
    let hits = sum(|c| c.get_hits);
    let gets = sum(|c| c.gets).max(1);
    layer.add(
        "server.ops_per_batch",
        writes as f64 / batches as f64,
        "ops/batch",
    );
    layer.add("kv.get_hit_ratio", hits as f64 / gets as f64, "ratio");
    layer.add(
        "trace_overhead_pct",
        (untraced.throughput_kops - traced.throughput_kops) / untraced.throughput_kops * 100.0,
        "%",
    );
    // Store-call spans come from the traced phase where the mix has the
    // op (the embedded workloads call the Store directly), and from a
    // replay on the same store where it does not.
    let need: Vec<&'static str> = [
        ("kv.get", !framed),
        ("kv.set", !framed),
        ("kv.delete", w == Workload::StoreChurn),
    ]
    .into_iter()
    .filter(|&(_, in_mix)| !in_mix)
    .map(|(name, _)| name)
    .collect();
    layers::kv_replays(store, framed, model, tracer, tally, &need);
    for (metric, span) in [
        ("kv.get_ns", "kv.get"),
        ("kv.set_ns", "kv.set"),
        ("kv.delete_ns", "kv.delete"),
    ] {
        layer.add(metric, layers::p50(tracer, span), "ns");
    }
    layer.add("kv.stage_ns", layers::p50(tracer, "kv.stage"), "ns");
    layer.add("kv.pump_ns_per_op", tracer.median_per_call("kv.pump"), "ns");
    // Wait outside the program's processing of a set.
    let (wait_us, note) = if framed {
        (
            untraced.set_p50_us - server_set_ns / 1000.0,
            format!("client set p50 minus ServerStats set_ns p50 ({server_set_ns:.0} ns)"),
        )
    } else {
        (
            0.0,
            "no transport: the client calls the Store directly".into(),
        )
    };
    layer.add_noted("server.wait_us_p50", wait_us, "us", note);
    untraced.set_p50_us
}

/// The facade's self time and the two set-path reconciliations.
fn reconcile(tracer: &Tracer, layer: &mut Metrics, framed: bool, set_p50_us: f64) {
    let facade = layers::p50(tracer, "kv.delete_absent")
        - layer.get("hashfn.fingerprint_ns").unwrap_or(f64::NAN)
        - tracer.median_per_call("index.get_miss");
    layer.add_noted(
        "kv.facade_self_ns",
        facade,
        "ns",
        "Store::delete of an absent key minus its fingerprint and index miss".into(),
    );
    let g = |n: &str| layer.get(n).unwrap_or(f64::NAN);
    let kv_set = g("kv.set_ns");
    let parts = g("hashfn.fingerprint_ns")
        + g("index.get_ns")
        + g("heap.alloc_ns")
        + g("index.update_ns")
        + g("heap.free_ns")
        + g("kv.facade_self_ns");
    let (chain_us, chain) = if framed {
        let busy_ns = g("server.parse_ns")
            + g("server.session_ns")
            + g("server.ops_per_batch") * g("kv.pump_ns_per_op");
        (
            g("server.wait_us_p50") + busy_ns / 1000.0,
            "wait+parse+session+ops_per_batch*pump",
        )
    } else {
        (kv_set / 1000.0, "kv.set_ns")
    };
    layer.add_noted(
        "recon.kv_set_residual_pct",
        pct_residual(kv_set, parts),
        "%",
        format!(
            "kv.set_ns {kv_set:.0} vs hashfn+index.get+heap.alloc+index.update+heap.free\
             +facade_self {parts:.0}; tolerance ±{RECON_TOLERANCE_PCT}%"
        ),
    );
    layer.add_noted(
        "recon.client_set_residual_pct",
        pct_residual(set_p50_us, chain_us),
        "%",
        format!(
            "set_p50_us {set_p50_us:.2} vs {chain} {chain_us:.2}; tolerance ±{RECON_TOLERANCE_PCT}%"
        ),
    );
}
