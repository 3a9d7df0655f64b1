//! Measured phases: per-segment latency samples, the correctness tally,
//! and the embedded (in-process `Store`) closed loop.

use std::time::{Duration, Instant};

use nvm_kv::prelude::*;
use nvm_pmem::RealPmem;

use crate::gen::{self, Kind, Model, Op};
use crate::stats::{median, Samples};
use crate::trace::{Span, Tracer, ROOT};

/// Ops generated ahead of each timed block of the embedded loop.
const BLOCK: usize = 4096;

/// One measured slice of a phase.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    pub ops: u64,
    pub secs: f64,
    pub get: Samples,
    pub set: Samples,
    pub delete: Samples,
}

impl Segment {
    pub fn record(&mut self, kind: Kind, ns: u64) {
        self.ops += 1;
        match kind {
            Kind::Get => self.get.push_ns(ns),
            Kind::Set => self.set.push_ns(ns),
            Kind::Delete => self.delete.push_ns(ns),
        }
    }
}

/// Answers checked, and the acknowledged writes they add up to.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub acked_writes: u64,
    /// Key + value bytes of acknowledged sets, key bytes of deletes.
    pub user_bytes: u64,
}

impl Tally {
    pub fn settle(&mut self, op: &Op, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            return;
        }
        match op.kind {
            Kind::Get => {}
            Kind::Set => {
                self.acked_writes += 1;
                self.user_bytes += (gen::KEY_LEN + gen::VALUE_LEN) as u64;
            }
            Kind::Delete => {
                self.acked_writes += 1;
                self.user_bytes += gen::KEY_LEN as u64;
            }
        }
    }

    /// Counts a check that is not a workload op (verification reads,
    /// replay probes).
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += (!ok) as u64;
    }

    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            attempted: self.attempted - earlier.attempted,
            failed: self.failed - earlier.failed,
            acked_writes: self.acked_writes - earlier.acked_writes,
            user_bytes: self.user_bytes - earlier.user_bytes,
        }
    }
}

/// Segment medians of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub throughput_kops: f64,
    pub get_p50_us: f64,
    pub get_p99_us: f64,
    pub set_p50_us: f64,
    pub set_p99_us: f64,
    pub delete_p50_us: f64,
    pub gets: u64,
    pub sets: u64,
    pub deletes: u64,
}

/// Medians over `segs` of each per-segment figure.
pub fn summarize(segs: &mut [Segment]) -> Summary {
    let mut col = |f: &mut dyn FnMut(&mut Segment) -> f64| {
        median(&segs.iter_mut().map(&mut *f).collect::<Vec<_>>())
    };
    let throughput_kops = col(&mut |s| s.ops as f64 / s.secs / 1000.0);
    let get = (
        col(&mut |s| s.get.p50_p99_us().0),
        col(&mut |s| s.get.p50_p99_us().1),
    );
    let set = (
        col(&mut |s| s.set.p50_p99_us().0),
        col(&mut |s| s.set.p50_p99_us().1),
    );
    let delete_p50_us = col(&mut |s| s.delete.p50_p99_us().0);
    Summary {
        throughput_kops,
        get_p50_us: get.0,
        get_p99_us: get.1,
        set_p50_us: set.0,
        set_p99_us: set.1,
        delete_p50_us,
        gets: segs.iter().map(|s| s.get.0.len() as u64).sum(),
        sets: segs.iter().map(|s| s.set.0.len() as u64).sum(),
        deletes: segs.iter().map(|s| s.delete.0.len() as u64).sum(),
    }
}

/// Executes `op` against the store and checks its answer. `framed`
/// stores values as `nvm-server` does (see [`gen::stored`]).
pub fn apply(store: &Store<RealPmem>, op: &Op, framed: bool, corrupt: bool) -> bool {
    let k = gen::key(op.id);
    match op.kind {
        Kind::Get => {
            let ver = if corrupt { op.ver + 1 } else { op.ver };
            store.get(&k).as_deref() == Some(gen::stored(op.id, ver, framed).as_slice())
        }
        Kind::Set => store
            .set(&k, gen::stored(op.id, op.ver, framed).as_slice())
            .is_ok(),
        Kind::Delete => store.delete(&k) == Ok(true),
    }
}

/// Span name for an embedded op.
pub fn span_name(op: &Op) -> &'static str {
    match (op.kind, op.fresh) {
        (Kind::Get, _) => "kv.get",
        (Kind::Set, false) => "kv.set",
        (Kind::Set, true) => "kv.set_insert",
        (Kind::Delete, _) => "kv.delete",
    }
}

/// One embedded closed-loop segment of about `len`: ops are generated
/// in untimed blocks of [`BLOCK`], then executed back to back.
pub fn embedded_segment(
    store: &Store<RealPmem>,
    model: &mut Model,
    len: Duration,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
    corrupt: &mut bool,
) -> Segment {
    let mut seg = Segment::default();
    let mut ops = Vec::with_capacity(BLOCK);
    let mut busy = Duration::ZERO;
    while busy < len {
        ops.clear();
        ops.extend((0..BLOCK).map(|_| model.next_op()));
        let block = Instant::now();
        for op in &ops {
            let wrong_expectation = *corrupt && op.kind == Kind::Get;
            let t0 = Instant::now();
            let ok = apply(store, op, false, wrong_expectation);
            let t1 = Instant::now();
            if wrong_expectation {
                *corrupt = false;
            }
            tally.settle(op, ok);
            seg.record(op.kind, t1.duration_since(t0).as_nanos() as u64);
            if let Some(t) = tracer.as_deref_mut() {
                t.record_request(Span {
                    name: span_name(op),
                    start: t.at(t0),
                    end: t.at(t1),
                    parent: ROOT,
                    req: tally.attempted,
                    calls: 1,
                });
            }
        }
        busy += block.elapsed();
    }
    seg.secs = busy.as_secs_f64();
    seg
}
