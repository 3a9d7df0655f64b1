#!/usr/bin/env bash
# Local CI gate — run before every commit. Mirrors what a hosted CI
# would run, strictest flags on: docs and lints are errors, not noise.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> cargo test -q (batch conformance: prefix durability at every crash point)"
cargo test -q -p nvm-table --test conformance batch

echo "==> one-configuration lint (no cargo features, no feature gates)"
# The workspace has one build configuration, so the binary the tests
# check is the binary the benchmark and nvm-server ship. Scheme
# instrumentation is always compiled in; a feature table or a feature
# gate would split the tested and the shipped program again.
if grep -ln '^\[features\]' crates/*/Cargo.toml | grep .; then
  echo "configuration lint: crates must not declare [features]" >&2
  exit 1
fi
if grep -rnE 'cfg!?\(.*\bfeature\b' crates | grep .; then
  echo "configuration lint: crates must not gate code on cargo features" >&2
  exit 1
fi

echo "==> layering lint (no upward dependencies)"
# The crate layering is probe-plan/cell-store toolkit (nvm-table) ->
# schemes (group-hash, nvm-baselines) -> harness (gh-harness). Imports
# must only point down the stack, and probe-plan modules are pure
# geometry — they never touch pmem.
# Comment lines (including doctests in `///` blocks) are exempt: they
# cannot create a compile-time dependency, and doctests legitimately
# drive the trait through a real scheme the same way tests/ do via
# dev-dependencies.
strip_comments() { grep -vE ':[0-9]+:[[:space:]]*//' || true; }
lint_fail=0
if grep -rn "group_hash\|nvm_baselines\|gh_harness" crates/table/src \
    | strip_comments | grep .; then
  echo "layering violation: nvm-table must not import scheme or harness crates" >&2
  lint_fail=1
fi
if grep -rn "gh_harness" crates/core/src crates/baselines/src \
    | strip_comments | grep .; then
  echo "layering violation: scheme crates must not import the harness" >&2
  lint_fail=1
fi
if grep -rn "nvm_pmem" crates/table/src/probe.rs crates/table/src/meta.rs \
    crates/core/src/table/probe.rs \
    | strip_comments | grep .; then
  echo "layering violation: probe-plan/metadata modules must stay I/O-free (found nvm_pmem)" >&2
  lint_fail=1
fi
# Read-path modules (read-only view, probe plans, fingerprint scans, and
# the vectorized batch-probe helpers — Selection / match_bits_many in the
# table toolkit, get_batch resolve + prefetch in the read view) may name
# only the read half of the pool surface (PmemRead); naming the
# write-capable Pmem trait there would let a "read" mutate.
if grep -rnE '\bPmem\b' \
    crates/core/src/table/readview.rs crates/core/src/table/probe.rs \
    crates/table/src/probe.rs crates/table/src/meta.rs \
    | strip_comments | grep .; then
  echo "layering violation: read-path modules must not name the write-capable pmem trait" >&2
  lint_fail=1
fi
# The batch read pipeline must stay free of persistence verbs end to end
# (get_batch = 0 flushes / 0 fences / 0 atomic writes — pinned by
# tests/concurrent_stress.rs): prefetch is the only pool verb the batch
# helpers may add, and only through the read handle.
if grep -nE '\.flush\(|\.fence\(|\.atomic_write' crates/core/src/table/readview.rs \
    | strip_comments | grep .; then
  echo "layering violation: the read view must not issue persistence verbs" >&2
  lint_fail=1
fi
# The value-heap stack layers the same way: the size-class/layout layer
# (classes.rs) is pure geometry and never touches pmem, and the KV
# engine talks only to the heap policy layer — reaching past it into
# the slab store or its bitmaps would bypass the wear rotation and the
# GC bookkeeping.
if grep -rnH "nvm_pmem" crates/alloc/src/classes.rs \
    | strip_comments | grep .; then
  echo "layering violation: the size-class layer (classes.rs) must stay pmem-free" >&2
  lint_fail=1
fi
if grep -rnHE 'SlabStore|PmemBitmap|try_alloc_in|\balloc_in\b|locate_flat' crates/kv/src \
    | strip_comments | grep .; then
  echo "layering violation: kv must go through the heap policy layer, not slab-store internals" >&2
  lint_fail=1
fi
# Heap occupancy is DRAM-only: the owner's pointers are the heap's only
# durable allocation record, rebuilt into DRAM bits on open. A
# persistent bitmap in the heap would bring back the per-allocation
# metadata flush (comments included: the heap docs must not describe
# one either).
if grep -rnH "PmemBitmap" crates/alloc/src | grep .; then
  echo "heap shape violation: nvm-alloc must keep occupancy in DRAM, not in a PmemBitmap" >&2
  lint_fail=1
fi
# The network front door codes against the Store facade only. If the
# server needs something the facade doesn't expose, the facade grows —
# the server never reaches into the index/heap/scheme layers. (nvm_pmem
# is allowed: supplying backing pools is construction-time plumbing the
# facade deliberately leaves to the caller.)
if grep -rnE 'group_hash|nvm_table|nvm_alloc|nvm_core|nvm_hashfn|nvm_wal|nvm_baselines|nvm_cachesim' \
    crates/server/src \
    | strip_comments | grep .; then
  echo "layering violation: nvm-server must code against the nvm-kv Store facade only" >&2
  lint_fail=1
fi
[ "$lint_fail" -eq 0 ]

echo "==> error-type lint (no stringly-typed public Results)"
# The batched-API redesign retired Result<_, String> from every public
# surface; table/core/baselines/kv/alloc fail typed (TableError/
# InsertError/BatchError/KvError/AllocError) or not at all.
if grep -rn "Result<[^>]*, String>" \
    crates/table/src crates/core/src crates/baselines/src crates/kv/src \
    crates/alloc/src; then
  echo "error-type violation: public APIs must use typed errors, not Result<_, String>" >&2
  exit 1
fi

echo "==> concurrency stress tests"
cargo test -q --test concurrent_stress

echo "==> concurrency stress tests (release, elevated iterations)"
# The writer stress tests scale with NVM_STRESS_ITERS; the release run
# gives the Store's staging, leader election and full-shard refusal real
# iteration counts that would be too slow under the debug profile.
NVM_STRESS_ITERS=20000 cargo test --release -q --test concurrent_stress -- \
  single_shard_contention_loses_no_writes full_shard_reports_index_full_and_keeps_acked_writes

echo "==> occupancy-commit lint (the bitmap commit has one owner)"
# The paper's commit protocol is only sound if every occupancy-bit
# mutation in the scheme's hot path goes through the cell store's
# publish/retract (single op) or its batch session — those are the sole
# callers of the bitmap mutators. Direct bitmap writes from the core
# table layers would bypass the commit choreography.
# (crates/core/src/bulk.rs is the documented exception: bulk load commits
# whole precomputed words while holding the table exclusively.)
if grep -rnE 'set_and_persist|set_volatile|cas_bit_and_persist|atomic_write[^(]*word_off' \
    crates/core/src/table \
    | strip_comments | grep .; then
  echo "occupancy lint: core scheme paths must commit occupancy via the cell store" >&2
  exit 1
fi

echo "==> iceberg stability lint (entries never move after insert)"
# The iceberg scheme's whole crash argument rests on stability: no
# displacement, no backward shift, no direct occupancy-bit mutation —
# every commit goes through the cell store's publish/retract (tagged)
# helpers. A displacement helper or raw bitmap verb appearing in
# iceberg.rs means the stability guarantee (and the bare-mode
# crash-safety it buys) silently broke.
if grep -rnE 'set_and_persist|set_volatile|cas_bit_and_persist|backward_shift|evict_to|fn displace|\.displace\(' \
    crates/baselines/src/iceberg.rs \
    | strip_comments | grep .; then
  echo "stability lint: iceberg.rs must not move entries or touch occupancy bits directly" >&2
  exit 1
fi
# The only displacement iceberg may ever record is the literal zero
# (stability's instrumentation signature), as record_insert's last
# argument.
if grep -n 'record_insert(' crates/baselines/src/iceberg.rs \
    | grep -v 'record_insert(.*, 0);' | grep .; then
  echo "stability lint: iceberg.rs recorded a non-zero displacement" >&2
  exit 1
fi

echo "==> one-seqlock lint (a single sequence-lock implementation)"
# Every optimistic reader validates against nvm-table's SeqLock. A
# second backoff loop or a hand-rolled bump of a sequence word elsewhere
# would fork the write-guard / read-validate protocol again.
if grep -rnE 'fn backoff|\bseq(\.0)?\.fetch_add' crates --include='*.rs' \
    | grep -v '^crates/table/src/seqlock.rs:' | strip_comments | grep .; then
  echo "seqlock lint: sequence-lock logic must live only in crates/table/src/seqlock.rs" >&2
  exit 1
fi

echo "==> one-shard-primitive lint (the Store is the only concurrent table)"
# Writers of a pool are serialized by the borrow checker (`&mut P`) and,
# across threads, by the Store's shard mutex; readers validate against
# the shard's seqlock. A sequence lock constructed anywhere else would be
# a second concurrent table, and a shared-writer pool handle would bring
# back a runtime claim protocol in place of `&mut`.
if grep -rnE 'SeqLock::(new|default)' crates --include='*.rs' \
    | grep -vE '^crates/(table/src/seqlock|kv/src/store)\.rs:' | grep .; then
  echo "shard lint: only the Store (crates/kv/src/store.rs) may build a SeqLock" >&2
  exit 1
fi
if grep -rnE 'write_handle|PmemWrite' crates | grep .; then
  echo "shard lint: pools have one writer; no shared write handles" >&2
  exit 1
fi

echo "==> server loopback smoke test (ephemeral port, scripted session, clean shutdown)"
# Boots the real TCP server over a Store on 127.0.0.1:0, runs a scripted
# set/get/multi-get/gets/delete/stats/quit session, and requires every
# thread to join on shutdown.
cargo test -q -p nvm-server --test smoke

echo "==> heap recovery gate (every crash point recovers with 0 leaked slots)"
# Heap occupancy lives in DRAM and is rebuilt from the index on open and
# recover, so the gate holds by construction: after any crash a slot is
# allocated exactly when the index names it. The heap experiment crashes
# a set_batch at several points and reopens; every row of
# heap_recovery.csv must report 0 slots leaked after recovery. A nonzero
# row means the rebuild, or an owner's link/free ordering, broke.
heap_out="$(mktemp -d)"
cargo run --release -q -p gh-harness --bin heap -- --out-dir "$heap_out" > /dev/null
awk -F, '
  NR == 1 { for (i = 1; i <= NF; i++) if ($i == "leaked after recovery") col = i; next }
  { rows++; if (!col || $col != 0) bad++ }
  END {
    if (!col || rows == 0 || bad) {
      printf "heap recovery gate: %d of %d rows leaked after recovery\n", bad, rows > "/dev/stderr"
      exit 1
    }
    printf "heap recovery gate: %d crash points, 0 leaked after recovery\n", rows
  }' "$heap_out/heap_recovery.csv"
rm -rf "$heap_out"

echo "==> perfbench smoke tests (its own workspace, release)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cargo bench --no-run (benches must compile)"
cargo bench --no-run --workspace

echo "==> cargo test --doc (runnable examples in rustdoc)"
cargo test -q --doc --workspace

echo "==> docs gate: every results/*.csv cited in EXPERIMENTS.md exists"
docs_fail=0
for f in $(grep -oE 'results/[A-Za-z0-9_.-]+\.csv' EXPERIMENTS.md | sort -u); do
  if [ ! -f "$f" ]; then
    echo "EXPERIMENTS.md cites $f but it is not checked in" >&2
    docs_fail=1
  fi
done
[ "$docs_fail" -eq 0 ]

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci.sh: all green"
