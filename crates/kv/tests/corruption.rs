//! Corruption property: whatever bytes a pool image holds, opening,
//! recovering and using the store never panics. Corruption may surface
//! as a typed error, as a miss, or as a skipped entry — never as a crash.

use nvm_kv::{Store, StoreBuilder};
use nvm_pmem::{Pmem, PmemRead, SimConfig, SimPmem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KEYS: u32 = 1400;
const TRIALS: u64 = 200;

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:05}").into_bytes()
}

/// A one-shard store holding `KEYS` keys with 0–32 byte values, torn
/// down to its pool image.
fn base_image() -> SimPmem {
    let store = StoreBuilder::new()
        .capacity(1500, 32)
        .create_sim(SimConfig::fast_test())
        .unwrap();
    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..KEYS)
        .map(|i| (key(i), vec![i as u8; (i % 33) as usize]))
        .collect();
    let refs: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
    store.set_batch(&refs).unwrap();
    store.into_pools().ok().unwrap().remove(0)
}

/// Pool offsets of every stored key's bytes: each blob is
/// `[slot length u64 | key length u32 | key | value]`, so a key at `off`
/// has its key-length prefix at `off - 4` and its slot length at
/// `off - 12`.
fn key_offsets(pm: &SimPmem) -> Vec<usize> {
    pm.raw()
        .windows(4)
        .enumerate()
        .filter(|(_, w)| *w == b"key-")
        .map(|(off, _)| off)
        .filter(|&off| off >= 12)
        .collect()
}

/// Runs every read and write path once. Results are ignored: only a
/// panic fails the property.
fn exercise(store: &Store<SimPmem>) {
    for i in (0..KEYS).step_by(2) {
        let _ = store.get(&key(i));
    }
    let keys: Vec<Vec<u8>> = (1..KEYS).step_by(2).map(key).collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let _ = store.get_batch(&refs);
    let _ = store.check_consistency();
    let _ = store.set(b"fresh-key", b"fresh-value");
    let _ = store.set(&key(7), b"overwrite");
    let _ = store.delete(&key(8));
    let mut n = 0u64;
    store.for_each(|_, _| n += 1);
    let _ = store.usage();
}

/// One trial: overwrite 1–8 bytes of the image, then open the copy and
/// use it, and recover the copy and use it. Half the trials aim their
/// bytes at blob headers and keys (where a length prefix decides how a
/// reader slices the blob); the rest hit anywhere in the pool.
fn trial(base: &SimPmem, blobs: &[usize], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pm = base.clone();
    let aimed = rng.gen_bool(0.5);
    for _ in 0..rng.gen_range(1..=8u32) {
        let off = if aimed {
            blobs[rng.gen_range(0..blobs.len())] - 12 + rng.gen_range(0..24usize)
        } else {
            rng.gen_range(0..pm.len())
        };
        let byte: u8 = rng.gen();
        pm.write(off, &[byte]);
    }
    if let Ok(store) = StoreBuilder::new().open(vec![pm.clone()]) {
        exercise(&store);
    }
    if let Ok(store) = StoreBuilder::new().recover(vec![pm]) {
        exercise(&store);
    }
}

#[test]
fn corrupt_images_never_panic() {
    let base = base_image();
    let blobs = key_offsets(&base);
    assert!(blobs.len() >= KEYS as usize, "found {} of {KEYS} keys", blobs.len());
    let mut panicked = Vec::new();
    for seed in 0..TRIALS {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trial(&base, &blobs, seed)
        }));
        if r.is_err() {
            panicked.push(seed);
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {TRIALS} corrupt images panicked (seeds {panicked:?})",
        panicked.len()
    );
}
