//! Property-based tests for the layered value heap.
//!
//! Two groups: pure properties of the size-class/layout layer (no pmem
//! at all — rounding is minimal, monotone and growth-bounded; freelist
//! geometry round-trips), and whole-heap properties against an oracle
//! map plus crash/reopen survival.

use nvm_alloc::{
    AllocError, ClassSpec, ClassTable, HeapConfig, PmemHeap, PmemPtr, SlabGeometry, LEN_PREFIX,
};
use nvm_pmem::{CrashResolution, Region, SimConfig, SimPmem};
use proptest::prelude::*;
use std::collections::HashMap;

// ---- pure size-class layer -----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any valid geometric table and any blob size in range, the
    /// chosen class fits, is the *smallest* class that fits, and the
    /// mapping is monotone in the blob size.
    #[test]
    fn rounding_is_minimal_and_monotone(
        base in 16u64..512,
        max_blob in 64u64..8192,
        lens in prop::collection::vec(0usize..8192, 1..64),
    ) {
        let t = ClassTable::geometric(base, (5, 4), max_blob).unwrap();
        let mut sorted = lens.clone();
        sorted.sort_unstable();
        let mut prev_class = 0;
        for len in sorted {
            if len > t.largest_blob() {
                prop_assert_eq!(t.class_for(len), Err(AllocError::TooLarge(len)));
                continue;
            }
            let ci = t.class_for(len).unwrap();
            prop_assert!(t.get(ci).max_blob() >= len, "chosen class must fit");
            if ci > 0 {
                prop_assert!(t.get(ci - 1).max_blob() < len, "class must be minimal");
            }
            prop_assert!(ci >= prev_class, "rounding must be monotone");
            prev_class = ci;
        }
    }

    /// Geometric growth stays within the 1.25 bound (modulo rounding up
    /// to 8): each slot size is at most ceil(prev * 5/4) rounded to 8.
    #[test]
    fn growth_is_bounded_by_factor(base in 16u64..512, max_blob in 64u64..8192) {
        let t = ClassTable::geometric(base, (5, 4), max_blob).unwrap();
        let sizes: Vec<u64> = t.iter().map(|c| c.slot_size).collect();
        for w in sizes.windows(2) {
            let bound = (w[0] * 5).div_ceil(4).div_ceil(8) * 8;
            prop_assert!(
                w[1] <= bound,
                "class step {} -> {} exceeds 1.25 growth bound {}",
                w[0], w[1], bound
            );
        }
    }

    /// Slot offsets and slot indices are inverse maps; non-slot-start
    /// offsets never resolve.
    #[test]
    fn slab_geometry_round_trips(
        slot_size in (2u64..512).prop_map(|n| n * 8),
        slots in 1u64..512,
        probe in any::<u64>(),
    ) {
        let g = SlabGeometry { slot_size, slots };
        for i in [0, slots / 2, slots - 1] {
            prop_assert_eq!(g.slot_of(g.slot_off(i)), Some(i));
        }
        let rel = probe % (slot_size * slots);
        match g.slot_of(rel) {
            Some(i) => prop_assert_eq!(g.slot_off(i), rel),
            None => prop_assert!(rel % slot_size != 0),
        }
        prop_assert_eq!(g.slot_of(slot_size * slots), None);
        prop_assert_eq!(g.bitmap_bytes() as u64, slots.div_ceil(64) * 8);
    }

    /// `balanced` always yields a valid config whose classes can hold
    /// every blob up to the largest class.
    #[test]
    fn balanced_configs_validate(budget in 4096u64..(1 << 22)) {
        let cfg = HeapConfig::balanced(budget);
        cfg.validate().unwrap();
        let t = cfg.class_table().unwrap();
        prop_assert!(t.largest_blob() >= 4096 - LEN_PREFIX);
    }
}

// ---- whole-heap properties -----------------------------------------------

fn small_heap() -> (SimPmem, PmemHeap, Region) {
    let cfg = HeapConfig {
        classes: vec![
            ClassSpec {
                slot_size: 32,
                slots_per_slab: 12,
            },
            ClassSpec {
                slot_size: 64,
                slots_per_slab: 6,
            },
            ClassSpec {
                slot_size: 256,
                slots_per_slab: 3,
            },
        ],
        slabs_per_class: 2,
    };
    let size = PmemHeap::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = Region::new(0, size);
    let h = PmemHeap::create(&mut pm, region, &cfg).unwrap();
    (pm, h, region)
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a blob of this size filled with this byte.
    Alloc(usize, u8),
    /// Free the i-th live allocation (mod live count).
    Free(usize),
    /// Read the i-th live allocation and verify.
    Read(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..240, any::<u8>()).prop_map(|(n, b)| Op::Alloc(n, b)),
            any::<usize>().prop_map(Op::Free),
            any::<usize>().prop_map(Op::Read),
        ],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The heap behaves like an oracle map of live allocations:
    /// reads return exactly what was written, frees make pointers invalid,
    /// capacity errors are the only failures, and accounting matches.
    #[test]
    fn oracle_equivalence(ops in ops()) {
        let (mut pm, mut heap, _) = small_heap();
        let mut live: Vec<(PmemPtr, Vec<u8>)> = Vec::new();
        let mut freed: Vec<PmemPtr> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(n, b) => {
                    let blob = vec![b; n];
                    match heap.alloc(&mut pm, &blob) {
                        Ok(p) => {
                            // A fresh pointer never aliases a live one.
                            prop_assert!(live.iter().all(|(q, _)| *q != p));
                            freed.retain(|q| *q != p); // slot reuse is fine
                            live.push((p, blob));
                        }
                        Err(AllocError::OutOfMemory) => {}
                        Err(e) => prop_assert!(false, "unexpected {e}"),
                    }
                }
                Op::Free(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (p, _) = live.remove(i % live.len());
                    heap.free(&mut pm, p).unwrap();
                    freed.push(p);
                }
                Op::Read(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (p, blob) = &live[i % live.len()];
                    prop_assert_eq!(&heap.read(&pm, *p).unwrap(), blob);
                }
            }
        }

        // Accounting and end-state checks.
        prop_assert_eq!(heap.allocated(), live.len() as u64);
        for (p, blob) in &live {
            prop_assert_eq!(&heap.read(&pm, *p).unwrap(), blob);
        }
        for p in &freed {
            prop_assert!(heap.read(&pm, *p).is_err(), "freed ptr readable");
        }
    }

    /// Crash + reopen: blobs whose pointers the owner kept (all
    /// individually durable) survive any crash resolution verbatim, and
    /// the reopened heap holds exactly those.
    #[test]
    fn committed_blobs_survive_crashes(
        blobs in prop::collection::vec((1usize..200, any::<u8>()), 1..12),
        seed in any::<u64>(),
    ) {
        let (mut pm, mut heap, region) = small_heap();
        let mut stored: HashMap<PmemPtr, Vec<u8>> = HashMap::new();
        for (n, b) in blobs {
            let blob = vec![b; n];
            if let Ok(p) = heap.alloc(&mut pm, &blob) {
                stored.insert(p, blob);
            }
        }
        pm.crash(CrashResolution::Random(seed));
        let heap = PmemHeap::open(&pm, region, stored.keys().copied()).unwrap();
        prop_assert_eq!(heap.allocated(), stored.len() as u64);
        for (p, blob) in &stored {
            prop_assert_eq!(&heap.read(&pm, *p).unwrap(), blob);
        }
    }
}
