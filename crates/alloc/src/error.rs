//! Typed failures for every heap layer.
//!
//! One enum serves all three layers (class table, slab store, policy):
//! geometry validation, capacity, and pointer errors are each a variant —
//! no stringly-typed `Result`s anywhere in the crate (enforced by the
//! `ci.sh` error-type lint).

use crate::PmemPtr;

/// Allocation and geometry errors. Every failure mode is a typed
/// variant — no stringly-typed `Result`s (enforced by the `ci.sh` lint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No size class fits a blob this large.
    TooLarge(usize),
    /// Every eligible slab of the fitting size class is out of slots.
    OutOfMemory,
    /// The pointer does not name an allocated slot.
    BadPointer(PmemPtr),
    /// Rebuilding occupancy found the owner naming one slot twice.
    DuplicatePointer(PmemPtr),
    /// A config declared zero or more than [`crate::MAX_CLASSES`] size
    /// classes.
    BadClassCount(usize),
    /// A class's slot size is not a multiple of 8 or leaves no blob room.
    BadSlotSize {
        /// Index of the offending class.
        class: usize,
        /// Its declared slot size.
        slot_size: u64,
    },
    /// A class declared zero slots per slab.
    ZeroSlots {
        /// Index of the offending class.
        class: usize,
    },
    /// Class slot sizes are not strictly ascending.
    NonAscendingClasses {
        /// Index of the first out-of-order class.
        class: usize,
    },
    /// The config declared zero or more than [`crate::MAX_SLABS_PER_CLASS`]
    /// slabs per class.
    BadSlabCount(u64),
    /// A geometric class table was asked for with a non-growing factor
    /// (growth must be > 1) or a base too small to hold any blob.
    BadGrowth {
        /// Numerator of the offending growth factor.
        num: u64,
        /// Denominator of the offending growth factor.
        den: u64,
    },
    /// The region cannot hold the configured (or persisted) geometry.
    RegionTooSmall {
        /// Bytes the region offers.
        have: usize,
        /// Bytes the geometry needs.
        need: usize,
    },
    /// `open` found no valid heap header (static description).
    BadHeader(&'static str),
    /// `open` read a class count outside `1..=MAX_CLASSES`.
    CorruptClassCount(u64),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::TooLarge(n) => write!(f, "blob of {n} bytes exceeds every size class"),
            AllocError::OutOfMemory => write!(f, "size class exhausted"),
            AllocError::BadPointer(p) => write!(f, "invalid persistent pointer {:#x}", p.0),
            AllocError::DuplicatePointer(p) => {
                write!(f, "persistent pointer {:#x} referenced twice", p.0)
            }
            AllocError::BadClassCount(n) => {
                write!(f, "need 1..={} size classes, got {n}", crate::MAX_CLASSES)
            }
            AllocError::BadSlotSize { class, slot_size } => {
                write!(f, "class {class}: bad slot size {slot_size}")
            }
            AllocError::ZeroSlots { class } => write!(f, "class {class}: zero slots"),
            AllocError::NonAscendingClasses { class } => {
                write!(f, "class {class}: slot sizes must be ascending")
            }
            AllocError::BadSlabCount(n) => {
                write!(
                    f,
                    "need 1..={} slabs per class, got {n}",
                    crate::MAX_SLABS_PER_CLASS
                )
            }
            AllocError::BadGrowth { num, den } => {
                write!(f, "class growth factor {num}/{den} must be > 1")
            }
            AllocError::RegionTooSmall { have, need } => {
                write!(f, "region too small: {have} < {need}")
            }
            AllocError::BadHeader(msg) => f.write_str(msg),
            AllocError::CorruptClassCount(n) => write!(f, "corrupt class count {n}"),
        }
    }
}

impl std::error::Error for AllocError {}
