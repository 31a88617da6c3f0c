//! End-to-end integrity primitives: CRC64 checksums, length+CRC line
//! framing for the wire protocol, quarantine sidecars for corrupt
//! journal lines, and the verify-on-hit LRU both in-memory caches use.
//!
//! Everything downstream of this crate treats corruption as a
//! *detected, counted, recovered* event: a failed check is never an
//! answer, only a cache miss, a recompute, or a typed error. The crate
//! is dependency-free so every layer (pipeline journal, server cache,
//! memo table, TCP service, CLI) can share the same checksum without
//! widening the crate graph.

pub mod crc64;
pub mod frame;
pub mod lru;
pub mod quarantine;

pub use crc64::{crc64, Crc64};
pub use frame::{decode_frame, encode_frame, is_framed, FrameError, FRAME_PREFIX};
pub use lru::{LruStats, Verified, VerifiedLru};
pub use quarantine::{quarantine_append, quarantine_path};
