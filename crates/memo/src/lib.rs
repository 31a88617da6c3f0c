//! Cross-request structural subtree memoization.
//!
//! The server's solution cache only hits on byte-identical `(net, config)`
//! pairs, but incremental-design traffic is *near*-duplicate: an
//! engineering change order jitters one sink's load, resegments one
//! route, grafts one tap — and every untouched branch
//! of the routing tree reappears verbatim. This crate caches the dynamic
//! program's intermediate state at those untouched branches, the DP
//! analogue of prefix caching in a serving stack:
//!
//! * [`SubtreeDigests`] — per-node structural digests of a routing tree: a
//!   **canonical** 128-bit digest invariant under sink relabeling and
//!   branch-child reordering (the memo key), and an **evaluation-order**
//!   64-bit signature over the exact left-to-right layout (the seeding
//!   guard; see the module docs of [`digest`] for why both exist);
//! * [`MemoTable`] — a byte-budgeted instance of the shared
//!   verify-on-hit LRU (`buffopt_integrity::VerifiedLru`) from subtree
//!   digests to pruned candidate frontiers ([`FrontierRow`] snapshots),
//!   gated by the evaluation signature and safe to share across worker
//!   threads;
//! * [`MemoStats`] — an atomic counter snapshot (hits, misses, seeded
//!   merges, evictions, byte gauge) surfaced through the server's `stats`
//!   response.
//!
//! The DP integration lives in `buffopt::buffopt` (the optimizer consults
//! the table at merge points and falls back to full computation on miss);
//! this crate is deliberately mechanism-only so that the digest and table
//! can be tested in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
mod table;

pub use digest::{Hasher128, Hasher64, SubtreeDigests};
pub use table::{FrontierRow, MemoStats, MemoTable};
