//! The solution cache's record type.
//!
//! Production batches repeat themselves: ECO re-runs resubmit mostly
//! unchanged nets, and a serving deployment sees the same noisy nets
//! again after every re-extraction. Optimizing a net costs milliseconds
//! to seconds of DP; a cache lookup costs a hash. Entries are keyed by a
//! content digest of everything that determines the record —
//! `(net, scenario, library, budget/config)` — computed by
//! [`Engine::key_for`], so a hit returns a record *identical* to what
//! re-optimizing would produce (including the stored wall time, which is
//! part of the record's provenance).
//!
//! The engine holds these records in a [`VerifiedLru`] at one cost unit
//! per record, over `CACHE_SHARDS` shards, with first-write-wins
//! inserts: when two concurrent requests for the same key both miss and
//! both compute (their timing records differ even though the solutions
//! agree), the first record stays, so every later hit is byte-identical.
//!
//! [`Engine::key_for`]: crate::engine::Engine::key_for
//! [`VerifiedLru`]: buffopt_integrity::VerifiedLru

use buffopt_integrity::{Crc64, Verified};
use buffopt_pipeline::NetOutcome;

/// Shards (lock granularity) of every engine's solution cache.
pub(crate) const CACHE_SHARDS: usize = 8;

/// One cached record: the outcome plus the worker that computed it (the
/// service reports the original worker on a hit).
#[derive(Clone)]
pub(crate) struct CachedRecord {
    pub outcome: NetOutcome,
    pub worker: usize,
}

impl Verified for CachedRecord {
    /// CRC-64 over everything a hit serves: the serialized record plus
    /// the reported worker. (The in-memory `solution` is not covered
    /// here — it never reaches a client directly; the sampled
    /// re-verification audit is the layer that checks solutions
    /// semantically.)
    fn checksum(&self) -> u64 {
        let mut h = Crc64::new();
        h.update(self.outcome.to_json().as_bytes());
        h.update_u64(self.worker as u64);
        h.finish()
    }

    fn cost(&self) -> usize {
        1
    }
}

impl CachedRecord {
    /// Test-hook damage: flips a high mantissa bit of the record's slack.
    pub fn flip_slack(&mut self) -> bool {
        let slack = self.outcome.slack.unwrap_or(0.0);
        self.outcome.slack = Some(f64::from_bits(slack.to_bits() ^ (1 << 51)));
        true
    }
}

/// Counters published in the metrics snapshot: the LRU's own (`entries`
/// and `capacity` count records).
pub use buffopt_integrity::LruStats as CacheStats;

#[cfg(test)]
mod tests {
    use super::*;
    use buffopt_integrity::VerifiedLru;
    use buffopt_pipeline::{NetInput, Outcome};

    fn record(name: &str, worker: usize) -> CachedRecord {
        // A parse-error shell is the cheapest real record to make.
        let outcome = buffopt_pipeline::optimize_input(
            &NetInput::Failed {
                name: name.into(),
                error: "synthetic".into(),
            },
            &buffopt_pipeline::PipelineConfig::new(buffopt_buffers::catalog::single_buffer()),
        );
        CachedRecord { outcome, worker }
    }

    fn any(_: &CachedRecord) -> bool {
        true
    }

    fn cache(capacity: usize) -> VerifiedLru<u64, CachedRecord> {
        VerifiedLru::new(capacity, 2)
    }

    #[test]
    fn hit_returns_identical_record_and_counts() {
        let c = cache(8);
        assert!(c.get(1, any).is_none());
        c.insert(1, record("a", 3));
        let got = c.get(1, any).expect("hit");
        assert_eq!(got.worker, 3);
        assert_eq!(got.outcome.to_json(), record("a", 3).outcome.to_json());
        assert_eq!(got.outcome.outcome, Outcome::ParseError);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = cache(0);
        c.insert(1, record("a", 0));
        assert!(c.get(1, any).is_none());
        let s = c.stats();
        assert_eq!((s.capacity, s.entries, s.evictions), (0, 0, 0));
        assert_eq!(s.misses, 1, "a disabled cache still counts lookups");
    }

    #[test]
    fn capacity_rounds_up_to_whole_shards() {
        let c = VerifiedLru::<u64, CachedRecord>::new(10, CACHE_SHARDS);
        assert_eq!(c.stats().capacity, 16);
    }

    #[test]
    fn corrupt_entry_is_evicted_and_missed_never_served() {
        let c = cache(8);
        c.insert(1, record("a", 3));
        assert!(c.corrupt(Some(1), false, CachedRecord::flip_slack));
        assert!(c.get(1, any).is_none(), "never served");
        let s = c.stats();
        assert_eq!(s.corrupt_evictions, 1);
        assert_eq!(s.entries, 0, "the damaged entry is gone");
        assert_eq!((s.hits, s.misses), (0, 1), "corruption is a miss");
        // The slot heals on re-insert.
        c.insert(1, record("a", 3));
        assert!(c.get(1, any).is_some());
        assert_eq!(c.stats().corrupt_evictions, 1);
    }

    #[test]
    fn rehashed_corruption_slips_past_verify_on_hit() {
        // Corruption that predates the checksum (rehash=true) is the
        // case verify-on-hit cannot see — that's what the sampled
        // re-verification audit is for.
        let c = cache(8);
        c.insert(1, record("a", 3));
        assert!(c.corrupt(Some(1), true, CachedRecord::flip_slack));
        let got = c.get(1, any).expect("served: checksum matches the lie");
        assert_ne!(got.outcome.to_json(), record("a", 3).outcome.to_json());
        assert_eq!(c.stats().corrupt_evictions, 0);
        assert!(c.remove(1), "explicit invalidation still works");
        assert!(c.get(1, any).is_none());
    }
}
