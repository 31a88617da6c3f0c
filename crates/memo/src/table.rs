//! The memo's frontier table: a [`VerifiedLru`] budgeted in **bytes**
//! rather than entries (frontier snapshots vary by orders of magnitude,
//! and the operator's knob, `--memo-budget-mb`, is a memory bound), with
//! an evaluation-signature gate in front of every hit.

use std::fmt;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use buffopt_integrity::{Crc64, Verified, VerifiedLru};

/// One pruned DP candidate, snapshotted in a host-independent form.
///
/// The electrical fields mirror the DP's candidate 5-tuple plus the Lillis
/// extensions; `insertions` holds the partial solution as
/// `(subtree-relative postorder position, buffer index)` pairs in sorted
/// order, so the snapshot is meaningful in any tree containing an
/// evaluation-identical copy of the subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRow {
    /// Downstream load capacitance (farads).
    pub cap: f64,
    /// Timing slack (seconds).
    pub q: f64,
    /// Downstream coupled current (amperes).
    pub cur: f64,
    /// Noise slack (volts).
    pub ns: f64,
    /// Inserted-buffer count.
    pub count: u32,
    /// Total inserted-buffer cost.
    pub cost: f64,
    /// Signal parity (number of inversions mod 2).
    pub parity: bool,
    /// Partial solution: `(postorder position within the subtree, buffer
    /// library index)`, sorted ascending.
    pub insertions: Vec<(u32, u32)>,
}

/// Counter snapshot of a [`MemoTable`], surfaced through the server's
/// `stats` response and the memo benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups that returned a seedable frontier.
    pub hits: u64,
    /// Lookups that found nothing usable (including signature conflicts).
    pub misses: u64,
    /// Canonical-key hits rejected because the evaluation signature
    /// differed (counted within `misses` as well).
    pub sig_conflicts: u64,
    /// Merge points actually seeded from the table by the DP.
    pub seeded: u64,
    /// Frontier snapshots stored.
    pub stores: u64,
    /// Entries evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Current estimated bytes held across all shards.
    pub bytes: usize,
    /// Current entry count across all shards.
    pub entries: usize,
    /// Configured byte budget (0 = table disabled).
    pub budget_bytes: usize,
    /// Verify-on-hit checksum validations performed.
    pub integrity_checks: u64,
    /// Entries evicted because their checksum no longer matched
    /// (each is also a miss — corrupt frontiers never seed a DP).
    pub corrupt_evictions: u64,
}

/// One stored frontier and the evaluation signature it may seed.
#[derive(Clone)]
struct Frontier {
    sig: u64,
    rows: Arc<Vec<FrontierRow>>,
}

/// Fixed per-entry overhead estimate: key, signature, map slot, ticks.
const ENTRY_OVERHEAD: usize = 96;

impl Verified for Frontier {
    /// CRC-64 over the signature and every field of every row (floats by
    /// bit pattern), so any single-bit corruption of a stored frontier is
    /// detected at the next signature-matching hit.
    fn checksum(&self) -> u64 {
        let mut h = Crc64::new();
        h.update_u64(self.sig);
        h.update_u64(self.rows.len() as u64);
        for r in self.rows.iter() {
            h.update_u64(r.cap.to_bits());
            h.update_u64(r.q.to_bits());
            h.update_u64(r.cur.to_bits());
            h.update_u64(r.ns.to_bits());
            h.update_u64(u64::from(r.count));
            h.update_u64(r.cost.to_bits());
            h.update_u64(u64::from(r.parity));
            h.update_u64(r.insertions.len() as u64);
            for &(pos, buf) in &r.insertions {
                h.update_u64((u64::from(pos) << 32) | u64::from(buf));
            }
        }
        h.finish()
    }

    /// Estimated bytes held.
    fn cost(&self) -> usize {
        let insertions: usize = self.rows.iter().map(|r| r.insertions.len()).sum();
        ENTRY_OVERHEAD
            + mem::size_of_val(&self.rows[..])
            + insertions * mem::size_of::<(u32, u32)>()
    }
}

/// A sharded, byte-budgeted, LRU-evicting map from canonical subtree
/// digests to pruned candidate frontiers.
///
/// Thread-safe and meant to be shared (`Arc`) across engine workers; all
/// operations take a shard lock only. A table built with budget `0` is
/// disabled: every lookup misses without counting and stores are dropped.
///
/// `Debug` is intentionally *configuration-only* (budget and shard count,
/// never contents): the pipeline's config digest — which keys the server's
/// solution cache — is derived from `Debug` output, so table state must
/// not leak into it.
pub struct MemoTable {
    lru: VerifiedLru<u128, Frontier>,
    sig_conflicts: AtomicU64,
    seeded: AtomicU64,
}

impl fmt::Debug for MemoTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoTable")
            .field("budget_bytes", &self.lru.budget())
            .field("shards", &self.lru.shards())
            .finish_non_exhaustive()
    }
}

impl MemoTable {
    /// Creates a table with a total byte budget spread over `shards`
    /// shards (shard count is clamped to at least 1). A zero budget
    /// disables the table entirely.
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        MemoTable {
            lru: VerifiedLru::new(budget_bytes, shards),
            sig_conflicts: AtomicU64::new(0),
            seeded: AtomicU64::new(0),
        }
    }

    /// Whether the table can ever hold an entry.
    pub fn enabled(&self) -> bool {
        self.lru.enabled()
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.lru.budget()
    }

    /// Looks up the frontier stored for `key`, provided its evaluation
    /// signature matches `sig`. A canonical hit with a differing signature
    /// is a miss (the frontier of a reordered twin cannot seed this run
    /// bitwise-exactly) and is additionally counted in
    /// [`MemoStats::sig_conflicts`].
    pub fn lookup(&self, key: u128, sig: u64) -> Option<Arc<Vec<FrontierRow>>> {
        if !self.enabled() {
            return None;
        }
        let accept = |f: &Frontier| {
            let matches = f.sig == sig;
            if !matches {
                self.sig_conflicts.fetch_add(1, Ordering::Relaxed);
            }
            matches
        };
        self.lru.get(key, accept).map(|f| f.rows)
    }

    /// Stores (or replaces) the frontier for `key`, evicting
    /// least-recently-used entries from the shard until the snapshot fits
    /// its byte budget. A snapshot larger than a whole shard's budget is
    /// dropped rather than stored.
    pub fn store(&self, key: u128, sig: u64, rows: Vec<FrontierRow>) {
        let rows = Arc::new(rows);
        self.lru.replace(key, Frontier { sig, rows });
    }

    /// Test hook: silently bit-flips one stored frontier row (keeping
    /// the recorded checksum), simulating in-memory corruption. Returns
    /// false when the table holds no entries. The next
    /// signature-matching lookup of the damaged key must detect the
    /// mismatch, evict the entry, and miss.
    #[doc(hidden)]
    pub fn corrupt_any(&self) -> bool {
        self.lru.corrupt(None, false, |f| {
            let row = Arc::make_mut(&mut f.rows).first_mut();
            row.map(|r| r.q = f64::from_bits(r.q.to_bits() ^ (1 << 51)))
                .is_some()
        })
    }

    /// Records that the DP seeded one merge point from a hit. Kept
    /// separate from [`lookup`](MemoTable::lookup) because hit planning
    /// happens before the DP runs and a cancelled run may seed fewer
    /// merges than it looked up.
    pub fn note_seeded(&self) {
        self.seeded.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough counter snapshot (occupancy sums shards under
    /// their locks; counters are relaxed atomics).
    pub fn stats(&self) -> MemoStats {
        let s = self.lru.stats();
        MemoStats {
            hits: s.hits,
            misses: s.misses,
            sig_conflicts: self.sig_conflicts.load(Ordering::Relaxed),
            seeded: self.seeded.load(Ordering::Relaxed),
            stores: s.stores,
            evictions: s.evictions,
            bytes: s.cost,
            entries: s.entries,
            budget_bytes: self.lru.budget(),
            integrity_checks: s.integrity_checks,
            corrupt_evictions: s.corrupt_evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(tag: u32, insertions: usize) -> FrontierRow {
        FrontierRow {
            cap: f64::from(tag),
            q: 1.0,
            cur: 0.0,
            ns: 0.5,
            count: insertions as u32,
            cost: 0.0,
            parity: false,
            insertions: (0..insertions as u32).map(|i| (i, 0)).collect(),
        }
    }

    #[test]
    fn lookup_roundtrip_and_sig_guard() {
        let t = MemoTable::new(1 << 20, 4);
        assert!(t.lookup(7, 1).is_none());
        t.store(7, 1, vec![row(1, 2)]);
        let hit = t.lookup(7, 1).expect("stored entry hits");
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].insertions, vec![(0, 0), (1, 0)]);
        // Same canonical key, different evaluation order: miss.
        assert!(t.lookup(7, 2).is_none());
        let s = t.stats();
        assert_eq!((s.hits, s.misses, s.sig_conflicts), (1, 2, 1));
        assert_eq!(s.entries, 1);
        assert!(s.bytes > 0 && s.bytes <= s.budget_bytes);
    }

    #[test]
    fn replacement_updates_bytes_not_duplicates() {
        let t = MemoTable::new(1 << 20, 1);
        t.store(9, 1, vec![row(1, 8)]);
        let b1 = t.stats().bytes;
        t.store(9, 2, vec![row(1, 1)]);
        let s = t.stats();
        assert_eq!(s.entries, 1);
        assert!(s.bytes < b1, "smaller replacement shrinks the gauge");
        assert!(t.lookup(9, 1).is_none(), "old signature replaced");
        assert!(t.lookup(9, 2).is_some());
    }

    #[test]
    fn byte_budget_is_respected_via_lru_eviction() {
        let t = MemoTable::new(4096, 2);
        for k in 0..256u128 {
            t.store(k, 0, vec![row(k as u32, 4)]);
            assert!(
                t.stats().bytes <= t.budget_bytes(),
                "gauge exceeds budget after store {k}"
            );
        }
        let s = t.stats();
        assert!(s.evictions > 0, "budget pressure must evict");
        assert!(s.entries < 256);
        // Recently-touched entries are the survivors: refresh one key,
        // then push until eviction happens again and check it survived.
        let survivor = (0..256u128)
            .find(|&k| t.lookup(k, 0).is_some())
            .expect("some entry survives");
        for k in 1000..1016u128 {
            t.store(k, 0, vec![row(0, 4)]);
        }
        assert!(
            t.lookup(survivor, 0).is_some(),
            "freshly-touched entry outlives LRU pressure"
        );
    }

    #[test]
    fn zero_budget_disables_everything() {
        let t = MemoTable::new(0, 4);
        assert!(!t.enabled());
        t.store(1, 1, vec![row(1, 1)]);
        assert!(t.lookup(1, 1).is_none());
        let s = t.stats();
        assert_eq!(
            (s.hits, s.misses, s.stores, s.entries, s.bytes),
            (0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn oversized_snapshot_is_dropped() {
        let t = MemoTable::new(512, 1);
        t.store(1, 0, vec![row(0, 4000)]);
        assert!(t.lookup(1, 0).is_none());
        assert_eq!(t.stats().bytes, 0);
    }

    #[test]
    fn hits_are_integrity_checked() {
        let t = MemoTable::new(1 << 20, 4);
        t.store(7, 1, vec![row(1, 2)]);
        t.lookup(7, 1).expect("clean hit");
        let s = t.stats();
        assert_eq!(s.integrity_checks, 1);
        assert_eq!(s.corrupt_evictions, 0);
        // Signature conflicts and absent keys never reach the checker.
        t.lookup(7, 99);
        t.lookup(8, 1);
        assert_eq!(t.stats().integrity_checks, 1);
    }

    #[test]
    fn corrupt_entry_is_detected_evicted_and_missed() {
        let t = MemoTable::new(1 << 20, 4);
        t.store(7, 1, vec![row(1, 2)]);
        assert!(t.corrupt_any(), "one entry to damage");
        assert!(
            t.lookup(7, 1).is_none(),
            "a corrupt frontier must never seed a DP"
        );
        let s = t.stats();
        assert_eq!(s.corrupt_evictions, 1);
        assert_eq!(s.entries, 0, "the damaged entry is gone");
        assert_eq!(s.bytes, 0, "the byte gauge is released");
        assert_eq!((s.hits, s.misses), (0, 1), "corruption is a miss");
        // The table heals: a fresh store for the same key works again.
        t.store(7, 1, vec![row(1, 2)]);
        assert!(t.lookup(7, 1).is_some());
        assert_eq!(t.stats().corrupt_evictions, 1);
    }

    #[test]
    fn checksum_sees_the_signature_and_every_field() {
        let crc = |sig: u64, rows: &[FrontierRow]| {
            Frontier {
                sig,
                rows: Arc::new(rows.to_vec()),
            }
            .checksum()
        };
        let base = vec![row(1, 2)];
        let reference = crc(1, &base);
        assert_ne!(
            crc(2, &base),
            reference,
            "the signature must change the crc"
        );
        let variants: Vec<Vec<FrontierRow>> = vec![
            {
                let mut v = base.clone();
                v[0].cap = f64::from_bits(v[0].cap.to_bits() ^ 1);
                v
            },
            {
                let mut v = base.clone();
                v[0].q = f64::from_bits(v[0].q.to_bits() ^ 1);
                v
            },
            {
                let mut v = base.clone();
                v[0].parity = true;
                v
            },
            {
                let mut v = base.clone();
                v[0].count += 1;
                v
            },
            {
                let mut v = base.clone();
                v[0].insertions[1] = (1, 1);
                v
            },
            {
                let mut v = base.clone();
                v.push(row(2, 0));
                v
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(crc(1, v), reference, "variant {i} must change the crc");
        }
    }

    #[test]
    fn debug_output_is_configuration_only() {
        let t = MemoTable::new(1 << 20, 4);
        let before = format!("{t:?}");
        t.store(1, 0, vec![row(1, 1)]);
        t.lookup(1, 0);
        assert_eq!(before, format!("{t:?}"), "state must not leak into Debug");
        assert!(before.contains("budget_bytes"));
    }
}
