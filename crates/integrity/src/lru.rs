//! One sharded, budgeted, verify-on-hit LRU map.
//!
//! Both in-memory caches of the serving stack are instances of
//! [`VerifiedLru`]: the server's whole-net record cache (one cost unit
//! per record, first-write-wins) and the memo's frontier table (cost in
//! estimated bytes, replace-on-store). The map is split into mutex
//! shards; each shard keeps logical-tick recency and evicts its stalest
//! entry by linear scan — shards are small enough that a scan beats an
//! intrusive list. Every accepted hit re-checks the value's checksum
//! against the one taken at insert, so a value damaged in memory is
//! evicted and reported as a miss, never served.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A value the LRU can verify and budget.
pub trait Verified {
    /// Checksum over everything a hit serves, taken at insert and
    /// recomputed on every accepted hit.
    fn checksum(&self) -> u64;
    /// Budget units the value occupies while stored.
    fn cost(&self) -> usize;
}

/// Counter snapshot of a [`VerifiedLru`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups that returned a verified value.
    pub hits: u64,
    /// Lookups that returned nothing (absent, refused, or corrupt).
    pub misses: u64,
    /// Entries displaced to stay inside a shard's budget.
    pub evictions: u64,
    /// Values actually stored.
    pub stores: u64,
    /// Live entries.
    pub entries: usize,
    /// Cost units held by the live entries.
    pub cost: usize,
    /// Budget across all shards, rounded up to whole shards (0 = disabled).
    pub capacity: usize,
    /// Checksum validations performed (one per accepted, found entry).
    pub integrity_checks: u64,
    /// Entries evicted because their checksum no longer matched.
    pub corrupt_evictions: u64,
}

struct Slot<V> {
    value: V,
    cost: usize,
    crc: u64,
    tick: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Slot<V>>,
    tick: u64,
    cost: usize,
}

impl<K: Eq + Hash, V> Shard<K, V> {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn take(&mut self, key: &K) -> Option<Slot<V>> {
        let slot = self.map.remove(key)?;
        self.cost -= slot.cost;
        Some(slot)
    }
}

/// Lock-poison policy: recover the guard. Every critical section leaves
/// its shard consistent at each point that can panic, and a recovered
/// shard still verifies every hit, so a panicking caller costs at most
/// a miss instead of taking the shard out of service.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded LRU map from `K` to `V`, budgeted in cost units per shard
/// and verified on every hit. Thread-safe; every operation locks one
/// shard (`stats` locks each in turn).
///
/// A key picks its shard by folding its two 64-bit halves together
/// (`lo ^ hi`) modulo the shard count, so a `u64` key lands in shard
/// `key % shards`.
pub struct VerifiedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    budget: usize,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stores: AtomicU64,
    integrity_checks: AtomicU64,
    corrupt_evictions: AtomicU64,
}

impl<K: Copy + Eq + Hash + Into<u128>, V: Verified + Clone> VerifiedLru<K, V> {
    /// An LRU holding at most `budget` cost units spread over `shards`
    /// shards (at least one; each gets `⌈budget / shards⌉`). A zero
    /// budget disables it: lookups miss and inserts are dropped.
    pub fn new(budget: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        VerifiedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                        cost: 0,
                    })
                })
                .collect(),
            budget,
            per_shard: budget.div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            integrity_checks: AtomicU64::new(0),
            corrupt_evictions: AtomicU64::new(0),
        }
    }

    /// Whether the LRU can ever hold an entry.
    pub fn enabled(&self) -> bool {
        self.per_shard > 0
    }

    /// The budget as configured.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: K) -> &Mutex<Shard<K, V>> {
        let wide: u128 = key.into();
        let folded = (wide as u64) ^ ((wide >> 64) as u64);
        &self.shards[(folded % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up. A found entry is first offered to `accept` (called
    /// at most once, under the shard lock); a refused entry is a miss
    /// that runs no checksum and keeps its recency. An accepted entry is
    /// served, and refreshed, only if its checksum still matches —
    /// otherwise it is evicted and the lookup misses.
    pub fn get(&self, key: K, accept: impl FnOnce(&V) -> bool) -> Option<V> {
        let found = self.probe(key, accept);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    fn probe(&self, key: K, accept: impl FnOnce(&V) -> bool) -> Option<V> {
        if !self.enabled() {
            return None;
        }
        let mut shard = lock(self.shard(key));
        let tick = shard.touch();
        let slot = shard.map.get_mut(&key)?;
        if !accept(&slot.value) {
            return None;
        }
        self.integrity_checks.fetch_add(1, Ordering::Relaxed);
        if slot.value.checksum() == slot.crc {
            slot.tick = tick;
            return Some(slot.value.clone());
        }
        shard.take(&key);
        self.corrupt_evictions.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// First-write-wins insert: stores `value` unless `key` is present,
    /// in which case the stored value is kept and only its recency is
    /// refreshed. Returns whether `value` was stored.
    pub fn insert(&self, key: K, value: V) -> bool {
        let Some(slot) = self.admit(value) else {
            return false;
        };
        let mut shard = lock(self.shard(key));
        let tick = shard.touch();
        if let Some(present) = shard.map.get_mut(&key) {
            present.tick = tick;
            return false;
        }
        self.place(&mut shard, key, Slot { tick, ..slot });
        true
    }

    /// Replace-on-store: stores `value`, dropping any entry under `key`.
    /// Returns whether `value` was stored.
    pub fn replace(&self, key: K, value: V) -> bool {
        let Some(slot) = self.admit(value) else {
            return false;
        };
        let mut shard = lock(self.shard(key));
        let tick = shard.touch();
        shard.take(&key);
        self.place(&mut shard, key, Slot { tick, ..slot });
        true
    }

    /// The slot for `value`, or `None` when it can never be stored
    /// (disabled, or costlier than a whole shard). Runs before any lock
    /// is taken, so the checksum is never computed under one.
    fn admit(&self, value: V) -> Option<Slot<V>> {
        let cost = value.cost();
        if !self.enabled() || cost > self.per_shard {
            return None;
        }
        let crc = value.checksum();
        Some(Slot {
            value,
            cost,
            crc,
            tick: 0,
        })
    }

    fn place(&self, shard: &mut Shard<K, V>, key: K, slot: Slot<V>) {
        while shard.cost + slot.cost > self.per_shard {
            let stalest = shard.map.iter().min_by_key(|(_, s)| s.tick);
            let Some(stale) = stalest.map(|(k, _)| *k) else {
                break;
            };
            shard.take(&stale);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.cost += slot.cost;
        shard.map.insert(key, slot);
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops `key` outright. Returns whether an entry was present.
    pub fn remove(&self, key: K) -> bool {
        lock(self.shard(key)).take(&key).is_some()
    }

    /// Test hook: applies `damage` to the entry under `key` (with `None`,
    /// to the first entry of the first non-empty shard), keeping the
    /// recorded checksum unless `rehash` recomputes it over the damaged
    /// value — corruption that predates the checksum, invisible to
    /// verify-on-hit. Returns false when there is no entry or `damage`
    /// reports it changed nothing.
    #[doc(hidden)]
    pub fn corrupt(
        &self,
        key: Option<K>,
        rehash: bool,
        damage: impl FnOnce(&mut V) -> bool,
    ) -> bool {
        for shard in &self.shards {
            let mut shard = lock(shard);
            let slot = match key {
                Some(k) => shard.map.get_mut(&k),
                None => shard.map.values_mut().next(),
            };
            let Some(slot) = slot else { continue };
            let damaged = damage(&mut slot.value);
            if damaged && rehash {
                slot.crc = slot.value.checksum();
            }
            return damaged;
        }
        false
    }

    /// Current counters and occupancy (occupancy summed under each
    /// shard's lock; counters are relaxed atomics).
    pub fn stats(&self) -> LruStats {
        let (entries, cost) = self.shards.iter().fold((0, 0), |(n, c), s| {
            let s = lock(s);
            (n + s.map.len(), c + s.cost)
        });
        LruStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            entries,
            cost,
            capacity: self.per_shard * self.shards.len(),
            integrity_checks: self.integrity_checks.load(Ordering::Relaxed),
            corrupt_evictions: self.corrupt_evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Crc64;
    use proptest::prelude::*;
    use std::sync::Barrier;
    use std::thread;

    /// A test value carrying its own seal, so a reader can tell a damaged
    /// value apart without the LRU's recorded checksum.
    #[derive(Debug, Clone, PartialEq)]
    struct Val {
        payload: u64,
        cost: usize,
        seal: u64,
    }

    fn seal(payload: u64, cost: usize) -> u64 {
        let mut h = Crc64::new();
        h.update_u64(payload);
        h.update_u64(cost as u64);
        h.finish()
    }

    impl Val {
        fn new(payload: u64, cost: usize) -> Self {
            Val {
                payload,
                cost,
                seal: seal(payload, cost),
            }
        }

        fn sealed(&self) -> bool {
            self.seal == seal(self.payload, self.cost)
        }
    }

    impl Verified for Val {
        fn checksum(&self) -> u64 {
            let mut h = Crc64::new();
            h.update_u64(self.seal);
            h.update_u64(seal(self.payload, self.cost));
            h.finish()
        }

        fn cost(&self) -> usize {
            self.cost
        }
    }

    fn unit(payload: u64) -> Val {
        Val::new(payload, 1)
    }

    fn flip(v: &mut Val) -> bool {
        v.payload ^= 1 << 51;
        true
    }

    fn any(_: &Val) -> bool {
        true
    }

    /// Per shard: the recorded cost gauge and the sum of its live entries'
    /// costs.
    fn shard_costs<K, V>(lru: &VerifiedLru<K, V>) -> Vec<(usize, usize)> {
        lru.shards
            .iter()
            .map(|s| {
                let s = lock(s);
                (s.cost, s.map.values().map(|slot| slot.cost).sum())
            })
            .collect()
    }

    fn assert_gauge_consistent<K, V>(lru: &VerifiedLru<K, V>)
    where
        K: Copy + Eq + Hash + Into<u128>,
        V: Verified + Clone,
    {
        let costs = shard_costs(lru);
        for &(gauge, live) in &costs {
            assert_eq!(gauge, live, "shard gauge drifted from its entries");
            assert!(gauge <= lru.per_shard, "shard over budget");
        }
        assert_eq!(lru.stats().cost, costs.iter().map(|c| c.1).sum::<usize>());
    }

    #[test]
    fn hit_serves_stored_value_and_counts() {
        let lru = VerifiedLru::new(8, 2);
        assert_eq!(lru.get(1u64, any), None);
        assert!(lru.insert(1, unit(7)));
        assert_eq!(lru.get(1, any), Some(unit(7)));
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.stores), (1, 1, 1, 1));
        assert_eq!(s.integrity_checks, 1, "only found entries are checked");
    }

    #[test]
    fn lru_evicts_oldest_not_recently_used() {
        // One shard of 2 units: touch 10, insert 30 — 20 goes.
        let lru = VerifiedLru::new(2, 1);
        lru.insert(10u64, unit(1));
        lru.insert(20, unit(2));
        assert!(lru.get(10, any).is_some(), "refresh 10");
        lru.insert(30, unit(3));
        assert!(lru.get(10, any).is_some(), "10 survived");
        assert_eq!(lru.get(20, any), None, "20 evicted");
        assert!(lru.get(30, any).is_some(), "30 present");
        assert_eq!((lru.stats().evictions, lru.stats().entries), (1, 2));
    }

    #[test]
    fn first_write_wins_refreshes_and_replace_overwrites() {
        let lru = VerifiedLru::new(2, 1);
        assert!(lru.insert(1u64, unit(1)));
        lru.insert(2, unit(2));
        assert!(!lru.insert(1, unit(9)), "a present key keeps its value");
        lru.insert(3, unit(3));
        assert_eq!(
            lru.get(1, any),
            Some(unit(1)),
            "and is refreshed, so 2 went"
        );
        assert_eq!(lru.get(2, any), None);
        assert!(lru.replace(1, unit(4)));
        assert_eq!(lru.get(1, any), Some(unit(4)));
        let s = lru.stats();
        assert_eq!((s.entries, s.stores, s.evictions), (2, 4, 1));
    }

    #[test]
    fn zero_budget_disables_and_counts_lookups_as_misses() {
        let lru = VerifiedLru::new(0, 4);
        assert!(!lru.enabled());
        assert!(!lru.insert(1u64, unit(1)));
        assert!(!lru.replace(1, unit(1)));
        assert_eq!(lru.get(1, any), None);
        assert!(!lru.remove(1));
        assert!(!lru.corrupt(None, false, flip));
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.stores), (0, 1, 0));
        assert_eq!((s.entries, s.cost, s.evictions), (0, 0, 0));
        assert_eq!(s.capacity, 0);
    }

    #[test]
    fn rejected_entries_are_neither_checked_nor_refreshed() {
        let lru = VerifiedLru::new(2, 1);
        lru.insert(1u64, unit(1));
        lru.insert(2, unit(2));
        assert_eq!(lru.get(1, |_| false), None);
        lru.insert(3, unit(3));
        assert_eq!(lru.get(1, any), None, "1 was stalest");
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.integrity_checks), (0, 2, 0));
    }

    #[test]
    fn cost_budget_evicts_until_the_value_fits_and_drops_oversize() {
        let lru = VerifiedLru::new(10, 1);
        lru.replace(1u64, Val::new(1, 4));
        lru.replace(2, Val::new(2, 4));
        assert!(lru.replace(3, Val::new(3, 7)), "fits after evicting both");
        let s = lru.stats();
        assert_eq!((s.entries, s.cost, s.evictions), (1, 7, 2));
        assert!(!lru.replace(3, Val::new(4, 11)), "costlier than the shard");
        assert_eq!(
            lru.get(3, any),
            Some(Val::new(3, 7)),
            "a dropped store keeps the old entry"
        );
        assert!(lru.replace(3, Val::new(5, 2)));
        assert_eq!(lru.stats().cost, 2, "a replacement releases the old cost");
        assert_gauge_consistent(&lru);
    }

    #[test]
    fn keys_spread_over_shards() {
        let lru = VerifiedLru::new(64, 8);
        for k in 0..64u64 {
            lru.insert(k, unit(k));
        }
        assert_eq!(lru.stats().entries, 64, "no shard overflowed early");
    }

    #[test]
    fn wide_keys_fold_both_halves_to_pick_a_shard() {
        // Two shards of one unit: 0 and 2^64 + 1 both fold to 0.
        let lru = VerifiedLru::new(2, 2);
        lru.insert(0u128, unit(0));
        lru.insert(1, unit(1));
        assert_eq!(lru.stats().evictions, 0);
        lru.insert((1u128 << 64) | 1, unit(2));
        assert_eq!(lru.stats().evictions, 1);
        assert_eq!(lru.get(0, any), None);
        assert!(lru.get(1, any).is_some());
    }

    #[test]
    fn corrupt_entry_is_evicted_and_missed_then_heals() {
        let lru = VerifiedLru::new(16, 2);
        lru.replace(7u64, Val::new(7, 3));
        assert!(lru.corrupt(Some(7), false, flip));
        assert_eq!(lru.get(7, any), None, "never served");
        let s = lru.stats();
        assert_eq!((s.hits, s.misses), (0, 1), "corruption is a miss");
        assert_eq!((s.integrity_checks, s.corrupt_evictions), (1, 1));
        assert_eq!((s.entries, s.cost), (0, 0), "entry and cost released");
        lru.replace(7, Val::new(7, 3));
        assert!(lru.get(7, any).is_some());
        assert_eq!(lru.stats().corrupt_evictions, 1);
    }

    #[test]
    fn rehashed_corruption_slips_past_verify_on_hit() {
        let lru = VerifiedLru::new(16, 2);
        lru.insert(1u64, unit(1));
        assert!(lru.corrupt(Some(1), true, flip));
        let got = lru
            .get(1, any)
            .expect("served: the checksum matches the lie");
        assert!(!got.sealed());
        assert_eq!(lru.stats().corrupt_evictions, 0);
        assert!(lru.remove(1), "explicit invalidation still works");
        assert_eq!(lru.get(1, any), None);
    }

    #[test]
    fn corrupt_reports_missing_entries_and_refused_damage() {
        let lru = VerifiedLru::new(16, 2);
        assert!(!lru.corrupt(Some(1u64), false, flip));
        assert!(!lru.corrupt(None, false, flip));
        lru.insert(1, unit(1));
        assert!(!lru.corrupt(None, false, |_| false));
        assert!(lru.corrupt(None, false, flip));
        assert_eq!(lru.get(1, any), None);
        assert_eq!(lru.stats().corrupt_evictions, 1);
    }

    /// Sequential reference model: per shard a `Vec` of
    /// `(key, value, crc)` kept stalest first.
    struct Model {
        per_shard: usize,
        shards: Vec<Vec<(u64, Val, u64)>>,
        stats: LruStats,
    }

    impl Model {
        fn new(budget: usize, shards: usize) -> Self {
            let per_shard = budget.div_ceil(shards);
            let capacity = per_shard * shards;
            let stats = LruStats {
                capacity,
                ..LruStats::default()
            };
            Model {
                per_shard,
                shards: vec![Vec::new(); shards],
                stats,
            }
        }

        /// The key's shard and its position there.
        fn find(
            shards: &mut [Vec<(u64, Val, u64)>],
            key: u64,
        ) -> (&mut Vec<(u64, Val, u64)>, Option<usize>) {
            let n = shards.len() as u64;
            let slots = &mut shards[(key % n) as usize];
            let at = slots.iter().position(|s| s.0 == key);
            (slots, at)
        }

        fn get(&mut self, key: u64, accept: bool) -> Option<Val> {
            let found = match Self::find(&mut self.shards, key) {
                (_, None) => None,
                (_, Some(_)) if !accept => None,
                (slots, Some(i)) => {
                    let slot = slots.remove(i);
                    self.stats.integrity_checks += 1;
                    if slot.1.checksum() == slot.2 {
                        slots.push(slot.clone());
                        Some(slot.1)
                    } else {
                        self.stats.corrupt_evictions += 1;
                        None
                    }
                }
            };
            *if found.is_some() {
                &mut self.stats.hits
            } else {
                &mut self.stats.misses
            } += 1;
            found
        }

        fn put(&mut self, key: u64, v: Val, replace: bool) -> bool {
            let per_shard = self.per_shard;
            if per_shard == 0 || v.cost > per_shard {
                return false;
            }
            let (slots, at) = Self::find(&mut self.shards, key);
            if let Some(i) = at {
                let old = slots.remove(i);
                if !replace {
                    slots.push(old);
                    return false;
                }
            }
            while slots.iter().map(|s| s.1.cost).sum::<usize>() + v.cost > per_shard {
                slots.remove(0);
                self.stats.evictions += 1;
            }
            let crc = v.checksum();
            slots.push((key, v, crc));
            self.stats.stores += 1;
            true
        }

        fn remove(&mut self, key: u64) -> bool {
            let (slots, at) = Self::find(&mut self.shards, key);
            at.map(|i| slots.remove(i)).is_some()
        }

        fn corrupt(&mut self, key: u64, rehash: bool) -> bool {
            let (slots, at) = Self::find(&mut self.shards, key);
            let Some(slot) = at.map(|i| &mut slots[i]) else {
                return false;
            };
            flip(&mut slot.1);
            if rehash {
                slot.2 = slot.1.checksum();
            }
            true
        }

        fn stats(&self) -> LruStats {
            let live = || self.shards.iter().flatten();
            LruStats {
                entries: live().count(),
                cost: live().map(|s| s.1.cost).sum(),
                ..self.stats
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn lru_matches_reference_model(
            shards in 1usize..4,
            keys in 1u64..7,
            byte_cost in prop::bool::ANY,
            budget in 0usize..13,
            ops in prop::collection::vec(
                (0u8..6, 0u64..6, 0u64..4, 1usize..9, prop::bool::ANY),
                1..80,
            ),
        ) {
            let lru = VerifiedLru::new(budget, shards);
            let mut model = Model::new(budget, shards);
            for (step, &(op, key, payload, cost, flag)) in ops.iter().enumerate() {
                let key = key % keys;
                let v = Val::new(payload, if byte_cost { cost } else { 1 });
                match op {
                    0 | 1 => prop_assert_eq!(
                        lru.get(key, |_| flag), model.get(key, flag), "get at step {}", step
                    ),
                    2 => prop_assert_eq!(
                        lru.insert(key, v.clone()), model.put(key, v, false), "insert at step {}", step
                    ),
                    3 => prop_assert_eq!(
                        lru.replace(key, v.clone()), model.put(key, v, true), "replace at step {}", step
                    ),
                    4 => prop_assert_eq!(lru.remove(key), model.remove(key), "remove at step {}", step),
                    _ => prop_assert_eq!(
                        lru.corrupt(Some(key), flag, flip), model.corrupt(key, flag), "corrupt at step {}", step
                    ),
                }
                prop_assert_eq!(lru.stats(), model.stats(), "counters after step {}", step);
                for (gauge, live) in shard_costs(&lru) {
                    prop_assert!(gauge == live && gauge <= lru.per_shard, "gauge after step {}", step);
                }
            }
        }
    }

    #[test]
    fn concurrent_mixed_load_keeps_counters_and_budget_consistent() {
        const THREADS: u64 = 4;
        const OPS: usize = 4000;
        let lru = VerifiedLru::<u64, Val>::new(24, 3);
        let start = Barrier::new(THREADS as usize);
        let lookups: u64 = thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (lru, start) = (&lru, &start);
                    s.spawn(move || {
                        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
                        let mut lookups = 0;
                        start.wait();
                        for _ in 0..OPS {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let key = x % 16;
                            let v = Val::new(x >> 32, 1 + (x >> 8) as usize % 6);
                            match (x >> 4) % 8 {
                                0..=3 => {
                                    lookups += 1;
                                    if let Some(got) = lru.get(key, |v| v.payload % 5 != 0) {
                                        assert!(got.sealed(), "a lookup served a damaged value");
                                    }
                                }
                                4 => {
                                    lru.insert(key, v);
                                }
                                5 => {
                                    lru.replace(key, v);
                                }
                                6 => {
                                    lru.remove(key);
                                }
                                _ => {
                                    lru.corrupt(Some(key), false, flip);
                                }
                            }
                        }
                        lookups
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let s = lru.stats();
        assert_eq!(s.hits + s.misses, lookups);
        assert_eq!(s.integrity_checks, s.hits + s.corrupt_evictions);
        assert!(s.hits > 0 && s.corrupt_evictions > 0 && s.evictions > 0);
        assert_gauge_consistent(&lru);
    }
}
