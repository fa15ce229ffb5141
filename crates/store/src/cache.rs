//! Thread-safe sharded LRU cache for decompressed payloads.
//!
//! [`BlockedStore`](crate::BlockedStore) retrieval decompresses a whole
//! block to serve one document; under sequential access the same block is
//! hit repeatedly, and under concurrent access popular blocks are hit from
//! many threads at once. The serving front end (`rlz-serve`) reuses the
//! same structure as a **hot-document cache**: decoded payload bytes keyed
//! by document id, sized by a byte budget because web documents vary in
//! size by orders of magnitude. This cache shards its key space over
//! independently locked maps so parallel readers rarely contend on the
//! same mutex, and hands out `Arc`s to the decompressed bytes so hits copy
//! nothing under the lock.
//!
//! Two sizing modes share one implementation:
//!
//! * [`ShardedLru::new`] — bounded by **entry count** (the block-cache
//!   configuration: blocks share one fixed decompressed size);
//! * [`ShardedLru::with_byte_budget`] — bounded by **resident payload
//!   bytes** (the hot-document configuration: entries are whole documents
//!   of wildly different sizes, so counting entries would not bound
//!   memory).
//!
//! Hit/miss counters are maintained on every [`get`](ShardedLru::get) so a
//! serving layer can surface cache effectiveness (the `rlz-serve` STAT
//! opcode reports them).
//!
//! A writable store changes payloads under the cache. The writer calls
//! [`remove`](ShardedLru::remove) once a write is applied; it advances a
//! write epoch before dropping the entry. A reader notes the
//! [`write_epoch`](ShardedLru::write_epoch) before its store read and
//! inserts through [`insert_at`](ShardedLru::insert_at), which compares
//! the epoch under the shard lock. Either the insert lands first and the
//! removal drops it, or the removal lands first and the insert is refused,
//! so pre-write bytes never outlive the write.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards (power of two).
const SHARDS: usize = 8;

/// A sharded, approximately-LRU cache from key to decompressed bytes.
/// Eviction is exact LRU *within* a shard.
#[derive(Debug)]
pub struct ShardedLru {
    shards: [Mutex<Shard>; SHARDS],
    /// Max entries per shard (`usize::MAX` when byte-budgeted).
    per_shard_cap: usize,
    /// Max payload bytes per shard (`usize::MAX` when entry-budgeted).
    per_shard_bytes: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Number of [`remove`](ShardedLru::remove) calls so far. The AcqRel
    /// bump in `remove` pairs with the Acquire load in `write_epoch`: a
    /// reader whose epoch already counts a write also sees the store state
    /// that write published before calling `remove`.
    writes: AtomicU64,
}

#[derive(Debug, Default)]
struct Shard {
    /// key → (last-touch tick, payload)
    entries: HashMap<usize, (u64, Arc<Vec<u8>>)>,
    /// Sum of payload lengths currently resident in this shard.
    bytes: usize,
}

impl ShardedLru {
    /// A cache holding at most `capacity` entries (rounded up to at least
    /// one entry per shard). Resident bytes are unbounded — use this when
    /// every entry has the same known size (decompressed blocks).
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity.div_ceil(SHARDS).max(1), usize::MAX)
    }

    /// A cache holding at most `budget` payload bytes across all shards
    /// (each shard gets an equal slice; entries larger than a shard's
    /// slice are never cached, so one giant payload cannot flush the whole
    /// cache). Entry count is unbounded — use this when entry sizes vary
    /// (whole documents).
    pub fn with_byte_budget(budget: usize) -> Self {
        Self::build(usize::MAX, budget.div_ceil(SHARDS).max(1))
    }

    fn build(per_shard_cap: usize, per_shard_bytes: usize) -> Self {
        ShardedLru {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            per_shard_cap,
            per_shard_bytes,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Maximum number of cached entries (`usize::MAX` when the cache is
    /// bounded by bytes instead).
    pub fn capacity(&self) -> usize {
        self.per_shard_cap.saturating_mul(SHARDS)
    }

    /// Maximum resident payload bytes (`usize::MAX` when the cache is
    /// bounded by entry count instead).
    pub fn byte_budget(&self) -> usize {
        self.per_shard_bytes.saturating_mul(SHARDS)
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock poisoned").entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes currently resident across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock poisoned").bytes)
            .sum()
    }

    /// Lookups served from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fetches entry `key`, refreshing its recency and counting the
    /// hit/miss.
    pub fn get(&self, key: usize) -> Option<Arc<Vec<u8>>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache lock poisoned");
        let found = shard.entries.get_mut(&key).map(|entry| {
            entry.0 = tick;
            Arc::clone(&entry.1)
        });
        drop(shard);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Inserts entry `key`, evicting least-recently-used entries until the
    /// shard satisfies both its entry and byte budgets. A payload larger
    /// than the whole shard byte budget is not cached at all (caching it
    /// would evict everything else for one entry).
    pub fn insert(&self, key: usize, value: Arc<Vec<u8>>) {
        self.insert_at(key, value, self.write_epoch());
    }

    /// The write epoch: how many [`remove`](Self::remove) calls have
    /// happened. Read it before fetching a payload from a writable store
    /// and pass it to [`insert_at`](Self::insert_at).
    pub fn write_epoch(&self) -> u64 {
        self.writes.load(Ordering::Acquire)
    }

    /// [`insert`](Self::insert) for a payload read at write epoch `epoch`:
    /// refused when a [`remove`](Self::remove) has happened since, because
    /// the payload may predate that write.
    pub fn insert_at(&self, key: usize, value: Arc<Vec<u8>>, epoch: u64) {
        if value.len() > self.per_shard_bytes {
            return;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache lock poisoned");
        // Checked under the shard lock: `remove` bumps the epoch before it
        // takes this lock, so a stale insert either sees the bump here or
        // lands before the removal that drops it.
        if epoch != self.write_epoch() {
            return;
        }
        // Replacing an existing key frees its bytes before budget checks.
        if let Some((_, old)) = shard.entries.remove(&key) {
            shard.bytes -= old.len();
        }
        while shard.entries.len() >= self.per_shard_cap
            || shard.bytes + value.len() > self.per_shard_bytes
        {
            // Exact LRU by linear scan: shards stay small, so this is
            // cheaper than maintaining an ordered structure.
            let Some(&oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k)
            else {
                break;
            };
            if let Some((_, evicted)) = shard.entries.remove(&oldest) {
                shard.bytes -= evicted.len();
            }
        }
        shard.bytes += value.len();
        shard.entries.insert(key, (tick, value));
    }

    /// Drops entry `key` after a write changed its payload. The write epoch
    /// advances first, so a reader that fetched the old payload and has not
    /// inserted it yet is refused by [`insert_at`](Self::insert_at).
    pub fn remove(&self, key: usize) {
        self.writes.fetch_add(1, Ordering::AcqRel);
        let mut shard = self.shard(key).lock().expect("cache lock poisoned");
        if let Some((_, old)) = shard.entries.remove(&key) {
            shard.bytes -= old.len();
        }
    }

    fn shard(&self, key: usize) -> &Mutex<Shard> {
        // Spread consecutive keys across shards so sequential access does
        // not serialize on one lock.
        &self.shards[key % SHARDS]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(v: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![v; 16])
    }

    #[test]
    fn hit_and_miss() {
        let cache = ShardedLru::new(16);
        assert!(cache.get(3).is_none());
        cache.insert(3, block(3));
        assert_eq!(cache.get(3).unwrap()[0], 3);
        assert!(cache.get(11).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn evicts_least_recently_used_within_shard() {
        let cache = ShardedLru::new(8); // one entry per shard
                                        // Keys 0 and 8 share shard 0.
        cache.insert(0, block(0));
        cache.insert(8, block(8));
        assert!(cache.get(0).is_none(), "0 should have been evicted by 8");
        assert_eq!(cache.get(8).unwrap()[0], 8);
    }

    #[test]
    fn recency_protects_hot_entries() {
        let cache = ShardedLru::new(16); // two entries per shard
        cache.insert(0, block(0));
        cache.insert(8, block(8));
        cache.get(0); // touch 0: now 8 is the LRU of shard 0
        cache.insert(16, block(16));
        assert!(cache.get(8).is_none(), "8 was least recent");
        assert!(cache.get(0).is_some());
        assert!(cache.get(16).is_some());
    }

    #[test]
    fn capacity_is_bounded() {
        let cache = ShardedLru::new(32);
        for k in 0..1000 {
            cache.insert(k, block(k as u8));
        }
        assert!(cache.len() <= cache.capacity());
        assert!(!cache.is_empty());
    }

    #[test]
    fn byte_budget_bounds_resident_bytes() {
        // 8 KiB budget, 1 KiB per shard; entries of 100 bytes.
        let cache = ShardedLru::with_byte_budget(8 << 10);
        assert_eq!(cache.byte_budget(), 8 << 10);
        for k in 0..1000 {
            cache.insert(k, Arc::new(vec![k as u8; 100]));
        }
        assert!(cache.resident_bytes() <= cache.byte_budget());
        assert!(!cache.is_empty());
        // Variable sizes keep the accounting honest.
        for k in 0..200 {
            cache.insert(k, Arc::new(vec![k as u8; 1 + (k * 37) % 900]));
        }
        assert!(cache.resident_bytes() <= cache.byte_budget());
        let expected: usize = (0..SHARDS)
            .map(|s| {
                cache.shards[s]
                    .lock()
                    .unwrap()
                    .entries
                    .values()
                    .map(|(_, v)| v.len())
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(cache.resident_bytes(), expected);
    }

    #[test]
    fn remove_drops_the_entry_and_refuses_stale_inserts() {
        let cache = ShardedLru::with_byte_budget(8 << 10);
        cache.insert(5, block(1));
        let before = cache.write_epoch();
        cache.remove(5);
        assert!(cache.get(5).is_none());
        assert_eq!(cache.resident_bytes(), 0);
        // A reader that fetched before the write must not re-insert.
        cache.insert_at(5, block(1), before);
        assert!(cache.get(5).is_none());
        // A reader that fetched after it may.
        cache.insert_at(5, block(2), cache.write_epoch());
        assert_eq!(cache.get(5).unwrap()[0], 2);
        // Removing an absent key still advances the epoch.
        let epoch = cache.write_epoch();
        cache.remove(77);
        assert_eq!(cache.write_epoch(), epoch + 1);
    }

    #[test]
    fn oversized_payloads_are_not_cached() {
        let cache = ShardedLru::with_byte_budget(8 << 10); // 1 KiB per shard
        cache.insert(0, Arc::new(vec![1; 64]));
        cache.insert(8, Arc::new(vec![2; 4096])); // larger than one shard's slice
        assert!(cache.get(8).is_none(), "oversized entry must not be cached");
        assert!(
            cache.get(0).is_some(),
            "oversized insert must not evict the shard"
        );
    }

    #[test]
    fn replacing_a_key_updates_byte_accounting() {
        let cache = ShardedLru::with_byte_budget(8 << 10);
        cache.insert(0, Arc::new(vec![1; 500]));
        cache.insert(0, Arc::new(vec![2; 300]));
        assert_eq!(cache.resident_bytes(), 300);
        assert_eq!(cache.get(0).unwrap()[0], 2);
    }

    #[test]
    fn concurrent_mixed_access() {
        let cache = ShardedLru::new(64);
        std::thread::scope(|scope| {
            for t in 0..8u8 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..2000usize {
                        let key = (t as usize * 37 + i * 13) % 200;
                        if let Some(v) = cache.get(key) {
                            assert_eq!(v[0] as usize, key % 256);
                        } else {
                            cache.insert(key, Arc::new(vec![(key % 256) as u8; 16]));
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
        assert_eq!(cache.hits() + cache.misses(), 8 * 2000);
    }
}
