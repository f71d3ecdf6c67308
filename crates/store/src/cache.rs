//! The per-node read cache: bounded bytes, deterministic LRU, and a
//! scan-resistant admission policy.
//!
//! Each node of the store keeps a front-end-owned cache of recently
//! served values. A hit short-circuits the NVMe path entirely — the GET
//! runs as a `MemRead → NicSend` pipeline instead of
//! `SsdRead → MD5 → NicSend` — so a skewed read mix serves its hot head
//! at DRAM speed while the flash stays free for the cold tail.
//!
//! Two properties matter more than raw hit rate:
//!
//! * **Determinism.** Recency is the insertion order of a [`DetSet`] of
//!   the resident keys: every touch moves its key to the back, so the
//!   front is the least recently used key and eviction pops it in O(1).
//!   The ghost list is a second such set. No wall clock, no hash-order
//!   iteration — the same request stream always produces the same
//!   evictions.
//! * **Scan resistance.** A YCSB-E scan touches a long run of keys
//!   exactly once; admitting them would flush the hot head for bytes that
//!   will never be re-read. Under [`Admission::ScanResistant`], scan
//!   traffic is never admitted and point reads must prove themselves on a
//!   small *ghost list* (key-only, no bytes) before their second touch
//!   earns residency. [`Admission::AdmitAll`] is the ablation arm that
//!   shows the pollution.
//!
//! Versions are the *caller's* concern: the cache stores the version each
//! value was admitted at, [`ReadCache::lookup`] returns it, and the store
//! driver compares it against the committed version before serving — the
//! `stale_served` tripwire in the cluster report counts any mismatch that
//! would have been served.

use dcs_sim::{DetMap, DetSet};

/// What gets admitted into the cache on a successful flash read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Admission {
    /// Admit every read, scans included (the pollution ablation).
    AdmitAll,
    /// Never admit scan traffic; point reads are admitted on their second
    /// touch (first touch only records the key on the ghost list).
    #[default]
    ScanResistant,
}

/// Cache provisioning for every node of the store.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Value-byte budget per node; 0 disables the cache entirely.
    pub capacity_bytes: u64,
    /// Admission policy.
    pub admission: Admission,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 0,
            admission: Admission::ScanResistant,
        }
    }
}

/// A resident value (metadata only — the simulation never stores the
/// actual bytes, the node's flash model owns them).
#[derive(Clone, Copy, Debug)]
struct Entry {
    len: u64,
    version: u64,
}

/// One node's read cache. See the module docs for the policy.
#[derive(Debug)]
pub struct ReadCache {
    capacity: u64,
    admission: Admission,
    bytes: u64,
    entries: DetMap<u64, Entry>,
    /// The keys of `entries`, least recently used first.
    recency: DetSet<u64>,
    /// Keys seen exactly once (no bytes held), oldest first.
    ghost: DetSet<u64>,
    ghost_cap: usize,
    /// Entries dropped because their version no longer matched.
    pub stale_evicted: u64,
    /// Admissions refused because the read came from a scan.
    pub scan_rejected: u64,
}

impl ReadCache {
    /// Creates an empty cache with `cfg`'s budget and policy.
    pub fn new(cfg: &CacheConfig) -> ReadCache {
        // The ghost list holds keys, not bytes; give it room proportional
        // to the cache (as if entries were 4 KiB) so a hot set larger than
        // one touch can still prove itself, but bounded.
        let ghost_cap = (cfg.capacity_bytes / 4096).clamp(64, 4096) as usize;
        ReadCache {
            capacity: cfg.capacity_bytes,
            admission: cfg.admission,
            bytes: 0,
            entries: DetMap::new(),
            recency: DetSet::new(),
            ghost: DetSet::new(),
            ghost_cap,
            stale_evicted: 0,
            scan_rejected: 0,
        }
    }

    /// Marks resident `key` as the most recently used.
    fn touch(&mut self, key: u64) {
        self.recency.remove(&key);
        self.recency.insert(key);
    }

    /// Looks `key` up, bumping its recency. Returns the version the value
    /// was admitted at; the caller decides whether that version is still
    /// servable.
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        let version = self.entries.get(&key)?.version;
        self.touch(key);
        Some(version)
    }

    /// Non-mutating probe (no recency bump): the version `key` is cached
    /// at, if resident. Used for cache-affinity routing.
    pub fn peek(&self, key: u64) -> Option<u64> {
        self.entries.get(&key).map(|e| e.version)
    }

    /// Offers a successfully read value for residency. `from_scan` marks
    /// bytes produced by a range scan.
    pub fn admit(&mut self, key: u64, len: u64, version: u64, from_scan: bool) {
        if self.capacity == 0 || len == 0 || len > self.capacity {
            return;
        }
        if self.refresh(key, len, version) {
            return;
        }
        if self.admission == Admission::ScanResistant {
            if from_scan {
                self.scan_rejected += 1;
                return;
            }
            if !self.ghost.remove(&key) {
                // First touch: remember the key, hold no bytes.
                self.ghost.insert(key);
                self.trim_ghost();
                return;
            }
            // Second touch: fall through and admit.
        }
        self.insert_entry(key, len, version);
    }

    /// Snapshot of the resident set, insertion-ordered: `(key, len,
    /// version)` per entry. Feeds the warm-up transfer to a rejoining
    /// node — the caller filters by ring membership and version currency.
    pub(crate) fn warm_set(&self) -> Vec<(u64, u64, u64)> {
        self.entries
            .iter()
            .map(|(&k, e)| (k, e.len, e.version))
            .collect()
    }

    /// Admits a warm-up entry directly: no ghost-list probation (the
    /// value already proved itself hot on the donor node) and no scan
    /// gate. The byte budget still holds.
    pub(crate) fn admit_warm(&mut self, key: u64, len: u64, version: u64) {
        if self.capacity == 0 || len == 0 || len > self.capacity {
            return;
        }
        if !self.refresh(key, len, version) {
            self.insert_entry(key, len, version);
        }
    }

    /// Refreshes a resident `key`'s value, version and recency in place;
    /// false when `key` is not resident.
    fn refresh(&mut self, key: u64, len: u64, version: u64) -> bool {
        let Some(e) = self.entries.get_mut(&key) else {
            return false;
        };
        let old = std::mem::replace(e, Entry { len, version });
        self.bytes = self.bytes - old.len + len;
        self.touch(key);
        self.evict_to_fit(0);
        true
    }

    /// Makes room for, then inserts, a non-resident `key`.
    fn insert_entry(&mut self, key: u64, len: u64, version: u64) {
        self.evict_to_fit(len);
        self.entries.insert(key, Entry { len, version });
        self.recency.insert(key);
        self.bytes += len;
    }

    /// Drops `key` if resident (a write committed a newer version).
    /// Returns whether anything was dropped.
    pub(crate) fn invalidate(&mut self, key: u64) -> bool {
        self.ghost.remove(&key);
        match self.entries.remove(&key) {
            Some(e) => {
                self.recency.remove(&key);
                self.bytes -= e.len;
                true
            }
            None => false,
        }
    }

    /// Drops a value whose cached version went stale at lookup time.
    pub(crate) fn evict_stale(&mut self, key: u64) {
        if self.invalidate(key) {
            self.stale_evicted += 1;
        }
    }

    /// Empties the cache (the node crashed or was drained).
    pub fn clear(&mut self) {
        self.entries = DetMap::new();
        self.recency = DetSet::new();
        self.ghost = DetSet::new();
        self.bytes = 0;
    }

    /// Evicts least-recently-used entries until `incoming` more bytes fit.
    fn evict_to_fit(&mut self, incoming: u64) {
        while self.bytes + incoming > self.capacity {
            let victim = self
                .recency
                .pop_first()
                .expect("over budget implies a resident entry");
            let e = self.entries.remove(&victim).expect("victim resident");
            self.bytes -= e.len;
        }
    }

    fn trim_ghost(&mut self) {
        while self.ghost.len() > self.ghost_cap {
            self.ghost.pop_first();
        }
    }

    /// Resident value bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: u64, admission: Admission) -> ReadCache {
        ReadCache::new(&CacheConfig {
            capacity_bytes: capacity,
            admission,
        })
    }

    /// Admit under AdmitAll (single touch suffices).
    fn put(c: &mut ReadCache, key: u64, len: u64) {
        c.admit(key, len, 1, false);
    }

    #[test]
    fn byte_budget_evicts_lru_deterministically() {
        let mut c = cache(10_000, Admission::AdmitAll);
        put(&mut c, 1, 4000);
        put(&mut c, 2, 4000);
        assert_eq!(c.lookup(1), Some(1), "touch key 1 so key 2 is the LRU");
        put(&mut c, 3, 4000); // must evict key 2
        assert_eq!(c.lookup(2), None);
        assert_eq!(c.lookup(1), Some(1));
        assert_eq!(c.lookup(3), Some(1));
        assert!(c.bytes() <= 10_000);
    }

    #[test]
    fn scan_resistant_needs_two_touches_and_never_admits_scans() {
        let mut c = cache(1 << 20, Admission::ScanResistant);
        c.admit(7, 4096, 1, false);
        assert_eq!(c.lookup(7), None, "first touch only ghosts the key");
        c.admit(7, 4096, 1, false);
        assert_eq!(c.lookup(7), Some(1), "second touch earns residency");
        for k in 100..200 {
            c.admit(k, 4096, 1, true);
            c.admit(k, 4096, 1, true);
        }
        assert_eq!(c.len(), 1, "scan bytes never enter, even on re-touch");
        assert_eq!(c.scan_rejected, 200);
        // AdmitAll is the pollution arm: the same scan floods it.
        let mut all = cache(1 << 20, Admission::AdmitAll);
        for k in 100..200 {
            all.admit(k, 4096, 1, true);
        }
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn invalidate_and_clear_release_bytes() {
        let mut c = cache(1 << 20, Admission::AdmitAll);
        put(&mut c, 1, 1000);
        put(&mut c, 2, 2000);
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1), "second invalidate is a no-op");
        assert_eq!(c.bytes(), 2000);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.lookup(2), None);
    }

    #[test]
    fn versions_round_trip_and_stale_eviction_counts() {
        let mut c = cache(1 << 20, Admission::AdmitAll);
        c.admit(9, 512, 3, false);
        assert_eq!(c.lookup(9), Some(3));
        assert_eq!(c.peek(9), Some(3));
        c.evict_stale(9);
        assert_eq!(c.stale_evicted, 1);
        assert_eq!(c.lookup(9), None);
    }

    #[test]
    fn warm_set_round_trips_without_probation() {
        let mut donor = cache(1 << 20, Admission::AdmitAll);
        donor.admit(1, 1000, 3, false);
        donor.admit(2, 2000, 5, false);
        let warm = donor.warm_set();
        assert_eq!(warm, vec![(1, 1000, 3), (2, 2000, 5)]);
        // A scan-resistant receiver admits warm entries on first touch.
        let mut joiner = cache(1 << 20, Admission::ScanResistant);
        for (k, len, v) in warm {
            joiner.admit_warm(k, len, v);
        }
        assert_eq!(joiner.lookup(1), Some(3));
        assert_eq!(joiner.lookup(2), Some(5));
        assert_eq!(joiner.bytes(), 3000);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let mut c = cache(0, Admission::AdmitAll);
        put(&mut c, 1, 1);
        assert_eq!(c.lookup(1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn oversized_values_are_refused_not_thrashed() {
        let mut c = cache(4096, Admission::AdmitAll);
        put(&mut c, 1, 4096);
        put(&mut c, 2, 8192); // bigger than the whole cache
        assert_eq!(c.lookup(1), Some(1), "resident set untouched");
        assert_eq!(c.lookup(2), None);
    }

    /// The policy as it was specified: a monotonic stamp per entry and
    /// per ghost key, and a full scan for the minimum stamp whenever a
    /// victim is needed.
    struct MinStampScan {
        capacity: u64,
        admission: Admission,
        ghost_cap: usize,
        clock: u64,
        bytes: u64,
        /// `(key, len, version, stamp)` in insertion order.
        entries: Vec<(u64, u64, u64, u64)>,
        /// `(key, stamp)` in insertion order.
        ghost: Vec<(u64, u64)>,
    }

    impl MinStampScan {
        fn new(c: &ReadCache) -> Self {
            MinStampScan {
                capacity: c.capacity,
                admission: c.admission,
                ghost_cap: c.ghost_cap,
                clock: 0,
                bytes: 0,
                entries: Vec::new(),
                ghost: Vec::new(),
            }
        }

        fn tick(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        fn lookup(&mut self, key: u64) -> Option<u64> {
            let stamp = self.tick();
            let e = self.entries.iter_mut().find(|e| e.0 == key)?;
            e.3 = stamp;
            Some(e.2)
        }

        fn admit(&mut self, key: u64, len: u64, version: u64, from_scan: bool, warm: bool) {
            if self.capacity == 0 || len == 0 || len > self.capacity {
                return;
            }
            let stamp = self.tick();
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
                self.bytes = self.bytes - e.1 + len;
                *e = (key, len, version, stamp);
                self.evict_to_fit(0);
                return;
            }
            if !warm && self.admission == Admission::ScanResistant {
                if from_scan {
                    return;
                }
                match self.ghost.iter().position(|g| g.0 == key) {
                    Some(i) => {
                        self.ghost.remove(i);
                    }
                    None => {
                        let stamp = self.tick();
                        self.ghost.push((key, stamp));
                        while self.ghost.len() > self.ghost_cap {
                            let oldest = (0..self.ghost.len()).min_by_key(|&i| self.ghost[i].1);
                            self.ghost.remove(oldest.unwrap());
                        }
                        return;
                    }
                }
            }
            self.evict_to_fit(len);
            let stamp = if warm { stamp } else { self.tick() };
            self.entries.push((key, len, version, stamp));
            self.bytes += len;
        }

        fn invalidate(&mut self, key: u64) {
            self.ghost.retain(|g| g.0 != key);
            if let Some(i) = self.entries.iter().position(|e| e.0 == key) {
                self.bytes -= self.entries.remove(i).1;
            }
        }

        fn evict_to_fit(&mut self, incoming: u64) {
            while self.bytes + incoming > self.capacity {
                let oldest = (0..self.entries.len()).min_by_key(|&i| self.entries[i].3);
                self.bytes -= self.entries.remove(oldest.unwrap()).1;
            }
        }
    }

    /// Random admit/lookup/invalidate traffic against [`MinStampScan`]:
    /// after every operation the resident set (in insertion order), the
    /// ghost list and the byte count match, so every victim is the one
    /// the minimum-stamp scan picks.
    #[test]
    fn victims_match_a_min_stamp_scan() {
        for seed in 0..8u64 {
            let mut rng = dcs_sim::Rng::new(0xCAC4E + seed);
            let admission = if seed % 2 == 0 {
                Admission::ScanResistant
            } else {
                Admission::AdmitAll
            };
            let mut c = cache(96 * 1024, admission);
            let mut model = MinStampScan::new(&c);
            let mut evictions = 0;
            for step in 0..5_000 {
                let key = rng.gen_range(0..300);
                let before = c.warm_set();
                match rng.gen_range(0..10) {
                    0..=3 => {
                        let (len, from_scan) = (rng.gen_range(512..16_384), rng.gen_bool(0.2));
                        c.admit(key, len, 1, from_scan);
                        model.admit(key, len, 1, from_scan, false);
                    }
                    4 => {
                        let len = rng.gen_range(512..16_384);
                        c.admit_warm(key, len, 2);
                        model.admit(key, len, 2, false, true);
                    }
                    5..=8 => assert_eq!(c.lookup(key), model.lookup(key)),
                    _ => {
                        c.invalidate(key);
                        model.invalidate(key);
                    }
                }
                evictions += before
                    .iter()
                    .filter(|&&(k, _, _)| k != key && c.peek(k).is_none())
                    .count();
                let resident: Vec<(u64, u64, u64)> = model
                    .entries
                    .iter()
                    .map(|&(k, l, v, _)| (k, l, v))
                    .collect();
                assert_eq!(c.warm_set(), resident, "seed {seed} step {step}");
                let ghost: Vec<u64> = model.ghost.iter().map(|&(k, _)| k).collect();
                assert_eq!(c.ghost.iter().copied().collect::<Vec<_>>(), ghost);
                assert_eq!(c.bytes(), model.bytes);
            }
            assert!(evictions > 100, "seed {seed}: only {evictions} evictions");
        }
    }

    #[test]
    fn ghost_list_is_bounded() {
        let mut c = cache(1 << 20, Admission::ScanResistant);
        // Far more one-touch keys than the ghost can hold.
        for k in 0..100_000u64 {
            c.admit(k, 4096, 1, false);
        }
        assert!(c.ghost.len() <= c.ghost_cap);
        assert!(c.is_empty());
    }
}
