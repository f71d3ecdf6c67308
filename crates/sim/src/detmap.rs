//! Insertion-ordered, seed-independent map and set.
//!
//! `std::collections::HashMap` iterates in an order derived from a
//! per-process random hasher seed, so any code that iterates one — or
//! whose behavior depends on which entry a scan visits first — breaks
//! the bit-identical same-seed replay the whole test suite asserts.
//! [`DetMap`] and [`DetSet`] keep the O(1) keyed lookups of a hash map
//! but iterate strictly in **insertion order**, which depends only on
//! the simulation's own event sequence and is therefore reproducible.
//!
//! The API mirrors `HashMap`/`HashSet` closely enough that migrating a
//! field is a type change plus an import. Differences worth knowing:
//!
//! * Entries live in an insertion-ordered slot vector. `remove` and
//!   `pop_first` leave a tombstone in the entry's slot instead of
//!   shifting its successors, so both are amortized O(1) and the
//!   survivors keep their order. Once tombstones outnumber live entries
//!   the vector is compacted in one pass, so it never holds more than
//!   twice the live entries (plus one) and iteration stays O(len).
//! * Re-inserting an existing key replaces the value but keeps the
//!   key's original position, exactly like `HashMap`.
//! * Iteration order is part of the contract and is tested.
//! * The key → slot index is hashed with a small fixed multiply-rotate
//!   hasher, not SipHash: the index is never iterated, so its hash
//!   affects only speed, never behaviour.
//!
//! Clippy's `disallowed_types` (root `clippy.toml`) keeps the std hash
//! containers out of every other module.

#![expect(
    clippy::disallowed_types,
    reason = "this module wraps HashMap; the interior index is lookup-only and every iteration goes through the insertion-ordered slot Vec"
)]

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The index's hasher: one multiply-rotate round per machine word
/// (the FxHash construction), with the final rotate moving the
/// product's well-mixed high bits down to where the table takes its
/// bucket index, so page-aligned addresses do not collide.
#[derive(Clone, Copy, Default)]
struct IndexHasher {
    hash: u64,
}

impl IndexHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IndexHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

type Index<K> = HashMap<K, usize, BuildHasherDefault<IndexHasher>>;

/// A hash map that iterates in insertion order.
///
/// Drop-in replacement for the `std::collections::HashMap` patterns
/// used in this workspace; see the module docs for the differences.
#[derive(Clone)]
pub struct DetMap<K, V> {
    /// key -> slot in `slots`. Never iterated.
    index: Index<K>,
    /// Entries in insertion order; `None` is a removed entry's tombstone.
    slots: Vec<Option<(K, V)>>,
    /// Live (`Some`) slots.
    live: usize,
    /// Every slot before `head` is a tombstone.
    head: usize,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap {
            index: Index::default(),
            slots: Vec::new(),
            live: 0,
            head: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V> DetMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        DetMap {
            index: Index::with_capacity_and_hasher(cap, Default::default()),
            slots: Vec::with_capacity(cap),
            live: 0,
            head: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.live = 0;
        self.head = 0;
    }

    /// The live entry in slot `i` (the index only points at live slots).
    fn slot(&self, i: usize) -> &(K, V) {
        self.slots[i].as_ref().expect("index points at a live slot")
    }

    fn slot_mut(&mut self, i: usize) -> &mut (K, V) {
        self.slots[i].as_mut().expect("index points at a live slot")
    }

    /// Appends a new key (the caller checked it is absent); returns its
    /// slot.
    fn push(&mut self, key: K, value: V) -> usize {
        let i = self.slots.len();
        self.index.insert(key.clone(), i);
        self.slots.push(Some((key, value)));
        self.live += 1;
        i
    }

    /// Tombstones slot `i` (already dropped from the index) and returns
    /// its entry, compacting once tombstones outnumber live entries.
    fn take(&mut self, i: usize) -> (K, V) {
        let entry = self.slots[i].take().expect("index points at a live slot");
        self.live -= 1;
        if self.slots.len() - self.live > self.live {
            self.compact();
        }
        entry
    }

    /// Drops every tombstone, keeping the survivors' order, and points
    /// the index at their new slots.
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        self.head = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            let (key, _) = slot.as_ref().expect("tombstones retained away");
            *self.index.get_mut(key).expect("live key is indexed") = i;
        }
    }

    /// The live slots, in insertion order.
    fn entries(&self) -> impl Iterator<Item = &(K, V)> + '_ {
        self.slots[self.head..].iter().flatten()
    }

    fn entries_mut(&mut self) -> impl Iterator<Item = &mut (K, V)> + '_ {
        self.slots[self.head..].iter_mut().flatten()
    }

    /// Inserts `value` under `key`, returning the previous value if the
    /// key was present. An existing key keeps its insertion position.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.index.get(&key) {
            Some(&i) => Some(std::mem::replace(&mut self.slot_mut(i).1, value)),
            None => {
                self.push(key, value);
                None
            }
        }
    }

    /// Borrows the value for `key`, if present.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.index.get(key).map(|&i| &self.slot(i).1)
    }

    /// Mutably borrows the value for `key`, if present.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        match self.index.get(key) {
            Some(&i) => Some(&mut self.slot_mut(i).1),
            None => None,
        }
    }

    /// True when `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.index.contains_key(key)
    }

    /// Removes `key`, returning its value if it was present. The
    /// relative order of the surviving entries is preserved (amortized
    /// O(1)).
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let i = self.index.remove(key)?;
        Some(self.take(i).1)
    }

    /// Removes and returns the oldest (first-inserted) entry (amortized
    /// O(1)).
    pub fn pop_first(&mut self) -> Option<(K, V)> {
        if self.live == 0 {
            return None;
        }
        while self.slots[self.head].is_none() {
            self.head += 1;
        }
        let i = self.head;
        let (key, _) = self.slots[i].as_ref().expect("head is live");
        self.index.remove(key);
        Some(self.take(i))
    }

    /// The in-place entry API: `map.entry(k).or_insert(v)` etc.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        Entry { map: self, key }
    }

    /// Iterates `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.entries().map(|(k, v)| (k, v))
    }

    /// Iterates `(key, mut value)` pairs in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> + '_ {
        self.entries_mut().map(|(k, v)| (&*k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.entries().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries().map(|(_, v)| v)
    }

    /// Iterates mutable values in insertion order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.entries_mut().map(|(_, v)| v)
    }

    /// Keeps only the entries for which `keep` returns true, preserving
    /// the order of the survivors.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        for slot in &mut self.slots[self.head..] {
            if let Some((k, v)) = slot {
                if !keep(k, v) {
                    self.index.remove(k);
                    *slot = None;
                    self.live -= 1;
                }
            }
        }
        self.compact();
    }

    /// Empties the map, yielding the entries in insertion order.
    pub fn drain(&mut self) -> impl Iterator<Item = (K, V)> {
        let slots = std::mem::take(&mut self.slots);
        self.clear();
        slots.into_iter().flatten()
    }
}

impl<K: Eq + Hash + Clone, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: Eq + Hash + Clone, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = DetMap::new();
        map.extend(iter);
        map
    }
}

impl<K: Eq + Hash + Clone, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Option<(K, V)>>>;
    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().flatten()
    }
}

impl<'a, K: Eq + Hash + Clone, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<
        std::iter::Flatten<std::slice::Iter<'a, Option<(K, V)>>>,
        fn(&'a (K, V)) -> (&'a K, &'a V),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.slots[self.head..]
            .iter()
            .flatten()
            .map(|(k, v)| (k, v))
    }
}

impl<K, Q, V> std::ops::Index<&Q> for DetMap<K, V>
where
    K: Eq + Hash + Clone + Borrow<Q>,
    Q: Eq + Hash + ?Sized,
{
    type Output = V;
    fn index(&self, key: &Q) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: Eq + Hash + Clone, V: PartialEq> PartialEq for DetMap<K, V> {
    /// Content equality, like `HashMap`: insertion order does not
    /// participate.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .all(|(k, v)| other.get(k).is_some_and(|ov| ov == v))
    }
}

impl<K: Eq + Hash + Clone, V: Eq> Eq for DetMap<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.slots.iter().flatten().map(|(k, v)| (k, v)))
            .finish()
    }
}

/// View into a single key of a [`DetMap`], occupied or vacant.
pub struct Entry<'a, K, V> {
    map: &'a mut DetMap<K, V>,
    key: K,
}

impl<'a, K: Eq + Hash + Clone, V> Entry<'a, K, V> {
    /// Inserts `default` if the key is vacant; returns the value.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// Inserts `make()` if the key is vacant; returns the value.
    pub fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        let i = match self.map.index.get(&self.key) {
            Some(&i) => i,
            None => self.map.push(self.key, make()),
        };
        &mut self.map.slot_mut(i).1
    }

    /// Mutates the value in place if the key is occupied.
    pub fn and_modify(self, f: impl FnOnce(&mut V)) -> Self {
        if let Some(&i) = self.map.index.get(&self.key) {
            f(&mut self.map.slot_mut(i).1);
        }
        self
    }
}

impl<'a, K: Eq + Hash + Clone, V: Default> Entry<'a, K, V> {
    /// Inserts `V::default()` if the key is vacant; returns the value.
    pub fn or_default(self) -> &'a mut V {
        self.or_insert_with(V::default)
    }
}

/// A hash set that iterates in insertion order. See [`DetMap`].
#[derive(Clone, Default)]
pub struct DetSet<T> {
    map: DetMap<T, ()>,
}

impl<T: Eq + Hash + Clone> DetSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        DetSet { map: DetMap::new() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Adds `value`; returns true if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// True when `value` is present.
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.contains_key(value)
    }

    /// Removes `value`; returns true if it was present.
    pub fn remove<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.remove(value).is_some()
    }

    /// Removes and returns the oldest (first-inserted) element.
    pub fn pop_first(&mut self) -> Option<T> {
        self.map.pop_first().map(|(value, ())| value)
    }

    /// Iterates elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.map.keys()
    }

    /// Keeps only the elements for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.map.retain(|k, _| keep(k));
    }
}

impl<T: Eq + Hash + Clone> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<T: Eq + Hash + Clone> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = DetSet::new();
        set.extend(iter);
        set
    }
}

impl<T: Eq + Hash + Clone> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter =
        std::iter::Map<std::iter::Flatten<std::vec::IntoIter<Option<(T, ())>>>, fn((T, ())) -> T>;
    fn into_iter(self) -> Self::IntoIter {
        self.map.into_iter().map(|(k, ())| k)
    }
}

impl<T: Eq + Hash + Clone + PartialEq> PartialEq for DetSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<T: fmt::Debug> fmt::Debug for DetSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.map.slots.iter().flatten().map(|(k, _)| k))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut m = DetMap::new();
        for k in [30u32, 10, 20, 5] {
            m.insert(k, k * 2);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![30, 10, 20, 5]);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, vec![60, 20, 40, 10]);
        let pairs: Vec<(u32, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, vec![(30, 60), (10, 20), (20, 40), (5, 10)]);
    }

    #[test]
    fn reinsert_keeps_position_and_returns_old() {
        let mut m = DetMap::new();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.insert("a", 9), Some(1));
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(m["a"], 9);
    }

    #[test]
    fn remove_preserves_survivor_order() {
        let mut m: DetMap<u8, u8> = (0..6).map(|i| (i, i)).collect();
        assert_eq!(m.remove(&2), Some(2));
        assert_eq!(m.remove(&2), None);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![0, 1, 3, 4, 5]);
        // Lookups survive the index fix-up.
        for k in [0u8, 1, 3, 4, 5] {
            assert_eq!(m.get(&k), Some(&k));
        }
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn pop_first_is_fifo() {
        let mut m: DetMap<u8, &str> = DetMap::new();
        m.insert(7, "x");
        m.insert(3, "y");
        assert_eq!(m.pop_first(), Some((7, "x")));
        assert_eq!(m.get(&3), Some(&"y"));
        assert_eq!(m.pop_first(), Some((3, "y")));
        assert_eq!(m.pop_first(), None);
    }

    #[test]
    fn entry_api_matches_hashmap_semantics() {
        let mut m: DetMap<&str, u32> = DetMap::new();
        *m.entry("hits").or_insert(0) += 1;
        *m.entry("hits").or_insert(0) += 1;
        assert_eq!(m["hits"], 2);
        m.entry("tags").or_default();
        assert_eq!(m["tags"], 0);
        m.entry("hits").and_modify(|v| *v *= 10).or_insert(99);
        assert_eq!(m["hits"], 20);
        m.entry("fresh").and_modify(|v| *v *= 10).or_insert(99);
        assert_eq!(m["fresh"], 99);
        let called = m.entry("lazy").or_insert_with(|| 42);
        assert_eq!(*called, 42);
    }

    #[test]
    fn borrowed_key_lookup() {
        let mut m: DetMap<String, u32> = DetMap::new();
        m.insert("pool-a".to_string(), 1);
        assert_eq!(m.get("pool-a"), Some(&1));
        assert!(m.contains_key("pool-a"));
        assert_eq!(m.remove("pool-a"), Some(1));
        assert!(m.is_empty());
    }

    #[test]
    fn retain_and_drain() {
        let mut m: DetMap<u8, u8> = (0..8).map(|i| (i, i)).collect();
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![0, 2, 4, 6]);
        assert_eq!(m.get(&4), Some(&4));
        let drained: Vec<(u8, u8)> = m.drain().collect();
        assert_eq!(drained, vec![(0, 0), (2, 2), (4, 4), (6, 6)]);
        assert!(m.is_empty());
        assert_eq!(m.get(&0), None);
    }

    #[test]
    fn equality_ignores_order() {
        let a: DetMap<u8, u8> = [(1, 10), (2, 20)].into_iter().collect();
        let b: DetMap<u8, u8> = [(2, 20), (1, 10)].into_iter().collect();
        assert_eq!(a, b);
        let c: DetMap<u8, u8> = [(1, 10), (2, 21)].into_iter().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn set_basics_and_order() {
        let mut s = DetSet::new();
        assert!(s.insert(9u16));
        assert!(s.insert(4));
        assert!(!s.insert(9));
        assert!(s.contains(&4));
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![9, 4]);
        assert!(s.remove(&9));
        assert!(!s.remove(&9));
        assert_eq!(s.len(), 1);
        s.insert(6);
        assert_eq!(s.pop_first(), Some(4));
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![6]);
        s.retain(|_| false);
        assert!(s.is_empty());
    }

    /// Random operation sequences against a `Vec<(K, V)>` model: after
    /// every operation the map iterates the model's entries in order,
    /// agrees on `len` and on every lookup, and holds at most
    /// `2·len + 1` slots.
    #[test]
    fn matches_a_vec_model_under_random_operations() {
        for seed in 0..8u64 {
            let mut rng = crate::Rng::new(0xD37 + seed);
            let mut map: DetMap<u32, u64> = DetMap::new();
            let mut model: Vec<(u32, u64)> = Vec::new();
            let pos = |model: &[(u32, u64)], k: u32| model.iter().position(|&(mk, _)| mk == k);
            for step in 0..4_000u64 {
                // Keys from a small universe, so re-inserts and hits on
                // remove are common.
                let k = rng.gen_range(0..96) as u32;
                match rng.gen_range(0..100) {
                    0..=34 => {
                        let old = pos(&model, k).map(|i| std::mem::replace(&mut model[i].1, step));
                        if old.is_none() {
                            model.push((k, step));
                        }
                        assert_eq!(map.insert(k, step), old);
                    }
                    35..=59 => {
                        let old = pos(&model, k).map(|i| model.remove(i).1);
                        assert_eq!(map.remove(&k), old);
                    }
                    60..=74 => {
                        let first = (!model.is_empty()).then(|| model.remove(0));
                        assert_eq!(map.pop_first(), first);
                    }
                    75..=89 => {
                        match pos(&model, k) {
                            Some(i) => model[i].1 += 1,
                            None => model.push((k, step)),
                        }
                        map.entry(k).and_modify(|v| *v += 1).or_insert(step);
                    }
                    90..=97 => {
                        let modulus = rng.gen_range(2..5);
                        model.retain(|&(mk, _)| u64::from(mk) % modulus != 0);
                        map.retain(|&mk, _| u64::from(mk) % modulus != 0);
                    }
                    98 => {
                        let drained: Vec<(u32, u64)> = map.drain().collect();
                        assert_eq!(drained, std::mem::take(&mut model));
                    }
                    _ => {
                        map.clear();
                        model.clear();
                    }
                }
                let pairs: Vec<(u32, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(pairs, model, "seed {seed} step {step}");
                assert_eq!(map.len(), model.len());
                assert_eq!(map.is_empty(), model.is_empty());
                for probe in 0..96u32 {
                    let want = pos(&model, probe).map(|i| &model[i].1);
                    assert_eq!(map.get(&probe), want, "seed {seed} step {step} key {probe}");
                }
                assert!(
                    map.slots.len() <= 2 * map.len() + 1,
                    "{} slots for {} entries",
                    map.slots.len(),
                    map.len()
                );
            }
            let owned: Vec<(u32, u64)> = map.into_iter().collect();
            assert_eq!(owned, model);
        }
    }

    #[test]
    fn debug_formats_like_std() {
        let m: DetMap<u8, u8> = [(1, 2)].into_iter().collect();
        assert_eq!(format!("{m:?}"), "{1: 2}");
        let s: DetSet<u8> = [3].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{3}");
    }
}
