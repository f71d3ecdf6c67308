//! Property-style parity: [`DetMap`]/[`DetSet`] must behave exactly
//! like `std::collections::HashMap`/`HashSet` under the same randomized
//! operation sequence — same return values, same final contents — while
//! additionally iterating in a deterministic (insertion) order.
//!
//! The std collections appear here *only* as the behavioral oracle;
//! nothing in simulation code may use them (DESIGN.md §10).

#![expect(
    clippy::disallowed_types,
    reason = "std HashMap/HashSet are the parity oracle this test exists to compare against; no simulation state lives here"
)]

use std::collections::{HashMap, HashSet};

use dcs_ctrl::sim::{DetMap, DetSet, Rng};

const OPS: usize = 2_000;
const SEEDS: [u64; 5] = [1, 42, 0xDEAD, 0xC0FFEE, 9_999_999];

/// Keys drawn from a small space so inserts, hits, and removes all occur
/// frequently.
fn key(rng: &mut Rng) -> u64 {
    rng.gen_range(0..256)
}

#[test]
fn detmap_matches_hashmap_under_randomized_ops() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut det: DetMap<u64, u64> = DetMap::new();
        let mut std_map: HashMap<u64, u64> = HashMap::new();
        for i in 0..OPS {
            let k = key(&mut rng);
            match rng.gen_range(0..6) {
                0 | 1 => {
                    // Plain insert: identical displaced values.
                    assert_eq!(det.insert(k, i as u64), std_map.insert(k, i as u64));
                }
                2 => {
                    assert_eq!(det.remove(&k), std_map.remove(&k));
                }
                3 => {
                    // Entry API: or_insert then in-place mutation.
                    let dv = det.entry(k).and_modify(|v| *v += 1).or_insert(7);
                    let sv = std_map.entry(k).and_modify(|v| *v += 1).or_insert(7);
                    assert_eq!(dv, sv);
                }
                4 => {
                    assert_eq!(det.get(&k), std_map.get(&k));
                    assert_eq!(det.contains_key(&k), std_map.contains_key(&k));
                }
                _ => {
                    assert_eq!(det.len(), std_map.len());
                    assert_eq!(det.is_empty(), std_map.is_empty());
                }
            }
        }
        // Identical final contents (checked key-by-key, never by the
        // oracle's iteration order).
        assert_eq!(det.len(), std_map.len(), "seed {seed}: lengths diverged");
        #[expect(
            clippy::iter_over_hash_type,
            reason = "membership check per key; the assertion is order-independent"
        )]
        for (k, v) in std_map.iter() {
            assert_eq!(det.get(k), Some(v), "seed {seed}: key {k} diverged");
        }
        // Deterministic iteration order: replaying the same seeded op
        // sequence on a fresh map yields the same order; the std oracle
        // makes no such promise.
        let replay = |seed: u64| -> Vec<(u64, u64)> {
            let mut rng = Rng::new(seed);
            let mut m: DetMap<u64, u64> = DetMap::new();
            for i in 0..OPS {
                let k = key(&mut rng);
                match rng.gen_range(0..6) {
                    0 | 1 => {
                        m.insert(k, i as u64);
                    }
                    2 => {
                        m.remove(&k);
                    }
                    3 => {
                        m.entry(k).and_modify(|v| *v += 1).or_insert(7);
                    }
                    _ => {}
                }
            }
            m.iter().map(|(k, v)| (*k, *v)).collect()
        };
        assert_eq!(
            replay(seed),
            replay(seed),
            "seed {seed}: iteration order unstable"
        );
        assert_eq!(
            replay(seed),
            det.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            "seed {seed}: replay disagrees with the checked map"
        );
    }
}

#[test]
fn detset_matches_hashset_under_randomized_ops() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut det: DetSet<u64> = DetSet::new();
        let mut std_set: HashSet<u64> = HashSet::new();
        for _ in 0..OPS {
            let k = key(&mut rng);
            match rng.gen_range(0..4) {
                0 | 1 => assert_eq!(det.insert(k), std_set.insert(k)),
                2 => assert_eq!(det.remove(&k), std_set.remove(&k)),
                _ => {
                    assert_eq!(det.contains(&k), std_set.contains(&k));
                    assert_eq!(det.len(), std_set.len());
                }
            }
        }
        assert_eq!(det.len(), std_set.len(), "seed {seed}: lengths diverged");
        #[expect(
            clippy::iter_over_hash_type,
            reason = "membership check per value; the assertion is order-independent"
        )]
        for k in std_set.iter() {
            assert!(det.contains(k), "seed {seed}: value {k} missing");
        }
        // Insertion-order iteration is reproducible across runs.
        let order: Vec<u64> = det.iter().copied().collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            order.len(),
            "seed {seed}: duplicate in set iteration"
        );
    }
}
