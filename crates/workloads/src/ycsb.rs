//! The YCSB-style core workload suite (A–F) for the object-store layer.
//!
//! Each workload is an operation mix over a keyspace whose popularity is
//! drawn from the [`Zipfian`] generator, matching the shapes of the Yahoo!
//! Cloud Serving Benchmark's core suite:
//!
//! | Workload | Mix | Popularity |
//! |---|---|---|
//! | A | 50% read / 50% update | zipfian |
//! | B | 95% read / 5% update | zipfian |
//! | C | 100% read | zipfian |
//! | D | 95% read / 5% insert | latest (newest keys hottest) |
//! | E | 95% scan / 5% insert | zipfian start, short uniform range |
//! | F | 50% read / 50% read-modify-write | zipfian |
//!
//! The generator emits abstract [`StoreOp`]s — kind + key (+ scan length)
//! — which the store layer maps onto tenant keyspaces and real device
//! jobs. Keys here are *ranks into the live keyspace*; the store layer
//! scatters them with a hash so neighboring ranks do not shard together.
//! Everything is driven by the deterministic [`Rng`], so a seed fixes the
//! whole operation stream.

use dcs_sim::Rng;

use crate::gen::Zipfian;

/// The six core workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum YcsbWorkload {
    /// Update heavy: 50/50 read/update, zipfian.
    A,
    /// Read mostly: 95/5 read/update, zipfian.
    B,
    /// Read only, zipfian.
    C,
    /// Read latest: 95/5 read/insert, newest keys hottest.
    D,
    /// Short ranges: 95/5 scan/insert.
    E,
    /// Read-modify-write: 50/50 read/RMW, zipfian.
    F,
}

impl YcsbWorkload {
    /// All workloads in suite order.
    pub const ALL: [YcsbWorkload; 6] = [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
        YcsbWorkload::E,
        YcsbWorkload::F,
    ];

    /// One-letter name.
    pub fn letter(self) -> &'static str {
        match self {
            YcsbWorkload::A => "A",
            YcsbWorkload::B => "B",
            YcsbWorkload::C => "C",
            YcsbWorkload::D => "D",
            YcsbWorkload::E => "E",
            YcsbWorkload::F => "F",
        }
    }

    /// Descriptive label matching the YCSB paper.
    pub fn label(self) -> &'static str {
        match self {
            YcsbWorkload::A => "A (update heavy)",
            YcsbWorkload::B => "B (read mostly)",
            YcsbWorkload::C => "C (read only)",
            YcsbWorkload::D => "D (read latest)",
            YcsbWorkload::E => "E (short ranges)",
            YcsbWorkload::F => "F (read-modify-write)",
        }
    }

    /// The operation mix (fractions sum to 1).
    pub fn mix(self) -> OpMix {
        match self {
            YcsbWorkload::A => OpMix {
                read: 0.5,
                update: 0.5,
                ..OpMix::ZERO
            },
            YcsbWorkload::B => OpMix {
                read: 0.95,
                update: 0.05,
                ..OpMix::ZERO
            },
            YcsbWorkload::C => OpMix {
                read: 1.0,
                ..OpMix::ZERO
            },
            YcsbWorkload::D => OpMix {
                read: 0.95,
                insert: 0.05,
                ..OpMix::ZERO
            },
            YcsbWorkload::E => OpMix {
                scan: 0.95,
                insert: 0.05,
                ..OpMix::ZERO
            },
            YcsbWorkload::F => OpMix {
                read: 0.5,
                rmw: 0.5,
                ..OpMix::ZERO
            },
        }
    }

    /// Whether reads favor the most recently inserted keys (workload D).
    pub(crate) fn read_latest(self) -> bool {
        matches!(self, YcsbWorkload::D)
    }
}

impl std::fmt::Display for YcsbWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.letter())
    }
}

/// Fractions of each operation kind; whatever the named fields leave
/// uncovered falls through to `read`.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// Point GETs.
    pub read: f64,
    /// Overwrites of existing keys.
    pub update: f64,
    /// Appends of new keys (grow the keyspace).
    pub insert: f64,
    /// Range scans.
    pub scan: f64,
    /// Read-modify-write cycles.
    pub rmw: f64,
    /// Deletes (not part of core YCSB; tenant specs use it to exercise
    /// the DELETE verb).
    pub delete: f64,
}

impl OpMix {
    /// The all-zero mix, for struct-update construction.
    pub const ZERO: OpMix = OpMix {
        read: 0.0,
        update: 0.0,
        insert: 0.0,
        scan: 0.0,
        rmw: 0.0,
        delete: 0.0,
    };

    /// Sum of all fractions.
    pub fn total(&self) -> f64 {
        self.read + self.update + self.insert + self.scan + self.rmw + self.delete
    }
}

/// One abstract store operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreOp {
    /// What to do.
    pub kind: StoreOpKind,
    /// Target key (rank into the live keyspace; scan start for scans).
    pub key: u64,
}

/// The operation kinds the store API serves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreOpKind {
    /// Point read.
    Get,
    /// Overwrite an existing key.
    Put,
    /// Write a new key (the generator grew the keyspace for it).
    Insert,
    /// Range scan over `keys` consecutive keys starting at `key`.
    Scan {
        /// Number of keys covered.
        keys: u64,
    },
    /// Read the key, then write it back.
    ReadModifyWrite,
    /// Remove the key (tombstone write).
    Delete,
}

impl StoreOpKind {
    /// Whether the op writes (bumps the key's version and invalidates
    /// caches).
    pub fn is_write(self) -> bool {
        matches!(
            self,
            StoreOpKind::Put
                | StoreOpKind::Insert
                | StoreOpKind::ReadModifyWrite
                | StoreOpKind::Delete
        )
    }

    /// Short label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            StoreOpKind::Get => "get",
            StoreOpKind::Put => "put",
            StoreOpKind::Insert => "insert",
            StoreOpKind::Scan { .. } => "scan",
            StoreOpKind::ReadModifyWrite => "rmw",
            StoreOpKind::Delete => "delete",
        }
    }
}

/// Draws a workload's operation stream over a growing keyspace.
#[derive(Clone, Debug)]
pub struct YcsbGenerator {
    mix: OpMix,
    read_latest: bool,
    zipf: Zipfian,
    keys: u64,
    max_scan: u64,
}

impl YcsbGenerator {
    /// Default longest scan, in keys (YCSB E uses short ranges).
    pub const DEFAULT_MAX_SCAN: u64 = 16;

    /// A generator for `workload` over `initial_keys` keys at skew
    /// `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_keys` is zero (via [`Zipfian::new`]).
    pub fn new(workload: YcsbWorkload, initial_keys: u64, theta: f64) -> YcsbGenerator {
        YcsbGenerator::with_mix(workload.mix(), workload.read_latest(), initial_keys, theta)
    }

    /// A generator with an explicit mix (tenant specs compose their own).
    pub(crate) fn with_mix(
        mix: OpMix,
        read_latest: bool,
        initial_keys: u64,
        theta: f64,
    ) -> YcsbGenerator {
        assert!(mix.total() <= 1.0 + 1e-9, "op mix exceeds 1");
        YcsbGenerator {
            mix,
            read_latest,
            zipf: Zipfian::new(initial_keys, theta),
            keys: initial_keys,
            max_scan: Self::DEFAULT_MAX_SCAN,
        }
    }

    /// Current keyspace size (grows on inserts).
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Draws a popular key. Under read-latest the hottest rank is the
    /// newest key; otherwise rank order is popularity order directly.
    fn popular_key(&self, rng: &mut Rng) -> u64 {
        let rank = self.zipf.sample(rng).min(self.keys - 1);
        if self.read_latest {
            self.keys - 1 - rank
        } else {
            rank
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self, rng: &mut Rng) -> StoreOp {
        let draw = rng.gen_f64();
        let m = self.mix;
        let mut edge = m.update;
        if draw < edge {
            return StoreOp {
                kind: StoreOpKind::Put,
                key: self.popular_key(rng),
            };
        }
        edge += m.insert;
        if draw < edge {
            let key = self.keys;
            self.keys += 1;
            return StoreOp {
                kind: StoreOpKind::Insert,
                key,
            };
        }
        edge += m.scan;
        if draw < edge {
            let start = self.popular_key(rng);
            let keys = 1 + rng.gen_range(0..self.max_scan);
            return StoreOp {
                kind: StoreOpKind::Scan { keys },
                key: start,
            };
        }
        edge += m.rmw;
        if draw < edge {
            return StoreOp {
                kind: StoreOpKind::ReadModifyWrite,
                key: self.popular_key(rng),
            };
        }
        edge += m.delete;
        if draw < edge {
            return StoreOp {
                kind: StoreOpKind::Delete,
                key: self.popular_key(rng),
            };
        }
        StoreOp {
            kind: StoreOpKind::Get,
            key: self.popular_key(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one() {
        for w in YcsbWorkload::ALL {
            assert!((w.mix().total() - 1.0).abs() < 1e-9, "workload {w}");
        }
    }

    #[test]
    fn labels_cover_all_workloads() {
        let letters: Vec<_> = YcsbWorkload::ALL.iter().map(|w| w.letter()).collect();
        assert_eq!(letters, ["A", "B", "C", "D", "E", "F"]);
        assert!(YcsbWorkload::D.read_latest());
        assert!(!YcsbWorkload::A.read_latest());
    }

    #[test]
    fn op_stream_is_deterministic() {
        let draw = |seed| {
            let mut g = YcsbGenerator::new(YcsbWorkload::A, 1000, 0.99);
            let mut rng = Rng::new(seed);
            (0..2_000)
                .map(|_| g.next_op(&mut rng))
                .collect::<Vec<StoreOp>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn workload_a_mixes_reads_and_updates_evenly() {
        let mut g = YcsbGenerator::new(YcsbWorkload::A, 1000, 0.99);
        let mut rng = Rng::new(1);
        let n = 20_000;
        let writes = (0..n)
            .filter(|_| matches!(g.next_op(&mut rng).kind, StoreOpKind::Put))
            .count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "update fraction {frac}");
    }

    #[test]
    fn workload_d_inserts_grow_keyspace_and_reads_favor_latest() {
        let mut g = YcsbGenerator::new(YcsbWorkload::D, 1000, 0.99);
        let mut rng = Rng::new(2);
        let mut latest_reads = 0u64;
        let mut reads = 0u64;
        for _ in 0..20_000 {
            let op = g.next_op(&mut rng);
            if op.kind == StoreOpKind::Get {
                reads += 1;
                // "Latest" = within the newest 5% of the live keyspace.
                if op.key >= g.keys() - g.keys() / 20 {
                    latest_reads += 1;
                }
            }
        }
        assert!(
            g.keys() > 1000,
            "inserts must grow the keyspace: {}",
            g.keys()
        );
        let share = latest_reads as f64 / reads as f64;
        assert!(share > 0.5, "read-latest share {share}");
    }

    #[test]
    fn workload_e_scans_are_short_and_bounded() {
        let mut g = YcsbGenerator::new(YcsbWorkload::E, 1000, 0.99);
        let mut rng = Rng::new(3);
        let mut scans = 0u64;
        for _ in 0..5_000 {
            let op = g.next_op(&mut rng);
            if let StoreOpKind::Scan { keys } = op.kind {
                scans += 1;
                assert!(
                    (1..=YcsbGenerator::DEFAULT_MAX_SCAN).contains(&keys),
                    "scan length {keys}"
                );
            }
        }
        assert!(scans > 4_000, "E is scan-heavy: {scans}");
    }

    #[test]
    fn custom_mix_exercises_delete() {
        let mix = OpMix {
            read: 0.8,
            delete: 0.2,
            ..OpMix::ZERO
        };
        let mut g = YcsbGenerator::with_mix(mix, false, 500, 0.9);
        let mut rng = Rng::new(4);
        let deletes = (0..10_000)
            .filter(|_| matches!(g.next_op(&mut rng).kind, StoreOpKind::Delete))
            .count();
        let frac = deletes as f64 / 10_000.0;
        assert!((frac - 0.2).abs() < 0.02, "delete fraction {frac}");
        assert!(StoreOpKind::Delete.is_write());
        assert!(!StoreOpKind::Get.is_write());
        assert_eq!(StoreOpKind::Scan { keys: 3 }.label(), "scan");
    }
}
