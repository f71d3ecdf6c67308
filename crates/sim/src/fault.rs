//! Deterministic, seed-reproducible fault injection.
//!
//! A [`FaultPlan`] lives in the [`World`] and is consulted by injection
//! sites spread across the device models (wire frame drop/corruption,
//! flash media errors, PCIe link replays, MSI loss, DMA payload / TLP
//! header / completion-entry corruption). Each site draws from its own
//! RNG stream derived from the plan's stream base and the site *name*,
//! so the fault sequence a seed produces at one site is independent both
//! of event interleaving at other sites and of the order in which sites
//! were enabled: the same seed replays the same faults, run after run,
//! design after design.
//!
//! Sites are identified by name. A site not enabled in the plan never
//! fires; a world without a plan is entirely fault-free and costs one
//! resource lookup per eligible event.
//!
//! Recovery machinery (driver/engine timeouts, retries, watchdogs, poll
//! fallbacks) keys off the plan's [`RecoveryConfig`] budgets and this
//! module's timeout constants, and is armed only while a plan is
//! installed, so fault-free simulations schedule no extra events and
//! reproduce the exact event streams they did before this module
//! existed.

use std::collections::BTreeMap;

use crate::rng::Rng;
use crate::world::World;

/// How an enabled site misbehaves.
#[derive(Clone, Debug)]
pub enum FaultSpec {
    /// Fire independently with this probability at each eligible event.
    Probability(f64),
    /// Fire exactly at these 0-based eligible-event indices at the site
    /// (scheduled one-shot faults; indices need not be sorted).
    Nth(Vec<u64>),
}

/// Per-site fault/recovery tallies (deterministic for a given seed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Faults injected at the site.
    pub injected: u64,
    /// Recovery actions that cured a fault observed at/attributed to the
    /// site.
    pub recovered: u64,
    /// Faults whose retry budget ran out (surfaced as error completions).
    pub exhausted: u64,
    /// Retries attempted at the site.
    pub retried: u64,
}

struct Site {
    spec: FaultSpec,
    rng: Rng,
    /// Key for per-event fault-shaping entropy. Entropy is derived from
    /// `(entropy_key, event index)` alone — independent of the decision
    /// stream — so an `Nth` schedule pinned from a `Probability` run's
    /// fired indices replays byte-identical faults (same corrupted bit,
    /// same position), which is what makes fuzzer shrinking faithful.
    entropy_key: u64,
    /// Eligible events seen so far.
    seen: u64,
    /// 0-based eligible-event indices at which the site actually fired
    /// (the raw material the chaos fuzzer shrinks into `Nth` schedules).
    fired: Vec<u64>,
}

/// Period of the host NVMe driver's per-request check, which polls the
/// completion queue (MSI-loss fallback) and climbs the recovery ladder.
pub const NVME_TIMEOUT_NS: u64 = 5_000_000;
/// Initial NIC retransmission timeout; doubles per attempt (exponential
/// backoff).
pub const NIC_RTO_NS: u64 = 1_000_000;
/// Engine scoreboard watchdog sweep period.
pub const WATCHDOG_PERIOD_NS: u64 = 1_000_000;
/// Age at which a silent NVMe request takes the recovery ladder's next
/// rung (`dcs_nvme::rung`). Whoever waits on such a request waits out
/// the whole ladder (`dcs_nvme::ladder_bound_ns`).
pub const OP_TIMEOUT_NS: u64 = 20_000_000;
/// Completion-ring / receive-ring poll fallback period (recovers lost
/// MSIs on paths without their own timers).
pub const POLL_PERIOD_NS: u64 = 500_000;

/// Retry budgets the recovery machinery obeys while a plan is
/// installed. Its timeouts are the constants above.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Bounded NVMe retry budget (0 disables retries: a retryable status
    /// or timeout immediately surfaces as an error completion).
    pub nvme_retries: u32,
    /// Bounded NIC retransmission budget (0 disables retransmission).
    pub nic_retries: u32,
    /// Bounded PCIe link-replay budget per TLP: how many times the fabric
    /// re-transmits a TLP whose ECRC check failed before giving up (0
    /// disables replay: corruption immediately poisons or times out).
    pub pcie_retries: u32,
    /// Bounded NVMe controller-reset budget per queue pair: once a
    /// request has been silent for `OP_TIMEOUT_NS`, its initiator (the
    /// host driver or the HDC Engine) may reset the controller and
    /// resubmit this many times before failing requests (0 disables the
    /// reset rung).
    pub nvme_resets: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            nvme_retries: 4,
            nic_retries: 8,
            pcie_retries: 2,
            nvme_resets: 1,
        }
    }
}

impl RecoveryConfig {
    /// A configuration with every retry budget at zero: faults surface as
    /// error completions on first detection, and nothing is retransmitted
    /// or resubmitted.
    pub fn no_retries() -> RecoveryConfig {
        RecoveryConfig {
            nvme_retries: 0,
            nic_retries: 0,
            pcie_retries: 0,
            nvme_resets: 0,
        }
    }
}

/// The deterministic fault plan (a [`World`] resource).
pub struct FaultPlan {
    /// One value drawn from the plan's seed RNG at construction; each
    /// site's stream is `Rng::new(stream_base ^ fnv1a64(site_name))`, so
    /// a site's fault sequence depends only on the plan seed and its own
    /// name — never on how many sites were enabled before it.
    stream_base: u64,
    sites: BTreeMap<&'static str, Site>,
    tallies: BTreeMap<&'static str, SiteStats>,
    /// Recovery knobs honored while this plan is installed.
    pub recovery: RecoveryConfig,
}

/// Frames silently dropped on the wire (delivery leg only; the sender's
/// serialization still completes).
pub const WIRE_DROP: &str = "wire.drop";
/// Single-bit frame corruption on the wire, caught by the receiver's
/// IP/TCP checksum validation.
pub const WIRE_CORRUPT: &str = "wire.corrupt";
/// Flash read media error: the SSD completes the command with a
/// retryable media-error status instead of data.
pub const NVME_MEDIA: &str = "nvme.media";
/// PCIe link-level transfer error: the TLP is replayed transparently at
/// added latency (data is never lost).
pub const PCIE_REPLAY: &str = "pcie.replay";
/// A message-signaled interrupt that never arrives.
pub const MSI_LOSS: &str = "pcie.msi_loss";
/// Single-bit corruption of a Data-class DMA payload in flight; the
/// fabric's per-TLP ECRC detects it and either replays the TLP or
/// delivers a poisoned completion (never silent bad data while ECRC is
/// on).
pub const DMA_CORRUPT: &str = "pcie.dma_corrupt";
/// TLP header corruption: the receiver cannot even identify the packet,
/// so the link layer replays it, or — with the replay budget at zero —
/// the requester sees a completion timeout.
pub const TLP_HEADER: &str = "pcie.tlp_header";
/// Single-bit corruption of a completion entry (NVMe CQE writes, HDC
/// completion records, NIC receive writebacks), caught by ECRC on the
/// Completion-class DMA or by the entry's own CRC at the consumer.
pub const CPL_CORRUPT: &str = "pcie.cpl_corrupt";

impl FaultPlan {
    /// Every injection site the device models consult.
    pub const SITES: [&'static str; 8] = [
        WIRE_DROP,
        WIRE_CORRUPT,
        NVME_MEDIA,
        PCIE_REPLAY,
        MSI_LOSS,
        DMA_CORRUPT,
        TLP_HEADER,
        CPL_CORRUPT,
    ];

    /// The data-integrity subset of [`Self::SITES`]: faults that corrupt
    /// bits rather than losing packets, contained by the ECRC / poison /
    /// CRC machinery.
    pub const CORRUPTION_SITES: [&'static str; 3] = [DMA_CORRUPT, TLP_HEADER, CPL_CORRUPT];

    /// Creates an empty plan drawing from `rng` (fork it off the world
    /// RNG for seed reproducibility).
    pub fn new(mut rng: Rng) -> FaultPlan {
        FaultPlan {
            stream_base: rng.next_u64(),
            sites: BTreeMap::new(),
            tallies: BTreeMap::new(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// Enables `site` with `spec` after validating it, rejecting
    /// non-finite or out-of-range probabilities with a clear error
    /// instead of passing garbage to `Rng::gen_bool` mid-simulation.
    /// The site's RNG stream depends only on the plan seed and the site
    /// name, so neither enabling order nor event interleaving at other
    /// sites changes the fault sequence a given site produces. Two
    /// differently named sites whose names hash to the same stream key
    /// would silently share one fault sequence, so that is an error too.
    pub(crate) fn try_enable(&mut self, site: &'static str, spec: FaultSpec) -> Result<(), String> {
        if let FaultSpec::Probability(p) = spec {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "fault site {site}: probability {p} must be finite and within [0.0, 1.0]"
                ));
            }
        }
        let key = self.stream_key(site);
        if let Some(other) = self
            .sites
            .keys()
            .find(|&&other| other != site && self.stream_key(other) == key)
        {
            return Err(format!(
                "fault site {site}: RNG stream key collides with enabled site {other}"
            ));
        }
        let site_state = Site {
            spec,
            rng: Rng::new(key),
            entropy_key: key ^ 0xE57A_B11E_5EED_C0DE,
            seen: 0,
            fired: Vec::new(),
        };
        self.sites.insert(site, site_state);
        Ok(())
    }

    /// The RNG stream key of `site`: `stream_base ^ fnv1a64(site)`.
    fn stream_key(&self, site: &str) -> u64 {
        self.stream_base ^ crate::integrity::fnv1a64(site.as_bytes())
    }

    /// Enables `site` with `spec`.
    ///
    /// # Panics
    ///
    /// Panics with the `Self::try_enable` error on an invalid spec.
    pub fn enable(&mut self, site: &'static str, spec: FaultSpec) {
        if let Err(e) = self.try_enable(site, spec) {
            panic!("{e}");
        }
    }

    /// Enables every known site at `rate` (the chaos-storm shape).
    pub fn uniform(rate: f64, rng: Rng) -> FaultPlan {
        let mut plan = FaultPlan::new(rng);
        for site in Self::SITES {
            plan.enable(site, FaultSpec::Probability(rate));
        }
        plan
    }

    /// Draws the fault decision for one eligible event at `site`; on a
    /// hit, returns entropy for the site to shape the fault (corruption
    /// position, etc.).
    fn draw(&mut self, site: &'static str) -> Option<u64> {
        let s = self.sites.get_mut(site)?;
        let idx = s.seen;
        s.seen += 1;
        let hit = match &s.spec {
            FaultSpec::Probability(p) => s.rng.gen_bool(*p),
            FaultSpec::Nth(idxs) => idxs.contains(&idx),
        };
        if hit {
            let entropy =
                Rng::new(s.entropy_key ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
            s.fired.push(idx);
            self.tallies.entry(site).or_default().injected += 1;
            Some(entropy)
        } else {
            None
        }
    }

    fn tally(&mut self, site: &'static str) -> &mut SiteStats {
        self.tallies.entry(site).or_default()
    }

    /// Per-site fault/recovery tallies, in site-name order.
    pub fn tallies(&self) -> impl Iterator<Item = (&'static str, SiteStats)> + '_ {
        self.tallies.iter().map(|(k, v)| (*k, *v))
    }

    /// For each enabled site, the 0-based eligible-event indices at which
    /// it actually fired this run (site-name order). Feeding these back
    /// as [`FaultSpec::Nth`] schedules under the same seed reproduces
    /// the exact fault sequence — the fuzzer's shrinking substrate.
    pub fn fired_log(&self) -> Vec<(&'static str, Vec<u64>)> {
        self.sites
            .iter()
            .map(|(k, s)| (*k, s.fired.clone()))
            .collect()
    }
}

/// Should a fault fire at `site` for the current event? Counts one
/// eligible event; `None` when no plan is installed, the site is not
/// enabled, or the dice say no. On a hit, carries site-shaping entropy.
pub fn inject(world: &mut World, site: &'static str) -> Option<u64> {
    let hit = world.get_mut::<FaultPlan>()?.draw(site);
    if hit.is_some() {
        world.stats.counter("fault.injected").add(1);
    }
    hit
}

/// True while a fault plan is installed (recovery timers arm themselves
/// only then, keeping fault-free runs event-identical to the pre-fault
/// simulator).
pub fn active(world: &World) -> bool {
    world.get::<FaultPlan>().is_some()
}

/// The installed plan's recovery knobs, if any.
pub fn recovery(world: &World) -> Option<RecoveryConfig> {
    world.get::<FaultPlan>().map(|p| p.recovery.clone())
}

/// Records a retry attempt attributed to `site`.
pub fn retried(world: &mut World, site: &'static str) {
    world.stats.counter("retry.count").add(1);
    if let Some(plan) = world.get_mut::<FaultPlan>() {
        plan.tally(site).retried += 1;
    }
}

/// Records a fault cured by recovery, attributed to `site`.
pub fn recovered(world: &mut World, site: &'static str) {
    world.stats.counter("fault.recovered").add(1);
    if let Some(plan) = world.get_mut::<FaultPlan>() {
        plan.tally(site).recovered += 1;
    }
}

/// Records a fault whose retry budget ran out, attributed to `site`.
pub fn exhausted(world: &mut World, site: &'static str) {
    world.stats.counter("fault.exhausted").add(1);
    if let Some(plan) = world.get_mut::<FaultPlan>() {
        plan.tally(site).exhausted += 1;
    }
}

/// Total `SiteStats::exhausted` across every site of the installed plan
/// (0 without a plan). Exhausted faults surface as error completions, so
/// a *jump* in this tally between two samples is a burst of
/// unrecoverable device faults — node-health layers sample it
/// periodically and treat nodes failing requests during a burst as
/// suspect without waiting out probe timeouts.
pub fn exhausted_total(world: &World) -> u64 {
    world
        .get::<FaultPlan>()
        .map(|p| p.tallies().map(|(_, s)| s.exhausted).sum())
        .unwrap_or(0)
}

/// Total contained data-integrity events (`recovered + exhausted` over
/// the [`FaultPlan::CORRUPTION_SITES`]) of the installed plan, 0 without
/// one. Contained corruption never produces a wrong successful payload,
/// so unlike [`exhausted_total`] a jump here does not mean a node is
/// failing requests — health layers sampling it mark busy nodes
/// *Degraded* (reroute-preferred but routable) rather than Dead.
pub fn contained_total(world: &World) -> u64 {
    world
        .get::<FaultPlan>()
        .map(|p| {
            p.tallies()
                .filter(|(site, _)| FaultPlan::CORRUPTION_SITES.contains(site))
                .map(|(_, s)| s.recovered + s.exhausted)
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(plan: &mut FaultPlan, site: &'static str, n: usize) -> Vec<Option<u64>> {
        (0..n).map(|_| plan.draw(site)).collect()
    }

    #[test]
    fn every_site_has_a_distinct_name_and_stream_key() {
        let mut names = FaultPlan::SITES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultPlan::SITES.len(), "duplicate site name");
        let mut keys: Vec<u64> = FaultPlan::SITES
            .iter()
            .map(|s| crate::integrity::fnv1a64(s.as_bytes()))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), FaultPlan::SITES.len(), "fnv1a64 collision");
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let mut a = FaultPlan::uniform(0.05, Rng::new(42));
        let mut b = FaultPlan::uniform(0.05, Rng::new(42));
        for site in FaultPlan::SITES {
            assert_eq!(drain(&mut a, site, 2_000), drain(&mut b, site, 2_000));
        }
        let ta: Vec<_> = a.tallies().collect();
        let tb: Vec<_> = b.tallies().collect();
        assert_eq!(ta, tb);
        assert!(
            ta.iter().any(|(_, s)| s.injected > 0),
            "5% over 2000 draws must fire"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::uniform(0.05, Rng::new(42));
        let mut b = FaultPlan::uniform(0.05, Rng::new(43));
        let sa: Vec<_> = FaultPlan::SITES
            .iter()
            .flat_map(|s| drain(&mut a, s, 2_000))
            .collect();
        let sb: Vec<_> = FaultPlan::SITES
            .iter()
            .flat_map(|s| drain(&mut b, s, 2_000))
            .collect();
        assert_ne!(sa, sb, "different seeds must yield different plans");
    }

    #[test]
    fn sites_are_interleaving_independent() {
        // Drawing sites round-robin or site-by-site yields the same
        // per-site sequences: streams are forked per site.
        let mut a = FaultPlan::uniform(0.1, Rng::new(7));
        let mut b = FaultPlan::uniform(0.1, Rng::new(7));
        let mut seq_a: BTreeMap<&str, Vec<Option<u64>>> = BTreeMap::new();
        for _ in 0..500 {
            for site in FaultPlan::SITES {
                seq_a.entry(site).or_default().push(a.draw(site));
            }
        }
        for site in FaultPlan::SITES {
            assert_eq!(seq_a[site], drain(&mut b, site, 500));
        }
    }

    #[test]
    fn nth_fires_exactly_at_indices() {
        let mut plan = FaultPlan::new(Rng::new(1));
        plan.enable(NVME_MEDIA, FaultSpec::Nth(vec![0, 3]));
        let hits: Vec<bool> = drain(&mut plan, NVME_MEDIA, 6)
            .into_iter()
            .map(|h| h.is_some())
            .collect();
        assert_eq!(hits, vec![true, false, false, true, false, false]);
        // Un-enabled sites never fire.
        assert!(drain(&mut plan, WIRE_DROP, 100).iter().all(|h| h.is_none()));
    }

    #[test]
    fn world_helpers_count() {
        let mut world = World::new(9);
        assert!(
            inject(&mut world, WIRE_DROP).is_none(),
            "no plan, no faults"
        );
        assert!(!active(&world));
        let rng = world.rng.fork();
        world.insert(FaultPlan::uniform(1.0, rng));
        assert!(active(&world));
        assert!(inject(&mut world, WIRE_DROP).is_some(), "p=1 always fires");
        retried(&mut world, "host.nvme");
        recovered(&mut world, "host.nvme");
        assert_eq!(exhausted_total(&world), 0);
        exhausted(&mut world, "host.nic");
        assert_eq!(exhausted_total(&world), 1);
        assert_eq!(world.stats.counter_value("fault.injected"), 1);
        assert_eq!(world.stats.counter_value("retry.count"), 1);
        assert_eq!(world.stats.counter_value("fault.recovered"), 1);
        assert_eq!(world.stats.counter_value("fault.exhausted"), 1);
        let plan = world.expect::<FaultPlan>();
        let t: BTreeMap<_, _> = plan.tallies().collect();
        assert_eq!(t["host.nvme"].retried, 1);
        assert_eq!(t["host.nvme"].recovered, 1);
        assert_eq!(t["host.nic"].exhausted, 1);
    }

    #[test]
    fn try_enable_rejects_bad_probabilities() {
        let mut plan = FaultPlan::new(Rng::new(3));
        for bad in [-0.1, 1.0001, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = plan
                .try_enable(WIRE_DROP, FaultSpec::Probability(bad))
                .expect_err("out-of-range probability must be rejected");
            assert!(err.contains("wire.drop"), "error names the site: {err}");
            assert!(err.contains("[0.0, 1.0]"), "error states the range: {err}");
        }
        assert!(
            drain(&mut plan, WIRE_DROP, 50).iter().all(|h| h.is_none()),
            "site not enabled"
        );
        plan.try_enable(WIRE_DROP, FaultSpec::Probability(0.0))
            .expect("0.0 is valid");
        plan.try_enable(WIRE_DROP, FaultSpec::Probability(1.0))
            .expect("1.0 is valid");
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn enable_panics_on_bad_probability() {
        FaultPlan::new(Rng::new(3)).enable(NVME_MEDIA, FaultSpec::Probability(f64::NAN));
    }

    #[test]
    fn site_streams_are_registration_order_independent() {
        // Enable the same sites in opposite orders (and with an extra
        // unrelated site in between): each site's fault sequence for the
        // seed must be identical.
        let mut fwd = FaultPlan::new(Rng::new(0xA11CE));
        for site in FaultPlan::SITES {
            fwd.enable(site, FaultSpec::Probability(0.2));
        }
        let mut rev = FaultPlan::new(Rng::new(0xA11CE));
        rev.enable("extra.site", FaultSpec::Probability(0.5));
        for site in FaultPlan::SITES.iter().rev() {
            rev.enable(site, FaultSpec::Probability(0.2));
        }
        for site in FaultPlan::SITES {
            assert_eq!(
                drain(&mut fwd, site, 1_000),
                drain(&mut rev, site, 1_000),
                "{site}: stream must not depend on registration order"
            );
        }
    }

    #[test]
    fn fired_log_replays_as_nth_schedule() {
        let mut a = FaultPlan::new(Rng::new(77));
        a.enable(DMA_CORRUPT, FaultSpec::Probability(0.1));
        let hits_a = drain(&mut a, DMA_CORRUPT, 500);
        let log = a.fired_log();
        let (site, fired) = log.first().expect("one site enabled");
        assert_eq!(*site, DMA_CORRUPT);
        assert_eq!(fired.len(), hits_a.iter().filter(|h| h.is_some()).count());
        assert!(!fired.is_empty(), "10% over 500 draws must fire");
        // Same seed + Nth(fired) reproduces the faults exactly — not
        // just the hit pattern but the shaping entropy too, so a pinned
        // schedule corrupts the very same bits.
        let mut b = FaultPlan::new(Rng::new(77));
        b.enable(DMA_CORRUPT, FaultSpec::Nth(fired.clone()));
        let hits_b = drain(&mut b, DMA_CORRUPT, 500);
        assert_eq!(hits_a, hits_b);
    }

    #[test]
    fn contained_total_counts_only_corruption_sites() {
        let mut world = World::new(12);
        assert_eq!(contained_total(&world), 0, "no plan, nothing contained");
        let rng = world.rng.fork();
        world.insert(FaultPlan::new(rng));
        recovered(&mut world, DMA_CORRUPT);
        exhausted(&mut world, CPL_CORRUPT);
        recovered(&mut world, TLP_HEADER);
        recovered(&mut world, WIRE_DROP); // loss fault: not "contained corruption"
        exhausted(&mut world, NVME_MEDIA);
        assert_eq!(contained_total(&world), 3);
        assert_eq!(exhausted_total(&world), 2);
    }
}
