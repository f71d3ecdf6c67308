//! Extension experiment: data-integrity audit + chaos-fuzz smoke.
//!
//! Two views of the containment stack (DESIGN.md §12):
//!
//! 1. **Corruption sweep** — storms only the three *corruption* sites
//!    (DMA payload, TLP header, completion entry) at per-TLP rates
//!    around 1e-3 and audits every completion end to end: a request
//!    that reports success must have carried the right bytes. The
//!    table's `escapes` column is the headline — it must be 0 on every
//!    design at every rate while ECRC is on — alongside the
//!    conservation identity (injected == recovered + exhausted, and
//!    AER detections == injections).
//! 2. **Fuzz smoke** — a bounded run of the shrinking chaos fuzzer
//!    ([`dcs_sim::fuzz`]) over the same workload. A clean budget is the
//!    expected outcome; on a violation, [`report`] writes the
//!    shrunk [`FaultSpec::Nth`] schedule and a Perfetto trace of the
//!    minimal replay into a repro directory for CI to upload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use dcs_host::job::{D2dDone, D2dOp};
use dcs_ndp::md5::md5;
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_pcie::PhysMemory;
use dcs_sim::fault::{FaultPlan, FaultSpec, SiteStats};
use dcs_sim::{fnv1a64, fuzz, FuzzCase, FuzzConfig, IntegrityAudit, RunOutcome, Violation};
use dcs_workloads::scenario::{DesignUnderTest, Testbed, TestbedConfig};

use crate::faults::site_table;
use crate::{row, Report};

/// Transfer size per round — enough TLPs that 1e-3 per-TLP corruption
/// fires every few rounds.
const LEN: usize = 16 * 1024;

/// Deterministic payload pattern the audits check against.
fn pattern() -> Vec<u8> {
    (0..LEN)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect()
}

/// One (design, rate) cell of the corruption sweep.
pub struct IntegrityRow {
    /// Design under test.
    pub design: DesignUnderTest,
    /// Per-event corruption probability at each corruption site.
    pub rate: f64,
    /// Transfer rounds attempted.
    pub rounds: usize,
    /// Rounds where both paired jobs succeeded.
    pub ok_rounds: usize,
    /// Successful completions that carried the wrong bytes (must be 0).
    pub escapes: usize,
    /// Corruptions injected across the corruption sites.
    pub injected: u64,
    /// Of those, recovered transparently (replay, refetch, retry).
    pub recovered: u64,
    /// Of those, surfaced as contained error completions.
    pub exhausted: u64,
    /// AER detections logged (`aer.detected` counter).
    pub aer_detected: u64,
    /// Whether injected == recovered + exhausted held at the end.
    pub conserved: bool,
    /// Tallies per corruption site, in site order.
    pub sites: Vec<(&'static str, SiteStats)>,
}

/// Builds a settled testbed with the pattern on flash and an
/// [`IntegrityAudit`] installed.
fn audit_testbed(design: DesignUnderTest, seed: u64, pat: &[u8]) -> Testbed {
    let mut tb = Testbed::new(
        design,
        &TestbedConfig {
            seed,
            ..Default::default()
        },
    );
    tb.sim.run();
    let addr = tb.server.ssds[0].lba_addr(0);
    tb.sim
        .world_mut()
        .expect_mut::<PhysMemory>()
        .write(addr, pat);
    tb.sim.world_mut().insert(IntegrityAudit::default());
    tb
}

/// One round: server reads the pattern off flash and sends it; client
/// receives and MD5s it.
fn transfer_round(tb: &mut Testbed, round: u16) -> Vec<D2dDone> {
    let flow = TcpFlow::example(1, 2, 47_000 + round, 5_000 + round);
    let server = tb.server.submit_to;
    let client = tb.client.submit_to;
    tb.run_job_batch(vec![
        (
            server,
            vec![
                D2dOp::SsdRead {
                    ssd: 0,
                    lba: 0,
                    len: LEN,
                },
                D2dOp::NicSend { flow, seq: 0 },
            ],
            "integrity-send",
        ),
        (
            client,
            vec![
                D2dOp::NicRecv {
                    flow: flow.reversed(),
                    len: LEN,
                },
                D2dOp::Process {
                    function: NdpFunction::Md5,
                    aux: vec![],
                },
            ],
            "integrity-recv",
        ),
    ])
}

/// Runs `rounds` paired transfers with the three corruption sites
/// firing at `rate` and audits the outcome.
pub fn run(design: DesignUnderTest, rate: f64, rounds: usize) -> IntegrityRow {
    let pat = pattern();
    let expected_md5 = md5(&pat);
    let expected_fnv = fnv1a64(&pat);
    let mut tb = audit_testbed(design, 0x17E9, &pat);
    tb.install_faults(|rng| {
        let mut plan = FaultPlan::new(rng);
        for site in FaultPlan::CORRUPTION_SITES {
            plan.enable(site, FaultSpec::Probability(rate));
        }
        plan
    });
    let mut ok_rounds = 0;
    let mut escapes = 0;
    for round in 0..rounds {
        let done = transfer_round(&mut tb, round as u16);
        if done.iter().all(|d| d.ok) {
            ok_rounds += 1;
        }
        // Device-side audit: a successful recv job's MD5 must match.
        for d in &done {
            if d.ok
                && d.digest
                    .as_deref()
                    .is_some_and(|dg| dg != expected_md5.as_slice())
            {
                escapes += 1;
            }
        }
    }
    // Host-side audit: every successful completion the SW executor
    // delivered must digest to the pattern (the executor records these
    // only on the software designs; the iterator is empty elsewhere).
    escapes += tb
        .sim
        .world()
        .expect::<IntegrityAudit>()
        .escapes(expected_fnv)
        .len();
    let mut sites: Vec<_> = tb
        .sim
        .world()
        .expect::<FaultPlan>()
        .tallies()
        .filter(|(site, _)| FaultPlan::CORRUPTION_SITES.contains(site))
        .collect();
    sites.sort_unstable_by_key(|(site, _)| *site);
    let (mut injected, mut recovered, mut exhausted) = (0, 0, 0);
    for (_, s) in &sites {
        injected += s.injected;
        recovered += s.recovered;
        exhausted += s.exhausted;
    }
    IntegrityRow {
        design,
        rate,
        rounds,
        ok_rounds,
        escapes,
        injected,
        recovered,
        exhausted,
        aer_detected: tb.sim.world().stats.counter_value("aer.detected"),
        conserved: injected == recovered + exhausted,
        sites,
    }
}

/// Executes one fuzz case: a fresh testbed under the case's seed and
/// fault schedule, a few paired transfers, and an outcome whose
/// fingerprint covers completions, tallies, and final sim time.
/// Panics and failed drains surface as [`Violation::Hung`].
pub fn fuzz_target(case: &FuzzCase) -> RunOutcome {
    let case = case.clone();
    let result = catch_unwind(AssertUnwindSafe(move || {
        let pat = pattern();
        let expected_md5 = md5(&pat);
        let mut tb = audit_testbed(DesignUnderTest::DcsCtrl, case.seed, &pat);
        tb.install_faults(|rng| {
            let mut plan = FaultPlan::new(rng);
            for (site, spec) in &case.sites {
                plan.enable(site, spec.clone());
            }
            plan
        });
        let mut fp: Vec<u8> = Vec::new();
        let mut violation = None;
        for round in 0..2u16 {
            let mut done = transfer_round(&mut tb, round);
            done.sort_by_key(|d| d.id);
            for d in &done {
                fp.extend_from_slice(&d.id.to_le_bytes());
                fp.push(u8::from(d.ok));
                fp.extend_from_slice(&(d.payload_len as u64).to_le_bytes());
                if let Some(dg) = &d.digest {
                    fp.extend_from_slice(dg);
                }
                let wrong = d.ok
                    && d.digest
                        .as_deref()
                        .is_some_and(|dg| dg != expected_md5.as_slice());
                if wrong && violation.is_none() {
                    violation = Some(Violation::WrongPayload { job: d.id });
                }
            }
        }
        let world = tb.sim.world();
        for key in [
            "fault.injected",
            "fault.recovered",
            "fault.exhausted",
            "aer.detected",
        ] {
            fp.extend_from_slice(&world.stats.counter_value(key).to_le_bytes());
        }
        fp.extend_from_slice(&(tb.sim.now() - dcs_sim::SimTime::ZERO).to_le_bytes());
        if violation.is_none() {
            let expected_fnv = fnv1a64(&pat);
            if let Some(job) = world
                .expect::<IntegrityAudit>()
                .escapes(expected_fnv)
                .first()
                .copied()
            {
                violation = Some(Violation::WrongPayload { job });
            }
        }
        let fired = world.expect::<FaultPlan>().fired_log();
        RunOutcome {
            fingerprint: fnv1a64(&fp),
            fired,
            violation,
        }
    }));
    match result {
        Ok(outcome) => outcome,
        Err(panic) => {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_string());
            RunOutcome {
                fingerprint: 0,
                fired: Vec::new(),
                violation: Some(Violation::Hung { detail }),
            }
        }
    }
}

/// The bounded-smoke fuzz configuration CI runs.
pub fn smoke_config(quick: bool) -> FuzzConfig {
    FuzzConfig {
        base_seed: 0xF422_1E57,
        cases: if quick { 4 } else { 16 },
        rate: 2e-3,
        sites: FaultPlan::CORRUPTION_SITES.to_vec(),
        max_shrink_runs: if quick { 40 } else { 200 },
    }
}

/// The message for a fuzz counterexample, after writing its repro
/// artifacts under `repro_dir` for CI to upload.
fn violation(
    report: &dcs_sim::FuzzReport,
    cx: &dcs_sim::Counterexample,
    repro_dir: &Path,
) -> String {
    let mut msg = format!(
        "Chaos fuzz smoke: VIOLATION after {} cases ({} runs)\n{}",
        report.cases_run,
        report.runs,
        cx.repro()
    );
    match write_repro(cx, repro_dir) {
        Ok(()) => msg.push_str(&format!(
            "repro artifacts written to {}\n",
            repro_dir.display()
        )),
        Err(e) => msg.push_str(&format!("FAILED writing repro artifacts: {e}\n")),
    }
    msg
}

/// Writes `repro.txt` (the shrunk schedule) and `trace.json` (a
/// Perfetto/Chrome trace of the minimal case replayed with recording
/// on) into `dir`.
pub(crate) fn write_repro(cx: &dcs_sim::Counterexample, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("repro.txt"), cx.repro())?;
    let case = cx.case.clone();
    let trace = catch_unwind(AssertUnwindSafe(move || {
        let pat = pattern();
        let mut tb = audit_testbed(DesignUnderTest::DcsCtrl, case.seed, &pat);
        tb.sim.world_mut().obs.enable();
        tb.install_faults(|rng| {
            let mut plan = FaultPlan::new(rng);
            for (site, spec) in &case.sites {
                plan.enable(site, spec.clone());
            }
            plan
        });
        for round in 0..2u16 {
            let _ = transfer_round(&mut tb, round);
        }
        dcs_sim::chrome_trace(&tb.sim.world().obs)
    }))
    .unwrap_or_else(|_| "{\"traceEvents\":[]}\n".to_string());
    std::fs::write(dir.join("trace.json"), trace)
}

/// The corruption sweep, a per-site conservation block, and the chaos
/// fuzzer in bounded smoke mode. A fuzz violation writes the shrunk
/// schedule (`repro.txt`) and a Perfetto trace of the minimal replay
/// (`trace.json`) under `fuzz-repro/` and sets [`Report::failure`].
pub fn report(quick: bool) -> Report {
    let rounds = if quick { 4 } else { 12 };
    let rates = [0.001, 0.005, 0.01];
    let designs = [
        DesignUnderTest::SwOpt,
        DesignUnderTest::SwP2p,
        DesignUnderTest::DcsCtrl,
    ];
    let mut r = Report::new(
        "integrity",
        quick,
        format!(
            "Integrity sweep — paired {} KiB transfers, corruption sites only, ECRC on",
            LEN / 1024
        ),
    );
    let t = r.section("").table(
        "sweep",
        "design rate:%.1 ok rounds escapes injected recovered exhausted aer_detected conserved",
    );
    let mut dcs_at_lowest = None;
    for design in designs {
        for rate in rates {
            let row = run(design, rate, rounds);
            row!(
                t,
                row.design.to_string(),
                rate,
                row.ok_rounds,
                row.rounds,
                row.escapes,
                row.injected,
                row.recovered,
                row.exhausted,
                row.aer_detected,
                row.conserved,
            );
            if design == DesignUnderTest::DcsCtrl && rate == rates[0] {
                dcs_at_lowest = Some(row);
            }
        }
    }
    let s = r.section("Per-site corruption tallies, dcs-ctrl @ 0.1%:");
    let dcs = dcs_at_lowest.expect("the sweep covers DCS-ctrl");
    site_table(s, "sites", dcs.sites.into_iter());
    let t = s.table("containment", "contained aer_detected");
    // Contained = recovered + exhausted (`fault::contained_total`).
    row!(t, dcs.recovered + dcs.exhausted, dcs.aer_detected);

    let smoke = fuzz::fuzz(&smoke_config(quick), fuzz_target);
    row!(
        r.section("Chaos fuzz smoke:")
            .table("fuzz_smoke", "verdict cases target_runs"),
        if smoke.counterexample.is_some() {
            "VIOLATION"
        } else {
            "clean"
        },
        smoke.cases_run,
        smoke.runs,
    );
    if let Some(cx) = &smoke.counterexample {
        r.failure = Some(violation(&smoke, cx, Path::new("fuzz-repro")));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_row_audits_clean_and_conserves() {
        let row = run(DesignUnderTest::DcsCtrl, 0.01, 4);
        assert!(row.injected > 0, "1% per TLP over 4 rounds must fire");
        assert_eq!(row.escapes, 0, "ECRC on: no wrong-payload successes");
        assert!(
            row.conserved,
            "injected {} != recovered {} + exhausted {}",
            row.injected, row.recovered, row.exhausted
        );
    }

    #[test]
    fn fuzz_target_is_deterministic() {
        let case = FuzzCase {
            seed: 0x5EED,
            sites: FaultPlan::CORRUPTION_SITES
                .iter()
                .map(|s| (*s, FaultSpec::Probability(0.002)))
                .collect(),
        };
        let a = fuzz_target(&case);
        let b = fuzz_target(&case);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "same case must replay identically"
        );
        assert_eq!(a.fired, b.fired);
        assert!(
            a.violation.is_none(),
            "containment must hold: {:?}",
            a.violation
        );
    }
}
