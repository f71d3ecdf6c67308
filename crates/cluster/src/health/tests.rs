//! Unit tests of the health monitor's state machines.

use super::*;

fn t(ns: u64) -> SimTime {
    SimTime::ZERO + ns
}

fn monitor() -> HealthMonitor {
    HealthMonitor::new(&HealthConfig::default(), 2)
}

#[test]
fn misses_walk_healthy_suspect_dead_and_ack_revives() {
    let mut m = monitor();
    assert_eq!(m.state(0), NodeState::Healthy);
    assert_eq!(m.on_probe_miss(0, t(1)), None);
    assert_eq!(m.state(0), NodeState::Healthy, "one miss is noise");
    assert_eq!(m.on_probe_miss(0, t(2)), None);
    assert_eq!(m.state(0), NodeState::Suspect);
    assert!(m.score(0) < 1.0);
    assert_eq!(m.on_probe_miss(0, t(3)), None);
    assert_eq!(m.on_probe_miss(0, t(4)), Some(Transition::Died));
    assert_eq!(m.state(0), NodeState::Dead);
    assert!(m.score(0) >= 1.0);
    assert!(!m.routable(0, t(5)));
    // Node 1 is untouched throughout.
    assert_eq!(m.state(1), NodeState::Healthy);
    // A late ack (hang ended) revives it in one step.
    assert_eq!(m.on_probe_ack(0, t(6)), Some(Transition::Revived));
    assert_eq!(m.state(0), NodeState::Healthy);
    assert!(m.routable(0, t(7)));
    // Dying again re-reports the transition.
    for i in 0..3 {
        assert_eq!(m.on_probe_miss(0, t(8 + i)), None);
    }
    assert_eq!(m.on_probe_miss(0, t(12)), Some(Transition::Died));
}

#[test]
fn breaker_opens_after_k_failures_and_half_open_trial_decides() {
    let mut m = monitor();
    // Interleaved successes keep resetting the consecutive count.
    for i in 0..10 {
        m.on_request_failure(0, t(i));
        m.on_request_success(0);
    }
    assert_eq!(m.breaker(0), BreakerState::Closed);
    for i in 0..3 {
        m.on_request_failure(0, t(100 + i));
    }
    assert_eq!(m.breaker(0), BreakerState::Open);
    assert!(!m.routable(0, t(110)), "open breaker blocks routing");
    // After the open window: half-open admits exactly one trial.
    let later = t(100 + 2 + 3_000_000);
    assert!(m.routable(0, later));
    assert_eq!(m.breaker(0), BreakerState::HalfOpen);
    m.on_dispatch(0);
    assert!(!m.routable(0, later), "one trial at a time");
    // Trial fails: reopen (and the window restarts from now).
    m.on_request_failure(0, later);
    assert_eq!(m.breaker(0), BreakerState::Open);
    assert!(!m.routable(0, later + 1_000_000));
    // Next half-open trial succeeds: closed.
    let again = later + 3_000_000;
    assert!(m.routable(0, again));
    m.on_dispatch(0);
    m.on_request_success(0);
    assert_eq!(m.breaker(0), BreakerState::Closed);
    assert!(m.routable(0, again));
}

#[test]
fn probe_ack_closes_an_open_breaker() {
    let mut m = monitor();
    for i in 0..3 {
        m.on_request_failure(1, t(i));
    }
    assert_eq!(m.breaker(1), BreakerState::Open);
    m.on_probe_ack(1, t(10));
    assert_eq!(m.breaker(1), BreakerState::Closed);
    assert!(m.routable(1, t(11)));
}

#[test]
fn exhausted_burst_jumps_straight_to_suspect() {
    let mut m = monitor();
    m.on_exhausted_burst(0, t(1));
    assert_eq!(m.state(0), NodeState::Suspect);
    // It feeds the breaker too: two more failures open it.
    m.on_request_failure(0, t(2));
    m.on_request_failure(0, t(3));
    assert_eq!(m.breaker(0), BreakerState::Open);
    // But bursts alone never declare death — only probes do, which is
    // what keeps detection times policy-invariant.
    for i in 0..20 {
        m.on_exhausted_burst(0, t(10 + i));
    }
    assert_eq!(m.state(0), NodeState::Suspect);
}

#[test]
fn contained_burst_degrades_without_unrouting() {
    let mut m = monitor();
    m.on_contained_burst(0);
    assert_eq!(m.state(0), NodeState::Degraded);
    // Degraded stays routable and never opens the breaker.
    assert!(m.routable(0, t(1)));
    assert_eq!(m.breaker(0), BreakerState::Closed);
    // One clean ack is not enough; two clear it.
    m.on_probe_ack(0, t(2));
    assert_eq!(m.state(0), NodeState::Degraded);
    m.on_probe_ack(0, t(3));
    assert_eq!(m.state(0), NodeState::Healthy);
    // Liveness doubt outranks the downgrade.
    m.on_contained_burst(0);
    m.on_probe_miss(0, t(4));
    m.on_probe_miss(0, t(5));
    assert_eq!(m.state(0), NodeState::Suspect);
    // A miss between acks restarts the clean-ack requirement.
    m.on_probe_ack(0, t(6));
    m.on_contained_burst(0);
    m.on_probe_ack(0, t(7));
    m.on_probe_miss(0, t(8));
    m.on_probe_ack(0, t(9));
    assert_eq!(m.state(0), NodeState::Degraded, "miss reset the streak");
    m.on_probe_ack(0, t(10));
    assert_eq!(m.state(0), NodeState::Healthy);
}

#[test]
fn slow_detection_walks_hysteresis_both_ways() {
    let mut m = HealthMonitor::new(&HealthConfig::default(), 4);
    // Nodes 0-2 serve at ~1 ms; node 3 at ~10 ms.
    for _ in 0..16 {
        for n in 0..3 {
            m.record_latency(n, 1_000_000);
        }
        m.record_latency(3, 10_000_000);
    }
    assert!(m.ewma_ns(3) > 5_000_000, "EWMA converges toward samples");
    // slow_after = 3 evaluations before the transition fires.
    assert_eq!(m.evaluate_slow(), vec![]);
    assert_eq!(m.evaluate_slow(), vec![]);
    assert_eq!(m.evaluate_slow(), vec![SlowTransition::Slowed(3)]);
    assert_eq!(m.state(3), NodeState::Slow);
    assert_eq!(m.slow_count(), 1);
    // Slow stays routable — that is the whole point.
    assert!(m.routable(3, t(1)));
    // The fault ends; fast samples drag the EWMA back down.
    for _ in 0..64 {
        m.record_latency(3, 1_000_000);
    }
    // readmit_after = 6 below-threshold evaluations readmit it.
    for _ in 0..5 {
        assert_eq!(m.evaluate_slow(), vec![]);
    }
    assert_eq!(m.evaluate_slow(), vec![SlowTransition::Readmitted(3)]);
    assert_eq!(m.state(3), NodeState::Healthy);
}

#[test]
fn blind_config_never_marks_slow() {
    let mut m = HealthMonitor::new(&HealthConfig::blind(), 2);
    for _ in 0..32 {
        m.record_latency(0, 1_000_000);
        m.record_latency(1, 50_000_000);
    }
    for _ in 0..10 {
        assert_eq!(m.evaluate_slow(), vec![]);
    }
    assert_eq!(m.state(1), NodeState::Healthy);
}

#[test]
fn probe_misses_outrank_slow() {
    let mut m = HealthMonitor::new(&HealthConfig::default(), 4);
    for _ in 0..16 {
        for n in 0..3 {
            m.record_latency(n, 1_000_000);
        }
        m.record_latency(3, 20_000_000);
    }
    for _ in 0..3 {
        m.evaluate_slow();
    }
    assert_eq!(m.state(3), NodeState::Slow);
    m.on_probe_miss(3, t(1));
    m.on_probe_miss(3, t(2));
    assert_eq!(m.state(3), NodeState::Suspect, "liveness doubt wins");
    for i in 0..2 {
        m.on_probe_miss(3, t(3 + i));
    }
    assert_eq!(m.state(3), NodeState::Dead);
}

#[test]
fn joining_is_unroutable_until_completed_and_acks_do_not_promote() {
    let mut m = monitor();
    for _ in 0..4 {
        m.on_probe_miss(0, t(1));
    }
    assert_eq!(m.state(0), NodeState::Dead);
    m.begin_join(0);
    assert_eq!(m.state(0), NodeState::Joining);
    assert!(!m.routable(0, t(2)), "joining nodes take no traffic");
    // Probe acks keep it alive but do not make it routable.
    assert_eq!(m.on_probe_ack(0, t(3)), None);
    assert_eq!(m.state(0), NodeState::Joining);
    // Misses during the join drive no transition either.
    assert_eq!(m.on_probe_miss(0, t(4)), None);
    assert_eq!(m.state(0), NodeState::Joining);
    m.complete_join(0);
    assert_eq!(m.state(0), NodeState::Healthy);
    assert!(m.routable(0, t(5)));
}

#[test]
fn mask_reflects_dead_and_open_nodes() {
    let mut m = monitor();
    for _ in 0..4 {
        m.on_probe_miss(0, t(1));
    }
    for i in 0..3 {
        m.on_request_failure(1, t(2 + i));
    }
    assert_eq!(m.unroutable_mask(t(10)), vec![true, true]);
    assert_eq!(m.dead_count(), 1);
}

#[test]
fn a_disabled_monitor_is_inert() {
    let mut off = HealthMonitor::new(&HealthConfig::disabled(), 2);
    let mut on = monitor();
    let mut latency = Histogram::new();
    for _ in 0..64 {
        latency.record(1_000_000);
    }
    for m in [&mut off, &mut on] {
        for i in 0..4 {
            m.on_dispatch(0);
            m.on_request_done(0, false, t(i));
            m.record_latency(1, 50_000_000);
        }
        m.record_latency(0, 1_000_000);
    }
    // The enabled monitor acts on the same hooks...
    assert_eq!(on.breaker(0), BreakerState::Open);
    assert_eq!(on.unroutable_mask(t(10)), vec![true, false]);
    assert!(on.ewma_ns(1) > 0);
    assert_eq!(on.retries(), REQUEST_RETRIES);
    assert!(on.hedge_delay(1, &latency).is_some());
    // ...the disabled one keeps every node Healthy and routable, grants
    // no retries and no hedges, and runs no rejoin lifecycle.
    assert_eq!(off.unroutable_mask(t(10)), vec![false, false]);
    assert_eq!(off.evaluate_slow(), vec![]);
    for n in 0..2 {
        assert_eq!(off.state(n), NodeState::Healthy);
        assert_eq!(off.breaker(n), BreakerState::Closed);
        assert_eq!(off.ewma_ns(n), 0, "no latency samples kept");
        assert_eq!(off.hedge_delay(n, &latency), None, "no hedges");
    }
    assert_eq!(off.retries(), 0, "no failover retries");
    assert!(!off.begin_join(0), "no managed rejoin");
    assert_eq!(off.state(0), NodeState::Healthy);
}
