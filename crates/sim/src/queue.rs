//! A FIFO service-time helper for modeling serializing resources (PCIe
//! links, flash channels, NDP units, network wires).
//!
//! Instead of simulating per-flit occupancy, a [`FifoServer`] computes, for
//! each offered unit of work, when that work would *complete* if the
//! resource serves strictly in arrival order — the standard
//! `completion = max(now, busy_until) + service` recurrence. Components
//! embed one and schedule the completion message at the returned time. The
//! server also accounts busy time so link/unit utilization can be reported.

use crate::time::SimTime;

/// A work-conserving, strictly-FIFO single server.
///
/// ```
/// use dcs_sim::{FifoServer, SimTime};
/// let mut link = FifoServer::new();
/// // Two back-to-back 1us transfers offered at t=0 finish at 1us and 2us.
/// let a = link.offer(SimTime::ZERO, 1_000);
/// let b = link.offer(SimTime::ZERO, 1_000);
/// assert_eq!(a, SimTime::from_us(1));
/// assert_eq!(b, SimTime::from_us(2));
/// assert_eq!(link.busy_time(), 2_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FifoServer {
    busy_until: SimTime,
    busy_time: u64,
    completed: u64,
}

impl FifoServer {
    /// An idle server.
    pub fn new() -> Self {
        FifoServer::default()
    }

    /// Offers one unit of work needing `service_ns` of service at time
    /// `now`; returns the completion instant.
    pub fn offer(&mut self, now: SimTime, service_ns: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let done = start + service_ns;
        self.busy_until = done;
        self.busy_time += service_ns;
        self.completed += 1;
        done
    }

    /// Like [`FifoServer::offer`] but also returns the start instant — useful
    /// for breakdown accounting that distinguishes queueing from service.
    #[cfg(test)]
    pub(crate) fn offer_with_start(&mut self, now: SimTime, service_ns: u64) -> (SimTime, SimTime) {
        let start = self.busy_until.max(now);
        let done = start + service_ns;
        self.busy_until = done;
        self.busy_time += service_ns;
        self.completed += 1;
        (start, done)
    }

    /// The instant the server next becomes free.
    pub(crate) fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Whether the server is idle at `now`.
    #[cfg(test)]
    pub(crate) fn is_idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Total accumulated service time, in nanoseconds.
    pub fn busy_time(&self) -> u64 {
        self.busy_time
    }

    /// Number of completed work units.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Fraction of a `[0, span_ns]` window the server spent busy.
    ///
    /// # Panics
    ///
    /// Panics if `span_ns` is zero.
    pub fn utilization(&self, span_ns: u64) -> f64 {
        assert!(span_ns > 0, "utilization over an empty span");
        self.busy_time as f64 / span_ns as f64
    }
}

/// A work-conserving line that admits out-of-order *arrivals*: each
/// offered frame starts at the earliest instant the line is idle at or
/// after the frame's arrival, filling idle gaps left by frames that
/// arrive later.
///
/// [`FifoServer`] reserves capacity in **call** order: one frame whose
/// arrival lies far in the future (because it is still crossing a
/// degraded upstream port) pushes `busy_until` out and head-of-line
/// blocks every frame offered after it — even frames that arrive long
/// before it. A real switch port cannot be occupied by a frame that has
/// not reached it yet. `LineServer` fixes the artifact while staying
/// byte-identical to `FifoServer` when arrivals are offered in
/// nondecreasing order (the healthy-cluster case), so it only changes
/// schedules where the FIFO model was wrong.
///
/// `offer` takes both the caller's current time (`now`, nondecreasing
/// across calls — simulator event order) and the frame's `arrival` at
/// this line (`>= now`). Busy intervals wholly before `now` can never
/// interact with a future arrival and are pruned, which keeps the
/// interval list short.
///
/// ```
/// use dcs_sim::{LineServer, SimTime};
/// let mut line = LineServer::new();
/// let t = SimTime::from_nanos;
/// // A frame still crossing a slow upstream port arrives at t=1000.
/// assert_eq!(line.offer(t(0), t(1000), 10), t(1010));
/// // A frame arriving *now* slips into the idle gap in front of it.
/// assert_eq!(line.offer(t(0), t(0), 10), t(10));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LineServer {
    /// Future busy intervals `[start, end)`, sorted, non-overlapping.
    busy: Vec<(SimTime, SimTime)>,
    busy_time: u64,
    completed: u64,
}

impl LineServer {
    /// An idle line.
    pub fn new() -> Self {
        LineServer::default()
    }

    /// Offers one frame arriving at `arrival` and needing `service_ns` on
    /// the line; returns the completion instant. `now` is the caller's
    /// current simulation time, used to prune dead intervals.
    ///
    /// # Panics
    ///
    /// Panics if `arrival < now`.
    pub fn offer(&mut self, now: SimTime, arrival: SimTime, service_ns: u64) -> SimTime {
        assert!(arrival >= now, "a frame cannot arrive in the caller's past");
        self.busy.retain(|&(_, end)| end > now);
        // Earliest idle span of `service_ns` at or after `arrival`:
        // walk the (short) interval list front to back.
        let mut start = arrival;
        let mut at = 0;
        for (i, &(s, e)) in self.busy.iter().enumerate() {
            if start + service_ns <= s {
                break; // fits in the gap before interval i
            }
            if e > start {
                start = e;
            }
            at = i + 1;
        }
        let done = start + service_ns;
        self.busy.insert(at, (start, done));
        // Coalesce with abutting neighbours so the list stays minimal.
        if at + 1 < self.busy.len() && self.busy[at].1 == self.busy[at + 1].0 {
            self.busy[at].1 = self.busy[at + 1].1;
            self.busy.remove(at + 1);
        }
        if at > 0 && self.busy[at - 1].1 == self.busy[at].0 {
            self.busy[at - 1].1 = self.busy[at].1;
            self.busy.remove(at);
        }
        self.busy_time += service_ns;
        self.completed += 1;
        done
    }

    /// Total accumulated service time, in nanoseconds.
    pub fn busy_time(&self) -> u64 {
        self.busy_time
    }

    /// Number of completed frames.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

/// A bank of identical FIFO servers dispatching each offered unit of work to
/// the server that can finish it earliest (models an n-unit NDP bank or a
/// multi-lane link).
#[derive(Clone, Debug)]
pub struct ServerBank {
    servers: Vec<FifoServer>,
}

impl ServerBank {
    /// A bank of `n` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a server bank needs at least one server");
        ServerBank {
            servers: vec![FifoServer::new(); n],
        }
    }

    /// Number of servers in the bank.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the bank is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Offers one unit of work, routed to the earliest-available server;
    /// returns its completion instant.
    pub fn offer(&mut self, now: SimTime, service_ns: u64) -> SimTime {
        let best = self
            .servers
            .iter_mut()
            .min_by_key(|s| s.busy_until())
            .expect("bank is non-empty");
        best.offer(now, service_ns)
    }

    /// Total busy time summed across servers.
    pub fn busy_time(&self) -> u64 {
        self.servers.iter().map(|s| s.busy_time()).sum()
    }

    /// Aggregate utilization of the bank over a window.
    pub fn utilization(&self, span_ns: u64) -> f64 {
        assert!(span_ns > 0, "utilization over an empty span");
        self.busy_time() as f64 / (span_ns as f64 * self.servers.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serializes_overlapping_offers() {
        let mut s = FifoServer::new();
        assert_eq!(s.offer(SimTime::from_nanos(10), 5), SimTime::from_nanos(15));
        // Offered "in the past" relative to busy_until: queues behind.
        assert_eq!(s.offer(SimTime::from_nanos(12), 5), SimTime::from_nanos(20));
        // Offered after an idle gap: starts immediately.
        assert_eq!(
            s.offer(SimTime::from_nanos(100), 5),
            SimTime::from_nanos(105)
        );
        assert_eq!(s.busy_time(), 15);
        assert_eq!(s.completed(), 3);
    }

    #[test]
    fn offer_with_start_separates_queueing_from_service() {
        let mut s = FifoServer::new();
        s.offer(SimTime::ZERO, 100);
        let (start, done) = s.offer_with_start(SimTime::from_nanos(10), 50);
        assert_eq!(start, SimTime::from_nanos(100));
        assert_eq!(done, SimTime::from_nanos(150));
    }

    #[test]
    fn idle_checks_and_utilization() {
        let mut s = FifoServer::new();
        assert!(s.is_idle_at(SimTime::ZERO));
        s.offer(SimTime::ZERO, 400);
        assert!(!s.is_idle_at(SimTime::from_nanos(399)));
        assert!(s.is_idle_at(SimTime::from_nanos(400)));
        assert!((s.utilization(1_000) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn bank_spreads_load_across_servers() {
        let mut bank = ServerBank::new(2);
        // Four 10ns jobs at t=0 on 2 servers -> completions 10,10,20,20.
        let mut completions: Vec<u64> = (0..4)
            .map(|_| bank.offer(SimTime::ZERO, 10).as_nanos())
            .collect();
        completions.sort_unstable();
        assert_eq!(completions, vec![10, 10, 20, 20]);
        assert_eq!(bank.busy_time(), 40);
        assert!((bank.utilization(20) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_bank_rejected() {
        let _ = ServerBank::new(0);
    }
}
