//! The modeled top-of-rack switch.
//!
//! A store-and-forward switch connecting the cluster front end (traffic
//! generator + load balancer) to every node's rack port. Each direction of
//! each port is a [`LineServer`]: a frame crossing the switch serializes on
//! the ingress port at that port's line rate, pays a fixed switching
//! latency, then queues at the *output* port and serializes again at the
//! output port's rate — classic output queueing, so a congested direction
//! backs up exactly one queue while the reverse direction stays clean.
//!
//! The output ports must be [`LineServer`]s (earliest idle slot at or
//! after the frame's *arrival*) rather than [`FifoServer`]s (reserve in
//! call order): when one node's port is degraded, its frames reach a
//! shared output port minutes of queueing later, and a call-order
//! reservation would let those not-yet-arrived frames head-of-line block
//! every healthy node's traffic through the shared port — an artifact,
//! not a property of real switches. With no degraded port the two models
//! produce identical schedules.
//!
//! [`FifoServer`]: dcs_sim::FifoServer
//!
//! The front-end port is typically provisioned much faster than the node
//! ports (a 100 GbE uplink over 10 GbE downlinks) so response traffic from
//! N nodes only contends at the uplink once offered load approaches the
//! uplink rate. A per-node speed factor models a degraded cable/port
//! mid-run (`set_node_speed_factor`); the load balancer's queue-aware
//! policies observe the resulting backlog and route around it.
//!
//! Note the node-facing downlink *wire* (frames, retransmission, fault
//! sites) is simulated in full by each node pair's `dcs-nic` wire; the
//! switch model adds the rack-level hops that wire does not cover: the
//! switching latency and the shared front-end uplink.

use dcs_sim::{Bandwidth, LineServer, SimTime};

/// QoS class of a data-plane transfer through the switch.
///
/// The health layer's heartbeat probes already ride a strict-priority
/// control class (`TorSwitch::control_oneway_ns`); `Lane` extends the
/// same machinery to *data* frames so the store layer can give an SLO
/// tenant's small requests a lane that large bulk transfers cannot block.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Lane {
    /// Best-effort class: output-queued behind everything else on the
    /// port (the pre-existing behavior of every data transfer).
    #[default]
    Bulk,
    /// Strict-priority class: pays serialization at both ports and the
    /// switching latency, but never waits in an output queue. Modeled
    /// like the control lane — a priority frame preempts the head of the
    /// bulk queue, so its delay is load-independent; the tiny extra
    /// serialization it imposes on bulk traffic is below the model's
    /// resolution and is not charged back.
    Priority,
}

/// Switch provisioning.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Line rate of each node-facing port.
    pub port_rate: Bandwidth,
    /// Line rate of the front-end (load-balancer) uplink port.
    pub uplink_rate: Bandwidth,
    /// Fixed switching (forwarding + propagation) latency per traversal.
    pub latency_ns: u64,
    /// Per-frame framing overhead added to every transfer, in bytes.
    pub frame_overhead: usize,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            port_rate: Bandwidth::gbps(10.0),
            uplink_rate: Bandwidth::gbps(100.0),
            latency_ns: 1_000,
            frame_overhead: 24,
        }
    }
}

/// One full-duplex port: independent ingress/egress servers.
#[derive(Clone, Debug, Default)]
struct Port {
    /// Traffic entering the switch through this port.
    ingress: LineServer,
    /// Traffic leaving the switch through this port.
    egress: LineServer,
}

/// The output-queued top-of-rack switch. Deterministic and side-effect
/// free: callers offer transfers and schedule simulator messages at the
/// returned completion instants.
#[derive(Clone, Debug)]
pub struct TorSwitch {
    cfg: SwitchConfig,
    nodes: Vec<Port>,
    uplink: Port,
    /// Service-rate multiplier per node port (1.0 = healthy; smaller is
    /// slower). Models a degraded port/cable.
    // dcs-lint: allow(float-in-sim-state) — written only at scheduled fault instants, from config-supplied values
    speed_factor: Vec<f64>,
}

impl TorSwitch {
    /// A switch with `nodes` node-facing ports plus the front-end uplink.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, cfg: SwitchConfig) -> TorSwitch {
        assert!(nodes > 0, "a switch needs at least one node port");
        TorSwitch {
            cfg,
            nodes: vec![Port::default(); nodes],
            uplink: Port::default(),
            speed_factor: vec![1.0; nodes],
        }
    }

    /// Degrades (or restores) node `node`'s port to `factor` of its line
    /// rate.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive or `node` is out of range.
    pub(crate) fn set_node_speed_factor(&mut self, node: usize, factor: f64) {
        assert!(factor > 0.0, "speed factor must be positive");
        self.speed_factor[node] = factor;
    }

    fn node_tx_time(&self, node: usize, bytes: usize) -> u64 {
        let t = self
            .cfg
            .port_rate
            .transfer_time(bytes + self.cfg.frame_overhead);
        ((t as f64 / self.speed_factor[node]).ceil() as u64).max(1)
    }

    fn uplink_tx_time(&self, bytes: usize) -> u64 {
        self.cfg
            .uplink_rate
            .transfer_time(bytes + self.cfg.frame_overhead)
    }

    /// Offers a `bytes`-long transfer from the front end toward node
    /// `node` at `now`; returns the instant it is fully delivered at the
    /// node port.
    pub(crate) fn send_to_node(&mut self, now: SimTime, node: usize, bytes: usize) -> SimTime {
        let up = self.uplink_tx_time(bytes);
        let switched = self.uplink.ingress.offer(now, now, up) + self.cfg.latency_ns;
        let down = self.node_tx_time(node, bytes);
        self.nodes[node].egress.offer(now, switched, down)
    }

    /// Offers a `bytes`-long transfer from node `node` toward the front
    /// end at `now`; returns the instant it is fully delivered at the
    /// front-end port.
    pub(crate) fn send_to_frontend(&mut self, now: SimTime, node: usize, bytes: usize) -> SimTime {
        let up = self.node_tx_time(node, bytes);
        let switched = self.nodes[node].ingress.offer(now, now, up) + self.cfg.latency_ns;
        let down = self.uplink_tx_time(bytes);
        self.uplink.egress.offer(now, switched, down)
    }

    /// Offers a `bytes`-long transfer from node `from` toward node `to`
    /// (east-west traffic: re-replication streams); returns the delivery
    /// instant at `to`'s port. Serializes on `from`'s ingress and `to`'s
    /// egress, so repair streams contend with foreground request/response
    /// traffic on both ports — the realistic cost of repairing under
    /// load.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`.
    pub(crate) fn node_to_node(
        &mut self,
        now: SimTime,
        from: usize,
        to: usize,
        bytes: usize,
    ) -> SimTime {
        assert_ne!(from, to, "east-west transfer needs two distinct ports");
        let up = self.node_tx_time(from, bytes);
        let switched = self.nodes[from].ingress.offer(now, now, up) + self.cfg.latency_ns;
        let down = self.node_tx_time(to, bytes);
        self.nodes[to].egress.offer(now, switched, down)
    }

    /// Offers a transfer from the front end toward node `node` on the
    /// given QoS [`Lane`]. [`Lane::Bulk`] is exactly [`Self::send_to_node`];
    /// [`Lane::Priority`] bypasses the output queues.
    pub(crate) fn send_to_node_lane(
        &mut self,
        now: SimTime,
        node: usize,
        bytes: usize,
        lane: Lane,
    ) -> SimTime {
        match lane {
            Lane::Bulk => self.send_to_node(now, node, bytes),
            Lane::Priority => {
                now + self.uplink_tx_time(bytes)
                    + self.cfg.latency_ns
                    + self.node_tx_time(node, bytes)
            }
        }
    }

    /// Offers a transfer from node `node` toward the front end on the
    /// given QoS [`Lane`]. [`Lane::Bulk`] is exactly
    /// [`Self::send_to_frontend`]; [`Lane::Priority`] bypasses the output
    /// queues.
    pub(crate) fn send_to_frontend_lane(
        &mut self,
        now: SimTime,
        node: usize,
        bytes: usize,
        lane: Lane,
    ) -> SimTime {
        match lane {
            Lane::Bulk => self.send_to_frontend(now, node, bytes),
            Lane::Priority => {
                now + self.node_tx_time(node, bytes)
                    + self.cfg.latency_ns
                    + self.uplink_tx_time(bytes)
            }
        }
    }

    /// One-way delay of a `bytes`-long *control-plane* frame between the
    /// front end and node `node` (either direction). Control frames
    /// (heartbeat probes and their acks) ride a strict-priority QoS class:
    /// they pay serialization at both ports and the switching latency but
    /// never queue behind bulk data, so health probing stays responsive —
    /// and deterministic — under any data-plane load. A degraded port
    /// (`set_node_speed_factor`) still slows them.
    pub(crate) fn control_oneway_ns(&self, node: usize, bytes: usize) -> u64 {
        self.node_tx_time(node, bytes) + self.cfg.latency_ns + self.uplink_tx_time(bytes)
    }

    /// Busy time accumulated by node `node`'s port (both directions), ns.
    #[cfg(test)]
    pub(crate) fn node_busy_ns(&self, node: usize) -> u64 {
        self.nodes[node].ingress.busy_time() + self.nodes[node].egress.busy_time()
    }

    /// Busy time accumulated by the uplink (both directions), ns.
    #[cfg(test)]
    pub(crate) fn uplink_busy_ns(&self) -> u64 {
        self.uplink.ingress.busy_time() + self.uplink.egress.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SwitchConfig {
        SwitchConfig {
            port_rate: Bandwidth::gbps(10.0),
            uplink_rate: Bandwidth::gbps(100.0),
            latency_ns: 1_000,
            frame_overhead: 0,
        }
    }

    #[test]
    fn single_transfer_pays_both_ports_plus_latency() {
        let mut sw = TorSwitch::new(2, cfg());
        // 1250 bytes: 100ns at 100G ingress, 1000ns at 10G egress.
        let done = sw.send_to_node(SimTime::ZERO, 0, 1250);
        assert_eq!(done.as_nanos(), 100 + 1_000 + 1_000);
    }

    #[test]
    fn output_queueing_backs_up_the_shared_output_port() {
        let mut sw = TorSwitch::new(2, cfg());
        // Two responses from different nodes contend only at the uplink
        // egress: each serializes on its own node port in parallel.
        let a = sw.send_to_frontend(SimTime::ZERO, 0, 12_500); // 10us up, 1us down
        let b = sw.send_to_frontend(SimTime::ZERO, 1, 12_500);
        assert_eq!(a.as_nanos(), 10_000 + 1_000 + 1_000);
        // b's node serialization overlaps a's; only the uplink is shared.
        assert_eq!(b.as_nanos(), 10_000 + 1_000 + 2 * 1_000);
    }

    #[test]
    fn directions_are_independent() {
        let mut sw = TorSwitch::new(1, cfg());
        let big = 125_000; // 100us on the node port
        let down = sw.send_to_node(SimTime::ZERO, 0, big);
        let up = sw.send_to_frontend(SimTime::ZERO, 0, 1250);
        // The response direction is unaffected by the loaded downlink.
        assert!(up < down, "full duplex: {up:?} vs {down:?}");
    }

    #[test]
    fn degraded_port_slows_only_that_node() {
        let mut sw = TorSwitch::new(2, cfg());
        sw.set_node_speed_factor(0, 0.1);
        let slow = sw.send_to_node(SimTime::ZERO, 0, 1250);
        let fast = sw.send_to_node(SimTime::ZERO, 1, 1250);
        assert!(
            slow.as_nanos() > fast.as_nanos() * 5,
            "{slow:?} vs {fast:?}"
        );
        // Restoring brings it back.
        sw.set_node_speed_factor(0, 1.0);
        let healed = sw.send_to_node(slow, 0, 1250);
        assert_eq!(healed - slow, 100 + 1_000 + 1_000);
    }

    #[test]
    fn busy_accounting_accumulates() {
        let mut sw = TorSwitch::new(1, cfg());
        sw.send_to_node(SimTime::ZERO, 0, 1250);
        sw.send_to_frontend(SimTime::ZERO, 0, 1250);
        assert_eq!(sw.node_busy_ns(0), 2_000);
        assert_eq!(sw.uplink_busy_ns(), 200);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_port_switch_rejected() {
        let _ = TorSwitch::new(0, cfg());
    }

    #[test]
    fn node_to_node_contends_on_both_ports() {
        let mut sw = TorSwitch::new(3, cfg());
        // 1250 bytes: 1us on each 10G node port, plus switching latency.
        let done = sw.node_to_node(SimTime::ZERO, 0, 1, 1250);
        assert_eq!(done.as_nanos(), 1_000 + 1_000 + 1_000);
        // A repair stream into node 1 backs up behind the first chunk's
        // egress; a transfer into node 2 does not.
        let second = sw.node_to_node(SimTime::ZERO, 0, 1, 1250);
        let other = sw.node_to_node(SimTime::ZERO, 2, 0, 1250);
        assert!(second > done, "{second:?} vs {done:?}");
        assert_eq!(other.as_nanos(), 1_000 + 1_000 + 1_000);
        // And the uplink is untouched by east-west traffic.
        assert_eq!(sw.uplink_busy_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "distinct ports")]
    fn node_to_node_rejects_self_transfer() {
        let mut sw = TorSwitch::new(2, cfg());
        let _ = sw.node_to_node(SimTime::ZERO, 1, 1, 100);
    }

    #[test]
    fn priority_lane_bypasses_bulk_queues() {
        let mut sw = TorSwitch::new(2, cfg());
        // Unloaded, both lanes see the same end-to-end delay.
        let mut quiet_sw = sw.clone();
        let bulk_quiet = quiet_sw.send_to_node(SimTime::ZERO, 0, 1250);
        let prio_quiet = sw.send_to_node_lane(SimTime::ZERO, 0, 1250, Lane::Priority);
        assert_eq!(prio_quiet, bulk_quiet);
        // Saturate node 0's port in both directions.
        for _ in 0..64 {
            sw.send_to_node(SimTime::ZERO, 0, 125_000);
            sw.send_to_frontend(SimTime::ZERO, 0, 125_000);
        }
        // Priority frames still see the quiet-network delay; bulk queues.
        assert_eq!(
            sw.send_to_node_lane(SimTime::ZERO, 0, 1250, Lane::Priority),
            prio_quiet
        );
        assert_eq!(
            sw.send_to_frontend_lane(SimTime::ZERO, 0, 1250, Lane::Priority)
                .as_nanos(),
            1_000 + 1_000 + 100,
        );
        assert!(sw.send_to_node_lane(SimTime::ZERO, 0, 1250, Lane::Bulk) > prio_quiet);
        // A degraded port slows priority frames too (it is the wire, not
        // the queue, that degraded).
        sw.set_node_speed_factor(0, 0.1);
        assert!(sw.send_to_node_lane(SimTime::ZERO, 0, 1250, Lane::Priority) > prio_quiet);
    }

    #[test]
    fn bulk_lane_is_the_default_path() {
        let mut a = TorSwitch::new(1, cfg());
        let mut b = TorSwitch::new(1, cfg());
        assert_eq!(Lane::default(), Lane::Bulk);
        assert_eq!(
            a.send_to_node(SimTime::ZERO, 0, 9_999),
            b.send_to_node_lane(SimTime::ZERO, 0, 9_999, Lane::Bulk),
        );
        assert_eq!(
            a.send_to_frontend(SimTime::ZERO, 0, 9_999),
            b.send_to_frontend_lane(SimTime::ZERO, 0, 9_999, Lane::Bulk),
        );
    }

    #[test]
    fn control_lane_never_queues() {
        let mut sw = TorSwitch::new(2, cfg());
        let quiet = sw.control_oneway_ns(0, 128);
        // Saturate node 0's data path; the control lane is unaffected.
        for _ in 0..64 {
            sw.send_to_node(SimTime::ZERO, 0, 125_000);
            sw.send_to_frontend(SimTime::ZERO, 0, 125_000);
        }
        assert_eq!(sw.control_oneway_ns(0, 128), quiet);
        // A degraded port does slow the control frame's serialization.
        sw.set_node_speed_factor(0, 0.1);
        assert!(sw.control_oneway_ns(0, 128) > quiet);
    }
}
