//! The cable between two nodes.
//!
//! A full-duplex point-to-point Ethernet segment: frames from each endpoint
//! serialize at line rate (plus per-frame preamble/IFG/FCS overhead) on
//! that endpoint's transmit direction, then arrive at the peer after a
//! propagation delay. Delivery is in order and — unless a fault plan says
//! otherwise — lossless, the model's stand-in for a healthy switched LAN,
//! which is what the paper's two-node testbed used.
//!
//! With a [`dcs_sim::FaultPlan`] installed, the delivery leg consults the
//! `wire.drop` and `wire.corrupt` sites: a dropped frame vanishes after
//! serialization (the sender still sees its transmit complete, as on real
//! Ethernet), and a corrupted frame has one bit flipped inside the
//! checksummed IP/TCP region so the receiver's parse path rejects it.

use dcs_sim::{fault, time, Bandwidth, Component, ComponentId, Ctx, FifoServer, Msg};

/// Physical-layer overhead added to every frame: preamble (8) +
/// inter-frame gap (12) + FCS (4) bytes.
pub const FRAME_OVERHEAD: usize = 24;
/// One-way propagation + switch latency.
pub const PROPAGATION_NS: u64 = time::us(2);

/// Wire timing parameters.
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Line rate of the link (10 Gbps for the BCM57711; Figure 13 projects
    /// 40 Gbps).
    pub rate: Bandwidth,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            rate: Bandwidth::gbps(10.0),
        }
    }
}

/// Asks the wire to transmit `frame` from the sending NIC (identified by
/// the message source) to the opposite endpoint.
#[derive(Debug)]
pub struct TransmitFrame {
    /// Sender-chosen token echoed in [`TransmitDone`].
    pub id: u64,
    /// The complete frame bytes.
    pub frame: Vec<u8>,
}

/// Tells the sending NIC its frame has fully left the adapter (transmit
/// serialization finished) — the point at which transmit resources free up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransmitDone {
    /// Token from the originating [`TransmitFrame`].
    pub id: u64,
}

/// Delivers a frame to the receiving NIC.
#[derive(Debug)]
pub struct FrameDelivery {
    /// The complete frame bytes.
    pub frame: Vec<u8>,
}

/// Internal: a frame has finished serializing; deliver + notify.
#[derive(Debug)]
struct Serialized {
    id: u64,
    to: ComponentId,
    notify: ComponentId,
    frame: Vec<u8>,
}

/// The point-to-point link component.
pub struct Wire {
    config: WireConfig,
    endpoints: [ComponentId; 2],
    tx: [FifoServer; 2],
}

impl Wire {
    /// A wire between two NIC components.
    pub fn new(config: WireConfig, a: ComponentId, b: ComponentId) -> Self {
        assert_ne!(a, b, "a wire needs two distinct endpoints");
        Wire {
            config,
            endpoints: [a, b],
            tx: [FifoServer::new(), FifoServer::new()],
        }
    }

    fn direction_of(&self, sender: ComponentId) -> usize {
        if sender == self.endpoints[0] {
            0
        } else if sender == self.endpoints[1] {
            1
        } else {
            panic!("frame from component {sender} not attached to this wire");
        }
    }
}

impl Component for Wire {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // The sender's identity comes from the message envelope, captured
        // before the downcast consumes the message.
        let src = msg.src;
        let msg = match msg.downcast::<TransmitFrame>() {
            Ok(tf) => {
                let dir = self.direction_of(src);
                let service = self
                    .config
                    .rate
                    .transfer_time(tf.frame.len() + FRAME_OVERHEAD);
                let done = self.tx[dir].offer(ctx.now(), service);
                let to = self.endpoints[1 - dir];
                let notify = self.endpoints[dir];
                ctx.world().stats.counter("wire.frames").add(1);
                ctx.world()
                    .stats
                    .counter("wire.bytes")
                    .add(tf.frame.len() as u64);
                let delay = done - ctx.now();
                ctx.send_self_in(
                    delay,
                    Serialized {
                        id: tf.id,
                        to,
                        notify,
                        frame: tf.frame,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<Serialized>() {
            Ok(s) => {
                ctx.send_now(s.notify, TransmitDone { id: s.id });
                let mut frame = s.frame;
                if fault::inject(ctx.world(), fault::WIRE_DROP).is_some() {
                    ctx.world().stats.counter("wire.dropped").add(1);
                    return;
                }
                if let Some(entropy) = fault::inject(ctx.world(), fault::WIRE_CORRUPT) {
                    if frame.len() > 14 {
                        // Flip one bit inside the checksummed region (past
                        // the Ethernet header) so the receiver's IP/TCP
                        // checksum validation is guaranteed to reject it.
                        let idx = 14 + (entropy % (frame.len() - 14) as u64) as usize;
                        frame[idx] ^= 1 << ((entropy >> 32) % 8);
                        ctx.world().stats.counter("wire.corrupted").add(1);
                    }
                }
                let prop = PROPAGATION_NS;
                ctx.send_in(prop, s.to, FrameDelivery { frame });
            }
            Err(other) => panic!("Wire received unexpected message: {other:?}"),
        }
    }
}

/// Creates and installs a wire between two already-reserved NIC ids.
pub fn install_wire(
    sim: &mut dcs_sim::Simulator,
    config: WireConfig,
    a: ComponentId,
    b: ComponentId,
) -> ComponentId {
    sim.add("wire", Wire::new(config, a, b))
}
