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
//!
//! The wire takes a whole send at once: an LSO send's frames, or one
//! control frame, in one [`TransmitFrame`]. Each frame is booked on its
//! direction's transmitter as the send arrives and waits in that
//! direction's queue; one internal `Serialized` event runs per frame,
//! scheduled when the frame before it finishes, so it always lands one
//! frame time ahead, inside the calendar's near horizon. The wire
//! records each frame's `wire-tx` span from the two known times.
//!
//! Events per wire frame of an LSO send of `n` frames, before and after
//! the wire took whole sends:
//!
//! | event | one message per frame | one message per send |
//! |---|---|---|
//! | [`TransmitFrame`] to the wire | 1 | 1/`n` |
//! | `Serialized` on the wire | 1 | 1 |
//! | [`TransmitDone`] to the sender | 1 | 1/`n` |
//! | [`FrameDelivery`] to the receiver | 1 | 1 |

use std::collections::VecDeque;

use dcs_sim::{fault, time, Bandwidth, Component, ComponentId, Ctx, FifoServer, Msg, SimTime};

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

/// Asks the wire to transmit `frames`, in order, from the sending NIC
/// (identified by the message source) to the opposite endpoint: every
/// frame of one LSO send, or one control frame.
#[derive(Debug)]
pub struct TransmitFrame {
    /// Sender-chosen token echoed in [`TransmitDone`].
    pub id: u64,
    /// The complete frames' bytes.
    pub frames: Vec<Vec<u8>>,
}

/// Tells the sending NIC the last frame of a [`TransmitFrame`] has fully
/// left the adapter (transmit serialization finished) — the point at
/// which transmit resources free up.
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

/// Internal: the head frame of direction `dir` has finished serializing.
#[derive(Debug)]
struct Serialized {
    dir: usize,
}

/// A frame waiting for, or in, serialization.
struct Queued {
    /// Its send's token.
    send: u64,
    /// Whether it is its send's last frame.
    last: bool,
    /// When its serialization ends.
    done: SimTime,
    frame: Vec<u8>,
}

/// The point-to-point link component.
///
/// Each direction keeps its frames in a queue, each with the end of its
/// serialization booked on arrival; one `Serialized` self-event runs
/// per frame, scheduled when the frame before it finishes, so it always
/// lands one frame time ahead.
pub struct Wire {
    config: WireConfig,
    endpoints: [ComponentId; 2],
    tx: [FifoServer; 2],
    queues: [VecDeque<Queued>; 2],
}

impl Wire {
    /// A wire between two NIC components.
    pub fn new(config: WireConfig, a: ComponentId, b: ComponentId) -> Self {
        assert_ne!(a, b, "a wire needs two distinct endpoints");
        Wire {
            config,
            endpoints: [a, b],
            tx: [FifoServer::new(), FifoServer::new()],
            queues: [VecDeque::new(), VecDeque::new()],
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

    /// Books each of the send's frames on its direction's transmitter and
    /// queues them behind any frames already waiting.
    fn on_transmit(&mut self, ctx: &mut Ctx<'_>, dir: usize, tf: TransmitFrame) {
        let now = ctx.now();
        let n = tf.frames.len();
        let bytes: usize = tf.frames.iter().map(Vec::len).sum();
        let idle = self.queues[dir].is_empty();
        for (i, frame) in tf.frames.into_iter().enumerate() {
            let service = self.config.rate.transfer_time(frame.len() + FRAME_OVERHEAD);
            let done = self.tx[dir].offer(now, service);
            ctx.world().obs.span("nic", "wire-tx", tf.id, now, done);
            self.queues[dir].push_back(Queued {
                send: tf.id,
                last: i + 1 == n,
                done,
                frame,
            });
        }
        let stats = &mut ctx.world().stats;
        stats.counter("wire.frames").add(n as u64);
        stats.counter("wire.bytes").add(bytes as u64);
        if idle {
            if let Some(head) = self.queues[dir].front() {
                ctx.send_at(head.done, ctx.self_id(), Serialized { dir });
            }
        }
    }

    /// The head frame of `dir` left the transmitter: notify the sender at
    /// its send's last frame, draw the delivery faults, deliver it after
    /// the propagation delay, and wake again at the next frame's end.
    fn on_serialized(&mut self, ctx: &mut Ctx<'_>, dir: usize) {
        let q = self.queues[dir]
            .pop_front()
            .expect("a serialization event belongs to a queued frame");
        if let Some(next) = self.queues[dir].front() {
            ctx.send_at(next.done, ctx.self_id(), Serialized { dir });
        }
        if q.last {
            ctx.send_now(self.endpoints[dir], TransmitDone { id: q.send });
        }
        let mut frame = q.frame;
        if fault::inject(ctx.world(), fault::WIRE_DROP).is_some() {
            ctx.world().stats.counter("wire.dropped").add(1);
            return;
        }
        if let Some(entropy) = fault::inject(ctx.world(), fault::WIRE_CORRUPT) {
            if frame.len() > 14 {
                // Flip one bit inside the checksummed region (past the
                // Ethernet header) so the receiver's IP/TCP checksum
                // validation is guaranteed to reject it.
                let idx = 14 + (entropy % (frame.len() - 14) as u64) as usize;
                frame[idx] ^= 1 << ((entropy >> 32) % 8);
                ctx.world().stats.counter("wire.corrupted").add(1);
            }
        }
        ctx.send_in(
            PROPAGATION_NS,
            self.endpoints[1 - dir],
            FrameDelivery { frame },
        );
    }
}

impl Component for Wire {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // The sender's identity comes from the message envelope, captured
        // before the downcast consumes the message.
        let src = msg.src;
        let msg = match msg.downcast::<Serialized>() {
            Ok(s) => return self.on_serialized(ctx, s.dir),
            Err(m) => m,
        };
        match msg.downcast::<TransmitFrame>() {
            Ok(tf) => {
                let dir = self.direction_of(src);
                self.on_transmit(ctx, dir, tf);
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
