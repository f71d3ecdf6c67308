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
//! direction's transmitter as the send arrives, so its serialization end
//! is known then, and waits in that direction's queue. The wire books a
//! queued frame's [`FrameDelivery`] (at its end plus [`PROPAGATION_NS`])
//! and its send's [`TransmitDone`] (at the last frame's end) in batches:
//! when a send reaches an idle queue, and at the end of the first frame
//! left unbooked, each time every frame that ends within `BOOK_AHEAD_NS`
//! (half the calendar's near horizon). A deep queue so costs one wake
//! per `BOOK_AHEAD_NS`, about 27 full-size frames at 10 Gbps, and every
//! booking lands in the calendar's ring: booking a whole deep queue at
//! once would push its later deliveries into the far-tier heap. The
//! `wire.drop` and `wire.corrupt` draws are made at booking time, one
//! per frame, in frame order. The wire records each frame's `wire-tx`
//! span from the two known times.
//!
//! Events per wire frame of an LSO send of `n` frames:
//!
//! | event | per frame |
//! |---|---|
//! | [`TransmitFrame`] to the wire | 1/`n` |
//! | `BookNext` on the wire | about 1/27 on a deep queue |
//! | [`TransmitDone`] to the sender | 1/`n` |
//! | [`FrameDelivery`] to the receiver | 1 |

use std::collections::VecDeque;

use dcs_sim::{
    fault, time, Bandwidth, Component, ComponentId, Ctx, FifoServer, Msg, SimTime, NEAR_HORIZON_NS,
};

/// Physical-layer overhead added to every frame: preamble (8) +
/// inter-frame gap (12) + FCS (4) bytes.
pub const FRAME_OVERHEAD: usize = 24;
/// One-way propagation + switch latency.
pub const PROPAGATION_NS: u64 = time::us(2);
/// How far ahead the wire books queued frames: a frame whose
/// serialization ends within this of now has its delivery booked. Half
/// the calendar's near horizon, so every booking lands in the ring.
const BOOK_AHEAD_NS: u64 = NEAR_HORIZON_NS / 2;

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

/// Internal: the head frame of direction `dir` ends now; book the next
/// batch.
#[derive(Debug)]
struct BookNext {
    dir: usize,
}

/// A frame whose serialization end is known but whose delivery is not
/// booked yet.
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
/// Each direction keeps its unbooked frames in a queue, each with the
/// end of its serialization booked on arrival; the frames ending within
/// `BOOK_AHEAD_NS` have their deliveries booked, and one `BookNext`
/// self-event per direction waits for the rest.
pub struct Wire {
    config: WireConfig,
    endpoints: [ComponentId; 2],
    tx: [FifoServer; 2],
    queues: [VecDeque<Queued>; 2],
    /// A `BookNext` is pending for the direction.
    waking: [bool; 2],
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
            waking: [false; 2],
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

    /// Books each of the send's frames on its direction's transmitter,
    /// queues them behind any frames already waiting, and books what is
    /// due unless a wake for the direction is pending.
    fn on_transmit(&mut self, ctx: &mut Ctx<'_>, dir: usize, tf: TransmitFrame) {
        let now = ctx.now();
        let n = tf.frames.len();
        let bytes: usize = tf.frames.iter().map(Vec::len).sum();
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
        if !self.waking[dir] {
            self.book(ctx, dir);
        }
    }

    /// Books every queued frame of `dir` whose serialization ends within
    /// `BOOK_AHEAD_NS`, in order, then wakes at the next one's end to
    /// book the batch after it: one wake per `BOOK_AHEAD_NS` of a deep
    /// queue, and every frame booked by its end.
    fn book(&mut self, ctx: &mut Ctx<'_>, dir: usize) {
        let now = ctx.now();
        let queue = &mut self.queues[dir];
        while let Some(q) = queue.pop_front_if(|q| q.done - now <= BOOK_AHEAD_NS) {
            deliver(ctx, self.endpoints, dir, q);
        }
        self.waking[dir] = match queue.front() {
            Some(next) => {
                ctx.send_at(next.done, ctx.self_id(), BookNext { dir });
                true
            }
            None => false,
        };
    }
}

/// Books frame `q` of direction `dir` between `endpoints`: notifies the
/// sender at its send's last frame's end, draws the delivery faults and
/// delivers it after the propagation delay.
fn deliver(ctx: &mut Ctx<'_>, endpoints: [ComponentId; 2], dir: usize, q: Queued) {
    if q.last {
        ctx.send_at(q.done, endpoints[dir], TransmitDone { id: q.send });
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
    ctx.send_at(
        q.done + PROPAGATION_NS,
        endpoints[1 - dir],
        FrameDelivery { frame },
    );
}

impl Component for Wire {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // The sender's identity comes from the message envelope, captured
        // before the downcast consumes the message.
        let src = msg.src;
        let msg = match msg.downcast::<TransmitFrame>() {
            Ok(tf) => {
                let dir = self.direction_of(src);
                return self.on_transmit(ctx, dir, tf);
            }
            Err(m) => m,
        };
        match msg.downcast::<BookNext>() {
            Ok(b) => self.book(ctx, b.dir),
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

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_sim::{FaultPlan, FaultSpec, Rng, Simulator};

    /// What an endpoint received.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Done(u64),
        Frame(Vec<u8>),
    }

    /// Every arrival at either endpoint, in delivery order (a `World`
    /// resource).
    #[derive(Default)]
    struct Log(Vec<(SimTime, ComponentId, Seen)>);

    /// Asks an endpoint to hand send `.0`'s frames `.1` to its wire.
    #[derive(Debug)]
    struct Go(u64, Vec<Vec<u8>>);

    /// A NIC stand-in: forwards [`Go`] sends to the wire and logs what
    /// the wire delivers.
    struct Endpoint {
        wire: ComponentId,
    }

    impl Component for Endpoint {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let msg = match msg.downcast::<Go>() {
                Ok(Go(id, frames)) => {
                    return ctx.send_now(self.wire, TransmitFrame { id, frames });
                }
                Err(m) => m,
            };
            let seen = match msg.downcast::<TransmitDone>() {
                Ok(done) => Seen::Done(done.id),
                Err(m) => Seen::Frame(m.downcast::<FrameDelivery>().expect("a frame").frame),
            };
            let (now, me) = (ctx.now(), ctx.self_id());
            ctx.world().expect_mut::<Log>().0.push((now, me, seen));
        }
    }

    const LEN: usize = 1500;

    /// Serialization time of one `LEN`-byte frame at the default rate.
    fn ser() -> u64 {
        WireConfig::default()
            .rate
            .transfer_time(LEN + FRAME_OVERHEAD)
    }

    /// Frames `from..to`, each filled with its own index.
    fn frames(from: usize, to: usize) -> Vec<Vec<u8>> {
        (from..to).map(|i| vec![i as u8; LEN]).collect()
    }

    /// Two endpoints on a default wire, under `plan` if given.
    fn rig(plan: Option<FaultPlan>) -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new(1);
        let a = sim.reserve("a");
        let b = sim.reserve("b");
        let wire = install_wire(&mut sim, WireConfig::default(), a, b);
        sim.install(a, Endpoint { wire });
        sim.install(b, Endpoint { wire });
        sim.world_mut().insert(Log::default());
        if let Some(plan) = plan {
            sim.world_mut().insert(plan);
        }
        (sim, a, b)
    }

    /// The arrivals at `at`, in order.
    fn seen(sim: &Simulator, at: ComponentId) -> Vec<(u64, &Seen)> {
        let log = &sim.world().expect::<Log>().0;
        log.iter()
            .filter(|(_, c, _)| *c == at)
            .map(|(t, _, s)| (t.as_nanos(), s))
            .collect()
    }

    /// Frame `i` of a queue that started serializing at `start` arrives
    /// one frame time after frame `i - 1`.
    fn arrival(start: u64, i: usize) -> u64 {
        start + (i as u64 + 1) * ser() + PROPAGATION_NS
    }

    #[test]
    fn an_n_frame_send_delivers_frame_i_one_frame_time_after_the_last() {
        let (mut sim, a, b) = rig(None);
        let start = 1_000;
        sim.schedule_at(SimTime::from_nanos(start), a, Go(7, frames(0, 5)));
        sim.run();
        let want: Vec<(u64, Seen)> = (0..5)
            .map(|i| (arrival(start, i), Seen::Frame(vec![i as u8; LEN])))
            .collect();
        let got = seen(&sim, b);
        assert_eq!(got.len(), want.len());
        for ((t, s), (wt, ws)) in got.into_iter().zip(&want) {
            assert_eq!((t, s), (*wt, ws));
        }
        assert_eq!(seen(&sim, a), [(start + 5 * ser(), &Seen::Done(7))]);
    }

    #[test]
    fn back_to_back_sends_stay_in_fifo_order() {
        let (mut sim, a, b) = rig(None);
        let start = 1_000;
        sim.schedule_at(SimTime::from_nanos(start), a, Go(1, frames(0, 3)));
        sim.schedule_at(SimTime::from_nanos(start), a, Go(2, frames(3, 6)));
        // Arrives while the first two are still serializing.
        let late = start + 2 * ser() + 1;
        sim.schedule_at(SimTime::from_nanos(late), a, Go(3, frames(6, 9)));
        // The other direction runs on its own transmitter.
        sim.schedule_at(SimTime::from_nanos(start), b, Go(4, frames(100, 101)));
        sim.run();
        let to_b = seen(&sim, b);
        let frames_b: Vec<(u64, u8)> = to_b
            .iter()
            .filter_map(|(t, s)| match s {
                Seen::Frame(f) => Some((*t, f[0])),
                Seen::Done(_) => None,
            })
            .collect();
        let want: Vec<(u64, u8)> = (0..9).map(|i| (arrival(start, i), i as u8)).collect();
        assert_eq!(frames_b, want);
        let to_a = seen(&sim, a);
        let dones: Vec<(u64, u64)> = to_a
            .iter()
            .filter_map(|(t, s)| match s {
                Seen::Done(id) => Some((*t, *id)),
                Seen::Frame(_) => None,
            })
            .collect();
        let end = |n: u64| start + n * ser();
        assert_eq!(dones, [(end(3), 1), (end(6), 2), (end(9), 3)]);
        assert!(to_a.contains(&(arrival(start, 0), &Seen::Frame(vec![100; LEN]))));
        assert!(to_b.contains(&(end(1), &Seen::Done(4))));
    }

    #[test]
    fn a_queue_deeper_than_the_horizon_is_booked_in_batches_on_time() {
        let (mut sim, a, b) = rig(None);
        sim.enable_host_profile();
        let n = 200;
        let start = 1_000;
        assert!(n as u64 * ser() > 3 * NEAR_HORIZON_NS);
        sim.schedule_at(SimTime::from_nanos(start), a, Go(9, frames(0, n)));
        sim.run();
        let got = seen(&sim, b);
        assert_eq!(got.len(), n);
        for (i, (t, s)) in got.into_iter().enumerate() {
            assert_eq!(
                (t, s),
                (arrival(start, i), &Seen::Frame(vec![i as u8; LEN]))
            );
        }
        assert_eq!(seen(&sim, a), [(start + n as u64 * ser(), &Seen::Done(9))]);
        let wakes: u64 = sim
            .host_profile()
            .iter()
            .filter(|r| r.component == "wire" && r.payload == "BookNext")
            .map(|r| r.calls)
            .sum();
        // One wake per batch of frames ending within half the calendar's
        // near horizon, so no booking reaches past the horizon.
        let per_batch = NEAR_HORIZON_NS / 2 / ser();
        assert_eq!(wakes, (n as u64 - 1) / per_batch);
    }

    #[test]
    fn transmit_done_comes_once_per_send_at_its_last_frames_end() {
        let (mut sim, a, _) = rig(None);
        let start = 1_000;
        let sizes = [1, 40, 2, 60];
        let mut from = 0;
        for (id, n) in sizes.iter().enumerate() {
            sim.schedule_at(
                SimTime::from_nanos(start),
                a,
                Go(id as u64, frames(from, from + n)),
            );
            from += n;
        }
        sim.run();
        let mut end = 0;
        let want: Vec<(u64, Seen)> = sizes
            .iter()
            .enumerate()
            .map(|(id, n)| {
                end += n;
                (start + end as u64 * ser(), Seen::Done(id as u64))
            })
            .collect();
        let got = seen(&sim, a);
        assert_eq!(got.len(), want.len());
        for ((t, s), (wt, ws)) in got.into_iter().zip(&want) {
            assert_eq!((t, s), (*wt, ws));
        }
    }

    #[test]
    fn drop_and_corrupt_draws_are_one_per_frame_in_frame_order() {
        let mut plan = FaultPlan::new(Rng::new(1));
        plan.enable(fault::WIRE_DROP, FaultSpec::Nth(vec![1, 40]));
        // Counts the frames that were not dropped: the 31st of them is
        // frame 31, in the second booked batch.
        plan.enable(fault::WIRE_CORRUPT, FaultSpec::Nth(vec![30]));
        let (mut sim, a, b) = rig(Some(plan));
        let start = 1_000;
        let n = 60;
        sim.schedule_at(SimTime::from_nanos(start), a, Go(5, frames(0, n)));
        sim.run();
        let got = seen(&sim, b);
        let kept: Vec<usize> = (0..n).filter(|&i| i != 1 && i != 40).collect();
        assert_eq!(got.len(), kept.len());
        for ((t, s), &i) in got.into_iter().zip(&kept) {
            assert_eq!(t, arrival(start, i));
            let Seen::Frame(f) = s else {
                panic!("frame {i} expected, got {s:?}");
            };
            let flipped: u32 = f.iter().map(|&byte| (byte ^ i as u8).count_ones()).sum();
            assert_eq!(flipped, u32::from(i == 31), "frame {i}");
            assert!(f[..14].iter().all(|&byte| byte == i as u8), "frame {i}");
        }
        assert_eq!(seen(&sim, a), [(start + n as u64 * ser(), &Seen::Done(5))]);
        let stats = &sim.world().stats;
        assert_eq!(stats.counter_value("wire.dropped"), 2);
        assert_eq!(stats.counter_value("wire.corrupted"), 1);
    }
}
