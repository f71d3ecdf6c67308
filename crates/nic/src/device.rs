//! The NIC device component.
//!
//! Transmit: doorbell → batched descriptor fetch (DMA) → header-template
//! and payload gather (DMA) → LSO segmentation with per-segment header
//! fix-up (real sequence numbers and checksums) → the send's frames handed
//! to the wire in one message → per-descriptor completion MSI when the
//! wire reports the last segment gone.
//!
//! Receive: frames arrive from the wire → next posted buffer descriptor →
//! frame DMA into the buffer → write-back record → interrupt-coalesced MSI.
//! A frame arriving with no posted buffer is dropped and counted, as real
//! adapters do.
//!
//! Device memory: descriptor batches, send gathers and received frames
//! live in the adapter's own buffers, which have no host-visible address.
//! Fetches and gathers are fabric reads whose completions carry the bytes,
//! and a received frame is a posted write that carries them, so nothing
//! the NIC holds occupies [`PhysMemory`].
//!
//! Every DMA, MSI and doorbell is booked inline on the node's fabric
//! ([`dcs_pcie::dma`], [`dcs_pcie::msi`]): a received frame costs the NIC
//! two events, its [`FrameDelivery`] and its write's [`DmaComplete`].

use std::collections::VecDeque;

use dcs_pcie::{
    aer, AddrRange, DmaComplete, DmaOp, DmaRequest, FabricId, MmioWrite, Msi, PhysAddr, PhysMemory,
    PortId, TlpClass,
};
use dcs_sim::{fault, time, Component, ComponentId, Ctx, DetMap, Msg, Simulator};

use crate::headers::{build_frame_in_place, parse_template};
use crate::ring::{RecvDescriptor, RecvWriteback, SendDescriptor};
use crate::wire::{FrameDelivery, TransmitDone, TransmitFrame};

/// TCP maximum segment size used by LSO segmentation (a send
/// descriptor with `mss` 0 gets this one).
pub const MSS: u16 = 1448;
/// Device-side handling cost folded into each descriptor fetch, in ns.
pub const DESCRIPTOR_OVERHEAD_NS: u64 = 300;
/// Receive interrupt coalescing window, in ns.
pub const IRQ_COALESCE_NS: u64 = time::us(4);

/// NIC protocol parameters.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Largest payload a single send descriptor may carry.
    pub max_lso: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig { max_lso: 64 * 1024 }
    }
}

/// One-time ring/interrupt configuration, sent by the initiator before
/// first use (condenses the driver's probe-time register programming).
#[derive(Debug, Clone, Copy)]
pub struct ConfigureNic {
    /// Send descriptor ring base (initiator memory).
    pub send_ring_base: PhysAddr,
    /// Send ring depth in entries.
    pub send_ring_depth: u16,
    /// Receive descriptor ring base.
    pub recv_ring_base: PhysAddr,
    /// Receive ring depth in entries.
    pub recv_ring_depth: u16,
    /// Write-back ring base (parallel to the receive ring, 8-byte entries).
    pub wb_ring_base: PhysAddr,
    /// MSI target for transmit completions.
    pub tx_msi_addr: PhysAddr,
    /// MSI vector for transmit completions.
    pub tx_msi_vector: u32,
    /// MSI target for receive notifications.
    pub rx_msi_addr: PhysAddr,
    /// MSI vector for receive notifications.
    pub rx_msi_vector: u32,
}

/// Handle returned by [`install_nic`].
#[derive(Debug, Clone)]
pub struct NicHandle {
    /// The NIC component.
    pub device: ComponentId,
    /// Register BAR (doorbells).
    pub bar: AddrRange,
    /// PCIe port the NIC occupies.
    pub port: PortId,
    /// Largest payload one send descriptor may carry, in bytes
    /// ([`NicConfig::max_lso`]). Initiators split larger sends at this
    /// size.
    pub max_lso: usize,
}

impl NicHandle {
    /// Transmit doorbell register (write the new send-ring producer index).
    pub fn tx_doorbell(&self) -> PhysAddr {
        self.bar.start + 0x100
    }

    /// Receive doorbell register (write the new recv-ring producer index).
    pub fn rx_doorbell(&self) -> PhysAddr {
        self.bar.start + 0x104
    }
}

/// Internal: raise the coalesced receive interrupt.
#[derive(Debug)]
struct RaiseRxIrq;

/// Asks the NIC to transmit a fully-formed frame directly, bypassing the
/// descriptor ring. Drivers use this for protocol control traffic (pure
/// ACKs during fault recovery); no completion MSI is raised for it.
#[derive(Debug)]
pub struct ControlFrame {
    /// The complete frame bytes.
    pub frame: Vec<u8>,
}

#[derive(Clone, Copy)]
enum DmaPurpose {
    /// A read of `count` send descriptors from ring index `start_idx`.
    TxDescBatch {
        start_idx: u16,
        count: u16,
        refetched: bool,
    },
    /// A send op's header (`header`) or payload gather; both must land
    /// before segmentation. A poisoned gather is re-fetched once from the
    /// op's descriptor.
    TxGather {
        op: u64,
        header: bool,
        refetched: bool,
    },
    /// A read of `count` receive descriptors from ring index `start_idx`.
    RxDescBatch {
        start_idx: u16,
        count: u16,
        refetched: bool,
    },
    /// A received frame being written into the posted buffer `ring_idx`.
    RxDeliver { ring_idx: u16, frame_len: usize },
}

/// A send op between its descriptor fetch and its segmentation.
struct TxOp {
    desc: SendDescriptor,
    /// The gathered header template and payload (empty until landed).
    template: Vec<u8>,
    payload: Vec<u8>,
    /// Gathers still in flight (a re-fetch continues its gather).
    gathers_left: u8,
    /// A gather failed twice: the op is dropped once its sibling ends.
    aborted: bool,
}

/// The NIC component.
pub struct NicDevice {
    config: NicConfig,
    fabric: FabricId,
    wire: ComponentId,
    bar: AddrRange,
    /// The NIC's PCIe port: the device end of its DMAs.
    port: PortId,
    rings: Option<ConfigureNic>,
    /// Device-side consumer indices.
    tx_cons: u16,
    rx_cons: u16,
    /// In-flight DMA bookkeeping.
    dmas: DetMap<u64, DmaPurpose>,
    tx_ops: DetMap<u64, TxOp>,
    /// Wire-transmit token → whether its end raises the transmit MSI
    /// (an LSO send's does, a control frame's does not).
    sends: DetMap<u64, bool>,
    /// Posted receive buffers in ring order.
    posted: VecDeque<(u16, RecvDescriptor)>,
    /// Ring index of the next posted buffer / write-back slot.
    rx_wb_next: u16,
    next_token: u64,
    irq_pending: bool,
}

impl NicDevice {
    /// Creates a NIC with register BAR `bar`, sitting behind `port`.
    pub fn new(
        config: NicConfig,
        fabric: FabricId,
        wire: ComponentId,
        bar: AddrRange,
        port: PortId,
    ) -> Self {
        NicDevice {
            config,
            fabric,
            wire,
            bar,
            port,
            rings: None,
            tx_cons: 0,
            rx_cons: 0,
            dmas: DetMap::new(),
            tx_ops: DetMap::new(),
            sends: DetMap::new(),
            posted: VecDeque::new(),
            rx_wb_next: 0,
            next_token: 1,
            irq_pending: false,
        }
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn rings(&self) -> &ConfigureNic {
        self.rings.as_ref().expect("NIC used before ConfigureNic")
    }

    /// Span name for a DMA's purpose (also the `span_end` key on
    /// completion).
    fn purpose_span(purpose: &DmaPurpose) -> &'static str {
        match purpose {
            DmaPurpose::TxDescBatch { .. } => "tx-desc-fetch",
            DmaPurpose::TxGather { .. } => "tx-gather",
            DmaPurpose::RxDescBatch { .. } => "rx-desc-fetch",
            DmaPurpose::RxDeliver { .. } => "rx-deliver",
        }
    }

    fn dma(&mut self, ctx: &mut Ctx<'_>, op: DmaOp, purpose: DmaPurpose) {
        let token = self.token();
        {
            let now = ctx.now();
            ctx.world()
                .obs
                .span_begin("nic", Self::purpose_span(&purpose), token, now);
        }
        self.dmas.insert(token, purpose);
        let req = DmaRequest {
            id: token,
            op,
            class: TlpClass::Data,
        };
        dcs_pcie::dma(ctx, self.fabric, req);
    }

    /// Reads `len` bytes at `src` into the adapter.
    fn read(&mut self, ctx: &mut Ctx<'_>, src: PhysAddr, len: usize, purpose: DmaPurpose) {
        let port = self.port;
        self.dma(ctx, DmaOp::Read { port, src, len }, purpose);
    }

    fn on_doorbell(&mut self, ctx: &mut Ctx<'_>, write: &MmioWrite) {
        let off = write.addr - self.bar.start;
        let value = u32::from_le_bytes(
            write
                .data
                .as_slice()
                .try_into()
                .expect("doorbell writes are 4 bytes"),
        ) as u16;
        match off {
            0x100 => self.fetch_descriptors(ctx, value, true),
            0x104 => self.fetch_descriptors(ctx, value, false),
            _ => panic!("write to unmodeled NIC register {off:#x}"),
        }
    }

    /// Fetches ring entries `[cons, prod)` in at most two contiguous DMAs
    /// (two when the range wraps).
    fn fetch_descriptors(&mut self, ctx: &mut Ctx<'_>, prod: u16, is_tx: bool) {
        let rings = *self.rings();
        let (base, depth, entry, cons) = if is_tx {
            (
                rings.send_ring_base,
                rings.send_ring_depth,
                SendDescriptor::SIZE,
                self.tx_cons,
            )
        } else {
            (
                rings.recv_ring_base,
                rings.recv_ring_depth,
                RecvDescriptor::SIZE,
                self.rx_cons,
            )
        };
        let prod = prod % depth;
        let mut idx = cons;
        while idx != prod {
            let run_end = if prod > idx { prod } else { depth };
            let count = run_end - idx;
            let src = base + idx as u64 * entry as u64;
            let purpose = if is_tx {
                DmaPurpose::TxDescBatch {
                    start_idx: idx,
                    count,
                    refetched: false,
                }
            } else {
                DmaPurpose::RxDescBatch {
                    start_idx: idx,
                    count,
                    refetched: false,
                }
            };
            self.read(ctx, src, count as usize * entry, purpose);
            idx = run_end % depth;
        }
        if is_tx {
            self.tx_cons = prod;
        } else {
            self.rx_cons = prod;
        }
    }

    /// Parses a landed batch of send descriptors and starts each op's
    /// header and payload gathers.
    fn on_tx_descs(&mut self, ctx: &mut Ctx<'_>, batch: &[u8]) {
        for raw in batch.as_chunks::<{ SendDescriptor::SIZE }>().0 {
            let desc = SendDescriptor::from_bytes(raw);
            assert!(
                desc.payload_len as usize <= self.config.max_lso,
                "send of {} bytes exceeds the {}-byte LSO limit",
                desc.payload_len,
                self.config.max_lso
            );
            let op = self.token();
            self.tx_ops.insert(
                op,
                TxOp {
                    desc,
                    template: Vec::new(),
                    payload: Vec::new(),
                    gathers_left: 2,
                    aborted: false,
                },
            );
            for header in [true, false] {
                self.gather(ctx, op, header, false);
            }
        }
    }

    /// Reads `op`'s header template (`header`) or payload into the adapter.
    fn gather(&mut self, ctx: &mut Ctx<'_>, op: u64, header: bool, refetched: bool) {
        let desc = self.tx_ops[&op].desc;
        let (src, len) = if header {
            (desc.header_addr, desc.header_len as usize)
        } else {
            (desc.payload_addr, desc.payload_len as usize)
        };
        let purpose = DmaPurpose::TxGather {
            op,
            header,
            refetched,
        };
        self.read(ctx, src, len, purpose);
    }

    /// Counts one of `op`'s gathers as ended. Once none is in flight the
    /// op leaves `tx_ops` and is returned.
    fn end_gather(&mut self, op: u64) -> Option<TxOp> {
        let txop = self
            .tx_ops
            .get_mut(&op)
            .expect("gathers belong to live ops");
        txop.gathers_left -= 1;
        if txop.gathers_left > 0 {
            return None;
        }
        self.tx_ops.remove(&op)
    }

    fn on_tx_gather_done(&mut self, ctx: &mut Ctx<'_>, op: u64, header: bool, bytes: Vec<u8>) {
        let txop = self
            .tx_ops
            .get_mut(&op)
            .expect("gathers belong to live ops");
        if txop.aborted {
            // The sibling gather failed for good while this one was in
            // flight.
            ctx.world().stats.counter("nic.stale_gathers").add(1);
        } else if header {
            txop.template = bytes;
        } else {
            txop.payload = bytes;
        }
        let Some(txop) = self.end_gather(op) else {
            return;
        };
        if txop.aborted {
            return;
        }
        // Both header template and payload are in: segment, each frame
        // copying its payload straight out of the gathered bytes, and hand
        // the wire the whole send.
        let mss = if txop.desc.mss == 0 {
            usize::from(MSS)
        } else {
            txop.desc.mss as usize
        };
        let (flow, seq0, ack) = parse_template(&txop.template)
            .unwrap_or_else(|e| panic!("initiator staged a malformed header template: {e}"));
        let payload_len = txop.payload.len();
        // An empty send still leaves as one header-only frame.
        let n = payload_len.div_ceil(mss).max(1);
        let frames = (0..n)
            .map(|i| {
                let offset = i * mss;
                let len = mss.min(payload_len - offset);
                build_frame_in_place(
                    &flow,
                    seq0.wrapping_add(offset as u32),
                    ack.wrapping_add(offset as u32),
                    len,
                    |p| p.copy_from_slice(&txop.payload[offset..offset + len]),
                )
            })
            .collect();
        self.transmit(ctx, frames, true);
        ctx.world().stats.counter("nic.tx_frames").add(n as u64);
    }

    /// Hands `frames` to the wire as one send, after the descriptor
    /// overhead; `msi` says whether its end raises the transmit MSI.
    fn transmit(&mut self, ctx: &mut Ctx<'_>, frames: Vec<Vec<u8>>, msi: bool) {
        let id = self.token();
        self.sends.insert(id, msi);
        let wire = self.wire;
        ctx.send_in(DESCRIPTOR_OVERHEAD_NS, wire, TransmitFrame { id, frames });
    }

    fn on_transmit_done(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(msi) = self.sends.remove(&id) else {
            ctx.world().stats.counter("nic.stale_completions").add(1);
            return;
        };
        if !msi {
            return;
        }
        let rings = *self.rings();
        dcs_pcie::msi(
            ctx,
            Msi {
                addr: rings.tx_msi_addr,
                vector: rings.tx_msi_vector,
            },
        );
        ctx.world().stats.counter("nic.tx_completions").add(1);
    }

    /// Posts a landed batch of receive descriptors.
    fn on_rx_descs(&mut self, batch: &[u8]) {
        for raw in batch.as_chunks::<{ RecvDescriptor::SIZE }>().0 {
            let desc = RecvDescriptor::from_bytes(raw);
            let ring_idx = self.next_posted_idx();
            self.posted.push_back((ring_idx, desc));
        }
    }

    /// Ring index of the next posted buffer (sequential in ring order).
    fn next_posted_idx(&mut self) -> u16 {
        let rings = self.rings();
        let idx = self.rx_wb_next;
        self.rx_wb_next = (self.rx_wb_next + 1) % rings.recv_ring_depth;
        idx
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Vec<u8>) {
        ctx.world().stats.counter("nic.rx_frames").add(1);
        let Some((ring_idx, desc)) = self.posted.pop_front() else {
            ctx.world().stats.counter("nic.rx_dropped_no_buffer").add(1);
            return;
        };
        if frame.len() > desc.buf_len as usize {
            ctx.world().stats.counter("nic.rx_dropped_too_large").add(1);
            return;
        }
        let frame_len = frame.len();
        let op = DmaOp::Write {
            port: self.port,
            dst: desc.buf_addr,
            data: frame,
        };
        self.dma(
            ctx,
            op,
            DmaPurpose::RxDeliver {
                ring_idx,
                frame_len,
            },
        );
    }

    fn on_rx_delivered(&mut self, ctx: &mut Ctx<'_>, ring_idx: u16, frame_len: usize) {
        let rings = *self.rings();
        let wb = RecvWriteback {
            frame_len: frame_len as u32,
            valid: true,
        };
        let wb_addr = rings.wb_ring_base + ring_idx as u64 * RecvWriteback::SIZE as u64;
        let mut bytes = wb.to_bytes();
        // Write-back corruption draws the completion-entry site. The flip
        // avoids byte 4 (the valid flag doubles as the ring's scan
        // terminator; flipping it would stall the consumer, not corrupt
        // an entry) — the checksum in byte 5 covers every flipped byte,
        // so the consumer always detects and drops the slot.
        if let Some(entropy) = fault::inject(ctx.world(), fault::CPL_CORRUPT) {
            const FLIPPABLE: [usize; 5] = [0, 1, 2, 3, 5];
            let byte = FLIPPABLE[(entropy % 5) as usize];
            bytes[byte] ^= 1 << ((entropy >> 32) % 8);
        }
        // Posted 8-byte write; its fabric cost is negligible next to the
        // frame DMA that just completed.
        ctx.world()
            .expect_mut::<PhysMemory>()
            .write(wb_addr, &bytes);
        ctx.world().stats.counter("nic.rx_delivered").add(1);
        if !self.irq_pending {
            self.irq_pending = true;
            let window = IRQ_COALESCE_NS;
            {
                let now = ctx.now();
                ctx.world()
                    .obs
                    .span("nic", "irq-coalesce", ring_idx as u64, now, now + window);
            }
            ctx.send_self_in(window, RaiseRxIrq);
        }
    }

    /// Containment for a DMA that completed poisoned or timed out.
    ///
    /// Descriptor batches and gathers are never parsed from poisoned
    /// bytes — the source is intact initiator memory, so the device
    /// re-fetches once, and aborts the work if the re-fetch fails too
    /// (the initiator's retransmission timeout takes over from there).
    /// A poisoned frame delivery proceeds: the poison is *in* the frame
    /// bytes, where the receiver's TCP checksum validation catches it
    /// and go-back-N recovers the data.
    fn on_bad_dma(&mut self, ctx: &mut Ctx<'_>, purpose: DmaPurpose) {
        ctx.world().stats.counter("nic.bad_dmas").add(1);
        match purpose {
            DmaPurpose::TxDescBatch {
                start_idx,
                count,
                refetched,
            } => {
                if !refetched {
                    ctx.world().stats.counter("nic.dma_refetches").add(1);
                    let rings = *self.rings();
                    let src = rings.send_ring_base + start_idx as u64 * SendDescriptor::SIZE as u64;
                    let purpose = DmaPurpose::TxDescBatch {
                        start_idx,
                        count,
                        refetched: true,
                    };
                    self.read(ctx, src, count as usize * SendDescriptor::SIZE, purpose);
                } else {
                    ctx.world().stats.counter("nic.dropped_desc_batches").add(1);
                }
            }
            DmaPurpose::RxDescBatch {
                start_idx,
                count,
                refetched,
            } => {
                if !refetched {
                    ctx.world().stats.counter("nic.dma_refetches").add(1);
                    let rings = *self.rings();
                    let src = rings.recv_ring_base + start_idx as u64 * RecvDescriptor::SIZE as u64;
                    let purpose = DmaPurpose::RxDescBatch {
                        start_idx,
                        count,
                        refetched: true,
                    };
                    self.read(ctx, src, count as usize * RecvDescriptor::SIZE, purpose);
                } else {
                    ctx.world().stats.counter("nic.dropped_desc_batches").add(1);
                }
            }
            DmaPurpose::TxGather {
                op,
                header,
                refetched,
            } => {
                if !refetched {
                    ctx.world().stats.counter("nic.dma_refetches").add(1);
                    self.gather(ctx, op, header, true);
                } else {
                    // Abort the whole send op; its sibling gather (if
                    // still in flight) lands stale.
                    ctx.world().stats.counter("nic.tx_aborted_gathers").add(1);
                    self.tx_ops
                        .get_mut(&op)
                        .expect("gathers belong to live ops")
                        .aborted = true;
                    self.end_gather(op);
                }
            }
            DmaPurpose::RxDeliver {
                ring_idx,
                frame_len,
            } => {
                // Deliver anyway: the consumer took the slot's previous
                // frame, so the slot reads as zero, fails the frame
                // checksum at the consumer and is dropped there.
                self.on_rx_delivered(ctx, ring_idx, frame_len)
            }
        }
    }

    fn on_dma_complete(&mut self, ctx: &mut Ctx<'_>, done: DmaComplete) {
        let done = done.land(ctx.world());
        let Some(purpose) = self.dmas.remove(&done.id) else {
            // Late completion for a transfer a reset abandoned.
            ctx.world().stats.counter("nic.stale_completions").add(1);
            return;
        };
        {
            let now = ctx.now();
            ctx.world()
                .obs
                .span_end("nic", Self::purpose_span(&purpose), done.id, now);
        }
        if !done.status.is_ok() {
            self.on_bad_dma(ctx, purpose);
            return;
        }
        match purpose {
            DmaPurpose::TxDescBatch { .. } => self.on_tx_descs(ctx, &done.data),
            DmaPurpose::TxGather { op, header, .. } => {
                self.on_tx_gather_done(ctx, op, header, done.data)
            }
            DmaPurpose::RxDescBatch { .. } => self.on_rx_descs(&done.data),
            DmaPurpose::RxDeliver {
                ring_idx,
                frame_len,
            } => self.on_rx_delivered(ctx, ring_idx, frame_len),
        }
    }
}

impl Component for NicDevice {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // Per-frame payloads first: every downcast that misses costs a
        // type check.
        let msg = match msg.downcast::<DmaComplete>() {
            Ok(done) => {
                self.on_dma_complete(ctx, done);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<FrameDelivery>() {
            Ok(f) => {
                self.on_frame(ctx, f.frame);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<TransmitDone>() {
            Ok(t) => {
                self.on_transmit_done(ctx, t.id);
                return;
            }
            Err(m) => m,
        };
        if let Some(write) = msg.get::<MmioWrite>() {
            let write = write.clone();
            self.on_doorbell(ctx, &write);
            return;
        }
        let msg = match msg.downcast::<ConfigureNic>() {
            Ok(cfg) => {
                if self.rings.is_some() {
                    // Re-configuration is a device reset: abandon all
                    // in-flight work (late completions land stale) and
                    // restart ring state from index zero.
                    self.dmas = DetMap::new();
                    self.tx_ops = DetMap::new();
                    self.sends = DetMap::new();
                    self.posted.clear();
                    self.tx_cons = 0;
                    self.rx_cons = 0;
                    self.rx_wb_next = 0;
                    self.irq_pending = false;
                    let now = ctx.now();
                    let world = ctx.world();
                    world.stats.counter("nic.resets").add(1);
                    aer::record(
                        world,
                        now.as_nanos(),
                        0,
                        "nic.reset",
                        aer::AerKind::DeviceReset,
                    );
                }
                self.rings = Some(cfg);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ControlFrame>() {
            Ok(cf) => {
                self.transmit(ctx, vec![cf.frame], false);
                ctx.world().stats.counter("nic.tx_ctrl_frames").add(1);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<RaiseRxIrq>() {
            Ok(RaiseRxIrq) => {
                self.irq_pending = false;
                let rings = *self.rings();
                dcs_pcie::msi(
                    ctx,
                    Msi {
                        addr: rings.rx_msi_addr,
                        vector: rings.rx_msi_vector,
                    },
                );
            }
            Err(other) => panic!("NicDevice received unexpected message: {other:?}"),
        }
    }
}

/// Allocates the NIC's BAR, claims it, and installs a NIC with a
/// pre-reserved component id (NICs and the wire reference each other, so
/// ids are reserved first).
pub fn install_nic(
    sim: &mut Simulator,
    id: ComponentId,
    fabric: FabricId,
    wire: ComponentId,
    config: NicConfig,
    name: &str,
    port: PortId,
) -> NicHandle {
    let bar = sim.world_mut().expect_mut::<PhysMemory>().alloc_region(
        &format!("{name}-bar"),
        1 << 16,
        port,
    );
    let max_lso = config.max_lso;
    sim.install(id, NicDevice::new(config, fabric, wire, bar, port));
    sim.world_mut()
        .expect_mut::<dcs_pcie::MmioRouting>()
        .claim(AddrRange::new(bar.start, 0x1000), id);
    NicHandle {
        device: id,
        bar,
        port,
        max_lso,
    }
}
