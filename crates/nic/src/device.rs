//! The NIC device component.
//!
//! Transmit: doorbell → batched descriptor fetch (DMA) → header-template
//! and payload gather (DMA) → LSO segmentation with per-segment header
//! fix-up (real sequence numbers and checksums) → frames serialized on the
//! wire → per-descriptor completion MSI when the last segment leaves the
//! adapter.
//!
//! Receive: frames arrive from the wire → next posted buffer descriptor →
//! frame DMA into the buffer → write-back record → interrupt-coalesced MSI.
//! A frame arriving with no posted buffer is dropped and counted, as real
//! adapters do.

use std::collections::VecDeque;

use dcs_pcie::{
    aer, AddrRange, DmaComplete, DmaRequest, MmioWrite, Msi, PhysAddr, PhysMemory, PortId, TlpClass,
};
use dcs_sim::{fault, time, Component, ComponentId, Ctx, DetMap, Msg, Simulator};

use crate::headers::{build_frame, parse_template};
use crate::ring::{RecvDescriptor, RecvWriteback, SendDescriptor};
use crate::wire::{FrameDelivery, TransmitDone, TransmitFrame};

/// NIC timing and protocol parameters.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// TCP maximum segment size used by LSO segmentation.
    pub mss: usize,
    /// Largest payload a single send descriptor may carry.
    pub max_lso: usize,
    /// Device-side handling cost folded into each descriptor fetch, in ns.
    pub descriptor_overhead_ns: u64,
    /// Receive interrupt coalescing window, in ns.
    pub irq_coalesce_ns: u64,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            mss: 1448,
            max_lso: 64 * 1024,
            descriptor_overhead_ns: 300,
            irq_coalesce_ns: time::us(4),
        }
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
    /// Device-internal staging memory (tests may inspect it).
    pub staging: AddrRange,
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

/// Sentinel tx-op id for control frames: tokens start at 1, so 0 never
/// collides with a descriptor-originated op.
const CTRL_OP: u64 = 0;

#[derive(Clone, Copy)]
enum DmaPurpose {
    /// A batch of `count` send descriptors landing at `staging`.
    TxDescBatch {
        start_idx: u16,
        count: u16,
        staging: PhysAddr,
        refetched: bool,
    },
    /// Header/payload gather for a descriptor; both must land before
    /// segmentation. The source/length are kept so a poisoned gather can
    /// be re-fetched once from initiator memory.
    TxGather {
        op: u64,
        src: PhysAddr,
        dst: PhysAddr,
        len: usize,
        refetched: bool,
    },
    /// A batch of `count` receive descriptors landing at `staging`.
    RxDescBatch {
        start_idx: u16,
        count: u16,
        staging: PhysAddr,
        refetched: bool,
    },
    /// A received frame being copied into a posted buffer.
    RxDeliver { ring_idx: u16, frame_len: usize },
}

struct TxOp {
    desc: SendDescriptor,
    hdr_staging: PhysAddr,
    pay_staging: PhysAddr,
    gathers_left: u8,
    segments_left: usize,
}

/// The NIC component.
pub struct NicDevice {
    config: NicConfig,
    fabric: ComponentId,
    wire: ComponentId,
    bar: AddrRange,
    staging: AddrRange,
    staging_off: u64,
    rings: Option<ConfigureNic>,
    /// Device-side consumer indices.
    tx_cons: u16,
    rx_cons: u16,
    /// In-flight DMA bookkeeping.
    dmas: DetMap<u64, DmaPurpose>,
    tx_ops: DetMap<u64, TxOp>,
    /// Wire-transmit token → (tx op, last segment?).
    frames: DetMap<u64, (u64, bool)>,
    /// Posted receive buffers in ring order.
    posted: VecDeque<(u16, RecvDescriptor)>,
    /// Ring index of the next posted buffer / write-back slot.
    rx_wb_next: u16,
    next_token: u64,
    irq_pending: bool,
}

impl NicDevice {
    /// Creates the NIC.
    pub fn new(
        config: NicConfig,
        fabric: ComponentId,
        wire: ComponentId,
        bar: AddrRange,
        staging: AddrRange,
    ) -> Self {
        NicDevice {
            config,
            fabric,
            wire,
            bar,
            staging,
            staging_off: 0,
            rings: None,
            tx_cons: 0,
            rx_cons: 0,
            dmas: DetMap::new(),
            tx_ops: DetMap::new(),
            frames: DetMap::new(),
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

    /// Bump-allocates `len` bytes of staging memory (recycled ring-style;
    /// staging is large relative to in-flight data).
    fn stage(&mut self, len: usize) -> PhysAddr {
        let len = (len as u64).div_ceil(64) * 64;
        if self.staging_off + len > self.staging.len {
            self.staging_off = 0;
        }
        let addr = self.staging.start + self.staging_off;
        self.staging_off += len;
        addr
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

    fn dma(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: PhysAddr,
        dst: PhysAddr,
        len: usize,
        purpose: DmaPurpose,
    ) {
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
            src,
            dst,
            len,
            class: TlpClass::Data,
            reply_to: ctx.self_id(),
        };
        let fabric = self.fabric;
        ctx.send_now(fabric, req);
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
            let staging = self.stage(count as usize * entry);
            let src = base + idx as u64 * entry as u64;
            let purpose = if is_tx {
                DmaPurpose::TxDescBatch {
                    start_idx: idx,
                    count,
                    staging,
                    refetched: false,
                }
            } else {
                DmaPurpose::RxDescBatch {
                    start_idx: idx,
                    count,
                    staging,
                    refetched: false,
                }
            };
            self.dma(ctx, src, staging, count as usize * entry, purpose);
            idx = run_end % depth;
        }
        if is_tx {
            self.tx_cons = prod;
        } else {
            self.rx_cons = prod;
        }
    }

    fn on_tx_descs(&mut self, ctx: &mut Ctx<'_>, start_idx: u16, count: u16, staging: PhysAddr) {
        let _ = start_idx;
        for i in 0..count {
            let raw: [u8; SendDescriptor::SIZE] = ctx
                .world_ref()
                .expect::<PhysMemory>()
                .read(
                    staging + i as u64 * SendDescriptor::SIZE as u64,
                    SendDescriptor::SIZE,
                )
                .try_into()
                .expect("descriptor bytes");
            let desc = SendDescriptor::from_bytes(&raw);
            assert!(
                desc.payload_len as usize <= self.config.max_lso,
                "send of {} bytes exceeds the {}-byte LSO limit",
                desc.payload_len,
                self.config.max_lso
            );
            let op = self.token();
            let hdr_staging = self.stage(desc.header_len as usize);
            let pay_staging = self.stage(desc.payload_len as usize);
            self.tx_ops.insert(
                op,
                TxOp {
                    desc,
                    hdr_staging,
                    pay_staging,
                    gathers_left: 2,
                    segments_left: 0,
                },
            );
            let hdr_len = desc.header_len as usize;
            let pay_len = desc.payload_len as usize;
            self.dma(
                ctx,
                desc.header_addr,
                hdr_staging,
                hdr_len,
                DmaPurpose::TxGather {
                    op,
                    src: desc.header_addr,
                    dst: hdr_staging,
                    len: hdr_len,
                    refetched: false,
                },
            );
            self.dma(
                ctx,
                desc.payload_addr,
                pay_staging,
                pay_len,
                DmaPurpose::TxGather {
                    op,
                    src: desc.payload_addr,
                    dst: pay_staging,
                    len: pay_len,
                    refetched: false,
                },
            );
        }
    }

    fn on_tx_gather_done(&mut self, ctx: &mut Ctx<'_>, op: u64) {
        let ready = {
            let Some(txop) = self.tx_ops.get_mut(&op) else {
                // The op was aborted (poisoned sibling gather or reset)
                // while this gather was in flight.
                ctx.world().stats.counter("nic.stale_gathers").add(1);
                return;
            };
            txop.gathers_left -= 1;
            txop.gathers_left == 0
        };
        if !ready {
            return;
        }
        // Both header template and payload are staged: segment and send.
        let (template, payload, mss) = {
            let txop = &self.tx_ops[&op];
            let mem = ctx.world_ref().expect::<PhysMemory>();
            let template = mem.read(txop.hdr_staging, txop.desc.header_len as usize);
            let payload = mem.read(txop.pay_staging, txop.desc.payload_len as usize);
            let mss = if txop.desc.mss == 0 {
                self.config.mss
            } else {
                txop.desc.mss as usize
            };
            (template, payload, mss)
        };
        let (flow, seq0, ack) = parse_template(&template)
            .unwrap_or_else(|e| panic!("initiator staged a malformed header template: {e}"));
        let chunks: Vec<&[u8]> = if payload.is_empty() {
            vec![&[][..]]
        } else {
            payload.chunks(mss).collect()
        };
        self.tx_ops.get_mut(&op).expect("live").segments_left = chunks.len();
        let mut offset = 0u32;
        let n = chunks.len();
        for (i, chunk) in chunks.into_iter().enumerate() {
            let frame = build_frame(
                &flow,
                seq0.wrapping_add(offset),
                ack.wrapping_add(offset),
                chunk,
            );
            offset += chunk.len() as u32;
            let ftoken = self.token();
            self.frames.insert(ftoken, (op, i == n - 1));
            let wire = self.wire;
            let overhead = self.config.descriptor_overhead_ns;
            ctx.send_in(overhead, wire, TransmitFrame { id: ftoken, frame });
            ctx.world().stats.counter("nic.tx_frames").add(1);
            {
                let now = ctx.now();
                let obs = &mut ctx.world().obs;
                obs.span_begin("nic", "wire-tx", ftoken, now);
                obs.count("nic", "tx.frames", 1);
            }
        }
    }

    fn on_transmit_done(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        {
            let now = ctx.now();
            ctx.world().obs.span_end("nic", "wire-tx", id, now);
        }
        let Some((op, last)) = self.frames.remove(&id) else {
            ctx.world().stats.counter("nic.stale_completions").add(1);
            return;
        };
        if !last {
            return;
        }
        let txop = self.tx_ops.remove(&op);
        let _ = txop;
        let rings = *self.rings();
        let fabric = self.fabric;
        ctx.send_now(
            fabric,
            Msi {
                addr: rings.tx_msi_addr,
                vector: rings.tx_msi_vector,
            },
        );
        ctx.world().stats.counter("nic.tx_completions").add(1);
    }

    fn on_rx_descs(&mut self, ctx: &mut Ctx<'_>, count: u16, staging: PhysAddr) {
        for i in 0..count {
            let raw: [u8; RecvDescriptor::SIZE] = ctx
                .world_ref()
                .expect::<PhysMemory>()
                .read(
                    staging + i as u64 * RecvDescriptor::SIZE as u64,
                    RecvDescriptor::SIZE,
                )
                .try_into()
                .expect("descriptor bytes");
            let desc = RecvDescriptor::from_bytes(&raw);
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
        let staging = self.stage(frame.len());
        ctx.world()
            .expect_mut::<PhysMemory>()
            .write(staging, &frame);
        self.dma(
            ctx,
            staging,
            desc.buf_addr,
            frame.len(),
            DmaPurpose::RxDeliver {
                ring_idx,
                frame_len: frame.len(),
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
        {
            let obs = &mut ctx.world().obs;
            obs.count("nic", "rx.delivered", 1);
            obs.observe("nic", "rx.frame_bytes", frame_len as u64);
        }
        if !self.irq_pending {
            self.irq_pending = true;
            let window = self.config.irq_coalesce_ns;
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
                staging,
                refetched,
            } => {
                if !refetched {
                    ctx.world().stats.counter("nic.dma_refetches").add(1);
                    let rings = *self.rings();
                    let src = rings.send_ring_base + start_idx as u64 * SendDescriptor::SIZE as u64;
                    self.dma(
                        ctx,
                        src,
                        staging,
                        count as usize * SendDescriptor::SIZE,
                        DmaPurpose::TxDescBatch {
                            start_idx,
                            count,
                            staging,
                            refetched: true,
                        },
                    );
                } else {
                    ctx.world().stats.counter("nic.dropped_desc_batches").add(1);
                }
            }
            DmaPurpose::RxDescBatch {
                start_idx,
                count,
                staging,
                refetched,
            } => {
                if !refetched {
                    ctx.world().stats.counter("nic.dma_refetches").add(1);
                    let rings = *self.rings();
                    let src = rings.recv_ring_base + start_idx as u64 * RecvDescriptor::SIZE as u64;
                    self.dma(
                        ctx,
                        src,
                        staging,
                        count as usize * RecvDescriptor::SIZE,
                        DmaPurpose::RxDescBatch {
                            start_idx,
                            count,
                            staging,
                            refetched: true,
                        },
                    );
                } else {
                    ctx.world().stats.counter("nic.dropped_desc_batches").add(1);
                }
            }
            DmaPurpose::TxGather {
                op,
                src,
                dst,
                len,
                refetched,
            } => {
                if !refetched {
                    ctx.world().stats.counter("nic.dma_refetches").add(1);
                    self.dma(
                        ctx,
                        src,
                        dst,
                        len,
                        DmaPurpose::TxGather {
                            op,
                            src,
                            dst,
                            len,
                            refetched: true,
                        },
                    );
                } else {
                    // Abort the whole send op; its sibling gather (if
                    // still in flight) lands stale.
                    self.tx_ops.remove(&op);
                    ctx.world().stats.counter("nic.tx_aborted_gathers").add(1);
                }
            }
            DmaPurpose::RxDeliver {
                ring_idx,
                frame_len,
            } => {
                // Deliver anyway: the frame checksum fails at the
                // consumer and the frame is dropped there.
                self.on_rx_delivered(ctx, ring_idx, frame_len)
            }
        }
    }
}

impl Component for NicDevice {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
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
                    self.frames = DetMap::new();
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
                let ftoken = self.token();
                self.frames.insert(ftoken, (CTRL_OP, false));
                let wire = self.wire;
                let overhead = self.config.descriptor_overhead_ns;
                ctx.send_in(
                    overhead,
                    wire,
                    TransmitFrame {
                        id: ftoken,
                        frame: cf.frame,
                    },
                );
                ctx.world().stats.counter("nic.tx_ctrl_frames").add(1);
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
        let msg = match msg.downcast::<RaiseRxIrq>() {
            Ok(RaiseRxIrq) => {
                self.irq_pending = false;
                let rings = *self.rings();
                let fabric = self.fabric;
                ctx.send_now(
                    fabric,
                    Msi {
                        addr: rings.rx_msi_addr,
                        vector: rings.rx_msi_vector,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<DmaComplete>() {
            Ok(done) => {
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
                    DmaPurpose::TxDescBatch {
                        start_idx,
                        count,
                        staging,
                        ..
                    } => self.on_tx_descs(ctx, start_idx, count, staging),
                    DmaPurpose::TxGather { op, .. } => self.on_tx_gather_done(ctx, op),
                    DmaPurpose::RxDescBatch { count, staging, .. } => {
                        self.on_rx_descs(ctx, count, staging)
                    }
                    DmaPurpose::RxDeliver {
                        ring_idx,
                        frame_len,
                    } => self.on_rx_delivered(ctx, ring_idx, frame_len),
                }
            }
            Err(other) => panic!("NicDevice received unexpected message: {other:?}"),
        }
    }
}

/// Allocates regions, claims the BAR, and installs a NIC with a
/// pre-reserved component id (NICs and the wire reference each other, so
/// ids are reserved first).
pub fn install_nic(
    sim: &mut Simulator,
    id: ComponentId,
    fabric: ComponentId,
    wire: ComponentId,
    config: NicConfig,
    name: &str,
    port: PortId,
) -> NicHandle {
    let (bar, staging) = {
        let mem = sim.world_mut().expect_mut::<PhysMemory>();
        let bar = mem.alloc_region(&format!("{name}-bar"), 1 << 16, port);
        let staging = mem.alloc_region(&format!("{name}-staging"), 32 << 20, port);
        (bar, staging)
    };
    let max_lso = config.max_lso;
    sim.install(id, NicDevice::new(config, fabric, wire, bar, staging));
    sim.world_mut()
        .expect_mut::<dcs_pcie::MmioRouting>()
        .claim(AddrRange::new(bar.start, 0x1000), id);
    NicHandle {
        device: id,
        bar,
        staging,
        port,
        max_lso,
    }
}
