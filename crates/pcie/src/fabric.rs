//! The PCIe switch: DMA execution, MMIO routing, MSI delivery.
//!
//! The switch is not a component. Its state — each port's egress and
//! ingress link occupancy, the crossbar's, and its [`PcieConfig`] — is a
//! [`World`] resource keyed by the [`FabricId`] that [`install_fabric`]
//! hands out, and every transaction is booked by the device that starts
//! it, inside that device's own handler:
//!
//! * [`dma`] books the links, draws the faults, records the spans and
//!   schedules the requester's [`DmaComplete`] at the transfer's end. The
//!   memory effect happens when the requester takes the completion
//!   through [`DmaComplete::land`], the only way to its fields.
//! * [`msi`] sends the owner of the target address a [`MsiDelivery`]
//!   after [`MSI_NS`](config::MSI_NS).
//! * [`mmio_write`] forwards a posted write to the owner of its address
//!   after [`MMIO_WRITE_NS`](config::MMIO_WRITE_NS) plus two hops.
//!
//! Events per transaction, before and after the switch stopped relaying:
//!
//! | transaction | relayed through a switch component | booked inline |
//! |---|---|---|
//! | DMA | `DmaRequest`, `DmaDone`, `DmaComplete` (3) | `DmaComplete` (1) |
//! | MSI | `Msi`, `MsiDelivery` (2) | `MsiDelivery` (1) |
//! | MMIO write | request, forwarded write (2) | forwarded write (1) |
//!
//! A request that starts after a fixed delay (an NVMe command's half
//! overhead, an engine completion record) is a [`DmaStart`] the
//! requester sends itself, so no transfer reaches a link before it
//! starts.
//!
//! Timing model: a transfer from the memory behind port A to the memory
//! behind port B serializes on A's egress link, B's ingress link, and the
//! switch crossbar (each a FIFO server tracking its own occupancy), and
//! pays one hop of propagation latency per traversed link. The completion
//! instant is the latest of the three serializations plus propagation —
//! a cut-through approximation that avoids charging store-and-forward per
//! hop while still creating back-pressure on busy links (documented in
//! DESIGN.md). Data bytes move at completion time: a copy moves them
//! between two [`PhysMemory`] spans; a device-end transfer moves them
//! between one span and the requesting device's own memory, which has no
//! host-visible address (a write carries its bytes in the request, a read
//! returns them in the completion) and is charged to the requester's port.

use dcs_sim::{fault, ComponentId, Ctx, FifoServer, SimTime, World};

use crate::addr::PhysAddr;
use crate::aer::{self, AerKind};
use crate::config::{self, PcieConfig};
use crate::mem::{PhysMemory, PortId};
use crate::routing::MmioRouting;

/// What a DMA's payload *is*, for fault-site selection: corrupting bulk
/// data and corrupting a completion structure are different failure
/// modes with different containment (payload checksums vs. entry CRCs),
/// so the corruption sites draw independently per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TlpClass {
    /// Bulk data movement (payloads, descriptors, frames).
    #[default]
    Data,
    /// A completion structure write (NVMe CQE, HDC completion record).
    Completion,
}

/// How a DMA ended, from the requester's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DmaStatus {
    /// Bytes landed intact.
    #[default]
    Ok,
    /// Bytes landed but the last TLP failed its ECRC check with no
    /// replay budget left: the data at the destination is poisoned.
    /// Poison follows the data — a consumer must never complete the
    /// containing operation as a success.
    Poisoned,
    /// The completion never arrived (unrecognizably corrupted request
    /// header, replay budget zero); nothing was written.
    Timeout,
}

impl DmaStatus {
    /// Whether the transfer delivered trustworthy bytes.
    pub fn is_ok(self) -> bool {
        self == DmaStatus::Ok
    }
}

/// What a DMA moves. Memory inside a device (a NIC's packet buffers, the
/// completion records an engine sends) needs no [`PhysMemory`] address:
/// transfers to and from it carry their bytes in the request or the
/// completion, as the TLPs do.
#[derive(Debug, Clone)]
pub enum DmaOp {
    /// `len` bytes from `src` to `dst`, both in [`PhysMemory`].
    Copy {
        /// Source physical address.
        src: PhysAddr,
        /// Destination physical address.
        dst: PhysAddr,
        /// Transfer length in bytes.
        len: usize,
    },
    /// A posted write of `data`, out of the memory of the device behind
    /// `port`, to `dst`.
    Write {
        /// The requesting device's port (the transfer's source end).
        port: PortId,
        /// Destination physical address.
        dst: PhysAddr,
        /// The bytes written.
        data: Vec<u8>,
    },
    /// A read of `len` bytes at `src` into the memory of the device behind
    /// `port`; the bytes come back in [`DmaLanded::data`].
    Read {
        /// The requesting device's port (the transfer's destination end).
        port: PortId,
        /// Source physical address.
        src: PhysAddr,
        /// Transfer length in bytes.
        len: usize,
    },
}

impl DmaOp {
    /// Transfer length in bytes.
    fn byte_len(&self) -> usize {
        match self {
            DmaOp::Copy { len, .. } | DmaOp::Read { len, .. } => *len,
            DmaOp::Write { data, .. } => data.len(),
        }
    }
}

/// One transfer, as its requester asks for it.
///
/// `id` is an opaque token chosen by the requester, echoed back in the
/// [`DmaComplete`] the requester receives when the bytes have landed.
#[derive(Debug, Clone)]
pub struct DmaRequest {
    /// Requester-chosen token echoed in the completion.
    pub id: u64,
    /// The transfer.
    pub op: DmaOp,
    /// Payload class (selects the corruption fault site).
    pub class: TlpClass,
}

/// A [`DmaRequest`]'s end, sent to its requester at the instant the
/// transfer finishes. Its bytes have not moved yet: the requester lands
/// them with [`DmaComplete::land`], which is also the only way to learn
/// the token, the status and a read's bytes.
#[derive(Debug)]
pub struct DmaComplete {
    id: u64,
    op: DmaOp,
    status: DmaStatus,
    /// Fault-shaping entropy when corruption landed (picks the flipped
    /// bit after the bytes move).
    corrupt: Option<u64>,
}

/// What a requester learns from a landed [`DmaComplete`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaLanded {
    /// Token from the originating request.
    pub id: u64,
    /// Bytes moved.
    pub len: usize,
    /// Integrity outcome; anything but [`DmaStatus::Ok`] means the
    /// destination bytes must not be trusted (and on
    /// [`DmaStatus::Timeout`] were never written).
    pub status: DmaStatus,
    /// A [`DmaOp::Read`]'s bytes (empty on a timeout and for other ops).
    pub data: Vec<u8>,
}

impl DmaComplete {
    /// Moves the transfer's bytes — the copy, the posted write, or the
    /// read into [`DmaLanded::data`] — and tells the requester how it
    /// ended. A timed-out transfer moves nothing.
    pub fn land(self, world: &mut World) -> DmaLanded {
        let DmaComplete {
            id,
            op,
            status,
            corrupt,
        } = self;
        let len = op.byte_len();
        // Poison follows the data: the corrupted TLP's payload is what
        // lands, so one entropy-chosen bit of it is flipped.
        let poison = corrupt.map(|entropy| {
            (
                (entropy % len as u64) as usize,
                1u8 << ((entropy >> 32) % 8),
            )
        });
        let mut data = Vec::new();
        if status != DmaStatus::Timeout {
            let mem = world.expect_mut::<PhysMemory>();
            match op {
                DmaOp::Copy { src, dst, len } => {
                    mem.copy(src, dst, len);
                    if let Some((offset, bit)) = poison {
                        let at = dst + offset as u64;
                        let mut byte = [0u8];
                        mem.read_into(at, &mut byte);
                        byte[0] ^= bit;
                        mem.write(at, &byte);
                    }
                }
                DmaOp::Write {
                    dst,
                    data: mut bytes,
                    ..
                } => {
                    if let Some((offset, bit)) = poison {
                        bytes[offset] ^= bit;
                    }
                    mem.write(dst, &bytes);
                }
                DmaOp::Read { src, len, .. } => {
                    data = mem.read(src, len);
                    if let Some((offset, bit)) = poison {
                        data[offset] ^= bit;
                    }
                }
            }
        }
        DmaLanded {
            id,
            len,
            status,
            data,
        }
    }
}

/// The wake-up a requester sends itself for a [`DmaRequest`] started
/// with a delay ([`dma_in`]); the requester hands it to
/// [`DmaStart::book`] when it arrives.
#[derive(Debug)]
pub struct DmaStart {
    fabric: FabricId,
}

impl DmaStart {
    /// Starts the delayed requests due now, this one among them (unless
    /// a request started earlier at this instant already started it).
    pub fn book(self, ctx: &mut Ctx<'_>) {
        start_due(ctx, self.fabric);
    }
}

/// A posted MMIO write (doorbell ring, command enqueue), sent with
/// [`mmio_write`] and delivered, as this same payload, to the component
/// owning its address.
#[derive(Debug, Clone)]
pub struct MmioWrite {
    /// Target register address.
    pub addr: PhysAddr,
    /// Bytes written (doorbell values are small; HDC D2D commands are 64 B).
    pub data: Vec<u8>,
}

impl MmioWrite {
    /// A doorbell ring: `index` as a 32-bit little-endian register value.
    pub fn doorbell(addr: PhysAddr, index: u16) -> MmioWrite {
        MmioWrite {
            addr,
            data: (index as u32).to_le_bytes().to_vec(),
        }
    }
}

/// A message-signaled interrupt, raised with [`msi`]: a write to an
/// interrupt target address.
#[derive(Debug, Clone, Copy)]
pub struct Msi {
    /// MSI target address (determines who is interrupted).
    pub addr: PhysAddr,
    /// Interrupt vector.
    pub vector: u32,
}

/// Delivered to the component owning an MSI target address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsiDelivery {
    /// Interrupt vector.
    pub vector: u32,
}

/// Names one switch in the world's fabric table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricId(u32);

/// Every switch's state, as a [`World`] resource indexed by [`FabricId`].
#[derive(Default)]
struct Fabrics(Vec<Switch>);

/// One switch: its configuration and its serialization state.
struct Switch {
    config: PcieConfig,
    /// Per-port egress (index 0) / ingress (index 1) serialization state.
    links: Vec<[FifoServer; 2]>,
    crossbar: FifoServer,
    /// Requests started with a delay, in the order they were asked for.
    delayed: Vec<Delayed>,
}

/// A request waiting for its start time.
struct Delayed {
    at: SimTime,
    requester: ComponentId,
    req: DmaRequest,
}

impl Switch {
    fn link(&mut self, port: PortId, dir: usize) -> &mut FifoServer {
        let idx = port.0 as usize;
        assert!(
            idx < self.links.len(),
            "{} out of range: fabric has {} ports",
            port,
            self.links.len()
        );
        &mut self.links[idx][dir]
    }

    /// Books a `len`-byte transfer from `src` to `dst` at `now` and
    /// returns its end with the end of each serialization stage, named
    /// for its TLP transit span: local copies occupy only their
    /// endpoint's egress link, anything else both links and the crossbar.
    fn book(
        &mut self,
        now: SimTime,
        src: PortId,
        dst: PortId,
        len: usize,
    ) -> (SimTime, [Option<(&'static str, SimTime)>; 3]) {
        let service = config::link_time(len);
        let hop = config::HOP_LATENCY_NS;
        if src == dst {
            // Local copy inside one endpoint: occupies only that endpoint's
            // DMA engine (modeled as its egress link), no switch traversal.
            let egress = self.link(src, 0).offer(now, service) + hop;
            return (egress, [Some(("tlp-local", egress)), None, None]);
        }
        let xbar = self.crossbar.offer(now, config::switch_time(len));
        let egress = self.link(src, 0).offer(now, service);
        let ingress = self.link(dst, 1).offer(now, service);
        let stages = [
            Some(("tlp-egress", egress + hop)),
            Some(("tlp-xbar", xbar)),
            Some(("tlp-ingress", ingress + 2 * hop)),
        ];
        (egress.max(ingress).max(xbar) + 2 * hop, stages)
    }
}

/// Adds a switch with `config` to the world's fabric table.
pub fn install_fabric(world: &mut World, config: PcieConfig) -> FabricId {
    if world.get::<Fabrics>().is_none() {
        world.insert(Fabrics::default());
    }
    let fabrics = &mut world.expect_mut::<Fabrics>().0;
    let id = FabricId(u32::try_from(fabrics.len()).expect("fewer than 2^32 fabrics"));
    let links = (0..config.ports).map(|_| Default::default()).collect();
    fabrics.push(Switch {
        config,
        links,
        crossbar: FifoServer::new(),
        delayed: Vec::new(),
    });
    id
}

/// The switch `fabric` names.
fn switch(world: &mut World, fabric: FabricId) -> &mut Switch {
    world
        .get_mut::<Fabrics>()
        .and_then(|f| f.0.get_mut(fabric.0 as usize))
        .unwrap_or_else(|| panic!("{fabric:?} was never installed"))
}

/// Starts `req` now on `fabric` and schedules its [`DmaComplete`] to the
/// calling component at the transfer's end.
///
/// Requires a [`PhysMemory`] in the [`World`] and a fabric installed with
/// [`install_fabric`].
pub fn dma(ctx: &mut Ctx<'_>, fabric: FabricId, req: DmaRequest) {
    let me = ctx.self_id();
    start(ctx, fabric, me, req, true);
}

/// Starts `req` on `fabric` after `delay`: at once when `delay` is zero,
/// otherwise through a [`DmaStart`] the calling component sends itself.
pub fn dma_in(ctx: &mut Ctx<'_>, delay: u64, fabric: FabricId, req: DmaRequest) {
    if delay == 0 {
        return dma(ctx, fabric, req);
    }
    let at = ctx.now() + delay;
    let requester = ctx.self_id();
    switch(ctx.world(), fabric)
        .delayed
        .push(Delayed { at, requester, req });
    ctx.send_self_in(delay, DmaStart { fabric });
}

/// Starts every delayed request of `fabric` due now, in the order they
/// were asked for.
fn start_due(ctx: &mut Ctx<'_>, fabric: FabricId) {
    let now = ctx.now();
    loop {
        let delayed = &mut switch(ctx.world(), fabric).delayed;
        let Some(i) = delayed.iter().position(|d| d.at == now) else {
            return;
        };
        let Delayed { requester, req, .. } = delayed.remove(i);
        start(ctx, fabric, requester, req, false);
    }
}

/// Books `req` on `fabric` now and schedules its [`DmaComplete`] to
/// `requester` at the transfer's end. A request started from a handler
/// (`due_first`) lets the delayed requests due at this instant start
/// first, so they reach the links before it whichever handler runs
/// first, as they did when a switch component relayed every request.
fn start(
    ctx: &mut Ctx<'_>,
    fabric: FabricId,
    requester: ComponentId,
    req: DmaRequest,
    due_first: bool,
) {
    let DmaRequest { id, op, class } = req;
    let len = op.byte_len();
    let (src_port, dst_port) = {
        let mem = ctx.world_ref().expect::<PhysMemory>();
        match op {
            DmaOp::Copy { src, dst, len } => {
                (mem.region_of(src, len).port, mem.region_of(dst, len).port)
            }
            DmaOp::Write { port, dst, .. } => (port, mem.region_of(dst, len).port),
            DmaOp::Read { port, src, len } => (mem.region_of(src, len).port, port),
        }
    };
    let now = ctx.now();
    let world = ctx.world();
    let sw = switch(world, fabric);
    if due_first && sw.delayed.iter().any(|d| d.at == now) {
        start_due(ctx, fabric);
        let req = DmaRequest { id, op, class };
        return start(ctx, fabric, requester, req, false);
    }
    let ecrc = sw.config.ecrc;
    let (done, stages) = sw.book(now, src_port, dst_port, len);
    // Per-hop TLP transit spans: each serialization stage as the fabric
    // resolved it, in virtual time.
    for (name, end) in stages.into_iter().flatten() {
        world.obs.span("pcie", name, id, now, end);
    }
    world.stats.counter("pcie.dma_ops").add(1);
    world.stats.counter("pcie.dma_bytes").add(len as u64);
    let mut delay = done - now;
    let (status, corrupt) = draw_faults(world, now, id, class, len, ecrc, &mut delay);
    world.obs.span("pcie", "dma", id, now, now + delay);
    ctx.send_in(
        delay,
        requester,
        DmaComplete {
            id,
            op,
            status,
            corrupt,
        },
    );
}

/// The fault draws of one transfer started at `now`: link replays add
/// serialization passes to `delay`, a lost header turns it into the
/// completion timeout, and payload corruption is replayed, poisoned or,
/// with ECRC off, escapes. Returns the status and, when corrupted bytes
/// land, the entropy choosing the flipped bit.
fn draw_faults(
    world: &mut World,
    now: SimTime,
    id: u64,
    class: TlpClass,
    len: usize,
    ecrc: bool,
    delay: &mut u64,
) -> (DmaStatus, Option<u64>) {
    let mut status = DmaStatus::Ok;
    let mut corrupt = None;
    if !fault::active(world) {
        return (status, corrupt);
    }
    let service = config::link_time(len);
    let hop = config::HOP_LATENCY_NS;
    if fault::inject(world, fault::PCIE_REPLAY).is_some() {
        // Link-level transfer error: the data-link layer replays the
        // TLPs transparently — no data loss, just a second pass of
        // serialization charged to the transfer.
        world.stats.counter("pcie.replays").add(1);
        *delay += service + hop;
    }
    let at = now.as_nanos();
    // Header corruption first: an unrecognizable TLP is caught by the
    // link layer's LCRC/sequence check regardless of ECRC. With replay
    // budget it is retransmitted (one corrected AER entry, one extra
    // serialization pass); without, the request effectively vanishes
    // and the requester's completion timeout fires.
    let retries = fault::recovery(world).map(|r| r.pcie_retries).unwrap_or(0);
    if fault::inject(world, fault::TLP_HEADER).is_some() {
        if retries > 0 {
            fault::retried(world, fault::TLP_HEADER);
            fault::recovered(world, fault::TLP_HEADER);
            aer::record(world, at, id, fault::TLP_HEADER, AerKind::EcrcReplay);
            *delay += service + hop;
        } else {
            fault::exhausted(world, fault::TLP_HEADER);
            aer::record(world, at, id, fault::TLP_HEADER, AerKind::CompletionTimeout);
            status = DmaStatus::Timeout;
            *delay = config::CPL_TIMEOUT_NS;
        }
    }
    // Payload corruption, by class. While ECRC is on, each corrupted
    // attempt is detected at the receiver: replayed if budget remains,
    // delivered poisoned otherwise. With ECRC off there is nothing to
    // detect against — the first hit lands silently as "successful" bad
    // data.
    let site = match class {
        TlpClass::Data => fault::DMA_CORRUPT,
        TlpClass::Completion => fault::CPL_CORRUPT,
    };
    // ECRC is per TLP, so every packet of the transfer is an eligible
    // corruption event: a 16 KiB DMA at MAX_PAYLOAD 256 rolls the dice
    // 64 times per attempt. The first corrupted TLP decides the
    // attempt's fate (a replay re-sends the whole request in this
    // model).
    let tlps = len.div_ceil(config::MAX_PAYLOAD);
    let mut attempt = 0;
    while status == DmaStatus::Ok {
        let mut hit = None;
        for _ in 0..tlps {
            if let Some(entropy) = fault::inject(world, site) {
                hit = Some(entropy);
                break;
            }
        }
        let Some(entropy) = hit else { break };
        if !ecrc {
            fault::exhausted(world, site);
            aer::record(world, at, id, site, AerKind::SilentEscape);
            world.stats.counter("pcie.ecrc_escapes").add(1);
            corrupt = Some(entropy);
            break;
        }
        if attempt < retries {
            attempt += 1;
            fault::retried(world, site);
            fault::recovered(world, site);
            aer::record(world, at, id, site, AerKind::EcrcReplay);
            *delay += service + hop;
        } else {
            fault::exhausted(world, site);
            aer::record(world, at, id, site, AerKind::PoisonedTlp);
            world.stats.counter("pcie.poisoned_tlps").add(1);
            corrupt = Some(entropy);
            status = DmaStatus::Poisoned;
            break;
        }
    }
    (status, corrupt)
}

/// The component owning `addr` in the [`MmioRouting`] table.
fn owner_of(world: &World, addr: PhysAddr, what: &str) -> ComponentId {
    world
        .expect::<MmioRouting>()
        .owner_of(addr)
        .unwrap_or_else(|| panic!("{what} to unclaimed address {addr}"))
}

/// Sends `write`, `delay` from now, to the component owning its address,
/// which receives it [`MMIO_WRITE_NS`](config::MMIO_WRITE_NS) and two
/// hops later.
pub fn mmio_write(ctx: &mut Ctx<'_>, delay: u64, write: MmioWrite) {
    let addr = write.addr;
    let owner = owner_of(ctx.world_ref(), addr, "MMIO write");
    ctx.world().stats.counter("pcie.mmio_writes").add(1);
    let transit = config::MMIO_WRITE_NS + 2 * config::HOP_LATENCY_NS;
    let start = ctx.now() + delay;
    ctx.world()
        .obs
        .span("pcie", "mmio-write", addr.0, start, start + transit);
    ctx.send_in(delay + transit, owner, write);
}

/// Raises `msi`: the component owning its address receives a
/// [`MsiDelivery`] [`MSI_NS`](config::MSI_NS) from now, unless a fault
/// plan loses the interrupt write.
pub fn msi(ctx: &mut Ctx<'_>, msi: Msi) {
    let owner = owner_of(ctx.world_ref(), msi.addr, "MSI");
    ctx.world().stats.counter("pcie.msi").add(1);
    if fault::inject(ctx.world(), fault::MSI_LOSS).is_some() {
        // The interrupt write never lands; consumers recover by
        // polling their completion structures on a timeout.
        ctx.world().stats.counter("pcie.msi_lost").add(1);
        return;
    }
    let (now, vector) = (ctx.now(), msi.vector as u64);
    let end = now + config::MSI_NS;
    ctx.world().obs.span("pcie", "msi", vector, now, end);
    ctx.send_in(config::MSI_NS, owner, MsiDelivery { vector: msi.vector });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_sim::{Component, Msg, Simulator};

    /// Rings its [`MmioWrite`] through the fabric.
    #[derive(Debug)]
    struct Ring(MmioWrite);

    /// Raises its [`Msi`] through the fabric.
    #[derive(Debug)]
    struct Raise(Msi);

    /// Starts every [`DmaRequest`] it is sent on its fabric, lands each
    /// completion, and keeps what it receives.
    struct Requester {
        fabric: FabricId,
    }

    /// Everything the requester received, with arrival times.
    #[derive(Default)]
    struct Seen {
        done: Vec<(DmaLanded, SimTime)>,
        mmio: Vec<(PhysAddr, Vec<u8>, SimTime)>,
        msi: Vec<(u32, SimTime)>,
    }

    impl Component for Requester {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let msg = match msg.downcast::<DmaRequest>() {
                Ok(req) => return dma(ctx, self.fabric, req),
                Err(m) => m,
            };
            let msg = match msg.downcast::<DmaComplete>() {
                Ok(c) => {
                    let landed = c.land(ctx.world());
                    let now = ctx.now();
                    ctx.world().expect_mut::<Seen>().done.push((landed, now));
                    return;
                }
                Err(m) => m,
            };
            let msg = match msg.downcast::<Ring>() {
                Ok(Ring(w)) => return mmio_write(ctx, 0, w),
                Err(m) => m,
            };
            let msg = match msg.downcast::<Raise>() {
                Ok(Raise(m)) => return msi(ctx, m),
                Err(m) => m,
            };
            let msg = match msg.downcast::<MmioWrite>() {
                Ok(w) => {
                    let now = ctx.now();
                    let seen = ctx.world().expect_mut::<Seen>();
                    seen.mmio.push((w.addr, w.data, now));
                    return;
                }
                Err(m) => m,
            };
            match msg.downcast::<MsiDelivery>() {
                Ok(d) => {
                    let now = ctx.now();
                    ctx.world().expect_mut::<Seen>().msi.push((d.vector, now));
                }
                Err(other) => panic!("unexpected: {other:?}"),
            }
        }
    }

    /// A simulator with the fabric `config`, a requester on it, and
    /// regions behind the ports `ports` (the first named "dram").
    fn rig_with(
        config: PcieConfig,
        ports: &[u16],
    ) -> (Simulator, ComponentId, Vec<crate::AddrRange>) {
        let mut sim = Simulator::new(0);
        let mut mem = PhysMemory::new();
        let regions = ports
            .iter()
            .enumerate()
            .map(|(i, &p)| mem.alloc_region(&format!("r{i}"), 1 << 24, PortId(p)))
            .collect();
        sim.world_mut().insert(mem);
        sim.world_mut().insert(MmioRouting::new());
        sim.world_mut().insert(Seen::default());
        let fabric = install_fabric(sim.world_mut(), config);
        let requester = sim.add("requester", Requester { fabric });
        (sim, requester, regions)
    }

    /// DRAM behind the root port and flash behind port 1.
    fn setup() -> (Simulator, ComponentId, crate::AddrRange, crate::AddrRange) {
        let (sim, requester, r) = rig_with(PcieConfig::default(), &[0, 1]);
        (sim, requester, r[0], r[1])
    }

    fn copy(id: u64, src: PhysAddr, dst: PhysAddr, len: usize) -> DmaRequest {
        DmaRequest {
            id,
            op: DmaOp::Copy { src, dst, len },
            class: TlpClass::Data,
        }
    }

    fn seen(sim: &Simulator) -> &Seen {
        sim.world().expect::<Seen>()
    }

    fn landed(sim: &mut Simulator) -> Vec<DmaLanded> {
        let seen = std::mem::take(&mut sim.world_mut().expect_mut::<Seen>().done);
        seen.into_iter().map(|(d, _)| d).collect()
    }

    /// Completion time of each landed transfer, by token.
    fn ends(sim: &Simulator) -> Vec<(u64, u64)> {
        seen(sim)
            .done
            .iter()
            .map(|(d, t)| (d.id, t.as_nanos()))
            .collect()
    }

    #[test]
    fn dma_moves_bytes_and_completes() {
        let (mut sim, req, dram, flash) = setup();
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(req, copy(7, dram.start, flash.start + 64, 8));
        sim.run();
        assert_eq!(seen(&sim).done.len(), 1);
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(flash.start + 64, 8),
            b"payload!"
        );
        assert_eq!(sim.world().stats.counter_value("pcie.dma_bytes"), 8);
        // Completion time: tiny transfer dominated by 2 hops (500ns) + ser.
        assert!(sim.now().as_nanos() >= 500);
        assert!(sim.now().as_nanos() < 2_000, "{}", sim.now());
    }

    #[test]
    fn a_dma_costs_its_requester_one_event() {
        let (mut sim, req, dram, flash) = setup();
        sim.kickoff(req, copy(1, dram.start, flash.start, 4096));
        sim.run();
        // The kickoff and the completion: nothing relays in between.
        assert_eq!(sim.delivered_events(), 2);
    }

    #[test]
    fn concurrent_dmas_on_one_link_serialize() {
        let (mut sim, req, dram, flash) = setup();
        let len = 64 * 1024;
        for i in 0..2 {
            sim.kickoff(req, copy(i, flash.start, dram.start + i * 128 * 1024, len));
        }
        sim.run();
        let one = config::link_time(len);
        // Second transfer must wait for the first on the flash egress link:
        // it ends one serialization after the first.
        let ends = ends(&sim);
        assert_eq!(ends.len(), 2);
        assert_eq!(ends[1].1 - ends[0].1, one, "{ends:?}");
        let total = sim.now().as_nanos();
        assert!(
            total >= 2 * one,
            "total {total} vs 2x serialization {}",
            2 * one
        );
        assert!(total < 2 * one + 10_000, "{total}");
    }

    #[test]
    fn dmas_on_distinct_links_overlap() {
        let (mut sim, req, r) = rig_with(PcieConfig::default(), &[1, 2, 3, 4]);
        let len = 256 * 1024;
        sim.kickoff(req, copy(0, r[0].start, r[1].start, len));
        sim.kickoff(req, copy(1, r[2].start, r[3].start, len));
        sim.run();
        let one_link = config::link_time(len);
        let both_xbar = 2 * config::switch_time(len);
        // Parallel on links, serialized only on the crossbar.
        let expected_floor = one_link.max(both_xbar);
        let total = sim.now().as_nanos();
        assert!(total >= expected_floor, "{total} vs {expected_floor}");
        assert!(
            total < 2 * one_link,
            "transfers must overlap: {total} vs {}",
            2 * one_link
        );
        assert_eq!(ends(&sim).len(), 2);
    }

    #[test]
    fn mmio_routes_to_owner_with_payload() {
        let (mut sim, req, _dram, _flash) = setup();
        let reg = crate::AddrRange::new(PhysAddr(0xF000_0000), 0x1000);
        sim.world_mut().expect_mut::<MmioRouting>().claim(reg, req);
        let write = MmioWrite {
            addr: reg.start + 8,
            data: vec![1, 2, 3, 4],
        };
        sim.kickoff(req, Ring(write));
        sim.run();
        assert_eq!(
            seen(&sim).mmio,
            [(reg.start + 8, vec![1, 2, 3, 4], SimTime::from_nanos(800))],
            "300ns write + 2 * 250ns hops"
        );
        assert_eq!(sim.world().stats.counter_value("pcie.mmio_writes"), 1);
    }

    #[test]
    #[should_panic(expected = "unclaimed address")]
    fn mmio_to_unclaimed_address_panics() {
        let (mut sim, req, _dram, _flash) = setup();
        let write = MmioWrite {
            addr: PhysAddr(0xdead_0000),
            data: vec![0],
        };
        sim.kickoff(req, Ring(write));
        sim.run();
    }

    #[test]
    fn msi_delivers_vector_to_owner() {
        let (mut sim, req, _dram, _flash) = setup();
        let msi_range = crate::AddrRange::new(PhysAddr(0xFEE0_0000), 0x1000);
        sim.world_mut()
            .expect_mut::<MmioRouting>()
            .claim(msi_range, req);
        let msi = Msi {
            addr: msi_range.start,
            vector: 42,
        };
        sim.kickoff(req, Raise(msi));
        sim.run();
        assert_eq!(seen(&sim).msi, [(42, SimTime::from_nanos(config::MSI_NS))]);
        assert_eq!(sim.world().stats.counter_value("pcie.msi"), 1);
    }

    #[test]
    fn zero_length_dma_completes_fast() {
        let (mut sim, req, dram, flash) = setup();
        sim.kickoff(req, copy(1, dram.start, flash.start, 0));
        sim.run();
        assert_eq!(seen(&sim).done.len(), 1);
    }

    #[test]
    fn a_delayed_start_books_the_links_when_it_starts() {
        // Two same-length reads of flash: one started now, one after a
        // delay longer than the first's serialization. The delayed one
        // finds the link idle and pays no queueing.
        struct Delayer {
            fabric: FabricId,
            delay: u64,
        }
        impl Component for Delayer {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                let msg = match msg.downcast::<DmaRequest>() {
                    Ok(req) => {
                        let delay = if req.id == 0 { 0 } else { self.delay };
                        return dma_in(ctx, delay, self.fabric, req);
                    }
                    Err(m) => m,
                };
                let msg = match msg.downcast::<DmaStart>() {
                    Ok(start) => return start.book(ctx),
                    Err(m) => m,
                };
                let c = msg.downcast::<DmaComplete>().expect("a completion");
                let landed = c.land(ctx.world());
                let now = ctx.now();
                ctx.world().expect_mut::<Seen>().done.push((landed, now));
            }
        }
        let (mut sim, _req, dram, flash) = setup();
        let len = 64 * 1024;
        let one = config::link_time(len);
        let fabric = install_fabric(sim.world_mut(), PcieConfig::default());
        let delay = one + 1_000;
        let delayer = sim.add("delayer", Delayer { fabric, delay });
        for i in 0..2 {
            sim.kickoff(
                delayer,
                copy(i, flash.start, dram.start + i * (1 << 20), len),
            );
        }
        sim.run();
        let ends = ends(&sim);
        assert_eq!(ends.len(), 2);
        assert_eq!(
            ends[1].1 - ends[0].1,
            delay,
            "both transfers take the same time: {ends:?}"
        );
    }

    use dcs_sim::{FaultPlan, FaultSpec, RecoveryConfig, Rng};

    /// Installs a plan with `site` scheduled at `idxs` into the sim.
    fn install_plan(sim: &mut Simulator, site: &'static str, idxs: Vec<u64>, rec: RecoveryConfig) {
        let rng = Rng::new(0xFAB);
        let mut plan = FaultPlan::new(rng);
        plan.enable(site, FaultSpec::Nth(idxs));
        plan.recovery = rec;
        sim.world_mut().insert(plan);
    }

    fn bit_diff(a: &[u8], b: &[u8]) -> u32 {
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    fn ok_count(sim: &Simulator) -> usize {
        seen(sim)
            .done
            .iter()
            .filter(|(d, _)| d.status.is_ok())
            .count()
    }

    #[test]
    fn ecrc_replay_recovers_payload_corruption() {
        let (mut sim, req, dram, flash) = setup();
        install_plan(
            &mut sim,
            dcs_sim::fault::DMA_CORRUPT,
            vec![0],
            RecoveryConfig::default(),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(req, copy(1, dram.start, flash.start, 8));
        sim.run();
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(flash.start, 8),
            b"payload!"
        );
        assert_eq!(ok_count(&sim), 1);
        assert_eq!(sim.world().stats.counter_value("fault.injected"), 1);
        assert_eq!(sim.world().stats.counter_value("fault.recovered"), 1);
        assert_eq!(sim.world().stats.counter_value("aer.ecrc_replay"), 1);
        assert_eq!(sim.world().stats.counter_value("aer.detected"), 1);
    }

    #[test]
    fn exhausted_replays_deliver_a_poisoned_tlp() {
        let (mut sim, req, dram, flash) = setup();
        // Default budget is 2 replays: three consecutive corrupt attempts
        // exhaust it and the data lands poisoned.
        install_plan(
            &mut sim,
            dcs_sim::fault::DMA_CORRUPT,
            vec![0, 1, 2],
            RecoveryConfig::default(),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(req, copy(1, dram.start, flash.start, 8));
        sim.run();
        let landed = sim.world().expect::<PhysMemory>().read(flash.start, 8);
        assert_eq!(
            bit_diff(&landed, b"payload!"),
            1,
            "poison is a single flipped bit"
        );
        assert_eq!(seen(&sim).done.len(), 1);
        assert_eq!(ok_count(&sim), 0, "poison is not success");
        assert_eq!(sim.world().stats.counter_value("fault.injected"), 3);
        assert_eq!(sim.world().stats.counter_value("fault.recovered"), 2);
        assert_eq!(sim.world().stats.counter_value("fault.exhausted"), 1);
        assert_eq!(sim.world().stats.counter_value("pcie.poisoned_tlps"), 1);
        assert_eq!(sim.world().stats.counter_value("aer.detected"), 3);
    }

    #[test]
    fn ecrc_off_lets_corruption_escape_as_success() {
        let config = PcieConfig {
            ecrc: false,
            ..PcieConfig::default()
        };
        let (mut sim, req, r) = rig_with(config, &[0, 1]);
        let (dram, flash) = (r[0], r[1]);
        install_plan(
            &mut sim,
            dcs_sim::fault::DMA_CORRUPT,
            vec![0],
            RecoveryConfig::default(),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(req, copy(1, dram.start, flash.start, 8));
        sim.run();
        let landed = sim.world().expect::<PhysMemory>().read(flash.start, 8);
        assert_eq!(bit_diff(&landed, b"payload!"), 1, "corruption landed");
        assert_eq!(
            ok_count(&sim),
            1,
            "without ECRC the fabric cannot tell: silent escape"
        );
        assert_eq!(sim.world().stats.counter_value("pcie.ecrc_escapes"), 1);
        assert_eq!(sim.world().stats.counter_value("aer.escape"), 1);
        assert_eq!(sim.world().stats.counter_value("aer.detected"), 0);
    }

    #[test]
    fn header_corruption_without_budget_is_a_completion_timeout() {
        let (mut sim, req, dram, flash) = setup();
        install_plan(
            &mut sim,
            dcs_sim::fault::TLP_HEADER,
            vec![0],
            RecoveryConfig::no_retries(),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(req, copy(1, dram.start, flash.start, 8));
        sim.run();
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(flash.start, 8),
            vec![0u8; 8],
            "nothing may land on a timeout"
        );
        assert_eq!(seen(&sim).done.len(), 1, "requester is notified");
        assert_eq!(ok_count(&sim), 0);
        assert_eq!(sim.world().stats.counter_value("aer.cpl_timeout"), 1);
        assert!(
            sim.now().as_nanos() >= config::CPL_TIMEOUT_NS,
            "completion waits out the timeout: {}",
            sim.now()
        );
    }

    #[test]
    fn header_corruption_with_budget_replays_transparently() {
        let (mut sim, req, dram, flash) = setup();
        install_plan(
            &mut sim,
            dcs_sim::fault::TLP_HEADER,
            vec![0],
            RecoveryConfig::default(),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(req, copy(1, dram.start, flash.start, 8));
        sim.run();
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(flash.start, 8),
            b"payload!"
        );
        assert_eq!(ok_count(&sim), 1);
        assert_eq!(sim.world().stats.counter_value("fault.recovered"), 1);
    }

    #[test]
    fn completion_class_draws_the_cpl_site_not_the_data_site() {
        let (mut sim, req, dram, flash) = setup();
        let rng = Rng::new(0xFAB);
        let mut plan = FaultPlan::new(rng);
        // Data-site fault scheduled at index 0 must NOT fire for a
        // Completion-class DMA; the cpl site must.
        plan.enable(dcs_sim::fault::DMA_CORRUPT, FaultSpec::Nth(vec![0]));
        plan.enable(dcs_sim::fault::CPL_CORRUPT, FaultSpec::Nth(vec![0]));
        sim.world_mut().insert(plan);
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"cqeentry");
        let cqe = DmaRequest {
            class: TlpClass::Completion,
            ..copy(1, dram.start, flash.start, 8)
        };
        sim.kickoff(req, cqe);
        sim.run();
        let tallies: std::collections::BTreeMap<_, _> =
            sim.world().expect::<FaultPlan>().tallies().collect();
        assert_eq!(tallies[dcs_sim::fault::CPL_CORRUPT].injected, 1);
        assert!(
            !tallies.contains_key(dcs_sim::fault::DMA_CORRUPT),
            "data site never drawn"
        );
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(flash.start, 8),
            b"cqeentry"
        );
        assert_eq!(
            sim.world().stats.counter_value("fault.recovered"),
            1,
            "replay cured it"
        );
    }

    #[test]
    fn fault_free_corruption_machinery_is_timing_invisible() {
        // Identical to same_port_copy_skips_the_switch but asserting the
        // exact pre-existing completion time with no plan installed: the
        // ECRC/poison machinery must add zero events and zero latency to
        // fault-free runs.
        let (mut sim, req, dram, _flash) = setup();
        let len = 4096;
        sim.kickoff(req, copy(1, dram.start, dram.start + 8192, len));
        sim.run();
        assert_eq!(
            sim.now().as_nanos(),
            config::link_time(len) + config::HOP_LATENCY_NS
        );
        assert_eq!(sim.delivered_events(), 2);
    }

    #[test]
    fn same_port_copy_skips_the_switch() {
        let (mut sim, req, dram, _flash) = setup();
        let len = 4096;
        sim.kickoff(req, copy(1, dram.start, dram.start + 8192, len));
        sim.run();
        // One serialization + one hop, no crossbar time.
        assert_eq!(
            sim.now().as_nanos(),
            config::link_time(len) + config::HOP_LATENCY_NS
        );
        assert_eq!(sim.world().stats.counter_value("pcie.dma_ops"), 1);
    }

    /// A data-class request for `op`.
    fn device_dma(id: u64, op: DmaOp) -> DmaRequest {
        DmaRequest {
            id,
            op,
            class: TlpClass::Data,
        }
    }

    #[test]
    fn a_device_write_lands_only_at_completion() {
        let (mut sim, req, dram, _flash) = setup();
        let op = DmaOp::Write {
            port: PortId(2),
            dst: dram.start + 8,
            data: b"frame!!!".to_vec(),
        };
        sim.kickoff(req, device_dma(1, op));
        // The requester's handler books the transfer; its completion is
        // the one event left.
        sim.step();
        let mem = sim.world().expect::<PhysMemory>();
        assert_eq!(
            mem.read(dram.start + 8, 8),
            [0; 8],
            "in flight: nothing landed"
        );
        assert_eq!(mem.resident_bytes(), 0);
        assert_eq!(sim.world().stats.counter_value("pcie.dma_bytes"), 8);
        let end = sim.peek_time().expect("the completion is pending");
        assert!(end > sim.now(), "the write takes time: {end}");
        sim.step();
        assert!(sim.is_idle());
        assert_eq!(sim.now(), end);
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(dram.start + 8, 8),
            b"frame!!!"
        );
        let done = landed(&mut sim);
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].len, done[0].status), (8, DmaStatus::Ok));
        assert!(done[0].data.is_empty(), "a write returns no bytes");
    }

    #[test]
    fn a_device_read_returns_the_bytes_as_of_completion() {
        let (mut sim, req, dram, _flash) = setup();
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"before!!");
        let op = DmaOp::Read {
            port: PortId(2),
            src: dram.start,
            len: 8,
        };
        sim.kickoff(req, device_dma(1, op));
        sim.step();
        assert!(landed(&mut sim).is_empty(), "in flight");
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"after!!!");
        sim.run();
        let done = landed(&mut sim);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, DmaStatus::Ok);
        assert_eq!(done[0].data, b"after!!!");
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(dram.start, 8),
            b"after!!!",
            "a read leaves its source in place"
        );
    }

    #[test]
    fn poisoned_device_transfers_flip_the_bit_a_poisoned_copy_does() {
        // Three corrupted attempts exhaust the default replay budget. Each
        // run draws the same entropy, so the flipped bit must land where
        // it lands for a copy of the same bytes.
        let payload = b"payload!payload!".to_vec();
        let run = |op: &dyn Fn(crate::AddrRange, crate::AddrRange) -> DmaOp| {
            let (mut sim, req, dram, flash) = setup();
            install_plan(
                &mut sim,
                dcs_sim::fault::DMA_CORRUPT,
                vec![0, 1, 2],
                RecoveryConfig::default(),
            );
            sim.world_mut()
                .expect_mut::<PhysMemory>()
                .write(dram.start, &payload);
            sim.kickoff(req, device_dma(1, op(dram, flash)));
            sim.run();
            let done = landed(&mut sim).remove(0);
            assert_eq!(done.status, DmaStatus::Poisoned);
            let landed = sim
                .world()
                .expect::<PhysMemory>()
                .read(flash.start, payload.len());
            (done.data, landed)
        };
        let len = payload.len();
        let (_, copied) = run(&|dram, flash| DmaOp::Copy {
            src: dram.start,
            dst: flash.start,
            len,
        });
        assert_eq!(bit_diff(&copied, &payload), 1);
        let (read, _) = run(&|dram, _| DmaOp::Read {
            port: PortId(1),
            src: dram.start,
            len,
        });
        assert_eq!(read, copied, "a poisoned read returns the copy's bytes");
        let (_, written) = run(&|_, flash| DmaOp::Write {
            port: PortId::ROOT,
            dst: flash.start,
            data: payload.clone(),
        });
        assert_eq!(written, copied, "a poisoned write lands the copy's bytes");
    }

    #[test]
    fn timed_out_device_transfers_move_nothing() {
        let (mut sim, req, dram, _flash) = setup();
        install_plan(
            &mut sim,
            dcs_sim::fault::TLP_HEADER,
            vec![0, 1],
            RecoveryConfig::no_retries(),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"source!!");
        let write = DmaOp::Write {
            port: PortId(2),
            dst: dram.start + 64,
            data: b"frame!!!".to_vec(),
        };
        let read = DmaOp::Read {
            port: PortId(2),
            src: dram.start,
            len: 8,
        };
        sim.kickoff(req, device_dma(1, write));
        sim.kickoff(req, device_dma(2, read));
        sim.run();
        let done = landed(&mut sim);
        assert_eq!(done.len(), 2);
        for c in &done {
            assert_eq!(c.status, DmaStatus::Timeout);
            assert!(c.data.is_empty(), "a timed-out read returns nothing");
        }
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(dram.start + 64, 8),
            [0; 8],
            "a timed-out write lands nothing"
        );
    }

    #[test]
    fn the_device_end_is_charged_to_the_requesters_port() {
        let len = 64 * 1024;
        let one = config::link_time(len);
        // From the flash's own port, a write into flash is a local
        // transfer: one serialization and one hop, like a same-port copy.
        let (mut sim, req, _dram, flash) = setup();
        let local = DmaOp::Write {
            port: PortId(1),
            dst: flash.start,
            data: vec![1; len],
        };
        sim.kickoff(req, device_dma(1, local));
        sim.run();
        assert_eq!(sim.now().as_nanos(), one + config::HOP_LATENCY_NS);

        // Two transfers whose memory ends sit behind different ports still
        // serialize on their shared requester's link.
        let (mut sim, req, dram, flash) = setup();
        let write = DmaOp::Write {
            port: PortId(2),
            dst: dram.start,
            data: vec![1; len],
        };
        let read = DmaOp::Read {
            port: PortId(2),
            src: flash.start,
            len,
        };
        sim.kickoff(req, device_dma(1, write));
        sim.kickoff(req, device_dma(2, read));
        sim.run();
        // The write leaves on port 2's egress and the read enters on its
        // ingress: they overlap, each one serialization long.
        let overlapped = sim.now().as_nanos();
        assert!(overlapped < 2 * one, "{overlapped} vs {}", 2 * one);

        let (mut sim, req, dram, flash) = setup();
        for (id, dst) in [(1, dram.start), (2, flash.start)] {
            let op = DmaOp::Write {
                port: PortId(2),
                dst,
                data: vec![1; len],
            };
            sim.kickoff(req, device_dma(id, op));
        }
        sim.run();
        let total = sim.now().as_nanos();
        assert!(
            total >= 2 * one,
            "two writes from one port share its egress: {total} vs {}",
            2 * one
        );
    }
}
