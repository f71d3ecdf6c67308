//! The PCIe switch component: DMA execution, MMIO routing, MSI delivery.
//!
//! Timing model: a transfer from the memory behind port A to the memory
//! behind port B serializes on A's egress link, B's ingress link, and the
//! switch crossbar (each a FIFO server tracking its own occupancy), and
//! pays one hop of propagation latency per traversed link. The completion
//! instant is the latest of the three serializations plus propagation —
//! a cut-through approximation that avoids charging store-and-forward per
//! hop while still creating back-pressure on busy links (documented in
//! DESIGN.md). Data bytes move in [`PhysMemory`] at completion time.

use dcs_sim::{fault, Component, ComponentId, Ctx, Msg};

use crate::addr::PhysAddr;
use crate::aer::{self, AerKind};
use crate::config::PcieConfig;
use crate::mem::{PhysMemory, PortId};
use crate::routing::MmioRouting;

/// What a DMA's payload *is*, for fault-site selection: corrupting bulk
/// data and corrupting a completion structure are different failure
/// modes with different containment (payload checksums vs. entry CRCs),
/// so the corruption sites draw independently per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TlpClass {
    /// Bulk data movement (payloads, descriptors, staging buffers).
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

/// Asks the fabric to move `len` bytes from `src` to `dst`.
///
/// `id` is an opaque token chosen by the requester, echoed back in the
/// [`DmaComplete`] sent to `reply_to` when the bytes have landed.
#[derive(Debug, Clone)]
pub struct DmaRequest {
    /// Requester-chosen token echoed in the completion.
    pub id: u64,
    /// Source physical address.
    pub src: PhysAddr,
    /// Destination physical address.
    pub dst: PhysAddr,
    /// Transfer length in bytes.
    pub len: usize,
    /// Payload class (selects the corruption fault site).
    pub class: TlpClass,
    /// Component to notify on completion.
    pub reply_to: ComponentId,
}

/// Notifies the requester that a [`DmaRequest`] finished and its bytes are
/// visible at the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaComplete {
    /// Token from the originating request.
    pub id: u64,
    /// Bytes moved.
    pub len: usize,
    /// Integrity outcome; anything but [`DmaStatus::Ok`] means the
    /// destination bytes must not be trusted (and on
    /// [`DmaStatus::Timeout`] were never written).
    pub status: DmaStatus,
}

/// A posted MMIO write (doorbell ring, command enqueue). Routed by address
/// to the owning component, which receives this same payload.
#[derive(Debug, Clone)]
pub struct MmioWrite {
    /// Target register address.
    pub addr: PhysAddr,
    /// Bytes written (doorbell values are small; HDC D2D commands are 64 B).
    pub data: Vec<u8>,
}

/// A message-signaled interrupt: a write to an interrupt target address.
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

/// Internal: a DMA whose transfer time has elapsed.
#[derive(Debug)]
struct DmaDone {
    req: DmaRequest,
    status: DmaStatus,
    /// Fault-shaping entropy when corruption landed (picks the flipped
    /// bit at completion time, after the copy).
    corrupt: Option<u64>,
}

/// The switch / root-complex component.
///
/// Requires a [`PhysMemory`] and an [`MmioRouting`] to be registered in the
/// [`World`](dcs_sim::World) before the first message arrives.
pub struct PcieFabric {
    config: PcieConfig,
    /// Per-port egress (index 0) / ingress (index 1) serialization state.
    links: Vec<[dcs_sim::FifoServer; 2]>,
    crossbar: dcs_sim::FifoServer,
}

impl PcieFabric {
    /// Creates a fabric with the given configuration.
    pub fn new(config: PcieConfig) -> Self {
        let links = (0..config.ports).map(|_| Default::default()).collect();
        PcieFabric {
            config,
            links,
            crossbar: dcs_sim::FifoServer::new(),
        }
    }

    /// The fabric's configuration.
    pub fn config(&self) -> &PcieConfig {
        &self.config
    }

    fn link(&mut self, port: PortId, dir: usize) -> &mut dcs_sim::FifoServer {
        let idx = port.0 as usize;
        assert!(
            idx < self.links.len(),
            "{} out of range: fabric has {} ports",
            port,
            self.links.len()
        );
        &mut self.links[idx][dir]
    }

    fn start_dma(&mut self, ctx: &mut Ctx<'_>, req: DmaRequest) {
        let (src_port, dst_port) = {
            let mem = ctx.world_ref().expect::<PhysMemory>();
            (
                mem.region_of(req.src, req.len).port,
                mem.region_of(req.dst, req.len).port,
            )
        };
        let now = ctx.now();
        let service = self.config.link_time(req.len);
        let hop = self.config.hop_latency_ns;
        let done = if src_port == dst_port {
            // Local copy inside one endpoint: occupies only that endpoint's
            // DMA engine (modeled as its egress link), no switch traversal.
            let egress = self.link(src_port, 0).offer(now, service) + hop;
            ctx.world()
                .obs
                .span("pcie", "tlp-local", req.id, now, egress);
            egress
        } else {
            let xbar = self.crossbar.offer(now, self.config.switch_time(req.len));
            let egress = self.link(src_port, 0).offer(now, service);
            let ingress = self.link(dst_port, 1).offer(now, service);
            // Per-hop TLP transit spans: each serialization stage as the
            // fabric resolved it, in virtual time.
            let obs = &mut ctx.world().obs;
            obs.span("pcie", "tlp-egress", req.id, now, egress + hop);
            obs.span("pcie", "tlp-xbar", req.id, now, xbar);
            obs.span("pcie", "tlp-ingress", req.id, now, ingress + 2 * hop);
            egress.max(ingress).max(xbar) + 2 * hop
        };
        {
            let stats = &mut ctx.world().stats;
            stats.counter("pcie.dma_ops").add(1);
            stats.counter("pcie.dma_bytes").add(req.len as u64);
        }
        let mut delay = done - now;
        if fault::inject(ctx.world(), fault::PCIE_REPLAY).is_some() {
            // Link-level transfer error: the data-link layer replays the
            // TLPs transparently — no data loss, just a second pass of
            // serialization charged to the transfer.
            ctx.world().stats.counter("pcie.replays").add(1);
            delay += service + hop;
        }
        let mut status = DmaStatus::Ok;
        let mut corrupt = None;
        if fault::active(ctx.world_ref()) {
            // Header corruption first: an unrecognizable TLP is caught by
            // the link layer's LCRC/sequence check regardless of ECRC.
            // With replay budget it is retransmitted (one corrected AER
            // entry, one extra serialization pass); without, the request
            // effectively vanishes and the requester's completion timeout
            // fires.
            let retries = fault::recovery(ctx.world_ref())
                .map(|r| r.pcie_retries)
                .unwrap_or(0);
            if fault::inject(ctx.world(), fault::TLP_HEADER).is_some() {
                if retries > 0 {
                    fault::retried(ctx.world(), fault::TLP_HEADER);
                    fault::recovered(ctx.world(), fault::TLP_HEADER);
                    aer::record(
                        ctx.world(),
                        now.as_nanos(),
                        req.id,
                        fault::TLP_HEADER,
                        AerKind::EcrcReplay,
                    );
                    delay += service + hop;
                } else {
                    fault::exhausted(ctx.world(), fault::TLP_HEADER);
                    aer::record(
                        ctx.world(),
                        now.as_nanos(),
                        req.id,
                        fault::TLP_HEADER,
                        AerKind::CompletionTimeout,
                    );
                    status = DmaStatus::Timeout;
                    delay = self.config.cpl_timeout_ns;
                }
            }
            // Payload corruption, by class. While ECRC is on, each
            // corrupted attempt is detected at the receiver: replayed if
            // budget remains, delivered poisoned otherwise. With ECRC
            // off there is nothing to detect against — the first hit
            // lands silently as "successful" bad data.
            let site = match req.class {
                TlpClass::Data => fault::DMA_CORRUPT,
                TlpClass::Completion => fault::CPL_CORRUPT,
            };
            // ECRC is per TLP, so every packet of the transfer is an
            // eligible corruption event: a 16 KiB DMA at max_payload 256
            // rolls the dice 64 times per attempt. The first corrupted
            // TLP decides the attempt's fate (a replay re-sends the
            // whole request in this model).
            let tlps = req.len.div_ceil(self.config.max_payload);
            let mut attempt = 0;
            while status == DmaStatus::Ok {
                let mut hit = None;
                for _ in 0..tlps {
                    if let Some(entropy) = fault::inject(ctx.world(), site) {
                        hit = Some(entropy);
                        break;
                    }
                }
                let Some(entropy) = hit else { break };
                if !self.config.ecrc {
                    fault::exhausted(ctx.world(), site);
                    aer::record(
                        ctx.world(),
                        now.as_nanos(),
                        req.id,
                        site,
                        AerKind::SilentEscape,
                    );
                    ctx.world().stats.counter("pcie.ecrc_escapes").add(1);
                    corrupt = Some(entropy);
                    break;
                }
                if attempt < retries {
                    attempt += 1;
                    fault::retried(ctx.world(), site);
                    fault::recovered(ctx.world(), site);
                    aer::record(
                        ctx.world(),
                        now.as_nanos(),
                        req.id,
                        site,
                        AerKind::EcrcReplay,
                    );
                    delay += service + hop;
                } else {
                    fault::exhausted(ctx.world(), site);
                    aer::record(
                        ctx.world(),
                        now.as_nanos(),
                        req.id,
                        site,
                        AerKind::PoisonedTlp,
                    );
                    ctx.world().stats.counter("pcie.poisoned_tlps").add(1);
                    corrupt = Some(entropy);
                    status = DmaStatus::Poisoned;
                    break;
                }
            }
        }
        {
            let obs = &mut ctx.world().obs;
            let end = now + delay;
            obs.span("pcie", "dma", req.id, now, end);
            obs.count("pcie", "dma.ops", 1);
            obs.count("pcie", "dma.bytes", req.len as u64);
            obs.observe("pcie", "dma.ns", delay);
        }
        ctx.send_self_in(
            delay,
            DmaDone {
                req,
                status,
                corrupt,
            },
        );
    }

    fn finish_dma(&mut self, ctx: &mut Ctx<'_>, done: DmaDone) {
        let DmaDone {
            req,
            status,
            corrupt,
        } = done;
        let DmaRequest {
            id,
            src,
            dst,
            len,
            reply_to,
            ..
        } = req;
        if status != DmaStatus::Timeout {
            ctx.world().expect_mut::<PhysMemory>().copy(src, dst, len);
            if let Some(entropy) = corrupt {
                // Poison follows the data: the corrupted TLP's payload is
                // what landed, so flip one entropy-chosen bit in place.
                let offset = entropy % len as u64;
                let mem = ctx.world().expect_mut::<PhysMemory>();
                let mut byte = mem.read(dst + offset, 1);
                byte[0] ^= 1 << ((entropy >> 32) % 8);
                mem.write(dst + offset, &byte);
            }
        }
        ctx.send_now(reply_to, DmaComplete { id, len, status });
    }

    fn route_mmio(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let addr = msg.get::<MmioWrite>().expect("checked by caller").addr;
        let owner = ctx
            .world_ref()
            .expect::<MmioRouting>()
            .owner_of(addr)
            .unwrap_or_else(|| panic!("MMIO write to unclaimed address {addr}"));
        ctx.world().stats.counter("pcie.mmio_writes").add(1);
        let delay = self.config.mmio_write_ns + 2 * self.config.hop_latency_ns;
        {
            let now = ctx.now();
            let end = now + delay;
            let obs = &mut ctx.world().obs;
            obs.span("pcie", "mmio-write", addr.0, now, end);
            obs.count("pcie", "mmio.writes", 1);
        }
        ctx.forward_in(delay, owner, msg);
    }

    fn route_msi(&mut self, ctx: &mut Ctx<'_>, msi: Msi) {
        let owner = ctx
            .world_ref()
            .expect::<MmioRouting>()
            .owner_of(msi.addr)
            .unwrap_or_else(|| panic!("MSI to unclaimed address {}", msi.addr));
        ctx.world().stats.counter("pcie.msi").add(1);
        if fault::inject(ctx.world(), fault::MSI_LOSS).is_some() {
            // The interrupt write never lands; consumers recover by
            // polling their completion structures on a timeout.
            ctx.world().stats.counter("pcie.msi_lost").add(1);
            return;
        }
        {
            let now = ctx.now();
            let end = now + self.config.msi_ns;
            let obs = &mut ctx.world().obs;
            obs.span("pcie", "msi", msi.vector as u64, now, end);
            obs.count("pcie", "msi.delivered", 1);
        }
        ctx.send_in(
            self.config.msi_ns,
            owner,
            MsiDelivery { vector: msi.vector },
        );
    }

    /// Busy time accumulated on a port's egress (`dir = 0`) or ingress
    /// (`dir = 1`) link — exposed for utilization assertions in tests.
    pub fn link_busy_time(&self, port: PortId, dir: usize) -> u64 {
        self.links[port.0 as usize][dir].busy_time()
    }
}

impl Component for PcieFabric {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<MmioWrite>() {
            self.route_mmio(ctx, msg);
            return;
        }
        let msg = match msg.downcast::<DmaRequest>() {
            Ok(req) => {
                self.start_dma(ctx, req);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<DmaDone>() {
            Ok(done) => {
                self.finish_dma(ctx, done);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<Msi>() {
            Ok(msi) => self.route_msi(ctx, msi),
            Err(other) => panic!("PcieFabric received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_sim::{SimTime, Simulator};

    /// Captures completions for inspection.
    struct Sink {
        completions: Vec<(u64, SimTime)>,
        statuses: Vec<DmaStatus>,
        mmio: Vec<(PhysAddr, Vec<u8>)>,
        msi: Vec<u32>,
    }
    impl Sink {
        fn new() -> Self {
            Sink {
                completions: vec![],
                statuses: vec![],
                mmio: vec![],
                msi: vec![],
            }
        }
    }

    impl Component for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let msg = match msg.downcast::<DmaComplete>() {
                Ok(c) => {
                    self.completions.push((c.id, ctx.now()));
                    self.statuses.push(c.status);
                    ctx.world().stats.counter("sink.dma").add(1);
                    if c.status.is_ok() {
                        ctx.world().stats.counter("sink.dma_ok").add(1);
                    }
                    return;
                }
                Err(m) => m,
            };
            let msg = match msg.downcast::<MmioWrite>() {
                Ok(w) => {
                    self.mmio.push((w.addr, w.data));
                    ctx.world().stats.counter("sink.mmio").add(1);
                    return;
                }
                Err(m) => m,
            };
            match msg.downcast::<MsiDelivery>() {
                Ok(d) => {
                    self.msi.push(d.vector);
                    ctx.world().stats.counter("sink.msi").add(1);
                }
                Err(other) => panic!("unexpected: {other:?}"),
            }
        }
    }

    fn setup() -> (
        Simulator,
        ComponentId,
        ComponentId,
        crate::AddrRange,
        crate::AddrRange,
    ) {
        let mut sim = Simulator::new(0);
        let mut mem = PhysMemory::new();
        let dram = mem.alloc_region("dram", 1 << 24, PortId::ROOT);
        let flash = mem.alloc_region("flash", 1 << 24, PortId(1));
        sim.world_mut().insert(mem);
        sim.world_mut().insert(MmioRouting::new());
        let fabric = sim.add("pcie", PcieFabric::new(PcieConfig::default()));
        let sink = sim.add("sink", Sink::new());
        (sim, fabric, sink, dram, flash)
    }

    #[test]
    fn dma_moves_bytes_and_completes() {
        let (mut sim, fabric, sink, dram, flash) = setup();
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(
            fabric,
            DmaRequest {
                id: 7,
                src: dram.start,
                dst: flash.start + 64,
                len: 8,
                class: TlpClass::Data,
                reply_to: sink,
            },
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("sink.dma"), 1);
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
    fn concurrent_dmas_on_one_link_serialize() {
        let (mut sim, fabric, sink, dram, flash) = setup();
        let len = 64 * 1024;
        for i in 0..2 {
            sim.kickoff(
                fabric,
                DmaRequest {
                    id: i,
                    src: flash.start,
                    dst: dram.start + i * 128 * 1024,
                    len,
                    class: TlpClass::Data,
                    reply_to: sink,
                },
            );
        }
        sim.run();
        let cfg = PcieConfig::default();
        let one = cfg.link_time(len);
        // Second transfer must wait for the first on the flash egress link:
        // total ≈ 2 * serialization + hops.
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
        let mut sim = Simulator::new(0);
        let mut mem = PhysMemory::new();
        let a = mem.alloc_region("a", 1 << 24, PortId(1));
        let b = mem.alloc_region("b", 1 << 24, PortId(2));
        let c = mem.alloc_region("c", 1 << 24, PortId(3));
        let d = mem.alloc_region("d", 1 << 24, PortId(4));
        sim.world_mut().insert(mem);
        sim.world_mut().insert(MmioRouting::new());
        let fabric = sim.add("pcie", PcieFabric::new(PcieConfig::default()));
        let sink = sim.add("sink", Sink::new());
        let len = 256 * 1024;
        let dma = |id, src, dst| DmaRequest {
            id,
            src,
            dst,
            len,
            class: TlpClass::Data,
            reply_to: sink,
        };
        sim.kickoff(fabric, dma(0, a.start, b.start));
        sim.kickoff(fabric, dma(1, c.start, d.start));
        sim.run();
        let cfg = PcieConfig::default();
        let one_link = cfg.link_time(len);
        let both_xbar = 2 * cfg.switch_time(len);
        // Parallel on links, serialized only on the crossbar.
        let expected_floor = one_link.max(both_xbar);
        let total = sim.now().as_nanos();
        assert!(total >= expected_floor, "{total} vs {expected_floor}");
        assert!(
            total < 2 * one_link,
            "transfers must overlap: {total} vs {}",
            2 * one_link
        );
    }

    #[test]
    fn mmio_routes_to_owner_with_payload() {
        let (mut sim, fabric, sink, _dram, _flash) = setup();
        let reg = crate::AddrRange::new(PhysAddr(0xF000_0000), 0x1000);
        sim.world_mut().expect_mut::<MmioRouting>().claim(reg, sink);
        sim.kickoff(
            fabric,
            MmioWrite {
                addr: reg.start + 8,
                data: vec![1, 2, 3, 4],
            },
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("sink.mmio"), 1);
        assert_eq!(sim.world().stats.counter_value("pcie.mmio_writes"), 1);
        // 300ns write + 2 * 250ns hops.
        assert_eq!(sim.now().as_nanos(), 800);
    }

    #[test]
    #[should_panic(expected = "unclaimed address")]
    fn mmio_to_unclaimed_address_panics() {
        let (mut sim, fabric, _sink, _dram, _flash) = setup();
        sim.kickoff(
            fabric,
            MmioWrite {
                addr: PhysAddr(0xdead_0000),
                data: vec![0],
            },
        );
        sim.run();
    }

    #[test]
    fn msi_delivers_vector_to_owner() {
        let (mut sim, fabric, sink, _dram, _flash) = setup();
        let msi_range = crate::AddrRange::new(PhysAddr(0xFEE0_0000), 0x1000);
        sim.world_mut()
            .expect_mut::<MmioRouting>()
            .claim(msi_range, sink);
        sim.kickoff(
            fabric,
            Msi {
                addr: msi_range.start,
                vector: 42,
            },
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("sink.msi"), 1);
        assert_eq!(sim.now().as_nanos(), PcieConfig::default().msi_ns);
    }

    #[test]
    fn zero_length_dma_completes_fast() {
        let (mut sim, fabric, sink, dram, flash) = setup();
        sim.kickoff(
            fabric,
            DmaRequest {
                id: 1,
                src: dram.start,
                dst: flash.start,
                len: 0,
                class: TlpClass::Data,
                reply_to: sink,
            },
        );
        sim.run();
        assert_eq!(sim.world().stats.counter_value("sink.dma"), 1);
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

    #[test]
    fn ecrc_replay_recovers_payload_corruption() {
        let (mut sim, fabric, sink, dram, flash) = setup();
        install_plan(
            &mut sim,
            dcs_sim::fault::DMA_CORRUPT,
            vec![0],
            RecoveryConfig::default(),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(
            fabric,
            DmaRequest {
                id: 1,
                src: dram.start,
                dst: flash.start,
                len: 8,
                class: TlpClass::Data,
                reply_to: sink,
            },
        );
        sim.run();
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(flash.start, 8),
            b"payload!"
        );
        assert_eq!(sim.world().stats.counter_value("sink.dma_ok"), 1);
        assert_eq!(sim.world().stats.counter_value("fault.injected"), 1);
        assert_eq!(sim.world().stats.counter_value("fault.recovered"), 1);
        assert_eq!(sim.world().stats.counter_value("aer.ecrc_replay"), 1);
        assert_eq!(sim.world().stats.counter_value("aer.detected"), 1);
    }

    #[test]
    fn exhausted_replays_deliver_a_poisoned_tlp() {
        let (mut sim, fabric, sink, dram, flash) = setup();
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
        sim.kickoff(
            fabric,
            DmaRequest {
                id: 1,
                src: dram.start,
                dst: flash.start,
                len: 8,
                class: TlpClass::Data,
                reply_to: sink,
            },
        );
        sim.run();
        let landed = sim.world().expect::<PhysMemory>().read(flash.start, 8);
        assert_eq!(
            bit_diff(&landed, b"payload!"),
            1,
            "poison is a single flipped bit"
        );
        assert_eq!(sim.world().stats.counter_value("sink.dma"), 1);
        assert_eq!(
            sim.world().stats.counter_value("sink.dma_ok"),
            0,
            "poison is not success"
        );
        assert_eq!(sim.world().stats.counter_value("fault.injected"), 3);
        assert_eq!(sim.world().stats.counter_value("fault.recovered"), 2);
        assert_eq!(sim.world().stats.counter_value("fault.exhausted"), 1);
        assert_eq!(sim.world().stats.counter_value("pcie.poisoned_tlps"), 1);
        assert_eq!(sim.world().stats.counter_value("aer.detected"), 3);
    }

    #[test]
    fn ecrc_off_lets_corruption_escape_as_success() {
        let mut sim = Simulator::new(0);
        let mut mem = PhysMemory::new();
        let dram = mem.alloc_region("dram", 1 << 24, PortId::ROOT);
        let flash = mem.alloc_region("flash", 1 << 24, PortId(1));
        sim.world_mut().insert(mem);
        sim.world_mut().insert(MmioRouting::new());
        let fabric = sim.add(
            "pcie",
            PcieFabric::new(PcieConfig {
                ecrc: false,
                ..PcieConfig::default()
            }),
        );
        let sink = sim.add("sink", Sink::new());
        install_plan(
            &mut sim,
            dcs_sim::fault::DMA_CORRUPT,
            vec![0],
            RecoveryConfig::default(),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(
            fabric,
            DmaRequest {
                id: 1,
                src: dram.start,
                dst: flash.start,
                len: 8,
                class: TlpClass::Data,
                reply_to: sink,
            },
        );
        sim.run();
        let landed = sim.world().expect::<PhysMemory>().read(flash.start, 8);
        assert_eq!(bit_diff(&landed, b"payload!"), 1, "corruption landed");
        assert_eq!(
            sim.world().stats.counter_value("sink.dma_ok"),
            1,
            "without ECRC the fabric cannot tell: silent escape"
        );
        assert_eq!(sim.world().stats.counter_value("pcie.ecrc_escapes"), 1);
        assert_eq!(sim.world().stats.counter_value("aer.escape"), 1);
        assert_eq!(sim.world().stats.counter_value("aer.detected"), 0);
    }

    #[test]
    fn header_corruption_without_budget_is_a_completion_timeout() {
        let (mut sim, fabric, sink, dram, flash) = setup();
        install_plan(
            &mut sim,
            dcs_sim::fault::TLP_HEADER,
            vec![0],
            RecoveryConfig::no_retries(),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(
            fabric,
            DmaRequest {
                id: 1,
                src: dram.start,
                dst: flash.start,
                len: 8,
                class: TlpClass::Data,
                reply_to: sink,
            },
        );
        sim.run();
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(flash.start, 8),
            vec![0u8; 8],
            "nothing may land on a timeout"
        );
        assert_eq!(
            sim.world().stats.counter_value("sink.dma"),
            1,
            "requester is notified"
        );
        assert_eq!(sim.world().stats.counter_value("sink.dma_ok"), 0);
        assert_eq!(sim.world().stats.counter_value("aer.cpl_timeout"), 1);
        assert!(
            sim.now().as_nanos() >= PcieConfig::default().cpl_timeout_ns,
            "completion waits out the timeout: {}",
            sim.now()
        );
    }

    #[test]
    fn header_corruption_with_budget_replays_transparently() {
        let (mut sim, fabric, sink, dram, flash) = setup();
        install_plan(
            &mut sim,
            dcs_sim::fault::TLP_HEADER,
            vec![0],
            RecoveryConfig::default(),
        );
        sim.world_mut()
            .expect_mut::<PhysMemory>()
            .write(dram.start, b"payload!");
        sim.kickoff(
            fabric,
            DmaRequest {
                id: 1,
                src: dram.start,
                dst: flash.start,
                len: 8,
                class: TlpClass::Data,
                reply_to: sink,
            },
        );
        sim.run();
        assert_eq!(
            sim.world().expect::<PhysMemory>().read(flash.start, 8),
            b"payload!"
        );
        assert_eq!(sim.world().stats.counter_value("sink.dma_ok"), 1);
        assert_eq!(sim.world().stats.counter_value("fault.recovered"), 1);
    }

    #[test]
    fn completion_class_draws_the_cpl_site_not_the_data_site() {
        let (mut sim, fabric, sink, dram, flash) = setup();
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
        sim.kickoff(
            fabric,
            DmaRequest {
                id: 1,
                src: dram.start,
                dst: flash.start,
                len: 8,
                class: TlpClass::Completion,
                reply_to: sink,
            },
        );
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
        let (mut sim, fabric, sink, dram, _flash) = setup();
        let len = 4096;
        sim.kickoff(
            fabric,
            DmaRequest {
                id: 1,
                src: dram.start,
                dst: dram.start + 8192,
                len,
                class: TlpClass::Data,
                reply_to: sink,
            },
        );
        sim.run();
        let cfg = PcieConfig::default();
        assert_eq!(
            sim.now().as_nanos(),
            cfg.link_time(len) + cfg.hop_latency_ns
        );
    }

    #[test]
    fn same_port_copy_skips_the_switch() {
        let (mut sim, fabric, sink, dram, _flash) = setup();
        let len = 4096;
        sim.kickoff(
            fabric,
            DmaRequest {
                id: 1,
                src: dram.start,
                dst: dram.start + 8192,
                len,
                class: TlpClass::Data,
                reply_to: sink,
            },
        );
        sim.run();
        let cfg = PcieConfig::default();
        // One serialization + one hop, no crossbar time.
        assert_eq!(
            sim.now().as_nanos(),
            cfg.link_time(len) + cfg.hop_latency_ns
        );
        assert_eq!(sim.world().stats.counter_value("pcie.dma_ops"), 1);
    }
}
