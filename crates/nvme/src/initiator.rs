//! The initiator side of the NVMe protocol, shared by every initiator.
//!
//! The host NVMe driver (baseline designs) and the HDC Engine's NVMe
//! controller (DCS-ctrl) drive a drive the same standard way (§III-C):
//! split a request at the drive's MDTS, give each command a CID and a
//! PRP list page, push it to the submission queue and ring the tail
//! doorbell; later drain the completion queue, ring the head doorbell,
//! and settle each command — resubmitting a retryable failure within
//! `RecoveryConfig::nvme_retries`. [`NvmeInitiator`] does that ring and
//! memory work and returns what happened: the doorbell writes to send,
//! and which commands and requests settled.
//!
//! The recovery ladder is shared too: [`rung`] decides when a silent
//! request stops waiting, resets the controller
//! ([`NvmeInitiator::reset`]) or fails. Callers keep their own timers,
//! cost accounting, queue id and depth, and counter names.

use dcs_pcie::{MmioWrite, PhysAddr, PhysMemory};
use dcs_sim::{fault, ComponentId, DetMap, RecoveryConfig, SimTime, World};

use crate::device::{AttachQueuePair, NvmeHandle};
use crate::queue::{CompletionQueueReader, SubmissionQueueWriter};
use crate::spec::{NvmeCommand, NvmeCompletion, NvmeOpcode, PrpList, LBA_SIZE, PAGE_SIZE};

/// One I/O against a contiguous, page-aligned buffer: a whole request
/// before [`NvmeInitiator::submit`] splits it, one MDTS chunk after.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NvmeIo<R> {
    /// The caller's request key.
    pub req: R,
    /// Write (true) or read.
    pub write: bool,
    /// Starting logical block.
    pub lba: u64,
    /// Transfer length in bytes.
    pub len: usize,
    /// Data buffer.
    pub buf: PhysAddr,
    /// When the request was issued (retries keep the original time).
    pub issued_at: SimTime,
}

/// What settling one completion did.
#[derive(Debug)]
pub enum Outcome<R> {
    /// No outstanding command carries this CID (a poisoned entry, or one
    /// a reset retired): dropped without moving the SQ head.
    Unknown,
    /// The command's request was already settled or abandoned.
    Stale,
    /// A retryable failure within budget: the command was resubmitted
    /// under a fresh CID; ring this tail doorbell.
    Retried(MmioWrite),
    /// The command settled. `done` is `Some(ok)` when it was the
    /// request's last outstanding command (`ok` only if every command
    /// succeeded).
    Settled {
        /// The settled command.
        io: NvmeIo<R>,
        /// The request's result, once its last command settled.
        done: Option<bool>,
    },
}

struct Command<R> {
    io: NvmeIo<R>,
    attempts: u32,
}

struct Progress {
    remaining: usize,
    failed: bool,
    /// Start of the ladder clock: the request's issue or the last
    /// controller reset.
    since: SimTime,
}

/// The next step of the NVMe recovery ladder for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Within its deadline: keep polling the completion queue.
    Wait,
    /// Overdue with a controller reset left in the budget.
    Reset,
    /// Overdue with the reset budget spent: fail the request.
    Fail,
}

/// The NVMe recovery ladder, for the host driver and the HDC Engine
/// alike: a request silent for `age_ns` since its issue or the last
/// controller reset waits for `fault::OP_TIMEOUT_NS`, then resets the
/// controller while `resets_used` is below `rc.nvme_resets`, then fails.
pub fn rung(age_ns: u64, resets_used: u32, rc: &RecoveryConfig) -> Rung {
    match (age_ns >= fault::OP_TIMEOUT_NS, resets_used < rc.nvme_resets) {
        (false, _) => Rung::Wait,
        (true, true) => Rung::Reset,
        (true, false) => Rung::Fail,
    }
}

/// The ladder's worst case: how long a request can stay unsettled before
/// [`rung`] resets its controller for the last time and then fails it.
/// Each of the `rc.nvme_resets` resets, and the final failure, waits out
/// `fault::OP_TIMEOUT_NS`, and the initiator's check may notice each up
/// to one `fault::NVME_TIMEOUT_NS` period late. Anyone waiting on a
/// request — a job deadline, a peer's receive — must wait at least this
/// long, or the reset rung can never save it.
pub fn ladder_bound_ns(rc: &RecoveryConfig) -> u64 {
    (u64::from(rc.nvme_resets) + 1) * (fault::OP_TIMEOUT_NS + fault::NVME_TIMEOUT_NS)
}

/// One initiator's queue pair on one drive, with its outstanding
/// commands and requests. `R` is the caller's request key.
pub struct NvmeInitiator<R> {
    handle: NvmeHandle,
    attach: AttachQueuePair,
    sq: SubmissionQueueWriter,
    cq: CompletionQueueReader,
    /// One PRP-list page per CID slot.
    prp_scratch: PhysAddr,
    next_cid: u16,
    commands: DetMap<u16, Command<R>>,
    requests: DetMap<R, Progress>,
    /// Controller resets performed (the ladder's budget).
    resets: u32,
}

impl<R: Copy + Eq + std::hash::Hash> NvmeInitiator<R> {
    /// An initiator for the queue pair `attach` describes on `handle`'s
    /// drive. `prp_scratch` must be page-aligned and hold one page per
    /// queue slot.
    pub fn new(handle: NvmeHandle, attach: AttachQueuePair, prp_scratch: PhysAddr) -> Self {
        NvmeInitiator {
            handle,
            attach,
            sq: SubmissionQueueWriter::new(attach.sq_base, attach.depth),
            cq: CompletionQueueReader::new(attach.cq_base, attach.depth),
            prp_scratch,
            next_cid: 0,
            commands: DetMap::new(),
            requests: DetMap::new(),
            resets: 0,
        }
    }

    /// The drive component.
    pub fn device(&self) -> ComponentId {
        self.handle.device
    }

    /// The queue-pair configuration to send to the drive before first use.
    pub fn attach(&self) -> AttachQueuePair {
        self.attach
    }

    /// Whether the submission queue has no free slot.
    pub fn is_full(&self) -> bool {
        self.sq.is_full()
    }

    /// Requests with commands still outstanding.
    pub fn in_flight(&self) -> usize {
        self.requests.len()
    }

    /// Whether `req` still has commands outstanding.
    pub fn is_in_flight(&self, req: &R) -> bool {
        self.requests.contains_key(req)
    }

    /// The ladder's next step at `now` for every request in flight, in
    /// issue order, under this queue pair's resets so far.
    pub fn ladder(&self, now: SimTime, rc: &RecoveryConfig) -> Vec<(R, Rung)> {
        let step = |p: &Progress| rung(now - p.since, self.resets, rc);
        self.requests
            .iter()
            .map(|(&req, p)| (req, step(p)))
            .collect()
    }

    /// Reserves the next CID (wrapping at `u16::MAX`). A request's first
    /// command carries the CID its caller reserved, as a block layer tags
    /// a request before it reaches the driver.
    pub fn alloc_cid(&mut self) -> u16 {
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        cid
    }

    /// Splits `io` at the drive's MDTS (padding the length to whole
    /// blocks), pushes one command per chunk — the first under `tag`,
    /// the rest under fresh CIDs — and returns the tail doorbell.
    pub fn submit(&mut self, mem: &mut PhysMemory, tag: u16, io: NvmeIo<R>) -> MmioWrite {
        let mdts = self.handle.max_transfer;
        let padded = io.len.div_ceil(LBA_SIZE as usize).max(1) * LBA_SIZE as usize;
        let mut chunks = 0;
        for off in (0..padded).step_by(mdts) {
            let cid = if off == 0 { tag } else { self.alloc_cid() };
            let chunk = NvmeIo {
                lba: io.lba + off as u64 / LBA_SIZE,
                len: mdts.min(padded - off),
                buf: io.buf + off as u64,
                ..io
            };
            self.push(mem, cid, chunk, 0);
            chunks += 1;
        }
        self.requests.insert(
            io.req,
            Progress {
                remaining: chunks,
                failed: false,
                since: io.issued_at,
            },
        );
        self.sq_doorbell()
    }

    fn sq_doorbell(&self) -> MmioWrite {
        MmioWrite::doorbell(self.handle.sq_doorbell(self.attach.qid), self.sq.tail())
    }

    /// Writes one command (and its PRP list page) into the SQ.
    fn push(&mut self, mem: &mut PhysMemory, cid: u16, io: NvmeIo<R>, attempts: u32) {
        let list_page = self.prp_scratch + (cid % self.attach.depth) as u64 * PAGE_SIZE;
        let prps = PrpList::for_contiguous(io.buf, io.len, list_page);
        let cmd = NvmeCommand {
            opcode: if io.write {
                NvmeOpcode::Write
            } else {
                NvmeOpcode::Read
            },
            cid,
            nsid: 1,
            prp1: prps.prp1,
            prp2: prps.prp2,
            slba: io.lba,
            nlb: (io.len / LBA_SIZE as usize - 1) as u16,
        };
        if !prps.list_entries.is_empty() {
            mem.write(list_page, &prps.list_bytes());
        }
        self.sq.push(mem, &cmd);
        self.commands.insert(cid, Command { io, attempts });
    }

    /// Pops every posted completion. Returns them with the CQ-head
    /// doorbell, or `None` when nothing was posted (a spurious interrupt
    /// or an idle poll).
    pub fn drain(&mut self, mem: &PhysMemory) -> Option<(Vec<NvmeCompletion>, MmioWrite)> {
        let entries: Vec<_> = std::iter::from_fn(|| self.cq.pop(mem)).collect();
        if entries.is_empty() {
            return None;
        }
        let head = MmioWrite::doorbell(self.handle.cq_doorbell(self.attach.qid), self.cq.head());
        Some((entries, head))
    }

    /// Settles the command `entry` completes. Only an entry whose CID
    /// this initiator issued moves the SQ head; any other is
    /// [`Outcome::Unknown`]. A retryable status is resubmitted while the
    /// installed fault plan's `nvme_retries` budget lasts, and otherwise
    /// settles as a failure; retries, exhausted budgets and recoveries
    /// are tallied against the NVMe media site.
    pub fn complete(&mut self, world: &mut World, entry: &NvmeCompletion) -> Outcome<R> {
        let Some(cmd) = self.commands.remove(&entry.cid) else {
            return Outcome::Unknown;
        };
        self.sq.update_head(entry.sq_head);
        if !self.requests.contains_key(&cmd.io.req) {
            return Outcome::Stale;
        }
        if entry.status.is_retryable() {
            if fault::recovery(world).is_some_and(|rc| cmd.attempts < rc.nvme_retries) {
                fault::retried(world, fault::NVME_MEDIA);
                let cid = self.alloc_cid();
                self.push(
                    world.expect_mut::<PhysMemory>(),
                    cid,
                    cmd.io,
                    cmd.attempts + 1,
                );
                return Outcome::Retried(self.sq_doorbell());
            }
            fault::exhausted(world, fault::NVME_MEDIA);
        } else if entry.status.is_ok() && cmd.attempts > 0 {
            fault::recovered(world, fault::NVME_MEDIA);
        }
        self.settle(cmd.io, entry.status.is_ok())
    }

    fn settle(&mut self, io: NvmeIo<R>, ok: bool) -> Outcome<R> {
        let Some(p) = self.requests.get_mut(&io.req) else {
            return Outcome::Stale;
        };
        p.remaining -= 1;
        p.failed |= !ok;
        let done = (p.remaining == 0).then_some(!p.failed);
        if done.is_some() {
            self.requests.remove(&io.req);
        }
        Outcome::Settled { io, done }
    }

    /// Gives up on a whole request. Completions for its commands that
    /// arrive later settle as [`Outcome::Stale`].
    pub fn abandon(&mut self, req: &R) {
        self.requests.remove(req);
    }

    /// Controller reset, the ladder's [`Rung::Reset`]: starts fresh
    /// rings, scrubs the CQ (stale phase bits must not read as new
    /// completions), drops the commands of abandoned requests and
    /// resubmits the others, in issue order, under fresh CIDs, so a
    /// pre-reset completion settles nothing. Every request's ladder
    /// clock restarts at `now`. Returns the queue-pair configuration to
    /// re-attach, which makes the drive drop whatever it still holds,
    /// and the SQ tail doorbell to ring after it.
    pub fn reset(&mut self, mem: &mut PhysMemory, now: SimTime) -> (AttachQueuePair, MmioWrite) {
        self.resets += 1;
        let a = self.attach;
        self.sq = SubmissionQueueWriter::new(a.sq_base, a.depth);
        self.cq = CompletionQueueReader::new(a.cq_base, a.depth);
        mem.write(
            a.cq_base,
            &vec![0u8; a.depth as usize * NvmeCompletion::SIZE],
        );
        let pending: Vec<Command<R>> = self.commands.drain().map(|(_, cmd)| cmd).collect();
        for cmd in pending {
            let Some(p) = self.requests.get_mut(&cmd.io.req) else {
                continue;
            };
            p.since = now;
            let cid = self.alloc_cid();
            self.push(mem, cid, cmd.io, cmd.attempts);
        }
        (a, self.sq_doorbell())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NvmeStatus;
    use dcs_pcie::{AddrRange, PortId};
    use dcs_sim::FaultPlan;

    const DEPTH: u16 = 64;

    /// A world with host memory and an initiator whose drive advertises
    /// `mdts`; the fault plan (if any) supplies the retry budget.
    fn rig(mdts: usize, recovery: Option<RecoveryConfig>) -> (World, NvmeInitiator<u32>) {
        let mut world = World::new(7);
        let mut mem = PhysMemory::new();
        let r = mem.alloc_region("rings", 1 << 20, PortId::ROOT);
        world.insert(mem);
        if let Some(rc) = recovery {
            let mut plan = FaultPlan::new(world.rng.fork());
            plan.recovery = rc;
            world.insert(plan);
        }
        let handle = NvmeHandle {
            device: ComponentId::INVALID,
            bar: AddrRange::new(PhysAddr(0x1000_0000), 0x2000),
            flash: AddrRange::new(PhysAddr(0x2000_0000), 0x1000),
            port: PortId(1),
            max_transfer: mdts,
        };
        let attach = AttachQueuePair {
            qid: 1,
            sq_base: r.start,
            cq_base: r.start + DEPTH as u64 * NvmeCommand::SIZE as u64,
            depth: DEPTH,
            msi_addr: PhysAddr::ZERO,
            msi_vector: 0,
        };
        (world, NvmeInitiator::new(handle, attach, r.start + 0x10000))
    }

    fn io(req: u32, lba: u64, len: usize) -> NvmeIo<u32> {
        NvmeIo {
            req,
            write: false,
            lba,
            len,
            buf: PhysAddr(0x4000_0000),
            issued_at: SimTime::ZERO,
        }
    }

    /// The commands in SQ slots `0..n`.
    fn sq(world: &World, init: &NvmeInitiator<u32>, n: u64) -> Vec<NvmeCommand> {
        let mem = world.expect::<PhysMemory>();
        (0..n)
            .map(|i| {
                let at = init.attach.sq_base + i * NvmeCommand::SIZE as u64;
                let raw: [u8; NvmeCommand::SIZE] = mem
                    .read(at, NvmeCommand::SIZE)
                    .try_into()
                    .expect("64 bytes");
                NvmeCommand::from_bytes(&raw).expect("valid command")
            })
            .collect()
    }

    /// Posts completions for `cids` (first CQ pass, phase 1).
    fn post(world: &mut World, init: &NvmeInitiator<u32>, cqes: &[(u16, NvmeStatus)]) {
        let entries: Vec<_> = cqes
            .iter()
            .map(|&(cid, status)| cqe(cid, 0, status))
            .collect();
        post_entries(world, init, &entries);
    }

    fn cqe(cid: u16, sq_head: u16, status: NvmeStatus) -> NvmeCompletion {
        NvmeCompletion {
            sq_head,
            sq_id: 1,
            cid,
            phase: true,
            status,
        }
    }

    fn post_entries(world: &mut World, init: &NvmeInitiator<u32>, entries: &[NvmeCompletion]) {
        let mem = world.expect_mut::<PhysMemory>();
        for (i, entry) in entries.iter().enumerate() {
            let at = init.attach.cq_base + (init.cq.head() as u64 + i as u64) * 16;
            mem.write(at, &entry.to_bytes());
        }
    }

    fn tail(doorbell: &MmioWrite) -> u32 {
        u32::from_le_bytes(doorbell.data[..4].try_into().expect("4 bytes"))
    }

    #[test]
    fn split_leaves_a_short_last_chunk() {
        let (mut world, mut init) = rig(8192, None);
        let tag = init.alloc_cid();
        // 20 KiB at MDTS 8 KiB: two full chunks and one 4 KiB chunk.
        let db = init.submit(world.expect_mut::<PhysMemory>(), tag, io(9, 10, 20480));
        assert_eq!(tail(&db), 3);
        assert_eq!(db.addr, init.handle.sq_doorbell(1));
        let cmds = sq(&world, &init, 3);
        let got: Vec<(u16, u64, u16, PhysAddr)> = cmds
            .iter()
            .map(|c| (c.cid, c.slba, c.nlb, c.prp1))
            .collect();
        let buf = PhysAddr(0x4000_0000);
        assert_eq!(
            got,
            [
                (0, 10, 1, buf),
                (1, 12, 1, buf + 8192),
                (2, 14, 0, buf + 16384)
            ]
        );
        assert!(init.is_in_flight(&9));
        assert_eq!(init.commands.get(&2).map(|c| c.io.req), Some(9));
    }

    #[test]
    fn partial_block_is_padded_to_a_whole_block() {
        let (mut world, mut init) = rig(8192, None);
        let tag = init.alloc_cid();
        init.submit(world.expect_mut::<PhysMemory>(), tag, io(1, 0, 5000));
        let cmds = sq(&world, &init, 1);
        assert_eq!(cmds[0].nlb, 1, "5000 bytes take two blocks");
        assert!(!init.commands.contains_key(&1), "one command only");
    }

    #[test]
    fn cid_counter_wraps_at_u16_max() {
        let (mut world, mut init) = rig(16384, None);
        for _ in 0..u16::MAX {
            init.alloc_cid();
        }
        let tag = init.alloc_cid();
        assert_eq!(tag, u16::MAX);
        init.submit(world.expect_mut::<PhysMemory>(), tag, io(5, 0, 3 * 16384));
        let cids: Vec<u16> = sq(&world, &init, 3).iter().map(|c| c.cid).collect();
        assert_eq!(cids, [u16::MAX, 0, 1]);
        // Four pages need a PRP list; its page is the CID's queue slot.
        let first = sq(&world, &init, 1)[0];
        assert_eq!(
            first.prp2,
            init.prp_scratch + (u16::MAX % DEPTH) as u64 * PAGE_SIZE
        );
    }

    #[test]
    fn media_error_is_retried_then_the_request_settles() {
        let (mut world, mut init) = rig(4096, Some(RecoveryConfig::default()));
        let tag = init.alloc_cid();
        init.submit(world.expect_mut::<PhysMemory>(), tag, io(3, 0, 8192));
        post(
            &mut world,
            &init,
            &[(0, NvmeStatus::MediaError), (1, NvmeStatus::Success)],
        );
        let (entries, head) = init
            .drain(world.expect::<PhysMemory>())
            .expect("two completions");
        assert_eq!((entries.len(), tail(&head)), (2, 2));
        assert_eq!(head.addr, init.handle.cq_doorbell(1));
        let Outcome::Retried(db) = init.complete(&mut world, &entries[0]) else {
            panic!("a media error within budget is resubmitted")
        };
        assert_eq!(tail(&db), 3);
        assert_eq!(sq(&world, &init, 3)[2].cid, 2, "under a fresh CID");
        assert!(matches!(
            init.complete(&mut world, &entries[1]),
            Outcome::Settled { done: None, .. }
        ));
        post(&mut world, &init, &[(2, NvmeStatus::Success)]);
        let (entries, _) = init.drain(world.expect::<PhysMemory>()).expect("retry");
        assert!(matches!(
            init.complete(&mut world, &entries[0]),
            Outcome::Settled {
                io: NvmeIo { req: 3, lba: 0, .. },
                done: Some(true),
            }
        ));
        assert!(!init.is_in_flight(&3));
        assert_eq!(world.stats.counter_value("retry.count"), 1);
        assert_eq!(world.stats.counter_value("fault.recovered"), 1);
        assert!(matches!(
            init.complete(&mut world, &entries[0]),
            Outcome::Unknown
        ));
    }

    #[test]
    fn exhausted_budget_fails_the_request() {
        let (mut world, mut init) = rig(4096, Some(RecoveryConfig::no_retries()));
        let tag = init.alloc_cid();
        init.submit(world.expect_mut::<PhysMemory>(), tag, io(4, 0, 4096));
        post(&mut world, &init, &[(0, NvmeStatus::MediaError)]);
        let (entries, _) = init.drain(world.expect::<PhysMemory>()).expect("one");
        assert!(matches!(
            init.complete(&mut world, &entries[0]),
            Outcome::Settled {
                done: Some(false),
                ..
            }
        ));
        assert_eq!(world.stats.counter_value("fault.exhausted"), 1);
    }

    #[test]
    fn abandoned_requests_settle_late_completions_as_stale() {
        let (mut world, mut init) = rig(4096, None);
        let tag = init.alloc_cid();
        init.submit(world.expect_mut::<PhysMemory>(), tag, io(6, 0, 8192));
        let rc = RecoveryConfig::default();
        let later = SimTime::ZERO + fault::OP_TIMEOUT_NS;
        let just_before = SimTime::ZERO + (fault::OP_TIMEOUT_NS - 1);
        assert_eq!(init.ladder(just_before, &rc), [(6, Rung::Wait)]);
        assert_eq!(init.ladder(later, &rc), [(6, Rung::Reset)]);
        init.abandon(&6);
        assert_eq!(init.in_flight(), 0);
        assert!(init.ladder(later, &rc).is_empty());
        post(&mut world, &init, &[(0, NvmeStatus::Success)]);
        let (entries, _) = init.drain(world.expect::<PhysMemory>()).expect("one");
        assert!(matches!(
            init.complete(&mut world, &entries[0]),
            Outcome::Stale
        ));
        assert!(init.drain(world.expect::<PhysMemory>()).is_none());
    }

    #[test]
    fn an_unknown_cid_neither_moves_the_sq_head_nor_settles_anything() {
        let (mut world, mut init) = rig(4096, None);
        let tag = init.alloc_cid();
        init.submit(world.expect_mut::<PhysMemory>(), tag, io(8, 0, 8192));
        let free = init.sq.free_slots();
        assert_eq!(free, DEPTH - 3, "two commands queued");
        // A poisoned entry: a plausible phase bit over a CID nothing
        // issued and a garbage SQ head, then a valid entry.
        post_entries(
            &mut world,
            &init,
            &[
                cqe(999, 50, NvmeStatus::Success),
                cqe(0, 1, NvmeStatus::Success),
            ],
        );
        let (entries, _) = init.drain(world.expect::<PhysMemory>()).expect("two");
        assert!(matches!(
            init.complete(&mut world, &entries[0]),
            Outcome::Unknown
        ));
        assert_eq!(init.sq.free_slots(), free, "the SQ head did not move");
        assert_eq!(init.commands.len(), 2, "nothing settled");
        assert!(matches!(
            init.complete(&mut world, &entries[1]),
            Outcome::Settled {
                io: NvmeIo { req: 8, lba: 0, .. },
                done: None,
            }
        ));
        assert_eq!(init.sq.free_slots(), free + 1, "the valid entry's head");
        assert!(!init.commands.contains_key(&0));
        assert!(init.is_in_flight(&8));
    }

    #[test]
    fn the_ladder_waits_then_resets_then_fails() {
        let rc = RecoveryConfig::default();
        let limit = fault::OP_TIMEOUT_NS;
        assert_eq!(rung(limit - 1, 0, &rc), Rung::Wait);
        assert_eq!(rung(limit, 0, &rc), Rung::Reset);
        assert_eq!(rung(limit, rc.nvme_resets, &rc), Rung::Fail);
        assert_eq!(rung(limit, 0, &RecoveryConfig::no_retries()), Rung::Fail);
    }

    #[test]
    fn reset_resubmits_unsettled_commands_under_fresh_cids() {
        let (mut world, mut init) = rig(4096, None);
        let a = init.alloc_cid();
        init.submit(world.expect_mut::<PhysMemory>(), a, io(1, 0, 8192));
        let b = init.alloc_cid();
        init.submit(world.expect_mut::<PhysMemory>(), b, io(2, 8, 4096));
        init.abandon(&2);
        // The request's first command settles; its second goes silent.
        post(&mut world, &init, &[(0, NvmeStatus::Success)]);
        let (entries, _) = init.drain(world.expect::<PhysMemory>()).expect("one");
        init.complete(&mut world, &entries[0]);
        let rc = RecoveryConfig::default();
        let now = SimTime::ZERO + fault::OP_TIMEOUT_NS;
        assert_eq!(init.ladder(now, &rc), [(1, Rung::Reset)]);
        let (attach, db) = init.reset(world.expect_mut::<PhysMemory>(), now);
        assert_eq!(attach.sq_base, init.attach.sq_base);
        assert_eq!(tail(&db), 1, "only the live request's silent command");
        let cmd = sq(&world, &init, 1)[0];
        assert_eq!((cmd.cid, cmd.slba), (3, 1), "a fresh CID, the same chunk");
        let cids: Vec<u16> = init.commands.keys().copied().collect();
        assert_eq!(cids, [3], "old CIDs retired, the abandoned request dropped");
        let later = now + fault::OP_TIMEOUT_NS;
        let just_before = now + (fault::OP_TIMEOUT_NS - 1);
        assert_eq!(
            init.ladder(just_before, &rc),
            [(1, Rung::Wait)],
            "restarted"
        );
        assert_eq!(init.ladder(later, &rc), [(1, Rung::Fail)], "budget spent");
        assert!(
            init.drain(world.expect::<PhysMemory>()).is_none(),
            "the CQ was scrubbed"
        );
        post(&mut world, &init, &[(1, NvmeStatus::Success)]);
        let (entries, _) = init.drain(world.expect::<PhysMemory>()).expect("one");
        assert!(matches!(
            init.complete(&mut world, &entries[0]),
            Outcome::Unknown
        ));
        post(&mut world, &init, &[(3, NvmeStatus::Success)]);
        let (entries, _) = init.drain(world.expect::<PhysMemory>()).expect("one");
        assert!(matches!(
            init.complete(&mut world, &entries[0]),
            Outcome::Settled {
                io: NvmeIo { req: 1, lba: 1, .. },
                done: Some(true),
            }
        ));
    }
}
