//! The HDC Engine scoreboard (§III-B, Figure 6).
//!
//! After the host interface parses a D2D command, the scoreboard splits it
//! into per-device commands, stores them in entries holding device,
//! direction, source/destination and state, and drives each through the
//! `wait → ready → issue → done` lifecycle: an entry becomes ready when
//! its pipeline predecessor completes, is issued when its target
//! controller has capacity, and the whole command completes when all its
//! entries are done. Completions are *delivered in request order* (§IV-C),
//! so a finished command waits behind earlier unfinished ones.
//!
//! This module is pure logic — the engine component wires it to simulated
//! time — which keeps the paper's scheduling rules directly testable.

use dcs_ndp::NdpFunction;
use dcs_pcie::PhysAddr;

/// A device command a scoreboard entry tracks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DevCmd {
    /// NVMe read into an engine buffer.
    NvmeRead {
        /// SSD index.
        ssd: usize,
        /// Starting logical block.
        lba: u64,
        /// Bytes to read.
        len: usize,
        /// Destination buffer (engine DDR3).
        buf: PhysAddr,
    },
    /// NVMe write from an engine buffer.
    NvmeWrite {
        /// SSD index.
        ssd: usize,
        /// Starting logical block.
        lba: u64,
        /// Bytes to write (set when the pipeline reaches this op).
        len: usize,
        /// Source buffer.
        buf: PhysAddr,
    },
    /// NDP processing over an engine buffer.
    Ndp {
        /// Function to run.
        function: NdpFunction,
        /// Aux parameters (already fetched from the aux buffer).
        aux: Vec<u8>,
        /// Data buffer.
        buf: PhysAddr,
        /// Data length (set when the pipeline reaches this op).
        len: usize,
    },
    /// NIC transmit from an engine buffer.
    NicSend {
        /// Registered connection id.
        conn: u16,
        /// Starting sequence number.
        seq: u32,
        /// Source buffer.
        buf: PhysAddr,
        /// Bytes to send (set when the pipeline reaches this op).
        len: usize,
    },
    /// NIC receive into an engine buffer (packet gathering included).
    NicRecv {
        /// Registered connection id.
        conn: u16,
        /// Bytes to accumulate.
        len: usize,
        /// Destination buffer.
        buf: PhysAddr,
    },
    /// DMA `len` bytes from host DRAM (cache-resident object) into an
    /// engine buffer — the cache-hit fast path.
    HostRead {
        /// Bytes to fetch.
        len: usize,
        /// Destination buffer (engine DDR3).
        buf: PhysAddr,
    },
}

impl DevCmd {
    /// The controller class that executes this command.
    pub fn controller(&self) -> ControllerClass {
        match self {
            DevCmd::NvmeRead { ssd, .. } | DevCmd::NvmeWrite { ssd, .. } => {
                ControllerClass::Nvme(*ssd)
            }
            DevCmd::Ndp { .. } => ControllerClass::Ndp,
            DevCmd::NicSend { .. } | DevCmd::NicRecv { .. } => ControllerClass::Nic,
            DevCmd::HostRead { .. } => ControllerClass::Dma,
        }
    }

    /// The buffer the command operates on.
    pub fn buf(&self) -> PhysAddr {
        match self {
            DevCmd::NvmeRead { buf, .. }
            | DevCmd::NvmeWrite { buf, .. }
            | DevCmd::Ndp { buf, .. }
            | DevCmd::NicSend { buf, .. }
            | DevCmd::NicRecv { buf, .. }
            | DevCmd::HostRead { buf, .. } => *buf,
        }
    }

    /// Current data length of the command.
    pub fn len(&self) -> usize {
        match self {
            DevCmd::NvmeRead { len, .. }
            | DevCmd::NvmeWrite { len, .. }
            | DevCmd::Ndp { len, .. }
            | DevCmd::NicSend { len, .. }
            | DevCmd::NicRecv { len, .. }
            | DevCmd::HostRead { len, .. } => *len,
        }
    }

    /// True when the command carries no payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sets the data length (payload propagation between pipeline stages).
    pub(crate) fn set_len(&mut self, new_len: usize) {
        match self {
            DevCmd::NvmeRead { len, .. }
            | DevCmd::NvmeWrite { len, .. }
            | DevCmd::Ndp { len, .. }
            | DevCmd::NicSend { len, .. }
            | DevCmd::NicRecv { len, .. }
            | DevCmd::HostRead { len, .. } => *len = new_len,
        }
    }
}

/// The controller a command is issued to (availability is tracked per
/// class).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ControllerClass {
    /// The NVMe controller for SSD `n`.
    Nvme(usize),
    /// The NDP unit bank.
    Ndp,
    /// The NIC controller.
    Nic,
    /// The engine's host-DMA path (cache-hit fetches from host DRAM).
    Dma,
}

/// Lifecycle of a scoreboard entry (Figure 6's `state` column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmdState {
    /// Dependencies unmet.
    Wait,
    /// Dependencies met; awaiting controller capacity.
    Ready,
    /// Issued to its controller.
    Issued,
    /// Completed.
    Done,
    /// Completed with error (poisons the rest of the pipeline).
    Failed,
}

/// Addresses one entry: command slot + op index (ordered by slot, then
/// op).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotRef {
    /// Index of the D2D command slot.
    pub slot: usize,
    /// Index of the device command within the slot.
    pub op: usize,
}

struct OpEntry {
    cmd: DevCmd,
    state: CmdState,
}

struct CmdEntry {
    id: u64,
    ops: Vec<OpEntry>,
    /// Admission order, for in-order completion delivery.
    seq: u64,
    delivered: bool,
}

impl CmdEntry {
    fn finished(&self) -> bool {
        self.ops
            .iter()
            .all(|o| matches!(o.state, CmdState::Done | CmdState::Failed))
        // A failed op causes the remaining Wait entries to be marked
        // Failed on the spot, so "all Done/Failed" is the right test.
    }

    fn failed(&self) -> bool {
        self.ops.iter().any(|o| o.state == CmdState::Failed)
    }
}

/// The scoreboard: up to `capacity` in-flight D2D commands.
pub struct Scoreboard {
    capacity: usize,
    slots: Vec<Option<CmdEntry>>,
    next_seq: u64,
    /// Next admission seq to deliver (in-order completion).
    next_deliver: u64,
}

impl Scoreboard {
    /// A scoreboard with `capacity` command slots (the prototype's host
    /// interface has 64, §IV-C).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "scoreboard needs at least one slot");
        Scoreboard {
            capacity,
            slots: (0..capacity).map(|_| None).collect(),
            next_seq: 0,
            next_deliver: 0,
        }
    }

    /// In-flight command count.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether another command can be admitted.
    pub(crate) fn has_room(&self) -> bool {
        self.occupancy() < self.capacity
    }

    /// Admits a split D2D command; the first op becomes `Ready`, the rest
    /// `Wait`. Returns the slot index, or `None` when full (the driver
    /// backs off, like any full hardware queue).
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn admit(&mut self, id: u64, ops: Vec<DevCmd>) -> Option<usize> {
        assert!(!ops.is_empty(), "a command must carry at least one op");
        let slot = self.slots.iter().position(|s| s.is_none())?;
        let entries = ops
            .into_iter()
            .enumerate()
            .map(|(i, cmd)| OpEntry {
                cmd,
                state: if i == 0 {
                    CmdState::Ready
                } else {
                    CmdState::Wait
                },
            })
            .collect();
        self.slots[slot] = Some(CmdEntry {
            id,
            ops: entries,
            seq: self.next_seq,
            delivered: false,
        });
        self.next_seq += 1;
        Some(slot)
    }

    /// Finds the oldest `Ready` entry whose controller `can_issue` and
    /// marks it `Issued`, returning its reference and a clone of the
    /// command. Call repeatedly until `None` to drain the ready set.
    pub fn issue_next(
        &mut self,
        mut can_issue: impl FnMut(ControllerClass) -> bool,
    ) -> Option<(SlotRef, DevCmd)> {
        // Oldest-first across commands (admission seq), then op order.
        let mut candidates: Vec<(u64, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (e.seq, i)))
            .collect();
        candidates.sort_unstable();
        for (_, slot) in candidates {
            let entry = self.slots[slot].as_mut().expect("candidate exists");
            for (op_idx, op) in entry.ops.iter_mut().enumerate() {
                if op.state == CmdState::Ready && can_issue(op.cmd.controller()) {
                    op.state = CmdState::Issued;
                    return Some((SlotRef { slot, op: op_idx }, op.cmd.clone()));
                }
            }
        }
        None
    }

    /// Marks an issued entry done. `out_len` propagates the payload length
    /// to the next pipeline stage (transforms change it), whose state
    /// moves `Wait → Ready`.
    ///
    /// # Panics
    ///
    /// Panics if the entry was not issued.
    pub fn mark_done(&mut self, at: SlotRef, out_len: usize) {
        let entry = self.slots[at.slot].as_mut().expect("live slot");
        let op = &mut entry.ops[at.op];
        assert_eq!(op.state, CmdState::Issued, "mark_done on non-issued entry");
        op.state = CmdState::Done;
        match entry.ops.get_mut(at.op + 1) {
            Some(next) => {
                debug_assert_eq!(next.state, CmdState::Wait);
                next.cmd.set_len(out_len);
                next.state = CmdState::Ready;
            }
            // The last op's output is the command's final payload.
            None => entry.ops[at.op].cmd.set_len(out_len),
        }
    }

    /// Marks an issued entry failed; remaining waiting ops of the command
    /// fail immediately (the pipeline is poisoned).
    pub(crate) fn mark_failed(&mut self, at: SlotRef) {
        let entry = self.slots[at.slot].as_mut().expect("live slot");
        assert_eq!(
            entry.ops[at.op].state,
            CmdState::Issued,
            "mark_failed on non-issued entry"
        );
        entry.ops[at.op].state = CmdState::Failed;
        for op in &mut entry.ops[at.op + 1..] {
            op.state = CmdState::Failed;
        }
    }

    /// Points this entry's op and every later op of the same command at a
    /// new buffer (used when a transform outgrows the original allocation).
    pub(crate) fn rebase_buffers(&mut self, at: SlotRef, new_buf: PhysAddr) {
        let entry = self.slots[at.slot].as_mut().expect("live slot");
        for op in &mut entry.ops[at.op..] {
            match &mut op.cmd {
                DevCmd::NvmeRead { buf, .. }
                | DevCmd::NvmeWrite { buf, .. }
                | DevCmd::Ndp { buf, .. }
                | DevCmd::NicSend { buf, .. }
                | DevCmd::NicRecv { buf, .. }
                | DevCmd::HostRead { buf, .. } => *buf = new_buf,
            }
        }
    }

    /// Whether `at` refers to a live, currently-issued entry. Stale
    /// references — a straggler completion for an op the fault watchdog
    /// already failed, or a duplicate device interrupt — return `false`
    /// instead of panicking downstream.
    pub(crate) fn is_issued(&self, at: SlotRef) -> bool {
        self.slots[at.slot].as_ref().is_some_and(|e| {
            e.ops
                .get(at.op)
                .is_some_and(|o| o.state == CmdState::Issued)
        })
    }

    /// Immutable view of an entry's command.
    pub fn op(&self, at: SlotRef) -> &DevCmd {
        &self.slots[at.slot].as_ref().expect("live slot").ops[at.op].cmd
    }

    /// The D2D command id occupying a slot.
    pub(crate) fn id_of(&self, slot: usize) -> u64 {
        self.slots[slot].as_ref().expect("live slot").id
    }

    /// Pops completions that may be *delivered*: commands fully finished
    /// AND preceded only by already-delivered commands (in-order delivery,
    /// §IV-C). Returns `(id, ok, final_len)` triples and frees the slots.
    pub fn pop_deliverable(&mut self) -> Vec<(u64, bool, usize)> {
        let mut out = Vec::new();
        loop {
            let next_seq = self.next_deliver;
            let Some(slot) = self
                .slots
                .iter()
                .position(|s| s.as_ref().is_some_and(|e| e.seq == next_seq))
            else {
                break;
            };
            let finished = self.slots[slot].as_ref().expect("present").finished();
            if !finished {
                break;
            }
            let entry = self.slots[slot].take().expect("present");
            debug_assert!(!entry.delivered);
            let ok = !entry.failed();
            let final_len = entry.ops.last().expect("non-empty").cmd.len();
            out.push((entry.id, ok, final_len));
            self.next_deliver += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(len: usize) -> DevCmd {
        DevCmd::NvmeRead {
            ssd: 0,
            lba: 0,
            len,
            buf: PhysAddr(0x1000),
        }
    }
    fn ndp() -> DevCmd {
        DevCmd::Ndp {
            function: NdpFunction::Md5,
            aux: vec![],
            buf: PhysAddr(0x1000),
            len: 0,
        }
    }
    fn send() -> DevCmd {
        DevCmd::NicSend {
            conn: 1,
            seq: 0,
            buf: PhysAddr(0x1000),
            len: 0,
        }
    }

    #[test]
    fn pipeline_issues_in_dependency_order() {
        let mut sb = Scoreboard::new(4);
        sb.admit(10, vec![read(4096), ndp(), send()]).unwrap();
        // Only the read is issuable.
        let (r0, cmd0) = sb.issue_next(|_| true).unwrap();
        assert!(matches!(cmd0, DevCmd::NvmeRead { .. }));
        assert!(sb.issue_next(|_| true).is_none(), "dependents must wait");
        // Read done: NDP becomes ready with the propagated length.
        sb.mark_done(r0, 4096);
        let (r1, cmd1) = sb.issue_next(|_| true).unwrap();
        match cmd1 {
            DevCmd::Ndp { len, .. } => assert_eq!(len, 4096),
            other => panic!("expected ndp, got {other:?}"),
        }
        sb.mark_done(r1, 4096);
        let (r2, cmd2) = sb.issue_next(|_| true).unwrap();
        assert!(matches!(cmd2, DevCmd::NicSend { len: 4096, .. }));
        sb.mark_done(r2, 4096);
        assert_eq!(sb.pop_deliverable(), vec![(10, true, 4096)]);
        assert_eq!(sb.occupancy(), 0);
    }

    #[test]
    fn a_last_transform_sets_the_final_length() {
        // gzip shrinking 4 KiB to 320 B as the last op: the completion
        // reports the transform's output, not its input.
        let mut sb = Scoreboard::new(4);
        sb.admit(3, vec![read(4096), ndp()]).unwrap();
        let (r0, _) = sb.issue_next(|_| true).unwrap();
        sb.mark_done(r0, 4096);
        let (r1, _) = sb.issue_next(|_| true).unwrap();
        sb.mark_done(r1, 320);
        assert_eq!(sb.pop_deliverable(), vec![(3, true, 320)]);
    }

    #[test]
    fn controller_backpressure_defers_issue() {
        let mut sb = Scoreboard::new(4);
        sb.admit(1, vec![read(4096)]).unwrap();
        assert!(sb.issue_next(|c| c != ControllerClass::Nvme(0)).is_none());
        assert!(sb.issue_next(|_| true).is_some());
    }

    #[test]
    fn independent_commands_issue_concurrently_oldest_first() {
        let mut sb = Scoreboard::new(4);
        sb.admit(1, vec![read(1)]).unwrap();
        sb.admit(2, vec![read(2)]).unwrap();
        let (a, cmd_a) = sb.issue_next(|_| true).unwrap();
        let (b, cmd_b) = sb.issue_next(|_| true).unwrap();
        assert_eq!(cmd_a.len(), 1, "oldest first");
        assert_eq!(cmd_b.len(), 2);
        // Finish out of order: 2 before 1.
        sb.mark_done(b, 2);
        assert!(
            sb.pop_deliverable().is_empty(),
            "in-order delivery holds 2 behind 1"
        );
        sb.mark_done(a, 1);
        assert_eq!(sb.pop_deliverable(), vec![(1, true, 1), (2, true, 2)]);
    }

    #[test]
    fn capacity_limits_admission() {
        let mut sb = Scoreboard::new(2);
        assert!(sb.admit(1, vec![read(1)]).is_some());
        assert!(sb.admit(2, vec![read(1)]).is_some());
        assert!(!sb.has_room());
        assert!(sb.admit(3, vec![read(1)]).is_none());
        // Draining frees a slot.
        let (r, _) = sb.issue_next(|_| true).unwrap();
        sb.mark_done(r, 1);
        sb.pop_deliverable();
        assert!(sb.admit(3, vec![read(1)]).is_some());
    }

    #[test]
    fn failure_poisons_pipeline_and_reports_not_ok() {
        let mut sb = Scoreboard::new(4);
        sb.admit(9, vec![read(4096), ndp(), send()]).unwrap();
        let (r0, _) = sb.issue_next(|_| true).unwrap();
        sb.mark_failed(r0);
        // Nothing further issues from the poisoned command.
        assert!(sb.issue_next(|_| true).is_none());
        let delivered = sb.pop_deliverable();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].0, 9);
        assert!(!delivered[0].1);
    }

    #[test]
    #[should_panic(expected = "non-issued")]
    fn mark_done_requires_issued_state() {
        let mut sb = Scoreboard::new(2);
        sb.admit(1, vec![read(1), ndp()]).unwrap();
        sb.mark_done(SlotRef { slot: 0, op: 1 }, 0);
    }

    #[test]
    fn lengths_propagate_through_transforms() {
        let mut sb = Scoreboard::new(2);
        sb.admit(
            5,
            vec![
                read(100_000),
                DevCmd::Ndp {
                    function: NdpFunction::GzipCompress,
                    aux: vec![],
                    buf: PhysAddr(0x1000),
                    len: 0,
                },
                send(),
            ],
        )
        .unwrap();
        let (r0, _) = sb.issue_next(|_| true).unwrap();
        sb.mark_done(r0, 100_000);
        let (r1, _) = sb.issue_next(|_| true).unwrap();
        // Compression shrank the payload.
        sb.mark_done(r1, 12_345);
        let (_r2, cmd2) = sb.issue_next(|_| true).unwrap();
        assert_eq!(cmd2.len(), 12_345);
    }

    #[test]
    fn many_commands_deliver_in_admission_order() {
        let mut sb = Scoreboard::new(64);
        for i in 0..50u64 {
            sb.admit(i, vec![read(i as usize + 1)]).unwrap();
        }
        let mut refs = Vec::new();
        while let Some((r, _)) = sb.issue_next(|_| true) {
            refs.push(r);
        }
        // Complete in reverse.
        for r in refs.iter().rev() {
            let len = sb.op(*r).len();
            sb.mark_done(*r, len);
        }
        let delivered = sb.pop_deliverable();
        let ids: Vec<u64> = delivered.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }
}
