//! Submission/completion ring helpers shared by every NVMe initiator.
//!
//! Both the host NVMe driver (baseline designs) and the HDC Engine's NVMe
//! controller (DCS-ctrl) drive the device through rings in memory — host
//! DRAM for the former, FPGA BRAM for the latter (§IV-C). These helpers
//! own the producer/consumer indices and serialize entries into simulated
//! memory; initiators differ only in where the rings live and how entry
//! writes are charged for time.

use dcs_pcie::{PhysAddr, PhysMemory};

use crate::spec::{NvmeCommand, NvmeCompletion};

/// Producer-side view of a submission queue ring.
#[derive(Clone, Debug)]
pub struct SubmissionQueueWriter {
    base: PhysAddr,
    depth: u16,
    tail: u16,
    head: u16,
}

impl SubmissionQueueWriter {
    /// A writer for a ring of `depth` entries at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(base: PhysAddr, depth: u16) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        SubmissionQueueWriter {
            base,
            depth,
            tail: 0,
            head: 0,
        }
    }

    /// Current tail index (the value to write to the tail doorbell).
    pub fn tail(&self) -> u16 {
        self.tail
    }

    /// Number of free slots (one slot is sacrificed to distinguish full
    /// from empty, as the spec requires).
    pub fn free_slots(&self) -> u16 {
        self.depth - 1 - (self.tail.wrapping_sub(self.head) % self.depth)
    }

    /// Whether the ring has room for another entry.
    pub fn is_full(&self) -> bool {
        self.free_slots() == 0
    }

    /// Records the device's reported SQ head (from a completion entry),
    /// freeing consumed slots.
    pub(crate) fn update_head(&mut self, head: u16) {
        self.head = head % self.depth;
    }

    /// Writes `cmd` into the next slot and advances the tail. Returns the
    /// slot's address (initiators charge the 64-byte entry write to their
    /// own cost model).
    ///
    /// # Panics
    ///
    /// Panics if the ring is full — callers must check
    /// [`SubmissionQueueWriter::is_full`] first, as real initiators do.
    pub fn push(&mut self, mem: &mut PhysMemory, cmd: &NvmeCommand) -> PhysAddr {
        assert!(!self.is_full(), "submission queue overflow");
        let slot = self.base + self.tail as u64 * NvmeCommand::SIZE as u64;
        mem.write(slot, &cmd.to_bytes());
        self.tail = (self.tail + 1) % self.depth;
        slot
    }
}

/// Consumer-side view of a completion queue ring, tracking the phase tag.
#[derive(Clone, Debug)]
pub struct CompletionQueueReader {
    base: PhysAddr,
    depth: u16,
    head: u16,
    phase: bool,
}

impl CompletionQueueReader {
    /// A reader for a ring of `depth` entries at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(base: PhysAddr, depth: u16) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        // Phase starts at 1: the device's first pass writes entries with
        // the phase bit set.
        CompletionQueueReader {
            base,
            depth,
            head: 0,
            phase: true,
        }
    }

    /// Current head index (the value to write to the head doorbell after
    /// consuming entries).
    pub fn head(&self) -> u16 {
        self.head
    }

    /// Pops the next completion if one with the expected phase tag is
    /// present (i.e. the device has written it).
    pub fn pop(&mut self, mem: &PhysMemory) -> Option<NvmeCompletion> {
        let slot = self.base + self.head as u64 * NvmeCompletion::SIZE as u64;
        let bytes: [u8; NvmeCompletion::SIZE] = mem
            .read(slot, NvmeCompletion::SIZE)
            .try_into()
            .expect("16 bytes");
        let entry = NvmeCompletion::from_bytes(&bytes);
        if entry.phase != self.phase {
            return None;
        }
        self.head += 1;
        if self.head == self.depth {
            self.head = 0;
            self.phase = !self.phase;
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{NvmeOpcode, NvmeStatus};
    use dcs_pcie::PortId;

    fn mem_with_region(len: u64) -> (PhysMemory, PhysAddr) {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("ring", len, PortId::ROOT);
        (m, r.start)
    }

    fn cmd(cid: u16) -> NvmeCommand {
        NvmeCommand {
            opcode: NvmeOpcode::Read,
            cid,
            nsid: 1,
            prp1: PhysAddr(0x1000),
            prp2: PhysAddr::ZERO,
            slba: 0,
            nlb: 0,
        }
    }

    #[test]
    fn sq_push_serializes_entries_in_ring_order() {
        let (mut mem, base) = mem_with_region(64 * 64);
        let mut sq = SubmissionQueueWriter::new(base, 64);
        let s0 = sq.push(&mut mem, &cmd(10));
        let s1 = sq.push(&mut mem, &cmd(11));
        assert_eq!(s0, base);
        assert_eq!(s1, base + 64);
        assert_eq!(sq.tail(), 2);
        let raw: [u8; 64] = mem.read(s1, 64).try_into().unwrap();
        assert_eq!(NvmeCommand::from_bytes(&raw).unwrap().cid, 11);
    }

    #[test]
    fn sq_full_detection_and_head_updates() {
        let (mut mem, base) = mem_with_region(4 * 64);
        let mut sq = SubmissionQueueWriter::new(base, 4);
        assert_eq!(sq.free_slots(), 3);
        for i in 0..3 {
            sq.push(&mut mem, &cmd(i));
        }
        assert!(sq.is_full());
        sq.update_head(2); // device consumed two
        assert_eq!(sq.free_slots(), 2);
        sq.push(&mut mem, &cmd(100)); // wraps to slot 3 then 0
        assert_eq!(sq.tail(), 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn sq_overflow_panics() {
        let (mut mem, base) = mem_with_region(2 * 64);
        let mut sq = SubmissionQueueWriter::new(base, 2);
        sq.push(&mut mem, &cmd(0));
        sq.push(&mut mem, &cmd(1));
    }

    #[test]
    fn cq_pop_respects_phase_tag() {
        let (mut mem, base) = mem_with_region(4 * 16);
        let mut cq = CompletionQueueReader::new(base, 4);
        // Nothing written yet: all-zero entries have phase 0 != expected 1.
        assert!(cq.pop(&mem).is_none());
        let entry = NvmeCompletion {
            sq_head: 1,
            sq_id: 1,
            cid: 77,
            phase: true,
            status: NvmeStatus::Success,
        };
        mem.write(base, &entry.to_bytes());
        let got = cq.pop(&mem).expect("entry with correct phase");
        assert_eq!(got.cid, 77);
        assert_eq!(cq.head(), 1);
        // Same slot again: stale (already consumed), head moved on.
        assert!(cq.pop(&mem).is_none());
    }

    #[test]
    fn cq_phase_flips_on_wraparound() {
        let (mut mem, base) = mem_with_region(2 * 16);
        let mut cq = CompletionQueueReader::new(base, 2);
        let mk = |cid, phase| NvmeCompletion {
            sq_head: 0,
            sq_id: 1,
            cid,
            phase,
            status: NvmeStatus::Success,
        };
        mem.write(base, &mk(1, true).to_bytes());
        mem.write(base + 16, &mk(2, true).to_bytes());
        assert_eq!(cq.pop(&mem).unwrap().cid, 1);
        assert_eq!(cq.pop(&mem).unwrap().cid, 2);
        // Wrapped: now expects phase = false. Old phase-1 entries are stale.
        mem.write(base, &mk(3, true).to_bytes());
        assert!(cq.pop(&mem).is_none());
        mem.write(base, &mk(4, false).to_bytes());
        assert_eq!(cq.pop(&mem).unwrap().cid, 4);
    }
}
