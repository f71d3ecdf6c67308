//! The HDC Library (§IV-A): `sendfile`-like helpers over file and socket
//! descriptors.
//!
//! Applications do not build D2D commands by hand; they call
//! "Linux's-sendfile-like APIs" on descriptors they already own. The
//! library checks descriptor permissions before building the job —
//! "unpermitted storage or network devices cannot be involved in direct
//! inter-device communications" — and maps file offsets to block addresses
//! the way the driver would via the VFS.

use dcs_host::job::{D2dJob, D2dOp};
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_nvme::LBA_SIZE;
use dcs_sim::ComponentId;

/// Access modes a descriptor was opened with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Permissions {
    /// Descriptor may be read.
    pub read: bool,
    /// Descriptor may be written.
    pub write: bool,
}

impl Permissions {
    /// Read-only.
    pub const RO: Permissions = Permissions {
        read: true,
        write: false,
    };
    /// Read-write.
    pub const RW: Permissions = Permissions {
        read: true,
        write: true,
    };
    /// Write-only.
    pub const WO: Permissions = Permissions {
        read: false,
        write: true,
    };
}

/// A file descriptor: a contiguous extent on one SSD (the model's stand-in
/// for an inode whose block mapping the VFS resolved).
#[derive(Clone, Copy, Debug)]
pub struct FileDesc {
    /// SSD index the file lives on.
    pub ssd: usize,
    /// First logical block of the extent.
    pub base_lba: u64,
    /// File length in bytes.
    pub len: u64,
    /// Open mode.
    pub perms: Permissions,
}

impl FileDesc {
    /// Maps a byte offset to its logical block.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not block-aligned (direct I/O requires it).
    pub fn lba_at(&self, offset: u64) -> u64 {
        assert!(
            offset.is_multiple_of(LBA_SIZE),
            "direct I/O offsets must be 4 KiB-aligned"
        );
        self.base_lba + offset / LBA_SIZE
    }
}

/// A connected socket descriptor.
#[derive(Clone, Copy, Debug)]
pub struct SocketDesc {
    /// The established connection's flow (local side transmits on this).
    pub flow: TcpFlow,
    /// Next transmit sequence number.
    pub seq: u32,
    /// Open mode.
    pub perms: Permissions,
}

/// Errors the library returns before anything reaches the hardware.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApiError {
    /// The file descriptor lacks the required mode.
    FilePermission,
    /// The socket descriptor lacks the required mode.
    SocketPermission,
    /// The requested range exceeds the file.
    OutOfRange,
    /// Length must be a whole number of blocks for direct device I/O.
    Unaligned,
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ApiError::FilePermission => "file descriptor not opened for this access",
            ApiError::SocketPermission => "socket descriptor not opened for this access",
            ApiError::OutOfRange => "range exceeds file length",
            ApiError::Unaligned => "length must be a multiple of the 4 KiB block size",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ApiError {}

/// Builds [`D2dJob`]s from descriptors. Stateless; owns only an id
/// counter so jobs are uniquely identified.
#[derive(Debug, Default)]
pub struct HdcLibrary {
    next_id: u64,
}

impl HdcLibrary {
    /// A fresh library handle.
    pub fn new() -> Self {
        HdcLibrary { next_id: 1 }
    }

    fn id(&mut self) -> u64 {
        let i = self.next_id;
        self.next_id += 1;
        i
    }

    /// `hdc_sendfile(out_sock, in_file, offset, len)` — transmit a file
    /// range without intermediate processing.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] on permission or range violations.
    pub fn sendfile(
        &mut self,
        file: &FileDesc,
        socket: &SocketDesc,
        offset: u64,
        len: usize,
        reply_to: ComponentId,
        tag: &'static str,
    ) -> Result<D2dJob, ApiError> {
        self.sendfile_processed(file, socket, offset, len, None, reply_to, tag)
    }

    /// `hdc_sendfile` with intermediate processing (e.g. MD5 for object
    /// integrity, AES for encryption at flight).
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] on permission or range violations.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the paper's library call, which takes each argument separately"
    )]
    pub fn sendfile_processed(
        &mut self,
        file: &FileDesc,
        socket: &SocketDesc,
        offset: u64,
        len: usize,
        processing: Option<(NdpFunction, Vec<u8>)>,
        reply_to: ComponentId,
        tag: &'static str,
    ) -> Result<D2dJob, ApiError> {
        if !file.perms.read {
            return Err(ApiError::FilePermission);
        }
        if !socket.perms.write {
            return Err(ApiError::SocketPermission);
        }
        if offset + len as u64 > file.len.div_ceil(LBA_SIZE) * LBA_SIZE {
            return Err(ApiError::OutOfRange);
        }
        if !len.is_multiple_of(LBA_SIZE as usize) {
            return Err(ApiError::Unaligned);
        }
        let mut ops = vec![D2dOp::SsdRead {
            ssd: file.ssd,
            lba: file.lba_at(offset),
            len,
        }];
        if let Some((function, aux)) = processing {
            ops.push(D2dOp::Process { function, aux });
        }
        ops.push(D2dOp::NicSend {
            flow: socket.flow,
            seq: socket.seq,
        });
        Ok(D2dJob {
            id: self.id(),
            ops,
            reply_to,
            tag,
        })
    }

    /// `hdc_recvfile(in_sock, out_file, offset, len)` — receive into a
    /// file, with optional intermediate processing (e.g. HDFS's CRC32
    /// integrity check before the block hits flash).
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] on permission or range violations.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the paper's library call, which takes each argument separately"
    )]
    pub fn recvfile_processed(
        &mut self,
        socket: &SocketDesc,
        file: &FileDesc,
        offset: u64,
        len: usize,
        processing: Option<(NdpFunction, Vec<u8>)>,
        reply_to: ComponentId,
        tag: &'static str,
    ) -> Result<D2dJob, ApiError> {
        if !socket.perms.read {
            return Err(ApiError::SocketPermission);
        }
        if !file.perms.write {
            return Err(ApiError::FilePermission);
        }
        if offset + len as u64 > file.len.div_ceil(LBA_SIZE) * LBA_SIZE {
            return Err(ApiError::OutOfRange);
        }
        let mut ops = vec![D2dOp::NicRecv {
            flow: socket.flow,
            len,
        }];
        if let Some((function, aux)) = processing {
            ops.push(D2dOp::Process { function, aux });
        }
        ops.push(D2dOp::SsdWrite {
            ssd: file.ssd,
            lba: file.lba_at(offset),
        });
        Ok(D2dJob {
            id: self.id(),
            ops,
            reply_to,
            tag,
        })
    }

    /// Receive-and-check without storing (e.g. a verification pass):
    /// `NIC recv → digest`.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::SocketPermission`] if the socket cannot read.
    pub fn recv_digest(
        &mut self,
        socket: &SocketDesc,
        len: usize,
        function: NdpFunction,
        reply_to: ComponentId,
        tag: &'static str,
    ) -> Result<D2dJob, ApiError> {
        if !socket.perms.read {
            return Err(ApiError::SocketPermission);
        }
        Ok(D2dJob {
            id: self.id(),
            ops: vec![
                D2dOp::NicRecv {
                    flow: socket.flow,
                    len,
                },
                D2dOp::Process {
                    function,
                    aux: vec![],
                },
            ],
            reply_to,
            tag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(perms: Permissions) -> FileDesc {
        FileDesc {
            ssd: 0,
            base_lba: 100,
            len: 1 << 20,
            perms,
        }
    }
    fn socket(perms: Permissions) -> SocketDesc {
        SocketDesc {
            flow: TcpFlow::example(1, 2, 40000, 8080),
            seq: 7,
            perms,
        }
    }

    #[test]
    fn sendfile_builds_read_send_pipeline() {
        let mut lib = HdcLibrary::new();
        let job = lib
            .sendfile(
                &file(Permissions::RO),
                &socket(Permissions::RW),
                8192,
                4096,
                ComponentId::INVALID,
                "t",
            )
            .unwrap();
        assert_eq!(job.ops.len(), 2);
        match &job.ops[0] {
            D2dOp::SsdRead { lba, len, .. } => {
                assert_eq!(*lba, 102);
                assert_eq!(*len, 4096);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(job.ops[1], D2dOp::NicSend { seq: 7, .. }));
    }

    #[test]
    fn processing_is_inserted_between_devices() {
        let mut lib = HdcLibrary::new();
        let job = lib
            .sendfile_processed(
                &file(Permissions::RO),
                &socket(Permissions::RW),
                0,
                4096,
                Some((NdpFunction::Md5, vec![])),
                ComponentId::INVALID,
                "t",
            )
            .unwrap();
        assert_eq!(job.ops.len(), 3);
        assert!(matches!(
            job.ops[1],
            D2dOp::Process {
                function: NdpFunction::Md5,
                ..
            }
        ));
    }

    #[test]
    fn permissions_are_enforced() {
        let mut lib = HdcLibrary::new();
        assert_eq!(
            lib.sendfile(
                &file(Permissions::WO),
                &socket(Permissions::RW),
                0,
                4096,
                ComponentId::INVALID,
                "t"
            )
            .unwrap_err(),
            ApiError::FilePermission
        );
        assert_eq!(
            lib.sendfile(
                &file(Permissions::RO),
                &socket(Permissions::RO),
                0,
                4096,
                ComponentId::INVALID,
                "t"
            )
            .unwrap_err(),
            ApiError::SocketPermission
        );
        assert_eq!(
            lib.recvfile_processed(
                &socket(Permissions::WO),
                &file(Permissions::RW),
                0,
                4096,
                None,
                ComponentId::INVALID,
                "t"
            )
            .unwrap_err(),
            ApiError::SocketPermission
        );
    }

    #[test]
    fn range_and_alignment_checks() {
        let mut lib = HdcLibrary::new();
        assert_eq!(
            lib.sendfile(
                &file(Permissions::RO),
                &socket(Permissions::RW),
                1 << 20,
                4096,
                ComponentId::INVALID,
                "t"
            )
            .unwrap_err(),
            ApiError::OutOfRange
        );
        assert_eq!(
            lib.sendfile(
                &file(Permissions::RO),
                &socket(Permissions::RW),
                0,
                100,
                ComponentId::INVALID,
                "t"
            )
            .unwrap_err(),
            ApiError::Unaligned
        );
    }

    #[test]
    fn job_ids_are_unique() {
        let mut lib = HdcLibrary::new();
        let a = lib
            .sendfile(
                &file(Permissions::RO),
                &socket(Permissions::RW),
                0,
                4096,
                ComponentId::INVALID,
                "t",
            )
            .unwrap();
        let b = lib
            .sendfile(
                &file(Permissions::RO),
                &socket(Permissions::RW),
                0,
                4096,
                ComponentId::INVALID,
                "t",
            )
            .unwrap();
        assert_ne!(a.id, b.id);
    }

    #[test]
    #[should_panic(expected = "4 KiB-aligned")]
    fn lba_mapping_requires_alignment() {
        let f = file(Permissions::RO);
        let _ = f.lba_at(100);
    }
}
