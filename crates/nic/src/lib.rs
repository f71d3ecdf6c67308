//! # dcs-nic — a 10 GbE NIC model with real TCP/IP framing
//!
//! The HDC Engine's NIC controller (§III-C, Figure 7b) "generates TCP/IP
//! packet headers and stores them in the header buffer … builds NIC
//! commands, puts them in a send queue, and rings the registers allocated
//! in the network device". For that claim to be testable, the NIC model
//! checks real headers: frames carry genuine Ethernet/IPv4/TCP bytes with
//! valid checksums, built and parsed by [`headers`], and the receiving node
//! delivers exactly the payload bytes the sender's storage held.
//!
//! * [`headers`] — Ethernet II / IPv4 / TCP header construction and
//!   validation (IP header checksum, TCP pseudo-header checksum).
//! * [`ring`] — send/receive descriptor rings in initiator memory
//!   (Broadcom-style producer/consumer indices, serialized descriptors).
//! * [`initiator`] — the initiator side of the protocol, shared by the
//!   host NIC driver and the HDC Engine's NIC controller: the ring work
//!   (LSO descriptor chains split at the adapter's limit, receive-buffer
//!   posting, the write-back scan) and the transport above it (the send
//!   table, the ack rule, go-back-N under faults, reassembly into the
//!   receives, and the stall tests).
//! * [`wire`] — the cable between two nodes: line-rate serialization plus
//!   propagation delay, in-order and lossless (a switched LAN segment).
//! * [`device`] — the NIC component: TX doorbell → descriptor fetch →
//!   payload gather → LSO segmentation → frames on the wire; RX frame →
//!   posted buffer → write-back → coalesced MSI.
//!
//! Defaults model the paper's Broadcom BCM57711 (Table V): 10 Gbps line
//! rate with ≈9 Gbps effective payload bandwidth due to packet overheads
//! (the paper's footnote 3).

pub mod device;
pub mod headers;
pub mod initiator;
pub mod ring;
pub mod wire;

pub use device::{install_nic, ConfigureNic, ControlFrame, NicConfig, NicDevice, NicHandle, MSS};
pub use headers::{
    ParsedPacket, TcpFlow, ACK_MAGIC, ETH_HEADER_LEN, IPV4_HEADER_LEN, TCP_HEADER_LEN,
};
pub use initiator::{Counters, RecvCheck, RxBatch, RxFrame, SendCheck, Transmit, Transport, TxIrq};
pub use ring::{RecvDescriptor, RecvWriteback, RingWriter, SendDescriptor};
pub use wire::{install_wire, FrameDelivery, TransmitDone, TransmitFrame, Wire, WireConfig};
