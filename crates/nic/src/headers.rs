//! Ethernet II / IPv4 / TCP header construction and parsing with real
//! checksums.
//!
//! The HDC Engine's NIC controller must produce headers a commodity NIC and
//! the remote peer's stack would accept; conversely its packet-gathering
//! logic must parse received frames to identify the flow and strip headers
//! (§III-D). Both directions are implemented here and shared by the host
//! TCP/IP-stack model and the HDC controller.

/// Ethernet II header length (dst MAC, src MAC, ethertype).
pub const ETH_HEADER_LEN: usize = 14;
/// IPv4 header length without options.
pub const IPV4_HEADER_LEN: usize = 20;
/// TCP header length without options.
pub const TCP_HEADER_LEN: usize = 20;
/// Total framing our packets carry in front of the payload.
pub const HEADERS_LEN: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN;
/// Sentinel `seq` value marking a zero-payload frame as a pure protocol
/// acknowledgement (go-back-N recovery under fault injection). Data frames
/// never carry this seq with an empty payload in practice; the `ack` field
/// of such a frame is the receiver's cumulative per-flow byte count.
pub const ACK_MAGIC: u32 = 0xACCE_55ED;

/// The 5-tuple-plus-link-layer identity of an established TCP connection,
/// as the kernel hands it to the HDC Driver (§IV-B: "interacts with the
/// existing kernel … TCP/IP network stacks to find … TCP/IP connection
/// information").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TcpFlow {
    /// Source MAC address.
    pub src_mac: [u8; 6],
    /// Destination MAC address.
    pub dst_mac: [u8; 6],
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source TCP port.
    pub src_port: u16,
    /// Destination TCP port.
    pub dst_port: u16,
}

impl TcpFlow {
    /// The reverse direction of this flow (what the peer transmits on).
    pub fn reversed(&self) -> TcpFlow {
        TcpFlow {
            src_mac: self.dst_mac,
            dst_mac: self.src_mac,
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// A deterministic test flow between two synthetic hosts.
    pub fn example(src_last: u8, dst_last: u8, src_port: u16, dst_port: u16) -> TcpFlow {
        TcpFlow {
            src_mac: [0x02, 0, 0, 0, 0, src_last],
            dst_mac: [0x02, 0, 0, 0, 0, dst_last],
            src_ip: [10, 0, 0, src_last],
            dst_ip: [10, 0, 0, dst_last],
            src_port,
            dst_port,
        }
    }
}

/// RFC 1071 internet checksum over `data` (with `init`, a sum of
/// big-endian 16-bit words, folded in).
///
/// The one's-complement sum is byte-order independent and may be taken
/// over wider words (RFC 1071 §2(B), §2(C)): the 32-bit halves of each
/// 8-byte word are added, in native byte order, into a `u64` that cannot
/// overflow below 16 GiB of data. Folded to 16 bits, that is the sum of
/// the native-order 16-bit words, and one byte swap on a little-endian
/// host turns it into the big-endian sum.
fn internet_checksum(data: &[u8], init: u32) -> u16 {
    let mut sum = 0u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_ne_bytes(w.try_into().expect("8-byte chunk"));
        sum += (w & 0xFFFF_FFFF) + (w >> 32);
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    // Zero padding: an odd last byte is the high byte of a big-endian
    // word, as RFC 1071 pads it.
    tail[..rest.len()].copy_from_slice(rest);
    let w = u64::from_ne_bytes(tail);
    sum += (w & 0xFFFF_FFFF) + (w >> 32);
    let native = fold(sum);
    !fold(u64::from(u16::from_be(native)) + u64::from(init))
}

/// Folds a one's-complement sum to 16 bits.
fn fold(mut sum: u64) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// Builds a complete frame: Ethernet + IPv4 + TCP headers followed by
/// `payload`, with valid IP and TCP checksums.
///
/// `seq` is the TCP sequence number of the first payload byte; `ack` the
/// acknowledgement number (the model's wire is lossless so acks carry no
/// control significance, but the fields are filled for realism).
pub fn build_frame(flow: &TcpFlow, seq: u32, ack: u32, payload: &[u8]) -> Vec<u8> {
    build_frame_in_place(flow, seq, ack, payload.len(), |p| {
        p.copy_from_slice(payload)
    })
}

/// [`build_frame`] for a payload of `payload_len` bytes that `fill`
/// writes straight into the frame, so a payload held elsewhere (the
/// NIC's staged LSO gather) is copied once, not first into a `Vec` of
/// its own. `fill` receives the zeroed payload slice.
pub(crate) fn build_frame_in_place(
    flow: &TcpFlow,
    seq: u32,
    ack: u32,
    payload_len: usize,
    fill: impl FnOnce(&mut [u8]),
) -> Vec<u8> {
    let ip_total = (IPV4_HEADER_LEN + TCP_HEADER_LEN + payload_len) as u16;
    let mut f = Vec::with_capacity(HEADERS_LEN + payload_len);

    // Ethernet II.
    f.extend_from_slice(&flow.dst_mac);
    f.extend_from_slice(&flow.src_mac);
    f.extend_from_slice(&0x0800u16.to_be_bytes()); // IPv4

    // IPv4.
    let ip_start = f.len();
    f.push(0x45); // version 4, IHL 5
    f.push(0); // DSCP/ECN
    f.extend_from_slice(&ip_total.to_be_bytes());
    f.extend_from_slice(&[0, 0]); // identification
    f.extend_from_slice(&[0x40, 0]); // flags: DF
    f.push(64); // TTL
    f.push(6); // protocol: TCP
    f.extend_from_slice(&[0, 0]); // checksum placeholder
    f.extend_from_slice(&flow.src_ip);
    f.extend_from_slice(&flow.dst_ip);
    let ip_csum = internet_checksum(&f[ip_start..ip_start + IPV4_HEADER_LEN], 0);
    f[ip_start + 10..ip_start + 12].copy_from_slice(&ip_csum.to_be_bytes());

    // TCP.
    let tcp_start = f.len();
    f.extend_from_slice(&flow.src_port.to_be_bytes());
    f.extend_from_slice(&flow.dst_port.to_be_bytes());
    f.extend_from_slice(&seq.to_be_bytes());
    f.extend_from_slice(&ack.to_be_bytes());
    f.push(5 << 4); // data offset = 5 words
    f.push(0b0001_1000); // flags: PSH|ACK
    f.extend_from_slice(&0xFFFFu16.to_be_bytes()); // window
    f.extend_from_slice(&[0, 0]); // checksum placeholder
    f.extend_from_slice(&[0, 0]); // urgent pointer
    f.resize(HEADERS_LEN + payload_len, 0);
    fill(&mut f[HEADERS_LEN..]);

    // TCP checksum over pseudo-header + TCP header + payload.
    let tcp_len = (TCP_HEADER_LEN + payload_len) as u16;
    let mut pseudo = 0u32;
    pseudo += u16::from_be_bytes([flow.src_ip[0], flow.src_ip[1]]) as u32;
    pseudo += u16::from_be_bytes([flow.src_ip[2], flow.src_ip[3]]) as u32;
    pseudo += u16::from_be_bytes([flow.dst_ip[0], flow.dst_ip[1]]) as u32;
    pseudo += u16::from_be_bytes([flow.dst_ip[2], flow.dst_ip[3]]) as u32;
    pseudo += 6; // protocol
    pseudo += tcp_len as u32;
    let tcp_csum = internet_checksum(&f[tcp_start..], pseudo);
    f[tcp_start + 16..tcp_start + 18].copy_from_slice(&tcp_csum.to_be_bytes());

    f
}

/// A successfully validated and decoded frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParsedPacket {
    /// The flow the frame belongs to (as seen from the sender).
    pub flow: TcpFlow,
    /// TCP sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Offset of the payload within the frame.
    pub payload_offset: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
}

/// Frame validation failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// Frame shorter than the fixed headers.
    Truncated,
    /// Not IPv4-over-Ethernet or not TCP.
    UnsupportedProtocol,
    /// IPv4 header checksum mismatch.
    BadIpChecksum,
    /// TCP checksum mismatch.
    BadTcpChecksum,
    /// IP total length disagrees with the frame size.
    LengthMismatch,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ParseError::Truncated => "frame truncated",
            ParseError::UnsupportedProtocol => "not TCP/IPv4 over Ethernet",
            ParseError::BadIpChecksum => "bad IPv4 header checksum",
            ParseError::BadTcpChecksum => "bad TCP checksum",
            ParseError::LengthMismatch => "IP length disagrees with frame size",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses and validates a frame produced by [`build_frame`] (or any
/// conforming stack).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first validation failure.
pub fn parse_frame(frame: &[u8]) -> Result<ParsedPacket, ParseError> {
    if frame.len() < HEADERS_LEN {
        return Err(ParseError::Truncated);
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != 0x0800 {
        return Err(ParseError::UnsupportedProtocol);
    }
    let ip = &frame[ETH_HEADER_LEN..];
    if ip[0] != 0x45 || ip[9] != 6 {
        return Err(ParseError::UnsupportedProtocol);
    }
    if internet_checksum(&ip[..IPV4_HEADER_LEN], 0) != 0 {
        return Err(ParseError::BadIpChecksum);
    }
    let ip_total = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    if ip_total + ETH_HEADER_LEN != frame.len() {
        return Err(ParseError::LengthMismatch);
    }
    let tcp = &ip[IPV4_HEADER_LEN..ip_total];
    let tcp_len = tcp.len();
    if tcp_len < TCP_HEADER_LEN {
        return Err(ParseError::Truncated);
    }
    // Verify the TCP checksum (pseudo-header + segment must sum to zero).
    let mut pseudo = 0u32;
    pseudo += u16::from_be_bytes([ip[12], ip[13]]) as u32;
    pseudo += u16::from_be_bytes([ip[14], ip[15]]) as u32;
    pseudo += u16::from_be_bytes([ip[16], ip[17]]) as u32;
    pseudo += u16::from_be_bytes([ip[18], ip[19]]) as u32;
    pseudo += 6;
    pseudo += tcp_len as u32;
    if internet_checksum(tcp, pseudo) != 0 {
        return Err(ParseError::BadTcpChecksum);
    }
    let flow = TcpFlow {
        dst_mac: frame[0..6].try_into().expect("6 bytes"),
        src_mac: frame[6..12].try_into().expect("6 bytes"),
        src_ip: ip[12..16].try_into().expect("4 bytes"),
        dst_ip: ip[16..20].try_into().expect("4 bytes"),
        src_port: u16::from_be_bytes([tcp[0], tcp[1]]),
        dst_port: u16::from_be_bytes([tcp[2], tcp[3]]),
    };
    Ok(ParsedPacket {
        flow,
        seq: u32::from_be_bytes(tcp[4..8].try_into().expect("4 bytes")),
        ack: u32::from_be_bytes(tcp[8..12].try_into().expect("4 bytes")),
        payload_offset: HEADERS_LEN,
        payload_len: tcp_len - TCP_HEADER_LEN,
    })
}

/// Extracts the flow and sequence numbers from a header *template* — the
/// headers an initiator stages for the NIC's LSO engine. No checksum or
/// length validation: the template's checksums are recomputed per segment
/// by the device anyway.
///
/// # Errors
///
/// Returns [`ParseError::Truncated`] if shorter than the fixed headers, or
/// [`ParseError::UnsupportedProtocol`] for non-TCP/IPv4 templates.
pub fn parse_template(template: &[u8]) -> Result<(TcpFlow, u32, u32), ParseError> {
    if template.len() < HEADERS_LEN {
        return Err(ParseError::Truncated);
    }
    let ethertype = u16::from_be_bytes([template[12], template[13]]);
    let ip = &template[ETH_HEADER_LEN..];
    if ethertype != 0x0800 || ip[0] != 0x45 || ip[9] != 6 {
        return Err(ParseError::UnsupportedProtocol);
    }
    let tcp = &ip[IPV4_HEADER_LEN..];
    let flow = TcpFlow {
        dst_mac: template[0..6].try_into().expect("6 bytes"),
        src_mac: template[6..12].try_into().expect("6 bytes"),
        src_ip: ip[12..16].try_into().expect("4 bytes"),
        dst_ip: ip[16..20].try_into().expect("4 bytes"),
        src_port: u16::from_be_bytes([tcp[0], tcp[1]]),
        dst_port: u16::from_be_bytes([tcp[2], tcp[3]]),
    };
    let seq = u32::from_be_bytes(tcp[4..8].try_into().expect("4 bytes"));
    let ack = u32::from_be_bytes(tcp[8..12].try_into().expect("4 bytes"));
    Ok((flow, seq, ack))
}

/// Builds the header template an initiator stages for an LSO send: the
/// full header stack with the starting sequence number (checksums left to
/// the device).
pub fn build_template(flow: &TcpFlow, seq: u32, ack: u32) -> Vec<u8> {
    build_frame(flow, seq, ack, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_roundtrip() {
        let flow = TcpFlow::example(3, 4, 5555, 80);
        let t = build_template(&flow, 0xAABB_CCDD, 42);
        assert_eq!(t.len(), HEADERS_LEN);
        let (f2, seq, ack) = parse_template(&t).unwrap();
        assert_eq!(f2, flow);
        assert_eq!(seq, 0xAABB_CCDD);
        assert_eq!(ack, 42);
        assert_eq!(parse_template(&t[..20]), Err(ParseError::Truncated));
    }

    #[test]
    fn build_parse_roundtrip() {
        let flow = TcpFlow::example(1, 2, 40000, 8080);
        let payload = b"object data segment";
        let frame = build_frame(&flow, 1000, 555, payload);
        assert_eq!(frame.len(), HEADERS_LEN + payload.len());
        let p = parse_frame(&frame).expect("valid frame");
        assert_eq!(p.flow, flow);
        assert_eq!(p.seq, 1000);
        assert_eq!(p.ack, 555);
        assert_eq!(
            &frame[p.payload_offset..p.payload_offset + p.payload_len],
            payload
        );
    }

    #[test]
    fn empty_payload_frame() {
        let flow = TcpFlow::example(1, 2, 1, 2);
        let frame = build_frame(&flow, 0, 0, &[]);
        let p = parse_frame(&frame).unwrap();
        assert_eq!(p.payload_len, 0);
    }

    #[test]
    fn odd_length_payload_checksums() {
        let flow = TcpFlow::example(9, 7, 1234, 80);
        for len in [1usize, 3, 1447] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            let frame = build_frame(&flow, 7, 0, &payload);
            parse_frame(&frame).unwrap_or_else(|e| panic!("len {len}: {e}"));
        }
    }

    #[test]
    fn in_place_frames_equal_build_frame() {
        let flow = TcpFlow::example(5, 6, 33_000, 9000);
        for len in [0usize, 1, 777, 1447, 1448] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 255) as u8 + 1).collect();
            // Filled in two pieces, the way a payload spanning two staging
            // pages is read.
            let frame = build_frame_in_place(&flow, 0xFFFF_FF00, 9, len, |p| {
                assert_eq!(p.len(), len);
                assert!(p.iter().all(|&b| b == 0), "the payload slice starts zeroed");
                let (a, b) = p.split_at_mut(len / 2);
                a.copy_from_slice(&payload[..len / 2]);
                b.copy_from_slice(&payload[len / 2..]);
            });
            assert_eq!(
                frame,
                build_frame(&flow, 0xFFFF_FF00, 9, &payload),
                "len {len}"
            );
            parse_frame(&frame).unwrap_or_else(|e| panic!("len {len}: {e}"));
        }
    }

    #[test]
    fn corruption_is_detected() {
        let flow = TcpFlow::example(1, 2, 40000, 8080);
        let frame = build_frame(&flow, 1, 2, b"payload bytes here");
        // Flip a payload byte: TCP checksum must catch it.
        let mut bad = frame.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x01;
        assert_eq!(parse_frame(&bad), Err(ParseError::BadTcpChecksum));
        // Flip an IP header byte (TTL): IP checksum must catch it.
        let mut bad = frame.clone();
        bad[ETH_HEADER_LEN + 8] = 13;
        assert_eq!(parse_frame(&bad), Err(ParseError::BadIpChecksum));
        // Truncate.
        assert_eq!(parse_frame(&frame[..10]), Err(ParseError::Truncated));
        // Wrong ethertype.
        let mut bad = frame.clone();
        bad[12] = 0x86;
        assert_eq!(parse_frame(&bad), Err(ParseError::UnsupportedProtocol));
        // Inconsistent IP total length.
        let mut bad = frame;
        bad.push(0);
        assert_eq!(parse_frame(&bad), Err(ParseError::LengthMismatch));
    }

    #[test]
    fn reversed_flow_swaps_endpoints() {
        let flow = TcpFlow::example(1, 2, 10, 20);
        let rev = flow.reversed();
        assert_eq!(rev.src_ip, flow.dst_ip);
        assert_eq!(rev.dst_port, flow.src_port);
        assert_eq!(rev.reversed(), flow);
    }

    /// The RFC 1071 reference: big-endian 16-bit words summed into a
    /// `u32`, an odd last byte padded with zero.
    fn reference_checksum(data: &[u8], init: u32) -> u16 {
        let mut sum = init;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            sum += u16::from_be_bytes([c[0], c[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            sum += (*last as u32) << 8;
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn wide_word_checksum_matches_the_16_bit_reference() {
        // Pseudo-random bytes from a fixed LCG, with 7 spare bytes so a
        // slice can start at offsets 1-7 (unaligned words).
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let random: Vec<u8> = (0..9_018 + 7)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect();
        let ones = vec![0xFFu8; 9_018 + 7];
        // Pseudo-header sums as `build_frame` forms them, plus the
        // extremes of what a u32 `init` can carry into the fold.
        let inits = [0u32, 6 + 20, 0x1_4E2C, 0xFFFF, 0x3_FFFC, 0x7FFF_0000];
        for data in [&random, &ones] {
            for len in 0..=9_018 {
                // Every length from offset 0; odd lengths, short slices
                // and a spread of even ones from every unaligned start
                // too.
                let offsets: &[usize] = if len < 128 || len % 2 == 1 || len % 61 == 0 {
                    &[0, 1, 2, 3, 4, 5, 6, 7]
                } else {
                    &[0]
                };
                for &off in offsets {
                    let slice = &data[off..off + len];
                    for &init in &inits {
                        assert_eq!(
                            internet_checksum(slice, init),
                            reference_checksum(slice, init),
                            "len {len} offset {off} init {init:#x} first byte {:#x?}",
                            slice.first()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn checksum_known_value() {
        // RFC 1071 example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2
        // before inversion.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data, 0), !0xddf2);
    }
}
