//! IPv4 (RFC 791) packets and their encoder, with the header checksum.
//! Parsing is [`crate::view::Ipv4View`].

use crate::checksum::checksum;
use std::net::Ipv4Addr;

/// IP protocol numbers shared by IPv4's `protocol` and IPv6's `next header`.
pub mod proto {
    /// ICMPv4.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// ICMPv6.
    pub const ICMPV6: u8 = 58;
    /// No next header (IPv6).
    pub const NO_NEXT: u8 = 59;
}

/// An IPv4 packet. Options are not modelled (the testbed never emits
/// them); a packet carrying options is still accepted and the options bytes
/// are skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Differentiated services code point + ECN byte.
    pub dscp_ecn: u8,
    /// Identification field (used by fragmentation; we carry it verbatim).
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (see [`proto`]).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport payload.
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Minimum (option-less) header length.
    pub const HEADER_LEN: usize = 20;

    /// Build a packet with common defaults (TTL 64, DF set).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, payload: Vec<u8>) -> Self {
        Ipv4Packet {
            dscp_ecn: 0,
            identification: 0,
            dont_fragment: true,
            ttl: 64,
            protocol,
            src,
            dst,
            payload,
        }
    }

    /// Serialize to bytes, computing the header checksum.
    pub fn encode(&self) -> Vec<u8> {
        let total_len = (Self::HEADER_LEN + self.payload.len()) as u16;
        let mut out = Vec::with_capacity(total_len as usize);
        out.push(0x45); // version 4, IHL 5
        out.push(self.dscp_ecn);
        out.extend_from_slice(&total_len.to_be_bytes());
        out.extend_from_slice(&self.identification.to_be_bytes());
        let flags_frag: u16 = if self.dont_fragment { 0x4000 } else { 0 };
        out.extend_from_slice(&flags_frag.to_be_bytes());
        out.push(self.ttl);
        out.push(self.protocol);
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        let ck = checksum(&out[..Self::HEADER_LEN]);
        out[10..12].copy_from_slice(&ck.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Copy with TTL decremented (router forwarding). Returns `None` when the
    /// TTL would hit zero, in which case the router must drop (and would send
    /// an ICMP time-exceeded in a full implementation).
    pub fn forwarded(&self) -> Option<Ipv4Packet> {
        if self.ttl <= 1 {
            return None;
        }
        let mut p = self.clone();
        p.ttl -= 1;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::Ipv4View;
    use crate::WireError;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            "192.168.12.50".parse().unwrap(),
            "23.153.8.71".parse().unwrap(),
            proto::UDP,
            vec![0xde, 0xad, 0xbe, 0xef],
        )
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        assert_eq!(Ipv4View::parse(&p.encode()).unwrap().to_packet(), p);
    }

    #[test]
    fn checksum_is_verified() {
        let mut bytes = sample().encode();
        bytes[8] = bytes[8].wrapping_add(1); // corrupt TTL without fixing checksum
        assert!(matches!(
            Ipv4View::parse(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample().encode();
        bytes[0] = 0x65;
        assert!(matches!(
            Ipv4View::parse(&bytes),
            Err(WireError::BadField { .. })
        ));
    }

    #[test]
    fn total_length_bounds_payload() {
        // Trailing Ethernet padding must be ignored.
        let p = sample();
        let mut bytes = p.encode();
        bytes.extend_from_slice(&[0u8; 10]); // pad
        let q = Ipv4View::parse(&bytes).unwrap();
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn ttl_forwarding() {
        let mut p = sample();
        p.ttl = 2;
        let f = p.forwarded().unwrap();
        assert_eq!(f.ttl, 1);
        assert!(f.forwarded().is_none());
    }
}
