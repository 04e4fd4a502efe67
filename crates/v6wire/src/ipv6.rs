//! IPv6 (RFC 8200) packets and their encoder. Parsing is
//! [`crate::view::Ipv6View`].

use crate::ethernet::{EtherType, EthernetFrame};
use crate::mac::MacAddr;
use std::net::Ipv6Addr;

/// An IPv6 packet. Extension headers other than the payload protocol
/// are not emitted by the testbed; a packet carrying one is surfaced with its
/// `next_header` so callers can decide to drop it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Packet {
    /// Traffic class byte.
    pub traffic_class: u8,
    /// 20-bit flow label.
    pub flow_label: u32,
    /// Next header / payload protocol (see [`crate::ipv4::proto`]).
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Transport payload.
    pub payload: Vec<u8>,
}

impl Ipv6Packet {
    /// Fixed header length.
    pub const HEADER_LEN: usize = 40;

    /// Build a packet with common defaults (hop limit 64).
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, payload: Vec<u8>) -> Self {
        Ipv6Packet {
            traffic_class: 0,
            flow_label: 0,
            next_header,
            hop_limit: 64,
            src,
            dst,
            payload,
        }
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + self.payload.len());
        self.write_header(&mut out, self.payload.len());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Serialize as a complete Ethernet frame into one exact-capacity
    /// buffer: the same bytes as wrapping [`Ipv6Packet::encode`] in an
    /// [`EthernetFrame`], without the intermediate packet buffer.
    pub fn encode_frame(&self, dst_mac: MacAddr, src_mac: MacAddr) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(EthernetFrame::HEADER_LEN + Self::HEADER_LEN + self.payload.len());
        EthernetFrame::write_header(&mut out, dst_mac, src_mac, EtherType::Ipv6);
        self.write_header(&mut out, self.payload.len());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Append the 40-byte header for a payload of `payload_len` bytes
    /// (the caller appends the payload itself, so `self.payload` is not
    /// read).
    pub fn write_header(&self, out: &mut Vec<u8>, payload_len: usize) {
        let vtcfl: u32 =
            (6u32 << 28) | (u32::from(self.traffic_class) << 20) | (self.flow_label & 0xfffff);
        out.extend_from_slice(&vtcfl.to_be_bytes());
        out.extend_from_slice(&(payload_len as u16).to_be_bytes());
        out.push(self.next_header);
        out.push(self.hop_limit);
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
    }

    /// Copy with hop limit decremented; `None` when it would hit zero.
    pub fn forwarded(&self) -> Option<Ipv6Packet> {
        if self.hop_limit <= 1 {
            return None;
        }
        let mut p = self.clone();
        p.hop_limit -= 1;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::proto;
    use crate::view::Ipv6View;
    use crate::WireError;

    fn sample() -> Ipv6Packet {
        let mut p = Ipv6Packet::new(
            "fd00:976a::9".parse().unwrap(),
            "64:ff9b::be5c:9e04".parse().unwrap(),
            proto::UDP,
            vec![1, 2, 3],
        );
        p.traffic_class = 0xb8;
        p.flow_label = 0xabcde;
        p
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        assert_eq!(Ipv6View::parse(&p.encode()).unwrap().to_packet(), p);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample().encode();
        bytes[0] = 0x45;
        assert!(matches!(
            Ipv6View::parse(&bytes),
            Err(WireError::BadField { .. })
        ));
    }

    #[test]
    fn payload_length_bounds_payload() {
        let p = sample();
        let mut bytes = p.encode();
        bytes.extend_from_slice(&[0u8; 6]); // link padding
        assert_eq!(Ipv6View::parse(&bytes).unwrap().payload, p.payload);
    }

    #[test]
    fn overlong_claim_rejected() {
        let p = sample();
        let mut bytes = p.encode();
        bytes[4] = 0xff; // claim a huge payload
        assert!(matches!(
            Ipv6View::parse(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn hop_limit_forwarding() {
        let mut p = sample();
        p.hop_limit = 1;
        assert!(p.forwarded().is_none());
    }
}
