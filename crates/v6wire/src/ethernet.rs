//! Ethernet II framing.

use crate::mac::MacAddr;

/// EtherType values the testbed carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// 0x0800
    Ipv4,
    /// 0x0806
    Arp,
    /// 0x86dd
    Ipv6,
    /// Anything else (kept verbatim so switches can forward unknown types).
    Other(u16),
}

impl EtherType {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Other(v) => v,
        }
    }

    /// Classify a 16-bit wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II frame (no FCS — the simulator's links are reliable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// L3 payload bytes.
    pub payload: Vec<u8>,
}

impl EthernetFrame {
    /// Header length in bytes.
    pub const HEADER_LEN: usize = 14;

    /// Build a frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Vec<u8>) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + self.payload.len());
        Self::write_header(&mut out, self.dst, self.src, self.ethertype);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Append a 14-byte Ethernet II header to `out` — the first step of
    /// the one-buffer frame encoders (`Ipv4Packet::encode_frame`,
    /// `Ipv6Packet::encode_frame`, the `packet::build_*` helpers).
    pub fn write_header(out: &mut Vec<u8>, dst: MacAddr, src: MacAddr, ethertype: EtherType) {
        out.extend_from_slice(&dst.0);
        out.extend_from_slice(&src.0);
        out.extend_from_slice(&ethertype.to_u16().to_be_bytes());
    }

    /// True if addressed to `mac`, broadcast, or any group address
    /// (simulated NICs run in "accept all multicast" mode — the host stack
    /// filters by group membership at L3).
    pub fn accepts(&self, mac: MacAddr) -> bool {
        self.dst == mac || self.dst.is_multicast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::EthView;
    use crate::WireError;

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([0x02, 0, 0, 0, 0, last])
    }

    #[test]
    fn roundtrip() {
        let f = EthernetFrame::new(mac(1), mac(2), EtherType::Ipv6, vec![1, 2, 3, 4]);
        let bytes = f.encode();
        assert_eq!(EthView::parse(&bytes).unwrap().to_frame(), f);
    }

    #[test]
    fn ethertype_mapping() {
        for (v, t) in [
            (0x0800u16, EtherType::Ipv4),
            (0x0806, EtherType::Arp),
            (0x86dd, EtherType::Ipv6),
            (0x88cc, EtherType::Other(0x88cc)),
        ] {
            assert_eq!(EtherType::from_u16(v), t);
            assert_eq!(t.to_u16(), v);
        }
    }

    #[test]
    fn accepts_unicast_and_group() {
        let f = EthernetFrame::new(mac(1), mac(2), EtherType::Ipv4, vec![]);
        assert!(f.accepts(mac(1)));
        assert!(!f.accepts(mac(9)));
        let b = EthernetFrame::new(MacAddr::BROADCAST, mac(2), EtherType::Ipv4, vec![]);
        assert!(b.accepts(mac(9)));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            EthView::parse(&[0u8; 13]),
            Err(WireError::Truncated { .. })
        ));
    }
}
