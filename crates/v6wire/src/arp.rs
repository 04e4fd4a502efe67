//! ARP for IPv4-over-Ethernet (RFC 826). The testbed's IPv4 legs (the 5G
//! gateway's NAT44 path and the poisoned-DNS leg) resolve next-hops with ARP;
//! IPv6 uses NDP instead (see [`crate::ndp`]).

use crate::mac::MacAddr;
use crate::{be16, need, WireError, WireResult};
use std::net::Ipv4Addr;

/// ARP operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has (1).
    Request,
    /// Is-at (2).
    Reply,
}

/// An ARP packet for the Ethernet/IPv4 combination (the only one we model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArpPacket {
    /// Request or reply.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// Wire size of an Ethernet/IPv4 ARP packet.
    pub const LEN: usize = 28;

    /// Build a who-has request for `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Build the is-at reply answering `req`.
    pub fn reply_to(req: &ArpPacket, my_mac: MacAddr) -> Self {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: my_mac,
            sender_ip: req.target_ip,
            target_mac: req.sender_mac,
            target_ip: req.sender_ip,
        }
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LEN);
        self.write(&mut out);
        out
    }

    /// Append the 28 wire bytes to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&1u16.to_be_bytes()); // htype: Ethernet
        out.extend_from_slice(&0x0800u16.to_be_bytes()); // ptype: IPv4
        out.push(6); // hlen
        out.push(4); // plen
        let op: u16 = match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        };
        out.extend_from_slice(&op.to_be_bytes());
        out.extend_from_slice(&self.sender_mac.0);
        out.extend_from_slice(&self.sender_ip.octets());
        out.extend_from_slice(&self.target_mac.0);
        out.extend_from_slice(&self.target_ip.octets());
    }

    /// Parse from bytes.
    pub fn decode(buf: &[u8]) -> WireResult<Self> {
        need(buf, Self::LEN, "arp")?;
        let htype = be16(buf, 0, "arp")?;
        let ptype = be16(buf, 2, "arp")?;
        if htype != 1 || ptype != 0x0800 || buf[4] != 6 || buf[5] != 4 {
            return Err(WireError::BadField {
                what: "arp-hw/proto",
                value: u64::from(htype) << 16 | u64::from(ptype),
            });
        }
        let op = match be16(buf, 6, "arp")? {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            v => {
                return Err(WireError::BadField {
                    what: "arp-op",
                    value: u64::from(v),
                })
            }
        };
        Ok(ArpPacket {
            op,
            sender_mac: MacAddr::decode(&buf[8..14])?,
            sender_ip: Ipv4Addr::new(buf[14], buf[15], buf[16], buf[17]),
            target_mac: MacAddr::decode(&buf[18..24])?,
            target_ip: Ipv4Addr::new(buf[24], buf[25], buf[26], buf[27]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_reply_roundtrip() {
        let mac_a = MacAddr::new([2, 0, 0, 0, 0, 0xaa]);
        let mac_b = MacAddr::new([2, 0, 0, 0, 0, 0xbb]);
        let req = ArpPacket::request(
            mac_a,
            "192.168.12.50".parse().unwrap(),
            "192.168.12.1".parse().unwrap(),
        );
        assert_eq!(ArpPacket::decode(&req.encode()).unwrap(), req);
        let rep = ArpPacket::reply_to(&req, mac_b);
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, req.target_ip);
        assert_eq!(rep.target_mac, mac_a);
        assert_eq!(ArpPacket::decode(&rep.encode()).unwrap(), rep);
    }

    #[test]
    fn rejects_non_ethernet_ipv4() {
        let req = ArpPacket::request(
            MacAddr::ZERO,
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        );
        let mut bytes = req.encode();
        bytes[1] = 6; // htype = 6
        assert!(ArpPacket::decode(&bytes).is_err());
        let mut bytes2 = req.encode();
        bytes2[7] = 9; // bogus opcode
        assert!(ArpPacket::decode(&bytes2).is_err());
    }
}
