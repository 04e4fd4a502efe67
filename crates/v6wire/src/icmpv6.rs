//! ICMPv6 (RFC 4443) envelope: echo, destination-unreachable, and the four
//! NDP messages from [`crate::ndp`]. The ICMPv6 checksum covers the IPv6
//! pseudo-header, so encoding (and [`crate::view::Icmp6View::parse`]) takes
//! the source and destination addresses.

use crate::checksum::pseudo_v6;
use crate::ndp::{
    NdpOption, NeighborAdvertisement, NeighborSolicitation, RouterAdvertisement, RouterSolicitation,
};
use std::net::Ipv6Addr;

/// An ICMPv6 message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Icmpv6Message {
    /// Type 1: destination unreachable.
    DestinationUnreachable {
        /// Code (0 no-route, 3 address-unreachable, 4 port-unreachable...).
        code: u8,
        /// As much of the invoking packet as fits.
        invoking: Vec<u8>,
    },
    /// Type 128: echo request.
    EchoRequest {
        /// Identifier.
        ident: u16,
        /// Sequence.
        seq: u16,
        /// Payload.
        payload: Vec<u8>,
    },
    /// Type 129: echo reply.
    EchoReply {
        /// Identifier.
        ident: u16,
        /// Sequence.
        seq: u16,
        /// Payload.
        payload: Vec<u8>,
    },
    /// Type 133: router solicitation.
    RouterSolicitation(RouterSolicitation),
    /// Type 134: router advertisement.
    RouterAdvertisement(RouterAdvertisement),
    /// Type 135: neighbor solicitation.
    NeighborSolicitation(NeighborSolicitation),
    /// Type 136: neighbor advertisement.
    NeighborAdvertisement(NeighborAdvertisement),
}

impl Icmpv6Message {
    /// Serialize with the pseudo-header checksum for `src`→`dst`.
    pub fn encode(&self, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write(&mut out, src, dst);
        out
    }

    /// Encoded length, options included.
    pub fn wire_len(&self) -> usize {
        let options = |opts: &[NdpOption]| opts.iter().map(NdpOption::wire_len).sum::<usize>();
        match self {
            Icmpv6Message::DestinationUnreachable { invoking, .. } => 8 + invoking.len(),
            Icmpv6Message::EchoRequest { payload, .. }
            | Icmpv6Message::EchoReply { payload, .. } => 8 + payload.len(),
            Icmpv6Message::RouterSolicitation(rs) => 8 + options(&rs.options),
            Icmpv6Message::RouterAdvertisement(ra) => 16 + options(&ra.options),
            Icmpv6Message::NeighborSolicitation(ns) => 24 + options(&ns.options),
            Icmpv6Message::NeighborAdvertisement(na) => 24 + options(&na.options),
        }
    }

    /// Append to `out` with the pseudo-header checksum for `src`→`dst`,
    /// patched in place.
    pub fn write(&self, out: &mut Vec<u8>, src: Ipv6Addr, dst: Ipv6Addr) {
        let start = out.len();
        match self {
            Icmpv6Message::DestinationUnreachable { code, invoking } => {
                out.extend_from_slice(&[1, *code, 0, 0, 0, 0, 0, 0]);
                out.extend_from_slice(invoking);
            }
            Icmpv6Message::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                out.extend_from_slice(&[128, 0, 0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            Icmpv6Message::EchoReply {
                ident,
                seq,
                payload,
            } => {
                out.extend_from_slice(&[129, 0, 0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            Icmpv6Message::RouterSolicitation(rs) => {
                out.extend_from_slice(&[133, 0, 0, 0, 0, 0, 0, 0]);
                for opt in &rs.options {
                    opt.encode(out);
                }
            }
            Icmpv6Message::RouterAdvertisement(ra) => {
                out.extend_from_slice(&[134, 0, 0, 0]);
                ra.encode_body(out);
            }
            Icmpv6Message::NeighborSolicitation(ns) => {
                out.extend_from_slice(&[135, 0, 0, 0, 0, 0, 0, 0]);
                out.extend_from_slice(&ns.target.octets());
                for opt in &ns.options {
                    opt.encode(out);
                }
            }
            Icmpv6Message::NeighborAdvertisement(na) => {
                out.extend_from_slice(&[136, 0, 0, 0]);
                let mut flags = 0u8;
                if na.router {
                    flags |= 0x80;
                }
                if na.solicited {
                    flags |= 0x40;
                }
                if na.override_flag {
                    flags |= 0x20;
                }
                out.push(flags);
                out.extend_from_slice(&[0, 0, 0]);
                out.extend_from_slice(&na.target.octets());
                for opt in &na.options {
                    opt.encode(out);
                }
            }
        }
        let len = out.len() - start;
        let mut ck = pseudo_v6(src, dst, crate::ipv4::proto::ICMPV6, len as u32);
        ck.push(&out[start..]);
        out[start + 2..start + 4].copy_from_slice(&ck.finish().to_be_bytes());
    }
}

/// The all-nodes link-local multicast group `ff02::1`.
pub fn all_nodes() -> Ipv6Addr {
    Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 1)
}

/// The all-routers link-local multicast group `ff02::2`.
pub fn all_routers() -> Ipv6Addr {
    Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 2)
}

/// The solicited-node multicast group for `addr` (RFC 4291 §2.7.1).
pub fn solicited_node(addr: Ipv6Addr) -> Ipv6Addr {
    let o = addr.octets();
    Ipv6Addr::new(
        0xff02,
        0,
        0,
        0,
        0,
        1,
        0xff00 | u16::from(o[13]),
        (u16::from(o[14]) << 8) | u16::from(o[15]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddr;
    use crate::ndp::{NdpOption, RouterPreference};
    use crate::view::Icmp6View;
    use crate::WireResult;

    fn parse(b: &[u8], src: Ipv6Addr, dst: Ipv6Addr) -> WireResult<Icmpv6Message> {
        Icmp6View::parse(b, src, dst).map(|v| v.to_message())
    }

    fn ll(last: u16) -> Ipv6Addr {
        format!("fe80::{last:x}").parse().unwrap()
    }

    #[test]
    fn echo_roundtrip() {
        let m = Icmpv6Message::EchoRequest {
            ident: 77,
            seq: 1,
            payload: b"ping sc24.supercomputing.org".to_vec(),
        };
        let bytes = m.encode(ll(1), "64:ff9b::be5c:9e04".parse().unwrap());
        let got = parse(&bytes, ll(1), "64:ff9b::be5c:9e04".parse().unwrap()).unwrap();
        assert_eq!(got, m);
    }

    #[test]
    fn ra_full_roundtrip() {
        let mut ra = RouterAdvertisement::new(1800);
        ra.preference = RouterPreference::Low;
        ra.options.push(NdpOption::Rdnss {
            lifetime: 300,
            servers: vec!["fd00:976a::9".parse().unwrap()],
        });
        let m = Icmpv6Message::RouterAdvertisement(ra);
        let bytes = m.encode(ll(1), all_nodes());
        assert_eq!(parse(&bytes, ll(1), all_nodes()).unwrap(), m);
    }

    #[test]
    fn ns_na_roundtrip() {
        let target: Ipv6Addr = "fd00:976a::9".parse().unwrap();
        let ns = Icmpv6Message::NeighborSolicitation(NeighborSolicitation {
            target,
            options: vec![NdpOption::SourceLinkLayer(MacAddr::new([2, 0, 0, 0, 0, 5]))],
        });
        let bytes = ns.encode(ll(5), solicited_node(target));
        assert_eq!(parse(&bytes, ll(5), solicited_node(target)).unwrap(), ns);
        let na = Icmpv6Message::NeighborAdvertisement(NeighborAdvertisement {
            router: false,
            solicited: true,
            override_flag: true,
            target,
            options: vec![NdpOption::TargetLinkLayer(MacAddr::new([2, 0, 0, 0, 0, 9]))],
        });
        let bytes = na.encode(target, ll(5));
        assert_eq!(parse(&bytes, target, ll(5)).unwrap(), na);
    }

    #[test]
    fn checksum_binds_addresses() {
        let m = Icmpv6Message::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![],
        };
        let bytes = m.encode(ll(1), ll(2));
        assert!(parse(&bytes, ll(1), ll(3)).is_err());
    }

    #[test]
    fn solicited_node_group() {
        let a: Ipv6Addr = "fd00:976a::eccc:47e6:51a9:6090".parse().unwrap();
        assert_eq!(
            solicited_node(a),
            "ff02::1:ffa9:6090".parse::<Ipv6Addr>().unwrap()
        );
    }
}
