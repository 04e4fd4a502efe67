//! Owned layered frames and building conveniences.
//!
//! The simulator moves raw `Vec<u8>` Ethernet frames; devices parse them with
//! [`FrameView::parse`] down to L4 in one call and emit complete frames with
//! the `build_*` helpers, which write Ethernet, IP and transport headers
//! into one exact-capacity buffer and patch each checksum in place. [`ParsedFrame`] is the owned materialisation of a
//! view ([`FrameView::to_parsed`]).

use crate::arp::ArpPacket;
use crate::ethernet::{EtherType, EthernetFrame};
use crate::icmpv4::Icmpv4Message;
use crate::icmpv6::Icmpv6Message;
use crate::ipv4::{proto, Ipv4Packet};
use crate::ipv6::Ipv6Packet;
use crate::mac::MacAddr;
use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;
use crate::view::{FrameView, Icmp4View, Icmp6View, L3View, L4View, TcpView};
use crate::WireError;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Network-layer content of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L3 {
    /// ARP packet.
    Arp(ArpPacket),
    /// IPv4 packet (payload retained for L4 parsing).
    V4(Ipv4Packet),
    /// IPv6 packet.
    V6(Ipv6Packet),
    /// Unrecognized ethertype, raw payload.
    Other(u16, Vec<u8>),
}

/// Transport-layer content of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L4 {
    /// UDP datagram.
    Udp(UdpDatagram),
    /// TCP segment.
    Tcp(TcpSegment),
    /// ICMPv4 message.
    Icmp4(Icmpv4Message),
    /// ICMPv6 message.
    Icmp6(Icmpv6Message),
    /// No transport content parsed (ARP, unknown protocol, ...).
    None,
}

/// A frame parsed through Ethernet → IP → transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFrame {
    /// The Ethernet envelope (payload retained verbatim).
    pub eth: EthernetFrame,
    /// Network layer.
    pub l3: L3,
    /// Transport layer.
    pub l4: L4,
}

impl ParsedFrame {
    /// The IPv4 source, if this is an IPv4 frame.
    pub fn v4_src(&self) -> Option<Ipv4Addr> {
        match &self.l3 {
            L3::V4(p) => Some(p.src),
            _ => None,
        }
    }
}

/// Write Ethernet, the IPv4 header of `ip` and an `l4_len`-byte transport
/// payload (appended by `write_l4`) into one exact-capacity buffer.
fn frame_v4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    ip: &Ipv4Packet,
    l4_len: usize,
    write_l4: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let len = EthernetFrame::HEADER_LEN + Ipv4Packet::HEADER_LEN + l4_len;
    let mut out = Vec::with_capacity(len);
    EthernetFrame::write_header(&mut out, dst_mac, src_mac, EtherType::Ipv4);
    ip.write_header(&mut out, l4_len);
    write_l4(&mut out);
    debug_assert_eq!(out.len(), len, "transport wire_len disagrees with write");
    out
}

/// The IPv6 counterpart of [`frame_v4`].
fn frame_v6(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    ip: &Ipv6Packet,
    l4_len: usize,
    write_l4: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let len = EthernetFrame::HEADER_LEN + Ipv6Packet::HEADER_LEN + l4_len;
    let mut out = Vec::with_capacity(len);
    EthernetFrame::write_header(&mut out, dst_mac, src_mac, EtherType::Ipv6);
    ip.write_header(&mut out, l4_len);
    write_l4(&mut out);
    debug_assert_eq!(out.len(), len, "transport wire_len disagrees with write");
    out
}

/// Build a complete Ethernet/IPv4/UDP frame.
pub fn build_udp_v4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dgram: &UdpDatagram,
) -> Vec<u8> {
    let ip = Ipv4Packet::new(src, dst, proto::UDP, Vec::new());
    frame_v4(src_mac, dst_mac, &ip, dgram.wire_len(), |out| {
        dgram.write_v4(out, src, dst)
    })
}

/// Build a complete Ethernet/IPv6/UDP frame.
pub fn build_udp_v6(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    dgram: &UdpDatagram,
) -> Vec<u8> {
    let ip = Ipv6Packet::new(src, dst, proto::UDP, Vec::new());
    frame_v6(src_mac, dst_mac, &ip, dgram.wire_len(), |out| {
        dgram.write_v6(out, src, dst)
    })
}

/// Build a complete Ethernet/IPv4/TCP frame.
pub fn build_tcp_v4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    seg: &TcpSegment,
) -> Vec<u8> {
    let ip = Ipv4Packet::new(src, dst, proto::TCP, Vec::new());
    frame_v4(src_mac, dst_mac, &ip, seg.wire_len(), |out| {
        seg.write_v4(out, src, dst)
    })
}

/// Build a complete Ethernet/IPv6/TCP frame.
pub fn build_tcp_v6(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    seg: &TcpSegment,
) -> Vec<u8> {
    let ip = Ipv6Packet::new(src, dst, proto::TCP, Vec::new());
    frame_v6(src_mac, dst_mac, &ip, seg.wire_len(), |out| {
        seg.write_v6(out, src, dst)
    })
}

/// Build a complete Ethernet/IPv6/ICMPv6 frame (hop limit 255 for NDP, as
/// RFC 4861 §7.1 requires receivers to verify).
pub fn build_icmpv6(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    msg: &Icmpv6Message,
) -> Vec<u8> {
    let mut ip = Ipv6Packet::new(src, dst, proto::ICMPV6, Vec::new());
    if matches!(
        msg,
        Icmpv6Message::RouterSolicitation(_)
            | Icmpv6Message::RouterAdvertisement(_)
            | Icmpv6Message::NeighborSolicitation(_)
            | Icmpv6Message::NeighborAdvertisement(_)
    ) {
        ip.hop_limit = 255;
    }
    frame_v6(src_mac, dst_mac, &ip, msg.wire_len(), |out| {
        msg.write(out, src, dst)
    })
}

/// Build a complete Ethernet/IPv4/ICMPv4 frame.
pub fn build_icmpv4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    msg: &Icmpv4Message,
) -> Vec<u8> {
    let ip = Ipv4Packet::new(src, dst, proto::ICMP, Vec::new());
    frame_v4(src_mac, dst_mac, &ip, msg.wire_len(), |out| msg.write(out))
}

/// Build an Ethernet/ARP frame (broadcast for requests, unicast for replies).
pub fn build_arp(src_mac: MacAddr, dst_mac: MacAddr, arp: &ArpPacket) -> Vec<u8> {
    let mut out = Vec::with_capacity(EthernetFrame::HEADER_LEN + ArpPacket::LEN);
    EthernetFrame::write_header(&mut out, dst_mac, src_mac, EtherType::Arp);
    arp.write(&mut out);
    out
}

/// One-line human-readable summary of a frame for trace tooling:
/// protocol, addresses, ports/types.
///
/// Parses through the borrowed [`FrameView`] layer, so the only allocation
/// per call is the returned `String` — this is the engine's Full-trace hot
/// path. Golden traces and the conformance suite pin the text.
pub fn summarize(raw: &[u8]) -> String {
    let parsed = match FrameView::parse(raw) {
        Ok(p) => p,
        Err(_) => return format!("corrupt: {}", classify(raw)),
    };
    match (&parsed.l3, &parsed.l4) {
        (L3View::Arp(a), _) => match a.op {
            crate::arp::ArpOp::Request => format!("ARP who-has {}", a.target_ip),
            crate::arp::ArpOp::Reply => format!("ARP {} is-at {}", a.sender_ip, a.sender_mac),
        },
        (L3View::V4(ip), L4View::Udp(u)) => format!(
            "IPv4 {}:{} > {}:{} UDP{}",
            ip.src,
            u.src_port,
            ip.dst,
            u.dst_port,
            udp_hint(u.src_port, u.dst_port)
        ),
        (L3View::V6(ip), L4View::Udp(u)) => format!(
            "IPv6 [{}]:{} > [{}]:{} UDP{}",
            ip.src,
            u.src_port,
            ip.dst,
            u.dst_port,
            udp_hint(u.src_port, u.dst_port)
        ),
        (L3View::V4(ip), L4View::Tcp(t)) => format!(
            "IPv4 {}:{} > {}:{} TCP {}",
            ip.src,
            t.src_port,
            ip.dst,
            t.dst_port,
            tcp_flags(t)
        ),
        (L3View::V6(ip), L4View::Tcp(t)) => format!(
            "IPv6 [{}]:{} > [{}]:{} TCP {}",
            ip.src,
            t.src_port,
            ip.dst,
            t.dst_port,
            tcp_flags(t)
        ),
        (L3View::V4(ip), L4View::Icmp4(m)) => {
            format!("IPv4 {} > {} {}", ip.src, ip.dst, icmp4_name(m))
        }
        (L3View::V6(ip), L4View::Icmp6(m)) => {
            format!("IPv6 [{}] > [{}] {}", ip.src, ip.dst, icmp6_name(m))
        }
        (L3View::V4(ip), L4View::None) => {
            format!("IPv4 {} > {} proto {}", ip.src, ip.dst, ip.protocol)
        }
        (L3View::V6(ip), L4View::None) => {
            format!("IPv6 [{}] > [{}] nh {}", ip.src, ip.dst, ip.next_header)
        }
        (L3View::Other(et, _), _) => format!("ethertype {et:#06x}"),
        _ => "frame".to_string(),
    }
}

fn udp_hint(src_port: u16, dst_port: u16) -> &'static str {
    match (src_port, dst_port) {
        (_, 53) | (53, _) => " (DNS)",
        (68, 67) | (67, 68) => " (DHCP)",
        _ => "",
    }
}

fn tcp_flags(t: &TcpView<'_>) -> String {
    let mut f = String::new();
    if t.flags.syn {
        f.push('S');
    }
    if t.flags.fin {
        f.push('F');
    }
    if t.flags.rst {
        f.push('R');
    }
    if t.flags.psh {
        f.push('P');
    }
    if t.flags.ack {
        f.push('.');
    }
    format!("[{f}] len={}", t.payload.len())
}

fn icmp4_name(m: &Icmp4View<'_>) -> &'static str {
    match m {
        Icmp4View::EchoRequest { .. } => "ICMP echo request",
        Icmp4View::EchoReply { .. } => "ICMP echo reply",
        Icmp4View::DestinationUnreachable { .. } => "ICMP unreachable",
        Icmp4View::TimeExceeded { .. } => "ICMP time exceeded",
    }
}

fn icmp6_name(m: &Icmp6View<'_>) -> &'static str {
    match m {
        Icmp6View::EchoRequest { .. } => "ICMPv6 echo request",
        Icmp6View::EchoReply { .. } => "ICMPv6 echo reply",
        Icmp6View::DestinationUnreachable { .. } => "ICMPv6 unreachable",
        Icmp6View::RouterSolicitation { .. } => "NDP router solicitation",
        Icmp6View::RouterAdvertisement(_) => "NDP router advertisement",
        Icmp6View::NeighborSolicitation { .. } => "NDP neighbor solicitation",
        Icmp6View::NeighborAdvertisement { .. } => "NDP neighbor advertisement",
    }
}

/// Corrupt-frame classification used by trace tooling: returns a short label
/// for why [`FrameView::parse`] failed, or "ok". Allocation-free.
pub fn classify(raw: &[u8]) -> &'static str {
    match FrameView::parse(raw) {
        Ok(_) => "ok",
        Err(WireError::Truncated { what, .. }) => what,
        Err(WireError::BadField { what, .. }) => what,
        Err(WireError::BadChecksum { what, .. }) => what,
        Err(WireError::BadLength { what, .. }) => what,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    fn mac(n: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, n])
    }

    /// The one-pass builders write exactly the bytes of the layered
    /// encoders — L4 `encode_*`, then `Ipv*Packet::encode`, then
    /// `EthernetFrame::encode` — in a buffer of exactly that length.
    #[test]
    fn one_pass_builders_match_layered_encoding() {
        use crate::ndp::{NdpOption, NeighborAdvertisement, RouterSolicitation};
        let (s4, d4): (Ipv4Addr, Ipv4Addr) = (
            "192.168.12.50".parse().unwrap(),
            "23.153.8.71".parse().unwrap(),
        );
        let (s6, d6): (Ipv6Addr, Ipv6Addr) = (
            "fd00:976a::50".parse().unwrap(),
            "64:ff9b::be5c:9e04".parse().unwrap(),
        );
        let eth = |ty, payload| EthernetFrame::new(mac(2), mac(1), ty, payload).encode();
        let exact = |frame: Vec<u8>, layered: Vec<u8>| {
            assert_eq!(frame.capacity(), frame.len(), "exact capacity");
            assert_eq!(frame, layered);
        };

        let d = UdpDatagram::new(5353, 53, b"odd-length".to_vec());
        let v4 = Ipv4Packet::new(s4, d4, proto::UDP, d.encode_v4(s4, d4));
        exact(
            build_udp_v4(mac(1), mac(2), s4, d4, &d),
            eth(EtherType::Ipv4, v4.encode()),
        );
        exact(
            v4.encode_frame(mac(2), mac(1)),
            eth(EtherType::Ipv4, v4.encode()),
        );
        let v6 = Ipv6Packet::new(s6, d6, proto::UDP, d.encode_v6(s6, d6));
        exact(
            build_udp_v6(mac(1), mac(2), s6, d6, &d),
            eth(EtherType::Ipv6, v6.encode()),
        );
        exact(
            v6.encode_frame(mac(2), mac(1)),
            eth(EtherType::Ipv6, v6.encode()),
        );

        let mut seg = TcpSegment::new(40000, 80, 7, 9, TcpFlags::SYN);
        seg.mss = Some(1220);
        seg.payload = b"GET / HTTP/1.1".to_vec();
        let v4 = Ipv4Packet::new(s4, d4, proto::TCP, seg.encode_v4(s4, d4));
        exact(
            build_tcp_v4(mac(1), mac(2), s4, d4, &seg),
            eth(EtherType::Ipv4, v4.encode()),
        );
        let v6 = Ipv6Packet::new(s6, d6, proto::TCP, seg.encode_v6(s6, d6));
        exact(
            build_tcp_v6(mac(1), mac(2), s6, d6, &seg),
            eth(EtherType::Ipv6, v6.encode()),
        );

        let echo = Icmpv4Message::EchoRequest {
            ident: 1,
            seq: 2,
            payload: vec![0xab; 5],
        };
        let v4 = Ipv4Packet::new(s4, d4, proto::ICMP, echo.encode());
        exact(
            build_icmpv4(mac(1), mac(2), s4, d4, &echo),
            eth(EtherType::Ipv4, v4.encode()),
        );

        let mut ra = crate::ndp::RouterAdvertisement::new(1800);
        ra.options = vec![
            NdpOption::SourceLinkLayer(mac(1)),
            NdpOption::Mtu(1500),
            NdpOption::Rdnss {
                lifetime: 60,
                servers: vec![s6, d6],
            },
            NdpOption::Dnssl {
                lifetime: 60,
                domains: vec!["rfc8925.com".into(), "a.b.".into()],
            },
            NdpOption::Pref64 {
                lifetime: 1800,
                prefix: d6,
                prefix_len: 96,
            },
            NdpOption::Unknown(200, vec![1, 2, 3, 4, 5, 6]),
            NdpOption::Unknown(201, vec![7]),
        ];
        let messages = [
            Icmpv6Message::RouterAdvertisement(ra),
            Icmpv6Message::RouterSolicitation(RouterSolicitation::default()),
            Icmpv6Message::NeighborAdvertisement(NeighborAdvertisement {
                router: true,
                solicited: true,
                override_flag: false,
                target: s6,
                options: vec![NdpOption::TargetLinkLayer(mac(1))],
            }),
            Icmpv6Message::DestinationUnreachable {
                code: 4,
                invoking: vec![0x60; 48],
            },
            Icmpv6Message::EchoReply {
                ident: 3,
                seq: 4,
                payload: vec![1; 3],
            },
        ];
        for msg in &messages {
            assert_eq!(msg.wire_len(), msg.encode(s6, d6).len(), "{msg:?}");
            let mut v6 = Ipv6Packet::new(s6, d6, proto::ICMPV6, msg.encode(s6, d6));
            if !matches!(
                msg,
                Icmpv6Message::DestinationUnreachable { .. } | Icmpv6Message::EchoReply { .. }
            ) {
                v6.hop_limit = 255;
            }
            exact(
                build_icmpv6(mac(1), mac(2), s6, d6, msg),
                eth(EtherType::Ipv6, v6.encode()),
            );
        }

        let arp = ArpPacket::request(mac(1), s4, d4);
        exact(
            build_arp(mac(1), mac(2), &arp),
            eth(EtherType::Arp, arp.encode()),
        );
    }

    #[test]
    fn full_stack_udp_v6() {
        let d = UdpDatagram::new(5353, 53, b"hello".to_vec());
        let raw = build_udp_v6(
            mac(1),
            mac(2),
            "fd00:976a::50".parse().unwrap(),
            "fd00:976a::9".parse().unwrap(),
            &d,
        );
        let p = FrameView::parse(&raw).unwrap().to_parsed();
        assert!(matches!(p.l3, L3::V6(_)));
        match p.l4 {
            L4::Udp(got) => assert_eq!(got, d),
            other => panic!("unexpected l4: {other:?}"),
        }
    }

    #[test]
    fn full_stack_tcp_v4() {
        let seg = TcpSegment::new(40000, 80, 1, 0, TcpFlags::SYN);
        let raw = build_tcp_v4(
            mac(1),
            mac(2),
            "192.168.12.50".parse().unwrap(),
            "23.153.8.71".parse().unwrap(),
            &seg,
        );
        let p = FrameView::parse(&raw).unwrap().to_parsed();
        assert!(matches!(p.l4, L4::Tcp(_)));
        assert_eq!(p.v4_src(), Some("192.168.12.50".parse().unwrap()));
    }

    #[test]
    fn ndp_frames_get_hop_limit_255() {
        let msg = Icmpv6Message::RouterSolicitation(Default::default());
        let raw = build_icmpv6(
            mac(1),
            MacAddr::for_ipv6_multicast(crate::icmpv6::all_routers()),
            "fe80::1".parse().unwrap(),
            crate::icmpv6::all_routers(),
            &msg,
        );
        let p = FrameView::parse(&raw).unwrap().to_parsed();
        match p.l3 {
            L3::V6(ip) => assert_eq!(ip.hop_limit, 255),
            other => panic!("unexpected l3: {other:?}"),
        }
    }

    #[test]
    fn echo_v6_keeps_default_hop_limit() {
        let msg = Icmpv6Message::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![],
        };
        let raw = build_icmpv6(
            mac(1),
            mac(2),
            "fd00::1".parse().unwrap(),
            "fd00::2".parse().unwrap(),
            &msg,
        );
        match FrameView::parse(&raw).unwrap().to_parsed().l3 {
            L3::V6(ip) => assert_eq!(ip.hop_limit, 64),
            other => panic!("unexpected l3: {other:?}"),
        }
    }

    #[test]
    fn classify_reports_layer() {
        assert_eq!(classify(&[0u8; 4]), "ethernet");
        let d = UdpDatagram::new(1, 2, vec![]);
        let mut raw = build_udp_v4(
            mac(1),
            mac(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            &d,
        );
        let n = raw.len();
        raw[n - 1] ^= 0xff; // corrupt UDP checksum region
        assert_eq!(classify(&raw), "udp-v4");
    }

    #[test]
    fn unknown_ethertype_is_other() {
        let f = EthernetFrame::new(mac(1), mac(2), EtherType::Other(0x88cc), vec![9, 9]);
        let p = FrameView::parse(&f.encode()).unwrap().to_parsed();
        assert!(matches!(p.l3, L3::Other(0x88cc, _)));
        assert!(matches!(p.l4, L4::None));
    }
}
