//! Property-based tests: every codec must round-trip arbitrary packets, and
//! every checksum must bind the data and pseudo-header.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6wire::arp::ArpPacket;
use v6wire::checksum::{checksum, incremental_update, pseudo_v4, pseudo_v6, Checksum};
use v6wire::ethernet::{EtherType, EthernetFrame};
use v6wire::icmpv4::Icmpv4Message;
use v6wire::icmpv6::Icmpv6Message;
use v6wire::ipv4::{proto, Ipv4Packet};
use v6wire::ipv6::Ipv6Packet;
use v6wire::mac::MacAddr;
use v6wire::tcp::{TcpFlags, TcpSegment};
use v6wire::udp::UdpDatagram;
use v6wire::view::{
    EthView, FrameView, Icmp4View, Icmp6View, Ipv4View, Ipv6View, TcpView, UdpView,
};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_v4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_v6() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

proptest! {
    #[test]
    fn checksum_split_invariant(data in proptest::collection::vec(any::<u8>(), 0..512), split in any::<prop::sample::Index>()) {
        let at = if data.is_empty() { 0 } else { split.index(data.len()) };
        let mut c = Checksum::new();
        c.push(&data[..at]);
        c.push(&data[at..]);
        prop_assert_eq!(c.finish(), checksum(&data));
    }

    #[test]
    fn checksum_self_verifies(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Appending the correct checksum makes the whole verify to zero —
        // but only for even-length data (the trailing odd byte pads
        // differently once the checksum bytes follow it).
        let mut data = data;
        if data.len() % 2 == 1 { data.push(0); }
        let ck = checksum(&data);
        let mut with = data.clone();
        with.extend_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(checksum(&with), 0);
    }

    #[test]
    fn incremental_update_matches_recompute(
        mut data in proptest::collection::vec(any::<u8>(), 4..128),
        word in any::<u16>(),
        idx in any::<prop::sample::Index>()
    ) {
        if data.len() % 2 == 1 { data.push(0); }
        let pos = idx.index(data.len() / 2) * 2;
        let old = u16::from_be_bytes([data[pos], data[pos + 1]]);
        let before = checksum(&data);
        let updated = incremental_update(before, old, word);
        data[pos..pos + 2].copy_from_slice(&word.to_be_bytes());
        prop_assert_eq!(updated, checksum(&data));
    }

    #[test]
    fn ethernet_roundtrip(dst in arb_mac(), src in arb_mac(), et in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let f = EthernetFrame::new(dst, src, EtherType::from_u16(et), payload);
        prop_assert_eq!(EthView::parse(&f.encode()).unwrap().to_frame(), f);
    }

    #[test]
    fn arp_roundtrip(smac in arb_mac(), sip in arb_v4(), tmac in arb_mac(), tip in arb_v4(), is_req in any::<bool>()) {
        let p = ArpPacket {
            op: if is_req { v6wire::arp::ArpOp::Request } else { v6wire::arp::ArpOp::Reply },
            sender_mac: smac,
            sender_ip: sip,
            target_mac: tmac,
            target_ip: tip,
        };
        prop_assert_eq!(ArpPacket::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn ipv4_roundtrip(src in arb_v4(), dst in arb_v4(), protocol in any::<u8>(), ttl in 1u8.., dscp in any::<u8>(), df in any::<bool>(), ident in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut p = Ipv4Packet::new(src, dst, protocol, payload);
        p.ttl = ttl;
        p.dscp_ecn = dscp;
        p.dont_fragment = df;
        p.identification = ident;
        prop_assert_eq!(Ipv4View::parse(&p.encode()).unwrap().to_packet(), p);
    }

    #[test]
    fn ipv4_corruption_detected(src in arb_v4(), dst in arb_v4(), byte in 0usize..20, bit in 0u8..8) {
        let p = Ipv4Packet::new(src, dst, proto::UDP, vec![1, 2, 3]);
        let mut bytes = p.encode();
        bytes[byte] ^= 1 << bit;
        // Any single-bit header corruption is either detected or changes a
        // field covered by checksum — parse must not return the original
        // unchanged packet with a valid checksum unless the flip undid
        // itself (impossible for a single bit).
        if let Ok(q) = Ipv4View::parse(&bytes) { prop_assert_ne!(q.to_packet(), p) }
    }

    #[test]
    fn ipv6_roundtrip(src in arb_v6(), dst in arb_v6(), nh in any::<u8>(), hl in 1u8.., tc in any::<u8>(), fl in 0u32..0x100000, payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut p = Ipv6Packet::new(src, dst, nh, payload);
        p.hop_limit = hl;
        p.traffic_class = tc;
        p.flow_label = fl;
        prop_assert_eq!(Ipv6View::parse(&p.encode()).unwrap().to_packet(), p);
    }

    #[test]
    fn udp_roundtrip_both_families(sp in any::<u16>(), dp in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..512), s4 in arb_v4(), d4 in arb_v4(), s6 in arb_v6(), d6 in arb_v6()) {
        let d = UdpDatagram::new(sp, dp, payload);
        let b4 = d.encode_v4(s4, d4);
        prop_assert_eq!(UdpView::parse_v4(&b4, s4, d4).unwrap().to_datagram(), d.clone());
        let b6 = d.encode_v6(s6, d6);
        prop_assert_eq!(UdpView::parse_v6(&b6, s6, d6).unwrap().to_datagram(), d);
    }

    #[test]
    fn udp_v6_rejects_any_flip(payload in proptest::collection::vec(any::<u8>(), 1..64), s6 in arb_v6(), d6 in arb_v6(), idx in any::<prop::sample::Index>(), bit in 0u8..8) {
        let d = UdpDatagram::new(1000, 53, payload);
        let mut bytes = d.encode_v6(s6, d6);
        let at = idx.index(bytes.len());
        // Skip flips in the length field, which change framing rather than
        // content (caught as BadLength, also an error).
        bytes[at] ^= 1 << bit;
        prop_assert!(UdpView::parse_v6(&bytes, s6, d6).is_err());
    }

    #[test]
    fn tcp_roundtrip(sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(), ack in any::<u32>(), window in any::<u16>(), mss in proptest::option::of(any::<u16>()), payload in proptest::collection::vec(any::<u8>(), 0..256), s6 in arb_v6(), d6 in arb_v6()) {
        let mut seg = TcpSegment::new(sp, dp, seq, ack, TcpFlags::PSH_ACK);
        seg.window = window;
        seg.mss = mss;
        seg.payload = payload;
        let bytes = seg.encode_v6(s6, d6);
        prop_assert_eq!(TcpView::parse_v6(&bytes, s6, d6).unwrap().to_segment(), seg);
    }

    #[test]
    fn icmpv4_echo_roundtrip(ident in any::<u16>(), seqn in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        let m = Icmpv4Message::EchoRequest { ident, seq: seqn, payload };
        prop_assert_eq!(Icmp4View::parse(&m.encode()).unwrap().to_message(), m);
    }

    #[test]
    fn icmpv6_echo_roundtrip(ident in any::<u16>(), seqn in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..128), s6 in arb_v6(), d6 in arb_v6()) {
        let m = Icmpv6Message::EchoReply { ident, seq: seqn, payload };
        let bytes = m.encode(s6, d6);
        prop_assert_eq!(Icmp6View::parse(&bytes, s6, d6).unwrap().to_message(), m);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Fuzz the whole layered parser: errors are fine, panics are not.
        let _ = FrameView::parse(&bytes).map(|v| v.to_parsed());
        let _ = Ipv4View::parse(&bytes).map(|v| v.to_packet());
        let _ = Ipv6View::parse(&bytes).map(|v| v.to_packet());
        let _ = ArpPacket::decode(&bytes);
        let _ = Icmp4View::parse(&bytes).map(|v| v.to_message());
    }
}

// --- RFC 1624 incremental updates under NAT rewrites -----------------------
//
// The stateless translators rewrite addresses/ports and fix transport
// checksums incrementally instead of re-summing the payload. These
// properties pin the incremental chain to a full recompute for both the
// NAT44 shape (address + port rewrite within IPv4) and the NAT64 shape
// (whole pseudo-header swapped between families).
//
// Ones-complement has two zeros, so a chain of eqn-3 updates may land on
// 0x0000 where a full recompute lands on 0xffff (or vice versa); UDP
// transmits 0 as 0xffff for exactly this reason, so compare normalized.

fn norm_udp_ck(ck: u16) -> u16 {
    if ck == 0 {
        0xffff
    } else {
        ck
    }
}

fn v4_words(a: Ipv4Addr) -> [u16; 2] {
    let o = a.octets();
    [
        u16::from_be_bytes([o[0], o[1]]),
        u16::from_be_bytes([o[2], o[3]]),
    ]
}

/// Full UDP checksum over the IPv4 pseudo-header + header + payload.
fn udp_ck_v4(src: Ipv4Addr, dst: Ipv4Addr, sp: u16, dp: u16, payload: &[u8]) -> u16 {
    let len = 8 + payload.len() as u16;
    let mut c = pseudo_v4(src, dst, proto::UDP, len);
    c.push_u16(sp);
    c.push_u16(dp);
    c.push_u16(len);
    c.push_u16(0);
    c.push(payload);
    c.finish()
}

/// Full UDP checksum over the IPv6 pseudo-header + header + payload.
fn udp_ck_v6(src: Ipv6Addr, dst: Ipv6Addr, sp: u16, dp: u16, payload: &[u8]) -> u16 {
    let len = 8 + payload.len() as u16;
    let mut c = pseudo_v6(src, dst, proto::UDP, u32::from(len));
    c.push_u16(sp);
    c.push_u16(dp);
    c.push_u16(len);
    c.push_u16(0);
    c.push(payload);
    c.finish()
}

proptest! {
    #[test]
    fn nat44_incremental_update_matches_recompute(
        src in arb_v4(), dst in arb_v4(), new_src in arb_v4(),
        sp in any::<u16>(), dp in any::<u16>(), new_sp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let old_ck = udp_ck_v4(src, dst, sp, dp, &payload);
        // NAT44 source rewrite: two address words + the source port.
        let mut ck = old_ck;
        let [oh, ol] = v4_words(src);
        let [nh, nl] = v4_words(new_src);
        ck = incremental_update(ck, oh, nh);
        ck = incremental_update(ck, ol, nl);
        ck = incremental_update(ck, sp, new_sp);
        let full = udp_ck_v4(new_src, dst, new_sp, dp, &payload);
        prop_assert_eq!(norm_udp_ck(ck), norm_udp_ck(full));
    }

    #[test]
    fn nat64_incremental_update_matches_recompute(
        src6 in arb_v6(), dst6 in arb_v6(),
        src4 in arb_v4(), dst4 in arb_v4(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let len = 8 + payload.len() as u16;
        // Word streams of both pseudo-headers, zero-padded to equal length:
        // updating (old_word -> new_word) pairwise is exactly the NAT64
        // translator's checksum fixup (RFC 7915 §4.5 strategy).
        let mut old_words = Vec::new();
        old_words.extend_from_slice(&src6.segments());
        old_words.extend_from_slice(&dst6.segments());
        old_words.extend_from_slice(&[0, len, 0, u16::from(proto::UDP)]);
        let mut new_words = Vec::new();
        new_words.extend_from_slice(&v4_words(src4));
        new_words.extend_from_slice(&v4_words(dst4));
        new_words.extend_from_slice(&[u16::from(proto::UDP), len]);
        new_words.resize(old_words.len(), 0);

        let old_ck = udp_ck_v6(src6, dst6, sp, dp, &payload);
        let mut ck = old_ck;
        for (&o, &n) in old_words.iter().zip(&new_words) {
            ck = incremental_update(ck, o, n);
        }
        let full4 = udp_ck_v4(src4, dst4, sp, dp, &payload);
        prop_assert_eq!(norm_udp_ck(ck), norm_udp_ck(full4));

        // And the reverse direction (IPv4 -> IPv6, the return path) gets
        // back to the original checksum.
        let mut back = full4;
        for (&o, &n) in new_words.iter().zip(&old_words) {
            back = incremental_update(back, o, n);
        }
        prop_assert_eq!(norm_udp_ck(back), norm_udp_ck(old_ck));
    }
}
