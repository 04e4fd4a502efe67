//! Property-based tests for the translators: SIIT double-translation
//! identity, NAT64 flow-tuple restoration, CLAT round-trips.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6addr::rfc6052::Nat64Prefix;
use v6wire::ipv4::{proto, Ipv4Packet};
use v6wire::ipv6::Ipv6Packet;
use v6wire::tcp::{TcpFlags, TcpSegment};
use v6wire::udp::UdpDatagram;
use v6wire::view::{TcpView, UdpView};
use v6xlat::clat::Clat;
use v6xlat::nat64::Nat64;
use v6xlat::siit::{self, PortRewrite};

fn arb_v4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_v6() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

proptest! {
    /// SIIT v4→v6→v4 restores the original transport payload and ports
    /// (TTL is spent at each hop, DSCP preserved).
    #[test]
    fn siit_double_translation_identity_udp(
        s4 in arb_v4(), d4 in arb_v4(), s6 in arb_v6(), d6 in arb_v6(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        dscp in any::<u8>(),
    ) {
        let d = UdpDatagram::new(sp, dp, payload);
        let mut pkt = Ipv4Packet::new(s4, d4, proto::UDP, d.encode_v4(s4, d4));
        pkt.dscp_ecn = dscp;
        let v6 = siit::v4_to_v6(&pkt, s6, d6, PortRewrite::default()).unwrap();
        prop_assert_eq!(v6.traffic_class, dscp);
        let back = siit::v6_to_v4(&v6, s4, d4, PortRewrite::default()).unwrap();
        let got = UdpView::parse_v4(&back.payload, back.src, back.dst).unwrap();
        prop_assert_eq!(got.to_datagram(), d);
        prop_assert_eq!(back.ttl, 62);
        prop_assert_eq!(back.dscp_ecn, dscp);
    }

    /// Same identity for TCP, with flags and MSS surviving.
    #[test]
    fn siit_double_translation_identity_tcp(
        s4 in arb_v4(), d4 in arb_v4(), s6 in arb_v6(), d6 in arb_v6(),
        sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(),
        mss in proptest::option::of(any::<u16>()),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut seg = TcpSegment::new(sp, dp, seq, 0, TcpFlags::PSH_ACK);
        seg.mss = mss;
        seg.payload = payload;
        let pkt = Ipv4Packet::new(s4, d4, proto::TCP, seg.encode_v4(s4, d4));
        let v6 = siit::v4_to_v6(&pkt, s6, d6, PortRewrite::default()).unwrap();
        let back = siit::v6_to_v4(&v6, s4, d4, PortRewrite::default()).unwrap();
        let got = TcpView::parse_v4(&back.payload, back.src, back.dst).unwrap();
        prop_assert_eq!(got.to_segment(), seg);
    }

    /// Any outbound NAT64 flow's reply is delivered back to the exact
    /// internal (address, port) that originated it.
    #[test]
    fn nat64_restores_flow_tuple(
        iid in any::<u64>(),
        sp in 1024u16..,
        dst4 in arb_v4(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let client = Ipv6Addr::from((0x2607_fb90u128) << 96 | u128::from(iid));
        let mut nat = Nat64::well_known_on(vec![Ipv4Addr::new(203, 0, 113, 64)]);
        let dst = Nat64Prefix::well_known().embed_unchecked(dst4);
        let d = UdpDatagram::new(sp, 53, payload.clone());
        let pkt = Ipv6Packet::new(client, dst, proto::UDP, d.encode_v6(client, dst));
        let out = nat.v6_to_v4(&pkt, 10).unwrap();
        prop_assert_eq!(out.dst, dst4);
        let od = UdpView::parse_v4(&out.payload, out.src, out.dst).unwrap();
        prop_assert_eq!(&od.payload, &payload);
        // Reply retraces.
        let reply = UdpDatagram::new(53, od.src_port, payload.clone());
        let rpkt = Ipv4Packet::new(dst4, out.src, proto::UDP, reply.encode_v4(dst4, out.src));
        let back = nat.v4_to_v6(&rpkt, 11).unwrap();
        prop_assert_eq!(back.dst, client);
        let bd = UdpView::parse_v6(&back.payload, back.src, back.dst).unwrap();
        prop_assert_eq!(bd.dst_port, sp);
    }

    /// Distinct internal flows never share an external (addr, port) tuple.
    #[test]
    fn nat64_external_tuples_unique(ports in proptest::collection::hash_set(1024u16.., 2..10)) {
        let client: Ipv6Addr = "2607:fb90::50".parse().unwrap();
        let dst4 = Ipv4Addr::new(190, 92, 158, 4);
        let mut nat = Nat64::well_known_on(vec![Ipv4Addr::new(203, 0, 113, 64)]);
        let dst = Nat64Prefix::well_known().embed_unchecked(dst4);
        let mut seen = std::collections::HashSet::new();
        for sp in ports {
            let d = UdpDatagram::new(sp, 53, vec![]);
            let pkt = Ipv6Packet::new(client, dst, proto::UDP, d.encode_v6(client, dst));
            let out = nat.v6_to_v4(&pkt, 0).unwrap();
            let od = UdpView::parse_v4(&out.payload, out.src, out.dst).unwrap();
            prop_assert!(seen.insert((out.src, od.src_port)), "tuple reuse");
        }
    }

    /// CLAT out-and-back is the identity on the application's view.
    #[test]
    fn clat_roundtrip_identity(
        dst4 in arb_v4(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let clat = Clat::new("2607:fb90::c1a7".parse().unwrap(), Nat64Prefix::well_known());
        let d = UdpDatagram::new(sp, dp, payload);
        let pkt = Ipv4Packet::new(clat.host_v4, dst4, proto::UDP, d.encode_v4(clat.host_v4, dst4));
        let v6 = clat.v4_out(&pkt).unwrap();
        // The far end replies by swapping the tuple.
        let rd = UdpView::parse_v6(&v6.payload, v6.src, v6.dst).unwrap();
        let reply = UdpDatagram::new(rd.dst_port, rd.src_port, rd.payload.to_vec());
        let rpkt = Ipv6Packet::new(v6.dst, v6.src, proto::UDP, reply.encode_v6(v6.dst, v6.src));
        let back = clat.v6_in(&rpkt).unwrap();
        prop_assert_eq!(back.src, dst4);
        prop_assert_eq!(back.dst, clat.host_v4);
        let bd = UdpView::parse_v4(&back.payload, back.src, back.dst).unwrap();
        prop_assert_eq!(bd.dst_port, sp);
        prop_assert_eq!(bd.payload, rd.payload);
    }

    /// Translators never panic on arbitrary bytes in the payload position.
    #[test]
    fn translators_reject_garbage_gracefully(
        s6 in arb_v6(), d6 in arb_v6(), nh in any::<u8>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let pkt = Ipv6Packet::new(s6, d6, nh, garbage);
        let _ = siit::v6_to_v4(
            &pkt,
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(192, 0, 2, 2),
            PortRewrite::default(),
        );
        let mut nat = Nat64::well_known_on(vec![Ipv4Addr::new(203, 0, 113, 64)]);
        let _ = nat.v6_to_v4(&pkt, 0);
    }
}
