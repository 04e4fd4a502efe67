//! Deterministic generator for the committed codec-conformance corpus in
//! `tests/corpus/`.
//!
//! Every frame and DNS message is built from fixed inputs through the owned
//! encoders, so a rerun is byte-identical to the committed files — the
//! conformance suites (`crates/v6wire/tests/conformance.rs`,
//! `crates/v6dns/tests/conformance.rs`) embed the corpus with
//! `include_bytes!` and would fail on drift. Regenerate with:
//!
//! ```text
//! cargo run --release --example gen_corpus
//! ```

use std::fs;
use std::path::Path;

use v6dhcp::codec::{DhcpMessage, DhcpMessageType, DhcpOption};
use v6dns::codec::{Message, Question, RData, RType, Rcode, Record};
use v6dns::DnsName;
use v6wire::icmpv6::all_nodes;
use v6wire::ndp::{NdpOption, RouterAdvertisement, RouterPreference};
use v6wire::packet::{
    build_arp, build_icmpv4, build_icmpv6, build_tcp_v6, build_udp_v4, build_udp_v6,
};
use v6wire::{ArpPacket, Icmpv4Message, Icmpv6Message, MacAddr, TcpFlags, TcpSegment, UdpDatagram};

fn mac(n: u8) -> MacAddr {
    MacAddr::new([0x02, 0x53, 0x43, 0x32, 0x34, n])
}

fn name(s: &str) -> DnsName {
    s.parse().expect("valid corpus name")
}

/// The DHCPDISCOVER advertising RFC 8925 support (option 108 in the
/// parameter request list), as the paper's opt-in clients send it.
fn dhcp_discover() -> Vec<u8> {
    let mut msg = DhcpMessage::client(DhcpMessageType::Discover, 0x3903_f326, mac(0x50));
    msg.options
        .push(DhcpOption::ParameterRequestList(vec![1, 3, 6, 15, 108]));
    msg.options.push(DhcpOption::HostName("sc24-host".into()));
    build_udp_v4(
        mac(0x50),
        MacAddr::BROADCAST,
        "0.0.0.0".parse().unwrap(),
        "255.255.255.255".parse().unwrap(),
        &UdpDatagram::new(68, 67, msg.encode()),
    )
}

/// The DHCPOFFER answering with V6ONLY_WAIT (option 108 = 1800 s), the
/// paper's RFC 8925 signal plus the rfc8925.com suffix from Fig. 7.
fn dhcp_offer() -> Vec<u8> {
    let disc = DhcpMessage::client(DhcpMessageType::Discover, 0x3903_f326, mac(0x50));
    let mut msg = DhcpMessage::reply(DhcpMessageType::Offer, &disc);
    msg.yiaddr = "192.168.12.50".parse().unwrap();
    msg.siaddr = "192.168.12.251".parse().unwrap();
    msg.options
        .push(DhcpOption::ServerId("192.168.12.251".parse().unwrap()));
    msg.options.push(DhcpOption::LeaseTime(86400));
    msg.options
        .push(DhcpOption::SubnetMask("255.255.255.0".parse().unwrap()));
    msg.options
        .push(DhcpOption::DnsServers(vec!["192.168.12.251"
            .parse()
            .unwrap()]));
    msg.options
        .push(DhcpOption::DomainName("rfc8925.com".into()));
    msg.options.push(DhcpOption::V6OnlyPreferred(1800));
    build_udp_v4(
        mac(0xFE),
        MacAddr::BROADCAST,
        "192.168.12.251".parse().unwrap(),
        "255.255.255.255".parse().unwrap(),
        &UdpDatagram::new(67, 68, msg.encode()),
    )
}

/// A full router advertisement: PIO, RDNSS, DNSSL, MTU, source link-layer
/// and PREF64 (RFC 8781), low preference — every NDP option type the
/// testbed's gateway emits.
fn ra_full() -> Vec<u8> {
    let mut ra = RouterAdvertisement::new(1800);
    ra.cur_hop_limit = 64;
    ra.other_config = true;
    ra.preference = RouterPreference::Low;
    ra.options.push(NdpOption::SourceLinkLayer(mac(0xFE)));
    ra.options.push(NdpOption::PrefixInformation {
        prefix_len: 64,
        on_link: true,
        autonomous: true,
        valid_lifetime: 86400,
        preferred_lifetime: 14400,
        prefix: "fd00:976a:14b2:1::".parse().unwrap(),
    });
    ra.options.push(NdpOption::Mtu(1500));
    ra.options.push(NdpOption::Rdnss {
        lifetime: 1800,
        servers: vec!["fd00:976a::9".parse().unwrap()],
    });
    ra.options.push(NdpOption::Dnssl {
        lifetime: 1800,
        domains: vec!["rfc8925.com".into()],
    });
    ra.options.push(NdpOption::Pref64 {
        lifetime: 1800,
        prefix: "64:ff9b::".parse().unwrap(),
        prefix_len: 96,
    });
    build_icmpv6(
        mac(0xFE),
        MacAddr::for_ipv6_multicast(all_nodes()),
        "fe80::53:43ff:fe32:34fe".parse().unwrap(),
        all_nodes(),
        &Icmpv6Message::RouterAdvertisement(ra),
    )
}

/// The DNS message of a DNS64-synthesized AAAA response (64:ff9b::/96
/// mapping of the paper's ip6.me IPv4 literal).
fn dns_dns64_response() -> Vec<u8> {
    let q = Message::query(0x6464, Question::new(name("ip6.me"), RType::Aaaa));
    let mut resp = Message::response_to(&q, Rcode::NoError);
    resp.answers.push(Record::new(
        name("ip6.me"),
        60,
        RData::Aaaa("64:ff9b::1799:847".parse().unwrap()),
    ));
    resp.encode()
}

/// The synthesized-AAAA response as a full IPv6/UDP frame from the DNS64
/// resolver.
fn dns64_aaaa_frame() -> Vec<u8> {
    build_udp_v6(
        mac(0x09),
        mac(0x50),
        "fd00:976a::9".parse().unwrap(),
        "fd00:976a:14b2:1::50".parse().unwrap(),
        &UdpDatagram::new(53, 40153, dns_dns64_response()),
    )
}

/// The paper's poisoned-A intervention: every name resolves to the
/// explanation portal at 23.153.8.71 (dnsmasq `address=/#/23.153.8.71`).
fn dns_poisoned_a() -> Vec<u8> {
    let q = Message::query(0x4141, Question::new(name("vpn.anl.gov"), RType::A));
    let mut resp = Message::response_to(&q, Rcode::NoError);
    resp.answers.push(Record::new(
        name("vpn.anl.gov"),
        0,
        RData::A("23.153.8.71".parse().unwrap()),
    ));
    resp.encode()
}

/// The poisoned-A response as a full IPv4/UDP frame.
fn poisoned_a_frame() -> Vec<u8> {
    build_udp_v4(
        mac(0xFB),
        mac(0x50),
        "192.168.12.251".parse().unwrap(),
        "192.168.12.50".parse().unwrap(),
        &UdpDatagram::new(53, 51234, dns_poisoned_a()),
    )
}

/// A compression-heavy response exercising every RData arm of the codec,
/// including an unknown type carried raw.
fn dns_all_rtypes() -> Vec<u8> {
    let q = Message::query(
        7,
        Question::new(name("sc24.supercomputing.org"), RType::Any),
    );
    let mut resp = Message::response_to(&q, Rcode::NoError);
    resp.authoritative = true;
    resp.answers = vec![
        Record::new(
            name("sc24.supercomputing.org"),
            300,
            RData::A("190.92.158.4".parse().unwrap()),
        ),
        Record::new(
            name("sc24.supercomputing.org"),
            300,
            RData::Aaaa("64:ff9b::be5c:9e04".parse().unwrap()),
        ),
        Record::new(
            name("www.sc24.supercomputing.org"),
            60,
            RData::Cname(name("sc24.supercomputing.org")),
        ),
        Record::new(
            name("sc24.supercomputing.org"),
            600,
            RData::Mx {
                preference: 10,
                exchange: name("mail.sc24.supercomputing.org"),
            },
        ),
        Record::new(
            name("sc24.supercomputing.org"),
            600,
            RData::Txt(vec!["v=spf1 -all".into(), "sc24".into()]),
        ),
        Record::new(
            name("sc24.supercomputing.org"),
            5,
            RData::Raw(99, vec![1, 2, 3, 4, 5]),
        ),
    ];
    resp.authorities = vec![
        Record::new(
            name("supercomputing.org"),
            3600,
            RData::Ns(name("ns1.supercomputing.org")),
        ),
        Record::new(
            name("supercomputing.org"),
            300,
            RData::Soa {
                mname: name("ns1.supercomputing.org"),
                rname: name("hostmaster.supercomputing.org"),
                serial: 2024_0801,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            },
        ),
    ];
    resp.additionals = vec![Record::new(
        name("ns1.supercomputing.org"),
        3600,
        RData::A("198.51.100.53".parse().unwrap()),
    )];
    resp.encode()
}

/// A hand-built message whose question name is a compression pointer to
/// itself — must be rejected (`BadPointer`), never looped on.
fn dns_pointer_loop() -> Vec<u8> {
    let mut bytes = Message::query(1, Question::new(name("x"), RType::A)).encode();
    bytes[12] = 0xc0;
    bytes[13] = 12;
    bytes
}

fn main() {
    let dir = Path::new("tests/corpus");
    fs::create_dir_all(dir).expect("create tests/corpus");

    let arp = build_arp(
        mac(0x50),
        MacAddr::BROADCAST,
        &ArpPacket::request(
            mac(0x50),
            "192.168.12.50".parse().unwrap(),
            "192.168.12.251".parse().unwrap(),
        ),
    );

    let mut syn = TcpSegment::new(40000, 80, 0x1000_0001, 0, TcpFlags::SYN);
    syn.mss = Some(1440);
    let tcp_syn_v6 = build_tcp_v6(
        mac(0x50),
        mac(0xFE),
        "fd00:976a:14b2:1::50".parse().unwrap(),
        "2001:4810::110".parse().unwrap(),
        &syn,
    );

    let icmpv6_echo = build_icmpv6(
        mac(0x50),
        mac(0xFE),
        "fd00:976a:14b2:1::50".parse().unwrap(),
        "2620:0:861:ed1a::1".parse().unwrap(),
        &Icmpv6Message::EchoRequest {
            ident: 0x5c24,
            seq: 1,
            payload: b"sc24-ping".to_vec(),
        },
    );

    // The unreachable a v4-only host sees once the network is v6-only:
    // invoking bytes are the start of the original datagram's IP header.
    let invoking = {
        let orig = build_udp_v4(
            mac(0x50),
            mac(0xFE),
            "192.168.12.50".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            &UdpDatagram::new(33000, 53, vec![0; 8]),
        );
        orig[14..14 + 28].to_vec()
    };
    let icmpv4_unreach = build_icmpv4(
        mac(0xFE),
        mac(0x50),
        "192.168.12.251".parse().unwrap(),
        "192.168.12.50".parse().unwrap(),
        &Icmpv4Message::DestinationUnreachable { code: 1, invoking },
    );

    let ns_target: std::net::Ipv6Addr = "fd00:976a:14b2:1::50".parse().unwrap();
    let ndp_ns = build_icmpv6(
        mac(0xFE),
        MacAddr::for_ipv6_multicast(v6wire::icmpv6::solicited_node(ns_target)),
        "fe80::53:43ff:fe32:34fe".parse().unwrap(),
        v6wire::icmpv6::solicited_node(ns_target),
        &Icmpv6Message::NeighborSolicitation(v6wire::ndp::NeighborSolicitation {
            target: ns_target,
            options: vec![NdpOption::SourceLinkLayer(mac(0xFE))],
        }),
    );

    // Adversarial wire entries: a frame cut mid-IPv4-header and a frame
    // whose UDP checksum no longer matches the payload.
    let truncated = dhcp_discover()[..31].to_vec();
    let mut bad_checksum = dns64_aaaa_frame();
    let n = bad_checksum.len();
    bad_checksum[n - 1] ^= 0xff;

    let frames: &[(&str, Vec<u8>)] = &[
        ("frame_dhcp_discover_opt108.bin", dhcp_discover()),
        ("frame_dhcp_offer_opt108.bin", dhcp_offer()),
        ("frame_ra_full.bin", ra_full()),
        ("frame_dns64_aaaa.bin", dns64_aaaa_frame()),
        ("frame_poisoned_a.bin", poisoned_a_frame()),
        ("frame_arp_request.bin", arp),
        ("frame_tcp_syn_v6.bin", tcp_syn_v6),
        ("frame_icmpv6_echo.bin", icmpv6_echo),
        ("frame_icmpv4_unreach.bin", icmpv4_unreach),
        ("frame_ndp_ns.bin", ndp_ns),
        ("frame_bad_truncated.bin", truncated),
        ("frame_bad_checksum.bin", bad_checksum),
    ];

    // DNS corpus: the first four must parse, the last two must be rejected
    // (truncated stream / pointer loop).
    let dns: &[(&str, Vec<u8>)] = &[
        (
            "dns_query_a.bin",
            Message::query(0x1234, Question::new(name("ip6.me"), RType::A)).encode(),
        ),
        ("dns_dns64_response.bin", dns_dns64_response()),
        ("dns_poisoned_a.bin", dns_poisoned_a()),
        ("dns_all_rtypes.bin", dns_all_rtypes()),
        ("dns_bad_truncated.bin", {
            let full = dns_all_rtypes();
            full[..full.len() * 2 / 3].to_vec()
        }),
        ("dns_bad_pointer_loop.bin", dns_pointer_loop()),
    ];

    for (file, bytes) in frames.iter().chain(dns.iter()) {
        fs::write(dir.join(file), bytes).expect("write corpus file");
        println!("{file}: {} bytes", bytes.len());
    }
}
