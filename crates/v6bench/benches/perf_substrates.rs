//! PERF-1: throughput of every substrate on the testbed's hot paths —
//! DNS codec, DNS64 synthesis, NAT64 translation, RFC 6724 selection,
//! checksums, DHCP DORA, and a full testbed boot.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6addr::rfc6052::Nat64Prefix;
use v6addr::rfc6724::{mapped, sort_destinations, CandidateSource, DestCandidate, PolicyTable};
use v6dhcp::client::{ClientEvent, DhcpClient};
use v6dhcp::server::{DhcpServer, ServerConfig};
use v6dns::codec::{Message, Question, RData, RType, Record};
use v6dns::dns64::Dns64;
use v6dns::name::DnsName;
use v6dns::server::{GlobalDns, Resolver};
use v6dns::view::MessageView;
use v6dns::zone::Zone;
use v6host::profiles::OsProfile;
use v6testbed::Testbed;
use v6wire::checksum::checksum;
use v6wire::ipv4::{proto, Ipv4Packet};
use v6wire::ipv6::Ipv6Packet;
use v6wire::mac::MacAddr;
use v6wire::udp::UdpDatagram;
use v6xlat::nat64::Nat64;
use v6xlat::siit::{self, PortRewrite};

fn dns_fixture() -> (Message, Vec<u8>) {
    let q = Message::query(
        0x5c24,
        Question::new("sc24.supercomputing.org".parse().unwrap(), RType::Aaaa),
    );
    let mut resp = Message::response_to(&q, v6dns::codec::Rcode::NoError);
    for i in 0..4u8 {
        resp.answers.push(Record::new(
            "sc24.supercomputing.org".parse().unwrap(),
            120,
            RData::Aaaa(Ipv6Addr::new(0x64, 0xff9b, 0, 0, 0, 0, 0, u16::from(i))),
        ));
    }
    let bytes = resp.encode();
    (resp, bytes)
}

fn bench_dns_codec(c: &mut Criterion) {
    let (msg, bytes) = dns_fixture();
    let mut g = c.benchmark_group("dns_codec");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode", |b| b.iter(|| black_box(msg.encode())));
    g.bench_function("parse_view", |b| {
        b.iter(|| black_box(MessageView::parse(&bytes).unwrap()))
    });
    g.finish();
}

fn big_dns() -> GlobalDns {
    let mut g = GlobalDns::new();
    let mut z = Zone::new("bench.test".parse::<DnsName>().unwrap(), 60);
    for i in 0..1000u32 {
        z.add_str(
            &format!("h{i}"),
            60,
            RData::A(Ipv4Addr::from(0xc000_0200 + i)),
        );
    }
    g.add_zone(z);
    g
}

fn bench_dns64(c: &mut Criterion) {
    let mut g = c.benchmark_group("dns64");
    g.bench_function("synthesize_aaaa", |b| {
        let mut d = Dns64::well_known(big_dns());
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 1000;
            let q = Question::new(format!("h{i}.bench.test").parse().unwrap(), RType::Aaaa);
            black_box(d.resolve(&q, 0))
        })
    });
    g.bench_function("native_a_passthrough", |b| {
        let mut d = Dns64::well_known(big_dns());
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 1000;
            let q = Question::new(format!("h{i}.bench.test").parse().unwrap(), RType::A);
            black_box(d.resolve(&q, 0))
        })
    });
    g.finish();
}

fn bench_nat64(c: &mut Criterion) {
    let prefix = Nat64Prefix::well_known();
    let client: Ipv6Addr = "2607:fb90:9bda:a425::50".parse().unwrap();
    let mut g = c.benchmark_group("nat64");
    g.bench_function("v6_to_v4_established_flow", |b| {
        let mut nat = Nat64::well_known_on(vec!["203.0.113.64".parse().unwrap()]);
        let dst = prefix.embed_unchecked("190.92.158.4".parse().unwrap());
        let d = UdpDatagram::new(40000, 53, vec![0u8; 64]);
        let pkt = Ipv6Packet::new(client, dst, proto::UDP, d.encode_v6(client, dst));
        b.iter(|| black_box(nat.v6_to_v4(&pkt, 100).unwrap()))
    });
    g.bench_function("v6_to_v4_new_flows", |b| {
        let mut nat = Nat64::well_known_on(vec!["203.0.113.64".parse().unwrap()]);
        let dst = prefix.embed_unchecked("190.92.158.4".parse().unwrap());
        let mut port = 1024u16;
        b.iter(|| {
            port = port.wrapping_add(1).max(1024);
            let d = UdpDatagram::new(port, 53, vec![0u8; 64]);
            let pkt = Ipv6Packet::new(client, dst, proto::UDP, d.encode_v6(client, dst));
            black_box(nat.v6_to_v4(&pkt, 100).unwrap())
        })
    });
    g.bench_function("siit_stateless_v4_to_v6", |b| {
        let src: Ipv4Addr = "192.0.0.1".parse().unwrap();
        let dst: Ipv4Addr = "190.92.158.4".parse().unwrap();
        let d = UdpDatagram::new(5198, 5198, vec![0u8; 64]);
        let pkt = Ipv4Packet::new(src, dst, proto::UDP, d.encode_v4(src, dst));
        let s6: Ipv6Addr = "2607:fb90::c1a7".parse().unwrap();
        let d6 = prefix.embed_unchecked(dst);
        b.iter(|| black_box(siit::v4_to_v6(&pkt, s6, d6, PortRewrite::default()).unwrap()))
    });
    g.finish();
}

fn bench_rfc6724(c: &mut Criterion) {
    let table = PolicyTable::default();
    let sources = [
        CandidateSource::plain("2607:fb90:9bda:a425::50".parse().unwrap(), 1, 64),
        CandidateSource::plain("fd00:976a::50".parse().unwrap(), 1, 64),
        CandidateSource::plain(mapped("192.168.12.50".parse().unwrap()), 1, 128),
    ];
    let mut rng = StdRng::seed_from_u64(0x5c24);
    let dests: Vec<DestCandidate> = (0..16)
        .map(|i| {
            if i % 2 == 0 {
                DestCandidate::plain(Ipv6Addr::from(rng.gen::<u128>() | (0x2600u128 << 112)))
            } else {
                DestCandidate::v4(Ipv4Addr::from(rng.gen::<u32>() | 0x0100_0000))
            }
        })
        .collect();
    let mut g = c.benchmark_group("rfc6724");
    g.bench_function("sort_16_destinations", |b| {
        b.iter(|| black_box(sort_destinations(&dests, &sources, 1, &table)))
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let data = vec![0xa5u8; 1500];
    g.throughput(Throughput::Bytes(1500));
    g.bench_function("checksum_1500B", |b| b.iter(|| black_box(checksum(&data))));
    let d = UdpDatagram::new(40000, 53, vec![0u8; 512]);
    let s6: Ipv6Addr = "fd00:976a::50".parse().unwrap();
    let d6: Ipv6Addr = "fd00:976a::9".parse().unwrap();
    g.bench_function("udp_v6_encode_512B", |b| {
        b.iter(|| black_box(d.encode_v6(s6, d6)))
    });
    let frame = v6wire::packet::build_udp_v6(
        MacAddr::new([2, 0, 0, 0, 0, 1]),
        MacAddr::new([2, 0, 0, 0, 0, 2]),
        s6,
        d6,
        &d,
    );
    g.bench_function("full_frame_parse", |b| {
        b.iter(|| black_box(v6wire::view::FrameView::parse(&frame).unwrap()))
    });
    g.finish();
}

fn bench_dhcp(c: &mut Criterion) {
    let mut g = c.benchmark_group("dhcp");
    g.bench_function("dora_with_108", |b| {
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let mut server =
                DhcpServer::new(ServerConfig::testbed("192.168.12.250".parse().unwrap()));
            let mut client =
                DhcpClient::new(MacAddr::new([2, 0, 0, 0, (n >> 8) as u8, n as u8]), true);
            let mut ev = client.start(0);
            for _ in 0..6 {
                match ev {
                    ClientEvent::Send(msg) => match server.handle(&msg, 0) {
                        Some(reply) => ev = client.receive(&reply, 0),
                        None => break,
                    },
                    other => {
                        black_box(other);
                        break;
                    }
                }
            }
        })
    });
    g.finish();
}

fn bench_testbed(c: &mut Criterion) {
    let mut g = c.benchmark_group("testbed");
    g.sample_size(10);
    g.bench_function("boot_8_clients", |b| {
        b.iter(|| {
            let mut tb = Testbed::paper_default();
            for p in [
                OsProfile::macos(),
                OsProfile::ios(),
                OsProfile::android(),
                OsProfile::windows_10(),
                OsProfile::windows_11(),
                OsProfile::linux(),
                OsProfile::nintendo_switch(),
                OsProfile::windows_xp(),
            ] {
                tb.add_host(p);
            }
            tb.boot();
            black_box(tb.net.frames_delivered)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dns_codec,
    bench_dns64,
    bench_nat64,
    bench_rfc6724,
    bench_wire,
    bench_dhcp,
    bench_testbed
);
criterion_main!(benches);
