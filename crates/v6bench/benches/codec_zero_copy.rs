//! Zero-copy codec microbenchmarks: the frame and DNS parsers and the
//! scalar/SWAR checksum kernels.
//!
//! Inputs are the committed conformance corpus, so the numbers describe the
//! exact frames the conformance suites pin.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use v6dns::MessageView;
use v6wire::checksum::{checksum_with, Kernel};
use v6wire::packet::summarize;
use v6wire::view::FrameView;

const FRAMES: &[&[u8]] = &[
    include_bytes!("../../../tests/corpus/frame_dhcp_discover_opt108.bin"),
    include_bytes!("../../../tests/corpus/frame_dhcp_offer_opt108.bin"),
    include_bytes!("../../../tests/corpus/frame_ra_full.bin"),
    include_bytes!("../../../tests/corpus/frame_dns64_aaaa.bin"),
    include_bytes!("../../../tests/corpus/frame_poisoned_a.bin"),
    include_bytes!("../../../tests/corpus/frame_arp_request.bin"),
    include_bytes!("../../../tests/corpus/frame_tcp_syn_v6.bin"),
    include_bytes!("../../../tests/corpus/frame_icmpv6_echo.bin"),
    include_bytes!("../../../tests/corpus/frame_icmpv4_unreach.bin"),
    include_bytes!("../../../tests/corpus/frame_ndp_ns.bin"),
];

const MESSAGES: &[&[u8]] = &[
    include_bytes!("../../../tests/corpus/dns_query_a.bin"),
    include_bytes!("../../../tests/corpus/dns_dns64_response.bin"),
    include_bytes!("../../../tests/corpus/dns_poisoned_a.bin"),
    include_bytes!("../../../tests/corpus/dns_all_rtypes.bin"),
];

fn bench_wire_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec_zero_copy/wire");
    g.throughput(Throughput::Elements(FRAMES.len() as u64));
    g.bench_function("parse_view", |b| {
        b.iter(|| {
            for f in FRAMES {
                std::hint::black_box(FrameView::parse(f).unwrap());
            }
        })
    });
    g.bench_function("summarize", |b| {
        b.iter(|| {
            for f in FRAMES {
                std::hint::black_box(summarize(f));
            }
        })
    });
    g.finish();
}

fn bench_dns_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec_zero_copy/dns");
    g.throughput(Throughput::Elements(MESSAGES.len() as u64));
    g.bench_function("parse_view", |b| {
        b.iter(|| {
            for m in MESSAGES {
                std::hint::black_box(MessageView::parse(m).unwrap());
            }
        })
    });
    // The AAAA fast path a resolver actually wants: scan answers without
    // materialising a Message at all.
    g.bench_function("aaaa_answers_view", |b| {
        b.iter(|| {
            for m in MESSAGES {
                let v = MessageView::parse(m).unwrap();
                std::hint::black_box(v.aaaa_answers().count());
            }
        })
    });
    g.finish();
}

fn bench_checksum_kernels(c: &mut Criterion) {
    let buf: Vec<u8> = (0..1500u32).map(|i| (i * 31) as u8).collect();
    let mut g = c.benchmark_group("codec_zero_copy/checksum_1500b");
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("scalar", |b| {
        b.iter(|| std::hint::black_box(checksum_with(Kernel::Scalar, &buf)))
    });
    g.bench_function("swar", |b| {
        b.iter(|| std::hint::black_box(checksum_with(Kernel::Swar, &buf)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_wire_parse,
    bench_dns_decode,
    bench_checksum_kernels
);
criterion_main!(benches);
