//! Codec-conformance suite for the one frame parser, [`FrameView::parse`],
//! over the committed corpus in `tests/corpus/` plus proptest-generated
//! frames.
//!
//! The references are pinned data and the owned builders, never a second
//! parser:
//!
//! 1. **Pinned outcomes** — for every corpus frame, the outcome of every
//!    truncation point, of every truncation of its IP payload fed to the
//!    transport parser, and of every single-byte corruption is pinned: `Ok`
//!    with the materialised value's Debug, or the exact [`WireError`] value
//!    (`need`/`have` of truncations, `found`/`expected` of checksum
//!    failures). Each sweep is pinned as an FNV-1a digest of its outcome
//!    list; a mismatch prints the current list.
//! 2. **Encode → parse → re-emit** — corpus frames and generated frames,
//!    built through the owned builders, parse and rebuild to the same bytes.
//! 3. **Pinned trace text** — `summarize`/`classify` of each corpus frame.
//! 4. **No panics, equal checksum kernels** — arbitrary bytes never panic
//!    the parser, the scalar and wide checksum kernels agree everywhere
//!    (carry-heavy spans at every alignment included), and the word-summed
//!    pseudo-headers equal a byte-slice sum.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6wire::checksum::{checksum_with, pseudo_v4, pseudo_v6, Kernel};
use v6wire::icmpv6::all_nodes;
use v6wire::ipv4::proto;
use v6wire::mac::MacAddr;
use v6wire::ndp::{NdpOption, RouterAdvertisement, RouterPreference};
use v6wire::packet::{
    build_arp, build_icmpv4, build_icmpv6, build_tcp_v4, build_tcp_v6, build_udp_v4, build_udp_v6,
    classify, summarize,
};
use v6wire::view::{
    EthView, FrameView, Icmp4View, Icmp6View, Ipv4View, Ipv6View, L3View, TcpView, UdpView,
};
use v6wire::{
    ArpPacket, EtherType, Icmpv4Message, Icmpv6Message, ParsedFrame, TcpFlags, TcpSegment,
    UdpDatagram, WireError, L3, L4,
};

/// One committed corpus frame with its pinned sweep digests and trace text.
struct Pin {
    name: &'static str,
    raw: &'static [u8],
    /// Digest of the outcomes of `raw[..cut]` for every `cut` in `0..=len`.
    truncation: u64,
    /// Digest of the transport parser's outcomes on every truncation of
    /// the IP payload (reached only here: the IP length checks reject a
    /// truncated frame before its transport header is read).
    transport_truncation: u64,
    /// Digest of the outcomes of `raw` with byte `i` XOR 0xff, every `i`.
    corruption: u64,
    summary: &'static str,
    classify: &'static str,
}

/// The committed corpus. The first ten frames parse; the last two are the
/// adversarial entries, which must fail.
const CORPUS: &[Pin] = &[
    Pin {
        name: "dhcp_discover_opt108",
        raw: include_bytes!("../../../tests/corpus/frame_dhcp_discover_opt108.bin"),
        truncation: 0x048d_4193_4da2_fe45,
        transport_truncation: 0xa7f2_33a5_4f7a_dacd,
        corruption: 0x1d2d_8c98_2ae5_bd2a,
        summary: "IPv4 0.0.0.0:68 > 255.255.255.255:67 UDP (DHCP)",
        classify: "ok",
    },
    Pin {
        name: "dhcp_offer_opt108",
        raw: include_bytes!("../../../tests/corpus/frame_dhcp_offer_opt108.bin"),
        truncation: 0x0585_9816_ffc4_e55e,
        transport_truncation: 0xd830_7cb5_6262_328f,
        corruption: 0x3209_cd3d_9029_3c31,
        summary: "IPv4 192.168.12.251:67 > 255.255.255.255:68 UDP (DHCP)",
        classify: "ok",
    },
    Pin {
        name: "ra_full",
        raw: include_bytes!("../../../tests/corpus/frame_ra_full.bin"),
        truncation: 0xdbf1_7da4_87df_fe10,
        transport_truncation: 0x0698_be54_9c9c_b6c1,
        corruption: 0xa744_e53a_bbb3_72de,
        summary: "IPv6 [fe80::53:43ff:fe32:34fe] > [ff02::1] NDP router advertisement",
        classify: "ok",
    },
    Pin {
        name: "dns64_aaaa",
        raw: include_bytes!("../../../tests/corpus/frame_dns64_aaaa.bin"),
        truncation: 0x3749_0a0a_964f_3e3b,
        transport_truncation: 0xfc95_6cfa_424b_c577,
        corruption: 0x888f_38d3_175e_bd54,
        summary: "IPv6 [fd00:976a::9]:53 > [fd00:976a:14b2:1::50]:40153 UDP (DNS)",
        classify: "ok",
    },
    Pin {
        name: "poisoned_a",
        raw: include_bytes!("../../../tests/corpus/frame_poisoned_a.bin"),
        truncation: 0x4e67_9537_e9bd_006a,
        transport_truncation: 0x20c3_abcc_26e2_d81e,
        corruption: 0xc670_6851_9803_93d3,
        summary: "IPv4 192.168.12.251:53 > 192.168.12.50:51234 UDP (DNS)",
        classify: "ok",
    },
    Pin {
        name: "arp_request",
        raw: include_bytes!("../../../tests/corpus/frame_arp_request.bin"),
        truncation: 0x8dc6_ff3d_dd22_bd84,
        transport_truncation: 0xcbf2_9ce4_8422_2325,
        corruption: 0x3044_cd2f_d9a3_6a01,
        summary: "ARP who-has 192.168.12.251",
        classify: "ok",
    },
    Pin {
        name: "tcp_syn_v6",
        raw: include_bytes!("../../../tests/corpus/frame_tcp_syn_v6.bin"),
        truncation: 0x20cd_5a6c_0db0_5198,
        transport_truncation: 0x680e_9c9d_c9aa_8c46,
        corruption: 0x3368_edef_2288_24c9,
        summary: "IPv6 [fd00:976a:14b2:1::50]:40000 > [2001:4810::110]:80 TCP [S] len=0",
        classify: "ok",
    },
    Pin {
        name: "icmpv6_echo",
        raw: include_bytes!("../../../tests/corpus/frame_icmpv6_echo.bin"),
        truncation: 0x9c66_9cd7_10ef_0f21,
        transport_truncation: 0xf872_d2c1_83f0_be48,
        corruption: 0x2517_759d_7ba0_3e1b,
        summary: "IPv6 [fd00:976a:14b2:1::50] > [2620:0:861:ed1a::1] ICMPv6 echo request",
        classify: "ok",
    },
    Pin {
        name: "icmpv4_unreach",
        raw: include_bytes!("../../../tests/corpus/frame_icmpv4_unreach.bin"),
        truncation: 0x779c_9492_a9ff_b67c,
        transport_truncation: 0x3a1f_132f_c000_79f7,
        corruption: 0xa673_b98a_e5ac_eb9e,
        summary: "IPv4 192.168.12.251 > 192.168.12.50 ICMP unreachable",
        classify: "ok",
    },
    Pin {
        name: "ndp_ns",
        raw: include_bytes!("../../../tests/corpus/frame_ndp_ns.bin"),
        truncation: 0x92a7_c760_c158_f4ae,
        transport_truncation: 0x692a_7d4f_f9d8_c704,
        corruption: 0xb515_e5b4_2860_cf6f,
        summary: "IPv6 [fe80::53:43ff:fe32:34fe] > [ff02::1:ff00:50] NDP neighbor solicitation",
        classify: "ok",
    },
    Pin {
        name: "bad_truncated",
        raw: include_bytes!("../../../tests/corpus/frame_bad_truncated.bin"),
        truncation: 0x5ba7_6c12_c753_b20b,
        transport_truncation: 0xcbf2_9ce4_8422_2325,
        corruption: 0x3986_99e1_021a_f328,
        summary: "corrupt: ipv4",
        classify: "ipv4",
    },
    Pin {
        name: "bad_checksum",
        raw: include_bytes!("../../../tests/corpus/frame_bad_checksum.bin"),
        truncation: 0x17ee_bd66_6e1d_409e,
        transport_truncation: 0x4256_fc4a_3c9b_a2a5,
        corruption: 0x7388_e8fd_2de5_9edd,
        summary: "corrupt: udp-v6",
        classify: "udp-v6",
    },
];

const GOOD: usize = 10;

/// The parse outcome of `raw`, rendered exactly.
fn outcome(raw: &[u8]) -> String {
    match FrameView::parse(raw) {
        Ok(v) => format!("Ok({:?})", v.to_parsed()),
        Err(e) => format!("Err({e:?})"),
    }
}

fn truncation_outcomes(raw: &[u8]) -> Vec<String> {
    (0..=raw.len()).map(|cut| outcome(&raw[..cut])).collect()
}

fn render<T: std::fmt::Debug>(r: Result<T, WireError>) -> String {
    match r {
        Ok(v) => format!("Ok({v:?})"),
        Err(e) => format!("Err({e:?})"),
    }
}

/// The transport parse outcome of `payload` under the IP header `l3`.
fn transport_outcome(l3: &L3View<'_>, payload: &[u8]) -> String {
    match *l3 {
        L3View::V4(ip) => match ip.protocol {
            proto::UDP => {
                render(UdpView::parse_v4(payload, ip.src, ip.dst).map(|v| v.to_datagram()))
            }
            proto::TCP => {
                render(TcpView::parse_v4(payload, ip.src, ip.dst).map(|v| v.to_segment()))
            }
            proto::ICMP => render(Icmp4View::parse(payload).map(|v| v.to_message())),
            other => format!("proto {other}"),
        },
        L3View::V6(ip) => match ip.next_header {
            proto::UDP => {
                render(UdpView::parse_v6(payload, ip.src, ip.dst).map(|v| v.to_datagram()))
            }
            proto::TCP => {
                render(TcpView::parse_v6(payload, ip.src, ip.dst).map(|v| v.to_segment()))
            }
            proto::ICMPV6 => {
                render(Icmp6View::parse(payload, ip.src, ip.dst).map(|v| v.to_message()))
            }
            other => format!("nh {other}"),
        },
        _ => unreachable!("only IP headers carry a transport"),
    }
}

/// Every truncation of the frame's IP payload through the transport
/// parser; empty for frames whose IP header does not parse, or that carry
/// no IP.
fn transport_truncation_outcomes(raw: &[u8]) -> Vec<String> {
    let Ok(eth) = EthView::parse(raw) else {
        return Vec::new();
    };
    let (l3, payload) = match eth.ethertype {
        EtherType::Ipv4 => match Ipv4View::parse(eth.payload) {
            Ok(ip) => (L3View::V4(ip), ip.payload),
            Err(_) => return Vec::new(),
        },
        EtherType::Ipv6 => match Ipv6View::parse(eth.payload) {
            Ok(ip) => (L3View::V6(ip), ip.payload),
            Err(_) => return Vec::new(),
        },
        _ => return Vec::new(),
    };
    (0..=payload.len())
        .map(|cut| transport_outcome(&l3, &payload[..cut]))
        .collect()
}

fn corruption_outcomes(raw: &[u8]) -> Vec<String> {
    let mut work = raw.to_vec();
    (0..work.len())
        .map(|i| {
            work[i] ^= 0xff;
            let o = outcome(&work);
            work[i] ^= 0xff;
            o
        })
        .collect()
}

/// 64-bit FNV-1a over the outcome list, one newline-terminated line each.
fn digest(outcomes: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in outcomes {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check_sweep(sweep: &str, outcomes: fn(&[u8]) -> Vec<String>, pinned: fn(&Pin) -> u64) {
    let mut drift = Vec::new();
    for pin in CORPUS {
        let list = outcomes(pin.raw);
        let got = digest(&list);
        if got != pinned(pin) {
            eprintln!("--- {} {sweep} outcomes ---", pin.name);
            for (i, o) in list.iter().enumerate() {
                eprintln!("{i}: {o}");
            }
            drift.push(format!(
                "{} {sweep}: digest {got:#018x}, pinned {:#018x}",
                pin.name,
                pinned(pin)
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "pinned outcomes drifted:\n{}",
        drift.join("\n")
    );
}

/// Rebuild a parsed frame through the owned builders. Covers every layer
/// combination in the corpus and the generators.
fn reemit(p: &ParsedFrame) -> Vec<u8> {
    let (smac, dmac) = (p.eth.src, p.eth.dst);
    match (&p.l3, &p.l4) {
        (L3::Arp(a), L4::None) => build_arp(smac, dmac, a),
        (L3::V4(ip), L4::Udp(u)) => build_udp_v4(smac, dmac, ip.src, ip.dst, u),
        (L3::V4(ip), L4::Tcp(t)) => build_tcp_v4(smac, dmac, ip.src, ip.dst, t),
        (L3::V4(ip), L4::Icmp4(m)) => build_icmpv4(smac, dmac, ip.src, ip.dst, m),
        (L3::V6(ip), L4::Udp(u)) => build_udp_v6(smac, dmac, ip.src, ip.dst, u),
        (L3::V6(ip), L4::Tcp(t)) => build_tcp_v6(smac, dmac, ip.src, ip.dst, t),
        (L3::V6(ip), L4::Icmp6(m)) => build_icmpv6(smac, dmac, ip.src, ip.dst, m),
        other => panic!("frame shape not re-emittable: {other:?}"),
    }
}

/// The label `classify` must report for a parse error.
fn what(e: &WireError) -> &'static str {
    match *e {
        WireError::Truncated { what, .. }
        | WireError::BadField { what, .. }
        | WireError::BadChecksum { what, .. }
        | WireError::BadLength { what, .. } => what,
    }
}

/// `summarize` and `classify` agree with the parse verdict.
fn trace_text_consistent(raw: &[u8]) {
    match FrameView::parse(raw) {
        Ok(_) => {
            prop_assert_eq!(classify(raw), "ok");
            prop_assert!(!summarize(raw).starts_with("corrupt:"));
        }
        Err(e) => {
            prop_assert_eq!(classify(raw), what(&e));
            prop_assert_eq!(summarize(raw), format!("corrupt: {}", what(&e)));
        }
    }
}

#[test]
fn corpus_good_frames_parse_and_bad_frames_fail() {
    for (i, pin) in CORPUS.iter().enumerate() {
        assert_eq!(
            FrameView::parse(pin.raw).is_ok(),
            i < GOOD,
            "{}: unexpected verdict",
            pin.name
        );
    }
}

#[test]
fn corpus_adversarial_frames_derive_from_their_sources() {
    // Pin the provenance documented in tests/corpus/README.md.
    let discover = CORPUS[0].raw;
    assert_eq!(CORPUS[GOOD].raw, &discover[..31]);
    let mut flipped = CORPUS[3].raw.to_vec();
    let n = flipped.len();
    flipped[n - 1] ^= 0xff;
    assert_eq!(CORPUS[GOOD + 1].raw, &flipped[..]);
}

#[test]
fn corpus_reemission_is_byte_identical() {
    for pin in &CORPUS[..GOOD] {
        let view = FrameView::parse(pin.raw).unwrap();
        assert_eq!(
            &reemit(&view.to_parsed()),
            pin.raw,
            "{}: re-emission drifted",
            pin.name
        );
    }
}

#[test]
fn corpus_truncation_sweep_matches_pins() {
    check_sweep("truncation", truncation_outcomes, |p| p.truncation);
}

#[test]
fn corpus_transport_truncation_sweep_matches_pins() {
    check_sweep("transport truncation", transport_truncation_outcomes, |p| {
        p.transport_truncation
    });
}

#[test]
fn corpus_corruption_sweep_matches_pins() {
    check_sweep("corruption", corruption_outcomes, |p| p.corruption);
}

#[test]
fn corpus_trace_text_matches_pins() {
    for pin in CORPUS {
        assert_eq!(summarize(pin.raw), pin.summary, "{}: summarize", pin.name);
        assert_eq!(classify(pin.raw), pin.classify, "{}: classify", pin.name);
    }
}

#[test]
fn corpus_checksum_kernels_agree() {
    for pin in CORPUS {
        let raw = pin.raw;
        // Whole frame, every prefix, every suffix: exercises all alignments
        // and the word tail of the wide kernel.
        for cut in 0..=raw.len() {
            assert_eq!(
                checksum_with(Kernel::Scalar, &raw[..cut]),
                checksum_with(Kernel::Swar, &raw[..cut]),
                "{}: prefix {cut}",
                pin.name
            );
            assert_eq!(
                checksum_with(Kernel::Scalar, &raw[cut..]),
                checksum_with(Kernel::Swar, &raw[cut..]),
                "{}: suffix {cut}",
                pin.name
            );
        }
    }
}

/// The plain (unfolded) sum of `data` as big-endian 16-bit words, a
/// trailing odd byte padded with zero — the RFC 1071 definition, written
/// independently of `v6wire::checksum`.
fn be_word_sum(data: &[u8]) -> u64 {
    data.chunks(2)
        .map(|w| u64::from(w[0]) << 8 | u64::from(w.get(1).copied().unwrap_or(0)))
        .sum()
}

/// A `len`-byte span whose big-endian word sum is a nonzero multiple of
/// 0xffff: its checksum is 0x0000, the case an end-around-carry kernel
/// must not confuse with the all-zero span's 0xffff. Needs `len >= 2`.
fn span_summing_to_multiple_of_ffff(len: usize) -> Vec<u8> {
    let mut span: Vec<u8> = (0..len)
        .map(|i| (i as u8).wrapping_mul(0x9d) ^ 0xa7)
        .collect();
    span[0] = 0;
    span[1] = 0;
    let fix = 0xffff - be_word_sum(&span) % 0xffff;
    span[..2].copy_from_slice(&(fix as u16).to_be_bytes());
    span
}

#[test]
fn wide_kernel_matches_scalar_at_every_offset_and_length() {
    let mut backing = [0u8; 8 + 8 + 96];
    let base = backing.as_ptr().align_offset(8);
    for len in 0..=96usize {
        let mut inputs = vec![("all-0xff", vec![0xffu8; len]), ("zero", vec![0u8; len])];
        if len >= 2 {
            let span = span_summing_to_multiple_of_ffff(len);
            let sum = be_word_sum(&span);
            assert!(
                sum > 0 && sum.is_multiple_of(0xffff),
                "len {len}: sum {sum:#x}"
            );
            inputs.push(("multiple-of-0xffff", span));
        }
        for (what, input) in &inputs {
            for offset in 0..8 {
                let at = base + offset;
                backing[at..at + len].copy_from_slice(input);
                let span = &backing[at..at + len];
                let scalar = checksum_with(Kernel::Scalar, span);
                assert_eq!(
                    checksum_with(Kernel::Swar, span),
                    scalar,
                    "{what}: len {len}, offset {offset}"
                );
                if *what == "multiple-of-0xffff" {
                    assert_eq!(scalar, 0, "len {len}");
                }
                if *what == "zero" {
                    assert_eq!(scalar, 0xffff, "len {len}");
                }
            }
        }
    }
}

#[test]
fn pseudo_headers_match_a_byte_slice_sum() {
    let v4s: [Ipv4Addr; 4] = [
        Ipv4Addr::UNSPECIFIED,
        Ipv4Addr::BROADCAST,
        "192.168.12.50".parse().unwrap(),
        "23.153.8.71".parse().unwrap(),
    ];
    let v6s: [Ipv6Addr; 4] = [
        Ipv6Addr::UNSPECIFIED,
        Ipv6Addr::from_bits(u128::MAX),
        "fd00:976a::9".parse().unwrap(),
        "64:ff9b::be5c:9e04".parse().unwrap(),
    ];
    let payload = span_summing_to_multiple_of_ffff(31);
    for (i, (&s4, &s6)) in v4s.iter().zip(&v6s).enumerate() {
        for (&d4, &d6) in v4s.iter().zip(&v6s) {
            for (proto, len) in [
                (proto::UDP, 0u16),
                (proto::TCP, 0xffff),
                (proto::ICMPV6, 31),
            ] {
                let mut bytes = Vec::new();
                bytes.extend_from_slice(&s4.octets());
                bytes.extend_from_slice(&d4.octets());
                bytes.extend_from_slice(&[0, proto]);
                bytes.extend_from_slice(&len.to_be_bytes());
                assert_eq!(
                    pseudo_v4(s4, d4, proto, len).finish(),
                    checksum_with(Kernel::Scalar, &bytes),
                    "v4 pair {i}, proto {proto}, len {len}"
                );
                let mut c = pseudo_v4(s4, d4, proto, len);
                c.push(&payload);
                bytes.extend_from_slice(&payload);
                assert_eq!(c.finish(), checksum_with(Kernel::Scalar, &bytes));

                let len = u32::from(len) << 8 | u32::from(len);
                let mut bytes = Vec::new();
                bytes.extend_from_slice(&s6.octets());
                bytes.extend_from_slice(&d6.octets());
                bytes.extend_from_slice(&len.to_be_bytes());
                bytes.extend_from_slice(&[0, 0, 0, proto]);
                assert_eq!(
                    pseudo_v6(s6, d6, proto, len).finish(),
                    checksum_with(Kernel::Scalar, &bytes),
                    "v6 pair {i}, proto {proto}, len {len}"
                );
                let mut c = pseudo_v6(s6, d6, proto, len);
                c.push(&payload);
                bytes.extend_from_slice(&payload);
                assert_eq!(c.finish(), checksum_with(Kernel::Scalar, &bytes));
            }
        }
    }
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_v4() -> impl Strategy<Value = std::net::Ipv4Addr> {
    any::<u32>().prop_map(std::net::Ipv4Addr::from)
}

fn arb_v6() -> impl Strategy<Value = std::net::Ipv6Addr> {
    any::<u128>().prop_map(std::net::Ipv6Addr::from)
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..128)
}

fn arb_ra_options() -> impl Strategy<Value = Vec<NdpOption>> {
    (
        arb_mac(),
        any::<u128>(),
        any::<u32>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(mac, prefix, lifetime, with_pio, with_rdnss, with_dnssl)| {
                let mut opts = vec![NdpOption::SourceLinkLayer(mac)];
                if with_pio {
                    opts.push(NdpOption::PrefixInformation {
                        prefix_len: 64,
                        on_link: true,
                        autonomous: true,
                        valid_lifetime: lifetime,
                        preferred_lifetime: lifetime / 2,
                        prefix: std::net::Ipv6Addr::from(prefix),
                    });
                }
                if with_rdnss {
                    opts.push(NdpOption::Rdnss {
                        lifetime,
                        servers: vec![std::net::Ipv6Addr::from(prefix ^ 1)],
                    });
                }
                if with_dnssl {
                    opts.push(NdpOption::Dnssl {
                        lifetime,
                        domains: vec!["rfc8925.com".into()],
                    });
                }
                opts
            },
        )
}

/// A valid frame of a random shape, built through the owned builders.
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    let udp4 = (
        arb_mac(),
        arb_mac(),
        arb_v4(),
        arb_v4(),
        any::<u16>(),
        any::<u16>(),
        arb_payload(),
    )
        .prop_map(|(sm, dm, s, d, sp, dp, pl)| {
            build_udp_v4(sm, dm, s, d, &UdpDatagram::new(sp, dp, pl))
        });
    let udp6 = (
        arb_mac(),
        arb_mac(),
        arb_v6(),
        arb_v6(),
        any::<u16>(),
        any::<u16>(),
        arb_payload(),
    )
        .prop_map(|(sm, dm, s, d, sp, dp, pl)| {
            build_udp_v6(sm, dm, s, d, &UdpDatagram::new(sp, dp, pl))
        });
    let tcp4 = (
        arb_mac(),
        arb_mac(),
        arb_v4(),
        arb_v4(),
        any::<u16>(),
        any::<u32>(),
        any::<bool>(),
        arb_payload(),
    )
        .prop_map(|(sm, dm, s, d, sp, seq, syn, pl)| {
            let mut seg = TcpSegment::new(
                sp,
                80,
                seq,
                0,
                if syn {
                    TcpFlags::SYN
                } else {
                    TcpFlags::PSH_ACK
                },
            );
            if syn {
                seg.mss = Some(1440);
            }
            seg.payload = pl;
            build_tcp_v4(sm, dm, s, d, &seg)
        });
    let icmp4 = (
        arb_mac(),
        arb_mac(),
        arb_v4(),
        arb_v4(),
        any::<u16>(),
        arb_payload(),
    )
        .prop_map(|(sm, dm, s, d, ident, pl)| {
            build_icmpv4(
                sm,
                dm,
                s,
                d,
                &Icmpv4Message::EchoRequest {
                    ident,
                    seq: 1,
                    payload: pl,
                },
            )
        });
    let icmp6 = (
        arb_mac(),
        arb_mac(),
        arb_v6(),
        arb_v6(),
        any::<u16>(),
        arb_payload(),
    )
        .prop_map(|(sm, dm, s, d, ident, pl)| {
            build_icmpv6(
                sm,
                dm,
                s,
                d,
                &Icmpv6Message::EchoRequest {
                    ident,
                    seq: 1,
                    payload: pl,
                },
            )
        });
    let ra = (
        arb_mac(),
        arb_v6(),
        any::<u16>(),
        any::<bool>(),
        arb_ra_options(),
    )
        .prop_map(|(sm, src, lifetime, low, opts)| {
            let mut ra = RouterAdvertisement::new(lifetime);
            if low {
                ra.preference = RouterPreference::Low;
            }
            ra.options = opts;
            build_icmpv6(
                sm,
                MacAddr::for_ipv6_multicast(all_nodes()),
                src,
                all_nodes(),
                &Icmpv6Message::RouterAdvertisement(ra),
            )
        });
    let arp = (arb_mac(), arb_v4(), arb_v4()).prop_map(|(sm, sip, tip)| {
        build_arp(sm, MacAddr::BROADCAST, &ArpPacket::request(sm, sip, tip))
    });
    prop_oneof![udp4, udp6, tcp4, icmp4, icmp6, ra, arp]
}

proptest! {
    #[test]
    fn generated_frames_parse_and_reemit(raw in arb_frame()) {
        let parsed = FrameView::parse(&raw).expect("generated frame must parse");
        prop_assert_eq!(&reemit(&parsed.to_parsed()), &raw);
        trace_text_consistent(&raw);
    }

    #[test]
    fn generated_frames_truncate_without_panic(raw in arb_frame(), cut in any::<prop::sample::Index>()) {
        let at = cut.index(raw.len());
        trace_text_consistent(&raw[..at]);
    }

    #[test]
    fn generated_frames_corrupt_without_panic(raw in arb_frame(), at in any::<prop::sample::Index>(), flip in 1u8..) {
        let mut work = raw;
        let i = at.index(work.len());
        work[i] ^= flip;
        if let Ok(v) = FrameView::parse(&work) {
            let _ = v.to_parsed();
        }
        trace_text_consistent(&work);
    }

    #[test]
    fn random_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(v) = FrameView::parse(&raw) {
            let _ = v.to_parsed();
        }
        trace_text_consistent(&raw);
    }

    #[test]
    fn checksum_kernels_agree_on_random_slices(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(
            checksum_with(Kernel::Scalar, &data),
            checksum_with(Kernel::Swar, &data)
        );
    }
}
