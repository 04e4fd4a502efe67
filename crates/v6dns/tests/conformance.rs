//! Codec-conformance suite for the one DNS parser, [`MessageView::parse`],
//! over the committed corpus in `tests/corpus/` plus proptest-generated
//! messages.
//!
//! The references are pinned data and the owned encoder, never a second
//! parser:
//!
//! 1. **Pinned outcomes** — for every corpus message, the outcome of every
//!    truncation point and of every single-byte corruption (XOR 0x01, 0x80,
//!    0xc0, 0xff) is pinned: `Ok` with the `to_message()` Debug, or the
//!    exact [`DnsError`] value. Each sweep is pinned as an FNV-1a digest of
//!    its outcome list; a mismatch prints the current list.
//! 2. **Exact errors on RFC 1035 pathologies** — pointer loops, forward
//!    pointers, reserved label flags, hop-count blowups, >255-octet names,
//!    TXT overruns and bad address rdata lengths, each against a control
//!    that must parse.
//! 3. **Encode → parse → re-emit** — `MessageView::parse(bytes).to_message()`
//!    equals the encoded message and re-encodes to `bytes` for every corpus
//!    and generated message (the encoder is canonical: lowercase names,
//!    greedy backward compression).
//! 4. **No panics** — arbitrary, truncated and corrupted bytes never panic
//!    the parser or the section iterators of an accepted message.

use proptest::prelude::*;
use v6dns::codec::DnsError;
use v6dns::{DnsName, Message, MessageView, Question, RData, RType, Rcode, Record};

/// One committed corpus message with its pinned sweep digests.
struct Pin {
    name: &'static str,
    raw: &'static [u8],
    /// Digest of the outcomes of `raw[..cut]` for every `cut` in `0..=len`.
    truncation: u64,
    /// Digest of the outcomes of `raw` with byte `i` XOR each of
    /// [`FLIPS`], every `i`.
    corruption: u64,
}

/// The committed corpus. The first four messages parse; the last two are
/// the adversarial entries, which must fail.
const CORPUS: &[Pin] = &[
    Pin {
        name: "query_a",
        raw: include_bytes!("../../../tests/corpus/dns_query_a.bin"),
        truncation: 0x064c_6acb_0da0_1a99,
        corruption: 0x8699_ec35_fc1c_1a93,
    },
    Pin {
        name: "dns64_response",
        raw: include_bytes!("../../../tests/corpus/dns_dns64_response.bin"),
        truncation: 0x9dd6_e921_4b91_038c,
        corruption: 0x1164_b716_ff0e_8b28,
    },
    Pin {
        name: "poisoned_a",
        raw: include_bytes!("../../../tests/corpus/dns_poisoned_a.bin"),
        truncation: 0xef37_0484_aa2e_47ef,
        corruption: 0x4521_3b51_fcf2_6b88,
    },
    Pin {
        name: "all_rtypes",
        raw: include_bytes!("../../../tests/corpus/dns_all_rtypes.bin"),
        truncation: 0x7eff_765b_7a3f_2f95,
        corruption: 0x3b4e_b1ff_956e_c684,
    },
    Pin {
        name: "bad_truncated",
        raw: include_bytes!("../../../tests/corpus/dns_bad_truncated.bin"),
        truncation: 0x3543_df2f_c305_d05a,
        corruption: 0x6118_f985_f68c_47c0,
    },
    Pin {
        name: "bad_pointer_loop",
        raw: include_bytes!("../../../tests/corpus/dns_bad_pointer_loop.bin"),
        truncation: 0x77cc_1e78_02ab_4cef,
        corruption: 0xb33e_8767_0169_b36c,
    },
];

const GOOD: usize = 4;

const FLIPS: [u8; 4] = [0x01, 0x80, 0xc0, 0xff];

/// The parse outcome of `raw`, rendered exactly.
fn outcome(raw: &[u8]) -> String {
    match MessageView::parse(raw) {
        Ok(v) => format!("Ok({:?})", v.to_message()),
        Err(e) => format!("Err({e:?})"),
    }
}

fn truncation_outcomes(raw: &[u8]) -> Vec<String> {
    (0..=raw.len()).map(|cut| outcome(&raw[..cut])).collect()
}

fn corruption_outcomes(raw: &[u8]) -> Vec<String> {
    let mut work = raw.to_vec();
    let mut out = Vec::new();
    for i in 0..work.len() {
        for flip in FLIPS {
            work[i] ^= flip;
            out.push(outcome(&work));
            work[i] ^= flip;
        }
    }
    out
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

/// Parse `raw`, walking every section of an accepted message: the view's
/// iterators promise not to fail after validation.
fn parse_and_walk(raw: &[u8]) -> Result<Message, DnsError> {
    MessageView::parse(raw).map(|v| v.to_message())
}

#[test]
fn corpus_good_messages_parse_and_reemit() {
    for pin in &CORPUS[..GOOD] {
        let msg = parse_and_walk(pin.raw)
            .unwrap_or_else(|e| panic!("{}: corpus message rejected: {e:?}", pin.name));
        // The owned encoder is canonical, so parse → encode must reproduce
        // the committed bytes exactly.
        assert_eq!(&msg.encode(), pin.raw, "{}: re-emission drifted", pin.name);
    }
}

#[test]
fn corpus_bad_messages_fail_as_documented() {
    assert_eq!(
        MessageView::parse(CORPUS[GOOD].raw).err(),
        Some(DnsError::Truncated("rdata"))
    );
    assert_eq!(
        MessageView::parse(CORPUS[GOOD + 1].raw).err(),
        Some(DnsError::BadPointer(12))
    );
}

#[test]
fn corpus_adversarial_messages_derive_from_their_sources() {
    // Pin the provenance documented in tests/corpus/README.md.
    let all_rtypes = CORPUS[3].raw;
    let cut = all_rtypes.len() * 2 / 3;
    assert_eq!(CORPUS[GOOD].raw, &all_rtypes[..cut]);
    let query = Message::query(
        1,
        Question::new(DnsName::from_labels(["x"]).unwrap(), RType::A),
    );
    let mut looped = query.encode();
    looped[12] = 0xc0; // question name → pointer to itself (offset 12)
    looped[13] = 12;
    assert_eq!(CORPUS[GOOD + 1].raw, &looped[..]);
}

#[test]
fn corpus_truncation_sweep_matches_pins() {
    check_sweep("truncation", truncation_outcomes, |p| p.truncation);
}

#[test]
fn corpus_corruption_sweep_matches_pins() {
    check_sweep("corruption", corruption_outcomes, |p| p.corruption);
}

/// Build a raw message by hand: header with the given counts, then `body`.
fn raw_message(qd: u16, an: u16, body: &[u8]) -> Vec<u8> {
    let mut out = vec![0x12, 0x34, 0x01, 0x00];
    out.extend_from_slice(&qd.to_be_bytes());
    out.extend_from_slice(&an.to_be_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]); // ns, ar
    out.extend_from_slice(body);
    out
}

#[test]
fn forward_pointer_rejected() {
    // Question name is a pointer to a target *after* the cursor — forbidden
    // (only backward pointers terminate).
    let msg = raw_message(1, 0, &[0xc0, 0x20, 0, 1, 0, 1]);
    assert_eq!(parse_and_walk(&msg), Err(DnsError::BadPointer(0x20)));
}

#[test]
fn reserved_label_flags_rejected() {
    // 0x40 and 0x80 length prefixes are reserved (RFC 1035 §4.1.4 only
    // defines 0b00 and 0b11).
    for flag in [0x40u8, 0x80] {
        let msg = raw_message(1, 0, &[flag, b'a', 0, 0, 1, 0, 1]);
        assert_eq!(
            parse_and_walk(&msg),
            Err(DnsError::BadField("label-length", flag as u64))
        );
    }
}

/// A root-owned opaque record whose rdata is a backward chain of `hops`
/// pointers, then a CNAME whose rdata enters the chain at its far end. The
/// chain bytes sit in unknown-type rdata, so they are never read as labels.
fn pointer_chain(hops: usize) -> Vec<u8> {
    let mut body = Vec::new();
    // Record 1: root name, type 999 (opaque), rdata = root label + chain.
    body.extend_from_slice(&[0x00]); // name: root
    body.extend_from_slice(&999u16.to_be_bytes());
    body.extend_from_slice(&1u16.to_be_bytes()); // class IN
    body.extend_from_slice(&0u32.to_be_bytes()); // ttl
    let rdata_start = 12 + body.len() + 2; // absolute offset of rdata[0]
    body.extend_from_slice(&((1 + 2 * hops) as u16).to_be_bytes());
    body.push(0x00); // chain terminus: a root label
    let mut prev = rdata_start; // each pointer targets the byte before it
    for i in 0..hops {
        let here = rdata_start + 1 + 2 * i;
        body.push(0xc0 | (prev >> 8) as u8);
        body.push(prev as u8);
        prev = here;
    }
    // Record 2: root name, CNAME whose rdata enters the chain at `prev`.
    body.extend_from_slice(&[0x00]);
    body.extend_from_slice(&RType::Cname.to_u16().to_be_bytes());
    body.extend_from_slice(&1u16.to_be_bytes());
    body.extend_from_slice(&0u32.to_be_bytes());
    body.extend_from_slice(&2u16.to_be_bytes());
    body.push(0xc0 | (prev >> 8) as u8);
    body.push(prev as u8);
    raw_message(0, 2, &body)
}

#[test]
fn pointer_hop_blowup_rejected() {
    // 70 hops: the 65th pointer followed trips the 64-hop budget. The
    // CNAME's own pointer is the first, so the 65th targets chain pointer
    // 5, at rdata offset 23 + 1 + 2 * 5.
    assert_eq!(
        parse_and_walk(&pointer_chain(70)),
        Err(DnsError::BadPointer(34))
    );

    // Control: a chain just under the hop limit parses.
    let decoded = parse_and_walk(&pointer_chain(60)).expect("sub-limit chain must parse");
    assert_eq!(decoded.answers[1].data, RData::Cname(DnsName::root()));
}

#[test]
fn oversized_name_rejected() {
    // Four maximal labels: 4 × (1 + 63) + 1 root = 257 octets > 255.
    let mut body = Vec::new();
    for _ in 0..4 {
        body.push(63);
        body.extend_from_slice(&[b'x'; 63]);
    }
    body.extend_from_slice(&[0x00, 0, 1, 0, 1]);
    let msg = raw_message(1, 0, &body);
    assert_eq!(parse_and_walk(&msg), Err(DnsError::BadField("name", 0)));

    // Control: three maximal labels (193 octets) parse.
    let mut body = Vec::new();
    for _ in 0..3 {
        body.push(63);
        body.extend_from_slice(&[b'x'; 63]);
    }
    body.extend_from_slice(&[0x00, 0, 1, 0, 1]);
    let msg = raw_message(1, 0, &body);
    let decoded = parse_and_walk(&msg).expect("255-octet-max name must parse");
    assert_eq!(decoded.questions[0].name.label_count(), 3);
}

#[test]
fn txt_char_string_overrun_rejected() {
    // TXT rdata whose inner length byte points past rdata_end.
    let mut body = Vec::new();
    body.extend_from_slice(&[0x00]); // name: root
    body.extend_from_slice(&RType::Txt.to_u16().to_be_bytes());
    body.extend_from_slice(&1u16.to_be_bytes());
    body.extend_from_slice(&0u32.to_be_bytes());
    body.extend_from_slice(&3u16.to_be_bytes()); // rdlen 3
    body.extend_from_slice(&[10, b'a', b'b']); // claims 10, only 2 present
    let msg = raw_message(0, 1, &body);
    assert_eq!(parse_and_walk(&msg), Err(DnsError::Truncated("txt")));
}

#[test]
fn bad_address_rdlen_rejected() {
    for (rtype, rdlen, what) in [(RType::A, 5u16, "a-rdlen"), (RType::Aaaa, 15, "aaaa-rdlen")] {
        let mut body = Vec::new();
        body.extend_from_slice(&[0x00]);
        body.extend_from_slice(&rtype.to_u16().to_be_bytes());
        body.extend_from_slice(&1u16.to_be_bytes());
        body.extend_from_slice(&0u32.to_be_bytes());
        body.extend_from_slice(&rdlen.to_be_bytes());
        body.resize(body.len() + rdlen as usize, 0);
        let msg = raw_message(0, 1, &body);
        assert_eq!(
            parse_and_walk(&msg),
            Err(DnsError::BadField(what, rdlen as u64))
        );
    }
}

const LABEL_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";

fn arb_label() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(prop::sample::select(LABEL_CHARS.to_vec()), 1..13)
            .prop_map(|cs| cs.into_iter().map(char::from).collect()),
        Just("x".repeat(63)),
    ]
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(arb_label(), 0..4).prop_map(|labels| {
        // Drop trailing labels if the total would exceed 255 octets (only
        // possible with multiple 63-octet labels).
        let mut ls = labels;
        loop {
            match DnsName::from_labels(ls.clone()) {
                Ok(n) => return n,
                Err(_) => {
                    ls.pop();
                }
            }
        }
    })
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<u32>().prop_map(|v| RData::A(std::net::Ipv4Addr::from(v))),
        any::<u128>().prop_map(|v| RData::Aaaa(std::net::Ipv6Addr::from(v))),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(arb_label(), 1..3).prop_map(RData::Txt),
        (arb_name(), arb_name(), any::<u32>()).prop_map(|(mname, rname, serial)| RData::Soa {
            mname,
            rname,
            serial,
            refresh: 7200,
            retry: 900,
            expire: 86400,
            minimum: 300,
        }),
        (
            512u16..4097u16,
            proptest::collection::vec(any::<u8>(), 0..12)
        )
            .prop_map(|(payload_size, data)| RData::Opt { payload_size, data }),
        (256u16.., proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(t, d)| RData::Raw(t, d)),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_label(),
        arb_name(),
        proptest::collection::vec(arb_rdata(), 0..5),
        any::<bool>(),
        0u8..6,
    )
        .prop_map(|(id, host, suffix, rdatas, authoritative, rcode)| {
            // All names share a suffix so the encoder's compression map and
            // the view's pointer walk both get exercised on every case.
            let qname = DnsName::from_labels([host])
                .unwrap()
                .with_suffix(&suffix)
                .unwrap_or(suffix.clone());
            let mut msg = Message::query(id, Question::new(qname.clone(), RType::Aaaa));
            msg.is_response = true;
            msg.authoritative = authoritative;
            msg.rcode = Rcode::from_u16_lossy(rcode as u16);
            for (i, data) in rdatas.into_iter().enumerate() {
                let rec = Record::new(qname.clone(), 60 * (i as u32 + 1), data);
                match i % 3 {
                    0 => msg.answers.push(rec),
                    1 => msg.authorities.push(rec),
                    _ => msg.additionals.push(rec),
                }
            }
            msg
        })
}

/// Map 0..6 onto real rcodes without reaching into codec internals.
trait RcodeLossy {
    fn from_u16_lossy(v: u16) -> Rcode;
}
impl RcodeLossy for Rcode {
    fn from_u16_lossy(v: u16) -> Rcode {
        match v {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            _ => Rcode::Refused,
        }
    }
}

proptest! {
    #[test]
    fn generated_messages_roundtrip(msg in arb_message()) {
        let bytes = msg.encode();
        let decoded = parse_and_walk(&bytes).expect("canonical encoding must parse");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn generated_names_roundtrip_with_casing_folded(labels in proptest::collection::vec(arb_label(), 0..4)) {
        // Uppercase on the wire, lowercase after parse.
        let lower = match DnsName::from_labels(labels) {
            Ok(n) => n,
            Err(_) => return, // >255 total: generation artefact, skip
        };
        let msg = Message::query(7, Question::new(lower.clone(), RType::A));
        let mut bytes = msg.encode();
        for b in &mut bytes[12..] {
            b.make_ascii_uppercase();
        }
        let decoded = parse_and_walk(&bytes).expect("uppercased name must parse");
        prop_assert_eq!(&decoded.questions[0].name, &lower);
    }

    #[test]
    fn generated_messages_truncate_without_panic(msg in arb_message(), cut in any::<prop::sample::Index>()) {
        let bytes = msg.encode();
        let at = cut.index(bytes.len());
        let _ = parse_and_walk(&bytes[..at]);
    }

    #[test]
    fn generated_messages_corrupt_without_panic(msg in arb_message(), at in any::<prop::sample::Index>(), flip in 1u8..) {
        let mut bytes = msg.encode();
        let i = at.index(bytes.len());
        bytes[i] ^= flip;
        let _ = parse_and_walk(&bytes);
    }

    #[test]
    fn random_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = parse_and_walk(&raw);
    }
}
