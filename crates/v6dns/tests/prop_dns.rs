//! Property-based tests for the DNS engine: codec round-trips with
//! arbitrary record mixtures, name algebra, cache TTL monotonicity, and
//! poisoning-policy invariants.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6dns::codec::{Message, Question, RData, RType, Rcode, Record};
use v6dns::dns64::Dns64;
use v6dns::name::DnsName;
use v6dns::poison::{PoisonPolicy, PoisonedResolver};
use v6dns::server::{Answer, CachingResolver, Resolver};
use v6dns::stub::{SearchList, SearchOrder};
use v6dns::view::MessageView;
use v6dns::zone::Zone;

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,14}"
        .prop_map(|s| s.trim_end_matches('-').to_string())
        .prop_filter("non-empty", |s| !s.is_empty())
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| DnsName::from_labels(labels).expect("valid labels"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<u32>().prop_map(|v| RData::A(Ipv4Addr::from(v))),
        any::<u128>().prop_map(|v| RData::Aaaa(Ipv6Addr::from(v))),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec("[ -~]{0,40}", 1..3).prop_map(RData::Txt),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(n, ttl, d)| Record::new(n, ttl, d))
}

proptest! {
    #[test]
    fn message_roundtrip(
        id in any::<u16>(),
        qname in arb_name(),
        answers in proptest::collection::vec(arb_record(), 0..6),
        authorities in proptest::collection::vec(arb_record(), 0..3),
        rcode in 0u8..6,
    ) {
        let q = Message::query(id, Question::new(qname, RType::A));
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.rcode = match rcode {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            _ => Rcode::Refused,
        };
        resp.answers = answers;
        resp.authorities = authorities;
        let bytes = resp.encode();
        prop_assert_eq!(MessageView::parse(&bytes).unwrap().to_message(), resp);
    }

    #[test]
    fn name_display_parse_roundtrip(name in arb_name()) {
        let s = name.to_string();
        let parsed: DnsName = s.parse().unwrap();
        prop_assert_eq!(parsed, name);
    }

    #[test]
    fn suffix_append_preserves_subdomain(base in arb_name(), suffix in arb_name()) {
        if let Ok(joined) = base.with_suffix(&suffix) {
            prop_assert!(joined.is_subdomain_of(&suffix));
            prop_assert_eq!(
                joined.label_count(),
                base.label_count() + suffix.label_count()
            );
        }
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = MessageView::parse(&bytes).map(|v| v.to_message());
    }

    #[test]
    fn cache_ttls_never_increase(ttl in 1u32..10000, elapsed in 0u64..20000) {
        let mut zone = Zone::new("p.test".parse().unwrap(), 60);
        zone.add_str("a", ttl, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        let mut g = v6dns::server::GlobalDns::new();
        g.add_zone(zone);
        let mut cache = CachingResolver::new(g);
        let q = Question::new("a.p.test".parse().unwrap(), RType::A);
        let first = cache.resolve(&q, 0);
        prop_assert!(first.is_positive());
        let later = cache.resolve(&q, elapsed);
        if later.is_positive() {
            for r in &later.records {
                prop_assert!(r.ttl <= ttl, "ttl grew: {} > {}", r.ttl, ttl);
            }
        }
    }

    /// Wildcard-A answers *every* A query with exactly the configured
    /// address, and never touches AAAA.
    #[test]
    fn wildcard_poison_total_and_family_scoped(name in arb_name(), answer in any::<u32>()) {
        let answer = Ipv4Addr::from(answer);
        let base = v6dns::server::GlobalDns::new();
        let mut p = PoisonedResolver::new(
            base,
            PoisonPolicy::WildcardA { answer, ttl: 60 },
        );
        let a = p.resolve(&Question::new(name.clone(), RType::A), 0);
        prop_assert!(a.is_positive());
        prop_assert_eq!(&a.records[0].data, &RData::A(answer));
        prop_assert_eq!(&a.records[0].name, &name);
        let aaaa = p.resolve(&Question::new(name, RType::Aaaa), 0);
        prop_assert!(!aaaa.is_positive(), "AAAA must pass through (empty upstream)");
    }

    /// RPZ never converts a negative answer into a positive one.
    #[test]
    fn rpz_preserves_negativity(name in arb_name(), answer in any::<u32>()) {
        let base = v6dns::server::GlobalDns::new(); // resolves nothing
        let mut p = PoisonedResolver::new(
            base,
            PoisonPolicy::ResponsePolicyZone {
                answer: Ipv4Addr::from(answer),
                ttl: 60,
            },
        );
        let a = p.resolve(&Question::new(name, RType::A), 0);
        prop_assert_eq!(a.rcode, Rcode::NxDomain);
        prop_assert!(a.records.is_empty());
    }

    /// DNS64 synthesis embeds exactly the A answers, in order.
    #[test]
    fn dns64_synthesis_faithful(addrs in proptest::collection::vec(any::<u32>(), 1..5)) {
        let mut zone = Zone::new("s.test".parse().unwrap(), 60);
        for a in &addrs {
            zone.add_str("only4", 60, RData::A(Ipv4Addr::from(*a)));
        }
        let mut g = v6dns::server::GlobalDns::new();
        g.add_zone(zone);
        let mut d = Dns64::well_known(g);
        let ans = d.resolve(&Question::new("only4.s.test".parse().unwrap(), RType::Aaaa), 0);
        prop_assert!(ans.is_positive());
        let got: Vec<Ipv6Addr> = ans
            .records
            .iter()
            .filter_map(|r| match r.data {
                RData::Aaaa(x) => Some(x),
                _ => None,
            })
            .collect();
        let expect: Vec<Ipv6Addr> = addrs
            .iter()
            .map(|a| d.prefix().embed_unchecked(Ipv4Addr::from(*a)))
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// The search list emits the as-typed name exactly once, last or first
    /// according to the order policy.
    #[test]
    fn search_list_contains_original_once(
        name in arb_name(),
        suffixes in proptest::collection::vec(arb_name(), 0..3),
        suffix_first in any::<bool>(),
    ) {
        let list = SearchList::new(suffixes);
        let order = if suffix_first { SearchOrder::SuffixFirst } else { SearchOrder::AsIsFirst };
        let cands = list.candidates(&name, false, order);
        prop_assert_eq!(cands.iter().filter(|c| **c == name).count(), 1);
        prop_assert!(!cands.is_empty());
    }

    /// Cache accounting: over any interleaving of queries (repeated
    /// names, mixed record types, advancing clock, mid-stream evictions)
    /// every resolve is classified as exactly one hit or miss, and the
    /// `metrics()` snapshot reports the same ledger.
    #[test]
    fn cache_hits_plus_misses_equals_queries_served(
        hosts in proptest::collection::vec(arb_label(), 1..4),
        queries in proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<bool>(), 0u64..600, any::<bool>()),
            1..40,
        ),
    ) {
        let mut zone = Zone::new("acct.test".parse().unwrap(), 60);
        for h in &hosts {
            zone.add_str(h, 120, RData::A(Ipv4Addr::new(198, 51, 100, 7)));
        }
        let mut g = v6dns::server::GlobalDns::new();
        g.add_zone(zone);
        let mut cache = CachingResolver::new(g);
        let mut served = 0u64;
        let mut clock = 0u64;
        for (idx, use_aaaa, advance, evict) in queries {
            clock += advance;
            if evict {
                cache.evict_expired(clock);
            }
            let host = &hosts[idx.index(hosts.len())];
            let rtype = if use_aaaa { RType::Aaaa } else { RType::A };
            let name: DnsName = format!("{host}.acct.test").parse().unwrap();
            let _ = cache.resolve(&Question::new(name, rtype), clock);
            served += 1;
            prop_assert_eq!(cache.hits + cache.misses, served);
        }
        let m = cache.metrics();
        prop_assert_eq!(m.get("hits"), cache.hits);
        prop_assert_eq!(m.get("misses"), cache.misses);
        prop_assert_eq!(m.get("queries"), served);
    }

    /// A positive zone answer is reproducible (lookup is pure).
    #[test]
    fn zone_lookup_pure(ttl in 1u32..1000, host in arb_label()) {
        let mut zone = Zone::new("z.test".parse().unwrap(), 60);
        zone.add_str(&host, ttl, RData::A(Ipv4Addr::new(203, 0, 113, 7)));
        let name: DnsName = format!("{host}.z.test").parse().unwrap();
        let a = zone.lookup(&name, RType::A);
        let b = zone.lookup(&name, RType::A);
        prop_assert_eq!(a, b);
    }
}

/// Directed check kept alongside the properties: an `Answer` made negative
/// by the resolver still carries the SOA needed for RFC 2308.
#[test]
fn negative_answers_carry_soa() {
    let mut zone = Zone::new("neg.test".parse().unwrap(), 60);
    zone.add_str("x", 60, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
    let mut g = v6dns::server::GlobalDns::new();
    g.add_zone(zone);
    let a: Answer = g.resolve(
        &Question::new("missing.neg.test".parse().unwrap(), RType::A),
        0,
    );
    assert_eq!(a.rcode, Rcode::NxDomain);
    assert!(a.soa.is_some());
}
