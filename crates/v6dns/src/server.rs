//! Resolver engines: the simulated global DNS, and a TTL cache with RFC 2308
//! negative caching that any server in the testbed can layer on top.

use crate::codec::{Question, RData, RType, Rcode, Record};
use crate::name::DnsName;
use crate::zone::{Zone, ZoneLookup};
use std::sync::Arc;
use v6wire::clamp;
use v6wire::fasthash::FastMap;

/// Why a resolution failed, classified for the census breakdown and
/// carried stub-ward as an RFC 8914 Extended DNS Error (see
/// [`crate::edns`]). The Streibelt et al. PAM '23 taxonomy: resolution in
/// a v6-only network fails for *structural* reasons a timeout can't
/// distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolutionFailure {
    /// An authoritative server on the delegation path has no address
    /// record (glue) the resolver's address family can use — the PAM '23
    /// "v6-only resolver cannot reach a v4-only-glue NS set" failure.
    NoAaaaGlue,
    /// The referral chain exceeded the resolver's depth budget.
    ReferralLoop,
    /// The stub answered from its RFC 2308 negative cache without
    /// re-querying.
    NegativeCached,
    /// The response was truncated (TC bit) and the stub has no TCP
    /// fallback.
    TruncatedNoTcp,
}

impl ResolutionFailure {
    /// Every failure reason, in stable census-column order.
    pub const ALL: [ResolutionFailure; 4] = [
        ResolutionFailure::NoAaaaGlue,
        ResolutionFailure::ReferralLoop,
        ResolutionFailure::NegativeCached,
        ResolutionFailure::TruncatedNoTcp,
    ];

    /// Manifest/census label.
    pub fn label(self) -> &'static str {
        match self {
            ResolutionFailure::NoAaaaGlue => "no-aaaa-glue",
            ResolutionFailure::ReferralLoop => "referral-loop",
            ResolutionFailure::NegativeCached => "negative-cached",
            ResolutionFailure::TruncatedNoTcp => "truncated-no-tcp",
        }
    }

    /// Position in [`ResolutionFailure::ALL`] (stable, used for census
    /// columns and the EDE private code offset).
    pub fn index(self) -> usize {
        match self {
            ResolutionFailure::NoAaaaGlue => 0,
            ResolutionFailure::ReferralLoop => 1,
            ResolutionFailure::NegativeCached => 2,
            ResolutionFailure::TruncatedNoTcp => 3,
        }
    }
}

/// The outcome of a resolution: an rcode, answer records, the SOA that
/// authorizes negative caching when the answer set is empty, and — when
/// resolution failed structurally — the classified reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Response code.
    pub rcode: Rcode,
    /// Answer-section records (CNAME chains included).
    pub records: Vec<Record>,
    /// SOA for negative answers.
    pub soa: Option<Record>,
    /// Classified failure reason, when resolution failed structurally.
    pub reason: Option<ResolutionFailure>,
}

impl Answer {
    /// A positive answer.
    pub fn positive(records: Vec<Record>) -> Answer {
        Answer {
            rcode: Rcode::NoError,
            records,
            soa: None,
            reason: None,
        }
    }

    /// NXDOMAIN with authority SOA.
    pub fn nxdomain(soa: Record) -> Answer {
        Answer {
            rcode: Rcode::NxDomain,
            records: Vec::new(),
            soa: Some(soa),
            reason: None,
        }
    }

    /// Server failure.
    pub fn servfail() -> Answer {
        Answer {
            rcode: Rcode::ServFail,
            records: Vec::new(),
            soa: None,
            reason: None,
        }
    }

    /// Server failure with a classified reason.
    pub fn servfail_because(reason: ResolutionFailure) -> Answer {
        Answer {
            reason: Some(reason),
            ..Answer::servfail()
        }
    }

    /// Is this a usable positive answer?
    pub fn is_positive(&self) -> bool {
        self.rcode == Rcode::NoError && !self.records.is_empty()
    }
}

/// Address families a resolver can use to contact authoritative servers.
/// This is what makes the Streibelt et al. PAM '23 failure reproducible:
/// a v6-only resolver walking a delegation whose glue is v4-only has no
/// transport to the child NS set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolverTransport {
    /// Can reach IPv4-numbered authoritatives.
    pub v4: bool,
    /// Can reach IPv6-numbered authoritatives.
    pub v6: bool,
}

impl ResolverTransport {
    /// Dual-stack resolver: any glue family works.
    pub const DUAL: ResolverTransport = ResolverTransport { v4: true, v6: true };
    /// IPv6-only resolver: needs AAAA glue on every delegation step.
    pub const V6_ONLY: ResolverTransport = ResolverTransport {
        v4: false,
        v6: true,
    };
    /// IPv4-only resolver: needs A glue on every delegation step.
    pub const V4_ONLY: ResolverTransport = ResolverTransport {
        v4: true,
        v6: false,
    };

    /// Can this transport use the address in `data` to contact a server?
    pub fn can_use(self, data: &RData) -> bool {
        match data {
            RData::A(_) => self.v4,
            RData::Aaaa(_) => self.v6,
            _ => false,
        }
    }
}

/// Referral budget for one iterative descent. Delegation cuts are strictly
/// deeper than their parent zone's origin, so a well-formed walk is
/// structurally loop-free — the cap exists so a pathological tree (or a
/// fuzzer-built one) terminates with a classified
/// [`ResolutionFailure::ReferralLoop`] instead of walking 127 labels down.
pub const MAX_REFERRALS: usize = 8;

/// Anything that can answer DNS questions. `now` is simulation time in
/// seconds, used for TTL bookkeeping.
pub trait Resolver {
    /// Resolve one question.
    fn resolve(&mut self, q: &Question, now: u64) -> Answer;
}

impl<T: Resolver + ?Sized> Resolver for Box<T> {
    fn resolve(&mut self, q: &Question, now: u64) -> Answer {
        (**self).resolve(q, now)
    }
}

/// The simulated "rest of the internet's" DNS: a set of authoritative zones
/// resolved recursively, with cross-zone CNAME chasing.
///
/// This stands in for the real DNS hierarchy the testbed's Raspberry Pi
/// BIND9 forwarded to via the 5G uplink.
#[derive(Debug, Clone, Default)]
pub struct GlobalDns {
    /// Zone content is shared copy-on-write, so cloning a prebuilt
    /// database (one testbed instance per fleet cell) costs a reference
    /// bump instead of re-parsing every record.
    zones: Arc<Vec<Zone>>,
    /// Query counter for observability.
    pub queries: u64,
    /// When set, resolution is *iterative*: it starts at the shallowest
    /// enclosing zone and follows delegation referrals downward, and each
    /// referral is only followable if the glue offers an address this
    /// transport can use. `None` = flat recursive mode (longest-match
    /// zone answers directly), the pre-delegation behaviour.
    iterative: Option<ResolverTransport>,
    /// Referrals followed, for observability.
    pub referrals: u64,
}

impl GlobalDns {
    /// Empty database.
    pub fn new() -> GlobalDns {
        GlobalDns::default()
    }

    /// Add an authoritative zone.
    pub fn add_zone(&mut self, zone: Zone) -> &mut Self {
        Arc::make_mut(&mut self.zones).push(zone);
        self
    }

    /// Switch into iterative mode: resolution walks the delegation tree
    /// from the shallowest enclosing zone, contacting child servers only
    /// through `transport`-compatible glue.
    pub fn set_iterative(&mut self, transport: ResolverTransport) -> &mut Self {
        self.iterative = Some(transport);
        self
    }

    /// The iterative transport, if iterative mode is on.
    pub fn iterative_transport(&self) -> Option<ResolverTransport> {
        self.iterative
    }

    /// Zero the query/referral counters; zone content and resolution mode
    /// (shared copy-on-write) are configuration and survive (warm-cell
    /// arena reuse).
    pub fn reset(&mut self) {
        self.queries = 0;
        self.referrals = 0;
    }

    /// Longest-match zone for `name`.
    fn zone_for(&self, name: &DnsName) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| name.is_subdomain_of(z.origin()))
            .max_by_key(|z| z.origin().label_count())
    }

    fn root_soa() -> Record {
        Record::new(
            DnsName::root(),
            900,
            RData::Soa {
                mname: "a.root-servers.net".parse().expect("static name"),
                rname: "nstld.verisign-grs.com".parse().expect("static name"),
                serial: 20_240_815,
                refresh: 1800,
                retry: 900,
                expire: 604_800,
                minimum: 86_400,
            },
        )
    }
}

impl GlobalDns {
    /// Flat recursive resolution: the longest-match zone answers as if one
    /// recursive server held every zone locally.
    fn resolve_flat(&mut self, q: &Question) -> Answer {
        let mut chain: Vec<Record> = Vec::new();
        let mut current = q.name.clone();
        for _hop in 0..8 {
            let Some(zone) = self.zone_for(&current) else {
                // No delegation anywhere: the root says NXDOMAIN.
                return if chain.is_empty() {
                    Answer::nxdomain(Self::root_soa())
                } else {
                    // Dangling out-of-zone CNAME target.
                    Answer {
                        rcode: Rcode::NxDomain,
                        records: chain,
                        soa: Some(Self::root_soa()),
                        reason: None,
                    }
                };
            };
            match zone.lookup(&current, q.rtype) {
                ZoneLookup::Answer(mut rs) => {
                    // If the chain ends in an out-of-zone CNAME, keep chasing.
                    let last_is_cname = matches!(rs.last().map(|r| &r.data), Some(RData::Cname(_)));
                    if last_is_cname && q.rtype != RType::Cname && q.rtype != RType::Any {
                        let target = match &rs.last().expect("nonempty").data {
                            RData::Cname(t) => t.clone(),
                            _ => unreachable!("checked CNAME"),
                        };
                        chain.append(&mut rs);
                        current = target;
                        continue;
                    }
                    chain.append(&mut rs);
                    return Answer::positive(chain);
                }
                ZoneLookup::NoData { soa } => {
                    return Answer {
                        rcode: Rcode::NoError,
                        records: chain,
                        soa: Some(soa),
                        reason: None,
                    }
                }
                ZoneLookup::NxDomain { soa } => {
                    return Answer {
                        rcode: Rcode::NxDomain,
                        records: chain,
                        soa: Some(soa),
                        reason: None,
                    }
                }
                // A cut with no matching child zone is a lame delegation:
                // with longest-match zone selection a healthy child always
                // shadows its parent's cut, so reaching the parent's
                // referral means nobody can serve the name.
                ZoneLookup::Referral { .. } => return Answer::servfail(),
                ZoneLookup::NotInZone => unreachable!("zone_for guarantees membership"),
            }
        }
        Answer::servfail()
    }

    /// Iterative resolution (RFC 1034 §4.3.2): descend from the shallowest
    /// enclosing zone, following each referral only if its glue offers an
    /// address `transport` can use.
    ///
    /// Glue is decisive: when a parent carries glue for a cut, the child is
    /// reached (or not) through those addresses alone — a v6-only resolver
    /// facing v4-only glue fails with [`ResolutionFailure::NoAaaaGlue`]
    /// even if the child zone itself holds AAAA records for its servers,
    /// because the resolver has no way to ask the child anything. Glueless
    /// cuts fall back to looking the NS target addresses up in the zone
    /// tree itself.
    fn resolve_iterative(&mut self, q: &Question, transport: ResolverTransport) -> Answer {
        let zones = Arc::clone(&self.zones);
        let mut chain: Vec<Record> = Vec::new();
        let mut current = q.name.clone();
        'chase: for _hop in 0..8 {
            // Shallowest enclosing zone = the root of the authored tree.
            let start = zones
                .iter()
                .filter(|z| current.is_subdomain_of(z.origin()))
                .min_by_key(|z| z.origin().label_count());
            let Some(mut zone) = start else {
                return if chain.is_empty() {
                    Answer::nxdomain(Self::root_soa())
                } else {
                    Answer {
                        rcode: Rcode::NxDomain,
                        records: chain,
                        soa: Some(Self::root_soa()),
                        reason: None,
                    }
                };
            };
            for _referral in 0..=MAX_REFERRALS {
                match zone.lookup(&current, q.rtype) {
                    ZoneLookup::Answer(mut rs) => {
                        let last_is_cname =
                            matches!(rs.last().map(|r| &r.data), Some(RData::Cname(_)));
                        if last_is_cname && q.rtype != RType::Cname && q.rtype != RType::Any {
                            let target = match &rs.last().expect("nonempty").data {
                                RData::Cname(t) => t.clone(),
                                _ => unreachable!("checked CNAME"),
                            };
                            chain.append(&mut rs);
                            current = target;
                            continue 'chase;
                        }
                        chain.append(&mut rs);
                        return Answer::positive(chain);
                    }
                    ZoneLookup::NoData { soa } => {
                        return Answer {
                            rcode: Rcode::NoError,
                            records: chain,
                            soa: Some(soa),
                            reason: None,
                        }
                    }
                    ZoneLookup::NxDomain { soa } => {
                        return Answer {
                            rcode: Rcode::NxDomain,
                            records: chain,
                            soa: Some(soa),
                            reason: None,
                        }
                    }
                    ZoneLookup::Referral { cut, ns, glue } => {
                        self.referrals += 1;
                        if !referral_reachable(&zones, transport, &ns, &glue) {
                            return Answer::servfail_because(ResolutionFailure::NoAaaaGlue);
                        }
                        let Some(child) = zones.iter().find(|z| z.origin() == &cut) else {
                            // Lame delegation: reachable servers, no zone.
                            return Answer::servfail();
                        };
                        zone = child;
                    }
                    ZoneLookup::NotInZone => unreachable!("descent stays within enclosing zones"),
                }
            }
            return Answer::servfail_because(ResolutionFailure::ReferralLoop);
        }
        Answer::servfail()
    }
}

/// Can `transport` contact at least one server in a referral's NS set?
/// With glue present the glue addresses are decisive; a glueless cut falls
/// back to the NS targets' address records anywhere in the authored tree.
fn referral_reachable(
    zones: &[Zone],
    transport: ResolverTransport,
    ns: &[Record],
    glue: &[Record],
) -> bool {
    if !glue.is_empty() {
        return glue.iter().any(|r| transport.can_use(&r.data));
    }
    ns.iter().any(|r| match &r.data {
        RData::Ns(target) => zones
            .iter()
            .flat_map(|z| z.iter_records())
            .any(|rec| rec.name == *target && transport.can_use(&rec.data)),
        _ => false,
    })
}

impl Resolver for GlobalDns {
    fn resolve(&mut self, q: &Question, _now: u64) -> Answer {
        self.queries += 1;
        match self.iterative {
            Some(transport) => self.resolve_iterative(q, transport),
            None => self.resolve_flat(q),
        }
    }
}

#[derive(Debug, Clone)]
enum CacheEntry {
    Positive {
        records: Vec<Record>,
        expires: u64,
    },
    Negative {
        rcode: Rcode,
        soa: Record,
        expires: u64,
    },
}

/// A caching resolver (RFC 1035 TTL cache + RFC 2308 negative cache) in
/// front of any upstream.
#[derive(Debug)]
pub struct CachingResolver<R> {
    upstream: R,
    cache: FastMap<Question, CacheEntry>,
    /// Cache hits for observability.
    pub hits: u64,
    /// Cache misses for observability.
    pub misses: u64,
    /// Cap on positive TTLs (operators commonly clamp; 0 = no cap).
    pub max_ttl: u32,
}

impl<R: Resolver> CachingResolver<R> {
    /// Wrap `upstream`.
    pub fn new(upstream: R) -> CachingResolver<R> {
        CachingResolver {
            upstream,
            cache: FastMap::default(),
            hits: 0,
            misses: 0,
            max_ttl: 0,
        }
    }

    /// Access the wrapped upstream.
    pub fn upstream_mut(&mut self) -> &mut R {
        &mut self.upstream
    }

    /// Restore the post-construction state: cache flushed, hit/miss
    /// counters zeroed. The upstream is *not* touched — reset each
    /// layer explicitly via [`CachingResolver::upstream_mut`].
    pub fn reset(&mut self) {
        self.cache.clear();
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of live cache entries at `now`.
    pub fn live_entries(&self, now: u64) -> usize {
        self.cache
            .values()
            .filter(|e| match e {
                CacheEntry::Positive { expires, .. } => *expires > now,
                CacheEntry::Negative { expires, .. } => *expires > now,
            })
            .count()
    }

    /// Drop expired entries.
    pub fn evict_expired(&mut self, now: u64) {
        self.cache.retain(|_, e| match e {
            CacheEntry::Positive { expires, .. } => *expires > now,
            CacheEntry::Negative { expires, .. } => *expires > now,
        });
    }

    fn effective_ttl(&self, ttl: u32) -> u32 {
        if self.max_ttl == 0 {
            ttl
        } else {
            ttl.min(self.max_ttl)
        }
    }

    /// Counter snapshot (`hits`, `misses`, `queries` = their sum) in the
    /// shared [`v6wire::metrics::Metrics`] form — the same shape every
    /// other instrumented testbed device reports, so fleet aggregation
    /// treats DNS caches like any other counter source.
    pub fn metrics(&self) -> v6wire::metrics::Metrics {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("queries", self.hits + self.misses),
        ]
        .into_iter()
        .collect()
    }
}

impl<R: Resolver> Resolver for CachingResolver<R> {
    fn resolve(&mut self, q: &Question, now: u64) -> Answer {
        if let Some(entry) = self.cache.get(q) {
            match entry {
                CacheEntry::Positive { records, expires } if *expires > now => {
                    self.hits += 1;
                    let remaining = (*expires - now) as u32;
                    let records = records
                        .iter()
                        .map(|r| Record::new(r.name.clone(), r.ttl.min(remaining), r.data.clone()))
                        .collect();
                    return Answer::positive(records);
                }
                CacheEntry::Negative {
                    rcode,
                    soa,
                    expires,
                } if *expires > now => {
                    self.hits += 1;
                    return Answer {
                        rcode: *rcode,
                        records: Vec::new(),
                        soa: Some(soa.clone()),
                        reason: None,
                    };
                }
                _ => {}
            }
        }
        self.misses += 1;
        let answer = self.upstream.resolve(q, now);
        match (&answer.rcode, answer.records.is_empty(), &answer.soa) {
            (Rcode::NoError, false, _) => {
                let min_ttl = answer.records.iter().map(|r| r.ttl).min().unwrap_or(0);
                let ttl = self.effective_ttl(clamp::clamp_ttl(min_ttl));
                if ttl > 0 {
                    self.cache.insert(
                        q.clone(),
                        CacheEntry::Positive {
                            records: answer.records.clone(),
                            expires: clamp::expiry(now, ttl),
                        },
                    );
                }
            }
            (Rcode::NoError | Rcode::NxDomain, true, Some(soa)) => {
                // RFC 2308 §5: negative TTL = min(SOA TTL, SOA.minimum),
                // both RFC 2181-clamped first so a high-bit SOA minimum off
                // a hostile wire can't become a cache-forever entry.
                let neg_ttl = match &soa.data {
                    RData::Soa { minimum, .. } => clamp::negative_ttl(soa.ttl, *minimum),
                    _ => clamp::clamp_ttl(soa.ttl),
                };
                if neg_ttl > 0 {
                    self.cache.insert(
                        q.clone(),
                        CacheEntry::Negative {
                            rcode: answer.rcode,
                            soa: soa.clone(),
                            expires: clamp::expiry(now, neg_ttl),
                        },
                    );
                }
            }
            _ => {}
        }
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> DnsName {
        s.parse().unwrap()
    }

    fn internet() -> GlobalDns {
        let mut g = GlobalDns::new();
        let mut sc = Zone::new(n("supercomputing.org"), 300);
        sc.add_str("sc24", 120, RData::A("190.92.158.4".parse().unwrap()));
        sc.add_str("www.sc24", 120, RData::Cname(n("sc24.supercomputing.org")));
        g.add_zone(sc);
        let mut me = Zone::new(n("ip6.me"), 60);
        me.add_str("@", 60, RData::A("23.153.8.71".parse().unwrap()));
        me.add_str("@", 60, RData::Aaaa("2001:4810:0:3::71".parse().unwrap()));
        g.add_zone(me);
        let mut alias = Zone::new(n("alias.test"), 60);
        alias.add_str("portal", 60, RData::Cname(n("ip6.me")));
        alias.add_str("dangling", 60, RData::Cname(n("gone.nowhere.test")));
        g.add_zone(alias);
        g
    }

    #[test]
    fn global_resolves_direct() {
        let mut g = internet();
        let a = g.resolve(&Question::new(n("sc24.supercomputing.org"), RType::A), 0);
        assert!(a.is_positive());
        assert_eq!(a.records[0].data, RData::A("190.92.158.4".parse().unwrap()));
    }

    #[test]
    fn global_chases_cname_across_zones() {
        let mut g = internet();
        let a = g.resolve(&Question::new(n("portal.alias.test"), RType::A), 0);
        assert!(a.is_positive());
        assert_eq!(a.records.len(), 2);
        assert!(matches!(a.records[0].data, RData::Cname(_)));
        assert_eq!(a.records[1].data, RData::A("23.153.8.71".parse().unwrap()));
    }

    #[test]
    fn global_dangling_cname_is_nxdomain_with_chain() {
        let mut g = internet();
        let a = g.resolve(&Question::new(n("dangling.alias.test"), RType::A), 0);
        assert_eq!(a.rcode, Rcode::NxDomain);
        assert_eq!(a.records.len(), 1);
    }

    #[test]
    fn global_unknown_tld_is_nxdomain() {
        let mut g = internet();
        let a = g.resolve(&Question::new(n("echolink.example.net"), RType::A), 0);
        assert_eq!(a.rcode, Rcode::NxDomain);
        assert!(a.soa.is_some());
    }

    #[test]
    fn cache_hits_within_ttl() {
        let mut c = CachingResolver::new(internet());
        let q = Question::new(n("ip6.me"), RType::A);
        let first = c.resolve(&q, 1000);
        assert!(first.is_positive());
        assert_eq!((c.hits, c.misses), (0, 1));
        let second = c.resolve(&q, 1030);
        assert!(second.is_positive());
        assert_eq!((c.hits, c.misses), (1, 1));
        // TTL decremented by elapsed time.
        assert_eq!(second.records[0].ttl, 30);
        // Expired at +61s: re-fetch.
        let third = c.resolve(&q, 1061);
        assert!(third.is_positive());
        assert_eq!((c.hits, c.misses), (1, 2));
        assert_eq!(third.records[0].ttl, 60);
    }

    #[test]
    fn negative_cache_rfc2308() {
        let mut c = CachingResolver::new(internet());
        let q = Question::new(n("missing.ip6.me"), RType::A);
        let a = c.resolve(&q, 0);
        assert_eq!(a.rcode, Rcode::NxDomain);
        assert_eq!(c.upstream_mut().queries, 1);
        // Negative TTL = min(SOA ttl, minimum) = 60.
        let a2 = c.resolve(&q, 59);
        assert_eq!(a2.rcode, Rcode::NxDomain);
        assert_eq!(c.upstream_mut().queries, 1, "served from negative cache");
        let _a3 = c.resolve(&q, 61);
        assert_eq!(c.upstream_mut().queries, 2, "negative entry expired");
    }

    #[test]
    fn nodata_cached_separately_from_nxdomain() {
        let mut c = CachingResolver::new(internet());
        // sc24 has A but no AAAA → NODATA, cacheable.
        let q = Question::new(n("sc24.supercomputing.org"), RType::Aaaa);
        let a = c.resolve(&q, 0);
        assert_eq!(a.rcode, Rcode::NoError);
        assert!(a.records.is_empty());
        c.resolve(&q, 10);
        assert_eq!(c.hits, 1);
        // The A query is a different cache key.
        let a2 = c.resolve(&Question::new(n("sc24.supercomputing.org"), RType::A), 10);
        assert!(a2.is_positive());
    }

    #[test]
    fn max_ttl_clamps() {
        let mut c = CachingResolver::new(internet());
        c.max_ttl = 10;
        let q = Question::new(n("ip6.me"), RType::A);
        c.resolve(&q, 0);
        c.resolve(&q, 11); // past the clamped TTL
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn eviction_and_live_count() {
        let mut c = CachingResolver::new(internet());
        c.resolve(&Question::new(n("ip6.me"), RType::A), 0);
        c.resolve(&Question::new(n("ip6.me"), RType::Aaaa), 0);
        assert_eq!(c.live_entries(30), 2);
        assert_eq!(c.live_entries(61), 0);
        c.evict_expired(61);
        assert_eq!(c.live_entries(0), 0);
    }

    /// The delegated tree used by the iterative tests:
    /// `test` delegates `dual.test` (A+AAAA glue), `v4only.test` (A-only
    /// glue) and `glueless.test` (out-of-zone NS, address under dual.test).
    fn delegated_internet() -> GlobalDns {
        let mut g = GlobalDns::new();
        let mut root = Zone::new(n("test"), 300);
        root.add_str("dual", 3600, RData::Ns(n("ns1.dual.test")));
        root.add_str("ns1.dual", 3600, RData::A("203.0.113.1".parse().unwrap()));
        root.add_str(
            "ns1.dual",
            3600,
            RData::Aaaa("2001:db8::1".parse().unwrap()),
        );
        root.add_str("v4only", 3600, RData::Ns(n("ns1.v4only.test")));
        root.add_str(
            "ns1.v4only",
            3600,
            RData::A("203.0.113.53".parse().unwrap()),
        );
        root.add_str("glueless", 3600, RData::Ns(n("ns2.dual.test")));
        g.add_zone(root);

        let mut dual = Zone::new(n("dual.test"), 300);
        dual.add_str("www", 120, RData::Aaaa("2001:db8::80".parse().unwrap()));
        dual.add_str("ns2", 3600, RData::Aaaa("2001:db8::2".parse().unwrap()));
        g.add_zone(dual);

        let mut v4only = Zone::new(n("v4only.test"), 300);
        v4only.add_str("www", 120, RData::A("198.51.100.80".parse().unwrap()));
        v4only.add_str(
            "www",
            120,
            RData::Aaaa("2001:db8:dead::80".parse().unwrap()),
        );
        g.add_zone(v4only);

        let mut glueless = Zone::new(n("glueless.test"), 300);
        glueless.add_str("www", 120, RData::Aaaa("2001:db8:11::80".parse().unwrap()));
        g.add_zone(glueless);
        g
    }

    #[test]
    fn iterative_dual_transport_descends_through_referrals() {
        let mut g = delegated_internet();
        g.set_iterative(ResolverTransport::DUAL);
        let a = g.resolve(&Question::new(n("www.dual.test"), RType::Aaaa), 0);
        assert!(a.is_positive());
        assert_eq!(
            a.records[0].data,
            RData::Aaaa("2001:db8::80".parse().unwrap())
        );
        assert_eq!(g.referrals, 1);
    }

    #[test]
    fn iterative_v6_only_fails_on_v4_only_glue_with_reason() {
        let mut g = delegated_internet();
        g.set_iterative(ResolverTransport::V6_ONLY);
        let a = g.resolve(&Question::new(n("www.v4only.test"), RType::Aaaa), 0);
        assert_eq!(a.rcode, Rcode::ServFail);
        assert_eq!(a.reason, Some(ResolutionFailure::NoAaaaGlue));
        // The child zone HAS the AAAA — the resolver just can't ask for it.
        let mut dual = delegated_internet();
        dual.set_iterative(ResolverTransport::DUAL);
        let ok = dual.resolve(&Question::new(n("www.v4only.test"), RType::Aaaa), 0);
        assert!(ok.is_positive());
    }

    #[test]
    fn iterative_glueless_cut_uses_tree_addresses() {
        let mut g = delegated_internet();
        g.set_iterative(ResolverTransport::V6_ONLY);
        // glueless.test's NS is ns2.dual.test, whose AAAA lives in dual.test.
        let a = g.resolve(&Question::new(n("www.glueless.test"), RType::Aaaa), 0);
        assert!(a.is_positive());
        // A v4-only resolver finds no usable address for it anywhere.
        let mut v4 = delegated_internet();
        v4.set_iterative(ResolverTransport::V4_ONLY);
        let bad = v4.resolve(&Question::new(n("www.glueless.test"), RType::Aaaa), 0);
        assert_eq!(bad.reason, Some(ResolutionFailure::NoAaaaGlue));
    }

    #[test]
    fn iterative_matches_flat_outside_delegations() {
        let mut flat = delegated_internet();
        let mut iter = delegated_internet();
        iter.set_iterative(ResolverTransport::DUAL);
        for (name, rtype) in [
            ("www.dual.test", RType::Aaaa),
            ("www.v4only.test", RType::A),
            ("missing.test", RType::A),
            ("www.dual.test", RType::A), // NODATA
        ] {
            let q = Question::new(n(name), rtype);
            let a = flat.resolve(&q, 0);
            let b = iter.resolve(&q, 0);
            assert_eq!((a.rcode, a.records), (b.rcode, b.records), "{name}");
        }
    }

    #[test]
    fn iterative_referral_chain_is_capped() {
        let mut g = GlobalDns::new();
        // d1.test ← d2.d1.test ← … each zone delegating one level deeper,
        // every step with dual glue, one level past the budget.
        let depth = MAX_REFERRALS + 2;
        let mut origin = String::from("test");
        let mut parent = Zone::new(n("test"), 300);
        for i in 1..=depth {
            let child_origin = format!("d{i}.{origin}");
            parent.add_str(
                &format!("d{i}"),
                3600,
                RData::Ns(n(&format!("ns.{child_origin}"))),
            );
            parent.add_str(
                &format!("ns.d{i}"),
                3600,
                RData::Aaaa("2001:db8::53".parse().unwrap()),
            );
            g.add_zone(parent);
            parent = Zone::new(n(&child_origin), 300);
            origin = child_origin;
        }
        parent.add_str("www", 120, RData::Aaaa("2001:db8::80".parse().unwrap()));
        g.add_zone(parent);
        g.set_iterative(ResolverTransport::DUAL);
        let a = g.resolve(&Question::new(n(&format!("www.{origin}")), RType::Aaaa), 0);
        assert_eq!(a.rcode, Rcode::ServFail);
        assert_eq!(a.reason, Some(ResolutionFailure::ReferralLoop));
    }

    #[test]
    fn reset_clears_counters_but_keeps_mode() {
        let mut g = delegated_internet();
        g.set_iterative(ResolverTransport::V6_ONLY);
        g.resolve(&Question::new(n("www.dual.test"), RType::Aaaa), 0);
        assert!(g.queries > 0);
        g.reset();
        assert_eq!((g.queries, g.referrals), (0, 0));
        assert_eq!(g.iterative_transport(), Some(ResolverTransport::V6_ONLY));
    }

    #[test]
    fn answer_constructors() {
        assert!(Answer::positive(vec![Record::new(
            n("x.test"),
            1,
            RData::A(Ipv4Addr::LOCALHOST)
        )])
        .is_positive());
        assert!(!Answer::servfail().is_positive());
    }
}
