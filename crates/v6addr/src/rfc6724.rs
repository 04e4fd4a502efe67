//! RFC 6724 — default address selection.
//!
//! This is the mechanism behind the paper's central claim that the poisoned
//! IPv4 A records have "minimal impact to RFC8925 and dual-stack clients":
//! when a resolver hands back both a valid AAAA and a poisoned A, destination
//! address selection orders the IPv6 destination first (precedence 40 vs 35
//! for IPv4-mapped), so a host with working IPv6 never contacts the poisoned
//! IPv4 address.
//!
//! IPv4 destinations and sources are represented as IPv4-mapped IPv6
//! addresses (`::ffff:a.b.c.d`), exactly as RFC 6724 §2 prescribes.

use crate::class::{v4_class, v6_class, Scope, V4Class, V6Class};
use crate::prefix::Ipv6Prefix;
use std::cmp::Ordering;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Map an IPv4 address into RFC 6724's IPv4-mapped representation.
pub fn mapped(v4: Ipv4Addr) -> Ipv6Addr {
    v4.to_ipv6_mapped()
}

/// Scope of an address under RFC 6724 §3.1–3.2 (IPv4-mapped included).
pub fn scope_of(a: Ipv6Addr) -> Scope {
    match v6_class(a) {
        V6Class::V4Mapped(v4) => match v4_class(v4) {
            V4Class::Loopback | V4Class::LinkLocal => Scope::LinkLocal,
            _ => Scope::Global,
        },
        other => other.scope(),
    }
}

/// One row of the RFC 6724 §2.1 policy table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyEntry {
    /// Covered prefix.
    pub prefix: Ipv6Prefix,
    /// Precedence (higher preferred for destinations).
    pub precedence: u8,
    /// Label (sources and destinations with equal labels pair up).
    pub label: u8,
}

/// The configurable policy table.
#[derive(Debug, Clone)]
pub struct PolicyTable {
    entries: Vec<PolicyEntry>,
}

impl Default for PolicyTable {
    fn default() -> Self {
        Self::rfc6724_default()
    }
}

impl PolicyTable {
    /// The default table of RFC 6724 §2.1. Every host builds one, so the
    /// rows are constant addresses and lengths, never parsed strings.
    pub fn rfc6724_default() -> Self {
        let row = |addr: Ipv6Addr, len: u8, precedence: u8, label: u8| PolicyEntry {
            prefix: Ipv6Prefix::new(addr, len).expect("static policy prefix"),
            precedence,
            label,
        };
        let v6 = |first: u16| Ipv6Addr::new(first, 0, 0, 0, 0, 0, 0, 0);
        PolicyTable {
            entries: vec![
                row(Ipv6Addr::LOCALHOST, 128, 50, 0),
                row(Ipv6Addr::UNSPECIFIED, 0, 40, 1),
                row(Ipv6Addr::new(0, 0, 0, 0, 0, 0xffff, 0, 0), 96, 35, 4),
                row(v6(0x2002), 16, 30, 2),
                row(v6(0x2001), 32, 5, 5),
                row(v6(0xfc00), 7, 3, 13),
                row(Ipv6Addr::UNSPECIFIED, 96, 1, 3),
                row(v6(0xfec0), 10, 1, 11),
                row(v6(0x3ffe), 16, 1, 12),
            ],
        }
    }

    /// Add (or override) a row; longest-prefix match means a more specific
    /// row wins automatically.
    pub fn push(&mut self, entry: PolicyEntry) {
        self.entries.push(entry);
    }

    /// Longest-prefix lookup returning `(precedence, label)`.
    pub fn lookup(&self, addr: Ipv6Addr) -> (u8, u8) {
        self.entries
            .iter()
            .filter(|e| e.prefix.contains(addr))
            .max_by_key(|e| e.prefix.len())
            .map(|e| (e.precedence, e.label))
            .unwrap_or((40, 1))
    }

    /// Precedence of `addr`.
    pub fn precedence(&self, addr: Ipv6Addr) -> u8 {
        self.lookup(addr).0
    }

    /// Label of `addr`.
    pub fn label(&self, addr: Ipv6Addr) -> u8 {
        self.lookup(addr).1
    }
}

/// A candidate source address attached to an interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateSource {
    /// The address (IPv4 sources in mapped form).
    pub addr: Ipv6Addr,
    /// Outgoing interface index the address is configured on.
    pub iface: u32,
    /// Prefix length of the subnet the address belongs to.
    pub prefix_len: u8,
    /// Deprecated (preferred lifetime expired)?
    pub deprecated: bool,
    /// Temporary (RFC 8981 privacy) address?
    pub temporary: bool,
    /// Mobile-IP home address?
    pub home: bool,
}

impl CandidateSource {
    /// A plain, preferred, non-temporary address on interface `iface`.
    pub fn plain(addr: Ipv6Addr, iface: u32, prefix_len: u8) -> Self {
        CandidateSource {
            addr,
            iface,
            prefix_len,
            deprecated: false,
            temporary: false,
            home: false,
        }
    }
}

/// RFC 6724 §2.2 CommonPrefixLen: leading bits shared by `s` and `d`,
/// clamped to the source's own prefix length.
fn common_prefix_len(s: &CandidateSource, d: Ipv6Addr) -> u8 {
    Ipv6Prefix::common_prefix_len(s.addr, d).min(s.prefix_len)
}

/// RFC 6724 §5 source-address selection: pick the best source among
/// `candidates` for destination `dst` leaving via `out_iface`.
///
/// Returns `None` when no candidate is of the same family-compatibility
/// class (an IPv4-mapped destination can only use IPv4-mapped sources and
/// vice versa) — the situation an IPv4-only host faces for every AAAA
/// answer, and an RFC 8925 client faces for every poisoned A answer.
pub fn select_source(
    dst: Ipv6Addr,
    candidates: &[CandidateSource],
    out_iface: u32,
    table: &PolicyTable,
) -> Option<CandidateSource> {
    let dst_is_v4 = matches!(v6_class(dst), V6Class::V4Mapped(_));
    let mut best: Option<CandidateSource> = None;
    for &cand in candidates {
        let cand_is_v4 = matches!(v6_class(cand.addr), V6Class::V4Mapped(_));
        if cand_is_v4 != dst_is_v4 {
            continue;
        }
        best = Some(match best {
            None => cand,
            Some(cur) => {
                if source_beats(cand, cur, dst, out_iface, table) {
                    cand
                } else {
                    cur
                }
            }
        });
    }
    best
}

/// Do the §5 rules prefer `a` over `b` for `dst`?
fn source_beats(
    a: CandidateSource,
    b: CandidateSource,
    dst: Ipv6Addr,
    out_iface: u32,
    table: &PolicyTable,
) -> bool {
    // Rule 1: prefer same address.
    if a.addr == dst || b.addr == dst {
        return a.addr == dst;
    }
    // Rule 2: prefer appropriate scope.
    let (sa, sb, sd) = (scope_of(a.addr), scope_of(b.addr), scope_of(dst));
    if sa != sb {
        // If Scope(A) < Scope(B): prefer B when Scope(A) < Scope(D), else A.
        if sa < sb {
            return sa >= sd;
        } else {
            return sb < sd;
        }
    }
    // Rule 3: avoid deprecated addresses.
    if a.deprecated != b.deprecated {
        return !a.deprecated;
    }
    // Rule 4: prefer home addresses.
    if a.home != b.home {
        return a.home;
    }
    // Rule 5: prefer the outgoing interface.
    let (ia, ib) = (a.iface == out_iface, b.iface == out_iface);
    if ia != ib {
        return ia;
    }
    // Rule 6: prefer matching label.
    let dl = table.label(dst);
    let (la, lb) = (table.label(a.addr) == dl, table.label(b.addr) == dl);
    if la != lb {
        return la;
    }
    // Rule 7: prefer temporary addresses.
    if a.temporary != b.temporary {
        return a.temporary;
    }
    // Rule 8: prefer longest matching prefix.
    common_prefix_len(&a, dst) > common_prefix_len(&b, dst)
}

/// Per-destination attributes the host stack knows before sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestCandidate {
    /// Destination (IPv4 in mapped form).
    pub addr: Ipv6Addr,
    /// Is there a route at all (interface up, default route present)?
    pub reachable: bool,
    /// Would reaching it use an encapsulating transition transport
    /// (6to4/Teredo/tunnel)? Rule 7 avoids these.
    pub encapsulated: bool,
}

impl DestCandidate {
    /// A reachable, native-transport destination.
    pub fn plain(addr: Ipv6Addr) -> Self {
        DestCandidate {
            addr,
            reachable: true,
            encapsulated: false,
        }
    }

    /// A reachable IPv4 destination in mapped form.
    pub fn v4(addr: Ipv4Addr) -> Self {
        Self::plain(mapped(addr))
    }
}

/// RFC 6724 §6 destination-address ordering. `sources` is the host's full
/// candidate set; `out_iface` the interface the route would use. Returns the
/// destinations most-preferred first (stable for ties — rule 10).
///
/// ```
/// use v6addr::rfc6724::{sort_destinations, CandidateSource, DestCandidate, PolicyTable};
///
/// // A dual-stack host receives a genuine AAAA and a poisoned A record:
/// let sources = [
///     CandidateSource::plain("2607:fb90::50".parse().unwrap(), 1, 64),
///     CandidateSource::plain(v6addr::rfc6724::mapped("192.168.12.50".parse().unwrap()), 1, 128),
/// ];
/// let dests = [
///     DestCandidate::v4("23.153.8.71".parse().unwrap()),        // poisoned A
///     DestCandidate::plain("2001:4810:0:3::71".parse().unwrap()), // real AAAA
/// ];
/// let ordered = sort_destinations(&dests, &sources, 1, &PolicyTable::default());
/// // IPv6 wins (precedence 40 beats 35): the poisoning is invisible.
/// assert_eq!(ordered[0].addr, "2001:4810:0:3::71".parse::<std::net::Ipv6Addr>().unwrap());
/// ```
pub fn sort_destinations(
    dests: &[DestCandidate],
    sources: &[CandidateSource],
    out_iface: u32,
    table: &PolicyTable,
) -> Vec<DestCandidate> {
    let mut out = dests.to_vec();
    out.sort_by(|&da, &db| dest_order(da, db, sources, out_iface, table));
    out
}

fn dest_order(
    da: DestCandidate,
    db: DestCandidate,
    sources: &[CandidateSource],
    out_iface: u32,
    table: &PolicyTable,
) -> Ordering {
    let sa = select_source(da.addr, sources, out_iface, table);
    let sb = select_source(db.addr, sources, out_iface, table);
    // Rule 1: avoid unusable destinations (unreachable or no source).
    let ua = da.reachable && sa.is_some();
    let ub = db.reachable && sb.is_some();
    match (ua, ub) {
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        (false, false) => return Ordering::Equal,
        (true, true) => {}
    }
    let (sa, sb) = (sa.expect("checked"), sb.expect("checked"));
    // Rule 2: prefer matching scope.
    let ma = scope_of(da.addr) == scope_of(sa.addr);
    let mb = scope_of(db.addr) == scope_of(sb.addr);
    if ma != mb {
        return if ma {
            Ordering::Less
        } else {
            Ordering::Greater
        };
    }
    // Rule 3: avoid deprecated sources.
    if sa.deprecated != sb.deprecated {
        return if sa.deprecated {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    // Rule 4: prefer home-address sources.
    if sa.home != sb.home {
        return if sa.home {
            Ordering::Less
        } else {
            Ordering::Greater
        };
    }
    // Rule 5: prefer matching label.
    let la = table.label(sa.addr) == table.label(da.addr);
    let lb = table.label(sb.addr) == table.label(db.addr);
    if la != lb {
        return if la {
            Ordering::Less
        } else {
            Ordering::Greater
        };
    }
    // Rule 6: prefer higher precedence.
    let (pa, pb) = (table.precedence(da.addr), table.precedence(db.addr));
    if pa != pb {
        return pb.cmp(&pa);
    }
    // Rule 7: prefer native transport.
    if da.encapsulated != db.encapsulated {
        return if da.encapsulated {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    // Rule 8: prefer smaller scope.
    let (sca, scb) = (scope_of(da.addr), scope_of(db.addr));
    if sca != scb {
        return sca.cmp(&scb);
    }
    // Rule 9: longest matching prefix.
    let ca = common_prefix_len(&sa, da.addr);
    let cb = common_prefix_len(&sb, db.addr);
    if ca != cb {
        return cb.cmp(&ca);
    }
    // Rule 10: otherwise leave order unchanged (sort_by is stable).
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_equals_the_parsed_rfc_rows() {
        let parsed: Vec<PolicyEntry> = [
            ("::1/128", 50, 0),
            ("::/0", 40, 1),
            ("::ffff:0:0/96", 35, 4),
            ("2002::/16", 30, 2),
            ("2001::/32", 5, 5),
            ("fc00::/7", 3, 13),
            ("::/96", 1, 3),
            ("fec0::/10", 1, 11),
            ("3ffe::/16", 1, 12),
        ]
        .into_iter()
        .map(|(p, precedence, label)| PolicyEntry {
            prefix: p.parse().unwrap(),
            precedence,
            label,
        })
        .collect();
        assert_eq!(PolicyTable::rfc6724_default().entries, parsed);
        assert_eq!(PolicyTable::default().entries, parsed);
    }

    fn src(addr: &str, iface: u32, plen: u8) -> CandidateSource {
        CandidateSource::plain(addr.parse().unwrap(), iface, plen)
    }

    fn v4src(addr: &str, iface: u32) -> CandidateSource {
        CandidateSource::plain(mapped(addr.parse().unwrap()), iface, 128)
    }

    /// The paper's core mechanism: dual-stack host receives poisoned A
    /// (ip6.me's 23.153.8.71) and a valid AAAA — IPv6 must sort first.
    #[test]
    fn dual_stack_prefers_aaaa_over_poisoned_a() {
        let table = PolicyTable::default();
        let sources = [
            src("2607:fb90:9bda:a425:eccc:47e6:51a9:6090", 1, 64),
            v4src("192.168.12.50", 1),
        ];
        let dests = [
            DestCandidate::v4("23.153.8.71".parse().unwrap()), // poisoned A
            DestCandidate::plain("2600:1f18::beef".parse().unwrap()), // real AAAA
        ];
        let ordered = sort_destinations(&dests, &sources, 1, &table);
        assert_eq!(
            ordered[0].addr,
            "2600:1f18::beef".parse::<Ipv6Addr>().unwrap(),
            "rule 6 precedence 40 (v6) must beat 35 (v4-mapped)"
        );
    }

    /// An IPv4-only client (Nintendo Switch, Fig. 6) has no IPv6 source, so
    /// the AAAA destination is unusable and the poisoned A wins — delivering
    /// the intervention.
    #[test]
    fn v4_only_client_falls_through_to_poisoned_a() {
        let table = PolicyTable::default();
        let sources = [v4src("192.168.12.60", 1)];
        let dests = [
            DestCandidate::plain("2600:1f18::beef".parse().unwrap()),
            DestCandidate::v4("23.153.8.71".parse().unwrap()),
        ];
        let ordered = sort_destinations(&dests, &sources, 1, &table);
        assert_eq!(ordered[0].addr, mapped("23.153.8.71".parse().unwrap()));
    }

    /// An RFC 8925 client that disabled IPv4 has no v4 source: poisoned A
    /// answers are unusable and simply ignored.
    #[test]
    fn rfc8925_client_ignores_poisoned_a() {
        let table = PolicyTable::default();
        let sources = [src("2607:fb90:9bda:a425::50", 1, 64)];
        let dests = [
            DestCandidate::v4("23.153.8.71".parse().unwrap()),
            DestCandidate::plain("64:ff9b::be5c:9e04".parse().unwrap()),
        ];
        let ordered = sort_destinations(&dests, &sources, 1, &table);
        assert_eq!(
            ordered[0].addr,
            "64:ff9b::be5c:9e04".parse::<Ipv6Addr>().unwrap()
        );
    }

    #[test]
    fn source_rule1_same_address() {
        let table = PolicyTable::default();
        let d: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let picked = select_source(
            d,
            &[src("2001:db8::1", 1, 64), src("2001:db8::2", 1, 64)],
            1,
            &table,
        )
        .unwrap();
        assert_eq!(picked.addr, d);
    }

    #[test]
    fn source_rule2_appropriate_scope() {
        // Destination is global; a link-local source must lose to a GUA.
        let table = PolicyTable::default();
        let picked = select_source(
            "2600::1".parse().unwrap(),
            &[src("fe80::1", 1, 64), src("2607:fb90::5", 1, 64)],
            1,
            &table,
        )
        .unwrap();
        assert_eq!(picked.addr, "2607:fb90::5".parse::<Ipv6Addr>().unwrap());
        // Destination is link-local: the link-local source wins (smallest
        // sufficient scope).
        let picked = select_source(
            "fe80::9".parse().unwrap(),
            &[src("fe80::1", 1, 64), src("2607:fb90::5", 1, 64)],
            1,
            &table,
        )
        .unwrap();
        assert_eq!(picked.addr, "fe80::1".parse::<Ipv6Addr>().unwrap());
    }

    #[test]
    fn source_rule3_avoid_deprecated() {
        let table = PolicyTable::default();
        let mut old = src("2607:fb90::a", 1, 64);
        old.deprecated = true;
        let fresh = src("2607:fb90::b", 1, 64);
        let picked = select_source("2600::1".parse().unwrap(), &[old, fresh], 1, &table).unwrap();
        assert_eq!(picked.addr, fresh.addr);
    }

    #[test]
    fn source_rule5_prefer_outgoing_interface() {
        let table = PolicyTable::default();
        let a = src("2607:fb90::a", 1, 64);
        let b = src("2607:fb90::b", 2, 64);
        let picked = select_source("2600::1".parse().unwrap(), &[a, b], 2, &table).unwrap();
        assert_eq!(picked.addr, b.addr);
    }

    #[test]
    fn source_rule6_matching_label_ula_for_ula() {
        // ULA destination should take the ULA source (label 13), not the GUA
        // (label 1) — this is how fd00:976a::9 DNS traffic picks the ULA.
        let table = PolicyTable::default();
        let gua = src("2607:fb90::a", 1, 64);
        let ula = src("fd00:976a::50", 1, 64);
        let picked =
            select_source("fd00:976a::9".parse().unwrap(), &[gua, ula], 1, &table).unwrap();
        assert_eq!(picked.addr, ula.addr);
    }

    #[test]
    fn source_rule7_prefer_temporary() {
        let table = PolicyTable::default();
        let stable = src("2607:fb90::a", 1, 64);
        let mut temp = src("2607:fb90::b", 1, 64);
        temp.temporary = true;
        let picked = select_source("2600::1".parse().unwrap(), &[stable, temp], 1, &table).unwrap();
        assert_eq!(picked.addr, temp.addr);
    }

    #[test]
    fn source_rule8_longest_prefix() {
        let table = PolicyTable::default();
        let near = src("2001:db8:1:1::5", 1, 64);
        let far = src("2001:db9::5", 1, 64);
        let picked =
            select_source("2001:db8:1:1::99".parse().unwrap(), &[far, near], 1, &table).unwrap();
        assert_eq!(picked.addr, near.addr);
    }

    #[test]
    fn family_mismatch_returns_none() {
        let table = PolicyTable::default();
        // Only v4 sources for a v6 destination:
        assert!(select_source(
            "2600::1".parse().unwrap(),
            &[v4src("192.168.1.5", 1)],
            1,
            &table
        )
        .is_none());
        // Only v6 sources for a v4 destination:
        assert!(select_source(
            mapped("8.8.8.8".parse().unwrap()),
            &[src("2600::5", 1, 64)],
            1,
            &table
        )
        .is_none());
    }

    #[test]
    fn dest_rule1_unreachable_sorts_last() {
        let table = PolicyTable::default();
        let sources = [src("2607:fb90::5", 1, 64), v4src("192.168.1.5", 1)];
        let mut unreachable = DestCandidate::plain("2600::1".parse().unwrap());
        unreachable.reachable = false;
        let dests = [unreachable, DestCandidate::v4("8.8.8.8".parse().unwrap())];
        let ordered = sort_destinations(&dests, &sources, 1, &table);
        assert_eq!(ordered[0].addr, mapped("8.8.8.8".parse().unwrap()));
    }

    #[test]
    fn dest_rule7_native_beats_encapsulated() {
        let table = PolicyTable::default();
        let sources = [src("2607:fb90::5", 1, 64), src("2002:c000:204::1", 1, 16)];
        let mut tun = DestCandidate::plain("2607:aaaa::1".parse().unwrap());
        tun.encapsulated = true;
        let native = DestCandidate::plain("2607:bbbb::1".parse().unwrap());
        let ordered = sort_destinations(&[tun, native], &sources, 1, &table);
        assert_eq!(ordered[0].addr, native.addr);
    }

    #[test]
    fn dest_rule10_stable_for_ties() {
        let table = PolicyTable::default();
        let sources = [src("2607:fb90::5", 1, 64)];
        let d1 = DestCandidate::plain("2600::1".parse().unwrap());
        let d2 = DestCandidate::plain("2600::2".parse().unwrap());
        let ordered = sort_destinations(&[d1, d2], &sources, 1, &table);
        assert_eq!(ordered[0].addr, d1.addr, "ties keep resolver order");
        let ordered = sort_destinations(&[d2, d1], &sources, 1, &table);
        assert_eq!(ordered[0].addr, d2.addr);
    }

    #[test]
    fn policy_lookup_longest_match() {
        let table = PolicyTable::default();
        assert_eq!(table.lookup("::1".parse().unwrap()), (50, 0));
        assert_eq!(table.lookup("2600::1".parse().unwrap()), (40, 1));
        assert_eq!(table.lookup("::ffff:1.2.3.4".parse().unwrap()), (35, 4));
        assert_eq!(table.lookup("2002::1".parse().unwrap()), (30, 2));
        assert_eq!(table.lookup("2001::1".parse().unwrap()), (5, 5));
        assert_eq!(table.lookup("fd00:976a::9".parse().unwrap()), (3, 13));
        assert_eq!(table.lookup("fec0::1".parse().unwrap()), (1, 11));
    }

    #[test]
    fn custom_policy_row_overrides() {
        // An operator can raise NAT64-prefix precedence (RFC 8880-style).
        let mut table = PolicyTable::default();
        table.push(PolicyEntry {
            prefix: "64:ff9b::/96".parse().unwrap(),
            precedence: 45,
            label: 1,
        });
        assert_eq!(table.precedence("64:ff9b::1.2.3.4".parse().unwrap()), 45);
    }
}
