//! IPv6-only client counting (paper §III.A): SCinet wants "an accurate
//! IPv6-only client count for future research papers", because SC23's naive
//! count (everyone associated to the SSID) included dual-stack devices
//! doing IPv4-literal traffic (the Echolink laptop of Fig. 2).

use crate::topology::Testbed;
use v6host::stack::Host;
use v6sim::engine::Node;

/// One client's census classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusEntry {
    /// Host display name.
    pub name: String,
    /// OS profile name.
    pub os: String,
    /// Has working global IPv6.
    pub has_v6: bool,
    /// Has an active IPv4 data path.
    pub has_v4: bool,
    /// RFC 8925 engaged (IPv4 administratively off).
    pub rfc8925_engaged: bool,
    /// Counted by the SC23-style naive census (associated to the SSID).
    pub naive_counted: bool,
    /// Counted by the SC24-style accurate census (genuinely IPv6-only).
    pub accurate_counted: bool,
}

/// Aggregate counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusSummary {
    /// Total clients associated.
    pub associated: usize,
    /// SC23-style count ("IPv6-only clients" = everyone on the SSID).
    pub naive_v6only: usize,
    /// SC24-style count (IPv6 working AND no IPv4 data path).
    pub accurate_v6only: usize,
    /// Clients that still hold an IPv4 path (dual-stack or v4-only).
    pub with_v4_path: usize,
}

/// The SC24 census rule: IPv6 must work and no IPv4 data path may
/// remain. Shared by the multi-host [`census`] and the single-cell
/// observation, so the two cannot disagree.
pub(crate) fn accurate_counted(has_v6: bool, has_v4: bool) -> bool {
    has_v6 && !has_v4
}

/// Classify every attached client.
pub fn census(tb: &mut Testbed) -> (Vec<CensusEntry>, CensusSummary) {
    let hosts = tb.hosts.clone();
    let mut entries = Vec::with_capacity(hosts.len());
    for id in hosts {
        let h: &mut Host = tb.host(id);
        let has_v6 = h.v6_global_active();
        let has_v4 = h.v4_active();
        let entry = CensusEntry {
            name: Node::name(h).to_string(),
            os: h.profile.name.clone(),
            has_v6,
            has_v4,
            rfc8925_engaged: h.v6only_mode,
            // SC23: associated == counted.
            naive_counted: true,
            accurate_counted: accurate_counted(has_v6, has_v4),
        };
        entries.push(entry);
    }
    let summary = CensusSummary {
        associated: entries.len(),
        naive_v6only: entries.iter().filter(|e| e.naive_counted).count(),
        accurate_v6only: entries.iter().filter(|e| e.accurate_counted).count(),
        with_v4_path: entries.iter().filter(|e| e.has_v4).count(),
    };
    (entries, summary)
}
