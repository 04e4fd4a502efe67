//! One callable experiment per paper figure/table (DESIGN.md §3 index).
//!
//! Every function builds a fresh deterministic testbed, drives the client
//! tasks the paper describes, and returns a structured result with a
//! `render()` that prints the same rows the paper reports. The integration
//! tests under `/tests` assert on these results; [`paper_rows`] lists
//! every rendered row, which `v6report` commits as the
//! `reports/experiments.json` golden and EXPERIMENTS.md quotes.

use crate::census::{census, CensusSummary};
use crate::scenario::PoisonVariant;
use crate::topology::{Testbed, TestbedConfig};
use crate::zones::{addrs, internet_dns};
use std::net::{IpAddr, Ipv6Addr};
use v6dns::codec::{Question, RData, RType, Rcode};
use v6dns::dns64::Dns64;
use v6dns::poison::{PoisonPolicy, PoisonedResolver};
use v6dns::server::Resolver;
use v6dns::zone::Zone;
use v6host::profiles::OsProfile;
use v6host::tasks::{AppTask, TaskOutcome};
use v6host::vpn::VpnConfig;
use v6portal::scoring::{score_legacy, score_rfc8925_aware, ConnInfo, Score, SubtestResults};

fn browse(name: &str) -> AppTask {
    AppTask::Browse {
        name: name.parse().expect("static name"),
        path: "/".into(),
    }
}

/// Outcome → `ConnInfo` for the scoring engine.
fn conn_info(o: &TaskOutcome) -> Option<ConnInfo> {
    match o {
        TaskOutcome::HttpOk { status, peer, .. } => Some(ConnInfo {
            peer: *peer,
            status: *status,
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// FIG 2 — inadvertent IPv4 usage / census motivation
// ---------------------------------------------------------------------

/// Result of the Fig. 2 reproduction.
#[derive(Debug)]
pub struct Fig2Result {
    /// The dual-stack laptop reached the IPv4-literal service.
    pub echolink_worked: bool,
    /// It was counted as an IPv6-only client by the naive census.
    pub naive_counted: bool,
    /// The accurate census excludes it.
    pub accurate_counted: bool,
}

/// Fig. 2: a dual-stack Windows laptop runs an IPv4-literal application on
/// the v6 SSID and is wrongly counted by the SC23 census.
pub fn fig2_literal_v4_census() -> Fig2Result {
    let mut tb = Testbed::build(TestbedConfig {
        // SC23 condition: no intervention.
        poison: PoisonPolicy::Off,
        ..TestbedConfig::default()
    });
    let laptop = tb.add_host(OsProfile::windows_10());
    tb.boot();
    let o = tb.run_task(
        laptop,
        AppTask::LiteralV4 {
            addr: addrs::ECHOLINK_V4.parse().expect("static"),
            port: 5198,
        },
        20,
    );
    let (entries, _) = census(&mut tb);
    let e = &entries[0];
    Fig2Result {
        echolink_worked: o.is_success(),
        naive_counted: e.naive_counted,
        accurate_counted: e.accurate_counted,
    }
}

impl Fig2Result {
    /// Paper-style row.
    pub fn render(&self) -> String {
        format!(
            "FIG2 dual-stack laptop: echolink(v4 literal)={} naive-census-counted={} accurate-census-counted={}",
            self.echolink_worked, self.naive_counted, self.accurate_counted
        )
    }
}

// ---------------------------------------------------------------------
// FIG 3 — the 5G gateway's dead ULA RDNSS and the managed-switch fix
// ---------------------------------------------------------------------

/// Result of the Fig. 3 reproduction.
#[derive(Debug)]
pub struct Fig3Result {
    /// Managed switch deployed?
    pub managed_switch: bool,
    /// RDNSS entries the client learned.
    pub rdnss: Vec<Ipv6Addr>,
    /// DNS queries the client sent over IPv6.
    pub dns_v6_queries: u64,
    /// Packets the gateway dropped for lack of a route (dead ULA traffic).
    pub gateway_no_route_drops: u64,
    /// DNS queries the healthy Pi answered over IPv6.
    pub pi_v6_answers: u64,
    /// The browse outcome.
    pub browse: TaskOutcome,
}

/// Fig. 3: without the managed switch, the advertised ULA resolvers are
/// dead (queries die at the gateway); with it, `fd00:976a::9` answers.
pub fn fig3_ra_workaround(managed_switch: bool) -> Fig3Result {
    let mut tb = Testbed::build(TestbedConfig {
        managed_switch,
        pi_dhcp: managed_switch, // the Pi deploys together with the switch
        ..TestbedConfig::default()
    });
    let client = tb.add_host(OsProfile::linux());
    tb.boot();
    let before_drops = tb.gateway().no_route_drops;
    let browse = tb.run_task(client, browse("ip6.me"), 20);
    let h = tb.host(client);
    let rdnss = h.rdnss.clone();
    let dns_v6 = h.dns_via_v6;
    let drops = tb.gateway().no_route_drops - before_drops;
    let pi_answers = tb.pi_server().v6_queries;
    Fig3Result {
        managed_switch,
        rdnss,
        dns_v6_queries: dns_v6,
        gateway_no_route_drops: drops,
        pi_v6_answers: pi_answers,
        browse,
    }
}

impl Fig3Result {
    /// Paper-style row.
    pub fn render(&self) -> String {
        format!(
            "FIG3 managed_switch={} rdnss={:?} v6-dns-queries={} dead-drops={} pi-answers={} browse-ok={}",
            self.managed_switch,
            self.rdnss,
            self.dns_v6_queries,
            self.gateway_no_route_drops,
            self.pi_v6_answers,
            self.browse.is_success()
        )
    }
}

// ---------------------------------------------------------------------
// FIG 4 — the full-topology client matrix
// ---------------------------------------------------------------------

/// One client row of the Fig. 4 matrix.
#[derive(Debug)]
pub struct MatrixRow {
    /// OS name.
    pub os: String,
    /// RFC 8925 engaged after boot.
    pub rfc8925_engaged: bool,
    /// Holds an IPv4 data path after boot.
    pub has_v4: bool,
    /// Browse of the IPv4-only sc24 site.
    pub sc24: TaskOutcome,
    /// Browse of dual-stack ip6.me.
    pub ip6me: TaskOutcome,
    /// Was the client redirected to the intervention page?
    pub intervened: bool,
}

impl MatrixRow {
    /// Paper-style row.
    pub fn render(&self) -> String {
        let fam = |o: &TaskOutcome| match o.peer() {
            Some(IpAddr::V6(_)) => "v6",
            Some(IpAddr::V4(_)) => "v4",
            None => "fail",
        };
        format!(
            "FIG4 {:<28} rfc8925={:<5} v4-path={:<5} sc24=via-{:<4} ip6me=via-{:<4} intervened={}",
            self.os,
            self.rfc8925_engaged,
            self.has_v4,
            fam(&self.sc24),
            fam(&self.ip6me),
            self.intervened
        )
    }
}

/// Fig. 4: run the canonical client mix through the full topology.
pub fn fig4_topology_matrix() -> Vec<MatrixRow> {
    let profiles = vec![
        OsProfile::macos(),
        OsProfile::windows_10(),
        OsProfile::linux(),
        OsProfile::nintendo_switch(),
    ];
    matrix_for(profiles)
}

/// Shared machinery for FIG4 and TBL-A.
pub fn matrix_for(profiles: Vec<OsProfile>) -> Vec<MatrixRow> {
    let mut rows = Vec::new();
    for profile in profiles {
        let mut tb = Testbed::paper_default();
        let os = profile.name.clone();
        let id = tb.add_host(profile);
        tb.boot();
        let sc24 = tb.run_task(id, browse("sc24.supercomputing.org"), 25);
        let ip6me = tb.run_task(id, browse("ip6.me"), 25);
        let h = tb.host(id);
        let intervened = matches!(
            (&sc24, &ip6me),
            (TaskOutcome::HttpOk { body, .. }, _) | (_, TaskOutcome::HttpOk { body, .. })
                if body.contains("helpdesk")
        );
        rows.push(MatrixRow {
            os,
            rfc8925_engaged: h.v6only_mode,
            has_v4: h.v4_active(),
            sc24,
            ip6me,
            intervened,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// FIG 5 / ABL-2 — mirror scoring
// ---------------------------------------------------------------------

/// Result of a mirror test run.
#[derive(Debug)]
pub struct ScoringResult {
    /// OS under test.
    pub os: String,
    /// Raw per-subtest outcomes.
    pub subtests: SubtestResults,
    /// Legacy (SC23) score.
    pub legacy: Score,
    /// Revised (RFC 8925-aware) score.
    pub revised: Score,
}

impl ScoringResult {
    /// Paper-style row.
    pub fn render(&self) -> String {
        format!(
            "SCORE {:<28} legacy={}/10 revised={}/10 ({})",
            self.os, self.legacy.points, self.revised.points, self.revised.verdict
        )
    }
}

/// Run the four mirror subtests on a client and score them both ways.
pub fn run_mirror_test(profile: OsProfile, poison: PoisonPolicy) -> ScoringResult {
    let mut tb = Testbed::build(TestbedConfig {
        poison,
        ..TestbedConfig::default()
    });
    let os = profile.name.clone();
    let id = tb.add_host(profile);
    tb.boot();
    let ds = tb.run_task(id, browse("ds.mirror.sc24"), 25);
    let v4 = tb.run_task(id, browse("ipv4.mirror.sc24"), 25);
    let v6 = tb.run_task(id, browse("ipv6.mirror.sc24"), 25);
    let mtu = tb.run_task(id, browse("mtu.mirror.sc24"), 25);
    let h = tb.host(id);
    let subtests = SubtestResults {
        dual_stack: conn_info(&ds),
        v4_only: conn_info(&v4),
        v6_only: conn_info(&v6),
        v6_mtu: conn_info(&mtu),
        client_v4_stack_off: h.v6only_mode || !h.profile.ipv4_enabled,
    };
    ScoringResult {
        os,
        legacy: score_legacy(&subtests),
        revised: score_rfc8925_aware(&subtests),
        subtests,
    }
}

/// Fig. 5: the IPv6-disabled Windows 10 client under wildcard-A poisoning
/// erroneously scores 10/10 with the legacy logic.
pub fn fig5_erroneous_score() -> ScoringResult {
    run_mirror_test(
        OsProfile::windows_10_v6_disabled(),
        TestbedConfig::default().poison,
    )
}

// ---------------------------------------------------------------------
// FIG 6 — the Nintendo Switch intervention and its escape hatch
// ---------------------------------------------------------------------

/// Result of the Fig. 6 reproduction.
#[derive(Debug)]
pub struct Fig6Result {
    /// Browse outcome before any user meddling.
    pub intervened: TaskOutcome,
    /// The intervention page body (for display).
    pub page_excerpt: String,
    /// Browse outcome after overriding DNS to a known-good server.
    pub after_override: TaskOutcome,
}

/// Fig. 6: the v4-only Switch lands on the explanation page; changing the
/// DNS resolver to a known-good server restores IPv4 internet.
pub fn fig6_switch_intervention() -> Fig6Result {
    let mut tb = Testbed::paper_default();
    let id = tb.add_host(OsProfile::nintendo_switch());
    tb.boot();
    let intervened = tb.run_task(id, browse("sc24.supercomputing.org"), 25);
    let page_excerpt = match &intervened {
        TaskOutcome::HttpOk { body, .. } => body
            .lines()
            .find(|l| l.contains("IPv6"))
            .unwrap_or_default()
            .to_string(),
        _ => String::new(),
    };
    // The user types a public resolver into the console's network settings.
    tb.host(id).dns_override = Some(IpAddr::V4(addrs::PUBLIC_DNS_V4.parse().expect("static")));
    let after_override = tb.run_task(id, browse("sc24.supercomputing.org"), 25);
    Fig6Result {
        intervened,
        page_excerpt,
        after_override,
    }
}

impl Fig6Result {
    /// Paper-style row.
    pub fn render(&self) -> String {
        format!(
            "FIG6 switch: intervened-peer={:?} page={:?} after-dns-override-peer={:?}",
            self.intervened.peer(),
            self.page_excerpt,
            self.after_override.peer()
        )
    }
}

// ---------------------------------------------------------------------
// FIG 7 — Windows XP through NAT64/DNS64 via the IPv4 resolver
// ---------------------------------------------------------------------

/// Result of the Fig. 7 reproduction.
#[derive(Debug)]
pub struct Fig7Result {
    /// Browse of the v4-only conference site.
    pub browse_sc24: TaskOutcome,
    /// Ping of the v4-only conference site (expected via 64:ff9b::).
    pub ping_sc24: TaskOutcome,
    /// Ping of dual-stack ip6.me (expected via its native AAAA).
    pub ping_ip6me: TaskOutcome,
    /// Queries the client sent over IPv4 transport.
    pub dns_via_v4: u64,
    /// Queries the client sent over IPv6 transport (expected 0 for XP).
    pub dns_via_v6: u64,
}

/// Fig. 7: Windows XP (no IPv6 DNS transport) still operates IPv6-only-ish,
/// because the poisoned IPv4 resolver forwards AAAA queries to the DNS64.
pub fn fig7_winxp_nat64() -> Fig7Result {
    let mut tb = Testbed::paper_default();
    let id = tb.add_host(OsProfile::windows_xp());
    tb.boot();
    let browse_sc24 = tb.run_task(id, browse("sc24.supercomputing.org"), 25);
    let ping_sc24 = tb.run_task(
        id,
        AppTask::Ping {
            name: "sc24.supercomputing.org".parse().expect("static"),
        },
        25,
    );
    let ping_ip6me = tb.run_task(
        id,
        AppTask::Ping {
            name: "ip6.me".parse().expect("static"),
        },
        25,
    );
    let h = tb.host(id);
    Fig7Result {
        browse_sc24,
        ping_sc24,
        ping_ip6me,
        dns_via_v4: h.dns_via_v4,
        dns_via_v6: h.dns_via_v6,
    }
}

impl Fig7Result {
    /// Paper-style row.
    pub fn render(&self) -> String {
        format!(
            "FIG7 winxp: browse-sc24={:?} ping-sc24={:?} ping-ip6me={:?} dns(v4={},v6={})",
            self.browse_sc24.peer(),
            self.ping_sc24.peer(),
            self.ping_ip6me.peer(),
            self.dns_via_v4,
            self.dns_via_v6
        )
    }
}

// ---------------------------------------------------------------------
// FIG 8 — VPN split tunnel vs further IPv4 restriction
// ---------------------------------------------------------------------

/// Result of the Fig. 8 reproduction.
#[derive(Debug)]
pub struct Fig8Result {
    /// Was IPv4 internet blocked?
    pub v4_blocked: bool,
    /// Reaching the split-tunnelled VTC provider (direct IPv4).
    pub vtc_direct: TaskOutcome,
    /// Reaching a tunneled destination (via the concentrator).
    pub tunneled: TaskOutcome,
}

/// Fig. 8: with IPv4 internet intact, the split-tunnelled VTC works; if the
/// testbed further restricts IPv4, both the direct VTC path and the
/// IPv4-only tunnel break.
pub fn fig8_vpn_split_tunnel(v4_blocked: bool) -> Fig8Result {
    let mut tb = Testbed::build(TestbedConfig {
        block_v4_internet: v4_blocked,
        ..TestbedConfig::default()
    });
    let id = tb.add_host(OsProfile::windows_10());
    tb.boot();
    tb.host(id).vpn = Some(VpnConfig::argonne(
        addrs::VPN_V4.parse().expect("static"),
        format!("{}/32", addrs::VTC_V4).parse().expect("static"),
    ));
    let vtc_direct = tb.run_task(
        id,
        AppTask::VpnReach {
            addr: addrs::VTC_V4.parse().expect("static"),
            port: 443,
        },
        25,
    );
    let tunneled = tb.run_task(
        id,
        AppTask::VpnReach {
            addr: "203.0.113.99".parse().expect("static"),
            port: 443,
        },
        25,
    );
    Fig8Result {
        v4_blocked,
        vtc_direct,
        tunneled,
    }
}

impl Fig8Result {
    /// Paper-style row.
    pub fn render(&self) -> String {
        format!(
            "FIG8 v4-blocked={} vtc-direct-ok={} tunneled-ok={}",
            self.v4_blocked,
            self.vtc_direct.is_success(),
            self.tunneled.is_success()
        )
    }
}

// ---------------------------------------------------------------------
// FIG 9 / ABL-1 — non-existent A answers vs RPZ
// ---------------------------------------------------------------------

/// Result of the Fig. 9 reproduction.
#[derive(Debug)]
pub struct Fig9Result {
    /// Policy under test.
    pub policy: &'static str,
    /// nslookup outcome (suffix-first search, A query).
    pub nslookup: TaskOutcome,
    /// ping outcome (AAAA path).
    pub ping: TaskOutcome,
}

/// Fig. 9: under wildcard-A the suffixed non-existent name gets an answer;
/// under the conclusion's RPZ policy it stays NXDOMAIN and the real name
/// answers. Either way the AAAA path works.
pub fn fig9_poisoned_nxdomain(policy: PoisonPolicy) -> Fig9Result {
    let policy_name = match policy {
        PoisonPolicy::WildcardA { .. } => "wildcard-a",
        PoisonPolicy::ResponsePolicyZone { .. } => "rpz",
        PoisonPolicy::Off => "off",
    };
    let mut tb = Testbed::build(TestbedConfig {
        poison: policy,
        ..TestbedConfig::default()
    });
    // Windows 11 behaviour: DHCPv4 resolver preferred — so the poisoned
    // server is actually consulted (Fig. 9's client).
    let id = tb.add_host(OsProfile::windows_11());
    tb.boot();
    let nslookup = tb.run_task(
        id,
        AppTask::Nslookup {
            name: "vpn.anl.gov".parse().expect("static"),
            rtype: RType::A,
        },
        25,
    );
    let ping = tb.run_task(
        id,
        AppTask::Ping {
            name: "vpn.anl.gov".parse().expect("static"),
        },
        25,
    );
    Fig9Result {
        policy: policy_name,
        nslookup,
        ping,
    }
}

impl Fig9Result {
    /// Paper-style row.
    pub fn render(&self) -> String {
        let ns = match &self.nslookup {
            TaskOutcome::DnsAnswer {
                answered_name,
                records,
            } => format!(
                "{} -> {:?}",
                answered_name,
                records.first().map(|r| &r.data)
            ),
            other => format!("{other:?}"),
        };
        format!(
            "FIG9 policy={} nslookup=[{}] ping-peer={:?}",
            self.policy,
            ns,
            self.ping.peer()
        )
    }
}

// ---------------------------------------------------------------------
// FIG 10 — resolver preference determines poisoning exposure
// ---------------------------------------------------------------------

/// One OS row of the Fig. 10 sweep.
#[derive(Debug)]
pub struct Fig10Row {
    /// OS name.
    pub os: String,
    /// DNS queries over IPv6 transport.
    pub dns_via_v6: u64,
    /// DNS queries over IPv4 transport.
    pub dns_via_v4: u64,
    /// A queries the poisoner intercepted for this client.
    pub poisoned_a_answers: u64,
    /// Browse outcome of a dual-stack site.
    pub browse: TaskOutcome,
}

impl Fig10Row {
    /// Paper-style row.
    pub fn render(&self) -> String {
        format!(
            "FIG10 {:<28} dns(v6={},v4={}) poisoned-a={} browse-peer={:?}",
            self.os,
            self.dns_via_v6,
            self.dns_via_v4,
            self.poisoned_a_answers,
            self.browse.peer()
        )
    }
}

/// Fig. 10: Win10/Linux (RDNSS-first) never touch the poisoned resolver;
/// Win11/XP (DHCPv4 resolver) do, yet dual-stack browsing still lands on
/// the genuine AAAA.
pub fn fig10_resolver_preference() -> Vec<Fig10Row> {
    let mut rows = Vec::new();
    for profile in [
        OsProfile::windows_10(),
        OsProfile::linux(),
        OsProfile::windows_11(),
        OsProfile::windows_xp(),
    ] {
        let mut tb = Testbed::paper_default();
        let os = profile.name.clone();
        let id = tb.add_host(profile);
        tb.boot();
        let before = tb.pi_server().poisoned.poisoned_count;
        let browse_outcome = tb.run_task(id, browse("ip6.me"), 25);
        let poisoned = tb.pi_server().poisoned.poisoned_count - before;
        let h = tb.host(id);
        rows.push(Fig10Row {
            os,
            dns_via_v6: h.dns_via_v6,
            dns_via_v4: h.dns_via_v4,
            poisoned_a_answers: poisoned,
            browse: browse_outcome,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// FIG 11 — VPN client scores 0/10 on the mirror
// ---------------------------------------------------------------------

/// Result of the Fig. 11 reproduction.
#[derive(Debug)]
pub struct Fig11Result {
    /// The tunnel itself connects (the VPN is "working").
    pub tunnel_up: bool,
    /// Per-subtest results as seen through the tunnel policy.
    pub subtests: SubtestResults,
    /// Legacy score.
    pub legacy: Score,
    /// Revised score.
    pub revised: Score,
}

/// Fig. 11: an Argonne-style VPN client on the v6 wireless: the tunnel is
/// IPv4-only and test traffic is not split-tunnelled, so every subtest
/// fails — 0/10 despite "working" VPN.
pub fn fig11_vpn_zero_score() -> Fig11Result {
    let mut tb = Testbed::paper_default();
    let id = tb.add_host(OsProfile::windows_10());
    tb.boot();
    let vpn = VpnConfig::argonne(
        addrs::VPN_V4.parse().expect("static"),
        format!("{}/32", addrs::VTC_V4).parse().expect("static"),
    );
    tb.host(id).vpn = Some(vpn.clone());
    // The tunnel connects fine over the testbed's IPv4.
    let tunnel = tb.run_task(
        id,
        AppTask::VpnReach {
            addr: "203.0.113.99".parse().expect("static"),
            port: 443,
        },
        25,
    );
    // All mirror test traffic rides the v4-only tunnel; the mirror is not
    // split-tunnelled and the tunnel carries no IPv6 → every subtest fails.
    let mirror_v4: std::net::Ipv4Addr = addrs::MIRROR_V4.parse().expect("static");
    let subtests = if vpn.goes_direct(mirror_v4) || vpn.tunnel_carries_v6 {
        unreachable!("paper config tunnels the mirror over v4-only")
    } else {
        SubtestResults {
            client_v4_stack_off: false,
            ..Default::default()
        }
    };
    Fig11Result {
        tunnel_up: tunnel.is_success(),
        legacy: score_legacy(&subtests),
        revised: score_rfc8925_aware(&subtests),
        subtests,
    }
}

impl Fig11Result {
    /// Paper-style row.
    pub fn render(&self) -> String {
        format!(
            "FIG11 vpn tunnel-up={} legacy={}/10 revised={}/10",
            self.tunnel_up, self.legacy.points, self.revised.points
        )
    }
}

// ---------------------------------------------------------------------
// TBL-A — full device matrix; TBL-B — census accuracy
// ---------------------------------------------------------------------

/// TBL-A: every Section V profile through the full testbed.
pub fn tbl_a_device_matrix() -> Vec<MatrixRow> {
    matrix_for(OsProfile::all_paper_profiles())
}

/// Result of the census comparison.
#[derive(Debug)]
pub struct Fig2Census {
    /// Aggregate counts.
    pub summary: CensusSummary,
    /// The over-count factor naive/accurate.
    pub overcount: f64,
}

/// TBL-B: a realistic show-floor population; SC23-naive vs SC24-accurate
/// IPv6-only counts.
pub fn tbl_b_census() -> Fig2Census {
    let mut tb = Testbed::paper_default();
    for p in [
        OsProfile::macos(),
        OsProfile::macos(),
        OsProfile::ios(),
        OsProfile::ios(),
        OsProfile::android(),
        OsProfile::android(),
        OsProfile::windows_10(),
        OsProfile::windows_10(),
        OsProfile::windows_10(),
        OsProfile::windows_11(),
        OsProfile::windows_11_rfc8925(),
        OsProfile::linux(),
        OsProfile::windows_xp(),
        OsProfile::nintendo_switch(),
        OsProfile::legacy_printer(),
        OsProfile::windows_10_v6_disabled(),
    ] {
        tb.add_host(p);
    }
    tb.boot();
    tb.run_secs(10);
    let (_, summary) = census(&mut tb);
    let overcount = if summary.accurate_v6only == 0 {
        f64::INFINITY
    } else {
        summary.naive_v6only as f64 / summary.accurate_v6only as f64
    };
    Fig2Census { summary, overcount }
}

impl Fig2Census {
    /// Paper-style row.
    pub fn render(&self) -> String {
        format!(
            "TBL-B census: associated={} naive-v6only={} accurate-v6only={} with-v4-path={} overcount={:.2}x",
            self.summary.associated,
            self.summary.naive_v6only,
            self.summary.accurate_v6only,
            self.summary.with_v4_path,
            self.overcount
        )
    }
}

// ---------------------------------------------------------------------
// ABL-1 — NXDOMAIN fidelity per poisoning policy
// ---------------------------------------------------------------------

/// One poisoning policy's answers on an existing and a non-existent name.
#[derive(Debug)]
pub struct Abl1Row {
    /// Policy label (`wildcard-a` / `rpz`).
    pub policy: &'static str,
    /// The existing name got an answer.
    pub existing_answered: bool,
    /// The suffixed non-existent name stayed NXDOMAIN.
    pub nonexistent_nxdomain: bool,
}

impl Abl1Row {
    /// Paper-style row.
    pub fn render(&self) -> String {
        format!(
            "ABL1 {:<12} existing-name=answered({}) nonexistent-name={}",
            self.policy,
            self.existing_answered,
            if self.nonexistent_nxdomain {
                "NXDOMAIN (faithful)"
            } else {
                "answered (the Fig. 9 defect)"
            }
        )
    }
}

/// ABL-1: dnsmasq's wildcard-A answers names that do not exist (the
/// Fig. 9 artefact); the conclusion's RPZ rewrite only touches names
/// the upstream knows, so NXDOMAIN survives.
pub fn abl1_nxdomain_fidelity() -> Vec<Abl1Row> {
    [PoisonVariant::WildcardA, PoisonVariant::Rpz]
        .into_iter()
        .map(|variant| {
            let mut r = PoisonedResolver::new(Dns64::well_known(internet_dns()), variant.policy());
            let mut ask = |name: &str| {
                r.resolve(
                    &Question::new(name.parse().expect("static name"), RType::A),
                    0,
                )
            };
            let exists = ask("vpn.anl.gov");
            let ghost = ask("vpn.anl.gov.rfc8925.com");
            Abl1Row {
                policy: variant.label(),
                existing_answered: !exists.records.is_empty(),
                nonexistent_nxdomain: ghost.rcode == Rcode::NxDomain,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// ABL-2 — legacy vs RFC 8925-aware scoring across client classes
// ---------------------------------------------------------------------

/// ABL-2: the mirror test under wildcard-A poisoning for one client of
/// each class, scored both ways. Only the RFC 8925 client keeps 10/10
/// under the revised logic.
pub fn abl2_scoring_matrix() -> Vec<ScoringResult> {
    [
        OsProfile::macos(),
        OsProfile::windows_10(),
        OsProfile::windows_xp(),
        OsProfile::windows_10_v6_disabled(),
        OsProfile::nintendo_switch(),
    ]
    .into_iter()
    .map(|profile| run_mirror_test(profile, PoisonVariant::WildcardA.policy()))
    .collect()
}

// ---------------------------------------------------------------------
// ABL-3 — Happy Eyeballs (RFC 8305) fallback latency
// ---------------------------------------------------------------------

/// ABL-3: a dual-stack Windows 10 client browses `brokenv6.test`, whose
/// AAAA is black-holed and whose A record works. Returns the outcome
/// and the simulated milliseconds the browse took, with RFC 8305
/// Happy Eyeballs on (`he`) or off (serial fallback).
pub fn abl3_happy_eyeballs(he: bool) -> (TaskOutcome, u64) {
    let mut tb = Testbed::paper_default();
    let mut profile = OsProfile::windows_10();
    profile.happy_eyeballs = he;
    let id = tb.add_host(profile);
    let mut z = Zone::new("brokenv6.test".parse().expect("static name"), 60);
    // 2602:dead::1 has no route on the internet core: SYNs vanish.
    z.add_str(
        "@",
        60,
        RData::Aaaa("2602:dead::1".parse().expect("static")),
    );
    // The A record points at the (reachable) sc24 web server.
    z.add_str("@", 60, RData::A(addrs::SC24_V4.parse().expect("static")));
    tb.pi_server()
        .healthy
        .upstream_mut()
        .upstream_mut()
        .add_zone(z);
    tb.boot();
    let start = tb.net.now();
    let outcome = tb.run_task(id, browse("brokenv6.test"), 25);
    (outcome, (tb.net.now() - start).as_millis())
}

// ---------------------------------------------------------------------
// Every row, in order
// ---------------------------------------------------------------------

/// Every paper row — Figs. 2–11, TBL-A, TBL-B and the three ablations —
/// as `(id, row)` pairs in print order. Rows carry simulated quantities
/// only, so the list is a pure function of the code.
pub fn paper_rows() -> Vec<(&'static str, String)> {
    let mut rows = vec![
        ("FIG2", fig2_literal_v4_census().render()),
        ("FIG3", fig3_ra_workaround(false).render()),
        ("FIG3", fig3_ra_workaround(true).render()),
    ];
    rows.extend(fig4_topology_matrix().iter().map(|r| ("FIG4", r.render())));
    rows.push(("FIG5", fig5_erroneous_score().render()));
    rows.push(("FIG6", fig6_switch_intervention().render()));
    rows.push(("FIG7", fig7_winxp_nat64().render()));
    for blocked in [false, true] {
        rows.push(("FIG8", fig8_vpn_split_tunnel(blocked).render()));
    }
    for variant in [PoisonVariant::WildcardA, PoisonVariant::Rpz] {
        rows.push(("FIG9", fig9_poisoned_nxdomain(variant.policy()).render()));
    }
    rows.extend(
        fig10_resolver_preference()
            .iter()
            .map(|r| ("FIG10", r.render())),
    );
    rows.push(("FIG11", fig11_vpn_zero_score().render()));
    rows.extend(tbl_a_device_matrix().iter().map(|r| ("TBL-A", r.render())));
    rows.push(("TBL-B", tbl_b_census().render()));
    rows.extend(
        abl1_nxdomain_fidelity()
            .iter()
            .map(|r| ("ABL-1", r.render())),
    );
    rows.extend(abl2_scoring_matrix().iter().map(|r| ("ABL-2", r.render())));
    let (_, serial_ms) = abl3_happy_eyeballs(false);
    let (_, he_ms) = abl3_happy_eyeballs(true);
    rows.push((
        "ABL-3",
        format!(
            "ABL3 serial-fallback={serial_ms} ms happy-eyeballs={he_ms} ms (simulated user-perceived latency)"
        ),
    ));
    rows
}
