//! Infrastructure nodes: the Raspberry Pi server, the internet router, and
//! the public recursive resolver.

use crate::zones::internet_dns;
use std::any::Any;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use v6addr::prefix::{Ipv4Prefix, Ipv6Prefix};
use v6dhcp::server::{DhcpServer, ServerConfig};
use v6dns::codec::{Message as DnsMessage, Rcode};
use v6dns::dns64::Dns64;
use v6dns::edns;
use v6dns::poison::{PoisonPolicy, PoisonedResolver};
use v6dns::server::{CachingResolver, GlobalDns, Resolver};
use v6dns::view::MessageView;
use v6sim::engine::{Ctx, Node};
use v6sim::tcp::TcpEndpoint;
use v6wire::arp::{ArpOp, ArpPacket};
use v6wire::fasthash::FastMap;
use v6wire::icmpv6::Icmpv6Message;
use v6wire::mac::MacAddr;
use v6wire::ndp::{NdpOption, NeighborAdvertisement};
use v6wire::packet::{build_arp, build_icmpv6, build_tcp_v4, build_tcp_v6};
use v6wire::tcp::TcpSegment;
use v6wire::udp::{port, UdpDatagram};
use v6wire::view::{FrameView, Icmp6View, L3View, L4View};

/// The healthy DNS64 resolver stack the Pi serves over IPv6.
pub type HealthyResolver = CachingResolver<Dns64<GlobalDns>>;
/// The poisoned resolver stack the Pi serves over IPv4 (dnsmasq-style).
pub type PoisonResolver = PoisonedResolver<CachingResolver<Dns64<GlobalDns>>>;

/// One DNS-over-TCP connection being served (RFC 1035 §4.2.2: the
/// fallback transport stubs retry over after a TC-bit truncation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DnsFlowId {
    local: IpAddr,
    remote: IpAddr,
    rport: u16,
}

struct DnsServerFlow {
    ep: TcpEndpoint,
    responded: bool,
}

/// The Raspberry Pi server from Fig. 4: healthy DNS64 on `fd00:976a::9`,
/// poisoned dnsmasq on its IPv4 address, and a DHCPv4 server with option
/// 108. ("A Raspberry Pi server running BIND9 DNS64 services was deployed
/// with an address of fd00:976a::9" + the dnsmasq two-liner from §VI.)
pub struct PiServer {
    name: String,
    /// Server MAC.
    pub mac: MacAddr,
    /// Healthy DNS64 address (ULA, reachable on-link via the switch RA).
    pub v6: Ipv6Addr,
    /// Poisoned dnsmasq address (what DHCP option 6 advertises).
    pub v4: Ipv4Addr,
    /// The healthy DNS64 resolver (IPv6 service).
    pub healthy: HealthyResolver,
    /// The poisoned resolver (IPv4 service).
    pub poisoned: PoisonResolver,
    /// DHCPv4 server with option 108 (None disables — ABL topologies).
    pub dhcp: Option<DhcpServer>,
    /// Queries served on the v6 (healthy) side.
    pub v6_queries: u64,
    /// Queries served on the v4 (poisoned) side.
    pub v4_queries: u64,
    /// Failure injection: `false` simulates the Pi crashing (no responses
    /// of any kind). The testbed keeps running; clients discover the loss
    /// through timeouts.
    pub enabled: bool,
    /// Queries served over TCP (truncation fallback).
    pub tcp_queries: u64,
    tcp_flows: FastMap<DnsFlowId, DnsServerFlow>,
}

impl PiServer {
    /// Build with the given poisoning policy.
    pub fn new(policy: PoisonPolicy, with_dhcp: bool) -> PiServer {
        let v4: Ipv4Addr = "192.168.12.250".parse().expect("static ip");
        PiServer {
            name: "raspberry-pi".into(),
            mac: MacAddr::new([0x02, 0x91, 0, 0, 0, 0x09]),
            v6: "fd00:976a::9".parse().expect("static ip"),
            v4,
            healthy: CachingResolver::new(Dns64::well_known(internet_dns())),
            poisoned: PoisonedResolver::new(
                CachingResolver::new(Dns64::well_known(internet_dns())),
                policy,
            ),
            dhcp: with_dhcp.then(|| DhcpServer::new(ServerConfig::testbed(v4))),
            v6_queries: 0,
            v4_queries: 0,
            enabled: true,
            tcp_queries: 0,
            tcp_flows: FastMap::default(),
        }
    }

    /// Point both resolver stacks at a different global DNS database —
    /// the broken-delegation fault swaps in the delegated tree resolved
    /// iteratively over IPv6 only. [`PiServer::reset`] restores the flat
    /// database, so warm-cell recycling stays equivalent to a cold build.
    pub fn install_global_dns(&mut self, g: GlobalDns) {
        *self.healthy.upstream_mut().upstream_mut() = g.clone();
        *self.poisoned.upstream_mut().upstream_mut().upstream_mut() = g;
    }

    /// Restore the post-construction state: both resolver stacks reset
    /// layer by layer (cache, DNS64 counter, poison counters, zone query
    /// counter), the DHCP lease table flushed, query counters zeroed,
    /// and the failure-injection switch re-armed. Addressing and the
    /// poison policy are configuration and survive — the warm-cell
    /// arena keys its slots on them.
    pub fn reset(&mut self) {
        self.healthy.reset();
        self.healthy.upstream_mut().reset();
        self.poisoned.reset();
        let cache = self.poisoned.upstream_mut();
        cache.reset();
        cache.upstream_mut().reset();
        // A fault run may have swapped in the delegated tree via
        // [`PiServer::install_global_dns`]; reinstall the flat database
        // (fresh counters included) so the recycled Pi matches a cold
        // build byte-for-byte.
        self.install_global_dns(internet_dns());
        if let Some(dhcp) = &mut self.dhcp {
            dhcp.reset();
        }
        self.v6_queries = 0;
        self.v4_queries = 0;
        self.enabled = true;
        self.tcp_queries = 0;
        self.tcp_flows.clear();
    }

    /// Resolve `msg` and shape the response. `udp_limit` is the transport
    /// ceiling for a UDP reply (`None` over TCP): a response that would
    /// not fit is emptied and flagged TC (RFC 6891 §7) so the stub can
    /// retry over TCP. A classified resolution failure travels back as an
    /// RFC 8914 Extended DNS Error in the additional section. A query
    /// without a question gets no response.
    fn answer(
        resolver: &mut dyn Resolver,
        query: &MessageView<'_>,
        now: u64,
        udp_limit: Option<usize>,
    ) -> Option<DnsMessage> {
        let mut resp = query.response(Rcode::NoError);
        let ans = resolver.resolve(resp.questions.first()?, now);
        resp.rcode = ans.rcode;
        resp.answers = ans.records;
        if let Some(soa) = ans.soa {
            resp.authorities.push(soa);
        }
        if let Some(reason) = ans.reason {
            resp.additionals.push(edns::opt_record(
                edns::DEFAULT_PAYLOAD_SIZE,
                &[edns::ede_option(reason.ede_code(), reason.label())],
            ));
        }
        if let Some(limit) = udp_limit {
            if resp.encode().len() > limit {
                resp.truncated = true;
                resp.answers.clear();
                resp.authorities.clear();
            }
        }
        Some(resp)
    }

    /// The UDP size ceiling a query grants its response: the EDNS0
    /// advertised payload size, or the classic 512-octet limit when the
    /// query carries no OPT.
    fn udp_limit(msg: &MessageView<'_>) -> usize {
        edns::advertised_payload_size(msg).unwrap_or(edns::CLASSIC_UDP_LIMIT)
    }

    fn on_tcp_dns(
        &mut self,
        local: IpAddr,
        remote: IpAddr,
        seg: TcpSegment,
        reply_mac: MacAddr,
        now: u64,
        ctx: &mut Ctx,
    ) {
        let id = DnsFlowId {
            local,
            remote,
            rport: seg.src_port,
        };
        let flow = self.tcp_flows.entry(id).or_insert_with(|| DnsServerFlow {
            ep: TcpEndpoint::listen(port::DNS),
            responded: false,
        });
        let replies = flow.ep.on_segment(&seg);
        let closed = flow.ep.is_closed();
        for r in replies {
            self.send_tcp_segment(id, r, reply_mac, ctx);
        }
        self.serve_tcp_dns(id, reply_mac, now, ctx);
        if closed {
            self.tcp_flows.remove(&id);
        }
    }

    /// Answer the two-octet-length-prefixed query on an established TCP
    /// connection (RFC 1035 §4.2.2), then close: one query per connection,
    /// like the stub's fallback uses it.
    fn serve_tcp_dns(&mut self, id: DnsFlowId, reply_mac: MacAddr, now: u64, ctx: &mut Ctx) {
        let Some(flow) = self.tcp_flows.get(&id) else {
            return;
        };
        if flow.responded || !flow.ep.is_established() {
            return;
        }
        let buf = flow.ep.received.clone();
        if buf.len() < 2 {
            return;
        }
        let want = u16::from_be_bytes([buf[0], buf[1]]) as usize;
        if buf.len() < 2 + want {
            return; // still streaming in
        }
        let Ok(msg) = MessageView::parse(&buf[2..2 + want]) else {
            self.tcp_flows.remove(&id);
            return;
        };
        self.tcp_queries += 1;
        let resp = match id.local {
            IpAddr::V6(_) => Self::answer(&mut self.healthy, &msg, now, None),
            IpAddr::V4(_) => Self::answer(&mut self.poisoned, &msg, now, None),
        };
        let Some(resp) = resp else {
            self.tcp_flows.remove(&id);
            return;
        };
        let payload = resp.encode();
        let mut framed = (payload.len() as u16).to_be_bytes().to_vec();
        framed.extend_from_slice(&payload);
        let flow = self.tcp_flows.get_mut(&id).expect("present");
        flow.responded = true;
        let mut segs = flow.ep.send(&framed);
        segs.extend(flow.ep.close());
        for s in segs {
            self.send_tcp_segment(id, s, reply_mac, ctx);
        }
    }

    fn send_tcp_segment(&self, id: DnsFlowId, seg: TcpSegment, dst_mac: MacAddr, ctx: &mut Ctx) {
        match (id.local, id.remote) {
            (IpAddr::V6(l), IpAddr::V6(r)) => {
                ctx.send(0, build_tcp_v6(self.mac, dst_mac, l, r, &seg));
            }
            (IpAddr::V4(l), IpAddr::V4(r)) => {
                ctx.send(0, build_tcp_v4(self.mac, dst_mac, l, r, &seg));
            }
            _ => {}
        }
    }
}

impl Node for PiServer {
    fn name(&self) -> &str {
        &self.name
    }

    fn device_metrics(&self) -> v6wire::metrics::Metrics {
        let mut m = v6wire::metrics::Metrics::new();
        m.add("v6_queries", self.v6_queries);
        m.add("v4_queries", self.v4_queries);
        m.add("tcp_queries", self.tcp_queries);
        m.merge_namespaced("dns64", &self.healthy.metrics());
        m.merge_namespaced("dnsmasq", &self.poisoned.metrics());
        if let Some(dhcp) = &self.dhcp {
            m.add("dhcp.offers_with_108", dhcp.offers_with_108);
            m.add("dhcp.offers_plain", dhcp.offers_plain);
        }
        m
    }

    fn on_frame(&mut self, _port: u32, raw: &[u8], ctx: &mut Ctx) {
        if !self.enabled {
            return; // crashed (failure-injection experiments)
        }
        // Zero-copy view: the server only reads headers and borrows the
        // UDP payload for DNS/DHCP decoding.
        let Ok(parsed) = FrameView::parse(raw) else {
            return;
        };
        let now = ctx.now.as_secs();
        match (&parsed.l3, &parsed.l4) {
            (L3View::V6(ip), L4View::Icmp6(Icmp6View::NeighborSolicitation { target, .. }))
                if *target == self.v6 =>
            {
                let na = Icmpv6Message::NeighborAdvertisement(NeighborAdvertisement {
                    router: false,
                    solicited: true,
                    override_flag: true,
                    target: *target,
                    options: vec![NdpOption::TargetLinkLayer(self.mac)],
                });
                ctx.send(
                    0,
                    build_icmpv6(self.mac, parsed.eth.src, *target, ip.src, &na),
                );
            }
            (L3View::V6(ip), L4View::Udp(udp))
                if ip.dst == self.v6 && udp.dst_port == port::DNS =>
            {
                if let Ok(msg) = MessageView::parse(udp.payload) {
                    self.v6_queries += 1;
                    let limit = Self::udp_limit(&msg);
                    let Some(resp) = Self::answer(&mut self.healthy, &msg, now, Some(limit)) else {
                        return;
                    };
                    let d = UdpDatagram::new(port::DNS, udp.src_port, resp.encode());
                    ctx.send(
                        0,
                        v6wire::packet::build_udp_v6(self.mac, parsed.eth.src, self.v6, ip.src, &d),
                    );
                }
            }
            (L3View::V4(ip), L4View::Udp(udp))
                if ip.dst == self.v4 && udp.dst_port == port::DNS =>
            {
                if let Ok(msg) = MessageView::parse(udp.payload) {
                    self.v4_queries += 1;
                    let limit = Self::udp_limit(&msg);
                    let Some(resp) = Self::answer(&mut self.poisoned, &msg, now, Some(limit))
                    else {
                        return;
                    };
                    let d = UdpDatagram::new(port::DNS, udp.src_port, resp.encode());
                    ctx.send(
                        0,
                        v6wire::packet::build_udp_v4(self.mac, parsed.eth.src, self.v4, ip.src, &d),
                    );
                }
            }
            (L3View::V4(_), L4View::Udp(udp)) if udp.dst_port == port::DHCP_SERVER => {
                if let Some(dhcp) = &mut self.dhcp {
                    if let Ok(msg) = v6dhcp::codec::DhcpMessage::decode(udp.payload) {
                        if let Some(reply) = dhcp.handle(&msg, now) {
                            let d = UdpDatagram::new(
                                port::DHCP_SERVER,
                                port::DHCP_CLIENT,
                                reply.encode(),
                            );
                            let frame = v6wire::packet::build_udp_v4(
                                self.mac,
                                msg.chaddr,
                                dhcp.config.server_id,
                                Ipv4Addr::BROADCAST,
                                &d,
                            );
                            ctx.send(0, frame);
                        }
                    }
                }
            }
            (L3View::V6(ip), L4View::Tcp(seg))
                if ip.dst == self.v6 && seg.dst_port == port::DNS =>
            {
                self.on_tcp_dns(
                    IpAddr::V6(ip.dst),
                    IpAddr::V6(ip.src),
                    seg.to_segment(),
                    parsed.eth.src,
                    now,
                    ctx,
                );
            }
            (L3View::V4(ip), L4View::Tcp(seg))
                if ip.dst == self.v4 && seg.dst_port == port::DNS =>
            {
                self.on_tcp_dns(
                    IpAddr::V4(ip.dst),
                    IpAddr::V4(ip.src),
                    seg.to_segment(),
                    parsed.eth.src,
                    now,
                    ctx,
                );
            }
            (L3View::Arp(arp), _) if arp.op == ArpOp::Request && arp.target_ip == self.v4 => {
                let reply = ArpPacket::reply_to(arp, self.mac);
                ctx.send(0, build_arp(self.mac, arp.sender_mac, &reply));
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A public recursive resolver on the simulated internet (9.9.9.9) — the
/// known-good server the Nintendo Switch user configures in Fig. 6.
pub struct PublicDns {
    name: String,
    /// Node MAC (p2p WAN links don't care).
    pub mac: MacAddr,
    /// Service address.
    pub v4: Ipv4Addr,
    resolver: CachingResolver<GlobalDns>,
    /// Queries served.
    pub queries: u64,
}

impl PublicDns {
    /// A resolver over the standard internet zones.
    pub fn new() -> PublicDns {
        PublicDns {
            name: "public-dns".into(),
            mac: MacAddr::new([0x02, 0x99, 0, 0, 0, 0x09]),
            v4: crate::zones::addrs::PUBLIC_DNS_V4
                .parse()
                .expect("static ip"),
            resolver: CachingResolver::new(internet_dns()),
            queries: 0,
        }
    }

    /// Restore the post-construction state: cache flushed, counters
    /// zeroed (warm-cell arena reuse).
    pub fn reset(&mut self) {
        self.resolver.reset();
        self.resolver.upstream_mut().reset();
        self.queries = 0;
    }
}

impl Default for PublicDns {
    fn default() -> Self {
        Self::new()
    }
}

impl Node for PublicDns {
    fn name(&self) -> &str {
        &self.name
    }

    fn device_metrics(&self) -> v6wire::metrics::Metrics {
        let mut m = v6wire::metrics::Metrics::new();
        m.add("queries", self.queries);
        m.merge_namespaced("cache", &self.resolver.metrics());
        m
    }

    fn on_frame(&mut self, _port: u32, raw: &[u8], ctx: &mut Ctx) {
        let Ok(parsed) = FrameView::parse(raw) else {
            return;
        };
        if let (L3View::V4(ip), L4View::Udp(udp)) = (&parsed.l3, &parsed.l4) {
            if ip.dst == self.v4 && udp.dst_port == port::DNS {
                if let Ok(msg) = MessageView::parse(udp.payload) {
                    self.queries += 1;
                    let limit = PiServer::udp_limit(&msg);
                    let now = ctx.now.as_secs();
                    let Some(resp) = PiServer::answer(&mut self.resolver, &msg, now, Some(limit))
                    else {
                        return;
                    };
                    let d = UdpDatagram::new(port::DNS, udp.src_port, resp.encode());
                    ctx.send(
                        0,
                        v6wire::packet::build_udp_v4(self.mac, parsed.eth.src, self.v4, ip.src, &d),
                    );
                }
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The internet core: a static longest-prefix router joining the gateway's
/// WAN side with the service nodes. Transparent at L3 (the gateway already
/// spent the hop).
pub struct InternetRouter {
    name: String,
    v4_routes: Vec<(Ipv4Prefix, u32)>,
    v6_routes: Vec<(Ipv6Prefix, u32)>,
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames with no route.
    pub dropped: u64,
}

impl InternetRouter {
    /// An empty router.
    pub fn new(name: impl Into<String>) -> InternetRouter {
        InternetRouter {
            name: name.into(),
            v4_routes: Vec::new(),
            v6_routes: Vec::new(),
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Add an IPv4 route.
    pub fn route_v4(&mut self, prefix: &str, out: u32) -> &mut Self {
        self.v4_routes
            .push((prefix.parse().expect("static prefix"), out));
        self
    }

    /// Add an IPv6 route.
    pub fn route_v6(&mut self, prefix: &str, out: u32) -> &mut Self {
        self.v6_routes
            .push((prefix.parse().expect("static prefix"), out));
        self
    }

    /// Zero the forwarding counters; the route tables are configuration
    /// and survive (warm-cell arena reuse).
    pub fn reset(&mut self) {
        self.forwarded = 0;
        self.dropped = 0;
    }
}

impl Node for InternetRouter {
    fn name(&self) -> &str {
        &self.name
    }

    fn device_metrics(&self) -> v6wire::metrics::Metrics {
        let mut m = v6wire::metrics::Metrics::new();
        m.add("forwarded", self.forwarded);
        m.add("dropped_no_route", self.dropped);
        m
    }

    fn on_frame(&mut self, ingress: u32, raw: &[u8], ctx: &mut Ctx) {
        let Ok(parsed) = FrameView::parse(raw) else {
            return;
        };
        let out = match &parsed.l3 {
            L3View::V4(ip) => self
                .v4_routes
                .iter()
                .filter(|(p, _)| p.contains(ip.dst))
                .max_by_key(|(p, _)| p.len())
                .map(|(_, o)| *o),
            L3View::V6(ip) => self
                .v6_routes
                .iter()
                .filter(|(p, _)| p.contains(ip.dst))
                .max_by_key(|(p, _)| p.len())
                .map(|(_, o)| *o),
            _ => None,
        };
        match out {
            Some(o) if o != ingress => {
                self.forwarded += 1;
                ctx.send(o, raw.to_vec());
            }
            _ => self.dropped += 1,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zones::delegated_internet_dns;
    use v6dns::codec::{Question, RData, RType};
    use v6dns::server::ResolutionFailure;
    use v6dns::DnsName;

    fn n(s: &str) -> DnsName {
        s.parse().unwrap()
    }

    fn query(name: &str, rtype: RType) -> DnsMessage {
        DnsMessage::query(7, Question::new(n(name), rtype))
    }

    /// Send `q` over the wire to `resolver`: over UDP with the limit `q`
    /// grants, or over TCP.
    fn ask(resolver: &mut dyn Resolver, q: &DnsMessage, udp: bool) -> DnsMessage {
        let wire = q.encode();
        let view = MessageView::parse(&wire).unwrap();
        let limit = udp.then(|| PiServer::udp_limit(&view));
        PiServer::answer(resolver, &view, 0, limit).expect("query has a question")
    }

    #[test]
    fn classified_failure_travels_as_ede() {
        let mut pi = PiServer::new(PoisonPolicy::Off, true);
        pi.install_global_dns(delegated_internet_dns());
        let q = query("sc24.supercomputing.org", RType::Aaaa);
        let resp = ask(&mut pi.healthy, &q, true);
        assert_eq!(resp.rcode, Rcode::ServFail);
        let wire = resp.encode();
        assert_eq!(
            edns::failure_of(&MessageView::parse(&wire).unwrap()),
            Some(ResolutionFailure::NoAaaaGlue),
            "the stub learns *why*, not just SERVFAIL"
        );
    }

    #[test]
    fn reset_reinstalls_the_flat_database() {
        let mut pi = PiServer::new(PoisonPolicy::Off, true);
        pi.install_global_dns(delegated_internet_dns());
        pi.reset();
        let q = query("sc24.supercomputing.org", RType::Aaaa);
        let resp = ask(&mut pi.healthy, &q, true);
        // DNS64 synthesis works again: flat zones restored, warm cell
        // equivalent to a cold build.
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp
            .answers
            .iter()
            .any(|r| matches!(r.data, RData::Aaaa(_))));
    }

    #[test]
    fn oversize_udp_response_truncates_to_tc() {
        // A TXT record big enough to blow the classic 512-octet ceiling.
        let mut zone = v6dns::Zone::new(n("big.test"), 60);
        zone.add_str("@", 60, RData::Txt(vec!["x".repeat(200); 4]));
        let mut g = GlobalDns::new();
        g.add_zone(zone);
        let mut pi = PiServer::new(PoisonPolicy::Off, true);
        pi.install_global_dns(g);
        let q = query("big.test", RType::Txt);
        let resp = ask(&mut pi.healthy, &q, true);
        assert!(resp.truncated, "TC set");
        assert!(
            resp.answers.is_empty(),
            "truncated responses carry no answers"
        );
        assert!(resp.encode().len() <= edns::CLASSIC_UDP_LIMIT);

        // The same query with an EDNS0 advertisement fits untruncated.
        let mut q_edns = query("big.test", RType::Txt);
        q_edns
            .additionals
            .push(edns::opt_record(edns::DEFAULT_PAYLOAD_SIZE, &[]));
        let resp = ask(&mut pi.healthy, &q_edns, true);
        assert!(!resp.truncated);
        assert!(!resp.answers.is_empty());

        // And over TCP there is no ceiling at all.
        let resp = ask(&mut pi.healthy, &q, false);
        assert!(!resp.truncated);
        assert!(!resp.answers.is_empty());
    }
}
