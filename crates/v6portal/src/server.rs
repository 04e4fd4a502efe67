//! The portal server node: a virtual-hosting HTTP responder standing in for
//! ip6.me and the SC test-ipv6.com mirror.
//!
//! The crucial property for the paper's intervention: like the real ip6.me,
//! it answers **any** `Host:` header (poisoned clients arrive with the
//! hostname they originally wanted), and the page body tells the client
//! which address family actually reached the server.

use crate::http::{format_response, HttpRequest};
use std::any::Any;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use v6sim::engine::{Ctx, Node};
use v6sim::tcp::TcpEndpoint;
use v6wire::arp::{ArpOp, ArpPacket};
use v6wire::fasthash::FastMap;
use v6wire::icmpv4::Icmpv4Message;
use v6wire::icmpv6::Icmpv6Message;
use v6wire::mac::MacAddr;
use v6wire::ndp::{NdpOption, NeighborAdvertisement};
use v6wire::packet::{build_arp, build_icmpv6, build_tcp_v4, build_tcp_v6};
use v6wire::tcp::TcpSegment;
use v6wire::view::{FrameView, Icmp4View, Icmp6View, L3View, L4View};

/// What a vhost serves.
#[derive(Debug, Clone)]
pub enum VhostContent {
    /// ip6.me-style echo: your address + IPv6-only explanation for v4
    /// visitors.
    Ip6MeEcho,
    /// A mirror subtest endpoint; body identifies the subtest.
    MirrorSubtest(&'static str),
    /// Fixed body.
    Fixed(String),
}

/// One served request, for assertions and the census.
#[derive(Debug, Clone)]
pub struct FetchRecord {
    /// `Host:` header as sent by the client.
    pub host: String,
    /// Request path.
    pub path: String,
    /// Client address as seen by the server (post-NAT).
    pub peer: IpAddr,
    /// Which of the server's own addresses served it.
    pub served_on: IpAddr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FlowId {
    local: IpAddr,
    remote: IpAddr,
    rport: u16,
    lport: u16,
}

struct ServerFlow {
    ep: TcpEndpoint,
    responded: bool,
}

/// The portal node. Attach to the internet router (or a LAN segment — it
/// answers ARP/NDP for its addresses).
pub struct PortalServer {
    name: String,
    /// Server MAC.
    pub mac: MacAddr,
    /// IPv4 addresses served.
    pub v4_addrs: Vec<Ipv4Addr>,
    /// IPv6 addresses served.
    pub v6_addrs: Vec<Ipv6Addr>,
    /// Virtual hosts (lowercased host → content).
    pub vhosts: FastMap<String, VhostContent>,
    /// Content served for unknown Host headers (the intervention page).
    pub fallback: Option<VhostContent>,
    /// TCP ports accepted (80 by default; add 443 for the VPN concentrator
    /// and VTC stand-ins).
    pub tcp_ports: Vec<u16>,
    flows: FastMap<FlowId, ServerFlow>,
    /// Every completed request.
    pub fetch_log: Vec<FetchRecord>,
}

impl PortalServer {
    /// An empty portal on the given addresses.
    pub fn new(
        name: impl Into<String>,
        v4_addrs: Vec<Ipv4Addr>,
        v6_addrs: Vec<Ipv6Addr>,
    ) -> PortalServer {
        let name = name.into();
        let mac = MacAddr::new([0x02, 0x80, 0, 0, 0, name.len() as u8]);
        PortalServer {
            name,
            mac,
            v4_addrs,
            v6_addrs,
            vhosts: FastMap::default(),
            fallback: None,
            tcp_ports: vec![80],
            flows: FastMap::default(),
            fetch_log: Vec::new(),
        }
    }

    /// The paper's ip6.me stand-in: 23.153.8.71 / 2001:4810:0:3::71,
    /// answering any hostname with the echo page.
    pub fn ip6me() -> PortalServer {
        let mut s = PortalServer::new(
            "ip6.me",
            vec!["23.153.8.71".parse().expect("static ip")],
            vec!["2001:4810:0:3::71".parse().expect("static ip")],
        );
        s.vhosts.insert("ip6.me".into(), VhostContent::Ip6MeEcho);
        s.fallback = Some(VhostContent::Ip6MeEcho);
        s
    }

    /// The SC test-ipv6.com mirror: per-subtest vhosts on dedicated
    /// addresses. Poisoned clients land here too (fallback page).
    pub fn mirror() -> PortalServer {
        let mut s = PortalServer::new(
            "test-mirror",
            vec!["198.51.100.80".parse().expect("static ip")],
            vec!["2602:5c24::80".parse().expect("static ip")],
        );
        s.vhosts
            .insert("ds.mirror.sc24".into(), VhostContent::MirrorSubtest("ds"));
        s.vhosts
            .insert("ipv4.mirror.sc24".into(), VhostContent::MirrorSubtest("v4"));
        s.vhosts
            .insert("ipv6.mirror.sc24".into(), VhostContent::MirrorSubtest("v6"));
        s.vhosts
            .insert("mtu.mirror.sc24".into(), VhostContent::MirrorSubtest("mtu"));
        s.fallback = Some(VhostContent::MirrorSubtest("fallback"));
        s
    }

    /// Add a vhost.
    pub fn with_vhost(mut self, host: &str, content: VhostContent) -> PortalServer {
        self.vhosts.insert(host.to_ascii_lowercase(), content);
        self
    }

    /// Restore the post-construction state: live TCP flows dropped and
    /// the fetch log cleared. Addresses, vhosts, and port configuration
    /// survive (warm-cell arena reuse).
    pub fn reset(&mut self) {
        self.flows.clear();
        self.fetch_log.clear();
    }

    fn render(&self, content: &VhostContent, req: &HttpRequest, peer: IpAddr) -> String {
        match content {
            VhostContent::Ip6MeEcho => {
                let mut body = format!("You are connecting with an address of {peer}\n");
                match peer {
                    IpAddr::V4(_) => body.push_str(
                        "NOTICE: this network is IPv6-only. Your device used legacy \
                         IPv4, which has no internet access here.\nYour device's lack \
                         of IPv6 support is the reason internet is unavailable.\n\
                         Please visit the SCinet helpdesk for assistance.\n",
                    ),
                    IpAddr::V6(_) => body.push_str("IPv6 connectivity confirmed.\n"),
                }
                body
            }
            VhostContent::MirrorSubtest(label) => {
                format!(
                    "subtest={label} peer={peer} host={} path={}\n",
                    req.host, req.path
                )
            }
            VhostContent::Fixed(s) => s.clone(),
        }
    }

    fn serve(&mut self, id: FlowId, ctx: &mut Ctx, reply_mac: MacAddr) {
        let Some(flow) = self.flows.get_mut(&id) else {
            return;
        };
        if flow.responded || !flow.ep.is_established() {
            return;
        }
        let Some(req) = HttpRequest::parse(&flow.ep.received) else {
            return;
        };
        flow.responded = true;
        let content = self
            .vhosts
            .get(&req.host.to_ascii_lowercase())
            .cloned()
            .or_else(|| self.fallback.clone());
        let (status, body) = match content {
            Some(c) => (200, self.render(&c, &req, id.remote)),
            None => (404, "no such site\n".to_string()),
        };
        self.fetch_log.push(FetchRecord {
            host: req.host.clone(),
            path: req.path.clone(),
            peer: id.remote,
            served_on: id.local,
        });
        let response = format_response(status, &body);
        let flow = self.flows.get_mut(&id).expect("present");
        let mut segs = flow.ep.send(response.as_bytes());
        segs.extend(flow.ep.close());
        for seg in segs {
            self.send_segment(id, seg, reply_mac, ctx);
        }
    }

    fn send_segment(&self, id: FlowId, seg: TcpSegment, dst_mac: MacAddr, ctx: &mut Ctx) {
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

impl Node for PortalServer {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_frame(&mut self, _port: u32, raw: &[u8], ctx: &mut Ctx) {
        // Zero-copy view (same accept/reject behaviour as the owned
        // parser): only the one TCP segment actually handed to a flow is
        // materialized, instead of owning every layer's payload per frame.
        let Ok(parsed) = FrameView::parse(raw) else {
            return;
        };
        match (&parsed.l3, &parsed.l4) {
            (L3View::Arp(arp), _)
                if arp.op == ArpOp::Request && self.v4_addrs.contains(&arp.target_ip) =>
            {
                let reply = ArpPacket::reply_to(arp, self.mac);
                ctx.send(0, build_arp(self.mac, arp.sender_mac, &reply));
            }
            (L3View::V6(ip), L4View::Icmp6(Icmp6View::NeighborSolicitation { target, .. }))
                if self.v6_addrs.contains(target) =>
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
            (
                L3View::V6(ip),
                L4View::Icmp6(Icmp6View::EchoRequest {
                    ident,
                    seq,
                    payload,
                }),
            ) if self.v6_addrs.contains(&ip.dst) => {
                let reply = Icmpv6Message::EchoReply {
                    ident: *ident,
                    seq: *seq,
                    payload: payload.to_vec(),
                };
                ctx.send(
                    0,
                    build_icmpv6(self.mac, parsed.eth.src, ip.dst, ip.src, &reply),
                );
            }
            (
                L3View::V4(ip),
                L4View::Icmp4(Icmp4View::EchoRequest {
                    ident,
                    seq,
                    payload,
                }),
            ) if self.v4_addrs.contains(&ip.dst) => {
                let reply = Icmpv4Message::EchoReply {
                    ident: *ident,
                    seq: *seq,
                    payload: payload.to_vec(),
                };
                ctx.send(
                    0,
                    v6wire::packet::build_icmpv4(self.mac, parsed.eth.src, ip.dst, ip.src, &reply),
                );
            }
            (L3View::V6(ip), L4View::Tcp(seg))
                if self.v6_addrs.contains(&ip.dst) && self.tcp_ports.contains(&seg.dst_port) =>
            {
                let id = FlowId {
                    local: IpAddr::V6(ip.dst),
                    remote: IpAddr::V6(ip.src),
                    rport: seg.src_port,
                    lport: seg.dst_port,
                };
                self.on_tcp(id, seg.to_segment(), parsed.eth.src, ctx);
            }
            (L3View::V4(ip), L4View::Tcp(seg))
                if self.v4_addrs.contains(&ip.dst) && self.tcp_ports.contains(&seg.dst_port) =>
            {
                let id = FlowId {
                    local: IpAddr::V4(ip.dst),
                    remote: IpAddr::V4(ip.src),
                    rport: seg.src_port,
                    lport: seg.dst_port,
                };
                self.on_tcp(id, seg.to_segment(), parsed.eth.src, ctx);
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl PortalServer {
    fn on_tcp(&mut self, id: FlowId, seg: TcpSegment, reply_mac: MacAddr, ctx: &mut Ctx) {
        let flow = self.flows.entry(id).or_insert_with(|| ServerFlow {
            ep: TcpEndpoint::listen(id.lport),
            responded: false,
        });
        let replies = flow.ep.on_segment(&seg);
        let closed = flow.ep.is_closed();
        for r in replies {
            self.send_segment(id, r, reply_mac, ctx);
        }
        self.serve(id, ctx, reply_mac);
        if closed {
            self.flows.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6sim::engine::Network;
    use v6sim::time::SimTime;

    /// Drive a raw HTTP exchange against the portal from a scripted client.
    struct ScriptClient {
        name: String,
        local: IpAddr,
        remote: IpAddr,
        host_header: String,
        ep: Option<TcpEndpoint>,
        sent: bool,
        pub response: Option<String>,
        mac: MacAddr,
    }

    impl ScriptClient {
        fn new(local: &str, remote: &str, host_header: &str) -> Box<ScriptClient> {
            Box::new(ScriptClient {
                name: "client".into(),
                local: local.parse().unwrap(),
                remote: remote.parse().unwrap(),
                host_header: host_header.into(),
                ep: None,
                sent: false,
                response: None,
                mac: MacAddr::new([2, 0, 0, 0, 7, 7]),
            })
        }

        fn send_seg(&self, seg: TcpSegment, ctx: &mut Ctx) {
            match (self.local, self.remote) {
                (IpAddr::V6(l), IpAddr::V6(r)) => {
                    ctx.send(0, build_tcp_v6(self.mac, MacAddr::BROADCAST, l, r, &seg));
                }
                (IpAddr::V4(l), IpAddr::V4(r)) => {
                    ctx.send(0, build_tcp_v4(self.mac, MacAddr::BROADCAST, l, r, &seg));
                }
                _ => {}
            }
        }
    }

    impl Node for ScriptClient {
        fn name(&self) -> &str {
            &self.name
        }

        fn start(&mut self, ctx: &mut Ctx) {
            let (ep, syn) = TcpEndpoint::connect(55000, 80, 42);
            self.ep = Some(ep);
            self.send_seg(syn, ctx);
        }

        fn on_frame(&mut self, _port: u32, raw: &[u8], ctx: &mut Ctx) {
            let seg = match FrameView::parse(raw) {
                Ok(FrameView {
                    l4: L4View::Tcp(s), ..
                }) => s.to_segment(),
                _ => return,
            };
            let Some(mut ep) = self.ep.take() else { return };
            let mut out = ep.on_segment(&seg);
            if ep.is_established() && !self.sent {
                self.sent = true;
                let req = HttpRequest::format_get(&self.host_header, "/");
                out.extend(ep.send(req.as_bytes()));
            }
            if ep.peer_closed && self.response.is_none() {
                self.response = Some(String::from_utf8_lossy(&ep.received).into_owned());
                out.extend(ep.close());
            }
            self.ep = Some(ep);
            for s in out {
                self.send_seg(s, ctx);
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn exchange(client: Box<ScriptClient>, server: PortalServer) -> (String, PortalServer) {
        let mut net = Network::new();
        let c = net.add_node(client);
        let s = net.add_node(Box::new(server));
        net.link(c, 0, s, 0, SimTime::from_millis(1));
        net.run_until(SimTime::from_secs(2));
        let resp = net
            .node_mut::<ScriptClient>(c)
            .response
            .clone()
            .expect("response received");
        // Move the server back out for inspection.
        let log = std::mem::take(&mut net.node_mut::<PortalServer>(s).fetch_log);
        let mut dummy = PortalServer::new("x", vec![], vec![]);
        dummy.fetch_log = log;
        (resp, dummy)
    }

    #[test]
    fn ip6me_v4_visitor_gets_intervention_text() {
        let (resp, server) = exchange(
            ScriptClient::new("192.0.2.7", "23.153.8.71", "some.random.site"),
            PortalServer::ip6me(),
        );
        assert!(resp.starts_with("HTTP/1.1 200"));
        assert!(resp.contains("192.0.2.7"));
        assert!(resp.contains("visit the SCinet helpdesk"), "{resp}");
        assert_eq!(server.fetch_log.len(), 1);
        assert_eq!(server.fetch_log[0].host, "some.random.site");
    }

    #[test]
    fn ip6me_v6_visitor_gets_confirmation() {
        let (resp, _) = exchange(
            ScriptClient::new("2607:fb90:9bda:a425::50", "2001:4810:0:3::71", "ip6.me"),
            PortalServer::ip6me(),
        );
        assert!(resp.contains("IPv6 connectivity confirmed"));
        assert!(!resp.contains("helpdesk"));
    }

    #[test]
    fn mirror_subtests_identify_themselves() {
        let (resp, _) = exchange(
            ScriptClient::new("2607:fb90::50", "2602:5c24::80", "ipv6.mirror.sc24"),
            PortalServer::mirror(),
        );
        assert!(resp.contains("subtest=v6"));
    }

    #[test]
    fn unknown_vhost_404_when_no_fallback() {
        let mut server = PortalServer::new("strict", vec!["198.51.100.9".parse().unwrap()], vec![]);
        server
            .vhosts
            .insert("only.site".into(), VhostContent::Fixed("hello".into()));
        let (resp, _) = exchange(
            ScriptClient::new("192.0.2.7", "198.51.100.9", "other.site"),
            server,
        );
        assert!(resp.starts_with("HTTP/1.1 404"));
    }
}
