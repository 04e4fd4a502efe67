//! The 5G mobile internet gateway (paper §IV.A), defects and all:
//!
//! * RAs advertise a **rotating** GUA /64 (different prefix every reboot)
//!   and an RDNSS of **dead** ULAs `fd00:976a::9` / `fd00:976a::10`
//!   (Fig. 3) — with "no options available to manipulate the RA".
//! * The built-in DHCPv4 server **cannot** send option 108 and **cannot be
//!   disabled** — the reason the managed switch snoops it away.
//! * NAT64 on the well-known prefix `64:ff9b::/96` **works**.
//! * Plain NAT44 and a DNS proxy on its LAN address work, giving legacy
//!   clients IPv4 internet (the Nintendo Switch escape hatch, §V).
//!
//! Ports: `0` = LAN, `1` = WAN (point-to-point; WAN frames use the broadcast
//! MAC since the upstream link has exactly one peer).

use crate::engine::{Ctx, Node};
use crate::nat44::Napt44;
use crate::time::SimTime;
use std::any::Any;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6addr::class::{v6_class, V6Class};
use v6addr::prefix::Ipv6Prefix;
use v6addr::rfc6052::Nat64Prefix;
use v6dhcp::server::{DhcpServer, ServerConfig};
use v6wire::arp::{ArpOp, ArpPacket};
use v6wire::fasthash::FastMap;
use v6wire::icmpv4::Icmpv4Message;
use v6wire::icmpv6::{all_nodes, Icmpv6Message};
use v6wire::ipv4::{proto, Ipv4Packet};
use v6wire::ipv6::Ipv6Packet;
use v6wire::mac::MacAddr;
use v6wire::ndp::{NdpOption, NeighborAdvertisement, RouterAdvertisement, RouterPreference};
use v6wire::packet::{build_arp, build_icmpv6};
use v6wire::udp::{port, UdpDatagram};
use v6wire::view::{FrameView, Icmp4View, Icmp6View, Ipv4View, Ipv6View, L3View, L4View, UdpView};
use v6xlat::nat64::{Nat64, Nat64Config};

/// LAN port index.
pub const LAN: u32 = 0;
/// WAN port index.
pub const WAN: u32 = 1;

const RA_TIMER: u64 = 10;

/// The gateway.
pub struct FiveGGateway {
    name: String,
    /// LAN-side MAC.
    pub lan_mac: MacAddr,
    /// LAN link-local address.
    pub link_local: Ipv6Addr,
    /// Current GUA /64 delegated by the mobile network (rotates on reboot).
    pub gua_prefix: Ipv6Prefix,
    reboot_count: u64,
    /// LAN IPv4 address (DHCP/DNS-proxy/default-gateway).
    pub lan_v4: Ipv4Addr,
    /// WAN public IPv4 (CGN space, per the paper's IoT discussion).
    pub wan_v4: Ipv4Addr,
    /// Upstream resolver the DNS proxy forwards to.
    pub upstream_dns: Ipv4Addr,
    /// The built-in DHCP server (no option 108, unkillable).
    pub dhcp: DhcpServer,
    /// The working NAT64.
    pub nat64: Nat64,
    /// The working NAT44.
    pub nat44: Napt44,
    /// RA interval.
    pub ra_interval: SimTime,
    /// The dead resolvers advertised in the RA.
    pub advertised_rdnss: Vec<Ipv6Addr>,
    neigh6: FastMap<Ipv6Addr, MacAddr>,
    arp4: FastMap<Ipv4Addr, MacAddr>,
    /// External NAT44 ports whose flow is a proxied DNS exchange; replies
    /// get their source rewritten back to `lan_v4`.
    dns_proxy_ports: FastMap<u16, ()>,
    /// Dropped-for-no-route counter (where ULA DNS queries die, Fig. 3).
    pub no_route_drops: u64,
    /// Experiment knob (Fig. 8): when set, legacy IPv4 internet access is
    /// blocked (NAT44 refuses new and existing flows); NAT64 and the DNS
    /// proxy keep working.
    pub block_v4_internet: bool,
}

impl FiveGGateway {
    /// A gateway matching the paper's unit.
    pub fn new(name: impl Into<String>) -> FiveGGateway {
        let lan_v4: Ipv4Addr = "192.168.12.1".parse().expect("static ip");
        let wan_v4: Ipv4Addr = "100.66.7.8".parse().expect("static ip");
        // The gateway's own DHCP: DNS points at itself, option 108 impossible.
        let dhcp = DhcpServer::new(ServerConfig {
            server_id: lan_v4,
            subnet: "192.168.12.0/24".parse().expect("static prefix"),
            range: (100, 199),
            router: Some(lan_v4),
            dns: vec![lan_v4],
            domain: None,
            lease_time: 3600,
            v6only_wait: None,
            v6only_exempt: std::collections::HashSet::new(),
            captive_portal: None,
        });
        FiveGGateway {
            name: name.into(),
            lan_mac: MacAddr::new([0x02, 0x5f, 0x47, 0, 0, 0x01]),
            link_local: "fe80::5f47:1".parse().expect("static ip"),
            gua_prefix: "2607:fb90:9bda:a425::/64".parse().expect("static prefix"),
            reboot_count: 0,
            lan_v4,
            wan_v4,
            upstream_dns: "9.9.9.9".parse().expect("static ip"),
            dhcp,
            nat64: Nat64::new(
                Nat64Prefix::well_known(),
                vec![wan_v4],
                Nat64Config {
                    port_floor: 32768,
                    ..Default::default()
                },
            ),
            nat44: Napt44::new(wan_v4),
            ra_interval: SimTime::from_secs(10),
            advertised_rdnss: vec![
                "fd00:976a::9".parse().expect("static ip"),
                "fd00:976a::10".parse().expect("static ip"),
            ],
            neigh6: FastMap::default(),
            arp4: FastMap::default(),
            dns_proxy_ports: FastMap::default(),
            no_route_drops: 0,
            block_v4_internet: false,
        }
    }

    /// The gateway's own GUA (first host of the delegated prefix).
    pub fn gua(&self) -> Ipv6Addr {
        self.gua_prefix.with_iid(1)
    }

    /// Simulate a power cycle: the mobile network delegates a *different*
    /// /64 (paper: "Every reboot, the device would obtain a different /64
    /// prefix"), and all state is lost.
    pub fn reboot(&mut self) {
        self.reboot_count += 1;
        let base: Ipv6Prefix = "2607:fb90:9bda::/48".parse().expect("static prefix");
        self.gua_prefix = base.subnet64(0xa425 + self.reboot_count);
        self.neigh6.clear();
        self.arp4.clear();
        self.dns_proxy_ports.clear();
        let wan = self.wan_v4;
        self.nat44 = Napt44::new(wan);
        self.nat64 = Nat64::new(
            Nat64Prefix::well_known(),
            vec![wan],
            Nat64Config {
                port_floor: 32768,
                ..Default::default()
            },
        );
    }

    /// Restore the post-construction state — unlike [`reboot`], which
    /// deliberately rotates the GUA prefix, this rewinds the gateway to
    /// exactly what [`FiveGGateway::new`] built: initial prefix, empty
    /// neighbour/ARP tables, fresh DHCP/NAT44/NAT64 state, counters
    /// zeroed. `block_v4_internet` is an experiment knob and is *not*
    /// reset; callers set it per cell.
    ///
    /// [`reboot`]: FiveGGateway::reboot
    pub fn reset(&mut self) {
        self.gua_prefix = "2607:fb90:9bda:a425::/64".parse().expect("static prefix");
        self.reboot_count = 0;
        self.dhcp.reset();
        self.nat64.reset();
        self.nat44.reset();
        self.neigh6.clear();
        self.arp4.clear();
        self.dns_proxy_ports.clear();
        self.no_route_drops = 0;
    }

    fn build_ra(&self) -> RouterAdvertisement {
        let mut ra = RouterAdvertisement::new(1800);
        ra.preference = RouterPreference::Medium;
        ra.options.push(NdpOption::SourceLinkLayer(self.lan_mac));
        ra.options.push(NdpOption::Mtu(1500));
        ra.options.push(NdpOption::PrefixInformation {
            prefix_len: 64,
            on_link: true,
            autonomous: true,
            valid_lifetime: 7200,
            preferred_lifetime: 1800,
            prefix: self.gua_prefix.network(),
        });
        // The defect: dead ULA resolvers, unremovable (Fig. 3).
        ra.options.push(NdpOption::Rdnss {
            lifetime: 1800,
            servers: self.advertised_rdnss.clone(),
        });
        ra
    }

    fn send_ra(&self, ctx: &mut Ctx) {
        let frame = build_icmpv6(
            self.lan_mac,
            MacAddr::for_ipv6_multicast(all_nodes()),
            self.link_local,
            all_nodes(),
            &Icmpv6Message::RouterAdvertisement(self.build_ra()),
        );
        ctx.send(LAN, frame);
    }

    fn lan_send_v6(&mut self, pkt: Ipv6Packet, ctx: &mut Ctx) {
        let Some(&mac) = self.neigh6.get(&pkt.dst) else {
            self.no_route_drops += 1;
            return; // would queue + NS in a full stack
        };
        ctx.send(LAN, pkt.encode_frame(mac, self.lan_mac));
    }

    fn lan_send_v4(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx) {
        let Some(&mac) = self.arp4.get(&pkt.dst) else {
            self.no_route_drops += 1;
            return;
        };
        ctx.send(LAN, pkt.encode_frame(mac, self.lan_mac));
    }

    fn wan_send_v4(&self, pkt: Ipv4Packet, ctx: &mut Ctx) {
        ctx.send(WAN, pkt.encode_frame(MacAddr::BROADCAST, self.lan_mac));
    }

    fn wan_send_v6(&self, pkt: Ipv6Packet, ctx: &mut Ctx) {
        ctx.send(WAN, pkt.encode_frame(MacAddr::BROADCAST, self.lan_mac));
    }

    fn handle_lan_v6(&mut self, parsed: &FrameView<'_>, ip: &Ipv6View<'_>, ctx: &mut Ctx) {
        self.neigh6.insert(ip.src, parsed.eth.src);
        // Addressed to us?
        if ip.dst == self.link_local || ip.dst == self.gua() || ip.dst == all_nodes() {
            match &parsed.l4 {
                L4View::Icmp6(Icmp6View::RouterSolicitation { .. }) => self.send_ra(ctx),
                L4View::Icmp6(Icmp6View::NeighborSolicitation { target, .. })
                    if (*target == self.link_local || *target == self.gua()) =>
                {
                    let na = Icmpv6Message::NeighborAdvertisement(NeighborAdvertisement {
                        router: true,
                        solicited: true,
                        override_flag: true,
                        target: *target,
                        options: vec![NdpOption::TargetLinkLayer(self.lan_mac)],
                    });
                    let frame = build_icmpv6(self.lan_mac, parsed.eth.src, *target, ip.src, &na);
                    ctx.send(LAN, frame);
                }
                L4View::Icmp6(Icmp6View::EchoRequest {
                    ident,
                    seq,
                    payload,
                }) => {
                    let reply = Icmpv6Message::EchoReply {
                        ident: *ident,
                        seq: *seq,
                        payload: payload.to_vec(),
                    };
                    let frame = build_icmpv6(self.lan_mac, parsed.eth.src, ip.dst, ip.src, &reply);
                    ctx.send(LAN, frame);
                }
                _ => {}
            }
            return;
        }
        // NS for addresses that are not ours (e.g. solicited-node multicast
        // for another host) — not our business; hosts answer each other.
        if let L4View::Icmp6(Icmp6View::NeighborSolicitation { .. }) = &parsed.l4 {
            return;
        }
        // Routing decision.
        if self.nat64.prefix().matches(ip.dst) {
            if let Ok(v4) = self.nat64.v6_to_v4(&ip.to_packet(), ctx.now.as_secs()) {
                self.wan_send_v4(v4, ctx)
            }
            return;
        }
        match v6_class(ip.dst) {
            V6Class::GlobalUnicast | V6Class::SixToFour | V6Class::Teredo => {
                // Same hop-limit rule as `Ipv6Packet::forwarded`, without
                // materializing the packet when the TTL is spent.
                if ip.hop_limit > 1 {
                    let mut fwd = ip.to_packet();
                    fwd.hop_limit -= 1;
                    self.wan_send_v6(fwd, ctx);
                }
            }
            // ULA (the dead RDNSS!), link-local, everything else: no route.
            _ => {
                self.no_route_drops += 1;
            }
        }
    }

    fn handle_lan_v4(&mut self, parsed: &FrameView<'_>, ip: &Ipv4View<'_>, ctx: &mut Ctx) {
        if !ip.src.is_unspecified() {
            self.arp4.insert(ip.src, parsed.eth.src);
        }
        let broadcast = ip.dst == Ipv4Addr::BROADCAST;
        // DHCP to us (or broadcast).
        if let L4View::Udp(udp) = &parsed.l4 {
            if udp.dst_port == port::DHCP_SERVER && (broadcast || ip.dst == self.lan_v4) {
                if let Ok(msg) = v6dhcp::codec::DhcpMessage::decode(udp.payload) {
                    self.arp4
                        .entry(Ipv4Addr::UNSPECIFIED)
                        .or_insert(parsed.eth.src);
                    if let Some(reply) = self.dhcp.handle(&msg, ctx.now.as_secs()) {
                        let yiaddr = reply.yiaddr;
                        let dgram =
                            UdpDatagram::new(port::DHCP_SERVER, port::DHCP_CLIENT, reply.encode());
                        // Reply unicast to the client MAC, broadcast IP.
                        let frame = v6wire::packet::build_udp_v4(
                            self.lan_mac,
                            msg.chaddr,
                            self.lan_v4,
                            Ipv4Addr::BROADCAST,
                            &dgram,
                        );
                        self.arp4.insert(yiaddr, msg.chaddr);
                        ctx.send(LAN, frame);
                    }
                }
                return;
            }
            // DNS proxy: queries addressed to the gateway's resolver address.
            if udp.dst_port == port::DNS && ip.dst == self.lan_v4 {
                let upstream = self.upstream_dns;
                let rewritten = Ipv4Packet::new(
                    ip.src,
                    upstream,
                    proto::UDP,
                    UdpDatagram::new(udp.src_port, port::DNS, udp.payload.to_vec())
                        .encode_v4(ip.src, upstream),
                );
                if let Ok(out) = self.nat44.outbound(&rewritten, ctx.now.as_secs()) {
                    // Remember the external port so the reply maps back.
                    if let Ok(od) = UdpView::parse_v4(&out.payload, out.src, out.dst) {
                        self.dns_proxy_ports.insert(od.src_port, ());
                    }
                    self.wan_send_v4(out, ctx);
                }
                return;
            }
        }
        // ICMP echo to us.
        if ip.dst == self.lan_v4 {
            if let L4View::Icmp4(Icmp4View::EchoRequest {
                ident,
                seq,
                payload,
            }) = &parsed.l4
            {
                let reply = Icmpv4Message::EchoReply {
                    ident: *ident,
                    seq: *seq,
                    payload: payload.to_vec(),
                };
                let frame = v6wire::packet::build_icmpv4(
                    self.lan_mac,
                    parsed.eth.src,
                    self.lan_v4,
                    ip.src,
                    &reply,
                );
                ctx.send(LAN, frame);
            }
            return;
        }
        if broadcast || ip.dst.is_multicast() {
            return;
        }
        // Default route: NAT44 to the internet (unless the Fig. 8
        // restriction experiment blocked it).
        if self.block_v4_internet {
            self.no_route_drops += 1;
            return;
        }
        if let Ok(out) = self.nat44.outbound(&ip.to_packet(), ctx.now.as_secs()) {
            self.wan_send_v4(out, ctx);
        }
    }

    fn handle_wan(&mut self, parsed: &FrameView<'_>, ctx: &mut Ctx) {
        match &parsed.l3 {
            L3View::V4(ip) if ip.dst == self.wan_v4 => {
                let now = ctx.now.as_secs();
                let pkt = ip.to_packet();
                // NAT64 reverse first (its port floor keeps ranges disjoint).
                if let Ok(v6) = self.nat64.v4_to_v6(&pkt, now) {
                    self.lan_send_v6(v6, ctx);
                    return;
                }
                if let Ok(mut v4) = self.nat44.inbound(&pkt, now) {
                    // Proxied DNS replies masquerade as the gateway resolver.
                    if ip.src == self.upstream_dns {
                        if let Ok(d) = UdpView::parse_v4(ip.payload, ip.src, ip.dst) {
                            if self.dns_proxy_ports.contains_key(&d.dst_port) {
                                let inner = UdpView::parse_v4(&v4.payload, v4.src, v4.dst)
                                    .expect("nat44 output is valid");
                                let lan_v4 = self.lan_v4;
                                let reply = UdpDatagram::new(
                                    port::DNS,
                                    inner.dst_port,
                                    inner.payload.to_vec(),
                                )
                                .encode_v4(lan_v4, v4.dst);
                                v4 = Ipv4Packet::new(lan_v4, v4.dst, proto::UDP, reply);
                            }
                        }
                    }
                    self.lan_send_v4(v4, ctx);
                }
            }
            L3View::V6(ip) if self.gua_prefix.contains(ip.dst) => {
                if ip.dst == self.gua() {
                    return; // traffic to the gateway itself: nothing to serve
                }
                if ip.hop_limit > 1 {
                    let mut fwd = ip.to_packet();
                    fwd.hop_limit -= 1;
                    self.lan_send_v6(fwd, ctx);
                }
            }
            _ => {}
        }
    }
}

impl Node for FiveGGateway {
    fn name(&self) -> &str {
        &self.name
    }

    fn device_metrics(&self) -> v6wire::metrics::Metrics {
        let mut m = v6wire::metrics::Metrics::new();
        m.add("no_route_drops", self.no_route_drops);
        m.add("dhcp.offers_with_108", self.dhcp.offers_with_108);
        m.add("dhcp.offers_plain", self.dhcp.offers_plain);
        m.merge_namespaced("nat44", &self.nat44.metrics());
        m.merge_namespaced("nat64", &self.nat64.metrics());
        m
    }

    fn start(&mut self, ctx: &mut Ctx) {
        ctx.timer_in(SimTime::from_millis(50), RA_TIMER);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == RA_TIMER {
            self.send_ra(ctx);
            ctx.timer_in(self.ra_interval, RA_TIMER);
        }
    }

    fn on_frame(&mut self, port_idx: u32, raw: &[u8], ctx: &mut Ctx) {
        let Ok(parsed) = FrameView::parse(raw) else {
            return;
        };
        if port_idx == WAN {
            self.handle_wan(&parsed, ctx);
            return;
        }
        match &parsed.l3 {
            L3View::Arp(arp) => {
                self.arp4.insert(arp.sender_ip, arp.sender_mac);
                if arp.op == ArpOp::Request && arp.target_ip == self.lan_v4 {
                    let reply = ArpPacket::reply_to(arp, self.lan_mac);
                    ctx.send(LAN, build_arp(self.lan_mac, arp.sender_mac, &reply));
                }
            }
            L3View::V6(ip) => {
                let ip = *ip;
                self.handle_lan_v6(&parsed, &ip, ctx);
            }
            L3View::V4(ip) => {
                let ip = *ip;
                self.handle_lan_v4(&parsed, &ip, ctx);
            }
            L3View::Other(..) => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Network;
    use v6wire::packet::{L3, L4};

    struct Sink {
        name: String,
        frames: Vec<Vec<u8>>,
    }

    impl Node for Sink {
        fn name(&self) -> &str {
            &self.name
        }

        fn on_frame(&mut self, _port: u32, frame: &[u8], _ctx: &mut Ctx) {
            self.frames.push(frame.to_vec());
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn sink(name: &str) -> Box<Sink> {
        Box::new(Sink {
            name: name.into(),
            frames: Vec::new(),
        })
    }

    fn setup() -> (Network, usize, usize, usize) {
        let mut net = Network::new();
        let gw = net.add_node(Box::new(FiveGGateway::new("5g-gw")));
        let lan = net.add_node(sink("lan-host"));
        let wan = net.add_node(sink("internet"));
        net.link(gw, LAN, lan, 0, SimTime::from_micros(10));
        net.link(gw, WAN, wan, 0, SimTime::from_millis(20));
        (net, gw, lan, wan)
    }

    fn ras_in(frames: &[Vec<u8>]) -> Vec<RouterAdvertisement> {
        frames
            .iter()
            .filter_map(
                |f| match FrameView::parse(f).map(|v| v.to_parsed()).ok()?.l4 {
                    L4::Icmp6(Icmpv6Message::RouterAdvertisement(ra)) => Some(ra),
                    _ => None,
                },
            )
            .collect()
    }

    #[test]
    fn fig3_ra_advertises_dead_ula_rdnss() {
        let (mut net, _gw, lan, _wan) = setup();
        net.run_until(SimTime::from_secs(1));
        let ras = ras_in(&net.node_mut::<Sink>(lan).frames);
        assert!(!ras.is_empty());
        assert_eq!(
            ras[0].rdnss_servers(),
            vec![
                "fd00:976a::9".parse::<Ipv6Addr>().unwrap(),
                "fd00:976a::10".parse::<Ipv6Addr>().unwrap()
            ],
            "the defect from Fig. 3"
        );
        assert_eq!(ras[0].preference, RouterPreference::Medium);
        assert_eq!(ras[0].slaac_prefixes().len(), 1);
    }

    #[test]
    fn reboot_rotates_prefix() {
        let (mut net, gw, lan, _wan) = setup();
        net.run_until(SimTime::from_secs(1));
        let before = ras_in(&net.node_mut::<Sink>(lan).frames)[0].slaac_prefixes()[0].0;
        net.node_mut::<Sink>(lan).frames.clear();
        net.node_mut::<FiveGGateway>(gw).reboot();
        net.run_for(SimTime::from_secs(11));
        let after = ras_in(&net.node_mut::<Sink>(lan).frames)[0].slaac_prefixes()[0].0;
        assert_ne!(before, after, "every reboot yields a different /64");
    }

    #[test]
    fn dhcp_works_but_never_offers_108() {
        let (mut net, _gw, lan, _wan) = setup();
        net.start();
        net.run_until(SimTime::ZERO);
        let mut d = v6dhcp::codec::DhcpMessage::client(
            v6dhcp::codec::DhcpMessageType::Discover,
            1,
            MacAddr::new([2, 0, 0, 0, 3, 1]),
        );
        d.options
            .push(v6dhcp::codec::DhcpOption::ParameterRequestList(vec![
                1, 3, 6, 108,
            ]));
        let frame = v6wire::packet::build_udp_v4(
            MacAddr::new([2, 0, 0, 0, 3, 1]),
            MacAddr::BROADCAST,
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::BROADCAST,
            &UdpDatagram::new(port::DHCP_CLIENT, port::DHCP_SERVER, d.encode()),
        );
        net.with_node::<Sink, _>(lan, |_, ctx| ctx.send(0, frame));
        net.run_for(SimTime::from_millis(5));
        let offers: Vec<v6dhcp::codec::DhcpMessage> = net
            .node_mut::<Sink>(lan)
            .frames
            .iter()
            .filter_map(
                |f| match FrameView::parse(f).map(|v| v.to_parsed()).ok()?.l4 {
                    L4::Udp(u) if u.src_port == port::DHCP_SERVER => {
                        v6dhcp::codec::DhcpMessage::decode(&u.payload).ok()
                    }
                    _ => None,
                },
            )
            .collect();
        assert_eq!(offers.len(), 1, "the pool cannot be disabled");
        assert_eq!(
            offers[0].v6only_wait(),
            None,
            "and it cannot define option 108"
        );
        assert_eq!(
            offers[0].dns_servers(),
            vec!["192.168.12.1".parse::<Ipv4Addr>().unwrap()]
        );
    }

    #[test]
    fn nat64_path_works_end_to_end() {
        let (mut net, _gw, lan, wan) = setup();
        net.start();
        net.run_until(SimTime::ZERO);
        let client_mac = MacAddr::new([2, 0, 0, 0, 3, 9]);
        let client_v6: Ipv6Addr = "2607:fb90:9bda:a425::50".parse().unwrap();
        let dst = Nat64Prefix::well_known().embed_unchecked("190.92.158.4".parse().unwrap());
        let d = UdpDatagram::new(40000, 53, b"q".to_vec());
        let frame = v6wire::packet::build_udp_v6(
            client_mac,
            MacAddr::new([0x02, 0x5f, 0x47, 0, 0, 0x01]),
            client_v6,
            dst,
            &d,
        );
        net.with_node::<Sink, _>(lan, |_, ctx| ctx.send(0, frame));
        net.run_for(SimTime::from_millis(50));
        // The internet side sees a v4 packet from the gateway's WAN address.
        let wan_frames = &net.node_mut::<Sink>(wan).frames;
        assert_eq!(wan_frames.len(), 1);
        let p = FrameView::parse(&wan_frames[0])
            .map(|v| v.to_parsed())
            .unwrap();
        let L3::V4(ip) = &p.l3 else {
            panic!("expected v4")
        };
        assert_eq!(ip.src, "100.66.7.8".parse::<Ipv4Addr>().unwrap());
        assert_eq!(ip.dst, "190.92.158.4".parse::<Ipv4Addr>().unwrap());
        let L4::Udp(u) = &p.l4 else {
            panic!("expected udp")
        };
        // Reply from the server retraces into v6 toward the client.
        let reply = UdpDatagram::new(53, u.src_port, b"r".to_vec());
        let rframe = v6wire::packet::build_udp_v4(
            MacAddr::new([2, 0, 0, 0, 4, 1]),
            MacAddr::BROADCAST,
            "190.92.158.4".parse().unwrap(),
            "100.66.7.8".parse().unwrap(),
            &reply,
        );
        net.with_node::<Sink, _>(wan, |_, ctx| ctx.send(0, rframe));
        net.run_for(SimTime::from_millis(50));
        let lan_frames = &net.node_mut::<Sink>(lan).frames;
        let got = lan_frames
            .iter()
            .filter_map(|f| FrameView::parse(f).map(|v| v.to_parsed()).ok())
            .find_map(|p| match (p.l3, p.l4) {
                (L3::V6(ip), L4::Udp(u)) if ip.dst == client_v6 => Some(u),
                _ => None,
            })
            .expect("translated reply must reach the client");
        assert_eq!(got.dst_port, 40000);
        assert_eq!(got.payload, b"r");
    }

    #[test]
    fn ula_destinations_unroutable() {
        // The heart of Fig. 3: DNS queries to the advertised fd00:976a::9
        // go nowhere without the managed switch + Pi.
        let (mut net, gw, lan, wan) = setup();
        net.start();
        net.run_until(SimTime::ZERO);
        let frame = v6wire::packet::build_udp_v6(
            MacAddr::new([2, 0, 0, 0, 3, 9]),
            MacAddr::new([0x02, 0x5f, 0x47, 0, 0, 0x01]),
            "2607:fb90:9bda:a425::50".parse().unwrap(),
            "fd00:976a::9".parse().unwrap(),
            &UdpDatagram::new(40000, 53, b"dns?".to_vec()),
        );
        net.with_node::<Sink, _>(lan, |_, ctx| ctx.send(0, frame));
        net.run_for(SimTime::from_millis(100));
        assert!(net.node_mut::<Sink>(wan).frames.is_empty(), "never leaves");
        assert_eq!(net.node_mut::<FiveGGateway>(gw).no_route_drops, 1);
    }

    #[test]
    fn dns_proxy_and_nat44_legacy_path() {
        let (mut net, _gw, lan, wan) = setup();
        net.start();
        net.run_until(SimTime::ZERO);
        let client_mac = MacAddr::new([2, 0, 0, 0, 3, 5]);
        // Client got 192.168.12.100 from the gateway's DHCP; queries DNS at
        // the gateway.
        let frame = v6wire::packet::build_udp_v4(
            client_mac,
            MacAddr::new([0x02, 0x5f, 0x47, 0, 0, 0x01]),
            "192.168.12.100".parse().unwrap(),
            "192.168.12.1".parse().unwrap(),
            &UdpDatagram::new(5353, port::DNS, b"query-bytes".to_vec()),
        );
        net.with_node::<Sink, _>(lan, |_, ctx| ctx.send(0, frame));
        net.run_for(SimTime::from_millis(50));
        // Proxied to the upstream resolver.
        let p = FrameView::parse(&net.node_mut::<Sink>(wan).frames[0])
            .map(|v| v.to_parsed())
            .unwrap();
        let L3::V4(ip) = &p.l3 else {
            panic!("v4 expected")
        };
        assert_eq!(ip.dst, "9.9.9.9".parse::<Ipv4Addr>().unwrap());
        assert_eq!(ip.src, "100.66.7.8".parse::<Ipv4Addr>().unwrap());
        let L4::Udp(u) = &p.l4 else {
            panic!("udp expected")
        };
        // Upstream answers; client must see the reply from 192.168.12.1.
        let reply = UdpDatagram::new(port::DNS, u.src_port, b"answer-bytes".to_vec());
        let rframe = v6wire::packet::build_udp_v4(
            MacAddr::new([2, 0, 0, 0, 4, 2]),
            MacAddr::BROADCAST,
            "9.9.9.9".parse().unwrap(),
            "100.66.7.8".parse().unwrap(),
            &reply,
        );
        net.with_node::<Sink, _>(wan, |_, ctx| ctx.send(0, rframe));
        net.run_for(SimTime::from_millis(50));
        let got = net
            .node_mut::<Sink>(lan)
            .frames
            .iter()
            .filter_map(|f| FrameView::parse(f).map(|v| v.to_parsed()).ok())
            .find_map(|p| match (p.l3, p.l4) {
                (L3::V4(ip), L4::Udp(u)) if u.dst_port == 5353 => Some((ip, u)),
                _ => None,
            })
            .expect("proxied DNS reply");
        assert_eq!(got.0.src, "192.168.12.1".parse::<Ipv4Addr>().unwrap());
        assert_eq!(got.1.payload, b"answer-bytes");
    }

    #[test]
    fn arp_and_ping_gateway() {
        let (mut net, _gw, lan, _wan) = setup();
        net.start();
        net.run_until(SimTime::ZERO);
        let client_mac = MacAddr::new([2, 0, 0, 0, 3, 7]);
        let req = ArpPacket::request(
            client_mac,
            "192.168.12.100".parse().unwrap(),
            "192.168.12.1".parse().unwrap(),
        );
        net.with_node::<Sink, _>(lan, |_, ctx| {
            ctx.send(0, build_arp(client_mac, MacAddr::BROADCAST, &req))
        });
        net.run_for(SimTime::from_millis(5));
        let reply = net
            .node_mut::<Sink>(lan)
            .frames
            .iter()
            .filter_map(|f| FrameView::parse(f).map(|v| v.to_parsed()).ok())
            .find_map(|p| match p.l3 {
                L3::Arp(a) if a.op == ArpOp::Reply => Some(a),
                _ => None,
            })
            .expect("arp reply");
        assert_eq!(reply.sender_ip, "192.168.12.1".parse::<Ipv4Addr>().unwrap());
    }
}
