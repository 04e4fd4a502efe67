//! Layer-2 devices: a learning Ethernet switch, and the paper's *managed
//! switch* — the same switch augmented with (a) DHCPv4 snooping to silence
//! the 5G gateway's pool and (b) its own low-priority Router Advertisements
//! for `fd00:976a::/64` with a live RDNSS (paper §IV.A).

use crate::engine::{Ctx, Node};
use crate::time::SimTime;
use std::any::Any;
use std::net::Ipv6Addr;
use v6addr::prefix::Ipv6Prefix;
use v6dhcp::codec::DhcpMessage;
use v6dhcp::snoop::{DhcpSnoop, SnoopVerdict};
use v6wire::fasthash::FastMap;
use v6wire::icmpv6::{all_nodes, Icmpv6Message};
use v6wire::mac::MacAddr;
use v6wire::ndp::{NdpOption, RouterAdvertisement, RouterPreference};
use v6wire::packet::build_icmpv6;
use v6wire::udp::port;
use v6wire::view::{FrameView, Icmp6View, L3View, L4View};

/// Configuration for the managed switch's own RA.
#[derive(Debug, Clone)]
pub struct RaInjection {
    /// The switch's MAC for RA sourcing.
    pub mac: MacAddr,
    /// The switch's link-local address.
    pub link_local: Ipv6Addr,
    /// On-link + SLAAC prefix to advertise (the paper's `fd00:976a::/64`).
    pub prefix: Ipv6Prefix,
    /// RDNSS servers (the paper's live `fd00:976a::9`).
    pub rdnss: Vec<Ipv6Addr>,
    /// DNSSL search domains.
    pub dnssl: Vec<String>,
    /// Router preference — *Low*, so the gateway stays the default router.
    pub preference: RouterPreference,
    /// Router lifetime (0 = advertise prefix/RDNSS without being a default
    /// router).
    pub router_lifetime: u16,
    /// Beacon interval.
    pub interval: SimTime,
    /// Optional PREF64 (RFC 8781) to advertise alongside the prefix.
    pub pref64: Option<(Ipv6Addr, u8)>,
}

impl RaInjection {
    /// The paper's configuration.
    pub fn testbed(mac: MacAddr) -> RaInjection {
        RaInjection {
            mac,
            link_local: Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 0x5c),
            prefix: "fd00:976a::/64".parse().expect("static prefix"),
            rdnss: vec!["fd00:976a::9".parse().expect("static ip")],
            dnssl: vec!["rfc8925.com".into()],
            preference: RouterPreference::Low,
            router_lifetime: 1800,
            interval: SimTime::from_secs(10),
            pref64: None,
        }
    }

    fn build(&self) -> RouterAdvertisement {
        let mut ra = RouterAdvertisement::new(self.router_lifetime);
        ra.preference = self.preference;
        ra.options.push(NdpOption::SourceLinkLayer(self.mac));
        ra.options.push(NdpOption::PrefixInformation {
            prefix_len: self.prefix.len(),
            on_link: true,
            autonomous: true,
            valid_lifetime: 2_592_000,
            preferred_lifetime: 604_800,
            prefix: self.prefix.network(),
        });
        ra.options.push(NdpOption::Rdnss {
            lifetime: 3600,
            servers: self.rdnss.clone(),
        });
        if !self.dnssl.is_empty() {
            ra.options.push(NdpOption::Dnssl {
                lifetime: 3600,
                domains: self.dnssl.clone(),
            });
        }
        if let Some((prefix, prefix_len)) = self.pref64 {
            ra.options.push(NdpOption::Pref64 {
                lifetime: 1800,
                prefix,
                prefix_len,
            });
        }
        ra
    }
}

const RA_TIMER: u64 = 1;

/// A learning Ethernet switch with optional DHCP snooping and RA injection.
pub struct Switch {
    name: String,
    ports: u32,
    mac_table: FastMap<MacAddr, u32>,
    /// DHCP snooping state, if enabled.
    pub snoop: Option<DhcpSnoop>,
    /// RA injection, if enabled (the "managed switch" role).
    pub ra: Option<RaInjection>,
    /// Encoded RA frame, built from `ra` at first emission. The RA is a
    /// pure function of configuration, so the (checksummed) bytes are
    /// computed once and replayed on every beacon and solicitation.
    ra_frame: Option<Vec<u8>>,
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped by snooping.
    pub snoop_dropped: u64,
}

impl Switch {
    /// A plain learning switch with `ports` ports.
    pub fn new(name: impl Into<String>, ports: u32) -> Switch {
        Switch {
            name: name.into(),
            ports,
            mac_table: FastMap::default(),
            snoop: None,
            ra: None,
            ra_frame: None,
            forwarded: 0,
            snoop_dropped: 0,
        }
    }

    /// The paper's managed switch: snooping enabled with `trusted_port`
    /// (where the Raspberry Pi servers live) and testbed RA injection.
    pub fn managed(name: impl Into<String>, ports: u32, trusted_port: u32) -> Switch {
        let mut snoop = DhcpSnoop::new();
        snoop.trust(trusted_port);
        let mut sw = Switch::new(name, ports);
        sw.snoop = Some(snoop);
        sw.ra = Some(RaInjection::testbed(MacAddr::new([
            0x02, 0x5c, 0, 0, 0, 0x01,
        ])));
        sw
    }

    /// Restore the post-construction state: learned MACs forgotten,
    /// snoop and forwarding counters zeroed. Configuration (port count,
    /// trusted ports, RA injection) is left exactly as built.
    pub fn reset(&mut self) {
        self.mac_table.clear();
        if let Some(snoop) = &mut self.snoop {
            snoop.reset();
        }
        self.forwarded = 0;
        self.snoop_dropped = 0;
    }

    fn is_dhcp(frame: &FrameView) -> Option<DhcpMessage> {
        if let (L3View::V4(_), L4View::Udp(udp)) = (&frame.l3, &frame.l4) {
            if (udp.dst_port == port::DHCP_SERVER || udp.dst_port == port::DHCP_CLIENT)
                && (udp.src_port == port::DHCP_SERVER || udp.src_port == port::DHCP_CLIENT)
            {
                return DhcpMessage::decode(udp.payload).ok();
            }
        }
        None
    }

    fn flood(&mut self, ingress: u32, raw: &[u8], ctx: &mut Ctx) {
        for p in 0..self.ports {
            if p != ingress {
                ctx.send_copy(p, raw);
            }
        }
    }

    fn emit_ra(&mut self, ctx: &mut Ctx) {
        if let Some(ra) = &self.ra {
            let frame = self.ra_frame.get_or_insert_with(|| {
                let msg = Icmpv6Message::RouterAdvertisement(ra.build());
                build_icmpv6(
                    ra.mac,
                    MacAddr::for_ipv6_multicast(all_nodes()),
                    ra.link_local,
                    all_nodes(),
                    &msg,
                )
            });
            for p in 0..self.ports {
                ctx.send_copy(p, frame);
            }
        }
    }
}

impl Node for Switch {
    fn name(&self) -> &str {
        &self.name
    }

    fn device_metrics(&self) -> v6wire::metrics::Metrics {
        let mut m = v6wire::metrics::Metrics::new();
        m.add("forwarded", self.forwarded);
        m.add("snoop_dropped", self.snoop_dropped);
        m.add("macs_learned", self.mac_table.len() as u64);
        m
    }

    fn start(&mut self, ctx: &mut Ctx) {
        if let Some(ra) = &self.ra {
            // First beacon shortly after boot, then periodic.
            ctx.timer_in(SimTime::from_millis(100), RA_TIMER);
            let _ = ra;
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == RA_TIMER {
            self.emit_ra(ctx);
            if let Some(ra) = &self.ra {
                ctx.timer_in(ra.interval, RA_TIMER);
            }
        }
    }

    fn on_frame(&mut self, ingress: u32, raw: &[u8], ctx: &mut Ctx) {
        // A switch only inspects headers; the zero-copy view keeps the
        // per-hop cost allocation-free.
        let Ok(parsed) = FrameView::parse(raw) else {
            return; // corrupt frame: drop
        };
        // Learn the source.
        if !parsed.eth.src.is_multicast() {
            self.mac_table.insert(parsed.eth.src, ingress);
        }
        // DHCP snooping.
        if let Some(snoop) = &mut self.snoop {
            if let Some(dhcp) = Self::is_dhcp(&parsed) {
                if snoop.inspect(ingress, &dhcp) == SnoopVerdict::DropUntrustedServer {
                    self.snoop_dropped += 1;
                    return;
                }
            }
        }
        // An RS arriving triggers an immediate RA (RFC 4861 §6.2.6) in
        // addition to normal forwarding.
        if matches!(
            parsed.l4,
            L4View::Icmp6(Icmp6View::RouterSolicitation { .. })
        ) {
            self.emit_ra(ctx);
        }
        // Forward.
        self.forwarded += 1;
        if parsed.eth.dst.is_multicast() {
            self.flood(ingress, raw, ctx);
        } else if let Some(&out) = self.mac_table.get(&parsed.eth.dst) {
            if out != ingress {
                ctx.send_copy(out, raw);
            }
        } else {
            self.flood(ingress, raw, ctx);
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
    use v6dhcp::codec::DhcpMessageType;
    use v6wire::packet::{build_udp_v4, L4};

    /// Capture-everything endpoint.
    struct Sink {
        name: String,
        frames: Vec<Vec<u8>>,
    }

    impl Sink {
        fn new(name: &str) -> Box<Sink> {
            Box::new(Sink {
                name: name.into(),
                frames: Vec::new(),
            })
        }
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

    fn mac(n: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 9, n])
    }

    fn unicast_frame(src: MacAddr, dst: MacAddr) -> Vec<u8> {
        v6wire::ethernet::EthernetFrame::new(
            dst,
            src,
            v6wire::ethernet::EtherType::Other(0x9999),
            vec![1],
        )
        .encode()
    }

    #[test]
    fn learning_switch_floods_then_forwards() {
        let mut net = Network::new();
        let sw = net.add_node(Box::new(Switch::new("sw", 3)));
        let a = net.add_node(Sink::new("a"));
        let b = net.add_node(Sink::new("b"));
        let c = net.add_node(Sink::new("c"));
        for (i, host) in [a, b, c].into_iter().enumerate() {
            net.link(sw, i as u32, host, 0, SimTime::from_micros(1));
        }
        net.start();
        net.run_until(SimTime::ZERO);
        // a → b (unknown dst: flood to b and c).
        net.with_node::<Sink, _>(a, |_, ctx| ctx.send(0, unicast_frame(mac(1), mac(2))));
        // Deliver a's frame to the switch and onward.
        net.run_for(SimTime::from_millis(1));
        // b replies → a (a's MAC now learned: unicast to port 0 only).
        net.with_node::<Sink, _>(b, |_, ctx| ctx.send(0, unicast_frame(mac(2), mac(1))));
        net.run_for(SimTime::from_millis(1));
        assert_eq!(
            net.node_mut::<Sink>(c).frames.len(),
            1,
            "c saw only the flood"
        );
        assert_eq!(net.node_mut::<Sink>(b).frames.len(), 1);
        assert_eq!(
            net.node_mut::<Sink>(a).frames.len(),
            1,
            "reply unicast to a"
        );
    }

    #[test]
    fn managed_switch_beacons_low_priority_ra() {
        let mut net = Network::new();
        let sw = net.add_node(Box::new(Switch::managed("msw", 2, 0)));
        let a = net.add_node(Sink::new("a"));
        net.link(sw, 1, a, 0, SimTime::from_micros(1));
        net.run_until(SimTime::from_secs(25));
        let frames = std::mem::take(&mut net.node_mut::<Sink>(a).frames);
        let ras: Vec<RouterAdvertisement> = frames
            .iter()
            .filter_map(
                |f| match FrameView::parse(f).map(|v| v.to_parsed()).ok()?.l4 {
                    L4::Icmp6(Icmpv6Message::RouterAdvertisement(ra)) => Some(ra),
                    _ => None,
                },
            )
            .collect();
        assert!(ras.len() >= 3, "periodic beacons: {}", ras.len());
        let ra = &ras[0];
        assert_eq!(ra.preference, RouterPreference::Low);
        assert_eq!(
            ra.rdnss_servers(),
            vec!["fd00:976a::9".parse::<Ipv6Addr>().unwrap()]
        );
        assert_eq!(
            ra.slaac_prefixes(),
            vec![("fd00:976a::".parse().unwrap(), 64)]
        );
    }

    #[test]
    fn snooping_blocks_untrusted_offers() {
        let mut net = Network::new();
        // Port 0 trusted (Pi), port 1 = gateway (untrusted), port 2 = client.
        let sw = net.add_node(Box::new(Switch::managed("msw", 3, 0)));
        let pi = net.add_node(Sink::new("pi"));
        let gw = net.add_node(Sink::new("gw"));
        let client = net.add_node(Sink::new("client"));
        net.link(sw, 0, pi, 0, SimTime::from_micros(1));
        net.link(sw, 1, gw, 0, SimTime::from_micros(1));
        net.link(sw, 2, client, 0, SimTime::from_micros(1));
        net.start();
        net.run_until(SimTime::ZERO);

        let offer = {
            let req = DhcpMessage::client(DhcpMessageType::Discover, 1, mac(3));
            let mut o = DhcpMessage::reply(DhcpMessageType::Offer, &req);
            o.yiaddr = "192.168.12.60".parse().unwrap();
            o
        };
        let offer_frame = |src: MacAddr| {
            build_udp_v4(
                src,
                MacAddr::BROADCAST,
                "192.168.12.1".parse().unwrap(),
                "255.255.255.255".parse().unwrap(),
                &v6wire::udp::UdpDatagram::new(67, 68, offer.encode()),
            )
        };
        // Gateway's offer: dropped.
        net.with_node::<Sink, _>(gw, |_, ctx| ctx.send(0, offer_frame(mac(9))));
        net.run_for(SimTime::from_millis(1));
        let client_count_after_gw = {
            let c = net.node_mut::<Sink>(client);
            c.frames
                .iter()
                .filter(|f| {
                    matches!(
                        FrameView::parse(f).map(|p| matches!(p.l4, L4View::Udp(_))),
                        Ok(true)
                    )
                })
                .count()
        };
        assert_eq!(client_count_after_gw, 0, "gateway offer must be snooped");
        // Pi's offer: forwarded.
        net.with_node::<Sink, _>(pi, |_, ctx| ctx.send(0, offer_frame(mac(8))));
        net.run_for(SimTime::from_millis(1));
        let c = net.node_mut::<Sink>(client);
        let dhcp_frames = c
            .frames
            .iter()
            .filter(|f| {
                matches!(
                    FrameView::parse(f).map(|p| matches!(p.l4, L4View::Udp(_))),
                    Ok(true)
                )
            })
            .count();
        assert_eq!(dhcp_frames, 1, "pi offer must pass");
        assert_eq!(net.node_mut::<Switch>(sw).snoop_dropped, 1);
    }

    #[test]
    fn rs_triggers_immediate_ra() {
        let mut net = Network::new();
        let sw = net.add_node(Box::new(Switch::managed("msw", 2, 0)));
        let a = net.add_node(Sink::new("a"));
        net.link(sw, 1, a, 0, SimTime::from_micros(1));
        net.start();
        // Run just past boot beacon.
        net.run_until(SimTime::from_millis(200));
        net.node_mut::<Sink>(a).frames.clear();
        // Host sends RS at t=200ms; next periodic beacon would be ~10s.
        let rs = Icmpv6Message::RouterSolicitation(Default::default());
        let frame = build_icmpv6(
            mac(7),
            MacAddr::for_ipv6_multicast(v6wire::icmpv6::all_routers()),
            "fe80::7".parse().unwrap(),
            v6wire::icmpv6::all_routers(),
            &rs,
        );
        net.with_node::<Sink, _>(a, |_, ctx| ctx.send(0, frame));
        net.run_for(SimTime::from_millis(10));
        let got_ra = net.node_mut::<Sink>(a).frames.iter().any(|f| {
            matches!(
                FrameView::parse(f).map(|v| v.to_parsed()).map(|p| p.l4),
                Ok(L4::Icmp6(Icmpv6Message::RouterAdvertisement(_)))
            )
        });
        assert!(got_ra, "solicited RA must arrive without waiting a beacon");
    }
}
