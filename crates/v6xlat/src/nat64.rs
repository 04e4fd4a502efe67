//! Stateful NAT64 (RFC 6146).
//!
//! IPv6 clients address translated flows at `prefix ⊕ v4-destination`
//! (RFC 6052). Outbound packets allocate an entry in the per-protocol
//! Binding Information Base (BIB) mapping `(v6 source, source port)` to
//! `(pool address, allocated port)`; inbound packets are admitted only when
//! a binding exists (endpoint-independent mapping, address-dependent
//! filtering kept simple: binding presence is the filter).
//!
//! The testbed's NAT64 ran on the 5G gateway with the well-known prefix
//! (paper §IV.A): `Nat64::well_known_on(pool)` builds exactly that.

use crate::siit::{self, PortRewrite, XlatError};
use std::net::{Ipv4Addr, Ipv6Addr};
use v6addr::rfc6052::Nat64Prefix;
use v6wire::fasthash::FastMap;
use v6wire::ipv4::{proto, Ipv4Packet};
use v6wire::ipv6::Ipv6Packet;
use v6wire::view::{Icmp4View, Icmp6View, TcpView, UdpView};

/// Session lifetimes (RFC 6146 §4 defaults, seconds).
#[derive(Debug, Clone, Copy)]
pub struct Nat64Config {
    /// UDP session lifetime (§4: ≥ 2 min; default 5 min).
    pub udp_lifetime: u64,
    /// Established TCP session lifetime (§4: ≥ 2 h 4 min).
    pub tcp_est_lifetime: u64,
    /// Transitory TCP (SYN/FIN/RST) session lifetime.
    pub tcp_trans_lifetime: u64,
    /// ICMP query session lifetime (§4: 60 s).
    pub icmp_lifetime: u64,
    /// First port allocated from each pool address.
    pub port_floor: u16,
    /// Cap on live bindings across all protocols (`None` = unlimited).
    /// Models translation-table exhaustion on a shared carrier NAT64:
    /// new flows are refused while existing bindings keep refreshing.
    pub max_bindings: Option<usize>,
}

impl Default for Nat64Config {
    fn default() -> Self {
        Nat64Config {
            udp_lifetime: 300,
            tcp_est_lifetime: 7440,
            tcp_trans_lifetime: 240,
            icmp_lifetime: 60,
            port_floor: 1024,
            max_bindings: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Proto {
    Udp,
    Tcp,
    Icmp,
}

#[derive(Debug, Clone, Copy)]
struct Binding {
    external: (Ipv4Addr, u16),
    expires: u64,
}

/// One protocol's BIB + reverse index.
#[derive(Debug, Default)]
struct Bib {
    forward: FastMap<(Ipv6Addr, u16), Binding>,
    reverse: FastMap<(Ipv4Addr, u16), (Ipv6Addr, u16)>,
    next_port: u16,
}

/// A stateful NAT64 translator.
#[derive(Debug)]
pub struct Nat64 {
    prefix: Nat64Prefix,
    pool: Vec<Ipv4Addr>,
    config: Nat64Config,
    udp: Bib,
    tcp: Bib,
    icmp: Bib,
    /// Packets translated v6→v4.
    pub outbound: u64,
    /// Packets translated v4→v6.
    pub inbound: u64,
    /// Inbound packets dropped for want of a binding.
    pub dropped_no_binding: u64,
    /// Outbound packets refused because the session table hit
    /// [`Nat64Config::max_bindings`].
    pub dropped_table_full: u64,
}

impl Nat64 {
    /// Build with an explicit prefix and v4 pool.
    pub fn new(prefix: Nat64Prefix, pool: Vec<Ipv4Addr>, config: Nat64Config) -> Nat64 {
        let floor = config.port_floor;
        let mk = || Bib {
            next_port: floor,
            ..Default::default()
        };
        Nat64 {
            prefix,
            pool,
            config,
            udp: mk(),
            tcp: mk(),
            icmp: mk(),
            outbound: 0,
            inbound: 0,
            dropped_no_binding: 0,
            dropped_table_full: 0,
        }
    }

    /// The testbed's configuration: well-known prefix, given pool.
    pub fn well_known_on(pool: Vec<Ipv4Addr>) -> Nat64 {
        Nat64::new(Nat64Prefix::well_known(), pool, Nat64Config::default())
    }

    /// The translation prefix.
    pub fn prefix(&self) -> Nat64Prefix {
        self.prefix
    }

    /// (Re)configure the live-binding cap; `None` lifts it.
    pub fn set_max_bindings(&mut self, cap: Option<usize>) {
        self.config.max_bindings = cap;
    }

    /// Restore the post-construction state: every protocol's BIB
    /// flushed, port allocators rewound to the configured floor, the
    /// binding cap lifted (callers re-apply a per-cell cap exactly as a
    /// cold build would), and all counters zeroed.
    pub fn reset(&mut self) {
        for bib in [&mut self.udp, &mut self.tcp, &mut self.icmp] {
            bib.forward.clear();
            bib.reverse.clear();
            bib.next_port = self.config.port_floor;
        }
        self.config.max_bindings = None;
        self.outbound = 0;
        self.inbound = 0;
        self.dropped_no_binding = 0;
        self.dropped_table_full = 0;
    }

    /// Number of live bindings across protocols.
    pub fn live_bindings(&self, now: u64) -> usize {
        [&self.udp, &self.tcp, &self.icmp]
            .iter()
            .map(|b| b.forward.values().filter(|e| e.expires > now).count())
            .sum()
    }

    /// Counter snapshot (`outbound`, `inbound`, `dropped_no_binding`) in
    /// the shared [`v6wire::metrics::Metrics`] form.
    pub fn metrics(&self) -> v6wire::metrics::Metrics {
        [
            ("outbound", self.outbound),
            ("inbound", self.inbound),
            ("dropped_no_binding", self.dropped_no_binding),
            ("dropped_table_full", self.dropped_table_full),
        ]
        .into_iter()
        .collect()
    }

    /// Drop expired bindings.
    pub fn expire(&mut self, now: u64) {
        for bib in [&mut self.udp, &mut self.tcp, &mut self.icmp] {
            let dead: Vec<(Ipv6Addr, u16)> = bib
                .forward
                .iter()
                .filter(|(_, e)| e.expires <= now)
                .map(|(k, _)| *k)
                .collect();
            for k in dead {
                if let Some(e) = bib.forward.remove(&k) {
                    bib.reverse.remove(&e.external);
                }
            }
        }
    }

    fn lifetime(&self, p: Proto, tcp_established: bool) -> u64 {
        match p {
            Proto::Udp => self.config.udp_lifetime,
            Proto::Icmp => self.config.icmp_lifetime,
            Proto::Tcp if tcp_established => self.config.tcp_est_lifetime,
            Proto::Tcp => self.config.tcp_trans_lifetime,
        }
    }

    fn bib(&mut self, p: Proto) -> &mut Bib {
        match p {
            Proto::Udp => &mut self.udp,
            Proto::Tcp => &mut self.tcp,
            Proto::Icmp => &mut self.icmp,
        }
    }

    /// Allocate (or refresh) the binding for `(src, src_port)`.
    fn bind(
        &mut self,
        p: Proto,
        src: Ipv6Addr,
        src_port: u16,
        now: u64,
        tcp_established: bool,
    ) -> Result<(Ipv4Addr, u16), XlatError> {
        let lifetime = self.lifetime(p, tcp_established);
        let pool = self.pool.clone();
        if let Some(e) = self.bib(p).forward.get_mut(&(src, src_port)) {
            e.expires = now + lifetime;
            return Ok(e.external);
        }
        // Only brand-new bindings are subject to the table cap; refreshes
        // above always succeed (RFC 6146 keeps live sessions alive).
        if let Some(cap) = self.config.max_bindings {
            if self.live_bindings(now) >= cap {
                self.dropped_table_full += 1;
                return Err(XlatError::TableFull);
            }
        }
        let bib = self.bib(p);
        // Scan for a free (addr, port) pair starting at next_port.
        let span = usize::from(u16::MAX - 1024) * pool.len();
        for _ in 0..span {
            let port = bib.next_port;
            bib.next_port = if bib.next_port == u16::MAX {
                1024
            } else {
                bib.next_port + 1
            };
            for &addr in &pool {
                let key = (addr, port);
                let free = match bib.reverse.get(&key) {
                    None => true,
                    Some(holder) => bib
                        .forward
                        .get(holder)
                        .map(|e| e.expires <= now)
                        .unwrap_or(true),
                };
                if free {
                    bib.reverse.insert(key, (src, src_port));
                    bib.forward.insert(
                        (src, src_port),
                        Binding {
                            external: key,
                            expires: now + lifetime,
                        },
                    );
                    return Ok(key);
                }
            }
        }
        Err(XlatError::PoolExhausted)
    }

    /// Translate an outbound (IPv6 → IPv4) packet.
    pub fn v6_to_v4(&mut self, pkt: &Ipv6Packet, now: u64) -> Result<Ipv4Packet, XlatError> {
        let dst_v4 = self
            .prefix
            .extract(pkt.dst)
            .map_err(|_| XlatError::NotInPrefix(pkt.dst))?;
        let (p, src_port, tcp_established) = flow_v6(pkt)?;
        let (ext_addr, ext_port) = self.bind(p, pkt.src, src_port, now, tcp_established)?;
        let out = siit::v6_to_v4(
            pkt,
            ext_addr,
            dst_v4,
            PortRewrite {
                src: Some(ext_port),
                dst: None,
            },
        )?;
        self.outbound += 1;
        Ok(out)
    }

    /// Translate an inbound (IPv4 → IPv6) packet; requires a binding.
    pub fn v4_to_v6(&mut self, pkt: &Ipv4Packet, now: u64) -> Result<Ipv6Packet, XlatError> {
        let (p, dst_port) = flow_v4(pkt)?;
        let bib = self.bib(p);
        let Some(&(int_addr, int_port)) = bib.reverse.get(&(pkt.dst, dst_port)) else {
            self.dropped_no_binding += 1;
            return Err(XlatError::NoBinding);
        };
        let live = bib
            .forward
            .get(&(int_addr, int_port))
            .map(|e| e.expires > now)
            .unwrap_or(false);
        if !live {
            self.dropped_no_binding += 1;
            return Err(XlatError::NoBinding);
        }
        let new_src = self.prefix.embed_unchecked(pkt.src);
        let out = siit::v4_to_v6(
            pkt,
            new_src,
            int_addr,
            PortRewrite {
                src: None,
                dst: Some(int_port),
            },
        )?;
        self.inbound += 1;
        Ok(out)
    }
}

/// Extract (protocol, source port / ident, tcp-established?) from a v6 packet.
fn flow_v6(pkt: &Ipv6Packet) -> Result<(Proto, u16, bool), XlatError> {
    match pkt.next_header {
        proto::UDP => {
            let d = UdpView::parse_v6(&pkt.payload, pkt.src, pkt.dst)?;
            Ok((Proto::Udp, d.src_port, false))
        }
        proto::TCP => {
            let s = TcpView::parse_v6(&pkt.payload, pkt.src, pkt.dst)?;
            // A bare ACK (no SYN/FIN/RST) marks the session established.
            let est = s.flags.ack && !s.flags.syn && !s.flags.fin && !s.flags.rst;
            Ok((Proto::Tcp, s.src_port, est))
        }
        proto::ICMPV6 => match Icmp6View::parse(&pkt.payload, pkt.src, pkt.dst)? {
            Icmp6View::EchoRequest { ident, .. } | Icmp6View::EchoReply { ident, .. } => {
                Ok((Proto::Icmp, ident, false))
            }
            _ => Err(XlatError::UntranslatableIcmp),
        },
        other => Err(XlatError::UnsupportedProtocol(other)),
    }
}

/// Extract (protocol, destination port / ident) from a v4 packet.
fn flow_v4(pkt: &Ipv4Packet) -> Result<(Proto, u16), XlatError> {
    match pkt.protocol {
        proto::UDP => {
            let d = UdpView::parse_v4(&pkt.payload, pkt.src, pkt.dst)?;
            Ok((Proto::Udp, d.dst_port))
        }
        proto::TCP => {
            let s = TcpView::parse_v4(&pkt.payload, pkt.src, pkt.dst)?;
            Ok((Proto::Tcp, s.dst_port))
        }
        proto::ICMP => match Icmp4View::parse(&pkt.payload)? {
            Icmp4View::EchoRequest { ident, .. } | Icmp4View::EchoReply { ident, .. } => {
                Ok((Proto::Icmp, ident))
            }
            _ => Err(XlatError::UntranslatableIcmp),
        },
        other => Err(XlatError::UnsupportedProtocol(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6wire::icmpv6::Icmpv6Message;
    use v6wire::tcp::{TcpFlags, TcpSegment};
    use v6wire::udp::UdpDatagram;

    const CLIENT: &str = "2607:fb90:9bda:a425::50";
    const SERVER4: &str = "190.92.158.4";

    fn a4(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn a6(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn nat() -> Nat64 {
        Nat64::well_known_on(vec![a4("203.0.113.64"), a4("203.0.113.65")])
    }

    fn udp_v6(src_port: u16, dst4: Ipv4Addr, payload: &[u8]) -> Ipv6Packet {
        let dst = Nat64Prefix::well_known().embed_unchecked(dst4);
        let d = UdpDatagram::new(src_port, 53, payload.to_vec());
        Ipv6Packet::new(a6(CLIENT), dst, proto::UDP, d.encode_v6(a6(CLIENT), dst))
    }

    #[test]
    fn udp_round_trip_through_nat() {
        let mut n = nat();
        let out = n.v6_to_v4(&udp_v6(40000, a4(SERVER4), b"q"), 100).unwrap();
        assert_eq!(out.dst, a4(SERVER4));
        assert!(n.pool.contains(&out.src));
        let od = UdpView::parse_v4(&out.payload, out.src, out.dst).unwrap();
        assert_eq!(od.dst_port, 53);
        // Server replies to the external tuple.
        let reply = UdpDatagram::new(53, od.src_port, b"r".to_vec());
        let rpkt = Ipv4Packet::new(
            a4(SERVER4),
            out.src,
            proto::UDP,
            reply.encode_v4(a4(SERVER4), out.src),
        );
        let back = n.v4_to_v6(&rpkt, 101).unwrap();
        assert_eq!(back.dst, a6(CLIENT));
        assert_eq!(
            back.src,
            Nat64Prefix::well_known().embed_unchecked(a4(SERVER4))
        );
        let bd = UdpView::parse_v6(&back.payload, back.src, back.dst).unwrap();
        assert_eq!(bd.dst_port, 40000, "internal port restored");
        assert_eq!((n.outbound, n.inbound), (1, 1));
    }

    #[test]
    fn binding_reused_for_same_flow() {
        let mut n = nat();
        let o1 = n.v6_to_v4(&udp_v6(40000, a4(SERVER4), b"1"), 0).unwrap();
        let o2 = n.v6_to_v4(&udp_v6(40000, a4("8.8.8.8"), b"2"), 1).unwrap();
        let p1 = UdpView::parse_v4(&o1.payload, o1.src, o1.dst)
            .unwrap()
            .src_port;
        let p2 = UdpView::parse_v4(&o2.payload, o2.src, o2.dst)
            .unwrap()
            .src_port;
        assert_eq!((o1.src, p1), (o2.src, p2), "endpoint-independent mapping");
        assert_eq!(n.live_bindings(2), 1);
    }

    #[test]
    fn distinct_flows_get_distinct_ports() {
        let mut n = nat();
        let o1 = n.v6_to_v4(&udp_v6(40000, a4(SERVER4), b"1"), 0).unwrap();
        let o2 = n.v6_to_v4(&udp_v6(40001, a4(SERVER4), b"2"), 0).unwrap();
        let t1 = (
            o1.src,
            UdpView::parse_v4(&o1.payload, o1.src, o1.dst)
                .unwrap()
                .src_port,
        );
        let t2 = (
            o2.src,
            UdpView::parse_v4(&o2.payload, o2.src, o2.dst)
                .unwrap()
                .src_port,
        );
        assert_ne!(t1, t2);
    }

    #[test]
    fn unsolicited_inbound_dropped() {
        let mut n = nat();
        let stray = UdpDatagram::new(53, 61000, b"x".to_vec());
        let pkt = Ipv4Packet::new(
            a4(SERVER4),
            a4("203.0.113.64"),
            proto::UDP,
            stray.encode_v4(a4(SERVER4), a4("203.0.113.64")),
        );
        assert_eq!(n.v4_to_v6(&pkt, 0), Err(XlatError::NoBinding));
        assert_eq!(n.dropped_no_binding, 1);
    }

    #[test]
    fn udp_binding_expires() {
        let mut n = nat();
        let out = n.v6_to_v4(&udp_v6(40000, a4(SERVER4), b"q"), 0).unwrap();
        let od = UdpView::parse_v4(&out.payload, out.src, out.dst).unwrap();
        let reply = UdpDatagram::new(53, od.src_port, b"r".to_vec());
        let rpkt = Ipv4Packet::new(
            a4(SERVER4),
            out.src,
            proto::UDP,
            reply.encode_v4(a4(SERVER4), out.src),
        );
        // Within lifetime: passes. After 300 s: dropped.
        assert!(n.v4_to_v6(&rpkt, 299).is_ok());
        assert_eq!(n.v4_to_v6(&rpkt, 301), Err(XlatError::NoBinding));
    }

    #[test]
    fn tcp_established_outlives_transitory() {
        let mut n = nat();
        let dst = Nat64Prefix::well_known().embed_unchecked(a4(SERVER4));
        let syn = TcpSegment::new(50000, 80, 1, 0, TcpFlags::SYN);
        let pkt = Ipv6Packet::new(a6(CLIENT), dst, proto::TCP, syn.encode_v6(a6(CLIENT), dst));
        n.v6_to_v4(&pkt, 0).unwrap();
        // Transitory lifetime 240 s: gone at 241 unless refreshed by an ACK.
        let ack = TcpSegment::new(50000, 80, 2, 1, TcpFlags::ACK);
        let apkt = Ipv6Packet::new(a6(CLIENT), dst, proto::TCP, ack.encode_v6(a6(CLIENT), dst));
        n.v6_to_v4(&apkt, 100).unwrap(); // refresh to established lifetime
        assert_eq!(n.live_bindings(100 + 7000), 1, "established TCP persists");
        assert_eq!(n.live_bindings(100 + 7441), 0);
    }

    #[test]
    fn icmp_echo_uses_ident_as_port() {
        let mut n = nat();
        let dst = Nat64Prefix::well_known().embed_unchecked(a4(SERVER4));
        let m = Icmpv6Message::EchoRequest {
            ident: 0x77,
            seq: 1,
            payload: vec![1, 2, 3],
        };
        let pkt = Ipv6Packet::new(a6(CLIENT), dst, proto::ICMPV6, m.encode(a6(CLIENT), dst));
        let out = n.v6_to_v4(&pkt, 0).unwrap();
        let om = Icmp4View::parse(&out.payload)
            .map(|v| v.to_message())
            .unwrap();
        let ext_ident = match om {
            v6wire::icmpv4::Icmpv4Message::EchoRequest { ident, .. } => ident,
            other => panic!("unexpected {other:?}"),
        };
        // Reply to the external ident maps back.
        let reply = v6wire::icmpv4::Icmpv4Message::EchoReply {
            ident: ext_ident,
            seq: 1,
            payload: vec![1, 2, 3],
        };
        let rpkt = Ipv4Packet::new(a4(SERVER4), out.src, proto::ICMP, reply.encode());
        let back = n.v4_to_v6(&rpkt, 10).unwrap();
        let bm = Icmp6View::parse(&back.payload, back.src, back.dst)
            .map(|v| v.to_message())
            .unwrap();
        assert!(matches!(bm, Icmpv6Message::EchoReply { ident: 0x77, .. }));
    }

    #[test]
    fn non_prefix_destination_rejected() {
        let mut n = nat();
        let d = UdpDatagram::new(1, 2, vec![]);
        let dst = a6("2600::1");
        let pkt = Ipv6Packet::new(a6(CLIENT), dst, proto::UDP, d.encode_v6(a6(CLIENT), dst));
        assert!(matches!(
            n.v6_to_v4(&pkt, 0),
            Err(XlatError::NotInPrefix(_))
        ));
    }

    #[test]
    fn pool_exhaustion() {
        let mut n = Nat64::new(
            Nat64Prefix::well_known(),
            vec![a4("203.0.113.64")],
            Nat64Config {
                port_floor: u16::MAX - 2, // only ports 65533, 65534
                ..Default::default()
            },
        );
        // The allocator wraps to 1024 after MAX, so constrain by exhausting
        // the wrap space too — instead verify simply that distinct flows get
        // the two high ports and the pool then wraps to 1024.
        let o1 = n.v6_to_v4(&udp_v6(1, a4(SERVER4), b""), 0).unwrap();
        let o2 = n.v6_to_v4(&udp_v6(2, a4(SERVER4), b""), 0).unwrap();
        let p1 = UdpView::parse_v4(&o1.payload, o1.src, o1.dst)
            .unwrap()
            .src_port;
        let p2 = UdpView::parse_v4(&o2.payload, o2.src, o2.dst)
            .unwrap()
            .src_port;
        assert_ne!(p1, p2);
        assert!(p1 >= u16::MAX - 2);
    }

    #[test]
    fn table_cap_refuses_new_flows_but_refreshes_old() {
        let mut n = Nat64::new(
            Nat64Prefix::well_known(),
            vec![a4("203.0.113.64")],
            Nat64Config {
                max_bindings: Some(1),
                ..Default::default()
            },
        );
        let first = n.v6_to_v4(&udp_v6(40000, a4(SERVER4), b"a"), 0).unwrap();
        assert!(matches!(
            n.v6_to_v4(&udp_v6(40001, a4(SERVER4), b"b"), 1),
            Err(XlatError::TableFull)
        ));
        assert_eq!(n.dropped_table_full, 1);
        // The established flow keeps working (binding refresh).
        let again = n.v6_to_v4(&udp_v6(40000, a4(SERVER4), b"c"), 2).unwrap();
        assert_eq!(first.src, again.src);
        assert_eq!(n.outbound, 2);
        // Once the old binding ages out, the slot frees up.
        assert!(n.v6_to_v4(&udp_v6(40001, a4(SERVER4), b"d"), 400).is_ok());
        assert_eq!(n.metrics().get("dropped_table_full"), 1);
    }

    #[test]
    fn expire_cleans_reverse_index() {
        let mut n = nat();
        n.v6_to_v4(&udp_v6(40000, a4(SERVER4), b"q"), 0).unwrap();
        assert_eq!(n.live_bindings(1), 1);
        n.expire(301);
        assert_eq!(n.live_bindings(0), 0, "binding fully removed");
        assert!(n.udp.reverse.is_empty());
    }
}
