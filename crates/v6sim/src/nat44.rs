//! NAPT44 — the plain IPv4 NAT the 5G gateway applies to legacy traffic.
//!
//! The paper's motivation sections lean on NAT44's operational pain (shared
//! source IPs triggering rate limits and bans, M-21-31 logging burden); the
//! testbed still needs a working one, because an IPv4-only client that
//! overrides its DNS resolver "would be granted access to the IPv4 internet"
//! (paper §V, Nintendo Switch escape hatch).

use std::net::Ipv4Addr;
use v6wire::fasthash::FastMap;
use v6wire::icmpv4::Icmpv4Message;
use v6wire::ipv4::{proto, Ipv4Packet};
use v6wire::view::{Icmp4View, TcpView, UdpView};

use v6xlat::siit::XlatError;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Proto {
    Udp,
    Tcp,
    Icmp,
}

#[derive(Debug, Clone, Copy)]
struct Binding {
    internal: (Ipv4Addr, u16),
    expires: u64,
}

/// A NAPT44 translator with a single public address.
#[derive(Debug)]
pub struct Napt44 {
    /// The public (WAN) address all flows share.
    pub public_ip: Ipv4Addr,
    forward: FastMap<(Proto, Ipv4Addr, u16), (u16, u64)>,
    reverse: FastMap<(Proto, u16), Binding>,
    next_port: u16,
    /// Session lifetime in seconds.
    pub lifetime: u64,
    /// Translated outbound packets.
    pub outbound: u64,
    /// Translated inbound packets.
    pub inbound: u64,
    /// Inbound drops (no binding).
    pub dropped: u64,
}

impl Napt44 {
    /// NAPT with the given public address.
    pub fn new(public_ip: Ipv4Addr) -> Napt44 {
        Napt44 {
            public_ip,
            forward: FastMap::default(),
            reverse: FastMap::default(),
            next_port: 1024,
            lifetime: 300,
            outbound: 0,
            inbound: 0,
            dropped: 0,
        }
    }

    /// Restore the post-construction state: bindings flushed, the port
    /// allocator rewound, counters zeroed. The warm-cell arena calls
    /// this between cells so a reused NAT is indistinguishable from a
    /// freshly built one.
    pub fn reset(&mut self) {
        self.forward.clear();
        self.reverse.clear();
        self.next_port = 1024;
        self.lifetime = 300;
        self.outbound = 0;
        self.inbound = 0;
        self.dropped = 0;
    }

    /// Counter snapshot (`outbound`, `inbound`, `dropped`) in the shared
    /// [`v6wire::metrics::Metrics`] form.
    pub fn metrics(&self) -> v6wire::metrics::Metrics {
        [
            ("outbound", self.outbound),
            ("inbound", self.inbound),
            ("dropped", self.dropped),
        ]
        .into_iter()
        .collect()
    }

    fn classify(pkt: &Ipv4Packet) -> Result<(Proto, u16, u16), XlatError> {
        match pkt.protocol {
            proto::UDP => {
                let d = UdpView::parse_v4(&pkt.payload, pkt.src, pkt.dst)?;
                Ok((Proto::Udp, d.src_port, d.dst_port))
            }
            proto::TCP => {
                let s = TcpView::parse_v4(&pkt.payload, pkt.src, pkt.dst)?;
                Ok((Proto::Tcp, s.src_port, s.dst_port))
            }
            proto::ICMP => match Icmp4View::parse(&pkt.payload)? {
                Icmp4View::EchoRequest { ident, .. } | Icmp4View::EchoReply { ident, .. } => {
                    Ok((Proto::Icmp, ident, ident))
                }
                _ => Err(XlatError::UntranslatableIcmp),
            },
            other => Err(XlatError::UnsupportedProtocol(other)),
        }
    }

    fn rewrite(
        pkt: &Ipv4Packet,
        new_src: Ipv4Addr,
        new_dst: Ipv4Addr,
        new_sport: Option<u16>,
        new_dport: Option<u16>,
    ) -> Result<Ipv4Packet, XlatError> {
        let payload = match pkt.protocol {
            proto::UDP => {
                let mut d = UdpView::parse_v4(&pkt.payload, pkt.src, pkt.dst)?.to_datagram();
                if let Some(p) = new_sport {
                    d.src_port = p;
                }
                if let Some(p) = new_dport {
                    d.dst_port = p;
                }
                d.encode_v4(new_src, new_dst)
            }
            proto::TCP => {
                let mut s = TcpView::parse_v4(&pkt.payload, pkt.src, pkt.dst)?.to_segment();
                if let Some(p) = new_sport {
                    s.src_port = p;
                }
                if let Some(p) = new_dport {
                    s.dst_port = p;
                }
                s.encode_v4(new_src, new_dst)
            }
            proto::ICMP => {
                let m = Icmp4View::parse(&pkt.payload)?.to_message();
                let m2 = match m {
                    Icmpv4Message::EchoRequest {
                        ident,
                        seq,
                        payload,
                    } => Icmpv4Message::EchoRequest {
                        ident: new_sport.unwrap_or(ident),
                        seq,
                        payload,
                    },
                    Icmpv4Message::EchoReply {
                        ident,
                        seq,
                        payload,
                    } => Icmpv4Message::EchoReply {
                        ident: new_dport.unwrap_or(ident),
                        seq,
                        payload,
                    },
                    other => other,
                };
                m2.encode()
            }
            _ => return Err(XlatError::UnsupportedProtocol(pkt.protocol)),
        };
        let mut out = Ipv4Packet::new(new_src, new_dst, pkt.protocol, payload);
        out.ttl = pkt.ttl.saturating_sub(1);
        out.dscp_ecn = pkt.dscp_ecn;
        Ok(out)
    }

    /// Translate an outbound (LAN → WAN) packet.
    pub fn outbound(&mut self, pkt: &Ipv4Packet, now: u64) -> Result<Ipv4Packet, XlatError> {
        if pkt.ttl <= 1 {
            return Err(XlatError::HopLimitExceeded);
        }
        let (p, sport, _dport) = Self::classify(pkt)?;
        let key = (p, pkt.src, sport);
        let ext_port = match self.forward.get_mut(&key) {
            Some((port, expires)) => {
                *expires = now + self.lifetime;
                *port
            }
            None => {
                // Allocate the next free external port.
                let mut chosen = None;
                for _ in 0..u16::MAX {
                    let cand = self.next_port;
                    self.next_port = if self.next_port == u16::MAX {
                        1024
                    } else {
                        self.next_port + 1
                    };
                    let free = self
                        .reverse
                        .get(&(p, cand))
                        .map(|b| b.expires <= now)
                        .unwrap_or(true);
                    if free {
                        chosen = Some(cand);
                        break;
                    }
                }
                let port = chosen.ok_or(XlatError::PoolExhausted)?;
                self.forward.insert(key, (port, now + self.lifetime));
                self.reverse.insert(
                    (p, port),
                    Binding {
                        internal: (pkt.src, sport),
                        expires: now + self.lifetime,
                    },
                );
                port
            }
        };
        // Keep the reverse entry fresh too.
        if let Some(b) = self.reverse.get_mut(&(p, ext_port)) {
            b.expires = now + self.lifetime;
        }
        self.outbound += 1;
        Self::rewrite(pkt, self.public_ip, pkt.dst, Some(ext_port), None)
    }

    /// Translate an inbound (WAN → LAN) packet.
    pub fn inbound(&mut self, pkt: &Ipv4Packet, now: u64) -> Result<Ipv4Packet, XlatError> {
        let (p, _sport, dport) = Self::classify(pkt)?;
        let Some(b) = self.reverse.get(&(p, dport)).copied() else {
            self.dropped += 1;
            return Err(XlatError::NoBinding);
        };
        if b.expires <= now {
            self.dropped += 1;
            return Err(XlatError::NoBinding);
        }
        self.inbound += 1;
        Self::rewrite(pkt, pkt.src, b.internal.0, None, Some(b.internal.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6wire::udp::UdpDatagram;

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn nat() -> Napt44 {
        Napt44::new(a("100.66.7.8"))
    }

    fn udp_out(src: &str, sport: u16, dst: &str) -> Ipv4Packet {
        let d = UdpDatagram::new(sport, 53, b"q".to_vec());
        Ipv4Packet::new(a(src), a(dst), proto::UDP, d.encode_v4(a(src), a(dst)))
    }

    #[test]
    fn round_trip() {
        let mut n = nat();
        let out = n
            .outbound(&udp_out("192.168.12.60", 40000, "9.9.9.9"), 0)
            .unwrap();
        assert_eq!(out.src, a("100.66.7.8"));
        let od = UdpView::parse_v4(&out.payload, out.src, out.dst).unwrap();
        let reply = UdpDatagram::new(53, od.src_port, b"r".to_vec());
        let rp = Ipv4Packet::new(
            a("9.9.9.9"),
            out.src,
            proto::UDP,
            reply.encode_v4(a("9.9.9.9"), out.src),
        );
        let back = n.inbound(&rp, 1).unwrap();
        assert_eq!(back.dst, a("192.168.12.60"));
        let bd = UdpView::parse_v4(&back.payload, back.src, back.dst).unwrap();
        assert_eq!(bd.dst_port, 40000);
    }

    #[test]
    fn all_clients_share_one_source_ip() {
        // The Docker-Hub-rate-limit motivation from §II.B: every LAN host
        // appears as the same public address.
        let mut n = nat();
        let o1 = n
            .outbound(&udp_out("192.168.12.60", 1111, "9.9.9.9"), 0)
            .unwrap();
        let o2 = n
            .outbound(&udp_out("192.168.12.61", 1111, "9.9.9.9"), 0)
            .unwrap();
        assert_eq!(o1.src, o2.src);
        let p1 = UdpView::parse_v4(&o1.payload, o1.src, o1.dst)
            .unwrap()
            .src_port;
        let p2 = UdpView::parse_v4(&o2.payload, o2.src, o2.dst)
            .unwrap()
            .src_port;
        assert_ne!(p1, p2, "disambiguated only by port");
    }

    #[test]
    fn unsolicited_inbound_dropped() {
        let mut n = nat();
        let stray = udp_out("9.9.9.9", 53, "100.66.7.8");
        assert!(n.inbound(&stray, 0).is_err());
        assert_eq!(n.dropped, 1);
    }

    #[test]
    fn binding_expiry() {
        let mut n = nat();
        let out = n
            .outbound(&udp_out("192.168.12.60", 40000, "9.9.9.9"), 0)
            .unwrap();
        let od = UdpView::parse_v4(&out.payload, out.src, out.dst).unwrap();
        let reply = UdpDatagram::new(53, od.src_port, b"r".to_vec());
        let rp = Ipv4Packet::new(
            a("9.9.9.9"),
            out.src,
            proto::UDP,
            reply.encode_v4(a("9.9.9.9"), out.src),
        );
        assert!(n.inbound(&rp, 299).is_ok());
        assert!(n.inbound(&rp, 301).is_err());
    }

    #[test]
    fn icmp_echo_natted_by_ident() {
        let mut n = nat();
        let m = Icmpv4Message::EchoRequest {
            ident: 7,
            seq: 1,
            payload: vec![1],
        };
        let pkt = Ipv4Packet::new(a("192.168.12.60"), a("9.9.9.9"), proto::ICMP, m.encode());
        let out = n.outbound(&pkt, 0).unwrap();
        let om = Icmp4View::parse(&out.payload)
            .map(|v| v.to_message())
            .unwrap();
        let ext = match om {
            Icmpv4Message::EchoRequest { ident, .. } => ident,
            other => panic!("unexpected {other:?}"),
        };
        let reply = Icmpv4Message::EchoReply {
            ident: ext,
            seq: 1,
            payload: vec![1],
        };
        let rp = Ipv4Packet::new(a("9.9.9.9"), out.src, proto::ICMP, reply.encode());
        let back = n.inbound(&rp, 1).unwrap();
        let bm = Icmp4View::parse(&back.payload)
            .map(|v| v.to_message())
            .unwrap();
        assert!(matches!(bm, Icmpv4Message::EchoReply { ident: 7, .. }));
    }
}
