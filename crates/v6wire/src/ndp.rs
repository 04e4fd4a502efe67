//! Neighbor Discovery (RFC 4861) message bodies and options, including the
//! RFC 8106 RDNSS/DNSSL options and the RFC 4191 router-preference bits that
//! the paper's managed-switch workaround depends on ("a managed switch was
//! deployed capable of sending RAs in the fd00:976a::/64 prefix with **low
//! priority**").
//!
//! These are bodies only; [`crate::icmpv6::Icmpv6Message`] adds the ICMPv6
//! type/code/checksum envelope. Parsing is [`crate::view::NdpOptionsView`]
//! and [`crate::view::RaView`].

use crate::mac::MacAddr;
use std::net::Ipv6Addr;

/// Default router preference (RFC 4191 §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RouterPreference {
    /// 11 binary — use only when nothing better exists.
    Low,
    /// 00 binary — the default.
    Medium,
    /// 01 binary — prefer this router.
    High,
}

impl RouterPreference {
    fn to_bits(self) -> u8 {
        match self {
            RouterPreference::High => 0b01,
            RouterPreference::Medium => 0b00,
            RouterPreference::Low => 0b11,
        }
    }

    pub(crate) fn from_bits(bits: u8) -> Self {
        match bits & 0b11 {
            0b01 => RouterPreference::High,
            0b11 => RouterPreference::Low,
            // 10 is reserved and must be treated as Medium (RFC 4191 §2.2).
            _ => RouterPreference::Medium,
        }
    }
}

/// An NDP option (RFC 4861 §4.6, RFC 8106).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NdpOption {
    /// Type 1: link-layer address of the sender.
    SourceLinkLayer(MacAddr),
    /// Type 2: link-layer address of the target.
    TargetLinkLayer(MacAddr),
    /// Type 3: Prefix Information (drives SLAAC).
    PrefixInformation {
        /// Prefix length in bits.
        prefix_len: u8,
        /// L flag: prefix is on-link.
        on_link: bool,
        /// A flag: prefix may be used for stateless autoconfiguration.
        autonomous: bool,
        /// Valid lifetime in seconds.
        valid_lifetime: u32,
        /// Preferred lifetime in seconds.
        preferred_lifetime: u32,
        /// The prefix.
        prefix: Ipv6Addr,
    },
    /// Type 5: link MTU.
    Mtu(u32),
    /// Type 25 (RFC 8106): Recursive DNS Server addresses.
    Rdnss {
        /// Lifetime in seconds.
        lifetime: u32,
        /// Resolver addresses.
        servers: Vec<Ipv6Addr>,
    },
    /// Type 31 (RFC 8106): DNS Search List.
    Dnssl {
        /// Lifetime in seconds.
        lifetime: u32,
        /// Search domains (presentation form, e.g. `rfc8925.com`).
        domains: Vec<String>,
    },
    /// Type 38 (RFC 8781): PREF64 — the NAT64 prefix, so RFC 8925 clients
    /// can configure their CLAT without the DNS64 heuristic. (The paper's
    /// testbed hardwired the well-known prefix; this is the standards-track
    /// successor.)
    Pref64 {
        /// Lifetime in seconds (encoded scaled by 8, so stored as a
        /// multiple of 8 ≤ 65528).
        lifetime: u16,
        /// The NAT64 prefix (high 96 bits significant).
        prefix: Ipv6Addr,
        /// Prefix length: one of 96/64/56/48/40/32.
        prefix_len: u8,
    },
    /// Any other option, carried opaquely (type, raw data after len byte).
    Unknown(u8, Vec<u8>),
}

/// Encode a domain name into DNS label wire form (no compression).
fn encode_labels(out: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let bytes = label.as_bytes();
        out.push(bytes.len().min(63) as u8);
        out.extend_from_slice(&bytes[..bytes.len().min(63)]);
    }
    out.push(0);
}

/// Length of [`encode_labels`]' output for `name`.
fn labels_len(name: &str) -> usize {
    name.split('.')
        .filter(|l| !l.is_empty())
        .map(|l| 1 + l.len().min(63))
        .sum::<usize>()
        + 1
}

impl NdpOption {
    /// Encoded length in bytes (a multiple of 8), padding included.
    pub fn wire_len(&self) -> usize {
        match self {
            NdpOption::SourceLinkLayer(_) | NdpOption::TargetLinkLayer(_) | NdpOption::Mtu(_) => 8,
            NdpOption::PrefixInformation { .. } => 32,
            NdpOption::Rdnss { servers, .. } => 8 + 16 * servers.len(),
            NdpOption::Dnssl { domains, .. } => {
                (8 + domains.iter().map(|d| labels_len(d)).sum::<usize>()).next_multiple_of(8)
            }
            NdpOption::Pref64 { .. } => 16,
            NdpOption::Unknown(_, data) => (2 + data.len()).next_multiple_of(8),
        }
    }

    /// Serialize (type, length-in-8-octet-units, body, padding).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        match self {
            NdpOption::SourceLinkLayer(mac) => {
                out.extend_from_slice(&[1, 1]);
                out.extend_from_slice(&mac.0);
            }
            NdpOption::TargetLinkLayer(mac) => {
                out.extend_from_slice(&[2, 1]);
                out.extend_from_slice(&mac.0);
            }
            NdpOption::PrefixInformation {
                prefix_len,
                on_link,
                autonomous,
                valid_lifetime,
                preferred_lifetime,
                prefix,
            } => {
                out.extend_from_slice(&[3, 4, *prefix_len]);
                let mut flags = 0u8;
                if *on_link {
                    flags |= 0x80;
                }
                if *autonomous {
                    flags |= 0x40;
                }
                out.push(flags);
                out.extend_from_slice(&valid_lifetime.to_be_bytes());
                out.extend_from_slice(&preferred_lifetime.to_be_bytes());
                out.extend_from_slice(&[0; 4]);
                out.extend_from_slice(&prefix.octets());
            }
            NdpOption::Mtu(mtu) => {
                out.extend_from_slice(&[5, 1, 0, 0]);
                out.extend_from_slice(&mtu.to_be_bytes());
            }
            NdpOption::Rdnss { lifetime, servers } => {
                let len = 1 + 2 * servers.len();
                out.extend_from_slice(&[25, len as u8, 0, 0]);
                out.extend_from_slice(&lifetime.to_be_bytes());
                for s in servers {
                    out.extend_from_slice(&s.octets());
                }
            }
            NdpOption::Dnssl { lifetime, domains } => {
                out.extend_from_slice(&[31, 0, 0, 0]); // len patched below
                out.extend_from_slice(&lifetime.to_be_bytes());
                for d in domains {
                    encode_labels(out, d);
                }
                // Pad to an 8-octet multiple and patch the length.
                while !(out.len() - start).is_multiple_of(8) {
                    out.push(0);
                }
                let units = (out.len() - start) / 8;
                out[start + 1] = units as u8;
            }
            NdpOption::Pref64 {
                lifetime,
                prefix,
                prefix_len,
            } => {
                let plc: u16 = match prefix_len {
                    96 => 0,
                    64 => 1,
                    56 => 2,
                    48 => 3,
                    40 => 4,
                    _ => 5, // 32
                };
                out.extend_from_slice(&[38, 2]);
                let scaled = ((*lifetime / 8) << 3) | plc;
                out.extend_from_slice(&scaled.to_be_bytes());
                out.extend_from_slice(&prefix.octets()[..12]);
            }
            NdpOption::Unknown(ty, data) => {
                let total = 2 + data.len();
                let units = total.div_ceil(8);
                out.push(*ty);
                out.push(units as u8);
                out.extend_from_slice(data);
                while !(out.len() - start).is_multiple_of(8) {
                    out.push(0);
                }
            }
        }
        debug_assert_eq!((out.len() - start) % 8, 0, "NDP option not 8-aligned");
    }
}

/// Router Solicitation (RFC 4861 §4.1) body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouterSolicitation {
    /// Options (usually a source link-layer address).
    pub options: Vec<NdpOption>,
}

/// Router Advertisement (RFC 4861 §4.2) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterAdvertisement {
    /// Suggested hop limit (0 = unspecified).
    pub cur_hop_limit: u8,
    /// M flag: addresses available via DHCPv6.
    pub managed: bool,
    /// O flag: other configuration via DHCPv6.
    pub other_config: bool,
    /// Default-router lifetime in seconds (0 = not a default router).
    pub router_lifetime: u16,
    /// RFC 4191 default router preference.
    pub preference: RouterPreference,
    /// Reachable time (ms, 0 = unspecified).
    pub reachable_time: u32,
    /// Retransmission timer (ms, 0 = unspecified).
    pub retrans_timer: u32,
    /// Options (PIO, RDNSS, DNSSL, MTU, SLL...).
    pub options: Vec<NdpOption>,
}

impl RouterAdvertisement {
    /// A plain default-router RA with medium preference and no options.
    pub fn new(router_lifetime: u16) -> Self {
        RouterAdvertisement {
            cur_hop_limit: 64,
            managed: false,
            other_config: false,
            router_lifetime,
            preference: RouterPreference::Medium,
            reachable_time: 0,
            retrans_timer: 0,
            options: Vec::new(),
        }
    }

    /// First RDNSS option's servers, if any — what a host's resolver
    /// configuration consumes.
    pub fn rdnss_servers(&self) -> Vec<Ipv6Addr> {
        self.options
            .iter()
            .find_map(|o| match o {
                NdpOption::Rdnss { servers, .. } => Some(servers.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// All autonomous (SLAAC-eligible) prefixes advertised.
    pub fn slaac_prefixes(&self) -> Vec<(Ipv6Addr, u8)> {
        self.options
            .iter()
            .filter_map(|o| match o {
                NdpOption::PrefixInformation {
                    autonomous: true,
                    prefix,
                    prefix_len,
                    ..
                } => Some((*prefix, *prefix_len)),
                _ => None,
            })
            .collect()
    }

    pub(crate) fn encode_body(&self, out: &mut Vec<u8>) {
        out.push(self.cur_hop_limit);
        let mut flags = 0u8;
        if self.managed {
            flags |= 0x80;
        }
        if self.other_config {
            flags |= 0x40;
        }
        flags |= self.preference.to_bits() << 3;
        out.push(flags);
        out.extend_from_slice(&self.router_lifetime.to_be_bytes());
        out.extend_from_slice(&self.reachable_time.to_be_bytes());
        out.extend_from_slice(&self.retrans_timer.to_be_bytes());
        for opt in &self.options {
            opt.encode(out);
        }
    }
}

/// Neighbor Solicitation (RFC 4861 §4.3) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborSolicitation {
    /// Address whose link-layer address is sought.
    pub target: Ipv6Addr,
    /// Options (usually SLL).
    pub options: Vec<NdpOption>,
}

/// Neighbor Advertisement (RFC 4861 §4.4) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborAdvertisement {
    /// R flag: sender is a router.
    pub router: bool,
    /// S flag: response to a solicitation.
    pub solicited: bool,
    /// O flag: override existing cache entry.
    pub override_flag: bool,
    /// The target address being advertised.
    pub target: Ipv6Addr,
    /// Options (usually TLL).
    pub options: Vec<NdpOption>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{NdpOptionsView, RaView};
    use crate::WireResult;

    fn parse_options(buf: &[u8]) -> WireResult<Vec<NdpOption>> {
        NdpOptionsView::parse(buf).map(|v| v.to_options())
    }

    fn testbed_ra() -> RouterAdvertisement {
        // The managed-switch RA from the paper: fd00:976a::/64, low priority,
        // RDNSS fd00:976a::9.
        let mut ra = RouterAdvertisement::new(1800);
        ra.preference = RouterPreference::Low;
        ra.options.push(NdpOption::PrefixInformation {
            prefix_len: 64,
            on_link: true,
            autonomous: true,
            valid_lifetime: 2592000,
            preferred_lifetime: 604800,
            prefix: "fd00:976a::".parse().unwrap(),
        });
        ra.options.push(NdpOption::Rdnss {
            lifetime: 3600,
            servers: vec!["fd00:976a::9".parse().unwrap()],
        });
        ra.options.push(NdpOption::Dnssl {
            lifetime: 3600,
            domains: vec!["rfc8925.com".into()],
        });
        ra.options.push(NdpOption::Mtu(1500));
        ra.options
            .push(NdpOption::SourceLinkLayer(MacAddr::new([2, 0, 0, 0, 0, 1])));
        ra
    }

    #[test]
    fn ra_body_roundtrip() {
        let ra = testbed_ra();
        let mut buf = Vec::new();
        ra.encode_body(&mut buf);
        let got = RaView::parse(&buf).unwrap().to_ra();
        assert_eq!(got, ra);
    }

    #[test]
    fn preference_bits() {
        for p in [
            RouterPreference::Low,
            RouterPreference::Medium,
            RouterPreference::High,
        ] {
            assert_eq!(RouterPreference::from_bits(p.to_bits()), p);
        }
        // Reserved 10 maps to Medium.
        assert_eq!(RouterPreference::from_bits(0b10), RouterPreference::Medium);
    }

    #[test]
    fn accessors_extract_rdnss_and_slaac() {
        let ra = testbed_ra();
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
    fn dnssl_multiple_domains_roundtrip() {
        let opt = NdpOption::Dnssl {
            lifetime: 60,
            domains: vec!["anl.gov".into(), "rfc8925.com".into()],
        };
        let mut buf = Vec::new();
        opt.encode(&mut buf);
        assert_eq!(buf.len() % 8, 0);
        let got = parse_options(&buf).unwrap();
        assert_eq!(got, vec![opt]);
    }

    #[test]
    fn unknown_option_skipped_not_fatal() {
        let mut buf = Vec::new();
        NdpOption::Unknown(200, vec![1, 2, 3]).encode(&mut buf);
        NdpOption::Mtu(1280).encode(&mut buf);
        let got = parse_options(&buf).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1], NdpOption::Mtu(1280));
    }

    #[test]
    fn zero_length_option_rejected() {
        // RFC 4861 §4.6: length 0 MUST be discarded.
        let buf = [25u8, 0, 0, 0, 0, 0, 0, 0];
        assert!(parse_options(&buf).is_err());
    }

    #[test]
    fn pref64_roundtrip_all_plcs() {
        // RFC 8781: lifetime scaled by 8; PLC selects the prefix length.
        for len in [96u8, 64, 56, 48, 40, 32] {
            let opt = NdpOption::Pref64 {
                lifetime: 1800, // multiple of 8? 1800/8=225 → stored 1800
                prefix: "64:ff9b::".parse().unwrap(),
                prefix_len: len,
            };
            let mut buf = Vec::new();
            opt.encode(&mut buf);
            assert_eq!(buf.len(), 16, "fixed 16-byte option");
            let got = parse_options(&buf).unwrap();
            match &got[0] {
                NdpOption::Pref64 {
                    lifetime,
                    prefix,
                    prefix_len,
                } => {
                    assert_eq!(*lifetime, 1800 / 8 * 8);
                    assert_eq!(*prefix, "64:ff9b::".parse::<Ipv6Addr>().unwrap());
                    assert_eq!(*prefix_len, len);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn rdnss_two_servers() {
        // The 5G gateway advertises two dead ULA resolvers (paper Fig. 3).
        let opt = NdpOption::Rdnss {
            lifetime: 1800,
            servers: vec![
                "fd00:976a::9".parse().unwrap(),
                "fd00:976a::10".parse().unwrap(),
            ],
        };
        let mut buf = Vec::new();
        opt.encode(&mut buf);
        assert_eq!(buf[1], 5); // 1 + 2*2 units of 8 octets
        assert_eq!(parse_options(&buf).unwrap(), vec![opt]);
    }
}
