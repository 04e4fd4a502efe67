//! MAC (EUI-48) addressing, including the multicast mappings used by IPv4 and
//! IPv6 and the EUI-64 expansion used by SLAAC interface identifiers.

use crate::{WireError, WireResult};
use std::net::Ipv6Addr;

/// A 48-bit IEEE 802 MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, used as "unknown" in ARP/DHCP exchanges.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Construct from raw bytes.
    pub const fn new(b: [u8; 6]) -> Self {
        MacAddr(b)
    }

    /// Decode from the first six bytes of `buf`.
    pub fn decode(buf: &[u8]) -> WireResult<Self> {
        if buf.len() < 6 {
            return Err(WireError::Truncated {
                what: "mac",
                need: 6,
                have: buf.len(),
            });
        }
        Ok(MacAddr([buf[0], buf[1], buf[2], buf[3], buf[4], buf[5]]))
    }

    /// True for group (multicast/broadcast) addresses: I/G bit set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// The Ethernet multicast address for an IPv6 multicast destination
    /// (RFC 2464 §7): `33:33` followed by the low 32 bits of the group.
    pub fn for_ipv6_multicast(group: Ipv6Addr) -> MacAddr {
        let o = group.octets();
        MacAddr([0x33, 0x33, o[12], o[13], o[14], o[15]])
    }

    /// The Ethernet multicast address for an IPv4 multicast destination
    /// (RFC 1112 §6.4): `01:00:5e` + low 23 bits.
    pub fn for_ipv4_multicast(group: std::net::Ipv4Addr) -> MacAddr {
        let o = group.octets();
        MacAddr([0x01, 0x00, 0x5e, o[1] & 0x7f, o[2], o[3]])
    }

    /// Expand to a modified EUI-64 interface identifier (RFC 4291 App. A):
    /// insert `ff:fe` in the middle and flip the U/L bit.
    pub fn to_modified_eui64(&self) -> [u8; 8] {
        let m = self.0;
        [m[0] ^ 0x02, m[1], m[2], 0xff, 0xfe, m[3], m[4], m[5]]
    }
}

impl core::fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl core::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Debug::fmt(self, f)
    }
}

impl core::str::FromStr for MacAddr {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut n = 0;
        for part in s.split(':') {
            if n == 6 {
                return Err(WireError::BadField {
                    what: "mac-str",
                    value: 7,
                });
            }
            out[n] = u8::from_str_radix(part, 16).map_err(|_| WireError::BadField {
                what: "mac-str",
                value: n as u64,
            })?;
            n += 1;
        }
        if n != 6 {
            return Err(WireError::BadField {
                what: "mac-str",
                value: n as u64,
            });
        }
        Ok(MacAddr(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn broadcast_is_multicast() {
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::new([0x00, 0x11, 0x22, 0x33, 0x44, 0x55]).is_multicast());
    }

    #[test]
    fn ipv6_multicast_mapping() {
        let all_nodes: Ipv6Addr = "ff02::1".parse().unwrap();
        assert_eq!(
            MacAddr::for_ipv6_multicast(all_nodes),
            MacAddr::new([0x33, 0x33, 0, 0, 0, 1])
        );
        let solicited: Ipv6Addr = "ff02::1:ff28:9c5a".parse().unwrap();
        assert_eq!(
            MacAddr::for_ipv6_multicast(solicited),
            MacAddr::new([0x33, 0x33, 0xff, 0x28, 0x9c, 0x5a])
        );
    }

    #[test]
    fn ipv4_multicast_mapping_masks_high_bit() {
        // 224.128.1.2 and 224.0.1.2 map to the same MAC: 23-bit overlap.
        let a = MacAddr::for_ipv4_multicast(Ipv4Addr::new(224, 128, 1, 2));
        let b = MacAddr::for_ipv4_multicast(Ipv4Addr::new(224, 0, 1, 2));
        assert_eq!(a, b);
        assert_eq!(a, MacAddr::new([0x01, 0x00, 0x5e, 0x00, 0x01, 0x02]));
    }

    #[test]
    fn eui64_flips_ul_and_inserts_fffe() {
        // RFC 4291 example: 00:00:5E:00:53:00 -> 0200:5EFF:FE00:5300
        let mac = MacAddr::new([0x00, 0x00, 0x5e, 0x00, 0x53, 0x00]);
        assert_eq!(
            mac.to_modified_eui64(),
            [0x02, 0x00, 0x5e, 0xff, 0xfe, 0x00, 0x53, 0x00]
        );
    }

    #[test]
    fn parse_roundtrip() {
        let m: MacAddr = "de:ad:be:ef:00:01".parse().unwrap();
        assert_eq!(m.to_string(), "de:ad:be:ef:00:01");
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("zz:ad:be:ef:00:01".parse::<MacAddr>().is_err());
    }

    #[test]
    fn decode_truncated() {
        assert!(MacAddr::decode(&[1, 2, 3]).is_err());
    }
}
