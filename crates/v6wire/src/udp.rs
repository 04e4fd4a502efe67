//! UDP (RFC 768) with pseudo-header checksums for both IP families.

use crate::checksum::{pseudo_v4, pseudo_v6};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Well-known ports the testbed uses.
pub mod port {
    /// DNS.
    pub const DNS: u16 = 53;
    /// DHCPv4 server.
    pub const DHCP_SERVER: u16 = 67;
    /// DHCPv4 client.
    pub const DHCP_CLIENT: u16 = 68;
    /// HTTP (the simulator's portal speaks request/response over TCP 80).
    pub const HTTP: u16 = 80;
}

/// A UDP datagram (header + payload; the checksum is computed at encode time
/// and verified by [`crate::view::UdpView`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Header length.
    pub const HEADER_LEN: usize = 8;

    /// Build a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Vec<u8>) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Encoded length: header plus payload.
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }

    /// Append header (checksum zeroed) and payload; returns the offset of
    /// the datagram within `out`.
    fn write_raw(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&(self.wire_len() as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&self.payload);
        start
    }

    /// Patch the finished checksum into the datagram at `start`.
    fn patch_checksum(out: &mut [u8], start: usize, sum: u16) {
        // RFC 768: transmitted all-ones when computed zero.
        let sum = if sum == 0 { 0xffff } else { sum };
        out[start + 6..start + 8].copy_from_slice(&sum.to_be_bytes());
    }

    /// Serialize with an IPv4 pseudo-header checksum.
    pub fn encode_v4(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_v4(&mut out, src, dst);
        out
    }

    /// Serialize with an IPv6 pseudo-header checksum.
    pub fn encode_v6(&self, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_v6(&mut out, src, dst);
        out
    }

    /// Append to `out` with an IPv4 pseudo-header checksum, patched in
    /// place.
    pub fn write_v4(&self, out: &mut Vec<u8>, src: Ipv4Addr, dst: Ipv4Addr) {
        let start = self.write_raw(out);
        let mut ck = pseudo_v4(src, dst, crate::ipv4::proto::UDP, self.wire_len() as u16);
        ck.push(&out[start..]);
        Self::patch_checksum(out, start, ck.finish());
    }

    /// Append to `out` with an IPv6 pseudo-header checksum, patched in
    /// place.
    pub fn write_v6(&self, out: &mut Vec<u8>, src: Ipv6Addr, dst: Ipv6Addr) {
        let start = self.write_raw(out);
        let mut ck = pseudo_v6(src, dst, crate::ipv4::proto::UDP, self.wire_len() as u32);
        ck.push(&out[start..]);
        Self::patch_checksum(out, start, ck.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::UdpView;
    use crate::WireError;

    const S4: &str = "192.168.12.50";
    const D4: &str = "192.168.12.251";
    const S6: &str = "fd00:976a::50";
    const D6: &str = "fd00:976a::9";

    fn dgram() -> UdpDatagram {
        UdpDatagram::new(40000, port::DNS, b"query".to_vec())
    }

    #[test]
    fn v4_roundtrip() {
        let d = dgram();
        let bytes = d.encode_v4(S4.parse().unwrap(), D4.parse().unwrap());
        let got = UdpView::parse_v4(&bytes, S4.parse().unwrap(), D4.parse().unwrap())
            .unwrap()
            .to_datagram();
        assert_eq!(got, d);
    }

    #[test]
    fn v6_roundtrip() {
        let d = dgram();
        let bytes = d.encode_v6(S6.parse().unwrap(), D6.parse().unwrap());
        let got = UdpView::parse_v6(&bytes, S6.parse().unwrap(), D6.parse().unwrap())
            .unwrap()
            .to_datagram();
        assert_eq!(got, d);
    }

    #[test]
    fn v4_wrong_pseudo_header_detected() {
        let d = dgram();
        let bytes = d.encode_v4(S4.parse().unwrap(), D4.parse().unwrap());
        // NAT rewrote the source without fixing the checksum: must fail.
        let err = UdpView::parse_v4(&bytes, "10.9.9.9".parse().unwrap(), D4.parse().unwrap());
        assert!(matches!(err, Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn v4_zero_checksum_accepted_v6_rejected() {
        let d = dgram();
        let mut bytes = d.encode_v4(S4.parse().unwrap(), D4.parse().unwrap());
        bytes[6] = 0;
        bytes[7] = 0;
        assert!(UdpView::parse_v4(&bytes, S4.parse().unwrap(), D4.parse().unwrap()).is_ok());
        let mut bytes6 = d.encode_v6(S6.parse().unwrap(), D6.parse().unwrap());
        bytes6[6] = 0;
        bytes6[7] = 0;
        assert!(UdpView::parse_v6(&bytes6, S6.parse().unwrap(), D6.parse().unwrap()).is_err());
    }

    #[test]
    fn corrupt_payload_detected() {
        let d = dgram();
        let mut bytes = d.encode_v6(S6.parse().unwrap(), D6.parse().unwrap());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(UdpView::parse_v6(&bytes, S6.parse().unwrap(), D6.parse().unwrap()).is_err());
    }
}
