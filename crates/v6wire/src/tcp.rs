//! TCP (RFC 9293) segments and their encoder, with pseudo-header checksums.
//! Parsing is [`crate::view::TcpView`].
//!
//! Only the MSS option is modelled; the simulator's TCP endpoints (in
//! `v6sim::tcp`) implement the connection state machine on top of this codec.

use crate::checksum::{pseudo_v4, pseudo_v6};
use std::net::{Ipv4Addr, Ipv6Addr};

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// FIN.
    pub fin: bool,
    /// SYN.
    pub syn: bool,
    /// RST.
    pub rst: bool,
    /// PSH.
    pub psh: bool,
    /// ACK.
    pub ack: bool,
}

impl TcpFlags {
    /// SYN only.
    pub const SYN: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        psh: false,
        ack: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: true,
        rst: false,
        psh: false,
        ack: true,
    };
    /// ACK only.
    pub const ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: false,
        psh: false,
        ack: true,
    };
    /// RST only.
    pub const RST: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: true,
        psh: false,
        ack: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        fin: true,
        syn: false,
        rst: false,
        psh: false,
        ack: true,
    };
    /// PSH+ACK (data).
    pub const PSH_ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: false,
        psh: true,
        ack: true,
    };

    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    pub(crate) fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when `flags.ack`).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Maximum segment size option (SYN segments only).
    pub mss: Option<u16>,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// Minimum header length.
    pub const HEADER_LEN: usize = 20;

    /// Build a segment with a 64 KiB window and no options.
    pub fn new(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 0xffff,
            mss: None,
            payload: Vec::new(),
        }
    }

    /// Encoded length: header, MSS option if any, and payload.
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.options_len() + self.payload.len()
    }

    fn options_len(&self) -> usize {
        if self.mss.is_some() {
            4
        } else {
            0
        }
    }

    /// Append the segment (checksum zeroed); returns its offset in `out`.
    fn write_raw(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let data_off = (Self::HEADER_LEN + self.options_len()) / 4;
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push((data_off as u8) << 4);
        out.push(self.flags.to_byte());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
        if let Some(mss) = self.mss {
            out.push(2); // kind: MSS
            out.push(4); // length
            out.extend_from_slice(&mss.to_be_bytes());
        }
        out.extend_from_slice(&self.payload);
        start
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
        let mut ck = pseudo_v4(src, dst, crate::ipv4::proto::TCP, self.wire_len() as u16);
        ck.push(&out[start..]);
        out[start + 16..start + 18].copy_from_slice(&ck.finish().to_be_bytes());
    }

    /// Append to `out` with an IPv6 pseudo-header checksum, patched in
    /// place.
    pub fn write_v6(&self, out: &mut Vec<u8>, src: Ipv6Addr, dst: Ipv6Addr) {
        let start = self.write_raw(out);
        let mut ck = pseudo_v6(src, dst, crate::ipv4::proto::TCP, self.wire_len() as u32);
        ck.push(&out[start..]);
        out[start + 16..start + 18].copy_from_slice(&ck.finish().to_be_bytes());
    }

    /// The amount of sequence space this segment consumes (SYN and FIN each
    /// count as one octet).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::TcpView;

    const S6: &str = "2607:fb90:9bda:a425::1";
    const D6: &str = "64:ff9b::be5c:9e04";

    #[test]
    fn syn_with_mss_roundtrip_v6() {
        let mut seg = TcpSegment::new(50000, 80, 1000, 0, TcpFlags::SYN);
        seg.mss = Some(1220);
        let bytes = seg.encode_v6(S6.parse().unwrap(), D6.parse().unwrap());
        let got = TcpView::parse_v6(&bytes, S6.parse().unwrap(), D6.parse().unwrap())
            .unwrap()
            .to_segment();
        assert_eq!(got, seg);
    }

    #[test]
    fn data_roundtrip_v4() {
        let mut seg = TcpSegment::new(50000, 80, 1001, 501, TcpFlags::PSH_ACK);
        seg.payload = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        let s: Ipv4Addr = "192.168.12.50".parse().unwrap();
        let d: Ipv4Addr = "23.153.8.71".parse().unwrap();
        let bytes = seg.encode_v4(s, d);
        assert_eq!(TcpView::parse_v4(&bytes, s, d).unwrap().to_segment(), seg);
    }

    #[test]
    fn checksum_covers_addresses() {
        let seg = TcpSegment::new(1, 2, 3, 4, TcpFlags::ACK);
        let bytes = seg.encode_v6(S6.parse().unwrap(), D6.parse().unwrap());
        assert!(
            TcpView::parse_v6(&bytes, "2001:db8::1".parse().unwrap(), D6.parse().unwrap()).is_err()
        );
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        let mut seg = TcpSegment::new(1, 2, 0, 0, TcpFlags::SYN);
        assert_eq!(seg.seq_len(), 1);
        seg.flags = TcpFlags::PSH_ACK;
        seg.payload = vec![0; 10];
        assert_eq!(seg.seq_len(), 10);
        seg.flags = TcpFlags::FIN_ACK;
        assert_eq!(seg.seq_len(), 11);
    }

    #[test]
    fn flags_byte_roundtrip() {
        for b in 0u8..32 {
            assert_eq!(TcpFlags::from_byte(b).to_byte(), b);
        }
    }
}
