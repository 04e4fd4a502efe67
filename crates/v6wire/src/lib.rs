//! # v6wire — wire formats for the sc24v6 testbed simulator
//!
//! Hand-rolled, allocation-conscious encoders and one zero-copy parser for
//! every protocol the paper's testbed carries on the wire:
//!
//! * Ethernet II framing and MAC addressing ([`mac`], [`ethernet`])
//! * ARP ([`arp`])
//! * IPv4 with header checksum ([`ipv4`]), IPv6 ([`ipv6`])
//! * UDP ([`udp`]) and TCP segments ([`tcp`])
//! * ICMPv4 ([`icmpv4`]) and ICMPv6 including the full NDP message set with
//!   PIO / RDNSS / DNSSL / MTU options ([`icmpv6`], [`ndp`])
//! * The internet checksum and v4/v6 pseudo-headers ([`checksum`]), with a
//!   runtime-dispatched scalar/wide kernel pair
//! * The parser: borrowed zero-copy frame views ([`view`]), pinned by
//!   `tests/conformance.rs`
//!
//! Every codec is a pure function over byte slices: `encode` appends to a
//! `Vec<u8>`, and [`view::FrameView::parse`] (or a per-layer view's `parse`)
//! borrows from a `&[u8]` without allocating. The owned structs are built
//! by callers and encoders, or materialised from a view on demand.
//!
//! The higher layers (DNS, DHCP) own their own codecs in `v6dns` / `v6dhcp`
//! and ride inside [`udp::UdpDatagram`] payloads.

#![warn(missing_docs)]

pub mod arp;
pub mod checksum;
pub mod clamp;
pub mod ethernet;
pub mod fasthash;
pub mod icmpv4;
pub mod icmpv6;
pub mod ipv4;
pub mod ipv6;
pub mod mac;
pub mod metrics;
pub mod ndp;
pub mod packet;
pub mod tcp;
pub mod udp;
pub mod view;

pub use arp::{ArpOp, ArpPacket};
pub use ethernet::{EtherType, EthernetFrame};
pub use fasthash::{FastMap, FastSet};
pub use icmpv4::Icmpv4Message;
pub use icmpv6::Icmpv6Message;
pub use ipv4::Ipv4Packet;
pub use ipv6::Ipv6Packet;
pub use mac::MacAddr;
pub use metrics::Metrics;
pub use ndp::{NdpOption, RouterAdvertisement, RouterPreference};
pub use packet::{ParsedFrame, L3, L4};
pub use tcp::{TcpFlags, TcpSegment};
pub use udp::UdpDatagram;
pub use view::{FrameView, L3View, L4View};

/// Errors produced by the `v6wire` parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the fixed header or declared length was satisfied.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// A version / type / opcode field held a value the decoder cannot accept.
    BadField {
        /// What was being decoded.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A checksum failed verification.
    BadChecksum {
        /// Which protocol's checksum failed.
        what: &'static str,
        /// The checksum found on the wire.
        found: u16,
        /// The checksum we computed.
        expected: u16,
    },
    /// A length field is inconsistent with the surrounding data.
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The length claimed on the wire.
        claimed: usize,
        /// The length actually available/allowed.
        actual: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { what, need, have } => {
                write!(f, "{what}: truncated (need {need} bytes, have {have})")
            }
            WireError::BadField { what, value } => {
                write!(f, "{what}: unacceptable field value {value:#x}")
            }
            WireError::BadChecksum {
                what,
                found,
                expected,
            } => write!(
                f,
                "{what}: bad checksum (wire {found:#06x}, computed {expected:#06x})"
            ),
            WireError::BadLength {
                what,
                claimed,
                actual,
            } => write!(f, "{what}: bad length (claimed {claimed}, actual {actual})"),
        }
    }
}

impl std::error::Error for WireError {}

/// Shorthand result type used across the crate.
pub type WireResult<T> = Result<T, WireError>;

/// Read a big-endian `u16` at `off`, or report truncation of `what`.
#[inline]
pub(crate) fn be16(buf: &[u8], off: usize, what: &'static str) -> WireResult<u16> {
    if buf.len() < off + 2 {
        return Err(WireError::Truncated {
            what,
            need: off + 2,
            have: buf.len(),
        });
    }
    Ok(u16::from_be_bytes([buf[off], buf[off + 1]]))
}

/// Read a big-endian `u32` at `off`, or report truncation of `what`.
#[inline]
pub(crate) fn be32(buf: &[u8], off: usize, what: &'static str) -> WireResult<u32> {
    if buf.len() < off + 4 {
        return Err(WireError::Truncated {
            what,
            need: off + 4,
            have: buf.len(),
        });
    }
    Ok(u32::from_be_bytes([
        buf[off],
        buf[off + 1],
        buf[off + 2],
        buf[off + 3],
    ]))
}

/// Ensure `buf` holds at least `need` bytes when decoding `what`.
#[inline]
pub(crate) fn need(buf: &[u8], need: usize, what: &'static str) -> WireResult<()> {
    if buf.len() < need {
        Err(WireError::Truncated {
            what,
            need,
            have: buf.len(),
        })
    } else {
        Ok(())
    }
}
