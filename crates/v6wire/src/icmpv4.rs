//! ICMPv4 (RFC 792): echo, destination-unreachable and time-exceeded — the
//! message types the NAT64/NAT44 paths and ping-based experiments need.

use crate::checksum::checksum;

/// An ICMPv4 message (parsed by [`crate::view::Icmp4View`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Icmpv4Message {
    /// Echo request (type 8).
    EchoRequest {
        /// Identifier (NAT64 treats this like a port).
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Payload.
        payload: Vec<u8>,
    },
    /// Echo reply (type 0).
    EchoReply {
        /// Identifier.
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Payload.
        payload: Vec<u8>,
    },
    /// Destination unreachable (type 3) carrying the offending header.
    DestinationUnreachable {
        /// Code (0 net, 1 host, 3 port, 4 frag-needed, ...).
        code: u8,
        /// Invoking IP header + 8 bytes, as required by RFC 792.
        invoking: Vec<u8>,
    },
    /// Time exceeded (type 11).
    TimeExceeded {
        /// Code (0 TTL exceeded in transit).
        code: u8,
        /// Invoking packet excerpt.
        invoking: Vec<u8>,
    },
}

impl Icmpv4Message {
    /// Serialize with checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Icmpv4Message::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                out.push(8);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            Icmpv4Message::EchoReply {
                ident,
                seq,
                payload,
            } => {
                out.push(0);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            Icmpv4Message::DestinationUnreachable { code, invoking } => {
                out.push(3);
                out.push(*code);
                out.extend_from_slice(&[0, 0, 0, 0, 0, 0]);
                out.extend_from_slice(invoking);
            }
            Icmpv4Message::TimeExceeded { code, invoking } => {
                out.push(11);
                out.push(*code);
                out.extend_from_slice(&[0, 0, 0, 0, 0, 0]);
                out.extend_from_slice(invoking);
            }
        }
        let ck = checksum(&out);
        out[2..4].copy_from_slice(&ck.to_be_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::Icmp4View;
    use crate::WireError;

    fn parse(b: &[u8]) -> Result<Icmpv4Message, WireError> {
        Icmp4View::parse(b).map(|v| v.to_message())
    }

    #[test]
    fn echo_roundtrip() {
        let m = Icmpv4Message::EchoRequest {
            ident: 0x1234,
            seq: 7,
            payload: b"abcdefgh".to_vec(),
        };
        assert_eq!(parse(&m.encode()).unwrap(), m);
        let r = Icmpv4Message::EchoReply {
            ident: 0x1234,
            seq: 7,
            payload: b"abcdefgh".to_vec(),
        };
        assert_eq!(parse(&r.encode()).unwrap(), r);
    }

    #[test]
    fn unreachable_roundtrip() {
        let m = Icmpv4Message::DestinationUnreachable {
            code: 3,
            invoking: vec![0x45; 28],
        };
        assert_eq!(parse(&m.encode()).unwrap(), m);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let m = Icmpv4Message::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![],
        };
        let mut b = m.encode();
        b[5] ^= 1;
        assert!(matches!(parse(&b), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn unknown_type_rejected() {
        // Type 13 (timestamp) — unsupported.
        let mut b = vec![13u8, 0, 0, 0, 0, 0, 0, 0];
        let ck = checksum(&b);
        b[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(parse(&b), Err(WireError::BadField { .. })));
    }
}
