//! The DNS parser: borrowed, zero-copy message views.
//!
//! [`MessageView::parse`] is the one DNS decoder. It validates a whole
//! RFC 1035 message in one pass — header, question section, every resource
//! record including nested compressed names and per-type rdata shape —
//! without allocating. Names are captured as [`NameRef`]: the message slice
//! plus the positions of each label's length byte (the dnstrie "borrow
//! name" technique), so label bytes are read straight from the wire on
//! demand.
//!
//! Callers read the view directly. The owned [`Message`] is the encoder's
//! input; [`MessageView::to_message`] and the per-item `to_*` conversions
//! materialise it only where a value must outlive the wire buffer.
//! `tests/conformance.rs` pins the exact outcome ([`DnsError`] value or
//! materialised message) of every truncation and single-byte corruption of
//! the committed corpus.

use crate::codec::{
    read_u16, read_u32, read_u8, DnsError, Message, Question, RData, RType, Rcode, Record,
};
use crate::name::DnsName;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Max labels a [`NameRef`] records. Any name within the 255-octet total
/// bound has at most 127 labels (each costs ≥ 2 octets), so the cap is never
/// hit by a valid name; longer walks keep counting octets and fail the total
/// check.
const MAX_LABELS: usize = 128;

/// A domain name borrowed from message bytes: label positions into the
/// original buffer, compression already resolved.
#[derive(Clone, Copy)]
pub struct NameRef<'a> {
    msg: &'a [u8],
    /// Position of each label's length byte in `msg`, most-specific first.
    lpos: [u32; MAX_LABELS],
    labs: u8,
}

impl<'a> NameRef<'a> {
    /// Parse a possibly-compressed name starting at `*pos`; leaves `*pos`
    /// just past the name in the original stream. Pointers must point
    /// backwards, at most 64 are followed, labels must be ASCII, and the
    /// name must fit 255 octets.
    pub fn parse(msg: &'a [u8], pos: &mut usize) -> Result<NameRef<'a>, DnsError> {
        let mut lpos = [0u32; MAX_LABELS];
        let mut labs = 0usize;
        let mut total = 1usize; // trailing root byte
        let mut cursor = *pos;
        let mut jumped = false;
        let mut end_pos = *pos;
        let mut hops = 0usize;
        loop {
            let len = *msg.get(cursor).ok_or(DnsError::Truncated("name"))? as usize;
            if len & 0xc0 == 0xc0 {
                let b2 = *msg.get(cursor + 1).ok_or(DnsError::Truncated("pointer"))? as usize;
                let target = ((len & 0x3f) << 8) | b2;
                if !jumped {
                    end_pos = cursor + 2;
                    jumped = true;
                }
                if target >= cursor {
                    return Err(DnsError::BadPointer(target));
                }
                hops += 1;
                if hops > 64 {
                    return Err(DnsError::BadPointer(target));
                }
                cursor = target;
                continue;
            }
            if len & 0xc0 != 0 {
                return Err(DnsError::BadField("label-length", len as u64));
            }
            cursor += 1;
            if len == 0 {
                if !jumped {
                    end_pos = cursor;
                }
                break;
            }
            if cursor + len > msg.len() {
                return Err(DnsError::Truncated("label"));
            }
            // Labels must be ASCII: `DnsName` stores `String` labels, and a
            // non-ASCII byte would inflate under lossy UTF-8 conversion,
            // desynchronising string lengths from wire lengths.
            if let Some(&bad) = msg[cursor..cursor + len].iter().find(|b| !b.is_ascii()) {
                return Err(DnsError::BadField("label-byte", bad as u64));
            }
            if labs < MAX_LABELS {
                lpos[labs] = (cursor - 1) as u32;
            }
            labs += 1;
            total += len + 1;
            cursor += len;
        }
        *pos = end_pos;
        if total > 255 {
            return Err(DnsError::BadField("name", 0));
        }
        Ok(NameRef {
            msg,
            lpos,
            labs: labs as u8,
        })
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        usize::from(self.labs)
    }

    /// Is this the root name?
    pub fn is_root(&self) -> bool {
        self.labs == 0
    }

    /// Iterate the raw label bytes, most-specific first, straight from the
    /// wire (original casing, no unescaping).
    pub fn labels(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        (0..usize::from(self.labs)).map(|i| {
            let at = self.lpos[i] as usize;
            let len = usize::from(self.msg[at]);
            &self.msg[at + 1..at + 1 + len]
        })
    }

    /// Build the owned, lower-cased [`DnsName`] (one allocation per label).
    pub fn to_name(&self) -> DnsName {
        let labels = self
            .labels()
            .map(|raw| {
                // `parse` rejected any non-ASCII byte, so the lossless
                // conversion cannot fail and lengths match the wire.
                let mut label = raw.to_vec();
                label.make_ascii_lowercase();
                String::from_utf8(label).expect("ascii bytes are valid utf-8")
            })
            .collect::<Vec<_>>();
        DnsName::from_lowercased_labels(labels).expect("NameRef enforced the 255-octet bound")
    }
}

impl std::fmt::Debug for NameRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for (i, l) in self.labels().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{}", String::from_utf8_lossy(l))?;
        }
        Ok(())
    }
}

/// A question borrowed from message bytes.
#[derive(Debug, Clone, Copy)]
pub struct QuestionRef<'a> {
    /// Queried name.
    pub name: NameRef<'a>,
    /// Queried type.
    pub rtype: RType,
}

impl QuestionRef<'_> {
    /// Build the owned question.
    pub fn to_question(&self) -> Question {
        Question {
            name: self.name.to_name(),
            rtype: self.rtype,
        }
    }
}

/// Record data borrowed from message bytes.
// The Soa variant carries two NameRefs, each a label-position array sized
// for the 255-octet worst case. Boxing them would trade the lint for an
// allocation on the zero-copy path and cost `Copy`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum RDataRef<'a> {
    /// A record.
    A(Ipv4Addr),
    /// AAAA record.
    Aaaa(Ipv6Addr),
    /// CNAME.
    Cname(NameRef<'a>),
    /// NS.
    Ns(NameRef<'a>),
    /// PTR.
    Ptr(NameRef<'a>),
    /// MX.
    Mx {
        /// Preference.
        preference: u16,
        /// Exchange host.
        exchange: NameRef<'a>,
    },
    /// TXT: the raw rdata (a validated run of character-strings).
    Txt(&'a [u8]),
    /// SOA.
    Soa {
        /// Primary name server.
        mname: NameRef<'a>,
        /// Responsible mailbox.
        rname: NameRef<'a>,
        /// Serial.
        serial: u32,
        /// Refresh interval.
        refresh: u32,
        /// Retry interval.
        retry: u32,
        /// Expire limit.
        expire: u32,
        /// Negative-caching TTL.
        minimum: u32,
    },
    /// EDNS0 OPT pseudo-record (RFC 6891): payload size from the CLASS
    /// field, option list as verbatim bytes.
    Opt {
        /// Requestor's maximum UDP payload size.
        payload_size: u16,
        /// The raw {code, length, data} option list.
        data: &'a [u8],
    },
    /// Opaque rdata for unknown types.
    Raw(u16, &'a [u8]),
}

impl RDataRef<'_> {
    /// Build the owned record data.
    pub fn to_rdata(&self) -> RData {
        match *self {
            RDataRef::A(a) => RData::A(a),
            RDataRef::Aaaa(a) => RData::Aaaa(a),
            RDataRef::Cname(n) => RData::Cname(n.to_name()),
            RDataRef::Ns(n) => RData::Ns(n.to_name()),
            RDataRef::Ptr(n) => RData::Ptr(n.to_name()),
            RDataRef::Mx {
                preference,
                exchange,
            } => RData::Mx {
                preference,
                exchange: exchange.to_name(),
            },
            RDataRef::Txt(raw) => {
                let mut strings = Vec::new();
                let mut pos = 0usize;
                while pos < raw.len() {
                    let l = usize::from(raw[pos]);
                    pos += 1;
                    strings.push(String::from_utf8_lossy(&raw[pos..pos + l]).into_owned());
                    pos += l;
                }
                RData::Txt(strings)
            }
            RDataRef::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => RData::Soa {
                mname: mname.to_name(),
                rname: rname.to_name(),
                serial,
                refresh,
                retry,
                expire,
                minimum,
            },
            RDataRef::Opt { payload_size, data } => RData::Opt {
                payload_size,
                data: data.to_vec(),
            },
            RDataRef::Raw(t, raw) => RData::Raw(t, raw.to_vec()),
        }
    }
}

/// A resource record borrowed from message bytes.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// Owner name.
    pub name: NameRef<'a>,
    /// Time to live.
    pub ttl: u32,
    /// Data (type implied).
    pub data: RDataRef<'a>,
}

impl RecordRef<'_> {
    /// Build the owned record.
    pub fn to_record(&self) -> Record {
        Record {
            name: self.name.to_name(),
            ttl: self.ttl,
            data: self.data.to_rdata(),
        }
    }
}

/// Parse one record at `*pos` — the single implementation used both by the
/// validating first pass and by the post-validation iterators.
fn parse_record<'a>(buf: &'a [u8], pos: &mut usize) -> Result<RecordRef<'a>, DnsError> {
    let name = NameRef::parse(buf, pos)?;
    let rtype = RType::from_u16(read_u16(buf, pos)?);
    let class = read_u16(buf, pos)?;
    let ttl = read_u32(buf, pos)?;
    let rdlen = read_u16(buf, pos)? as usize;
    if *pos + rdlen > buf.len() {
        return Err(DnsError::Truncated("rdata"));
    }
    let rdata_end = *pos + rdlen;
    let data = match rtype {
        RType::A => {
            if rdlen != 4 {
                return Err(DnsError::BadField("a-rdlen", rdlen as u64));
            }
            let d = RDataRef::A(Ipv4Addr::new(
                buf[*pos],
                buf[*pos + 1],
                buf[*pos + 2],
                buf[*pos + 3],
            ));
            *pos = rdata_end;
            d
        }
        RType::Aaaa => {
            if rdlen != 16 {
                return Err(DnsError::BadField("aaaa-rdlen", rdlen as u64));
            }
            let mut o = [0u8; 16];
            o.copy_from_slice(&buf[*pos..rdata_end]);
            *pos = rdata_end;
            RDataRef::Aaaa(Ipv6Addr::from(o))
        }
        RType::Cname => {
            let n = NameRef::parse(buf, pos)?;
            *pos = rdata_end;
            RDataRef::Cname(n)
        }
        RType::Ns => {
            let n = NameRef::parse(buf, pos)?;
            *pos = rdata_end;
            RDataRef::Ns(n)
        }
        RType::Ptr => {
            let n = NameRef::parse(buf, pos)?;
            *pos = rdata_end;
            RDataRef::Ptr(n)
        }
        RType::Mx => {
            let preference = read_u16(buf, pos)?;
            let exchange = NameRef::parse(buf, pos)?;
            *pos = rdata_end;
            RDataRef::Mx {
                preference,
                exchange,
            }
        }
        RType::Txt => {
            let txt_start = *pos;
            while *pos < rdata_end {
                let l = read_u8(buf, pos)? as usize;
                if *pos + l > rdata_end {
                    return Err(DnsError::Truncated("txt"));
                }
                *pos += l;
            }
            RDataRef::Txt(&buf[txt_start..rdata_end])
        }
        RType::Soa => {
            let mname = NameRef::parse(buf, pos)?;
            let rname = NameRef::parse(buf, pos)?;
            let serial = read_u32(buf, pos)?;
            let refresh = read_u32(buf, pos)?;
            let retry = read_u32(buf, pos)?;
            let expire = read_u32(buf, pos)?;
            let minimum = read_u32(buf, pos)?;
            *pos = rdata_end;
            RDataRef::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            }
        }
        RType::Opt => {
            let d = RDataRef::Opt {
                payload_size: class,
                data: &buf[*pos..rdata_end],
            };
            *pos = rdata_end;
            d
        }
        other => {
            let d = RDataRef::Raw(other.to_u16(), &buf[*pos..rdata_end]);
            *pos = rdata_end;
            d
        }
    };
    Ok(RecordRef { name, ttl, data })
}

fn parse_question<'a>(buf: &'a [u8], pos: &mut usize) -> Result<QuestionRef<'a>, DnsError> {
    let name = NameRef::parse(buf, pos)?;
    let rtype = RType::from_u16(read_u16(buf, pos)?);
    let _class = read_u16(buf, pos)?;
    Ok(QuestionRef { name, rtype })
}

/// A DNS message validated in one pass and borrowed from the wire.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    msg: &'a [u8],
    /// Transaction id.
    pub id: u16,
    /// Response flag.
    pub is_response: bool,
    /// Opcode.
    pub opcode: u8,
    /// Authoritative answer.
    pub authoritative: bool,
    /// Truncation.
    pub truncated: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Recursion available.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Section entry counts: questions, answers, authorities, additionals.
    counts: [u16; 4],
    /// Byte offset where each section starts.
    starts: [usize; 4],
}

impl<'a> MessageView<'a> {
    /// Validate and borrow a whole message.
    pub fn parse(buf: &'a [u8]) -> Result<MessageView<'a>, DnsError> {
        let mut pos = 0usize;
        let id = read_u16(buf, &mut pos)?;
        let b2 = read_u8(buf, &mut pos)?;
        let b3 = read_u8(buf, &mut pos)?;
        let qd = read_u16(buf, &mut pos)?;
        let an = read_u16(buf, &mut pos)?;
        let ns = read_u16(buf, &mut pos)?;
        let ar = read_u16(buf, &mut pos)?;
        let counts = [qd, an, ns, ar];
        let mut starts = [0usize; 4];
        starts[0] = pos;
        for _ in 0..qd {
            parse_question(buf, &mut pos)?;
        }
        for (section, &n) in counts.iter().enumerate().skip(1) {
            starts[section] = pos;
            for _ in 0..n {
                parse_record(buf, &mut pos)?;
            }
        }
        Ok(MessageView {
            msg: buf,
            id,
            is_response: b2 & 0x80 != 0,
            opcode: (b2 >> 3) & 0x0f,
            authoritative: b2 & 0x04 != 0,
            truncated: b2 & 0x02 != 0,
            recursion_desired: b2 & 0x01 != 0,
            recursion_available: b3 & 0x80 != 0,
            rcode: Rcode::from_u8(b3 & 0x0f),
            counts,
            starts,
        })
    }

    /// Iterate the questions (infallible after validation).
    pub fn questions(&self) -> impl Iterator<Item = QuestionRef<'a>> + '_ {
        let mut pos = self.starts[0];
        (0..self.counts[0]).map(move |_| {
            parse_question(self.msg, &mut pos).expect("validated by MessageView::parse")
        })
    }

    fn records(&self, section: usize) -> impl Iterator<Item = RecordRef<'a>> + '_ {
        let mut pos = self.starts[section];
        (0..self.counts[section]).map(move |_| {
            parse_record(self.msg, &mut pos).expect("validated by MessageView::parse")
        })
    }

    /// Iterate the answer records.
    pub fn answers(&self) -> impl Iterator<Item = RecordRef<'a>> + '_ {
        self.records(1)
    }

    /// Iterate the authority records.
    pub fn authorities(&self) -> impl Iterator<Item = RecordRef<'a>> + '_ {
        self.records(2)
    }

    /// Iterate the additional records.
    pub fn additionals(&self) -> impl Iterator<Item = RecordRef<'a>> + '_ {
        self.records(3)
    }

    /// All AAAA answer addresses, read without materializing records.
    pub fn aaaa_answers(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.answers().filter_map(|r| match r.data {
            RDataRef::Aaaa(a) => Some(a),
            _ => None,
        })
    }

    /// All A answer addresses, read without materializing records.
    pub fn a_answers(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.answers().filter_map(|r| match r.data {
            RDataRef::A(a) => Some(a),
            _ => None,
        })
    }

    /// The first OPT pseudo-record in the additional section, as its
    /// `(payload_size, option bytes)`.
    pub fn opt(&self) -> Option<(u16, &'a [u8])> {
        self.additionals().find_map(|r| match r.data {
            RDataRef::Opt { payload_size, data } => Some((payload_size, data)),
            _ => None,
        })
    }

    /// A response skeleton mirroring this query's id, opcode, RD flag and
    /// questions: [`Message::response_to`] for a parsed query.
    pub fn response(&self, rcode: Rcode) -> Message {
        Message::response(
            self.id,
            self.opcode,
            self.recursion_desired,
            self.questions().map(|q| q.to_question()).collect(),
            rcode,
        )
    }

    /// Build the owned [`Message`] by re-walking the wire.
    pub fn to_message(&self) -> Message {
        Message {
            id: self.id,
            is_response: self.is_response,
            opcode: self.opcode,
            authoritative: self.authoritative,
            truncated: self.truncated,
            recursion_desired: self.recursion_desired,
            recursion_available: self.recursion_available,
            rcode: self.rcode,
            questions: self.questions().map(|q| q.to_question()).collect(),
            answers: self.answers().map(|r| r.to_record()).collect(),
            authorities: self.authorities().map(|r| r.to_record()).collect(),
            additionals: self.additionals().map(|r| r.to_record()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DnsName {
        s.parse().unwrap()
    }

    #[test]
    fn compressed_response_parses_to_the_encoded_message() {
        let q = Message::query(7, Question::new(n("sc24.supercomputing.org"), RType::Any));
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.answers = vec![
            Record::new(
                n("sc24.supercomputing.org"),
                300,
                RData::Aaaa("64:ff9b::be5c:9e04".parse().unwrap()),
            ),
            Record::new(
                n("www.sc24.supercomputing.org"),
                60,
                RData::Cname(n("sc24.supercomputing.org")),
            ),
            Record::new(
                n("sc24.supercomputing.org"),
                600,
                RData::Txt(vec!["v=spf1 -all".into()]),
            ),
        ];
        let bytes = resp.encode();
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(view.to_message(), resp);
        assert_eq!(view.aaaa_answers().collect::<Vec<_>>(), resp.aaaa_answers());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let q = Message::query(3, Question::new(n("ip6.me"), RType::A));
        let bytes = q.encode();
        for cut in 0..bytes.len() {
            assert!(MessageView::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(
            MessageView::parse(&[0]).err(),
            Some(DnsError::Truncated("u16"))
        );
    }

    #[test]
    fn forward_pointer_rejected() {
        let mut bytes = Message::query(1, Question::new(n("x"), RType::A)).encode();
        bytes[12] = 0xc0;
        bytes[13] = 12;
        assert!(matches!(
            MessageView::parse(&bytes),
            Err(DnsError::BadPointer(12))
        ));
    }

    #[test]
    fn opt_record_parses_to_the_encoded_message() {
        let mut m = Message::query(11, Question::new(n("ip6.me"), RType::Aaaa));
        m.additionals.push(Record::new(
            DnsName::root(),
            0,
            RData::Opt {
                payload_size: 4096,
                data: vec![0, 15, 0, 2, 0xc0, 0],
            },
        ));
        let bytes = m.encode();
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(view.to_message(), m);
        let first = view.additionals().next().unwrap();
        match first.data {
            RDataRef::Opt { payload_size, data } => {
                assert_eq!(payload_size, 4096);
                assert_eq!(data, &[0, 15, 0, 2, 0xc0, 0]);
            }
            other => panic!("expected OPT, got {other:?}"),
        }
        assert_eq!(view.opt(), Some((4096, [0, 15, 0, 2, 0xc0, 0].as_slice())));
    }

    #[test]
    fn response_mirrors_the_parsed_query() {
        let mut q = Message::query(21, Question::new(n("ip6.me"), RType::A));
        q.recursion_desired = false;
        let bytes = q.encode();
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(
            view.response(Rcode::NxDomain),
            Message::response_to(&q, Rcode::NxDomain)
        );
    }

    #[test]
    fn name_ref_preserves_wire_casing_but_to_name_lowercases() {
        // Hand-build: header + one question "IP6.Me" A IN.
        let mut bytes = vec![0, 9, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(&[3]);
        bytes.extend_from_slice(b"IP6");
        bytes.extend_from_slice(&[2]);
        bytes.extend_from_slice(b"Me");
        bytes.extend_from_slice(&[0, 0, 1, 0, 1]);
        let view = MessageView::parse(&bytes).unwrap();
        let q = view.questions().next().unwrap();
        let raw: Vec<&[u8]> = q.name.labels().collect();
        assert_eq!(raw, vec![b"IP6".as_slice(), b"Me".as_slice()]);
        assert_eq!(q.name.to_name(), n("ip6.me"));
    }
}
