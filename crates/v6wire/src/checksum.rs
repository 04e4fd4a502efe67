//! The internet checksum (RFC 1071) and the IPv4/IPv6 pseudo-headers used by
//! UDP, TCP, ICMPv4 and ICMPv6, plus the incremental-update rule (RFC 1624)
//! that the SIIT translator in `v6xlat` relies on.
//!
//! Spans of eight bytes or more are summed by a wide kernel: native-endian
//! `u64` loads added with end-around carry (the carries are counted and
//! added back once), folded to 16 bits and byte swapped once at the end —
//! the byte-order independence of RFC 1071 §2(B). The two-byte scalar loop
//! stays as the reference: [`checksum_with`] exposes both kernels for
//! differential testing. Because the ones'-complement sum is a fold of a
//! plain integer sum, the kernels are bit-for-bit interchangeable —
//! `tests/conformance.rs` proves it on the committed corpus, on random
//! slices and on carry-heavy spans at every alignment. Pseudo-headers are summed as words, never as byte slices.

use std::net::{Ipv4Addr, Ipv6Addr};

/// Which summation kernel to use for bulk spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Two bytes per step (`u16` words), the reference implementation.
    Scalar,
    /// Eight bytes per step: native-endian `u64` words summed with end-around
    /// carry, folded and byte swapped once per span (RFC 1071 §2(B)).
    Swar,
}

/// Below one `u64` word the wide kernel has nothing to load, so shorter
/// spans take the scalar loop.
const WIDE_MIN_BYTES: usize = 8;

/// Fold a sum to 16 bits with end-around carry. The result is zero only
/// when `s` is zero, so "all bytes zero" and "a nonzero multiple of
/// 0xffff" (folds to 0xffff) stay distinct, as the scalar sum keeps them.
#[inline]
fn fold16(mut s: u64) -> u64 {
    s = (s & 0xffff_ffff) + (s >> 32);
    s = (s & 0xffff) + (s >> 16);
    s = (s & 0xffff) + (s >> 16);
    (s & 0xffff) + (s >> 16)
}

/// Sum `data` (even length) as big-endian 16-bit words with the wide
/// kernel, returning a value congruent to the plain word sum modulo
/// 0xffff (zero only for all-zero input) and at most 0xffff.
fn sum_words_wide(data: &[u8]) -> u64 {
    debug_assert_eq!(data.len() % 2, 0);
    let mut acc: u64 = 0;
    // Each wrap of `acc` drops 2^64, which is 1 modulo 0xffff: counting
    // the wraps and adding them back is the end-around carry.
    let mut carries: u64 = 0;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let (sum, wrapped) =
            acc.overflowing_add(u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk")));
        acc = sum;
        carries += u64::from(wrapped);
    }
    let mut total = (acc & 0xffff_ffff) + (acc >> 32) + carries;
    for pair in chunks.remainder().chunks_exact(2) {
        total += u64::from(u16::from_ne_bytes([pair[0], pair[1]]));
    }
    // The sum of native-endian words is the byte swap of the sum of
    // big-endian words (RFC 1071 §2(B)); swap once, after folding.
    u64::from((fold16(total) as u16).to_be())
}

/// Sum `data` (even length) as big-endian 16-bit words with the scalar
/// reference loop.
fn sum_words_scalar(data: &[u8]) -> u64 {
    debug_assert_eq!(data.len() % 2, 0);
    let mut total: u64 = 0;
    for pair in data.chunks_exact(2) {
        total += u64::from(u16::from_be_bytes([pair[0], pair[1]]));
    }
    total
}

/// Streaming ones'-complement checksum accumulator.
///
/// Feed arbitrary byte slices (odd lengths allowed; a trailing odd byte is
/// padded with zero exactly as RFC 1071 specifies), then call
/// [`Checksum::finish`].
#[derive(Debug, Clone, Default)]
pub struct Checksum {
    sum: u64,
    /// Pending odd byte from a previous `push` whose slice had odd length.
    pending: Option<u8>,
}

impl Checksum {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `data` to the running sum with the wide kernel.
    #[inline]
    pub fn push(&mut self, data: &[u8]) {
        self.push_with(Kernel::Swar, data);
    }

    /// Add `data` to the running sum with an explicit kernel.
    pub fn push_with(&mut self, kernel: Kernel, data: &[u8]) {
        let mut chunks = data;
        if let Some(hi) = self.pending.take() {
            if chunks.is_empty() {
                self.pending = Some(hi);
                return;
            }
            self.sum += u64::from(u16::from_be_bytes([hi, chunks[0]]));
            chunks = &chunks[1..];
        }
        let even = chunks.len() & !1;
        let (body, tail) = chunks.split_at(even);
        self.sum += match kernel {
            Kernel::Swar if body.len() >= WIDE_MIN_BYTES => sum_words_wide(body),
            _ => sum_words_scalar(body),
        };
        if let [last] = tail {
            self.pending = Some(*last);
        }
    }

    /// Add a big-endian `u16` to the running sum.
    #[inline]
    pub fn push_u16(&mut self, v: u16) {
        // Word-aligned fast path; with a pending odd byte the value's
        // bytes pair across the boundary, so fall back to the slice path.
        if self.pending.is_none() {
            self.sum += u64::from(v);
        } else {
            self.push(&v.to_be_bytes());
        }
    }

    /// Add a big-endian `u32` to the running sum.
    #[inline]
    pub fn push_u32(&mut self, v: u32) {
        if self.pending.is_none() {
            self.sum += u64::from(v >> 16) + u64::from(v & 0xffff);
        } else {
            self.push(&v.to_be_bytes());
        }
    }

    /// Add a big-endian `u128` (an IPv6 address) to the running sum.
    #[inline]
    pub fn push_u128(&mut self, v: u128) {
        if self.pending.is_none() {
            // 2^32 is 1 modulo 0xffff, so 32-bit halves sum like their
            // 16-bit words; the total is zero only when `v` is.
            for word in [
                (v >> 96) as u32,
                (v >> 64) as u32,
                (v >> 32) as u32,
                v as u32,
            ] {
                self.sum += u64::from(word);
            }
        } else {
            self.push(&v.to_be_bytes());
        }
    }

    /// Fold carries and return the ones'-complement of the sum.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.sum += u64::from(u16::from_be_bytes([hi, 0]));
        }
        !(fold16(self.sum) as u16)
    }
}

/// One-shot checksum of a byte slice with the wide kernel.
pub fn checksum(data: &[u8]) -> u16 {
    checksum_with(Kernel::Swar, data)
}

/// One-shot checksum of a byte slice with an explicit kernel — the
/// differential-testing entry point.
pub fn checksum_with(kernel: Kernel, data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.push_with(kernel, data);
    c.finish()
}

/// Start an accumulator pre-loaded with the IPv4 pseudo-header
/// (RFC 768 / RFC 793): src, dst, zero+protocol, upper-layer length.
pub fn pseudo_v4(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) -> Checksum {
    let mut c = Checksum::new();
    c.push_u32(src.to_bits());
    c.push_u32(dst.to_bits());
    c.push_u16(u16::from(proto));
    c.push_u16(len);
    c
}

/// Start an accumulator pre-loaded with the IPv6 pseudo-header (RFC 8200 §8.1).
pub fn pseudo_v6(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, len: u32) -> Checksum {
    let mut c = Checksum::new();
    c.push_u128(src.to_bits());
    c.push_u128(dst.to_bits());
    c.push_u32(len);
    c.push_u16(u16::from(next_header));
    c
}

/// RFC 1624 incremental checksum update: given an existing checksum `old_sum`
/// over data in which 16-bit word `old` is replaced by `new`, return the
/// updated checksum. Used by the stateless translator to adjust transport
/// checksums without touching the payload.
pub fn incremental_update(old_sum: u16, old: u16, new: u16) -> u16 {
    // HC' = ~(~HC + ~m + m')  (RFC 1624 eqn. 3)
    let mut s = u32::from(!old_sum) + u32::from(!old) + u32::from(new);
    while s >> 16 != 0 {
        s = (s & 0xffff) + (s >> 16);
    }
    !(s as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // RFC 1071 §3 example words: 0x0001, 0xf203, 0xf4f5, 0xf6f7 -> sum 0xddf2,
        // checksum = ~0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00);
        // Split across pushes in awkward places: same result.
        let mut c = Checksum::new();
        c.push(&[0x12]);
        c.push(&[0x34, 0x56]);
        c.push(&[0x78]);
        assert_eq!(c.finish(), checksum(&[0x12, 0x34, 0x56, 0x78]));
    }

    #[test]
    fn word_pushes_match_slice_pushes() {
        // Word-aligned: the u16/u32 fast paths must equal slice pushes.
        let mut a = Checksum::new();
        a.push_u16(0x1234);
        a.push_u32(0xdead_beef);
        let mut b = Checksum::new();
        b.push(&[0x12, 0x34, 0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(a.finish(), b.finish());

        // Straddling a pending odd byte: bytes re-pair across the
        // boundary, exercising the fallback.
        let mut a = Checksum::new();
        a.push(&[0xab]);
        a.push_u16(0x1234);
        a.push_u32(0xdead_beef);
        a.push(&[0x99]);
        let mut b = Checksum::new();
        b.push(&[0xab, 0x12, 0x34, 0xde, 0xad, 0xbe, 0xef, 0x99]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn split_invariance() {
        let data: Vec<u8> = (0u8..=255).collect();
        let whole = checksum(&data);
        for split in [1usize, 3, 7, 128, 255] {
            let mut c = Checksum::new();
            c.push(&data[..split]);
            c.push(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn kernels_agree_on_all_lengths() {
        // Every length 0..200 with varied content, including lengths around
        // the wide-kernel threshold and non-multiple-of-8 tails.
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(37) ^ 0x5a) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                checksum_with(Kernel::Scalar, &data[..len]),
                checksum_with(Kernel::Swar, &data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn kernels_agree_on_saturating_content() {
        // All-0xff content carries on every wide add.
        let data = vec![0xffu8; 4096];
        assert_eq!(
            checksum_with(Kernel::Scalar, &data),
            checksum_with(Kernel::Swar, &data)
        );
    }

    #[test]
    fn wide_kernel_survives_many_wraps() {
        // 1 MiB of 0xff wraps the u64 accumulator on nearly every add.
        let data = vec![0xffu8; 1 << 20];
        assert_eq!(
            checksum_with(Kernel::Scalar, &data),
            checksum_with(Kernel::Swar, &data)
        );
    }

    #[test]
    fn verification_of_valid_data_yields_zero_complement() {
        // A buffer containing its own correct checksum sums to 0xffff,
        // i.e. finish() == 0.
        let mut data = vec![0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06];
        let ck = checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(checksum(&data), 0);
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let mut data = vec![0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc];
        let before = checksum(&data);
        // Replace word at offset 2 (0x5678) with 0xcafe.
        let updated = incremental_update(before, 0x5678, 0xcafe);
        data[2] = 0xca;
        data[3] = 0xfe;
        assert_eq!(updated, checksum(&data));
    }

    #[test]
    fn pseudo_headers_differ_by_family() {
        let v4 = pseudo_v4(
            "192.0.2.1".parse().unwrap(),
            "198.51.100.2".parse().unwrap(),
            17,
            8,
        )
        .finish();
        let v6 = pseudo_v6(
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            17,
            8,
        )
        .finish();
        assert_ne!(v4, v6);
    }
}
