//! Property tests for the wire layer: every `Wire` type and field-vector
//! helper in `prio_net::wire` round-trips, and every decoder rejects
//! truncation and trailing garbage instead of panicking or misreading.
//!
//! These bytes are exactly what crosses a real socket on the TCP backend,
//! so the decode paths are attack surface: a malformed or hostile stream
//! must produce a clean `WireError`, never a wrong value, a panic, or an
//! unbounded allocation.

use prio_field::{Field128, Field32, Field64, FieldElement};
use prio_net::tcp::{decode_frame_header, encode_frame, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use prio_net::wire::{get_field, get_field_vec, put_field, put_field_vec, Wire, WireError};
use prio_net::NodeId;
use proptest::prelude::*;

/// Round-trips a value and checks the two decode-rejection properties that
/// hold for every `Wire` encoding:
/// * any strict prefix of the encoding fails to fully decode;
/// * any appended garbage makes `from_wire_bytes` reject trailing bytes.
fn roundtrip_and_reject<T: Wire + PartialEq + std::fmt::Debug>(value: &T, garbage: &[u8]) {
    let bytes = value.to_wire_bytes();
    assert_eq!(&T::from_wire_bytes(&bytes).unwrap(), value);
    // Truncation at every split point: either the decoder errors, or (for
    // prefix-decodable values) `from_wire_bytes` flags the missing tail as
    // a hard error. It must never succeed.
    for cut in 0..bytes.len() {
        assert!(
            T::from_wire_bytes(&bytes[..cut]).is_err(),
            "decoded from a {cut}-byte prefix of a {}-byte encoding",
            bytes.len()
        );
    }
    // Garbage suffix: full-consumption decoding must reject it.
    if !garbage.is_empty() {
        let mut extended = bytes.clone();
        extended.extend_from_slice(garbage);
        assert_eq!(
            T::from_wire_bytes(&extended),
            Err(WireError("trailing bytes"))
        );
    }
}

proptest! {
    #[test]
    fn u64_roundtrips_and_rejects(v in any::<u64>(), garbage in prop::collection::vec(any::<u8>(), 1..9)) {
        roundtrip_and_reject(&v, &garbage);
    }

    #[test]
    fn u8_roundtrips_and_rejects(v in any::<u8>(), garbage in prop::collection::vec(any::<u8>(), 1..5)) {
        roundtrip_and_reject(&v, &garbage);
    }

    #[test]
    fn bool_roundtrips_and_rejects(v in any::<bool>(), garbage in prop::collection::vec(any::<u8>(), 1..5)) {
        roundtrip_and_reject(&v, &garbage);
        // Any tag other than 0/1 is invalid.
        let tag = garbage[0];
        prop_assume!(tag > 1);
        prop_assert!(bool::from_wire_bytes(&[tag]).is_err());
    }

    #[test]
    fn byte_vec_roundtrips_and_rejects(
        v in prop::collection::vec(any::<u8>(), 0..64),
        garbage in prop::collection::vec(any::<u8>(), 1..9),
    ) {
        roundtrip_and_reject(&v, &garbage);
    }

    #[test]
    fn field64_vec_roundtrips(raw in prop::collection::vec(any::<u64>(), 0..32)) {
        let xs: Vec<Field64> = raw.iter().map(|&v| Field64::from_u64(v)).collect();
        let mut buf = Vec::new();
        put_field_vec(&mut buf, &xs);
        prop_assert_eq!(buf.len(), 4 + xs.len() * Field64::ENCODED_LEN);
        let mut slice = buf.as_slice();
        let back: Vec<Field64> = get_field_vec(&mut slice).unwrap();
        prop_assert_eq!(back, xs);
        prop_assert!(slice.is_empty());
        // Every strict prefix fails to decode the full vector.
        for cut in 0..buf.len() {
            let mut short = &buf[..cut];
            prop_assert!(get_field_vec::<Field64, _>(&mut short).is_err());
        }
    }

    #[test]
    fn field128_vec_roundtrips(raw in prop::collection::vec(any::<u128>(), 0..16)) {
        let xs: Vec<Field128> = raw.iter().map(|&v| Field128::from_u128(v)).collect();
        let mut buf = Vec::new();
        put_field_vec(&mut buf, &xs);
        prop_assert_eq!(buf.len(), 4 + xs.len() * Field128::ENCODED_LEN);
        let mut slice = buf.as_slice();
        let back: Vec<Field128> = get_field_vec(&mut slice).unwrap();
        prop_assert_eq!(back, xs);
        for cut in 0..buf.len() {
            let mut short = &buf[..cut];
            prop_assert!(get_field_vec::<Field128, _>(&mut short).is_err());
        }
    }

    #[test]
    fn single_field_element_roundtrips(v in any::<u64>()) {
        let x = Field64::from_u64(v);
        let mut buf = Vec::new();
        put_field(&mut buf, x);
        prop_assert_eq!(buf.len(), Field64::ENCODED_LEN);
        let mut slice = buf.as_slice();
        prop_assert_eq!(get_field::<Field64, _>(&mut slice), Ok(x));
    }

    #[test]
    fn claimed_length_never_outruns_backing_bytes(claimed in any::<u32>(), tail in prop::collection::vec(any::<u8>(), 0..32)) {
        // A length prefix promising more elements than the buffer holds
        // must error (without allocating the promised amount) whenever the
        // claim exceeds the backing bytes.
        let mut buf = claimed.to_le_bytes().to_vec();
        buf.extend_from_slice(&tail);
        prop_assume!((claimed as usize) * Field64::ENCODED_LEN > tail.len());
        let mut slice = buf.as_slice();
        prop_assert!(get_field_vec::<Field64, _>(&mut slice).is_err());
    }

    #[test]
    fn non_canonical_field_residues_rejected(low in 1u64..0x1_0000_0000) {
        // Field64 is the Goldilocks prime p = 2^64 − 2^32 + 1, so every
        // value in [p, 2^64) has the form 0xffff_ffff_0000_0000 + low with
        // low ≥ 1. All of them must be rejected as non-canonical.
        let bytes = (0xffff_ffff_0000_0000u64 + low).to_le_bytes();
        let mut slice = bytes.as_slice();
        prop_assert!(get_field::<Field64, _>(&mut slice).is_err());
    }

    #[test]
    fn tcp_frame_header_roundtrips(src in any::<u64>(), len in 0usize..2048) {
        let payload = vec![0xabu8; len];
        let frame = encode_frame(NodeId(src as usize), &payload).unwrap();
        prop_assert_eq!(frame.len(), FRAME_HEADER_LEN + len);
        let header: [u8; FRAME_HEADER_LEN] = frame[..FRAME_HEADER_LEN].try_into().unwrap();
        let (decoded_src, decoded_len) = decode_frame_header(&header).unwrap();
        prop_assert_eq!(decoded_src, NodeId(src as usize));
        prop_assert_eq!(decoded_len, len);
        prop_assert_eq!(&frame[FRAME_HEADER_LEN..], payload.as_slice());
    }

    #[test]
    fn tcp_frame_header_rejects_oversized_lengths(excess in 1u64..(u32::MAX as u64 - MAX_FRAME_LEN as u64 + 1)) {
        let mut header = [0u8; FRAME_HEADER_LEN];
        let bad_len = (MAX_FRAME_LEN as u64 + excess) as u32;
        header[8..].copy_from_slice(&bad_len.to_le_bytes());
        prop_assert!(decode_frame_header(&header).is_none());
    }
}

// ---- bulk field-vector decoder ------------------------------------------

/// `n` random elements of `F`, their length-prefixed encoding.
fn encoded_vec<F: FieldElement>(seed: u64, n: usize) -> (Vec<F>, Vec<u8>) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let xs: Vec<F> = (0..n).map(|_| F::random(&mut rng)).collect();
    let mut buf = Vec::new();
    put_field_vec(&mut buf, &xs);
    (xs, buf)
}

/// The encoding of `p + offset`: the largest canonical residue `p − 1`,
/// plus `1 + offset`, carried through the little-endian bytes. Every field
/// here has at least 2³⁰ non-canonical values above `p`.
fn non_canonical<F: FieldElement>(offset: u8) -> Vec<u8> {
    let mut bytes = vec![0u8; F::ENCODED_LEN];
    (-F::one()).write_le_bytes(&mut bytes);
    let mut carry = 1 + u16::from(offset);
    for b in bytes.iter_mut() {
        let sum = u16::from(*b) + carry;
        *b = sum as u8;
        carry = sum >> 8;
    }
    assert_eq!(carry, 0, "p + offset overflowed the encoding");
    bytes
}

/// A two-segment buffer whose `chunk()` holds only the current segment, to
/// exercise the decoder's path for non-contiguous input.
struct TwoSegments<'a> {
    head: &'a [u8],
    tail: &'a [u8],
}

impl bytes::Buf for TwoSegments<'_> {
    fn remaining(&self) -> usize {
        self.head.len() + self.tail.len()
    }
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        for byte in dst.iter_mut() {
            *byte = self.chunk()[0];
            self.advance(1);
        }
    }
    fn chunk(&self) -> &[u8] {
        if self.head.is_empty() {
            self.tail
        } else {
            self.head
        }
    }
    fn advance(&mut self, cnt: usize) {
        for _ in 0..cnt {
            if self.head.is_empty() {
                self.tail = &self.tail[1..];
            } else {
                self.head = &self.head[1..];
            }
        }
    }
}

/// Checks the bulk decoder on one random vector: a non-canonical element
/// at index `k` is a typed error; every truncation is a typed error; and a
/// buffer split at `split` decodes to the same vector as a contiguous one.
fn bulk_decoder_properties<F: FieldElement>(
    seed: u64,
    n: usize,
    k: usize,
    offset: u8,
    split: usize,
) {
    let (xs, good) = encoded_vec::<F>(seed, n);
    let k = k % n;
    let mut bad = good.clone();
    let at = 4 + k * F::ENCODED_LEN;
    bad[at..at + F::ENCODED_LEN].copy_from_slice(&non_canonical::<F>(offset));
    let mut slice = bad.as_slice();
    assert_eq!(
        get_field_vec::<F, _>(&mut slice),
        Err(WireError("non-canonical field element")),
        "{}: n = {n}, non-canonical element {k}",
        F::NAME
    );
    for cut in 0..good.len() {
        let mut short = &good[..cut];
        let err = get_field_vec::<F, _>(&mut short).expect_err("a truncated vector decoded");
        assert!(
            err.0.starts_with("truncated"),
            "{}: cut {cut}: {err}",
            F::NAME
        );
    }
    let split = split % (good.len() + 1);
    let mut segments = TwoSegments {
        head: &good[..split],
        tail: &good[split..],
    };
    assert_eq!(
        get_field_vec::<F, _>(&mut segments),
        Ok(xs),
        "{}: split at {split}",
        F::NAME
    );
    let mut bad_segments = TwoSegments {
        head: &bad[..split],
        tail: &bad[split..],
    };
    assert_eq!(
        get_field_vec::<F, _>(&mut bad_segments),
        Err(WireError("non-canonical field element")),
        "{}: split at {split}, non-canonical element {k}",
        F::NAME
    );
}

proptest! {
    #[test]
    fn bulk_decoder_rejects_bad_field32_vectors(seed in any::<u64>(), n in 1usize..300, k in any::<usize>(), offset in any::<u8>(), split in any::<usize>()) {
        bulk_decoder_properties::<Field32>(seed, n, k, offset, split);
    }

    #[test]
    fn bulk_decoder_rejects_bad_field64_vectors(seed in any::<u64>(), n in 1usize..300, k in any::<usize>(), offset in any::<u8>(), split in any::<usize>()) {
        bulk_decoder_properties::<Field64>(seed, n, k, offset, split);
    }

    #[test]
    fn bulk_decoder_rejects_bad_field128_vectors(seed in any::<u64>(), n in 1usize..300, k in any::<usize>(), offset in any::<u8>(), split in any::<usize>()) {
        bulk_decoder_properties::<Field128>(seed, n, k, offset, split);
    }
}
