//! A small self-contained binary wire format.
//!
//! The outsourcing protocol must ship schemas, ciphertexts and
//! trapdoors as bytes — what Eve sees *is* these bytes, so the format
//! is part of the security model (it contains no plaintext beyond what
//! the scheme deliberately reveals). The workspace's dependency policy
//! admits `serde` (the framework) but no serializer crate, so this
//! module provides the codec: length-prefixed, little-endian,
//! versioned by construction (each message starts with a tag byte at
//! the protocol layer).
//!
//! Varints are deliberately avoided: fixed-width integers keep message
//! sizes independent of the values they carry, which matters when the
//! bytes are adversary-visible.

use crate::error::PhError;

/// Serializes a value into a byte buffer.
pub trait WireEncode {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Deserializes a value from a [`Reader`].
pub trait WireDecode: Sized {
    /// Reads one value.
    ///
    /// # Errors
    /// Returns [`PhError::Wire`] on truncated or malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError>;

    /// Convenience: decodes a whole buffer, requiring full consumption.
    ///
    /// # Errors
    /// Returns [`PhError::Wire`] on malformed input or trailing bytes.
    fn from_wire(bytes: &[u8]) -> Result<Self, PhError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// A cursor over received bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    /// Returns [`PhError::Wire`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PhError> {
        if self.remaining() < n {
            return Err(PhError::Wire(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    /// Returns [`PhError::Wire`] when trailing bytes remain.
    pub fn expect_end(&self) -> Result<(), PhError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PhError::Wire(format!(
                "{} trailing byte(s)",
                self.remaining()
            )))
        }
    }
}

// --- primitive impls -------------------------------------------------------

impl WireEncode for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
}

impl WireDecode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        Ok(r.take(1)?[0])
    }
}

macro_rules! wire_int {
    ($ty:ty) => {
        impl WireEncode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl WireDecode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                let mut arr = [0u8; std::mem::size_of::<$ty>()];
                arr.copy_from_slice(bytes);
                Ok(<$ty>::from_le_bytes(arr))
            }
        }
    };
}

wire_int!(u16);
wire_int!(u32);
wire_int!(u64);
wire_int!(i64);

impl WireEncode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
}

impl WireDecode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PhError::Wire(format!("invalid bool byte {b}"))),
        }
    }
}

impl WireEncode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
}

impl WireDecode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| PhError::Wire(format!("usize overflow: {v}")))
    }
}

impl WireEncode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl WireDecode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        let len = usize::decode(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PhError::Wire("invalid UTF-8".into()))
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        let len = usize::decode(r)?;
        // Guard against length bombs: each element needs ≥ 1 byte.
        if len > r.remaining() {
            return Err(PhError::Wire(format!(
                "length {len} exceeds remaining input"
            )));
        }
        let mut out = Vec::with_capacity(initial_capacity::<T>(len, r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Elements to reserve before decoding a `Vec<T>` that claims `len`
/// elements with `remaining` input bytes left. The count is
/// peer-supplied and `T` may be far wider in memory than its ≥ 1-byte
/// encoding, so the reservation is clamped to at most `remaining`
/// bytes of memory; a truthful count grows past it while decoding.
fn initial_capacity<T>(len: usize, remaining: usize) -> usize {
    len.min(remaining / std::mem::size_of::<T>().max(1))
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(PhError::Wire(format!("invalid option tag {b}"))),
        }
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Exact encoded size of one document `(id, words)` as an element of
/// an [`crate::swp_ph::EncryptedTable`]'s `docs` vector, given the
/// stored byte length of each word.
///
/// This is *the* cost model for chunk sizing
/// ([`crate::storage::ShardedTable::fetch_chunk`] budgets against the
/// transport's frame cap with it), so it lives here next to the codec
/// it mirrors: a document encodes as a fixed-width `u64` id (8), a
/// `u64` word count (8), and per word a `u64` length prefix (8) plus
/// the bytes — fixed-width throughout, no varints, so the size depends
/// only on the word lengths. `wire::tests::doc_cost_matches_encoder`
/// pins it to the real encoder, irregular-length words included.
#[must_use]
pub fn encoded_doc_len(word_lens: impl Iterator<Item = usize>) -> u64 {
    16 + word_lens.map(|len| 8 + len as u64).sum::<u64>()
}

// --- domain impls ----------------------------------------------------------

impl WireEncode for dbph_swp::SwpParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.word_len.encode(buf);
        self.check_len.encode(buf);
        self.check_bits.encode(buf);
    }
}

impl WireDecode for dbph_swp::SwpParams {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        let word_len = usize::decode(r)?;
        let check_len = usize::decode(r)?;
        let check_bits = u32::decode(r)?;
        dbph_swp::SwpParams::new(word_len, check_len, check_bits).map_err(PhError::from)
    }
}

impl WireEncode for dbph_swp::CipherWord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl WireDecode for dbph_swp::CipherWord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        Ok(dbph_swp::CipherWord(Vec::<u8>::decode(r)?))
    }
}

impl WireEncode for crate::swp_ph::EncryptedTable {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.params.encode(buf);
        self.docs.encode(buf);
        self.next_doc_id.encode(buf);
    }
}

impl WireDecode for crate::swp_ph::EncryptedTable {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        Ok(crate::swp_ph::EncryptedTable {
            params: dbph_swp::SwpParams::decode(r)?,
            docs: Vec::decode(r)?,
            next_doc_id: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xABCDu16);
        roundtrip(0xDEADBEEFu32);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(-1i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(12345usize);
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![String::from("a"), String::from("bb")]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(42u32));
        roundtrip((7u64, String::from("pair")));
        roundtrip(vec![(1u64, vec![1u8, 2]), (2u64, vec![])]);
    }

    #[test]
    fn truncation_detected() {
        let bytes = 0xDEADBEEFu32.to_wire();
        assert!(u32::from_wire(&bytes[..3]).is_err());
        let bytes = String::from("hello").to_wire();
        assert!(String::from_wire(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 7u32.to_wire();
        bytes.push(0);
        assert!(matches!(u32::from_wire(&bytes), Err(PhError::Wire(_))));
    }

    #[test]
    fn invalid_enum_bytes_rejected() {
        assert!(bool::from_wire(&[2]).is_err());
        assert!(Option::<u8>::from_wire(&[9, 1]).is_err());
    }

    #[test]
    fn length_bomb_rejected() {
        // A Vec<u64> claiming 2^60 elements in a 16-byte message must
        // fail fast, not attempt a huge allocation.
        let mut bytes = Vec::new();
        (1u64 << 60).encode(&mut bytes);
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(Vec::<u64>::from_wire(&bytes).is_err());
    }

    #[test]
    fn inflated_element_count_reserves_at_most_the_input() {
        // A count that passes the ≥ 1-byte-per-element guard but lies:
        // 2^20 wide elements (a `Vec<u64>` header is 24 bytes of
        // memory each) announced in a 1 MiB frame of zeros.
        let len = 1usize << 20;
        let mut bytes = Vec::new();
        len.encode(&mut bytes);
        bytes.resize(8 + len, 0);
        let reserve = initial_capacity::<Vec<u64>>(len, len);
        assert!(reserve * std::mem::size_of::<Vec<u64>>() <= len);
        assert!(matches!(
            Vec::<Vec<u64>>::from_wire(&bytes),
            Err(PhError::Wire(_))
        ));
        // Byte-sized elements reserve the count, up to the input.
        assert_eq!(initial_capacity::<u8>(7, 9), 7);
        assert_eq!(initial_capacity::<u8>(7, 3), 3);

        // The clamp only limits the first reservation: truthful
        // vectors of wide elements still decode in full.
        let nested: Vec<Vec<u64>> = (0..300u64).map(|i| vec![i; (i % 3) as usize]).collect();
        roundtrip(nested);
        let wide: Vec<(u64, String)> = (0..100u64).map(|i| (i, i.to_string())).collect();
        roundtrip(wide);
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut bytes = Vec::new();
        2usize.encode(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(String::from_wire(&bytes).is_err());
    }

    #[test]
    fn swp_params_roundtrip_and_validation() {
        let p = dbph_swp::SwpParams::new(13, 4, 32).unwrap();
        roundtrip(p);
        // Decoding must re-validate: corrupt check_bits.
        let mut bytes = p.to_wire();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&999u32.to_le_bytes());
        assert!(dbph_swp::SwpParams::from_wire(&bytes).is_err());
    }

    #[test]
    fn encrypted_table_roundtrip() {
        let table = crate::swp_ph::EncryptedTable {
            params: dbph_swp::SwpParams::new(13, 4, 32).unwrap(),
            docs: vec![
                (
                    0,
                    vec![
                        dbph_swp::CipherWord(vec![1; 13]),
                        dbph_swp::CipherWord(vec![2; 13]),
                    ],
                ),
                (1, vec![dbph_swp::CipherWord(vec![3; 13])]),
            ],
            next_doc_id: 2,
        };
        roundtrip(table);
    }

    #[test]
    fn doc_cost_matches_encoder() {
        // The chunk-sizing cost model must equal the real encoder's
        // per-document size delta — including empty documents and
        // irregular-length words (side lists longer or shorter than
        // the slot width).
        let docs: Vec<(u64, Vec<dbph_swp::CipherWord>)> = vec![
            (0, vec![]),
            (1, vec![dbph_swp::CipherWord(vec![1; 13])]),
            (
                7,
                vec![
                    dbph_swp::CipherWord(vec![2; 13]),
                    dbph_swp::CipherWord(vec![3; 5]), // irregular: short
                    dbph_swp::CipherWord(vec![4; 250]), // irregular: long
                    dbph_swp::CipherWord(vec![]),     // irregular: empty
                ],
            ),
        ];
        let mut prev = Vec::<(u64, Vec<dbph_swp::CipherWord>)>::new()
            .to_wire()
            .len();
        let mut acc = Vec::new();
        for doc in docs {
            let predicted = encoded_doc_len(doc.1.iter().map(|w| w.0.len()));
            acc.push(doc);
            let now = acc.to_wire().len();
            assert_eq!(predicted, (now - prev) as u64);
            prev = now;
        }
    }

    #[test]
    fn fixed_width_integers_hide_magnitude() {
        // Message sizes must not depend on encoded values.
        assert_eq!(1u64.to_wire().len(), u64::MAX.to_wire().len());
        assert_eq!((-1i64).to_wire().len(), 0i64.to_wire().len());
    }
}
