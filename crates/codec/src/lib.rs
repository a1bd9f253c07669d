//! Bounded, bit-exact binary encoding for the state the EDDIE
//! reproduction persists: trained models (the artifact the paper's
//! stand-alone receiver stores in flash, §5.1) and per-device session
//! snapshots (parked sessions, live migrations).
//!
//! Wire rules:
//!
//! * integers are fixed-width little-endian; `usize` travels as `u64`;
//! * `f32`/`f64` travel as their bit patterns, so every value —
//!   NaN payloads and signed zeros included — round-trips exactly;
//! * `bool`, `Option` and enums carry a one-byte tag;
//! * sequences, strings and maps carry a `u64` element count, checked
//!   against the bytes that remain before anything is allocated (every
//!   encoded value takes at least one byte, so a count larger than the
//!   remaining input is refused outright);
//! * maps are sequences of `(key, value)` pairs in strictly ascending
//!   key order;
//! * [`from_bytes`] refuses trailing bytes.
//!
//! There is no self-description and no versioning inside a value: the
//! files that hold encoded values carry a format magic instead.
//! `eddie-store`'s spill log holds bare session payloads behind its
//! magic line, and only the process that wrote them reads them back.
//!
//! # Examples
//!
//! ```
//! use eddie_codec::{from_bytes, to_bytes};
//! use std::collections::BTreeMap;
//!
//! let mut m = BTreeMap::new();
//! m.insert(3u32, vec![f64::NAN, -0.0]);
//! let bytes = to_bytes(&m);
//! let back: BTreeMap<u32, Vec<f64>> = from_bytes(&bytes).unwrap();
//! assert_eq!(back[&3][0].to_bits(), f64::NAN.to_bits());
//! assert!(from_bytes::<BTreeMap<u32, Vec<f64>>>(&bytes[..bytes.len() - 1]).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A value with a binary encoding.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be rebuilt from its [`Encode`] form.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`Error`]: truncated input, an invalid tag, a length prefix
    /// larger than the remaining input, or a value that breaks the
    /// type's invariants.
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Encodes `value`.
pub fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a `T` that must span all of `bytes`.
///
/// # Errors
///
/// Whatever [`Decode::decode`] reports, or trailing bytes after the
/// value.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, Error> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// The byte offsets of every length prefix read while decoding `bytes`
/// as a `T`, in reading order — the places a hostile-input test
/// mutates.
///
/// # Errors
///
/// Whatever [`from_bytes`] reports.
pub fn length_prefix_offsets<T: Decode>(bytes: &[u8]) -> Result<Vec<usize>, Error> {
    let mut r = Reader::new(bytes);
    r.prefixes = Some(Vec::new());
    T::decode(&mut r)?;
    r.finish()?;
    Ok(r.prefixes.unwrap_or_default())
}

/// Why decoding failed, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    offset: usize,
    what: &'static str,
}

impl Error {
    fn new(offset: usize, what: &'static str) -> Error {
        Error { offset, what }
    }

    /// Byte offset at which decoding failed.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for Error {}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    prefixes: Option<Vec<usize>>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            prefixes: None,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// An error at the current position.
    pub fn error(&self, what: &'static str) -> Error {
        Error::new(self.pos, what)
    }

    /// Consumes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// When fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if n > self.remaining() {
            return Err(self.error("unexpected end of input"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Reads a one-byte tag.
    ///
    /// # Errors
    ///
    /// At end of input.
    pub fn tag(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u64` element count and refuses it unless that many
    /// one-byte-or-larger elements fit in the remaining input.
    ///
    /// # Errors
    ///
    /// At end of input, or when the count exceeds the remaining bytes.
    pub fn len_prefix(&mut self) -> Result<usize, Error> {
        if let Some(p) = self.prefixes.as_mut() {
            p.push(self.pos);
        }
        let at = self.pos;
        let n = u64::from_le_bytes(self.array()?);
        if n > self.remaining() as u64 {
            return Err(Error::new(at, "length prefix exceeds the remaining input"));
        }
        Ok(n as usize)
    }

    fn finish(&self) -> Result<(), Error> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.error("trailing bytes after the value"))
        }
    }
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<$t, Error> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

int_codec!(u8, u32, u64);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<usize, Error> {
        let at = r.pos;
        usize::try_from(u64::decode(r)?).map_err(|_| Error::new(at, "usize out of range"))
    }
}

macro_rules! float_codec {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.to_bits().encode(out);
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<$t, Error> {
                Decode::decode(r).map(<$t>::from_bits)
            }
        }
    )*};
}

float_codec!(f32, f64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<bool, Error> {
        match r.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Error::new(r.pos - 1, "invalid bool tag")),
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Option<T>, Error> {
        match r.tag()? {
            0 => Ok(None),
            1 => T::decode(r).map(Some),
            _ => Err(Error::new(r.pos - 1, "invalid Option tag")),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>, Error> {
        let n = r.len_prefix()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<String, Error> {
        let n = r.len_prefix()?;
        let at = r.pos;
        let s =
            std::str::from_utf8(r.take(n)?).map_err(|_| Error::new(at, "string is not UTF-8"))?;
        Ok(s.to_owned())
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<(A, B), Error> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<BTreeMap<K, V>, Error> {
        let n = r.len_prefix()?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let at = r.pos;
            let (k, v) = <(K, V)>::decode(r)?;
            if map.last_key_value().is_some_and(|(last, _)| k <= *last) {
                return Err(Error::new(at, "map keys out of order"));
            }
            map.insert(k, v);
        }
        Ok(map)
    }
}

/// Implements [`Encode`] and [`Decode`] for a struct with named fields,
/// encoding the listed fields in the order given. Every field must be
/// listed; construction fails to compile otherwise.
///
/// ```
/// struct Point { x: f64, tag: Option<u32> }
/// eddie_codec::codec_struct!(Point { x, tag });
///
/// let p: Point = eddie_codec::from_bytes(&eddie_codec::to_bytes(&Point { x: 1.5, tag: Some(2) })).unwrap();
/// assert_eq!((p.x, p.tag), (1.5, Some(2)));
/// ```
#[macro_export]
macro_rules! codec_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::Encode::encode(&self.$field, out); )+
            }
        }
        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<$ty, $crate::Error> {
                Ok($ty { $( $field: $crate::Decode::decode(r)?, )+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), v);
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<T>(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn integers_are_fixed_width_little_endian() {
        assert_eq!(to_bytes(&0x0102_0304u32), [4, 3, 2, 1]);
        assert_eq!(to_bytes(&1usize), [1, 0, 0, 0, 0, 0, 0, 0]);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
    }

    #[test]
    fn floats_keep_their_bits() {
        for x in [f64::NAN, -f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE] {
            let back: f64 = from_bytes(&to_bytes(&x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        let odd_nan = f32::from_bits(0x7fc0_1234);
        let back: f32 = from_bytes(&to_bytes(&odd_nan)).unwrap();
        assert_eq!(back.to_bits(), 0x7fc0_1234);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u8, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(vec![Some(true), None]));
        round_trip("naïve".to_string());
        round_trip((7u8, "x".to_string()));
        let mut m = BTreeMap::new();
        m.insert(2u32, vec![0.5f64]);
        m.insert(9, vec![]);
        round_trip(m);
    }

    #[test]
    fn invalid_tags_are_refused() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u8>>(&[9, 0]).is_err());
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let err = from_bytes::<u8>(&[1, 2]).unwrap_err();
        assert_eq!(err.offset(), 1);
    }

    #[test]
    fn oversized_length_prefixes_are_refused_before_allocating() {
        let mut bytes = to_bytes(&vec![1u32, 2, 3]);
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(from_bytes::<Vec<u32>>(&bytes).is_err());
        let remaining = (bytes.len() - 8) as u64;
        bytes[..8].copy_from_slice(&(remaining + 1).to_le_bytes());
        let err = from_bytes::<Vec<u32>>(&bytes).unwrap_err();
        assert_eq!(err.offset(), 0);
    }

    #[test]
    fn map_keys_must_ascend() {
        let pairs = vec![(2u8, 0u8), (1, 0)];
        assert!(from_bytes::<BTreeMap<u8, u8>>(&to_bytes(&pairs)).is_err());
        let dup = vec![(1u8, 0u8), (1, 1)];
        assert!(from_bytes::<BTreeMap<u8, u8>>(&to_bytes(&dup)).is_err());
    }

    #[test]
    fn invalid_utf8_is_refused() {
        let mut bytes = to_bytes(&"ab".to_string());
        bytes[8] = 0xff;
        assert!(from_bytes::<String>(&bytes).is_err());
    }

    #[test]
    fn prefix_offsets_are_reported_in_reading_order() {
        let v = vec![vec![1u8], vec![2, 3]];
        let offsets = length_prefix_offsets::<Vec<Vec<u8>>>(&to_bytes(&v)).unwrap();
        assert_eq!(offsets, vec![0, 8, 17]);
    }
}
