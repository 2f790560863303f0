//! Offline stand-in for `serde`.
//!
//! The workspace builds in environments without a crates.io mirror, so this
//! crate provides the subset of serde the codebase relies on: a [`Serialize`]
//! / [`Deserialize`] trait pair with `#[derive(...)]` support (re-exported
//! from the sibling `serde_derive` proc-macro crate) over a compact,
//! deterministic binary data model:
//!
//! * unsigned integers: LEB128 varints,
//! * signed integers: zigzag varints,
//! * floats: IEEE-754 bits, little-endian,
//! * `bool`/`u8`: one byte,
//! * sequences and maps: varint length prefix followed by the elements
//!   (hash maps are serialized in sorted key order so equal values always
//!   produce equal bytes),
//! * `Option`: one tag byte,
//! * enums: varint variant index followed by the fields.
//!
//! The `bincode` shim frames values of these traits; the derive macro emits
//! field-by-field calls into this data model.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Duration;

/// Error produced when decoding malformed or truncated input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable description of what went wrong.
    pub message: &'static str,
}

impl DecodeError {
    /// Creates a decode error with a static message.
    pub fn new(message: &'static str) -> DecodeError {
        DecodeError { message }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over a byte slice being decoded.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or(DecodeError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads exactly `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::new("unexpected end of input"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(DecodeError::new("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(DecodeError::new("varint too long"));
            }
        }
    }

    /// Reads a varint and checks it fits the remaining input when used as a
    /// sequence length (defends against hostile length prefixes).
    pub fn seq_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(DecodeError::new("sequence length exceeds input"));
        }
        Ok(n as usize)
    }
}

/// The most a decoder pre-allocates for a sequence from its length prefix.
/// The prefix is untrusted: [`Reader::seq_len`] only bounds it by the bytes
/// left, and one element can take far more memory than one byte, so a
/// longer sequence grows as its elements actually decode.
pub const MAX_PREALLOC_BYTES: usize = 1 << 20;

/// The capacity to reserve for `n` claimed elements of `T`: `n`, capped at
/// [`MAX_PREALLOC_BYTES`] worth of `T`.
fn cautious_capacity<T>(n: usize) -> usize {
    n.min(MAX_PREALLOC_BYTES / std::mem::size_of::<T>().max(1))
}

/// Appends a LEB128 varint to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Types that can be written into the binary data model.
pub trait Serialize {
    /// Appends the encoding of `self` to `out`.
    fn encode_to(&self, out: &mut Vec<u8>);
}

/// Types that can be read back from the binary data model.
pub trait Deserialize: Sized {
    /// Decodes one value from the reader.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Compile-time field-name reflection, implemented automatically by
/// `#[derive(Serialize)]` for named structs. Lets tests assert exhaustive
/// properties over a struct's fields (e.g. that `merge` touches every one)
/// so adding a field without updating such logic fails CI.
pub trait Reflect {
    /// The struct's field names, in declaration order.
    const FIELD_NAMES: &'static [&'static str];
}

// --- integers -------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn encode_to(&self, out: &mut Vec<u8>) {
                write_varint(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let v = r.varint()?;
                <$t>::try_from(v).map_err(|_| DecodeError::new("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u16, u32, u64, usize);

impl Serialize for u8 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Deserialize for u8 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.byte()
    }
}

impl Serialize for u128 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Deserialize for u128 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u128::from_le_bytes(r.bytes(16)?.try_into().unwrap()))
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn encode_to(&self, out: &mut Vec<u8>) {
                write_varint(out, zigzag(*self as i64));
            }
        }
        impl Deserialize for $t {
            fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let v = unzigzag(r.varint()?);
                <$t>::try_from(v).map_err(|_| DecodeError::new("integer out of range"))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

// --- floats, bool, char ---------------------------------------------------

impl Serialize for f32 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl Deserialize for f32 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f32::from_bits(u32::from_le_bytes(
            r.bytes(4)?.try_into().unwrap(),
        )))
    }
}

impl Serialize for f64 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl Deserialize for f64 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            r.bytes(8)?.try_into().unwrap(),
        )))
    }
}

impl Serialize for bool {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Deserialize for bool {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::new("invalid bool")),
        }
    }
}

impl Serialize for char {
    fn encode_to(&self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(u32::from(*self)));
    }
}

impl Deserialize for char {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = u32::try_from(r.varint()?).map_err(|_| DecodeError::new("invalid char"))?;
        char::from_u32(v).ok_or(DecodeError::new("invalid char"))
    }
}

impl Serialize for () {
    fn encode_to(&self, _out: &mut Vec<u8>) {}
}

impl Deserialize for () {
    fn decode_from(_r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

// --- strings --------------------------------------------------------------

impl Serialize for str {
    fn encode_to(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Serialize for String {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.as_str().encode_to(out);
    }
}

impl Deserialize for String {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.seq_len()?;
        let bytes = r.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new("invalid utf-8"))
    }
}

// --- containers -----------------------------------------------------------

impl<T: Serialize> Serialize for [T] {
    fn encode_to(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.encode_to(out);
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.as_slice().encode_to(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.seq_len()?;
        let mut v = Vec::with_capacity(cautious_capacity::<T>(n));
        for _ in 0..n {
            v.push(T::decode_from(r)?);
        }
        Ok(v)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.encode_to(out);
        }
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::<T>::decode_from(r)?.into())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn encode_to(&self, out: &mut Vec<u8>) {
        for item in self {
            item.encode_to(out);
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_to(out);
            }
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            _ => Err(DecodeError::new("invalid option tag")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (**self).encode_to(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode_from(r)?))
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (**self).encode_to(out);
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Arc::new(T::decode_from(r)?))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (**self).encode_to(out);
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for (k, v) in self {
            k.encode_to(out);
            v.encode_to(out);
        }
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.seq_len()?;
        let mut m = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode_from(r)?;
            let v = V::decode_from(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for HashMap<K, V> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        // Sorted key order keeps the encoding deterministic.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        write_varint(out, entries.len() as u64);
        for (k, v) in entries {
            k.encode_to(out);
            v.encode_to(out);
        }
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.seq_len()?;
        let mut m = HashMap::with_capacity(cautious_capacity::<(K, V)>(n));
        for _ in 0..n {
            let k = K::decode_from(r)?;
            let v = V::decode_from(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.encode_to(out);
        }
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.seq_len()?;
        let mut s = BTreeSet::new();
        for _ in 0..n {
            s.insert(T::decode_from(r)?);
        }
        Ok(s)
    }
}

impl<T: Serialize + Ord> Serialize for HashSet<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<&T> = self.iter().collect();
        entries.sort();
        write_varint(out, entries.len() as u64);
        for item in entries {
            item.encode_to(out);
        }
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.seq_len()?;
        let mut s = HashSet::with_capacity(cautious_capacity::<T>(n));
        for _ in 0..n {
            s.insert(T::decode_from(r)?);
        }
        Ok(s)
    }
}

// --- tuples ---------------------------------------------------------------

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn encode_to(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode_to(out);)+
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(($($name::decode_from(r)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// --- std types ------------------------------------------------------------

impl Serialize for Duration {
    fn encode_to(&self, out: &mut Vec<u8>) {
        write_varint(out, self.as_secs());
        write_varint(out, u64::from(self.subsec_nanos()));
    }
}

impl Deserialize for Duration {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let secs = r.varint()?;
        let nanos = u32::try_from(r.varint()?).map_err(|_| DecodeError::new("invalid nanos"))?;
        if nanos >= 1_000_000_000 {
            return Err(DecodeError::new("invalid nanos"));
        }
        Ok(Duration::new(secs, nanos))
    }
}

/// Encodes a value to a fresh byte vector.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_to(&mut out);
    out
}

/// Decodes a value from `data`, requiring all input to be consumed.
pub fn from_bytes<T: Deserialize>(data: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(data);
    let v = T::decode_from(&mut r)?;
    if !r.is_empty() {
        return Err(DecodeError::new("trailing bytes"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("roundtrip decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(3.25f64);
        roundtrip(true);
        roundtrip('é');
        roundtrip(String::from("hello, wörld"));
        roundtrip(Duration::new(12, 345_678_901));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Some(vec![9u8]));
        roundtrip(Option::<u8>::None);
        let mut m = BTreeMap::new();
        m.insert(String::from("a"), 1u64);
        m.insert(String::from("b"), 2u64);
        roundtrip(m);
        let mut h = HashMap::new();
        h.insert(3u32, String::from("x"));
        h.insert(1u32, String::from("y"));
        roundtrip(h);
    }

    #[test]
    fn hashmap_encoding_is_deterministic() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..64u32 {
            a.insert(i, i * 2);
        }
        for i in (0..64u32).rev() {
            b.insert(i, i * 2);
        }
        assert_eq!(to_bytes(&a), to_bytes(&b));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        assert!(from_bytes::<Vec<u64>>(&bytes[..bytes.len() - 1]).is_err());
        assert!(from_bytes::<Vec<u64>>(&[250]).is_err());
    }
}
