//! A tiny deterministic binary encoding.
//!
//! Hashing and signing need a canonical byte representation of transactions
//! and block headers. Rather than pull in a serialization framework, this
//! module provides a little-endian, length-prefixed encoding whose output is
//! a pure function of the value — sufficient for cryptographic commitments
//! inside a single build of the system.
//!
//! # Examples
//!
//! ```
//! use parblock_types::wire::Wire;
//!
//! let mut buf = Vec::new();
//! 7u64.encode(&mut buf);
//! assert_eq!(buf.len(), 8);
//! ```

use crate::{Key, Value};

/// Types with a canonical byte encoding used for hashing and signing.
pub trait Wire {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// The length of the encoding where the type can tell it without
    /// encoding, else 0: a capacity hint, never a promise.
    fn wire_len_hint(&self) -> usize {
        0
    }

    /// Convenience: encodes into a fresh buffer, sized once by
    /// [`wire_len_hint`](Self::wire_len_hint).
    fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len_hint());
        self.encode(&mut out);
        out
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Wire for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Wire for [u8] {
    /// Length-prefixed byte string.
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self);
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl Wire for str {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_bytes().encode(out);
    }
}

/// Encodes a set of keys, length-prefixed, in slice order. The encoding
/// is canonical because the only slices passed are [`RwSet`](crate::RwSet)'s,
/// which are ascending and free of duplicates.
pub fn encode_key_set(set: &[Key], out: &mut Vec<u8>) {
    (set.len() as u64).encode(out);
    for key in set {
        key.0.encode(out);
    }
}

/// Encodes a write-set: its length, then each `(key, value)` in slice
/// order. Commit digests, XOV envelopes and WAL effects records all use
/// this layout; [`Reader::writes`] reads it back.
pub fn encode_writes(writes: &[(Key, Value)], out: &mut Vec<u8>) {
    (writes.len() as u64).encode(out);
    for (key, value) in writes {
        key.0.encode(out);
        value.encode(out);
    }
}

/// A cursor for decoding [`Wire`]-encoded bytes.
///
/// Every read returns `None` on truncated input rather than panicking, so
/// malformed network payloads surface as decode failures.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes remaining to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Returns `true` when all input has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().expect("8")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Option<i64> {
        self.take(8).map(|s| i64::from_le_bytes(s.try_into().expect("8")))
    }

    /// Reads a length-prefixed byte string (as written by `[u8]::encode`).
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u64()?;
        let len = usize::try_from(len).ok()?;
        if len > self.remaining() {
            return None;
        }
        self.take(len)
    }

    /// Reads a key list in the layout of [`encode_key_set`], in arrival
    /// order: a malformed sender may repeat or misorder keys, and
    /// [`RwSet::new`](crate::RwSet::new) is what normalises them.
    pub fn key_set(&mut self) -> Option<Vec<Key>> {
        self.keys().map(Iterator::collect)
    }

    /// [`Reader::key_set`] without the vector: the keys are decoded as
    /// the iterator is consumed, and its exact length lets
    /// [`RwSet::new`](crate::RwSet::new) size its one allocation.
    pub fn keys(&mut self) -> Option<impl ExactSizeIterator<Item = Key> + Clone + 'a> {
        let len = usize::try_from(self.u64()?).ok()?;
        if len > self.remaining() / 8 {
            return None; // each key is 8 bytes; cheap bound check
        }
        let raw = self.take(8 * len)?;
        Some(
            raw.chunks_exact(8)
                .map(|key| Key(u64::from_le_bytes(key.try_into().expect("8")))),
        )
    }

    /// Reads a write-set in the layout of [`encode_writes`].
    pub fn writes(&mut self) -> Option<Vec<(Key, Value)>> {
        let len = usize::try_from(self.u64()?).ok()?;
        if len > self.remaining() / 9 {
            return None; // each write is at least 9 bytes
        }
        let mut writes = Vec::with_capacity(len);
        for _ in 0..len {
            let key = Key(self.u64()?);
            writes.push((key, Value::decode(self)?));
        }
        Some(writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RwSet;

    #[test]
    fn primitives_round_trip_shape() {
        let mut out = Vec::new();
        1u8.encode(&mut out);
        2u32.encode(&mut out);
        3u64.encode(&mut out);
        (-4i64).encode(&mut out);
        assert_eq!(out.len(), 1 + 4 + 8 + 8);
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        let bytes = vec![9u8, 8, 7];
        let enc = bytes.wire_bytes();
        assert_eq!(&enc[..8], &3u64.to_le_bytes());
        assert_eq!(&enc[8..], &[9, 8, 7]);
    }

    #[test]
    fn length_prefix_prevents_concat_ambiguity() {
        // ("a", "bc") must encode differently from ("ab", "c").
        let mut one = Vec::new();
        "a".encode(&mut one);
        "bc".encode(&mut one);
        let mut two = Vec::new();
        "ab".encode(&mut two);
        "c".encode(&mut two);
        assert_ne!(one, two);
    }

    #[test]
    fn key_sets_are_canonical() {
        let a = RwSet::read_only([Key(3), Key(1), Key(2)]);
        let b = RwSet::read_only([Key(1), Key(2), Key(3)]);
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        encode_key_set(a.reads(), &mut ea);
        encode_key_set(b.reads(), &mut eb);
        assert_eq!(ea, eb);

        // A list that arrives unsorted and duplicated decodes as sent,
        // becomes the same set, and re-encodes to the canonical bytes.
        let sent = [Key(3), Key(1), Key(3), Key(2), Key(1)];
        let mut raw = Vec::new();
        encode_key_set(&sent, &mut raw);
        assert_ne!(raw, eb);
        let mut reader = Reader::new(&raw);
        let arrived = reader.key_set().expect("well-formed list");
        assert!(reader.is_exhausted());
        assert_eq!(arrived, sent);
        let decoded = RwSet::read_only(arrived);
        assert_eq!(decoded, b);
        let mut again = Vec::new();
        encode_key_set(decoded.reads(), &mut again);
        assert_eq!(again, eb);
    }
}
