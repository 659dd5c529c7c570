//! Values stored in the blockchain state.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::wire::{self, Wire};

/// A value stored under a [`Key`](crate::Key) in the blockchain state.
///
/// The accounting application of §V stores integer balances; other
/// contracts may store text or raw bytes.
///
/// # Examples
///
/// ```
/// use parblock_types::Value;
///
/// let balance = Value::Int(100);
/// assert_eq!(balance.as_int(), Some(100));
/// assert_eq!(Value::Text("ok".into()).as_int(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Value {
    /// The absent / deleted value.
    #[default]
    Unit,
    /// A signed integer (account balances, counters).
    Int(i64),
    /// A UTF-8 string.
    Text(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// Returns the integer content, if this is an [`Value::Int`].
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the byte content, if this is a [`Value::Bytes`].
    #[must_use]
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns `true` for [`Value::Unit`].
    #[must_use]
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }

    /// Decodes a value from a [`Reader`](wire::Reader) positioned at a
    /// `Value::encode` boundary. Returns `None` on malformed input
    /// (unknown tag, truncation, invalid UTF-8).
    #[must_use]
    pub fn decode(reader: &mut wire::Reader<'_>) -> Option<Self> {
        match reader.u8()? {
            0 => Some(Value::Unit),
            1 => Some(Value::Int(reader.i64()?)),
            2 => {
                let bytes = reader.bytes()?;
                Some(Value::Text(String::from_utf8(bytes.to_vec()).ok()?))
            }
            3 => Some(Value::Bytes(reader.bytes()?.to_vec())),
            _ => None,
        }
    }
}

impl Wire for Value {
    /// Tagged encoding: `0` unit, `1` int, `2` text, `3` bytes. Durable
    /// stores (WAL records, state checkpoints) rely on this round-tripping
    /// through [`Value::decode`].
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Unit => 0u8.encode(out),
            Value::Int(i) => {
                1u8.encode(out);
                i.encode(out);
            }
            Value::Text(s) => {
                2u8.encode(out);
                s.as_str().encode(out);
            }
            Value::Bytes(b) => {
                3u8.encode(out);
                b.encode(out);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "0x{}", hex(b)),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::from(vec![1u8]).as_bytes(), Some(&[1u8][..]));
        assert!(Value::Unit.is_unit());
        assert!(Value::default().is_unit());
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            Value::Unit,
            Value::Int(-3),
            Value::from("x"),
            Value::from(vec![0xab_u8]),
        ] {
            assert!(!v.to_string().is_empty());
        }
        assert_eq!(Value::from(vec![0xab_u8]).to_string(), "0xab");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(String::from("s")), Value::Text("s".into()));
    }

    #[test]
    fn wire_round_trip_all_variants() {
        for v in [
            Value::Unit,
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Text(String::new()),
            Value::Text("héllo".into()),
            Value::Bytes(vec![]),
            Value::Bytes(vec![0xff; 100]),
        ] {
            let bytes = v.wire_bytes();
            let mut reader = crate::wire::Reader::new(&bytes);
            assert_eq!(Value::decode(&mut reader), Some(v.clone()), "{v:?}");
            assert!(reader.is_exhausted(), "{v:?} left trailing bytes");
        }
    }

    #[test]
    fn decode_rejects_unknown_tag_and_truncation() {
        let mut reader = crate::wire::Reader::new(&[9]);
        assert_eq!(Value::decode(&mut reader), None);
        let bytes = Value::Int(7).wire_bytes();
        for cut in 0..bytes.len() {
            let mut reader = crate::wire::Reader::new(&bytes[..cut]);
            assert_eq!(Value::decode(&mut reader), None, "cut {cut}");
        }
        // Invalid UTF-8 under the text tag.
        let mut bad = vec![2u8];
        vec![0xffu8, 0xfe].encode(&mut bad);
        let mut reader = crate::wire::Reader::new(&bad);
        assert_eq!(Value::decode(&mut reader), None);
    }
}
