//! HMAC-SHA256 (RFC 2104).

use parblock_types::Hash32;

use crate::sha256::{sha256, Sha256};

const BLOCK_LEN: usize = 64;

/// Computes HMAC-SHA256 of `message` under `key`.
///
/// # Examples
///
/// ```
/// use parblock_crypto::hmac_sha256;
///
/// // RFC 4231 test case 2.
/// let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(
///     mac.to_hex(),
///     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
/// );
/// ```
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Hash32 {
    HmacKey::new(key).mac(&[message])
}

/// An HMAC-SHA256 key with both pads already hashed: the SHA-256 states
/// after the inner (`key ^ 0x36`) and outer (`key ^ 0x5c`) blocks. Each
/// MAC clones them, which saves the two compressions a fresh
/// [`hmac_sha256`] spends on the pads.
#[derive(Clone)]
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacKey {
    /// Redacted: the pad states stand in for the key itself.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacKey(<redacted>)")
    }
}

impl HmacKey {
    pub(crate) fn new(key: &[u8]) -> Self {
        // Keys longer than the block size are hashed first.
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..32].copy_from_slice(&sha256(key).0);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        HmacKey { inner, outer }
    }

    /// The MAC of the concatenation of `parts`.
    pub(crate) fn mac(&self, parts: &[&[u8]]) -> Hash32 {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize().0);
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4231 test vectors.
    #[test]
    fn rfc4231_vectors() {
        // Case 1.
        let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            mac.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Case 3: 50 bytes of 0xdd under 20-byte 0xaa key.
        let mac = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            mac.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
        // Case 6: key longer than the block size.
        let mac = hmac_sha256(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            mac.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_give_different_macs() {
        let m = b"message";
        assert_ne!(hmac_sha256(b"k1", m), hmac_sha256(b"k2", m));
    }

    #[test]
    fn different_messages_give_different_macs() {
        assert_ne!(hmac_sha256(b"k", b"a"), hmac_sha256(b"k", b"b"));
    }
}
