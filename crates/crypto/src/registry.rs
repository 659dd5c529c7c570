//! A simulated signature scheme backed by a shared key registry.
//!
//! See the crate-level documentation for why HMAC-based signatures are an
//! acceptable substitution in this reproduction.

use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::hmac::{hmac_sha256, HmacKey};

/// Identifies a signing principal (any node or client).
///
/// The mapping from protocol-level identities (`NodeId`, `ClientId`) to
/// `SignerId` is chosen by the embedding system; keeping it a plain integer
/// avoids coupling the crypto crate to role types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignerId(pub u32);

impl fmt::Display for SignerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A secret signing key.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey(pub [u8; 32]);

impl fmt::Debug for SecretKey {
    /// Redacted debug output: never leak key material into logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

/// A signature (MAC) over a message.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; 32]);

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.0[..4].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "Signature({hex}…)")
    }
}

/// An in-process registry of signing keys, shared by all simulated nodes.
///
/// Cloning is cheap (the key table is behind an `Arc`), so a single
/// registry can be handed to every node of a simulated cluster. A key
/// is held with its HMAC pads already hashed, so signing and verifying
/// hash only the signer tag and the message.
///
/// # Examples
///
/// ```
/// use parblock_crypto::{KeyRegistry, SignerId};
///
/// let reg = KeyRegistry::deterministic(2);
/// let sig = reg.sign(SignerId(0), b"msg");
/// assert!(reg.verify(SignerId(0), b"msg", &sig));
/// assert!(!reg.verify(SignerId(0), b"other", &sig));
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    keys: Arc<RwLock<Vec<Option<HmacKey>>>>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry with `n` deterministic keys (signers `0..n`).
    ///
    /// Deterministic keys keep simulations reproducible; they are derived
    /// by hashing the signer index under a fixed domain tag.
    #[must_use]
    pub fn deterministic(n: u32) -> Self {
        let reg = Self::new();
        for i in 0..n {
            let digest = hmac_sha256(b"parblockchain-sim-key", &i.to_le_bytes());
            reg.register(SignerId(i), SecretKey(digest.0));
        }
        reg
    }

    /// Registers (or replaces) the key for `signer`.
    pub fn register(&self, signer: SignerId, key: SecretKey) {
        let mut keys = self.keys.write();
        let idx = signer.0 as usize;
        if keys.len() <= idx {
            keys.resize(idx + 1, None);
        }
        keys[idx] = Some(HmacKey::new(&key.0));
    }

    /// Number of registered signers (highest index + 1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.read().len()
    }

    /// Returns `true` when no signer is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.read().iter().all(Option::is_none)
    }

    /// Signs `message` as `signer`.
    ///
    /// # Panics
    ///
    /// Panics if `signer` has no registered key — in the simulation this is
    /// a configuration bug, not a runtime condition.
    #[must_use]
    pub fn sign(&self, signer: SignerId, message: &[u8]) -> Signature {
        let keys = self.keys.read();
        let key = keys
            .get(signer.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("no key registered for signer {signer}"));
        Signature(key.mac(&[&signer.0.to_le_bytes(), message]).0)
    }

    /// Verifies that `sig` is `signer`'s signature over `message`.
    ///
    /// Returns `false` (rather than erroring) for unknown signers, matching
    /// how a verifier treats an unknown public key.
    #[must_use]
    pub fn verify(&self, signer: SignerId, message: &[u8], sig: &Signature) -> bool {
        let keys = self.keys.read();
        let Some(key) = keys.get(signer.0 as usize).and_then(Option::as_ref) else {
            return false;
        };
        let expected = key.mac(&[&signer.0.to_le_bytes(), message]).0;
        // Constant-time comparison, as a verifier should.
        expected
            .iter()
            .zip(sig.0.iter())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let reg = KeyRegistry::deterministic(3);
        for i in 0..3 {
            let sig = reg.sign(SignerId(i), b"payload");
            assert!(reg.verify(SignerId(i), b"payload", &sig));
        }
    }

    #[test]
    fn cross_signer_verification_fails() {
        let reg = KeyRegistry::deterministic(2);
        let sig = reg.sign(SignerId(0), b"m");
        assert!(!reg.verify(SignerId(1), b"m", &sig));
    }

    #[test]
    fn tampered_message_fails() {
        let reg = KeyRegistry::deterministic(1);
        let sig = reg.sign(SignerId(0), b"m");
        assert!(!reg.verify(SignerId(0), b"m2", &sig));
    }

    #[test]
    fn unknown_signer_verifies_false_not_panic() {
        let reg = KeyRegistry::deterministic(1);
        let sig = reg.sign(SignerId(0), b"m");
        assert!(!reg.verify(SignerId(9), b"m", &sig));
    }

    #[test]
    #[should_panic(expected = "no key registered")]
    fn signing_without_key_panics() {
        let reg = KeyRegistry::new();
        let _ = reg.sign(SignerId(0), b"m");
    }

    #[test]
    fn deterministic_registries_agree() {
        let a = KeyRegistry::deterministic(4);
        let b = KeyRegistry::deterministic(4);
        let sig = a.sign(SignerId(2), b"x");
        assert!(b.verify(SignerId(2), b"x", &sig));
    }

    #[test]
    fn debug_never_prints_key_material() {
        let key = SecretKey([7; 32]);
        assert_eq!(format!("{key:?}"), "SecretKey(<redacted>)");
        let reg = KeyRegistry::new();
        reg.register(SignerId(0), key);
        assert!(format!("{reg:?}").contains("HmacKey(<redacted>)"));
    }

    #[test]
    fn len_and_is_empty() {
        let reg = KeyRegistry::new();
        assert!(reg.is_empty());
        reg.register(SignerId(5), SecretKey([1; 32]));
        assert!(!reg.is_empty());
        assert_eq!(reg.len(), 6);
    }
}
