//! A simulated signature scheme backed by a shared key registry.
//!
//! See the crate-level documentation for why HMAC-based signatures are an
//! acceptable substitution in this reproduction.

use std::fmt;
use std::sync::Arc;

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
/// The key table is fixed when the registry is built and never locked:
/// cloning shares it behind an `Arc`, so a single registry can be handed
/// to every node of a simulated cluster and every thread reads it as it
/// is. A key is held with its HMAC pads already hashed, so signing and
/// verifying hash only the signer tag and the message.
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
    /// Indexed by signer; `None` where no key was given.
    keys: Arc<[Option<HmacKey>]>,
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
        Self::from_keys((0..n).map(|i| {
            let digest = hmac_sha256(b"parblockchain-sim-key", &i.to_le_bytes());
            (SignerId(i), SecretKey(digest.0))
        }))
    }

    /// Creates a registry holding `keys`; a later key for the same
    /// signer replaces an earlier one.
    #[must_use]
    pub fn from_keys(keys: impl IntoIterator<Item = (SignerId, SecretKey)>) -> Self {
        let mut table: Vec<Option<HmacKey>> = Vec::new();
        for (signer, key) in keys {
            let idx = signer.0 as usize;
            if table.len() <= idx {
                table.resize(idx + 1, None);
            }
            table[idx] = Some(HmacKey::new(&key.0));
        }
        KeyRegistry { keys: table.into() }
    }

    /// Number of registered signers (highest index + 1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when no signer is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.iter().all(Option::is_none)
    }

    /// The key of `signer`, if it has one.
    fn key(&self, signer: SignerId) -> Option<&HmacKey> {
        self.keys.get(signer.0 as usize).and_then(Option::as_ref)
    }

    /// Signs `message` as `signer`.
    ///
    /// # Panics
    ///
    /// Panics if `signer` has no registered key — in the simulation this is
    /// a configuration bug, not a runtime condition.
    #[must_use]
    pub fn sign(&self, signer: SignerId, message: &[u8]) -> Signature {
        let key = self
            .key(signer)
            .unwrap_or_else(|| panic!("no key registered for signer {signer}"));
        Signature(key.mac(&[&signer.0.to_le_bytes(), message]).0)
    }

    /// Verifies that `sig` is `signer`'s signature over `message`.
    ///
    /// Returns `false` (rather than erroring) for unknown signers, matching
    /// how a verifier treats an unknown public key.
    #[must_use]
    pub fn verify(&self, signer: SignerId, message: &[u8], sig: &Signature) -> bool {
        let Some(key) = self.key(signer) else {
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
        let reg = KeyRegistry::from_keys([(SignerId(0), key)]);
        assert!(format!("{reg:?}").contains("HmacKey(<redacted>)"));
    }

    #[test]
    fn len_and_is_empty() {
        assert!(KeyRegistry::new().is_empty());
        assert!(KeyRegistry::from_keys([]).is_empty());
        let reg = KeyRegistry::from_keys([(SignerId(5), SecretKey([1; 32]))]);
        assert!(!reg.is_empty());
        assert_eq!(reg.len(), 6);
    }
}
