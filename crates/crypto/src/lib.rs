//! Cryptographic primitives for the ParBlockchain reproduction.
//!
//! Everything here is implemented from scratch on top of the standard
//! library: SHA-256 (validated against the NIST test vectors), HMAC-SHA256
//! and a *simulated* signature scheme.
//!
//! # Two SHA-256 compressions
//!
//! On an x86-64 CPU with the SHA extensions, every full 64-byte block of
//! an `update` or `finalize` goes through their rounds in one call
//! (`sha256rnds2`, `sha256msg1`, `sha256msg2` from `std::arch`), chosen
//! at run time with `is_x86_feature_detected!`. Every other CPU and
//! target takes the portable rounds as FIPS 180-4 writes them. Nothing
//! selects between the two but the CPU, and the digests are bit-identical:
//! a differential property test holds the two against each other. The
//! call into the detected rounds is the crate's one `unsafe` block, which
//! is why the crate denies `unsafe_code` instead of forbidding it.
//!
//! # Simulated signatures
//!
//! The paper assumes pairwise-authenticated channels and signed client /
//! orderer / executor messages. A real deployment would use asymmetric
//! signatures (e.g. ECDSA); this reproduction substitutes HMAC-SHA256 under
//! a shared in-process [`KeyRegistry`], which provides the same
//! authenticity property inside one simulation while costing a comparable
//! per-message hash pass (see DESIGN.md §3).
//!
//! # Examples
//!
//! ```
//! use parblock_crypto::{sha256, KeyRegistry, SignerId};
//!
//! let digest = sha256(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//!
//! let registry = KeyRegistry::deterministic(4);
//! let sig = registry.sign(SignerId(2), b"hello");
//! assert!(registry.verify(SignerId(2), b"hello", &sig));
//! assert!(!registry.verify(SignerId(1), b"hello", &sig));
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod hmac;
mod registry;
mod sha256;

pub use hmac::hmac_sha256;
pub use registry::{KeyRegistry, SecretKey, Signature, SignerId};
pub use sha256::{sha256, Sha256};

use parblock_types::wire::Wire;
use parblock_types::Hash32;

/// Hashes a [`Wire`]-encodable value (canonical bytes, then SHA-256).
///
/// The bytes go into one buffer sized by [`Wire::wire_len_hint`], which a
/// block and a transaction give exactly, so a block hash allocates once
/// and never regrows.
///
/// # Examples
///
/// ```
/// use parblock_crypto::hash_wire;
/// use parblock_types::{AppId, ClientId, RwSet, Transaction};
///
/// let tx = Transaction::new(AppId(0), ClientId(1), 0, RwSet::default(), vec![]);
/// assert_eq!(hash_wire(&tx), hash_wire(&tx.clone()));
/// ```
pub fn hash_wire<T: Wire + ?Sized>(value: &T) -> Hash32 {
    sha256(&value.wire_bytes())
}
