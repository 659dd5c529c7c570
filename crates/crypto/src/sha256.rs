//! SHA-256, implemented from FIPS 180-4: portable rounds everywhere and
//! the SHA extensions' rounds on the x86-64 CPUs that have them (see the
//! crate docs).

use parblock_types::Hash32;

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use parblock_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes not yet forming a full 64-byte chunk: `buffer[..buffered]`.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Consumes the hasher and returns the digest.
    #[must_use]
    pub fn finalize(self) -> Hash32 {
        self.finalize_with(compress_blocks)
    }

    /// [`update`](Self::update) through the given compression function,
    /// which gets every full 64-byte block of one call at once.
    #[inline]
    fn update_with(&mut self, mut data: &[u8], compress: Compress) {
        self.length += data.len() as u64;
        if self.buffered > 0 {
            let take = data.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let full = data.len() - data.len() % 64;
        if full > 0 {
            compress(&mut self.state, &data[..full]);
        }
        let rest = &data[full..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// [`finalize`](Self::finalize) through the given compression function.
    #[inline]
    fn finalize_with(mut self, compress: Compress) -> Hash32 {
        let bit_len = self.length * 8;
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
        let mut tail = [0u8; 128];
        let used = self.buffered;
        tail[..used].copy_from_slice(&self.buffer[..used]);
        tail[used] = 0x80;
        let end = if used < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..end]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash32(out)
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// A compression function: runs the 64 rounds over each 64-byte block of
/// its input, in order. The input's length is a multiple of 64.
type Compress = fn(&mut [u32; 8], &[u8]);

/// The SHA extensions' rounds where the CPU has them, else the portable
/// rounds. Both give the same state bit for bit.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if x86::try_compress_blocks(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// The rounds as FIPS 180-4 writes them, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for chunk in blocks.chunks_exact(64) {
        compress(state, chunk.try_into().expect("64"));
    }
}

fn compress(state: &mut [u32; 8], chunk: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes(chunk[i * 4..(i + 1) * 4].try_into().expect("4"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The rounds on the SHA extensions (`sha256rnds2`, `sha256msg1`,
/// `sha256msg2`), chosen at run time: an x86-64 CPU without them takes
/// the portable rounds.
#[cfg(target_arch = "x86_64")]
#[expect(
    unsafe_code,
    reason = "`#[target_feature]` rounds are an `unsafe fn` before Rust 1.86; \
              they are called only after run-time detection"
)]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// Whether this CPU has every target feature [`rounds`] enables.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Runs the rounds over `blocks` and returns `true`, or leaves `state`
    /// alone and returns `false` when the CPU lacks the extensions.
    pub(super) fn try_compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        let detected = detected();
        if detected {
            // SAFETY: `rounds` enables exactly the target features
            // `detected` just found, so this CPU executes every
            // instruction in it. That is its only precondition: its loads
            // and stores stay inside `state` and each 64-byte chunk.
            unsafe { rounds(state, blocks) };
        }
        detected
    }

    /// # Safety
    ///
    /// The CPU supports `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn rounds(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Message words are big-endian: reverse the bytes of each lane.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // `sha256rnds2` keeps the state as ABEF and CDGH, A in the top
        // lane; names list lanes from the top.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let message = block.as_ptr().cast::<__m128i>();
            // The schedule, four words to a vector: while `group`'s
            // rounds run, `w[i]` holds W[16·group + 4·i ..][..4].
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(message), byte_swap),
                _mm_shuffle_epi8(_mm_loadu_si128(message.add(1)), byte_swap),
                _mm_shuffle_epi8(_mm_loadu_si128(message.add(2)), byte_swap),
                _mm_shuffle_epi8(_mm_loadu_si128(message.add(3)), byte_swap),
            ];
            for group in 0..4 {
                for (i, &four) in w.iter().enumerate() {
                    let k = _mm_loadu_si128(K.as_ptr().add(16 * group + 4 * i).cast());
                    let wk = _mm_add_epi32(four, k);
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                }
                if group < 3 {
                    for i in 0..4 {
                        // W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16].
                        let (w16, w12) = (w[i], w[(i + 1) % 4]);
                        let (w8, w4) = (w[(i + 2) % 4], w[(i + 3) % 4]);
                        let partial = _mm_add_epi32(
                            _mm_sha256msg1_epu32(w16, w12),
                            _mm_alignr_epi8(w4, w8, 4),
                        );
                        w[i] = _mm_sha256msg2_epu32(partial, w4);
                    }
                }
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// use parblock_crypto::sha256;
/// assert_eq!(
///     sha256(b"").to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
#[must_use]
pub fn sha256(data: &[u8]) -> Hash32 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST FIPS 180-4 / classic test vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(sha256(input).to_hex(), *want);
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let want = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must all be
        // distinct and deterministic.
        let mut digests = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0xaa_u8; len];
            let d1 = sha256(&data);
            let d2 = sha256(&data);
            assert_eq!(d1, d2);
            assert!(digests.insert(d1.0), "collision at length {len}");
        }
    }
}

/// Differential tests of the two compressions: the dispatching
/// [`Sha256`], the portable rounds and, where the CPU has them, the SHA
/// extensions' rounds must give the same digest and the same HMAC for
/// every message and every way of feeding it.
///
/// `cargo test -p parblock_crypto --lib differential -- --nocapture`
/// prints which rounds ran; a CPU without the extensions says that the
/// hardware half did not run rather than passing it silently.
#[cfg(test)]
mod differential {
    use std::sync::Once;

    use proptest::prelude::*;

    use parblock_types::Hash32;

    use super::{compress_portable, Compress, Sha256};
    use crate::{hmac_sha256, KeyRegistry, SignerId};

    /// The hardware rounds as a [`Compress`], or `None` when this CPU (or
    /// target) has none; says which, once per test.
    fn hardware(report: &Once) -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        let rounds: Option<Compress> = super::x86::detected().then_some(|state, blocks| {
            assert!(super::x86::try_compress_blocks(state, blocks));
        });
        #[cfg(not(target_arch = "x86_64"))]
        let rounds: Option<Compress> = None;
        report.call_once(|| match rounds {
            Some(_) => {
                println!("SHA-256: hardware rounds (SHA extensions) ran against the portable ones")
            }
            None => println!(
                "SHA-256: hardware rounds did NOT run (no SHA extensions on this CPU); \
                 only the portable rounds were checked"
            ),
        });
        rounds
    }

    /// The message cut at `cuts` (taken modulo its length, sorted).
    fn pieces<'a>(data: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut out = Vec::new();
        let mut prev = 0;
        for cut in cuts {
            out.push(&data[prev..cut]);
            prev = cut;
        }
        out.push(&data[prev..]);
        out
    }

    /// SHA-256 of the concatenation of `parts`, each fed in one `update`
    /// through `compress`.
    fn digest_with(compress: Compress, parts: &[&[u8]]) -> Hash32 {
        let mut h = Sha256::new();
        for part in parts {
            h.update_with(part, compress);
        }
        h.finalize_with(compress)
    }

    /// HMAC-SHA256 (RFC 2104) of the concatenation of `parts`, written out
    /// on [`digest_with`] rather than through `HmacKey`.
    fn hmac_with(compress: Compress, key: &[u8], parts: &[&[u8]]) -> Hash32 {
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..32].copy_from_slice(&digest_with(compress, &[key]).0);
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let inner_pad = block.map(|b| b ^ 0x36);
        let mut inner_parts: Vec<&[u8]> = vec![&inner_pad];
        inner_parts.extend_from_slice(parts);
        let inner = digest_with(compress, &inner_parts);
        digest_with(compress, &[&block.map(|b| b ^ 0x5c), &inner.0])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dispatching hasher, the portable rounds and the hardware
        /// rounds agree on every message of 0–2 048 bytes, fed at random
        /// split points.
        #[test]
        fn sha256_compressions_agree(
            data in proptest::collection::vec(any::<u8>(), 0..2049),
            cuts in proptest::collection::vec(0usize..2049, 0..8),
        ) {
            static REPORT: Once = Once::new();
            let parts = pieces(&data, &cuts);
            let mut dispatching = Sha256::new();
            for part in &parts {
                dispatching.update(part);
            }
            let dispatching = dispatching.finalize();
            let portable = digest_with(compress_portable, &parts);
            prop_assert_eq!(dispatching, portable);
            prop_assert_eq!(portable, digest_with(compress_portable, &[&data]));
            if let Some(rounds) = hardware(&REPORT) {
                prop_assert_eq!(digest_with(rounds, &parts), portable);
            }
        }

        /// HMAC through `KeyRegistry` (deterministic keys, then a signature
        /// over the signer tag and the message) and through `hmac_sha256`
        /// agrees with HMAC written out on either compression.
        #[test]
        fn hmac_through_the_registry_agrees(
            signer in 0u32..4,
            msg in proptest::collection::vec(any::<u8>(), 0..2049),
            key in proptest::collection::vec(any::<u8>(), 0..130),
        ) {
            static REPORT: Once = Once::new();
            let registry = KeyRegistry::deterministic(4);
            let sig = registry.sign(SignerId(signer), &msg);
            let tag = signer.to_le_bytes();
            let mut compressions = vec![compress_portable as Compress];
            compressions.extend(hardware(&REPORT));
            for compress in compressions {
                let secret = hmac_with(compress, b"parblockchain-sim-key", &[&tag]);
                prop_assert_eq!(sig.0, hmac_with(compress, &secret.0, &[&tag, &msg]).0);
                prop_assert_eq!(hmac_sha256(&key, &msg), hmac_with(compress, &key, &[&msg]));
            }
        }
    }
}
