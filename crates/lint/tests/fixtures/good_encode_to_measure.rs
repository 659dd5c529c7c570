//@ path: crates/core/src/fixture_encode_to_measure_ok.rs
//@ suppressions: 0
// Known-good: the length comes from the field widths, and bytes that
// are encoded are encoded because they are used.

pub fn push(pending_bytes: &mut usize, tx: &Transaction) {
    *pending_bytes += tx.encoded_len();
}

pub fn sign_request(keys: &KeyRegistry, signer: SignerId, tx: &Transaction) -> Signature {
    keys.sign(signer, &tx.wire_bytes())
}

pub fn frame(tx: &Transaction, out: &mut Vec<u8>) {
    let bytes = tx.wire_bytes();
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&bytes);
}

#[cfg(test)]
mod tests {
    // Test code may cross-check the arithmetic against a real encode.
    #[test]
    fn encoded_len_matches() {
        assert_eq!(sample().encoded_len(), sample().wire_bytes().len());
    }
}
