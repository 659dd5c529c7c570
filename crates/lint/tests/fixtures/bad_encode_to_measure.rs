//@ path: crates/core/src/fixture_encode_to_measure.rs
// Known-bad: encoding a value only to learn how long the encoding is.
// `Transaction::encoded_len` did this once per transaction per orderer
// in `BlockCutter::push`: one allocation and a full encode to add a
// number to `pending_bytes`. The function's name does not matter; the
// pattern is flagged wherever product code uses it.

pub fn push(pending_bytes: &mut usize, tx: &Transaction) {
    *pending_bytes += tx.wire_bytes().len(); //~ hot-path-alloc
}

pub fn block_size(block: &Block) -> usize {
    block
        .wire_bytes() //~ hot-path-alloc
        .len()
}
