//@ path: crates/core/src/fixture_allow.rs
//@ suppressions: 2
// Known-good: justified markers suppress, in both placements (line
// above and same line).
use std::collections::HashMap;

pub fn digest_entries(entries: &HashMap<u64, u64>) -> Vec<(u64, u64)> {
    // lint:allow(unordered-iter) — fixture: sorted by key before hashing
    let mut sorted: Vec<(u64, u64)> = entries.iter().map(|(k, v)| (*k, *v)).collect();
    sorted.sort_unstable();
    sorted
}

pub fn encode_label(label: &str) -> String {
    label.to_string() // lint:allow(hot-path-alloc) — fixture: same-line marker form
}
