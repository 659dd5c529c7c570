//@ path: crates/core/src/fixture_stale.rs
// Known-bad: markers that suppress nothing, carry no justification,
// or name unknown rules are themselves `stale-allow` violations.
pub fn encode_quiet() -> u32 {
    // lint:allow(hot-path-alloc) — nothing here actually allocates
    //~^ stale-allow
    41 + 1
}

pub fn encode_unjustified(label: &str) -> String {
    // lint:allow(hot-path-alloc)
    //~^ stale-allow
    label.to_string() //~ hot-path-alloc
}

pub fn unknown_rule() -> u32 {
    // lint:allow(no-such-rule) — typo'd rule id
    //~^ stale-allow
    7
}
