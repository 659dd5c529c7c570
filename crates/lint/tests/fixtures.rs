//! Fixture-driven tests in the style of rustc's ui suite: each file
//! under `tests/fixtures/` declares the workspace path it pretends to
//! live at (`//@ path: …`) and annotates every expected violation with
//! `//~ <rule-id>` on the violating line (`//~^` points one line up,
//! one extra line per extra `^`). The harness asserts the *exact*
//! `(line, rule)` multiset, so a fixture that starts over- or
//! under-reporting fails loudly.

// Test code reads its fixtures from disk.
#![allow(clippy::disallowed_methods)]

use std::fs;
use std::path::Path;

use parblock_lint::{lint_source, Rule};

fn run_fixture(name: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = fs::read_to_string(dir.join(name)).expect("read fixture");

    let mut declared_path = None;
    let mut expected_suppressions = None;
    let mut expected: Vec<(u32, String)> = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        if let Some(rest) = line.trim().strip_prefix("//@ path:") {
            declared_path = Some(rest.trim().to_string());
            continue;
        }
        if let Some(rest) = line.trim().strip_prefix("//@ suppressions:") {
            expected_suppressions = Some(rest.trim().parse::<usize>().expect("count"));
            continue;
        }
        if let Some(at) = line.find("//~") {
            let rest = &line[at + 3..];
            let carets = rest.chars().take_while(|c| *c == '^').count();
            let rule_id = rest[carets..]
                .split_whitespace()
                .next()
                .unwrap_or_else(|| panic!("{name}:{line_no}: annotation names no rule"));
            assert!(
                Rule::from_id(rule_id).is_some(),
                "{name}:{line_no}: unknown rule `{rule_id}` in annotation"
            );
            expected.push((line_no - carets as u32, rule_id.to_string()));
        }
    }
    let declared_path = declared_path.expect("fixture needs a `//@ path:` directive");

    let (findings, suppressions) = lint_source(&declared_path, &src);
    let mut actual: Vec<(u32, String)> = findings
        .iter()
        .map(|f| (f.line, f.rule.id().to_string()))
        .collect();
    actual.sort();
    expected.sort();
    assert_eq!(actual, expected, "findings mismatch in {name}:\n{findings:#?}");
    if let Some(n) = expected_suppressions {
        assert_eq!(suppressions, n, "suppression count mismatch in {name}");
    }
}

#[test]
fn bad_unordered_iter() {
    run_fixture("bad_unordered_iter.rs");
}

#[test]
fn good_unordered_iter() {
    run_fixture("good_unordered_iter.rs");
}

#[test]
fn bad_hot_path_alloc() {
    run_fixture("bad_hot_path_alloc.rs");
}

#[test]
fn good_hot_path_alloc() {
    run_fixture("good_hot_path_alloc.rs");
}

#[test]
fn bad_encode_to_measure() {
    run_fixture("bad_encode_to_measure.rs");
}

#[test]
fn good_encode_to_measure() {
    run_fixture("good_encode_to_measure.rs");
}

#[test]
fn allow_ok() {
    run_fixture("allow_ok.rs");
}

#[test]
fn allow_stale() {
    run_fixture("allow_stale.rs");
}
