//! Suppression machinery: inline `lint:allow` markers, re-verified, so
//! a suppression that no longer suppresses anything is itself an error.
//!
//! Marker grammar (inside a `//` comment, on the violating line or
//! above it — blank lines and continuation comments between the marker
//! and the code it covers are skipped):
//!
//! ```text
//! // lint:allow(unordered-iter) — digest_entries sorts by key before hashing
//! // lint:allow(unordered-iter, hot-path-alloc) -- justification covers both
//! ```
//!
//! The justification (after `—`, `--`, or `:`) is mandatory: an
//! unjustified marker is reported as `stale-allow` even if it would
//! otherwise suppress a finding.

use crate::report::{Finding, Rule};

/// One parsed inline marker.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// The rules this marker suppresses.
    pub rules: Vec<Rule>,
    /// 1-indexed line of the marker comment.
    pub line: u32,
    /// 1-indexed line of the first *code* line at or below the marker —
    /// the line the marker covers besides its own. Blank lines and
    /// further `//` comment lines between marker and code are skipped,
    /// so a justification may wrap onto continuation comments.
    pub target: u32,
    /// The written justification (may be empty — then the marker is
    /// reported stale).
    pub justification: String,
    /// Unparseable rule ids found in the marker, reported verbatim.
    pub unknown: Vec<String>,
}

/// Extracts every `lint:allow` marker from source text. Markers live
/// in plain `//` comments (which the lexer discards, so this parses
/// the comment list instead); doc comments (`///`, `//!`) are skipped
/// so that *documentation about* markers never registers as one, and
/// marker-shaped text inside string literals is ignored.
#[must_use]
pub fn parse_markers(src: &str) -> Vec<AllowMarker> {
    let lines: Vec<&str> = src.lines().collect();
    let mut markers = Vec::new();
    for (line_no, comment) in crate::lexer::line_comments(src) {
        if comment.starts_with("///") || comment.starts_with("//!") {
            continue;
        }
        let Some(at) = comment.find("lint:allow(") else {
            continue;
        };
        let rest = &comment[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let mut rules = Vec::new();
        let mut unknown = Vec::new();
        for id in rest[..close].split(',') {
            let id = id.trim();
            if id.is_empty() {
                continue;
            }
            match Rule::from_id(id) {
                Some(rule) => rules.push(rule),
                None => unknown.push(id.to_string()),
            }
        }
        let after = rest[close + 1..].trim_start();
        let justification = after
            .strip_prefix('—')
            .or_else(|| after.strip_prefix("--"))
            .or_else(|| after.strip_prefix(':'))
            .unwrap_or("")
            .trim()
            .to_string();
        let mut target = line_no + 1;
        while lines
            .get(target as usize - 1)
            .map(|raw| raw.trim())
            .is_some_and(|t| t.is_empty() || t.starts_with("//"))
        {
            target += 1;
        }
        markers.push(AllowMarker {
            rules,
            line: line_no,
            target,
            justification,
            unknown,
        });
    }
    markers
}

/// Applies inline markers to `findings`: a marker suppresses findings
/// of its rules on its own line or the next code line. Returns the
/// surviving findings plus `stale-allow` findings for markers that are
/// unjustified, name unknown rules, or suppress nothing. The number of
/// suppressed findings is added to `*suppressions`.
#[must_use]
pub fn apply_markers(
    path: &str,
    markers: &[AllowMarker],
    findings: Vec<Finding>,
    suppressions: &mut usize,
) -> Vec<Finding> {
    let mut used = vec![false; markers.len()];
    let mut out: Vec<Finding> = Vec::with_capacity(findings.len());
    for finding in findings {
        let suppressed = markers.iter().enumerate().any(|(m, marker)| {
            let covers_line =
                finding.line == marker.line || finding.line == marker.target;
            let covers_rule = marker.rules.contains(&finding.rule);
            if covers_line && covers_rule {
                used[m] = true;
            }
            covers_line && covers_rule && !marker.justification.is_empty()
        });
        if suppressed {
            *suppressions += 1;
        } else {
            out.push(finding);
        }
    }
    for (m, marker) in markers.iter().enumerate() {
        for id in &marker.unknown {
            out.push(Finding::new(
                Rule::StaleAllow,
                path,
                marker.line,
                format!("lint:allow names unknown rule `{id}`"),
            ));
        }
        if marker.rules.is_empty() && marker.unknown.is_empty() {
            out.push(Finding::new(
                Rule::StaleAllow,
                path,
                marker.line,
                "lint:allow names no rule",
            ));
            continue;
        }
        if !marker.rules.is_empty() && marker.justification.is_empty() {
            out.push(Finding::new(
                Rule::StaleAllow,
                path,
                marker.line,
                "lint:allow carries no justification (write `— <why>` after the rule list)",
            ));
        } else if !marker.rules.is_empty() && !used[m] {
            out.push(Finding::new(
                Rule::StaleAllow,
                path,
                marker.line,
                format!(
                    "stale lint:allow({}): nothing on this or the next code line violates it",
                    marker
                        .rules
                        .iter()
                        .map(|r| r.id())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_parse_rules_and_justification() {
        let src = "let x = 1; // lint:allow(unordered-iter, hot-path-alloc) — sorted on purpose\n";
        let markers = parse_markers(src);
        assert_eq!(markers.len(), 1);
        assert_eq!(markers[0].rules, vec![Rule::UnorderedIter, Rule::HotPathAlloc]);
        assert_eq!(markers[0].justification, "sorted on purpose");
    }

    #[test]
    fn marker_suppresses_same_and_next_line() {
        let src = "// lint:allow(unordered-iter) — intended\ncall();\n";
        let markers = parse_markers(src);
        let mut n = 0;
        let out = apply_markers(
            "f.rs",
            &markers,
            vec![Finding::new(Rule::UnorderedIter, "f.rs", 2, "x")],
            &mut n,
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(n, 1);
    }

    #[test]
    fn marker_skips_continuation_comments_and_blank_lines() {
        let src = "// lint:allow(unordered-iter) — a justification that\n// wraps onto a second comment line\n\ncall();\n";
        let markers = parse_markers(src);
        assert_eq!(markers[0].target, 4);
        let mut n = 0;
        let out = apply_markers(
            "f.rs",
            &markers,
            vec![Finding::new(Rule::UnorderedIter, "f.rs", 4, "x")],
            &mut n,
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(n, 1);
    }

    #[test]
    fn unjustified_marker_is_stale_even_when_matching() {
        let src = "// lint:allow(unordered-iter)\ncall();\n";
        let markers = parse_markers(src);
        let mut n = 0;
        let out = apply_markers(
            "f.rs",
            &markers,
            vec![Finding::new(Rule::UnorderedIter, "f.rs", 2, "x")],
            &mut n,
        );
        // The original finding survives AND the marker is reported.
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|f| f.rule == Rule::StaleAllow));
        assert!(out.iter().any(|f| f.rule == Rule::UnorderedIter));
    }

    #[test]
    fn marker_without_match_is_stale() {
        let src = "// lint:allow(unordered-iter) — why\nclean();\n";
        let markers = parse_markers(src);
        let mut n = 0;
        let out = apply_markers("f.rs", &markers, vec![], &mut n);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::StaleAllow);
        assert_eq!(out[0].line, 1);
    }
}
