//! Rule identifiers, findings, and the text renderer.

use std::fmt;

/// The token rules (DESIGN.md §12). Each has a stable kebab-case id
/// used in diagnostics and inline `lint:allow(<rule>)` markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `HashMap`/`HashSet` iteration inside digest, wire encode/decode,
    /// or dependency-graph-emission functions.
    UnorderedIter,
    /// `format!` / `.to_string()` / `.clone()` inside encode, digest,
    /// or multicast functions — per-item heap allocation on the hot
    /// path, and (for `format!`) a `Debug` rendering leaking into a
    /// wire or digest format.
    HotPathAlloc,
    /// An allow marker that suppresses nothing (or carries no
    /// justification).
    StaleAllow,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [Rule; 3] = [Rule::UnorderedIter, Rule::HotPathAlloc, Rule::StaleAllow];

impl Rule {
    /// The stable kebab-case id.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::StaleAllow => "stale-allow",
        }
    }

    /// Parses a kebab-case id back into a rule.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation: a rule, a location, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// What went wrong, specific enough to act on.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(rule: Rule, path: &str, line: u32, message: impl Into<String>) -> Self {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The outcome of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving findings, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files analyzed (after skips).
    pub files_scanned: usize,
    /// Number of findings suppressed by inline markers.
    pub suppressions: usize,
}

impl Report {
    /// `true` when the workspace is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} suppression(s) honored, {} violation(s)\n",
            self.files_scanned,
            self.suppressions,
            self.findings.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("nope"), None);
        // Clippy's `disallowed-methods` owns these now: a leftover marker
        // naming one is reported as an unknown rule.
        assert_eq!(Rule::from_id("wall-clock"), None);
    }
}
