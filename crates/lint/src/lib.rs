//! `parblock_lint` — the workspace's two token rules (DESIGN.md §12).
//!
//! Clippy's `disallowed-methods` (the root `clippy.toml`) gates wall
//! clocks, thread spawns and file I/O, and the executors abort any
//! execution that reads or writes outside its declared read/write set.
//! What is left here is what neither can say, because it depends on the
//! *name* of the enclosing function ([`determinism`]):
//!
//! 1. **`unordered-iter`**: `HashMap`/`HashSet` iteration inside a
//!    digest, wire or graph-emission function — the precondition of
//!    bit-reproducible digests.
//! 2. **`hot-path-alloc`**: per-item heap allocation (and `Debug`
//!    renderings) inside encode / digest / multicast functions, and
//!    encoding a value only to measure it.
//!
//! Violations are errors unless suppressed by an inline
//! `// lint:allow(<rule>) — <justification>` marker; markers are
//! re-verified on every run ([`allow`]), so a suppression that stops
//! suppressing becomes an error itself.
//!
//! The crate is std-only by design: a hand-rolled lexer ([`lexer`])
//! keeps the gate dependency-free, so it can never be broken by the
//! code it gates.

pub mod allow;
pub mod determinism;
pub mod lexer;
pub mod report;

use std::path::{Path, PathBuf};

pub use report::{Finding, Report, Rule};

/// How a file participates in analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Not analyzed at all: build output, vendored shims, and the lint
    /// crate's own known-bad fixtures.
    Skip,
    /// Integration tests, benches, and examples: exempt from every
    /// rule (they are not on any digest or hot path).
    TestLike,
    /// Production code: all rules apply (with `#[cfg(test)]` items
    /// stripped first).
    Product,
}

/// Classifies a workspace-relative path (with `/` separators).
#[must_use]
pub fn classify(path: &str) -> FileClass {
    if path.starts_with("target/")
        || path.contains("/target/")
        || path.starts_with("shims/")
        || path.contains("tests/fixtures/")
    {
        return FileClass::Skip;
    }
    if path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.ends_with("build.rs")
    {
        return FileClass::TestLike;
    }
    FileClass::Product
}

/// Lints one source file given its workspace-relative `path` and raw
/// `src`, applying inline `lint:allow` markers. This is the unit the
/// fixture tests drive directly; [`run_workspace`] calls it per file.
///
/// Returns `(findings, suppressions_honored)`.
#[must_use]
pub fn lint_source(path: &str, src: &str) -> (Vec<Finding>, usize) {
    match classify(path) {
        FileClass::Skip | FileClass::TestLike => (Vec::new(), 0),
        FileClass::Product => {
            let toks = lexer::strip_cfg_test(&lexer::tokenize(src));
            let findings = determinism::check_file(path, &toks);
            let markers = allow::parse_markers(src);
            let mut suppressions = 0usize;
            let findings = allow::apply_markers(path, &markers, findings, &mut suppressions);
            (findings, suppressions)
        }
    }
}

/// Runs both rules over the workspace rooted at `root`. Findings come
/// back sorted by `(path, line, rule)`.
///
/// # Errors
/// Propagates I/O errors from walking the tree or reading sources.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    for rel in &files {
        if classify(rel) != FileClass::Product {
            continue;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the linter must read the sources it analyzes"
        )]
        let src = std::fs::read_to_string(root.join(rel))?;
        let (file_findings, suppressed) = lint_source(rel, &src);
        report.findings.extend(file_findings);
        report.suppressions += suppressed;
        report.files_scanned += 1;
    }
    report.findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    Ok(report)
}

/// Locates the workspace root by walking up from `start` to the first
/// directory containing a `Cargo.toml` with a `[workspace]` table.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "workspace-root discovery reads manifests"
)]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Recursively collects `.rs` files as workspace-relative paths with
/// `/` separators, in a deterministic (sorted) order.
#[expect(
    clippy::disallowed_methods,
    reason = "the linter must walk the tree it analyzes"
)]
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        entries.push(entry?.path());
    }
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_tiers() {
        assert_eq!(classify("crates/core/src/driver.rs"), FileClass::Product);
        assert_eq!(classify("crates/ledger/tests/mvcc_props.rs"), FileClass::TestLike);
        assert_eq!(classify("shims/rand/src/lib.rs"), FileClass::Skip);
        assert_eq!(
            classify("crates/lint/tests/fixtures/bad_unordered_iter.rs"),
            FileClass::Skip
        );
        assert_eq!(classify("target/debug/build/x.rs"), FileClass::Skip);
    }

    #[test]
    fn lint_source_end_to_end_with_marker() {
        let bad = "fn encode(v: &V) -> String { v.name.to_string() }";
        let (findings, n) = lint_source("crates/core/src/x.rs", bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(n, 0);

        let allowed = "fn encode(v: &V) -> String {\n    \
             // lint:allow(hot-path-alloc) — a frozen legacy preimage\n    \
             v.name.to_string()\n}";
        let (findings, n) = lint_source("crates/core/src/x.rs", allowed);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(n, 1);
    }

    #[test]
    fn test_like_files_are_exempt() {
        let bad = "fn digest(m: &HashMap<u64, u64>) -> String { format!(\"{:?}\", m.iter()) }";
        assert!(!lint_source("crates/core/src/x.rs", bad).0.is_empty());
        let (findings, _) = lint_source("crates/core/tests/e2e.rs", bad);
        assert!(findings.is_empty());
    }
}
