//! The workspace itself must stay lint-clean: the two token rules run
//! inside plain `cargo test`, so a violation fails the suite (clippy's
//! `disallowed-methods` covers clocks, threads and file I/O).

use std::path::Path;

#[test]
fn workspace_has_no_lint_violations() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = parblock_lint::find_workspace_root(here).expect("workspace root");
    let report = parblock_lint::run_workspace(&root).expect("lint run");
    assert!(
        report.is_clean(),
        "workspace lint violations:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}
