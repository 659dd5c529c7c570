#!/usr/bin/env bash
# Prints the workspace's non-test Rust line count, the figure a
# simplification change quotes before and after.
#
# The rule: every `.rs` file under `crates/`, `shims/` and `src/`,
# outside any `tests/` or `benches/` directory, counted up to (not
# including) its first `#[cfg(test)]` line, or whole when it has none.
# Blank lines and comments count; `examples/` and `benchmark/` do not.
#
# Usage: bash ci/loc.sh          # one number
#        bash ci/loc.sh --files  # per-file counts, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

per_file=false
if [[ "${1:-}" == "--files" ]]; then
    per_file=true
fi

total=0
while IFS= read -r file; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    total=$((total + n))
    if $per_file; then
        printf '%6d %s\n' "$n" "$file"
    fi
done < <(find crates shims src -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
    | LC_ALL=C sort)
echo "$total"
