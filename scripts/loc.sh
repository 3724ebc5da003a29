#!/usr/bin/env sh
# Prints the size of the workspace's library and binary code, the two
# numbers each change reports before and after:
#
# - non-test lines: every line of every `crates/*/src/**/*.rs` file up to
#   that file's first `#[cfg(test)]` line;
# - `pub fn` items per crate, counted the same way.
#
# Informational only, never a gate. Run from the repository root:
#
#   sh scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

non_test='FNR == 1 { s = 0 } /^#\[cfg\(test\)\]/ { s = 1 }'

printf 'non-test lines: '
# shellcheck disable=SC2046 # one argument per source file
awk "$non_test !s { n++ } END { print n }" $(find crates -path '*/src/*.rs')

echo 'pub fn per crate (non-test code):'
for dir in crates/*/; do
    crate=$(basename "$dir")
    # shellcheck disable=SC2046
    count=$(awk "$non_test !s && /^[[:space:]]*pub fn / { n++ } END { print n + 0 }" \
        $(find "$dir" -path '*/src/*.rs'))
    printf '  %-6s %s\n' "$crate" "$count"
done
