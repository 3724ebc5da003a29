#!/usr/bin/env sh
# Prints the size of the workspace's library and binary code, the two
# numbers each change reports before and after, and the `pub fn`s no
# code reaches:
#
# - non-test lines: every line of every `crates/*/src/**/*.rs` file up to
#   that file's first `#[cfg(test)]` line;
# - `pub fn` items per crate, counted the same way;
# - unreachable `pub fn`s: each non-test `pub fn` under `crates/*/src`
#   whose name appears as a whole word in no code line of `crates/`,
#   `examples/`, `e2e-bench/` or `tests/` other than a definition
#   (`fn <name>`). A code line is a non-test line that is not a `//`
#   comment, so a doc example or a comment is no use. Every file under a
#   `tests/` directory counts as code: an integration test exercises the
#   public API as a downstream user would, while a `#[cfg(test)]` module
#   inside `src/` does not. A name that another item shares (`len`,
#   `new`) is not listed. `muffin-check` is exempt: it is the test
#   harness, so only tests call it.
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

echo 'unreachable pub fn (no code reference in crates/, examples/, e2e-bench/, tests/):'
# One pass: every scanned code line adds its words to `used`, after each
# `fn <name>` is blanked so that no definition counts as a use.
# shellcheck disable=SC2046
awk "$non_test
    !s && /^[[:space:]]*pub fn / && FILENAME ~ /^crates\/[^\/]+\/src\// &&
        FILENAME !~ /^crates\/check\// {
        name = \$0
        sub(/^[[:space:]]*pub fn /, \"\", name)
        sub(/[^A-Za-z0-9_].*/, \"\", name)
        defs[++n] = FILENAME \":\" FNR \" \" name
        names[n] = name
    }
    !s && !/^[[:space:]]*\/\// {
        line = \$0
        gsub(/(^|[^A-Za-z0-9_])fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/, \" \", line)
        k = split(line, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= k; i++) used[words[i]] = 1
    }
    END {
        for (i = 1; i <= n; i++) if (!(names[i] in used)) { print \"  \" defs[i]; found = 1 }
        if (!found) print \"  (none)\"
    }" $(find crates examples e2e-bench tests -name '*.rs' | sort)
