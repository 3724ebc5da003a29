#!/usr/bin/env sh
# Dangling-link checker for the repository's markdown documentation.
#
# Walks a fixed list of documentation files, extracts every inline
# markdown link target, and fails if a *relative* target (after dropping
# any #anchor) does not exist on disk, resolved against the linking
# file's directory. External links (http/https/mailto) and pure-anchor
# links are ignored — this is an offline, std-tools-only check (grep +
# sed), safe for the hermetic CI gate.
#
#   sh scripts/check-doc-links.sh
set -eu

cd "$(dirname "$0")/.."

DOCS="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md \
      docs/OPERATIONS.md docs/PAPER_MAP.md docs/SCENARIOS.md"

status=0
for doc in $DOCS; do
    if [ ! -f "$doc" ]; then
        echo "ERROR: documentation file is missing: $doc" >&2
        status=1
        continue
    fi
    dir=$(dirname "$doc")
    # Every "](target)" occurrence, one per line (grep -o splits
    # multiple links on the same line).
    links=$(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//') || continue
    # Split on newlines only: link targets never contain newlines, but
    # guarding against spaces keeps the loop honest.
    IFS='
'
    for link in $links; do
        case "$link" in
            http://* | https://* | mailto:* | "#"*) continue ;;
        esac
        target=${link%%#*}
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ]; then
            echo "ERROR: $doc links to a missing file: $link" >&2
            status=1
        fi
    done
    unset IFS
done

# Cross-document section references ("docs/OPERATIONS.md §11", "DESIGN.md
# §13") are plain text, not links, so the link walk above can't see them
# rot. Verify that every "<doc> §N" reference points at a real "## N."
# heading in the referenced file.
for doc in $DOCS; do
    [ -f "$doc" ] || continue
    refs=$(grep -ohE '(docs/)?(OPERATIONS|DESIGN|SCENARIOS)\.md[[:space:]]§[0-9]+' "$doc" \
        | sed 's/[[:space:]]§/ /') || continue
    IFS='
'
    for ref in $refs; do
        file=${ref% *}
        section=${ref##* }
        case "$file" in
            OPERATIONS.md | SCENARIOS.md) file="docs/$file" ;;
        esac
        if ! grep -q "^## $section\." "$file"; then
            echo "ERROR: $doc references $file §$section, which has no '## $section.' heading" >&2
            status=1
        fi
    done
    unset IFS
done

if [ "$status" -eq 0 ]; then
    echo "doc links: all relative links and section references resolve"
fi
exit "$status"
