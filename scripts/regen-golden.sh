#!/bin/sh
# Regenerates the golden files under tests/golden/ from the frozen golden
# recipe in tests/src/lib.rs: the search outcome, the random-search
# outcome, and the search's stripped trace log. Run
# this after an intentional behaviour change invalidates the
# golden-snapshot suite, then commit the updated files alongside the
# change that caused it.
set -eu

cd "$(dirname "$0")/.."

cargo test -q --offline -p muffin-integration-tests --test golden_snapshot \
    -- --ignored regenerate_golden_snapshot

echo "regen-golden: tests/golden/*.json refreshed"
