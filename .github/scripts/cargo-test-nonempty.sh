#!/usr/bin/env bash
# Runs `cargo test --release -q <args>` and fails when it ran no test.
#
# A test-name filter that matches nothing still exits 0, so without this
# check a renamed test would drop out of the determinism matrix silently.
#
#   .github/scripts/cargo-test-nonempty.sh -p gtl-core never_firing_token_is_invisible
set -euo pipefail
log="$(mktemp)"
status=0
cargo test --release -q "$@" 2>&1 | tee "$log" || status=$?
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
ran="$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")"
rm -f "$log"
if [ "$ran" -eq 0 ]; then
  echo "error: \`cargo test $*\` ran no test" >&2
  exit 1
fi
