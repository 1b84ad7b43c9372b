#!/usr/bin/env bash
# Runs a filtered `cargo test` (or `cargo miri test`) command and fails if
# any filter matches no test. libtest exits 0 when a filter matches
# nothing, so without this check a renamed test silently empties a
# sanitizer step.
#
# Usage: cargo-test-filtered.sh <cargo test command and args...> -- <filter>...
set -euo pipefail

cmd=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  cmd+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 <cargo test command and args...> -- <filter>..." >&2
  exit 2
fi
shift

for filter in "$@"; do
  list=$("${cmd[@]}" -- --list "$filter")
  count=$(grep -c ': test$' <<<"$list" || true)
  if [ "$count" -eq 0 ]; then
    echo "error: test filter '$filter' matches no test" >&2
    exit 1
  fi
  echo "test filter '$filter' matches $count test(s)"
done

exec "${cmd[@]}" -- "$@"
