#!/usr/bin/env bash
# Exported-name scan: lists every exported function of the non-test Go
# outside benchmark/ that no other line of that code names (a word
# match, so a name another identifier shares stays hidden), and fails
# when one of them is not on the allowlist ci/exported_names.txt.
#
# Run from anywhere: bash ci/exported-names.sh
set -eu  # no pipefail: grep -q closes the scan pipe early by design
cd "$(dirname "$0")/.."

files=$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*')
unused=$(for f in $(grep -hoE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*' $files | sed -E 's/.*[ )]//' | sort -u); do
  grep -wn "$f" $files | grep -vE '^[^:]+:[0-9]+:\s*//' |
    grep -vqE "^[^:]+:[0-9]+:func (\([^)]*\) )?$f\b" || echo "$f"
done)
allowed=$(grep -vE '^\s*(#|$)' ci/exported_names.txt | awk '{print $1}' | sort -u)

new=$(comm -23 <(echo "$unused" | sed '/^$/d' | sort -u) <(echo "$allowed"))
stale=$(comm -13 <(echo "$unused" | sed '/^$/d' | sort -u) <(echo "$allowed"))
if [ -n "$stale" ]; then
  echo "exported-name scan: allowlisted but now called, drop from ci/exported_names.txt:" $stale >&2
fi
if [ -n "$new" ]; then
  echo "exported-name scan: exported but called only by its own tests (or not at all):" >&2
  echo "$new" >&2
  echo "call it, unexport it, delete it, or list it with a reason in ci/exported_names.txt" >&2
  exit 1
fi
echo "exported-name scan: $(echo "$unused" | sed '/^$/d' | wc -l) allowlisted names, none new"
