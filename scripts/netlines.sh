#!/bin/sh
# netlines: report added, removed and net lines of Go code between a
# base ref and the working tree, split into non-test Go and test Go
# (*_test.go), from `git diff --numstat`. Untracked .go files count as
# added. Simplicity changes quote the net figures.
#
# Usage: sh scripts/netlines.sh [BASE]    (default BASE: HEAD)
set -eu
cd "$(dirname "$0")/.."
base=${1:-HEAD}

{
  git diff --numstat --no-renames "$base" -- '*.go'
  git ls-files --others --exclude-standard -- '*.go' | while read -r f; do
    printf '%s\t0\t%s\n' "$(wc -l < "$f")" "$f"
  done
} | awk -v base="$base" '
  $1 == "-" { next }  # binary
  $3 ~ /_test\.go$/ { ta += $1; tr += $2; next }
  { ga += $1; gr += $2 }
  END {
    printf "net Go lines vs %s\n", base
    printf "%-14s %8s %8s %8s\n", "", "added", "removed", "net"
    printf "%-14s %8d %8d %+8d\n", "non-test Go", ga, gr, ga - gr
    printf "%-14s %8d %8d %+8d\n", "test Go", ta, tr, ta - tr
  }'
