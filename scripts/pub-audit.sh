#!/usr/bin/env bash
# Dead-surface gate: every `pub` item in the workspace crates must have a
# caller.
#
# Scans each `pub fn|struct|enum|trait|type|const|static NAME` in the
# non-test part of crates/*/src (everything before a file's first
# `#[cfg(test)]`). A name counts as used when it occurs as a word in the
# non-test code of any crate, in src/, examples/, tests/paper_claims.rs, or
# anywhere under benchmark/ (which must keep building unedited). `use` and
# `pub use` statements, `//` comments, string literals and the defined name
# on a definition line are not uses. Tests are not callers: an item only a
# test reaches is dead surface.
#
# A name with no use fails the gate unless scripts/pub-audit.allow lists it
# with a one-line reason (`NAME reason...`). The allowlist holds at most 10
# entries, and an entry whose name has a caller fails as stale.
#
# Usage: scripts/pub-audit.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/pub-audit.allow
max_allow=10

crate_files=$(find crates/*/src -name '*.rs' | sort)
other_files=$( { find src examples -name '*.rs'; echo tests/paper_claims.rs;
  find benchmark -path benchmark/target -prune -o -path benchmark/out -prune \
    -o -name '*.rs' -print; } | sort)

# shellcheck disable=SC2086
awk -v allow_file="$allow" -v max_allow="$max_allow" '
function owner(path,   p) {
  if (path ~ /^crates\//) { split(path, p, "/"); return p[2] }
  return "-"
}
# Strip what is never a use: string and char literals, then a trailing
# `//` comment.
function clean(s) {
  gsub(/"([^"\\]|\\.)*"/, "\"\"", s)
  gsub(/'\''([^'\''\\]|\\.)'\''/, "'\'''\''", s)
  sub(/\/\/.*/, "", s)
  return s
}
FNR == 1 {
  in_test = 0; in_use = 0
  file = FILENAME; crate = owner(file)
  scan = (file ~ /^crates\//)
}
# the test part of a crate file is neither scanned nor a caller
scan && /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
in_test { next }
{
  t = $0; sub(/^[[:space:]]+/, "", t)
  if (t ~ /^\/\//) next
  if (in_use || t ~ /^(pub(\([a-z]+\))? )?use /) {
    in_use = (t !~ /;/)
    next
  }
  if (scan && match(t, /^pub (const |unsafe |async )*(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/)) {
    d = substr(t, 1, RLENGTH); n = split(d, w, " ")
    name = w[n]
    items++; item_name[items] = name; item_crate[items] = crate
    item_where[items] = file ":" FNR; item_kind[items] = w[n - 1]
  }
  line = clean($0)
  gsub(/[^A-Za-z0-9_]+/, " ", line)
  n = split(line, tok, " ")
  for (i = 1; i <= n; i++) {
    if (tok[i] ~ /^(fn|struct|enum|trait|type|const|static|mod|union)$/ && i < n) {
      i++  # the defined name is not a use of itself
      continue
    }
    uses[tok[i]]++
    used_in[tok[i], crate] = 1
    crates[crate] = 1
  }
}
END {
  entries = 0
  while ((getline l < allow_file) > 0) {
    if (l ~ /^[[:space:]]*(#|$)/) continue
    entries++
    if (split(l, f, " ") < 2) {
      printf "error: %s: `%s` has no reason\n", allow_file, f[1]; bad = 1
    }
    allowed[f[1]] = 1
  }
  for (k = 1; k <= items; k++) {
    name = item_name[k]
    if (!(name in uses)) {
      if (name in allowed) { allow_hit[name] = 1; continue }
      printf "error: %s %s `%s` has no caller (delete it, demote it, or allowlist it)\n", item_where[k], item_kind[k], name
      bad = 1
      continue
    }
    # used, but every use sits in the defining crate
    local = 1
    for (c in crates) if (c != item_crate[k] && ((name, c) in used_in)) local = 0
    if (local) internal++
  }
  for (name in allowed) if (!(name in allow_hit)) {
    printf "error: %s lists `%s`, which has a caller or is not a pub item\n", allow_file, name
    bad = 1
  }
  if (entries > max_allow) {
    printf "error: %s has %d entries (at most %d)\n", allow_file, entries, max_allow
    bad = 1
  }
  printf "pub audit: %d pub items, %d allowlisted, %d used only inside their own crate\n", items, entries, internal
  exit bad
}
' $crate_files $other_files
