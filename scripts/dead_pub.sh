#!/usr/bin/env bash
# Lists every `pub` item (fn, struct, enum, trait, const, static, type)
# defined in crates/*/src outside `#[cfg(test)]` whose name appears in no
# other line of code across crates/ src/ tests/ examples/ benchmark/ —
# its own file's test module and comments not counted — and compares the
# list with scripts/dead_pub.allow (`file:name reason…`, one per line).
# Fails on an unlisted dead item and on a listed one that is no longer
# dead, so the allowlist cannot rot. By name only: `Foo::new` is held
# alive by any other `new`; what it catches is the accessor nothing reads.
set -euo pipefail
cd "$(dirname "$0")/.."
ALLOW=scripts/dead_pub.allow

FOUND="$(find crates src tests examples benchmark -name '*.rs' \
    -not -path '*/target/*' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0; gated = 0; own = (FILENAME ~ /^crates\/[^\/]+\/src\//) }
  /^[[:space:]]*\/\// { next }
  /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1; next }
  {
    # A gated `mod` runs to the end of the file (where this tree keeps
    # them); any other gated item is one test-only helper.
    if (gated && own && /^[[:space:]]*(pub )?mod /) in_tests = 1
    gated = 0
    line = $0
    if (own && !in_tests &&
        match(line, /^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|static|type) [A-Za-z_][A-Za-z0-9_]*/)) {
      def = substr(line, RSTART, RLENGTH)
      sub(/.* /, "", def)
      defs[FILENAME ":" def] = 1
    }
    gsub(/[^A-Za-z0-9_]+/, " ", line)
    n = split(line, words, " ")
    for (i = 1; i <= n; i++) {
      total[words[i]]++
      if (own && in_tests) own_tests[FILENAME ":" words[i]]++
    }
  }
  END {
    for (d in defs) {
      name = d
      sub(/.*:/, "", name)
      if (total[name] - own_tests[d] == 1) print d
    }
  }' | sort)"

LISTED="$(sed -e 's/[[:space:]].*//' -e '/^$/d' "$ALLOW" | sort)"
STATUS=0
for item in $(comm -23 <(echo "$FOUND") <(echo "$LISTED")); do
  echo "dead pub item (use it, delete it, or give $ALLOW a reason): $item"
  STATUS=1
done
for item in $(comm -13 <(echo "$FOUND") <(echo "$LISTED")); do
  echo "$ALLOW lists an item that is used or gone: $item"
  STATUS=1
done
if grep -nEv '^[^[:space:]]+[[:space:]]+[^[:space:]]' "$ALLOW"; then
  echo "$ALLOW: the lines above carry no reason"
  STATUS=1
fi
[ "$STATUS" -eq 0 ] && echo "$(echo "$FOUND" | grep -c .) dead pub items, each with a reason"
exit "$STATUS"
