#!/usr/bin/env bash
# Fails when a retired name (.github/retired-names.tsv) comes back. Run from
# the repository root: bash .github/check-retired-names.sh
set -u
# Non-test lines of the files named on stdin that match the pattern, each
# `path:line: text`; with skip_comments=1, lines that start with // are left
# out too. awk blanks what is left out and grep matches, so a pattern means
# what it means in every other scope (awk reads \b as a backspace).
nontest() {
  while read -r f; do
    awk -v skip="$2" '/^#\[cfg\(test\)\]/{exit}
      {l=$0; sub(/^[ \t]+/,"",l); print (skip && l ~ /^\/\//) ? "" : $0}' "$f" |
      grep -nE -e "$1" | sed -E "s|^([0-9]+):[[:space:]]*|$f:\1: |"
  done
}
failed=0
while IFS=$'\t' read -r pattern scope exempt retired; do
  case "$pattern" in ''|'#'*) continue ;; esac
  case "$scope" in
    rs) hits=$(grep -rnE --include='*.rs' -e "$pattern" crates src tests examples) ;;
    multiline) hits=$(grep -rlzP --include='*.rs' -e "$pattern" crates src tests examples) ;;
    toml) hits=$(grep -rlE --include=Cargo.toml -e "$pattern" .) ;;
    path) hits=$(ls -d $pattern 2>/dev/null) ;;
    lib\ *) hits=$(find ${scope#lib } -name '*.rs' -not -path '*/src/bin/*' | nontest "$pattern" 1) ;;
    tests\ *) hits=$(ls ${scope#tests } | nontest "$pattern" 0) ;;
    *) echo "::error::unknown scope $scope"; exit 2 ;;
  esac
  [ "$exempt" != - ] && hits=$(grep -vE -e "$exempt" <<<"$hits")
  if [ -n "$hits" ]; then
    echo "::error::retired name /$pattern/ came back. $retired"
    echo "$hits"
    failed=1
  fi
done < .github/retired-names.tsv
exit "$failed"
