#!/usr/bin/env bash
# Every code path, name and section the documents cite exists.
#
#   scripts/doc_names.sh [DOC...]
#
# Three checks over the given documents (default: DESIGN.md, README.md and
# EXPERIMENTS.md), each printing what it cannot find; exits 1 if any does.
#
# Paths: each `Type::item` written inside backticks must name a member of
# the declaration of `Type` under crates/ (a field `item:`, a variant line
# starting with `Item`, or a trait's fn), or a fn, const, static or type of
# that name in a file that implements `Type`.
#
# Names: each backticked snake_case identifier (a whole backtick span of
# lower-case letters, digits and at least one underscore) must occur as a
# word in the code, the scripts, CI or BENCHMARK.json.
#
# Sections: every title quoted right after `EXPERIMENTS.md` in a tracked
# file (`EXPERIMENTS.md, "Title"`, `EXPERIMENTS.md §"Title"`,
# `EXPERIMENTS.md's "Title"`), comment lines joined, must be one of its
# headings or the mechanism cell of a row of its mechanism table. ROADMAP.md
# and CHANGES.md are records of what was, and are not checked, nor is this
# script.
#
# A path or name on an allow-list below is skipped. Needs bash, git, sed,
# awk and grep only.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
[ $# -gt 0 ] || set -- DESIGN.md README.md EXPERIMENTS.md

# Paths a document may name although crates/ defines no such item.
allow=(
)
# Names a document may use although no code, script or CI file has them.
allow_names=(
)
# Where a name must occur.
code=(crates src tests examples scripts .github BENCHMARK.json)

files() {
    grep -rlE "$1" crates --include='*.rs' --exclude-dir=target || true
}

missing=0

paths=$(grep -ohE '`[^`]+`' "$@" | grep -oE '\b[A-Z][A-Za-z0-9]*::[A-Za-z_][A-Za-z0-9_]*' | sort -u)
for path in $paths; do
    for ok in "${allow[@]}"; do
        [ "$path" = "$ok" ] && continue 2
    done
    ty=${path%%::*} item=${path#*::}
    # The type's declarations (struct, enum or trait bodies) and the files
    # that implement it.
    head="^ *(pub(\([a-z]+\))? )?(struct|enum|trait|type) $ty\b"
    decl=$(files "$head")
    body=""
    [ -z "$decl" ] || body=$(sed -nE "/$head/,/^}/p" $decl)
    impls=$(files "^impl(<[^>]*>)? ([A-Za-z_:<>']+ for )?$ty\b")
    member="^ *(pub(\([a-z]+\))? )?$item:|^ *$item\b *[,({]|\b(fn|const|type) $item\b"
    method="\b(fn|const|static|type) $item\b"
    if ! grep -qE "$member" <<<"$body" && { [ -z "$impls" ] || ! grep -qE "$method" $impls; }; then
        echo "names nothing under crates/: $path"
        missing=1
    fi
done

names=$(grep -ohE '`[a-z_][a-z0-9_]*`' "$@" | tr -d '`' | grep _ | sort -u || true)
found=$(grep -rhowF --exclude-dir=target -f <(printf '%s\n' $names "${allow_names[@]}") "${code[@]}" |
    sort -u || true)
for name in $(comm -23 <(printf '%s\n' $names) <(printf '%s\n' $found "${allow_names[@]}" | sort -u)); do
    echo "names nothing in the code, scripts or CI: $name"
    missing=1
done

# EXPERIMENTS.md's headings and the first cell of each row of the table
# whose header's first cell is "mechanism".
titles=$(
    sed -nE 's/^#+ +//p' EXPERIMENTS.md
    awk -F'|' '/^\|/ {
            cell = $2; gsub(/^ +| +$/, "", cell)
            if (cell == "mechanism") on = 1; else if (on && cell !~ /^-+$/) print cell
            next
        }
        { on = 0 }' EXPERIMENTS.md
)
cited=0
for f in $(git ls-files | grep -vxE 'ROADMAP.md|CHANGES.md|scripts/doc_names.sh'); do
    [ -f "$f" ] && grep -qF 'EXPERIMENTS.md' "$f" || continue
    # Join the lines, less their comment markers, so a title may wrap.
    quotes=$(sed -E 's@^[[:space:]]*(//[/!]?|#+)?[[:space:]]*@@' "$f" | tr '\n' ' ' |
        grep -oE "EXPERIMENTS\.md\`?('s)?,? ?(§|\()?\"[^\"]+\"" | sed -E 's/^[^"]*"(.*)"$/\1/' || true)
    while IFS= read -r title; do
        [ -n "$title" ] || continue
        cited=$((cited + 1))
        if ! grep -qxF -- "$title" <<<"$titles"; then
            echo "$f cites no section of EXPERIMENTS.md: \"$title\""
            missing=1
        fi
    done <<<"$quotes"
done

echo "$(echo "$paths" | wc -w) code paths and $(echo "$names" | wc -w) names named in $*;" \
    "$cited citations of EXPERIMENTS.md sections"
exit "$missing"
