#!/usr/bin/env bash
# Every code path the documents name exists in the code.
#
#   scripts/doc_names.sh [DOC...]
#
# Collects each `Type::item` path written inside backticks in the given
# documents (default: DESIGN.md and README.md) and checks it against the
# Rust sources under crates/: `item` must be a member of the declaration of
# `Type` (a field `item:`, a variant line starting with `Item`, or a trait's
# fn), or a fn, const, static or type of that name in a file that
# implements `Type`. Prints every path that names nothing and exits 1 if
# there is one. A path on the allow-list below is skipped: it names
# something outside crates/ on purpose. Needs bash, sed and grep only.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
[ $# -gt 0 ] || set -- DESIGN.md README.md

# Paths a document may name although crates/ defines no such item.
allow=(
)

files() {
    grep -rlE "$1" crates --include='*.rs' --exclude-dir=target || true
}

paths=$(grep -ohE '`[^`]+`' "$@" | grep -oE '\b[A-Z][A-Za-z0-9]*::[A-Za-z_][A-Za-z0-9_]*' | sort -u)
missing=0
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
echo "$(echo "$paths" | wc -w) code paths named in $*"
exit "$missing"
