#!/usr/bin/env sh
# Unused-public-item gate. For every `pub fn`, `pub const`,
# `pub static`, `pub type` and `pub trait` (or `pub(crate)` one)
# declared under crates/*/src, the item's name must appear (as a whole
# word) in some other .rs file under crates/, tests/, examples/ or
# ede-benchmark/src. A name that only its own file mentions is either
# dead code or needlessly public: delete it, or drop the `pub`.
#
# The scan is textual, so it cannot see a user outside those trees. Such
# a name goes in scripts/unused_pub.allow, one per line, followed by a
# one-line reason naming that user:
#
#     name  reason the scan cannot see its caller
#
# Blank lines and lines starting with `#` are ignored. An entry without
# a reason fails the gate, and so does an entry whose name the scan no
# longer flags, so the list cannot go stale.
#
# Usage: scripts/unused_pub.sh   (exit 0 clean, 1 on any finding)
set -eu

cd "$(dirname "$0")/.."

allow=scripts/unused_pub.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find crates tests examples ede-benchmark/src -name '*.rs' -not -path '*/target/*' \
    | sort > "$tmp/files"
grep '^crates/[^/]*/src/' "$tmp/files" > "$tmp/sources"

# One "file name" pair per declaration: functions (`const fn` and
# `unsafe fn` included), constants and statics (`NAME:`), type aliases,
# and traits (`unsafe trait` included). Structs and enums are not
# scanned: many are named only as the return type of a public function.
vis='^[[:space:]]*pub\(([[:space:]]*crate[[:space:]]*)\)\{0,1\}[[:space:]]\{1,\}'
name='\([A-Za-z_][A-Za-z0-9_]*\)'
while read -r file; do
    sed -n \
        -e "s/${vis}\\(const[[:space:]]\\{1,\\}\\)\\{0,1\\}\\(unsafe[[:space:]]\\{1,\\}\\)\\{0,1\\}fn[[:space:]]\\{1,\\}${name}.*/\\4/p" \
        -e "s/${vis}\\(const\\|static\\)[[:space:]]\\{1,\\}\\(mut[[:space:]]\\{1,\\}\\)\\{0,1\\}${name}[[:space:]]*:.*/\\4/p" \
        -e "s/${vis}type[[:space:]]\\{1,\\}${name}.*/\\2/p" \
        -e "s/${vis}\\(unsafe[[:space:]]\\{1,\\}\\)\\{0,1\\}trait[[:space:]]\\{1,\\}${name}.*/\\3/p" \
        "$file" | sort -u | sed "s|^|$file |"
done < "$tmp/sources" > "$tmp/decls"

: > "$tmp/flagged"
while read -r file name; do
    # `grep -l | grep -q .` rather than `grep -q`: xargs may split the
    # file list, and its exit status is 123 when any one batch misses.
    if ! grep -v -x -F "$file" "$tmp/files" | xargs grep -l -w -F -- "$name" | grep -q .; then
        echo "$name $file" >> "$tmp/flagged"
    fi
done < "$tmp/decls"

status=0

touch "$tmp/allowed"
if [ -f "$allow" ]; then
    while read -r name reason; do
        case "$name" in '' | '#'*) continue ;; esac
        if [ -z "$reason" ]; then
            echo "unused_pub: allowlist entry '$name' has no reason" >&2
            status=1
        fi
        if ! grep -q "^$name " "$tmp/flagged"; then
            echo "unused_pub: stale allowlist entry '$name' (the scan no longer flags it)" >&2
            status=1
        fi
        echo "$name" >> "$tmp/allowed"
    done < "$allow"
fi

while read -r name file; do
    if ! grep -q -x -F "$name" "$tmp/allowed"; then
        echo "unused_pub: $file: pub item $name is not named in any other file" >&2
        status=1
    fi
done < "$tmp/flagged"

if [ "$status" -eq 0 ]; then
    echo "unused_pub: $(wc -l < "$tmp/decls") public functions, constants, statics, types and traits scanned, none unused"
fi
exit "$status"
