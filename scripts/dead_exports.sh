#!/bin/sh
# Interface values only tests use, or nothing does, and top-level
# definitions no other source names.
#
# Prints, and exits 1 if there is any:
#   - each `val` in lib/*/*.mli that no .ml or .mli under lib, bench,
#     perfbench, bin or examples uses, other than its own module's
#     pair, unless it is a declared test seam that test/ uses;
#   - each declared test seam that is not such a val: one that code
#     outside test/ uses, one that nothing in test/ names, or one that
#     no interface exports;
#   - each top-level `let` in bench/*.ml or bin/*.ml whose name appears
#     nowhere in those trees (test/ included) but at its definition.
# A val only test/ names is a seam through which a test reaches
# behaviour the system runs, declared with its reason in
# scripts/test_seams; otherwise it is test-only code, and goes with
# its tests.  A val nothing names is dead or used only inside its own
# module, where the interface need not show it.  perfbench is read as
# a user of these values but not scanned itself.
#
# A `val name` of module M (or of its submodule M.S, declared in M.mli
# as `module S : sig`) counts as used in a file that
#   - names it qualified, `M.name` (also `Outer.M.name`);
#   - aliases the module, `module X = ...M`, and names `X.name`;
#   - opens the module (`open ...M`, `let open ...M in`, `...M.(`)
#     and names it bare;
#   - packs the module, `(module ...M`, and declares `val name` in a
#     module type.
# A record field spelled like the value also counts, so the check can
# miss a dead value, never flag a live one.  Dead fields themselves are
# the compiler's to catch: lib/dune makes warning 69 (a record field
# never read, or mutable and never mutated) an error in every library.
#
# scripts/test_seams lists one seam a line, `<mli> <name>: <reason>`,
# with `S.name` for a val of submodule S; `#` starts a comment line.
#
# Usage: scripts/dead_exports.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."
dirs="lib bench perfbench bin examples"
seams=scripts/test_seams
id="[A-Za-z0-9_']"
tmp=${TMPDIR:-/tmp}/dead_exports.$$
trap 'rm -f "$tmp".*' EXIT
found=0

# "mli key" for each declared seam.
sed -n "s/^\(lib\/[^ ]*\.mli\) \([A-Za-z0-9_.']*\):.*/\1 \2/p" "$seams" |
  sort -u > "$tmp.seams"
: > "$tmp.exported"

# "Module name" for each value an interface exports, Module being the
# innermost enclosing module: the file's own, or a `module S : sig`.
exports() {
  awk -v top="$1" '
    /^[ \t]*module type / { depth++; kind[depth] = ""; next }
    /^[ \t]*module [A-Z][A-Za-z0-9_]* *: *sig/ {
      depth++; kind[depth] = $2; next }
    /^[ \t]*end[ \t]*$/ { if (depth > 0) depth--; next }
    /^[ \t]*val [a-z_]/ {
      name = $2; sub(/:.*/, "", name)
      if (depth == 0) print top, name
      else if (kind[depth] != "") print kind[depth], name
    }' "$2" | sort -u
}

# Is [name] of module [m] used in file [f]?
used_in() {
  m=$1 name=$2 f=$3
  grep -qE "(^|[^A-Za-z0-9_'])$m\.$name(\$|[^A-Za-z0-9_'])" "$f" && return 0
  for x in $(sed -n "s/.*module \([A-Z]$id*\) = \([A-Z]$id*\.\)*$m\b.*/\1/p" "$f"); do
    grep -qE "(^|[^A-Za-z0-9_'.])$x\.$name(\$|[^A-Za-z0-9_'])" "$f" && return 0
  done
  grep -qE "(open!? +|let open!? +)([A-Z]$id*\.)*$m\b|(^|[^A-Za-z0-9_'])$m\.\(" "$f" &&
    return 0
  grep -qE "\(module +([A-Z]$id*\.)*$m\b" "$f" &&
    grep -qE "^[ \t]*val +$name\b" "$f" && return 0
  return 1
}

# Is [name] of module [m] used in a file of the trees [$4...], other
# than the interface's own pair [mli]/[ml]?
used_under() {
  m=$1 name=$2 mli=$3
  shift 3
  for f in $(grep -rlw --include="*.ml" --include="*.mli" -e "$name" "$@" || true); do
    [ "$f" = "$mli" ] || [ "$f" = "${mli%i}" ] && continue
    used_in "$m" "$name" "$f" && return 0
  done
  return 1
}

for mli in lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  top=$(printf '%s' "$base" | cut -c1 | tr '[:lower:]' '[:upper:]')$(printf '%s' "$base" | cut -c2-)
  exports "$top" "$mli" > "$tmp.exports"
  while read -r m name; do
    if [ "$m" = "$top" ]; then key=$name; else key=$m.$name; fi
    echo "$mli $key" >> "$tmp.exported"
    seam=0
    grep -qxF "$mli $key" "$tmp.seams" && seam=1
    # shellcheck disable=SC2086
    if used_under "$m" "$name" "$mli" $dirs; then
      if [ "$seam" = 1 ]; then
        echo "$seams: $mli $key: used outside test/, not a seam"
        found=1
      fi
    elif used_under "$m" "$name" "$mli" test; then
      if [ "$seam" = 0 ]; then
        echo "$mli: val $key (only test/ uses it; not a declared seam)"
        found=1
      fi
    elif [ "$seam" = 1 ]; then
      echo "$seams: $mli $key: no test names it"
      found=1
    else
      echo "$mli: val $key"
      found=1
    fi
  done < "$tmp.exports"
done
sort -u "$tmp.exported" | comm -23 "$tmp.seams" - | while read -r mli key; do
  echo "$seams: $mli $key: no such val"
done | grep . && found=1
for ml in bench/*.ml bin/*.ml; do
  for name in $(sed -n "s/^let \(rec \)\{0,1\}\([a-z][A-Za-z0-9_']*\).*/\2/p" "$ml" | sort -u); do
    # shellcheck disable=SC2086
    uses=$(grep -rhow --include='*.ml' --include='*.mli' -e "$name" $dirs test | wc -l)
    if [ "$uses" -le 1 ]; then
      echo "$ml: let $name"
      found=1
    fi
  done
done
exit $found
