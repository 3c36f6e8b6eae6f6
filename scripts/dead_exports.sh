#!/bin/sh
# Interface values and top-level definitions no other source names.
#
# Prints each `val` in lib/*/*.mli that no .ml or .mli under lib,
# bench, test, perfbench, bin or examples uses, other than its own
# module's pair, and each top-level `let` in bench/*.ml or bin/*.ml
# whose name appears nowhere in those trees but at its definition, and
# exits 1 if there is any.  Such a value is either dead or used only
# inside its own module, where the interface need not show it.
# perfbench is read as a user of these values but not scanned itself.
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
# miss a dead value, never flag a live one.
#
# Usage: scripts/dead_exports.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."
dirs="lib bench test perfbench bin examples"
id="[A-Za-z0-9_']"
found=0

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

for mli in lib/*/*.mli; do
  ml=${mli%i}
  base=$(basename "$mli" .mli)
  top=$(printf '%s' "$base" | cut -c1 | tr '[:lower:]' '[:upper:]')$(printf '%s' "$base" | cut -c2-)
  exports "$top" "$mli" > "${TMPDIR:-/tmp}/dead_exports.$$"
  while read -r m name; do
    live=0
    # shellcheck disable=SC2086
    for f in $(grep -rlw --include="*.ml" --include="*.mli" -e "$name" $dirs || true); do
      [ "$f" = "$mli" ] || [ "$f" = "$ml" ] && continue
      if used_in "$m" "$name" "$f"; then live=1; break; fi
    done
    if [ "$live" = 0 ]; then
      echo "$mli: val $name"
      found=1
    fi
  done < "${TMPDIR:-/tmp}/dead_exports.$$"
  rm -f "${TMPDIR:-/tmp}/dead_exports.$$"
done
for ml in bench/*.ml bin/*.ml; do
  for name in $(sed -n "s/^let \(rec \)\{0,1\}\([a-z][A-Za-z0-9_']*\).*/\2/p" "$ml" | sort -u); do
    # shellcheck disable=SC2086
    uses=$(grep -rhow --include='*.ml' --include='*.mli' -e "$name" $dirs | wc -l)
    if [ "$uses" -le 1 ]; then
      echo "$ml: let $name"
      found=1
    fi
  done
done
exit $found
