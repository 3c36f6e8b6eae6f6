#!/bin/sh
# Interface values and top-level definitions no other source names.
#
# Prints each `val` in lib/*/*.mli whose name appears in no .ml or .mli
# under lib, bench, test, perfbench, bin or examples other than its own
# module's pair, and each top-level `let` in bench/*.ml or bin/*.ml
# whose name appears nowhere in those trees but at its definition, and
# exits 1 if there is any.  Such a value is either dead or used only
# inside its own module, where the interface need not show it.
# perfbench is read as a user of these values but not scanned itself.
# The match is by bare name, so a value sharing its name with anything
# elsewhere counts as used: the check can miss a dead one, never flag a
# live one.
#
# Usage: scripts/dead_exports.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."
dirs="lib bench test perfbench bin examples"
found=0
for mli in lib/*/*.mli; do
  ml=${mli%i}
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    # shellcheck disable=SC2086
    if ! grep -rlw --include='*.ml' --include='*.mli' -e "$name" $dirs |
       grep -qvx -e "$mli" -e "$ml"; then
      echo "$mli: val $name"
      found=1
    fi
  done
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
