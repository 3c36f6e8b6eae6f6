#!/bin/sh
# Interface values no other source file names.
#
# Prints each `val` in lib/*/*.mli whose name appears in no .ml or .mli
# under lib, bench, test, perfbench, bin or examples other than its own
# module's pair, and exits 1 if there is any.  Such a value is either
# dead or used only inside its own module, where the interface need not
# show it.  The match is by bare name, so a value sharing its name with
# anything elsewhere counts as used: the check can miss a dead export,
# never flag a live one.
#
# Usage: scripts/dead_exports.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."
found=0
for mli in lib/*/*.mli; do
  ml=${mli%i}
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    if ! grep -rlw --include='*.ml' --include='*.mli' -e "$name" \
         lib bench test perfbench bin examples |
       grep -qvx -e "$mli" -e "$ml"; then
      echo "$mli: val $name"
      found=1
    fi
  done
done
exit $found
