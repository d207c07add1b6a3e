#!/bin/sh
# Dead-surface check: list every value exported by a library interface
# (`val` in lib/**/*.mli) that nothing calls, tests included.  A value
# counts as called when its name appears as a word in any OCaml source
# outside its own .ml/.mli, or more than once in its own .ml (the
# definition plus a use).  Prints one line per dead value and exits 1
# if there is any; prints nothing and exits 0 otherwise.
#
#   sh tools/dead_surface.sh        (from the repository root)

dirs="lib bin bench perfbench examples test"
status=0
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%i}
  for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    if grep -rlw --include='*.ml' --include='*.mli' -e "$v" $dirs \
        | grep -qvx -e "$mli" -e "$ml"; then
      continue
    fi
    uses=$(grep -ow -e "$v" "$ml" 2>/dev/null | wc -l)
    if [ "$uses" -le 1 ]; then
      echo "$mli: val $v has no caller"
      status=1
    fi
  done
done
exit $status
