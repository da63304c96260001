#!/bin/sh
# Fail if a native archive references OCaml's polymorphic comparison
# primitives.  An unannotated [compare] or [=] on ints compiles to a C
# call (caml_compare, caml_equal, ...) instead of a machine compare; on
# the tree's descent path that is the difference between the paper's
# "+IntCmp" factor and none.  Usage: sh polycompare.sh ARCHIVE.a...
set -eu

# "member.o:symbol" pairs tolerated on purpose.  Empty: no library on the
# list needs one.
allow=""

found=$(nm -A "$@" | awk '$2 == "U" && $3 ~ /^caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)$/ {
  n = split($1, p, ":"); print p[n - 1] ":" $3 }' | sort -u)

status=0
for hit in $found; do
  case " $allow " in
  *" $hit "*) ;;
  *)
    echo "polymorphic compare: $hit" >&2
    status=1
    ;;
  esac
done
exit $status
