#!/bin/sh
# Fails (exit 1) when an internal header src/<dir>/<name>.h is included by
# nothing but its own src/<dir>/<name>.cpp and tests/: a module only its
# tests use is dead code. Every other tree that builds against the library
# counts as a user: src/, include/, bench/, examples/, tools/, perfbench/.
# Dependency-free POSIX shell; run from the repository root (or pass the
# root as $1). CI runs this in the docs job.
set -u

root="${1:-.}"
status=0
count=0

headers=$(cd "$root/src" && find . -name '*.h' | sed 's|^\./||' | sort)
for header in $headers; do
  count=$((count + 1))
  own="src/${header%.h}.cpp"
  users=$(cd "$root" && grep -rlF "#include \"$header\"" \
            src include bench examples tools perfbench 2>/dev/null |
          grep -vxF "$own" || true)
  if [ -z "$users" ]; then
    echo "DEAD MODULE: src/$header (included only by $own and tests/)"
    status=1
  fi
done

if [ "$count" -eq 0 ]; then
  echo "NO HEADERS FOUND under $root/src"
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "dead modules: none ($count headers checked)"
fi
exit "$status"
