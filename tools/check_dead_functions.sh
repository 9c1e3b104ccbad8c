#!/bin/sh
# Fails (exit 1) when libwave.a defines a function in a nested namespace
# (wave::core::, wave::sim::, ...) that no shipped executable links: a
# function only tests call is dead code. The shipped executables are the
# bench/ drivers, the examples/, tools/wave_serve and perfbench. The
# top-level wave:: namespace is the include/wave/ facade, whose callers
# may live outside this repository, so it is exempt.
#
# The symbol-level sibling of tools/check_dead_modules.sh, which sees the
# header-only modules this script cannot (they emit no symbols).
#
# It builds at -O0: an optimized build inlines small functions into their
# callers, and an inlined function looks unused although a binary runs it.
# -ffunction-sections with --gc-sections drops every function an
# executable does not reach, so "defined in the executable" means "called".
#
# Usage: tools/check_dead_functions.sh [repo-root]
# Builds into <repo-root>/build-dead-functions (about a minute on 4 cores).
# CI runs this in its own job.
set -eu

root=$(cd "${1:-.}" && pwd)
out="$root/build-dead-functions"
jobs=$(nproc 2>/dev/null || echo 2)
flags="-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"

echo "== building the library, drivers, examples and tools at -O0 ==" >&2
# shellcheck disable=SC2086  # $flags is a list of words
cmake -S "$root" -B "$out/wave" $flags -DWAVE_BUILD_TESTS=OFF \
  -DWAVE_CHECK_HEADERS=OFF > /dev/null
cmake --build "$out/wave" -j "$jobs" > /dev/null
echo "== building perfbench at -O0 ==" >&2
# shellcheck disable=SC2086
cmake -S "$root/perfbench" -B "$out/perfbench" $flags > /dev/null
cmake --build "$out/perfbench" -j "$jobs" --target perfbench > /dev/null

exes=$(find "$out/wave/bench" "$out/wave/examples" "$out/wave/tools" \
            "$out/perfbench/perfbench" -maxdepth 1 -type f -perm -u+x | sort)
if [ -z "$exes" ]; then
  echo "NO EXECUTABLES FOUND under $out"
  exit 1
fi

# The nested namespaces are the ones src/ declares; their mangled prefix
# is _ZN (plus any cv/ref qualifier) 4wave <length><name>.
nested=$(grep -rhoE 'namespace wave::[a-z_]+' "$root/src" |
         sed 's/.*:://' | sort -u |
         while read -r ns; do printf '%s%s|' "${#ns}" "$ns"; done)
pattern="^_ZN[KVRO]*4wave(${nested%|})"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Global text (T) and weak (W) symbols, mangled.
defined() { nm -g --defined-only "$@" 2>/dev/null | awk '$2 ~ /^[TW]$/ {print $3}'; }

defined "$out/wave/libwave.a" | grep -E "$pattern" | sort -u > "$tmp/lib"
# shellcheck disable=SC2086  # $exes is a newline-separated list of paths
defined $exes | sort -u > "$tmp/used"
comm -23 "$tmp/lib" "$tmp/used" > "$tmp/dead"

if [ -s "$tmp/dead" ]; then
  c++filt < "$tmp/dead" | sort | sed 's/^/DEAD FUNCTION: /'
  echo "$(wc -l < "$tmp/dead") function(s) in libwave.a that no shipped" \
       "executable links; delete them, or call them from a shipped binary"
  exit 1
fi
echo "dead functions: none ($(wc -l < "$tmp/lib") library functions," \
     "$(echo "$exes" | wc -l) executables checked)"
