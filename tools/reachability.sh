#!/usr/bin/env bash
# Which src/ functions does a shipped binary actually link?
#
#   tools/reachability.sh [BUILD_DIR]     (default: build-reach/)
#
# Builds the whole tree and perfbench with -O1 -fno-inline
# -ffunction-sections -fdata-sections and links with -Wl,--gc-sections, so
# every out-of-line function sits in its own section and the linker drops
# each one no caller reaches. (-fdata-sections keeps a switch's jump table
# out of a shared .rodata, which would otherwise hold its function alive.)
# It then compares the global functions the src/ libraries define (nm,
# type T) against what survives in every binary, and prints two lists:
#   - src/ functions that no binary links;
#   - src/ functions that only test binaries link.
# Named test oracles (mod_bitwise, pow_mod, scalar_mult_naive, ...) are
# meant to be on the second list; anything else there is a candidate for
# deletion or for moving into its test.
set -euo pipefail
export LC_ALL=C  # one collation for sort, comm and join

repo=$(cd "$(dirname "$0")/.." && pwd)
build=$(realpath -m "${1:-$repo/build-reach}")
flags="-O1 -fno-inline -ffunction-sections -fdata-sections"
jobs=$(nproc)

build_tree() {  # build_tree <source> <build>; the log stays in <build>
  mkdir -p "$2"
  { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Reach \
          -DCMAKE_CXX_FLAGS="$flags" \
          -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" &&
      cmake --build "$2" -j "$jobs"; } > "$2/reachability.log" 2>&1 ||
    { tail -n 30 "$2/reachability.log"; exit 1; }
}
build_tree "$repo" "$build"
build_tree "$repo/perfbench" "$build/perfbench"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# "<symbol> <library>" for every global function a src/ library defines.
for lib in "$build"/src/*/libbm_*.a; do
  nm --defined-only "$lib" 2>/dev/null |
    awk -v lib="$(basename "$lib" .a)" '$2 == "T" { print $3, lib }'
done | sort -u -k1,1 > "$work/lib"

# The functions each binary kept, pooled into tests and everything else.
binaries=$(find "$build"/tests "$build"/bench "$build"/tools "$build"/examples \
                -maxdepth 1 -type f -perm -u+x; echo "$build/perfbench/perfbench")
: > "$work/test"; : > "$work/prod"
for bin in $binaries; do
  pool=prod
  [[ $bin == "$build"/tests/* ]] && pool=test
  nm --defined-only "$bin" | awk '$2 ~ /^[TtWw]$/ { print $3 }' >> "$work/$pool"
done
sort -u -o "$work/test" "$work/test"
sort -u -o "$work/prod" "$work/prod"

report() {  # report <title> <file of "symbol library" lines>
  echo "== $1 ($(wc -l < "$2")) =="
  sort -k2,2 -s "$2" | awk '{ printf "  %-10s %s\n", substr($2, 7), $1 }' |
    c++filt
}
cut -d' ' -f1 "$work/lib" | sort -u | comm -23 - "$work/prod" > "$work/not_prod"
comm -23 "$work/not_prod" "$work/test" | join - "$work/lib" > "$work/unlinked"
comm -12 "$work/not_prod" "$work/test" | join - "$work/lib" > "$work/test_only"
report "src/ functions no binary links" "$work/unlinked"
report "src/ functions only tests link" "$work/test_only"
