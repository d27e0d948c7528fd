#!/usr/bin/env bash
# Lists the library functions that no shipped binary links.
#
# Builds every shipped binary (tools/, bench/, examples/ and perfbench's
# fleet_bench) at -O0 with one section per function and links them with
# --gc-sections, so each binary keeps only the functions it can reach.
# -fkeep-inline-functions emits every inline function, so accessors
# defined in headers are audited like any other. Prints every function
# defined in the build's src/*/*.a that none of those binaries contains,
# then the count. Left out: lambdas (and their helpers) and the default,
# copy and move constructors the compiler generates. Tests are not
# shipped binaries: a function only a test calls is listed. The audit
# cannot list a member of a class template that only tests instantiate:
# it is never compiled into a library archive. `FlatHashMap`'s
# `for_each`, `reserve`, `capacity`, `clear` and `empty` were members of
# that kind.
#
# Count when -fkeep-inline-functions came in: 128 entries before that
# change deleted the tallies no binary read, 116 after. 101 since the
# fourteen functions nothing called (tests included) and the settings
# only tests set were deleted, and still 101, the same list, after the
# HTML/CSS/JS scan memo came in: its functions are all reached. 97 since
# the string intern table was deleted: `intern()` and three of the
# table's accessors went, and FlashTier's index `size()` is now keyed by
# string. The same 97 after response bodies became shared `http::Body`
# handles. 91 since each hop kept one path: `EventLoop::empty()` and
# `Connection::{server,protocol,established,busy,inflight}()`, which only
# tests called or nothing did, went with the batched dispatch and the
# per-request push handlers. 90 since `Resource` sizes its version slots
# with `ChangeProcess::total_changes()`, which only tests had called. 71
# since the caches moved to standard containers: two `FlatHashMap`
# instantiations went (the flash index's `size()` and the Zipf
# memo's constructor), and so did the test-only accessors of the
# rewritten stores, whose tests now read return values and
# the reported tallies (`EdgePopStats`, `FlashStats`, `io::AioStats`)
# instead: `LruStore::capacity`, `SlruStore::{promotions, entry_count,
# contains, probation, protected_segment}`, `FlashTier::{entry_count,
# live_bytes, capacity}`, `AioEngine::{queued, inflight}` and
# `EdgePop::{store, size_bytes, entry_count, admission, flash_enabled,
# pop_id}`. Kept on purpose: `FlashTier::log_bytes()`, the only observer
# of the bytes on the flash log with its dead records (a superseded or
# erased record keeps its bytes until GC reclaims its segment, and GC
# keeps the log within its budget). A new function no binary calls ships
# with the binary that calls it.
#
#   scripts/link_audit.sh [BUILD_DIR]    (default: build-audit)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-audit}"
JOBS="$(nproc)"
CXX_FLAGS="-O0 -fkeep-inline-functions -ffunction-sections -fdata-sections"
FLAGS=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=$CXX_FLAGS"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S . -B "$BUILD_DIR" "${FLAGS[@]}" >/dev/null
for dir in tools bench examples; do
  make -s -C "$BUILD_DIR/$dir" -j"$JOBS" >/dev/null
done
cmake -S perfbench -B "$BUILD_DIR/perfbench" "${FLAGS[@]}" >/dev/null
make -s -C "$BUILD_DIR/perfbench" -j"$JOBS" fleet_bench >/dev/null

# Defined functions (T/t/W) of namespace catalyst, including lambdas in
# them, as sorted mangled names (std:: instantiations over catalyst types
# mangle under std and are left out).
functions() {
  nm --defined-only "$@" 2>/dev/null |
    sed -n 's/^[0-9a-f]* [TtW] //p' |
    grep -E '^_ZZ?N[KRO]*8catalyst' | sort -u
}

binaries=$(find "$BUILD_DIR/tools" "$BUILD_DIR/bench" "$BUILD_DIR/examples" \
             "$BUILD_DIR/perfbench" -maxdepth 1 -type f -perm -u+x)
# Compiler-generated constructors: X::X(), X::X(X const&), X::X(X&&).
implicit_ctor='(^|::)([A-Za-z0-9_]+)::\2\(((.*::)?\2( const&|&&))?\)$'
# shellcheck disable=SC2086
unlinked=$(comm -23 <(functions "$BUILD_DIR"/src/*/*.a) \
                    <(functions $binaries) | c++filt |
             grep -v 'lambda' | grep -Ev "$implicit_ctor" || true)
[[ -n "$unlinked" ]] && printf '%s\n' "$unlinked"
echo "link_audit: $(grep -c . <<<"$unlinked") library functions linked by" \
     "no binary ($(wc -w <<<"$binaries") binaries)"
