#!/usr/bin/env sh
# Runs every built google-benchmark binary and drops one JSON file per
# bench at the repo root (BENCH_<name>.json), so successive PRs leave a
# queryable perf trajectory. Usage:
#
#   tools/run_benchmarks.sh [build-dir]
#
# The build dir defaults to ./build; benches are expected under
# <build-dir>/bench (the `bench` convenience target builds them all:
# `cmake --build build --target bench`). Each JSON file's "context"
# records the host next to google-benchmark's own fields: git revision,
# dirty bit (uncommitted changes when the run started), the CMake build
# type of <build-dir>, and nproc.
set -eu

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
case "$BUILD_DIR" in
/*) BENCH_DIR="$BUILD_DIR/bench" ;;
*) BENCH_DIR="$REPO_ROOT/$BUILD_DIR/bench" ;;
esac

if [ ! -d "$BENCH_DIR" ]; then
    echo "error: $BENCH_DIR not found (configure and build first)" >&2
    exit 1
fi

GIT_REV="$(git -C "$REPO_ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git -C "$REPO_ROOT" status --porcelain 2>/dev/null)" ]; then
    GIT_DIRTY=1
else
    GIT_DIRTY=0
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
    "${BENCH_DIR%/bench}/CMakeCache.txt" 2>/dev/null)"
CONTEXT="git_rev=$GIT_REV,git_dirty=$GIT_DIRTY"
CONTEXT="$CONTEXT,cmake_build_type=${BUILD_TYPE:-none},nproc=$(nproc)"

STATUS=0
FOUND=0
for BIN in "$BENCH_DIR"/bench_*; do
    [ -f "$BIN" ] && [ -x "$BIN" ] || continue
    FOUND=1
    NAME="$(basename "$BIN")"
    OUT="$REPO_ROOT/BENCH_${NAME#bench_}.json"
    echo "== $NAME -> ${OUT#"$REPO_ROOT"/}"
    if ! "$BIN" --benchmark_format=json --benchmark_out="$OUT" \
                --benchmark_out_format=json \
                --benchmark_context="$CONTEXT" >/dev/null; then
        echo "warning: $NAME failed" >&2
        STATUS=1
    fi
done

if [ "$FOUND" = 0 ]; then
    echo "error: no bench_* binaries under $BENCH_DIR" >&2
    exit 1
fi
exit $STATUS
