#!/bin/sh
# Tier-1 verification: build everything, run the full unit-test suite,
# then rebuild the base simulation library with AddressSanitizer +
# UndefinedBehaviorSanitizer (cmake -DVMP_SANITIZE=address,undefined)
# and rerun the core tests under it: the event kernel, cache, memory
# system, hot-path gates, artifacts, the consistency protocol (whose
# write-backs copy out of the cache's page store), both machines (flat
# and hierarchical), telemetry, the VM system (a page-table walk nests
# a miss inside a miss, and interrupt drains overlap), synchronization
# (notify and lock loops), arbitration (the fault-path fingerprints),
# and the fast fault-injection (whose checker compares cached pages
# with memory) and recovery tests (the torture matrices are left to
# their own job). Last, a ThreadSanitizer build (-DVMP_SANITIZE=thread)
# of the event kernel tests and the artifact tests, whose parallelMap
# sweeps run one EventQueue per thread on 2-4 threads, so state shared
# between queues shows up as a race. Fails on the first error.
#
# Usage: scripts/tier1.sh [build-dir] [sanitize-build-dir] [tsan-build-dir]
set -e

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}
sanitize=${2:-"$repo/build-sanitize"}
tsan=${3:-"$repo/build-tsan"}
jobs=$(nproc 2>/dev/null || echo 2)

echo "== tier1: configure + build ($build) =="
cmake -B "$build" -S "$repo"
cmake --build "$build" -j "$jobs"

echo "== tier1: full test suite (torture matrix excluded) =="
ctest --test-dir "$build" --output-on-failure -j "$jobs" -LE torture

echo "== tier1: sanitizer build ($sanitize) =="
cmake -B "$sanitize" -S "$repo" -DVMP_SANITIZE=address,undefined
cmake --build "$sanitize" -j "$jobs" \
    --target test_sim test_cache test_mem test_hotpath test_artifact \
    test_proto test_core test_hier test_telemetry test_vm test_sync \
    test_arbitration test_fault test_recover bench_table1

echo "== tier1: sanitized core tests =="
"$sanitize/tests/test_sim"
"$sanitize/tests/test_cache"
"$sanitize/tests/test_mem"
"$sanitize/tests/test_hotpath"
"$sanitize/tests/test_artifact"
"$sanitize/tests/test_proto"
"$sanitize/tests/test_core"
"$sanitize/tests/test_hier"
"$sanitize/tests/test_telemetry"
"$sanitize/tests/test_vm"
"$sanitize/tests/test_sync"
"$sanitize/tests/test_arbitration"
"$sanitize/tests/test_fault" --gtest_filter=-*Torture*
"$sanitize/tests/test_recover" --gtest_filter=-*Torture*

echo "== tier1: thread sanitizer build ($tsan) =="
cmake -B "$tsan" -S "$repo" -DVMP_SANITIZE=thread
cmake --build "$tsan" -j "$jobs" --target test_sim test_artifact

echo "== tier1: thread-sanitized event kernel and threaded sweeps =="
"$tsan/tests/test_sim"
"$tsan/tests/test_artifact"

echo "== tier1: OK =="
