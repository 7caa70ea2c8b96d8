#!/usr/bin/env bash
# Full check: regular build + tests, then the simrt runtime test binaries
# under ThreadSanitizer (the threads-as-ranks runtime is the one place real
# data races can hide), then the SIMD, QCD and partitioning suites under
# AddressSanitizer (vector strip-mining tails and halo ghost writes at
# computed offsets are where out-of-bounds accesses can hide).
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-2}"

echo "== regular build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== ThreadSanitizer build (simrt runtime tests) =="
cmake -B build-tsan -S . -DVPAR_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" \
  --target test_simrt test_simrt_stress test_simrt_nonblocking test_simrt_executor \
  test_simrt_faults test_simrt_hybrid test_trace test_service test_transport \
  test_simd test_simd_equivalence test_part test_qcd

for t in test_simrt test_simrt_stress test_simrt_nonblocking test_simrt_executor \
         test_simrt_faults test_simrt_hybrid test_trace test_service \
         test_transport test_simd test_simd_equivalence test_part test_qcd; do
  echo "-- TSan: $t"
  TSAN_OPTIONS="halt_on_error=1" "./build-tsan/tests/$t"
done

echo "== AddressSanitizer build (SIMD tails, QCD and halo ghost offsets) =="
cmake -B build-asan -S . -DVPAR_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS" \
  --target test_simd test_simd_equivalence test_qcd test_part

for t in test_simd test_simd_equivalence test_qcd test_part; do
  echo "-- ASan: $t"
  ASAN_OPTIONS="halt_on_error=1" "./build-asan/tests/$t"
done

echo "All checks passed."
