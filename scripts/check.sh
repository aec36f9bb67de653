#!/usr/bin/env bash
# Tier-1 gate plus sanitizer and static-analysis passes.
#
#   scripts/check.sh            # full: tier-1, TSan, ASan, UBSan,
#                               #       no-telemetry, static analysis
#   scripts/check.sh --tier1    # tier-1 only
#   scripts/check.sh --tsan     # TSan common+net+server+runtime+ingest+telemetry
#   scripts/check.sh --asan     # ASan common+net+server+runtime+ingest+telemetry
#   scripts/check.sh --ubsan    # UBSan common+net+server+runtime+ingest+telemetry
#   scripts/check.sh --notel    # FASTJOIN_NO_TELEMETRY build + ctest only
#   scripts/check.sh --static   # fastjoin-lint + clang-tidy +
#                               # -Werror=thread-safety build (clang legs
#                               # skip with a notice when clang is absent)
#   scripts/check.sh --protocol # deterministic protocol checker: full
#                               # exploration on a fixed seed plus extra
#                               # random seeds, self-test included
#   scripts/check.sh --fuzz     # trust-boundary fuzz harnesses under
#                               # ASan+UBSan: corpus replay + a timed
#                               # mutation budget per harness (libFuzzer
#                               # when built with clang, standalone
#                               # driver otherwise)
#
# The sanitizer passes rebuild into build-{tsan,asan,ubsan}/ (separate
# caches) and run the test_common, test_net, test_server, test_runtime,
# test_ingest and test_telemetry binaries, which cover the
# arena recycling, the SPSC lanes, the frame codec and socket
# event loop, the serving front door (admission, slow clients, idle
# sweeps), the worker/monitor/supervisor threading, the chaos tests, and
# the StreamLog append/replay/truncation paths.
set -euo pipefail
cd "$(dirname "$0")/.."

run_tier1=1
run_tsan=1
run_asan=1
run_ubsan=1
run_notel=1
run_static=1
run_protocol=1
run_fuzz=1
case "${1:-}" in
  --tier1)  run_tsan=0; run_asan=0; run_ubsan=0; run_notel=0; run_static=0
            run_protocol=0; run_fuzz=0 ;;
  --tsan)   run_tier1=0; run_asan=0; run_ubsan=0; run_notel=0; run_static=0
            run_protocol=0; run_fuzz=0 ;;
  --asan)   run_tier1=0; run_tsan=0; run_ubsan=0; run_notel=0; run_static=0
            run_protocol=0; run_fuzz=0 ;;
  --ubsan)  run_tier1=0; run_tsan=0; run_asan=0; run_notel=0; run_static=0
            run_protocol=0; run_fuzz=0 ;;
  --notel)  run_tier1=0; run_tsan=0; run_asan=0; run_ubsan=0; run_static=0
            run_protocol=0; run_fuzz=0 ;;
  --static) run_tier1=0; run_tsan=0; run_asan=0; run_ubsan=0; run_notel=0
            run_protocol=0; run_fuzz=0 ;;
  --protocol) run_tier1=0; run_tsan=0; run_asan=0; run_ubsan=0; run_notel=0
            run_static=0; run_fuzz=0 ;;
  --fuzz)   run_tier1=0; run_tsan=0; run_asan=0; run_ubsan=0; run_notel=0
            run_static=0; run_protocol=0 ;;
  "") ;;
  *) echo "usage: $0 [--tier1|--tsan|--asan|--ubsan|--notel|--static|--protocol|--fuzz]" >&2
     exit 2 ;;
esac

jobs=$(nproc 2>/dev/null || echo 4)

if [[ $run_tier1 -eq 1 ]]; then
  echo "== tier-1: build + full test suite =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  (cd build && ctest --output-on-failure -j "$jobs")
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "== TSan: common + net + server + runtime + ingest + telemetry tests under -fsanitize=thread =="
  cmake -B build-tsan -S . -DFASTJOIN_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$jobs" --target test_common \
    --target test_net --target test_server \
    --target test_runtime --target test_ingest --target test_telemetry
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_common
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_net
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_server
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_telemetry
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_ingest
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_runtime
fi

if [[ $run_asan -eq 1 ]]; then
  echo "== ASan: common + net + server + runtime + ingest + telemetry tests under -fsanitize=address =="
  cmake -B build-asan -S . -DFASTJOIN_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$jobs" --target test_common \
    --target test_net --target test_server \
    --target test_runtime --target test_ingest --target test_telemetry
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/test_common
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/test_net
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/test_server
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/test_telemetry
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/test_ingest
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ./build-asan/tests/test_runtime
fi

if [[ $run_ubsan -eq 1 ]]; then
  echo "== UBSan: common + net + server + runtime + ingest + telemetry tests under -fsanitize=undefined =="
  cmake -B build-ubsan -S . -DFASTJOIN_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$jobs" --target test_common \
    --target test_net --target test_server \
    --target test_runtime --target test_ingest --target test_telemetry
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" ./build-ubsan/tests/test_common
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" ./build-ubsan/tests/test_net
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" ./build-ubsan/tests/test_server
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" ./build-ubsan/tests/test_telemetry
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" ./build-ubsan/tests/test_ingest
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" ./build-ubsan/tests/test_runtime
fi

if [[ $run_notel -eq 1 ]]; then
  echo "== no-telemetry: FASTJOIN_NO_TELEMETRY=ON build + full test suite =="
  cmake -B build-notel -S . -DFASTJOIN_NO_TELEMETRY=ON >/dev/null
  cmake --build build-notel -j "$jobs"
  (cd build-notel && ctest --output-on-failure -j "$jobs")
fi

if [[ $run_static -eq 1 ]]; then
  echo "== static: fastjoin-lint =="
  python3 scripts/lint/fastjoin_lint.py \
    --baseline scripts/lint/fastjoin_lint_baseline.json

  echo "== static: clang-tidy (diff vs baseline) =="
  scripts/run_clang_tidy.sh

  echo "== static: Clang -Werror=thread-safety build =="
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DFASTJOIN_THREAD_SAFETY=ON >/dev/null
    cmake --build build-tsa -j "$jobs"
  else
    echo "clang++ not installed; skipping thread-safety build" \
         "(the CI static-analysis job runs this leg)"
  fi
fi

if [[ $run_protocol -eq 1 ]]; then
  echo "== protocol: deterministic-schedule checker =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target protocol_check
  artifacts=build/protocol-artifacts
  mkdir -p "$artifacts"
  # Self-test first: a deliberately broken transition must be caught,
  # shrunk, and replayed from its dumped artifact.
  ./build/tools/protocol_check --self-test --artifact-dir "$artifacts"
  # Full exploration on the pinned seed (the one CI history compares
  # against), then a few extra seeds for schedule diversity. Seeds are
  # arbitrary but fixed so a red run is reproducible from the log line.
  for seed in 1 7 1337 990131; do
    echo "-- protocol_check --seed $seed"
    ./build/tools/protocol_check --seed "$seed" --artifact-dir "$artifacts"
  done
  echo "protocol: all seeds clean (artifacts, if any, in $artifacts)"
fi

if [[ $run_fuzz -eq 1 ]]; then
  echo "== fuzz: trust-boundary harnesses under ASan+UBSan =="
  # FASTJOIN_FUZZ picks the engine: libFuzzer under clang, the
  # standalone mutation driver under gcc. Either way each harness
  # replays its committed corpus and then spends a fixed wall-clock
  # budget mutating from it. Crash artifacts land in
  # build-fuzz/fuzz-artifacts/ — commit them as corpus regressions
  # alongside the fix.
  fuzz_budget="${FASTJOIN_FUZZ_SECONDS:-60}"
  cmake -B build-fuzz -S . -DFASTJOIN_FUZZ=ON \
    -DFASTJOIN_SANITIZE=address >/dev/null
  cmake --build build-fuzz -j "$jobs" --target fuzz_frame \
    --target fuzz_wire --target fuzz_client_protocol \
    --target fuzz_frontdoor --target fuzz_streamlog
  artifacts=build-fuzz/fuzz-artifacts
  mkdir -p "$artifacts"
  declare -A fuzz_corpus=(
    [fuzz_frame]=frame [fuzz_wire]=wire
    [fuzz_client_protocol]=client [fuzz_frontdoor]=frontdoor
    [fuzz_streamlog]=streamlog )
  # tests/fuzz/CMakeLists.txt stamps which engine the harnesses were
  # built with; the two dialects take different flags.
  engine=$(cat build-fuzz/fuzz_engine.txt 2>/dev/null || echo standalone)
  for h in fuzz_frame fuzz_wire fuzz_client_protocol fuzz_frontdoor \
           fuzz_streamlog; do
    corpus="tests/fuzz/corpus/${fuzz_corpus[$h]}"
    echo "-- $h ($corpus, ${fuzz_budget}s budget, $engine)"
    if [[ "$engine" == libfuzzer ]]; then
      # libFuzzer binary: corpus dir is positional, budget via flag.
      ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
        ./build-fuzz/tests/fuzz/"$h" -max_total_time="$fuzz_budget" \
        -artifact_prefix="$artifacts/" "$corpus"
    else
      ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
        ./build-fuzz/tests/fuzz/"$h" "$corpus" \
        --max-seconds "$fuzz_budget" --seed 1 --artifact-dir "$artifacts"
    fi
  done
  echo "fuzz: all harnesses clean (artifacts, if any, in $artifacts)"
fi

echo "check.sh: all requested passes green"
