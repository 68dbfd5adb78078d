#!/usr/bin/env bash
# Correctness matrix for the RICD repo: builds and tests the tree in four
# configurations and prints a one-line verdict per configuration.
#
#   plain   RelWithDebInfo, full ctest suite (includes the `lint` label and
#           the invariant-validator tests, which run with RICD_VALIDATE=1)
#   asan    -DRICD_SANITIZE=address,undefined — full suite under
#           AddressSanitizer + UndefinedBehaviorSanitizer
#   tsan    -DRICD_SANITIZE=thread — the concurrency-focused tests
#           (race_test is written for this leg) under ThreadSanitizer
#
# snapshot_fuzz_test (deterministic corruption of binary graph snapshots)
# runs in every leg: the plain and asan legs run the full suite, and the
# tsan leg's -R filter names it explicitly, so hostile-input parsing is
# exercised under ASan/UBSan/TSan on every invocation.
#
#   annotate  clang++ with -DRICD_THREAD_SAFETY=ON: compiles src/ under
#             -Wthread-safety -Werror=thread-safety so every
#             RICD_GUARDED_BY / RICD_REQUIRES annotation is checked at
#             compile time; skipped with a note when clang++ is not
#             installed (the annotations are no-ops under gcc).
#
# Usage: tools/check.sh [--tidy] [--jobs=N] [--only=plain,asan,tsan,annotate]
#
#   --tidy    additionally run clang-tidy (configuration in .clang-tidy)
#             over src/ using the plain build's compile commands; skipped
#             with a note when clang-tidy is not installed. Warnings in
#             src/serve and src/obs (the concurrent directories) are
#             errors; warnings elsewhere are logged but do not gate.
#
# Exits non-zero if any selected configuration fails. Build trees live
# under build-check/ so the default ./build is never clobbered.
#
# Multi-core note: two checks only mean something on a host with at least
# four hardware threads, so run the plain and tsan legs there, not only in
# a 1-core container. flight_recorder_test (plain and tsan legs) needs
# writers that really run at once to expose a torn event; run it repeated,
# e.g. `flight_recorder_test --gtest_repeat=50`. parallel_scaling_assert
# (plain leg) enforces its 2.0x 4-vs-1 worker floor only when
# std::thread::hardware_concurrency() >= 4 and skips the floor below that.

set -u

cd "$(dirname "$0")/.." || exit 2
ROOT="$(pwd)"

JOBS="$(nproc 2>/dev/null || echo 2)"
RUN_TIDY=0
ONLY="plain,asan,tsan,annotate"
for arg in "$@"; do
  case "$arg" in
    --tidy) RUN_TIDY=1 ;;
    --jobs=*) JOBS="${arg#--jobs=}" ;;
    --only=*) ONLY="${arg#--only=}" ;;
    *)
      echo "usage: tools/check.sh [--tidy] [--jobs=N] [--only=plain,asan,tsan,annotate]" >&2
      exit 2
      ;;
  esac
done

declare -a SUMMARY=()
FAILED=0

# run_config <name> <sanitize-value> <ctest-args...>
run_config() {
  local name="$1" sanitize="$2"
  shift 2
  local build_dir="$ROOT/build-check/$name"
  local log="$ROOT/build-check/$name.log"
  local start end verdict
  start=$(date +%s)
  mkdir -p "$build_dir"

  if cmake -B "$build_dir" -S "$ROOT" \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        -DRICD_SANITIZE="$sanitize" >"$log" 2>&1 \
      && cmake --build "$build_dir" -j "$JOBS" >>"$log" 2>&1 \
      && (cd "$build_dir" && RICD_VALIDATE=1 ctest --output-on-failure "$@" >>"$log" 2>&1); then
    verdict="PASS"
  else
    verdict="FAIL"
    FAILED=1
  fi
  end=$(date +%s)
  SUMMARY+=("$name: $verdict ($((end - start))s, log: build-check/$name.log)")
  echo "check.sh: $name $verdict"
}

case ",$ONLY," in *,plain,*)
  run_config plain "" -j "$JOBS"
esac
case ",$ONLY," in *,asan,*)
  run_config asan "address,undefined" -j "$JOBS"
esac
case ",$ONLY," in *,tsan,*)
  # Deterministic concurrency workloads (race_test exists for this leg;
  # parallel_pruning_test runs the round/frontier pruning differential at
  # 1-8 workers; serve_stress_test sweeps the lock-free verdict-snapshot
  # swap, the bounded ingest queue, and the telemetry-enabled serve path;
  # flight_recorder_test hammers the seqlock-per-slot event ring;
  # shard_test runs the sharded-vs-monolithic differential, whose parallel
  # per-shard builds and lazy flat-id-map construction are the data races
  # this leg would catch; window_test races seal/evict in ClickWindow
  # against concurrent snapshot readers and runs the windowed online-vs-
  # offline differential over a live DetectionService), plus the snapshot
  # corruption suite so it sees all three sanitizers.
  run_config tsan "thread" -R "race_test|thread_pool_test|metrics_test|trace_test|flight_recorder_test|snapshot_fuzz_test|parallel_pruning_test|serve_test|serve_stress_test|shard_test|window_test"
esac
case ",$ONLY," in *,annotate,*)
  # Compile-time lock-discipline check: clang's -Wthread-safety over the
  # annotations in src/common/thread_annotations.h. Build-only (the plain
  # leg already runs the tests); src/ is where the annotations live, and
  # building the ricd_tool target compiles every library translation unit.
  if command -v clang++ >/dev/null 2>&1; then
    start=$(date +%s)
    build_dir="$ROOT/build-check/annotate"
    log="$ROOT/build-check/annotate.log"
    mkdir -p "$build_dir"
    if cmake -B "$build_dir" -S "$ROOT" \
          -DCMAKE_CXX_COMPILER=clang++ \
          -DRICD_THREAD_SAFETY=ON >"$log" 2>&1 \
        && cmake --build "$build_dir" -j "$JOBS" --target ricd_tool >>"$log" 2>&1; then
      verdict="PASS"
    else
      verdict="FAIL"
      FAILED=1
    fi
    end=$(date +%s)
    SUMMARY+=("annotate: $verdict ($((end - start))s, log: build-check/annotate.log)")
    echo "check.sh: annotate $verdict"
  else
    SUMMARY+=("annotate: SKIPPED (clang++ not installed)")
    echo "check.sh: annotate SKIPPED"
  fi
esac

if [ "$RUN_TIDY" -eq 1 ]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    start=$(date +%s)
    # Two passes with different strictness. The concurrent directories
    # (src/serve, src/obs) hold the lock-free protocols where a tidy
    # warning is most likely to be a real bug: warnings there are errors.
    # The rest of src/ is advisory — logged, never gating.
    mapfile -t strict_files < <(find src/serve src/obs -name '*.cc')
    mapfile -t advisory_files < <(find src -name '*.cc' \
        -not -path 'src/serve/*' -not -path 'src/obs/*')
    verdict="PASS"
    if ! clang-tidy -p "$ROOT/build-check/plain" \
        --warnings-as-errors='*' "${strict_files[@]}" \
        >"$ROOT/build-check/tidy.log" 2>&1; then
      verdict="FAIL"
      FAILED=1
    fi
    clang-tidy -p "$ROOT/build-check/plain" "${advisory_files[@]}" \
        >>"$ROOT/build-check/tidy.log" 2>&1 \
      || echo "tidy: advisory warnings outside serve/obs (see log)"
    end=$(date +%s)
    SUMMARY+=("tidy: $verdict ($((end - start))s, serve+obs gating, log: build-check/tidy.log)")
  else
    SUMMARY+=("tidy: SKIPPED (clang-tidy not installed)")
  fi
fi

echo
echo "== check.sh summary =="
for line in "${SUMMARY[@]}"; do
  echo "  $line"
done
exit "$FAILED"
