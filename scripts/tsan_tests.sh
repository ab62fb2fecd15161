#!/usr/bin/env bash
# Sanitizer test driver.
#
# Usage: scripts/tsan_tests.sh [thread|address|undefined|address,undefined] [build-dir]
#
#   thread (default)     — builds with TSan and runs the concurrency-
#                          sensitive suites: the publication drain/shutdown
#                          protocol, the queue/node runtime (queue_test and
#                          net_test's NodeTest), the record-buffer pool
#                          (net_test's SpareBuffersTest), the cloud node's
#                          record runs and the record ledger, the sharded
#                          pipeline, the TCP transport, and the durability
#                          subsystem (WAL, snapshots, crash recovery).
#   address | undefined  — builds with ASan or UBSan and runs the *full*
#   address,undefined      ctest suite (these sanitizers are cheap enough
#                          to afford every test).
#
# The build dir defaults to build-<sanitizer> so instrumented trees never
# mix with the regular build/.
set -euo pipefail

cd "$(dirname "$0")/.."
SAN="${1:-thread}"
case "$SAN" in
  thread|address|undefined|address,undefined|undefined,address) ;;
  *)
    echo "usage: $0 [thread|address|undefined|address,undefined] [build-dir]" >&2
    exit 2
    ;;
esac
BUILD_DIR="${2:-build-${SAN//,/-}}"

cmake -B "$BUILD_DIR" -S . \
  -DFRESQUE_SANITIZE="$SAN" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo

if [[ "$SAN" == thread ]]; then
  # TSan slows execution ~10x; build and run only the suites that exercise
  # cross-thread protocols.
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target concurrency_test tcp_test drain_shutdown_test queue_test net_test \
      durability_test crash_recovery_test telemetry_test overload_test \
      query_engine_test query_concurrency_test obs_test obs_concurrency_test \
      shard_test shard_recovery_test cloud_node_test conservation_test
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R '^(ConcurrencyTest|TcpTest|DrainShutdownTest|CheckingNodeTest|QueueTest|QueueRingTest|NodeTest|SpareBuffersTest|CloudNodeTest|CloudNodeRunTest|ConservationTest|WalTest|SnapshotManagerTest|RecoveryTest|CrashRecoveryTest|RegistryConcurrencyTest|QueueWaitHookTest|AdmissionTest|OverloadPipelineTest|ViewManagerTest|CloudServerViewTest|QueryConcurrencyTest|StreamingQuantilesTest|FlightRecorderTest|HttpServerTest|SamplerTest|ObsServerTest|ObsConcurrencyTest|ShardPlacementTest|ShardRouterTest|ShardedPipelineTest|ShardRecoveryTest)'
else
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi
