#!/usr/bin/env bash
# Every CI gate, by job: `bash ci.sh <job>...`. The jobs of
# .github/workflows/ci.yml are checkout + setup-go + this script, so what CI
# runs and what runs locally are the same text. No step compares a file with
# itself: protocol constants are exact tests under `go test`, wall-clock
# numbers belong to `bash bench/run.sh`.
set -euo pipefail
cd "$(dirname "$0")"

all_jobs="test bench conformance tracing telemetry chaos multi-instance benchmark serve detector-zoo"

# Built binaries and smoke outputs go to a scratch directory; a failed smoke
# must not leave its daemon behind.
tmp=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$tmp"' EXIT

# floor <pkg> <pct>: statement coverage of pkg under its own tests.
floor() {
  local out pct
  out=$(go test -cover -coverpkg="$1" "$1") || { echo "$out"; return 1; }
  echo "$out"
  pct=$(grep -o 'coverage: [0-9.]*%' <<<"$out" | grep -o '[0-9.]*')
  awk -v p="$pct" -v f="$2" 'BEGIN { exit (p >= f) ? 0 : 1 }' ||
    { echo "$1: coverage ${pct}% is below the $2% floor"; return 1; }
}

# fails <cmd...>: the command must exit nonzero (`! cmd` is exempt from -e).
fails() {
  if "$@"; then
    echo "expected a nonzero exit: $*"
    return 1
  fi
}

# fuzz <target> <pkg>: ten seconds of one fuzz target.
fuzz() { go test -run '^$' -fuzz "$1" -fuzztime 10s "$2"; }

# golines: total lines of the files named on stdin.
golines() { xargs cat | wc -l; }

# fields <pkg>.<Type>: the exported fields of a struct type, as go doc prints
# it; `N, T int` counts two.
fields() {
  go doc "$1" | awk '
    /^type .* struct \{$/ { in_struct = 1; next }
    in_struct && /^\}/ { exit }
    in_struct && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) { n += split(substr($0, 1, RLENGTH), _, ",") }
    END { print n + 0 }'
}

# drain <pid>: SIGTERM the daemon and require a graceful exit 0.
drain() {
  local rc=0
  kill -TERM "$1"
  wait "$1" || rc=$?
  [ "$rc" -eq 0 ] || { echo "drain exit code $rc, want 0"; return 1; }
}

job_test() {
  local unformatted
  unformatted=$(gofmt -l . bench)
  [ -z "$unformatted" ] || { echo "gofmt -l reports:"; echo "$unformatted"; return 1; }
  go vet ./...
  go build ./...
  # ChanNetwork's kernel clock is a Linux timerfd; elsewhere round traffic
  # waits on a timer. Keep that fallback compiling.
  GOOS=darwin go vet ./internal/runtime/
  GOOS=windows go build ./...
  go test -race ./...
  # Part of ./... above; run again by name so a regression in the explorer's
  # worker pool — or a clone writing a message its original already sent —
  # is named in the job log, not buried in a package failure.
  go test -race -run 'TestParallel|TestWidthOneVisitsDepthFirst|TestExploreMerges|TestMaxCrashesCap|TestComputeParallelEquality|TestSentMessagesStayImmutable' ./internal/explore/ ./internal/latency/
  # Every declaration is reached from a program, the root package's exports
  # or an init, or is allowlisted with its reason: a declaration only tests
  # reach is dead code (ROADMAP item 11's "hold the line").
  go test -tags reach -run TestEveryDeclarationIsReached .
  # Every internal package is imported by some program: a package only tests
  # reach is dead code. (bench/ imports nothing a command does not.)
  local orphans
  orphans=$(comm -23 <(go list ./internal/... | sort) <(go list -deps ./cmd/... ./examples/... . | sort))
  [ -z "$orphans" ] || { echo "internal packages no program imports:"; echo "$orphans"; return 1; }
  # The examples are the root package's callers: run each, not just build it.
  local ex
  for ex in examples/*/; do
    echo "go run ./$ex"
    go run "./$ex" >/dev/null
  done
  # The size of the tree and of the root package's surface, so "net lines
  # removed" is read off a job log rather than counted by hand (CHANGES.md).
  local root
  root=$(git ls-files '*.go' | grep -v '^bench/')
  echo "go lines: root non-test $(grep -v '_test\.go$' <<<"$root" | golines)," \
    "root test $(grep '_test\.go$' <<<"$root" | golines), bench $(git ls-files '*.go' | grep '^bench/' | golines);" \
    "internal packages $(go list ./internal/... | wc -l); root exports $(go doc -short . | wc -l)"
  # And the wall-clock reads a virtual clock would have to replace
  # (ROADMAP item 6): printed, not gated.
  echo "clock sites: $(git ls-files 'internal/runtime/*.go' 'internal/fdimpl/*.go' 'internal/faults/*.go' 'internal/serve/*.go' |
    grep -v '_test\.go$' | xargs grep -oE 'time\.(Now|Since|NewTimer|AfterFunc|Sleep|NewTicker|After)\(' | wc -l)"
  # And the live stack's settable options, so "options removed" is read off
  # the same log.
  local t n line="" total=0
  for t in runtime.EngineConfig runtime.ChanConfig runtime.BatcherConfig \
    faults.Config faults.LinkFaults serve.Config; do
    n=$(fields "./internal/$t")
    line+="$t $n, "
    total=$((total + n))
  done
  echo "options: ${line}total $total"
}

# Explorer throughput (runs/sec, allocs/op) has no committed baseline; the
# output is uploaded as the job's artifact.
job_bench() {
  go test -run '^$' -bench Explore -benchmem . | tee bench-explore.txt
}

job_conformance() {
  go test -race -count=2 ./internal/conform/
  # Part of the line above; run again by name so a break in the one event
  # vocabulary (a round-engine stream must project and replay to its own
  # run) is named in the job log.
  go test -race -run 'TestRoundTrip|FuzzAdversarySchedule|TestObsCountersMatchRunTotals' ./internal/conform/ ./internal/rounds/
  # Round synchrony, Lemma 4.1 and the crash budget are each one function
  # over rounds.Receptions: an execution written as an engine run, an
  # emulation result and a live stream gets one verdict, every explorer run
  # at n=3 t=1 is admissible and a moved dropper crash is flagged, a crash
  # round moved off the round recording the crash breaks crash consistency,
  # and the RWS emulation conforms with no tolerance.
  go test -race -run 'OneChecker|TestObligationRuleMatchesLemma41|TestExplorerRunsMeetTheRoundProperties|TestCrashConsistencyPinsCrashRound|TestEmulRWSConformance|TestResultLemma41Bound' ./internal/conform/ ./internal/rounds/ ./internal/emul/
  fuzz FuzzAdversarySchedule ./internal/conform/
  fuzz FuzzFaultSpec ./internal/conform/
  floor ./internal/check/ 85
  floor ./internal/conform/ 85
  floor ./internal/rounds/ 90
  # The step layer the §4 emulations and Theorem 3.1's refuter run on:
  # crashes due together fire in id order, a crash plan is only read (a
  # reused plan crashes every run), and a crash planned at step 0 fires.
  go test -race -run 'TestCrashPlans|TestSSSchedulerCrashAtStepZero|TestRunRWSSimultaneousCrashes' ./internal/step/ ./internal/emul/
  floor ./internal/emul/ 96
  floor ./internal/step/ 88
  floor ./internal/sdd/ 82
}

job_tracing() {
  go test -race -run 'TestChrome|TestHTML|TestAttribut|TestReconcile|TestLive|TestTracer' ./internal/tracing/
  # A process that sends and crashes in one round never waited: its send
  # phase runs to the crash and no wait span opens.
  go test -race -run 'TestTracerCrashInSendPhaseOpensNoWait' ./internal/tracing/
  # The round model and the live worker must emit one event dialect: a
  # synthetic trace is the live Tracer over the model's stream.
  go test -race -run 'TestDriverSpeaksTheModelsDialect' ./internal/runtime/
  go test -race -count=2 ./cmd/ssfd-run/ ./cmd/ssfd-trace/ ./cmd/ssfd-bench/
  floor ./internal/tracing/ 85
}

job_telemetry() {
  go test -race -count=2 ./internal/netobs/ ./internal/wire/
  # One count per fact: after a chaos run every Engine.Stats figure equals
  # its registry family, and /v1/status agrees with a /metrics scrape.
  go test -race -count=2 -run 'TestEngineStatsMatchMetrics|TestChaosStatusMatchesMetrics' ./internal/runtime/ ./internal/serve/
  fuzz FuzzDecode ./internal/wire/
  fuzz FuzzBatchSplit ./internal/wire/
  floor ./internal/netobs/ 85
  # Flight-recorder smoke: SIGQUIT a conforming live run mid-flight (a 2s
  # round duration keeps it alive long enough), expect the dump-and-exit
  # path (code 2), then prove the dump parses back through ssfd-trace.
  go build -o "$tmp/ssfd-run" ./cmd/ssfd-run
  go build -o "$tmp/ssfd-trace" ./cmd/ssfd-trace
  "$tmp/ssfd-run" -alg FloodSet -model RS -values 3,1,2 -conform -round-duration 2s -flight "$tmp/flight.jsonl" &
  local pid=$! rc=0
  sleep 2
  kill -QUIT "$pid"
  wait "$pid" || rc=$?
  [ "$rc" -eq 2 ] || { echo "SIGQUIT exit code $rc, want 2"; return 1; }
  test -s "$tmp/flight.jsonl"
  "$tmp/ssfd-trace" -flight "$tmp/flight.jsonl"
}

# The injector only decides and the mesh holds a delayed packet: the
# goroutine peak under spikes and reorders stays the fault-free one
# (TestChaosGoroutinesBounded), a held packet waits in ChanNetwork's delivery
# queue (TestChanNetworkSendAfter) or on a TCP timer (TestTCPSendAfter), and
# what is still in flight at Close is counted as dropped
# (TestClusterCostConservation), and a 30%-loss mesh starves rounds into
# WaitBound halts but never splits a decision
# (TestEngineLossyMeshKeepsAgreement). Named here so a regression shows by
# name.
job_chaos() {
  go test -race -count=2 ./internal/faults/ ./internal/runtime/
  go test -race -count=2 -run 'TestChaosGoroutinesBounded|TestChanNetworkSendAfter|TestTCPSendAfter|TestEngineLossyMeshKeepsAgreement' ./internal/runtime/
  go test -race -count=2 -run 'TestClusterCostConservation' ./internal/netobs/
  go test -race -count=2 -run 'TestAllExperimentsPass' ./internal/core/
  go run ./cmd/ssfd-bench -faults "loss=0.3,seed=7"
  go run ./cmd/ssfd-bench -faults "spike=3ms-8ms@0.5,seed=7"
  fails go run ./cmd/ssfd-bench -faults "part=3@0ms+100ms,seed=7"
}

# The engine's equivalence guarantees (sharded == unsharded == the round
# model), crash-stop on the multiplexed mesh, halting at quiescence, the
# exact per-decision costs (TestEngineCostShape, TestClusterDataCost,
# TestEngineCostExactAtCallback), the first-decision callback a serving layer
# commits at (TestEngineDecidedCallback: once, before the halt callback, at
# the round the latency degrees predict), the detector's Observe contract, the
# in-process mesh's delivery queues and kernel clocks (TestChanNetwork*, Close
# racing Send included; TestDeliveryQueue*; and TestPeekControl for the
# classification the clock is gated on), the detectors' one send seam
# (TestDetectorSend*, TestDetectorRegistry*), the batcher's buffer-ownership
# discipline with no lock and no goroutine of its own (TestBatch*), and the
# one owner of every round packet — the worker that batched it is the worker
# that decodes it, clean and under duplication and reordering
# (TestEnginePacketsHaveOneOwner, TestEngineOwnershipUnderFaults) — the
# receiver that files its sender's own message when the bytes match and
# decodes the frame when they do not, both kinds in one row too
# (TestEngineFilesSendersMessage, TestEngineDecodesFramesUnlikeTheSent,
# TestEngineMixedRowFilesAndDecodes), sent messages that sender,
# self-delivery and peers share and nobody rewrites
# (TestEngineSharedMessagesStayAsSent), the header-only split
# (TestSplitAllocatesNothing, TestDecodeHostileCounts), the per-sweep
# histogram fold (TestHistogramTallyFolds) and the worker's sweep stepped
# with no mesh or clock — every n=3 t=1 run of the round model replayed
# through it (TestDriverMatchesRoundModel), §5.3 scripted
# (TestDriverA1DisagreesInRWS) and the WaitBound halt
# (TestDriverWaitBoundHaltsUndecided) — are what -race -count=2 shakes out.
job_multi_instance() {
  go test -race -count=2 -run 'TestEngine|TestStartEngine|TestOpenAfterAbort|TestBatch|TestCluster|TestAgreement|TestLiveRSA1|TestChanNetwork|TestDeliveryQueue|TestPeekControl|TestDetectorSend|TestDetectorRegistry|TestEnginePacketsHaveOneOwner|TestEngineOwnershipUnderFaults|TestEngineFilesSendersMessage|TestEngineDecodesFramesUnlikeTheSent|TestEngineMixedRowFilesAndDecodes|TestEngineSharedMessagesStayAsSent|TestSplitAllocatesNothing|TestDecodeHostileCounts|TestHistogramTallyFolds|TestDriverMatchesRoundModel|TestDriverA1DisagreesInRWS|TestDriverWaitBoundHaltsUndecided' ./internal/runtime/ ./internal/wire/ ./internal/obs/
  go test -race -count=2 -run 'TestCrashOnMultiplexedMesh' ./internal/fdimpl/
  # A node's receive function runs on the mesh's delivery goroutines: over
  # TCP one per peer connection, so concurrently. Named so a break in the
  # Listen handover or a race on that path is named in the job log.
  go test -race -count=2 -run 'TestEngineRWSOverTCP|TestChanNetworkListenHandover|TestTCPNetworkListenHandover' ./internal/runtime/
  floor ./internal/wire/ 85
  floor ./internal/runtime/ 85
  # Exit 1 unless every instance reaches agreement.
  go run ./cmd/ssfd-bench -engine 2000 -engine-nodes 5
}

# bench/ is its own module, so the root `go build ./...` never compiles it:
# vet and test it, then run the shortest real workload end to end so a
# runtime refactor cannot silently break the repo benchmark. The driver's
# last line is its result as JSON; n=3 t=1 FloodSetWS halts at quiescence
# after T+1 = 2 rounds.
job_benchmark() {
  go -C bench vet ./...
  go -C bench test ./...
  bash bench/run.sh --workload engine_lat --seed 1 --seconds 2 --trace 0 | tee "$tmp/engine_lat.out"
  tail -n 1 "$tmp/engine_lat.out" | jq -e '.correct == true and .failed == 0 and .metrics.rounds_per_commit.value == 2'
  # And the saturating one, where a data-path change that loses or degrades
  # instances shows as failed > 0; n=5 t=2 halts after T+1 = 3 rounds.
  bash bench/run.sh --workload engine_sat --seed 1 --seconds 2 --trace 0 | tee "$tmp/engine_sat.out"
  tail -n 1 "$tmp/engine_sat.out" | jq -e '.correct == true and .failed == 0 and .metrics.rounds_per_commit.value == 3'
  # And the daemon path, whose HTTP goroutines share the cores with the
  # mesh's drain goroutines: every CAS must still commit. It is answered at
  # its instance's round-1 decision, and the instance still floods through
  # round T+1 = 2 behind the answer — the count is read after the tails.
  bash bench/run.sh --workload kv_write --seed 1 --seconds 2 --trace 0 | tee "$tmp/kv_write.out"
  tail -n 1 "$tmp/kv_write.out" | jq -e '.correct == true and .failed == 0 and .metrics.rounds_per_commit.value == 2'
  # And two closed-loop clients on one hot key, where GETs that never reach
  # the engine compete for the cores with round deliveries.
  bash bench/run.sh --workload kv_hot_mixed --seed 1 --seconds 2 --trace 0 | tee "$tmp/kv_hot_mixed.out"
  tail -n 1 "$tmp/kv_hot_mixed.out" | jq -e '.correct == true and .failed == 0 and .metrics.rounds_per_commit.value == 2'
}

# The serving stack is concurrency all the way down (closed-loop clients,
# one engine callback committing KV versions at the first decision and another
# settling them at the halt, drain racing late proposals and running tails, a
# mutexed trace sampler hammered from every handler).
job_serve() {
  go test -race -count=2 ./internal/serve/ ./cmd/ssfd-serve/ ./cmd/ssfd-load/
  fuzz FuzzServeRequest ./internal/serve/
  floor ./internal/serve/ 85
  go build -o "$tmp/ssfd-serve" ./cmd/ssfd-serve
  go build -o "$tmp/ssfd-load" ./cmd/ssfd-load
  go build -o "$tmp/ssfd-trace" ./cmd/ssfd-trace
  local pid id url out before after rc=0

  # A write is committed at its instance's first decision, so the daemon
  # refuses, at the flag, an algorithm that is not uniform in RWS, and the
  # default is the one that decides a unanimous proposal in round 1.
  "$tmp/ssfd-serve" -alg FloodSet 2>"$tmp/refused.err" || rc=$?
  [ "$rc" -eq 2 ] && grep -q 'FloodSetWS, C_OptFloodSetWS, F_OptFloodSetWS' "$tmp/refused.err" ||
    { echo "ssfd-serve -alg FloodSet: exit $rc, want 2 and the served set named"; cat "$tmp/refused.err"; return 1; }

  # Idle-burn smoke: a daemon nobody talks to exchanges heartbeats and
  # nothing else, so its inboxes must stay on their timers (no kernel clock)
  # and only heartbeats and the workers' suspicion polls wake it. utime+stime over 5 s reads 31-45
  # ticks here; heartbeats on the kernel clock read 91-107, and a spinning
  # goroutine that paced heartbeats read 168-265.
  "$tmp/ssfd-serve" -addr 127.0.0.1:18079 -nodes 3 -t 1 >"$tmp/banner.out" &
  pid=$!
  sleep 1
  head -n 1 "$tmp/banner.out" | grep -q ' C_OptFloodSetWS on http://' ||
    { echo "the daemon's banner does not name C_OptFloodSetWS:"; cat "$tmp/banner.out"; return 1; }
  before=$(awk '{ print $14 + $15 }' "/proc/$pid/stat")
  sleep 5
  after=$(awk '{ print $14 + $15 }' "/proc/$pid/stat")
  echo "idle daemon: $((after - before)) CPU ticks in 5 s"
  [ $((after - before)) -le 100 ] || { echo "an idle daemon burned $((after - before)) CPU ticks in 5 s, want at most 100"; return 1; }
  drain "$pid"

  # Daemon smoke: boot the real binary, drive a linearizability-checked load
  # through the KV surface over TCP, then require a graceful drain with a
  # clean conformance verdict.
  url=http://127.0.0.1:18080
  "$tmp/ssfd-serve" -addr "${url#http://}" -nodes 3 -t 1 -conform &
  pid=$!
  sleep 1
  "$tmp/ssfd-load" -addr "$url" -clients 16 -keys 8 -ops 10 -check
  drain "$pid"

  # Introspection smoke: every request sampled; pull a request id off
  # /v1/debug/traces, fetch its record, and round-trip it through
  # ssfd-trace -serve, which re-verifies the exact-sum attribution.
  url=http://127.0.0.1:18081
  "$tmp/ssfd-serve" -addr "${url#http://}" -nodes 3 -t 1 -conform -trace-sample 1 &
  pid=$!
  sleep 1
  "$tmp/ssfd-load" -addr "$url" -clients 8 -keys 4 -ops 10 -check -slowest 3
  id=$(curl -s "$url/v1/debug/traces" | grep -o '"id":"r[0-9]*"' | awk -F'"' 'NR == 1 { print $4 }')
  [ -n "$id" ] || { echo "no sampled trace id on /v1/debug/traces"; return 1; }
  curl -sf "$url/v1/debug/trace/$id" | grep -q '"phases"' || { echo "trace $id not retrievable"; return 1; }
  curl -sf "$url/v1/debug/trace/$id?format=chrome" >/dev/null
  curl -sf "$url/v1/debug/keys" | grep -q '"attempts"' || { echo "hot-key table empty"; return 1; }
  # Captured first: grep -q stops reading at its match, and under pipefail
  # the lines ssfd-trace still writes would fail the pipe with SIGPIPE.
  out=$("$tmp/ssfd-trace" -serve "$url" "$id") && grep -q 'phases tile the total exactly' <<<"$out" ||
    { echo "ssfd-trace -serve failed to verify $id"; return 1; }
  drain "$pid"
}

job_detector_zoo() {
  go test -race -count=2 ./internal/fdimpl/
  # The one suspicion rule in DetectorCore, by name: a silent peer stays
  # suspected across another peer's retraction, and concurrent pollers grow
  # a window once per retraction edge.
  go test -race -count=10 -run 'TestSilentPeerStaysSuspectedAcrossRetraction|TestConcurrentPollsGrowOncePerRetraction' ./internal/fdimpl/
  floor ./internal/fdimpl/ 85
  # Race the full zoo clean and under one chaos schedule (exit 1 if any
  # supported construction loses completeness), swap a zoo detector into a
  # conforming live run, and prove unknown names are rejected.
  go run ./cmd/ssfd-bench -detectors -seed 7
  go run ./cmd/ssfd-bench -detectors -faults "loss=0.2,spike=2ms-5ms@0.3,seed=7"
  # The two experiments whose detectors run on a zero-instance engine (E14's
  # adaptive soak, E15's race), by name in the job log.
  go run ./cmd/ssfd-bench -only E14
  go run ./cmd/ssfd-bench -only E15
  go run ./cmd/ssfd-run -alg FloodSetWS -model RWS -values 0,1,2 -conform -detector ring
  fails go run ./cmd/ssfd-run -alg FloodSetWS -model RWS -values 0,1,2 -conform -detector nosuch
}

[ $# -gt 0 ] || { echo "usage: bash ci.sh <job>...   jobs: $all_jobs"; exit 2; }
for job in "$@"; do
  case " $all_jobs " in
  *" $job "*) ;;
  *) echo "ci.sh: unknown job '$job' (jobs: $all_jobs)"; exit 2 ;;
  esac
  echo "== $job"
  "job_${job//-/_}"
done
