#!/bin/sh
# Repository health check: formatting, vet, and the full test suite under
# the race detector. Run from the repo root (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "ok"

echo "== go vet =="
go vet ./...
echo "ok"

echo "== benchmark module: vet and smoke test =="
# bench/ is its own Go module, so neither go vet nor go test above
# compiles it: a change to an internal API the benchmark calls would
# break its build while every other step stays green.
(cd bench && go vet ./... && go test ./...)
echo "ok"

echo "== benchmark digests (seed 1, one rep) =="
# Every workload's simulated result must hash to its digest in
# bench/expected.json; the benchmark exits non-zero on a mismatch, so any
# moved simulated byte fails the check. It writes no files.
go -C bench run . -seed 1 -reps 1 >/dev/null
echo "ok"

echo "== docs cite only test functions that exist =="
sh scripts/check-doc-tests.sh
echo "ok"

echo "== go test -race =="
go test -race ./...

echo "== fuzz: tagged memory against its oracle (10 s) =="
# Minimization off: by default the fuzzer spends up to 60 s minimizing
# each new input, so the first one would use the whole 10 s budget and
# the step would run a few dozen inputs instead of thousands. A failing
# input is still written to testdata/fuzz/, unminimized.
go test -run '^$' -fuzz '^FuzzMemoryOracle$' -fuzztime 10s -fuzzminimizetime 0 ./internal/mem/
echo "ok"

echo "== fuzz: capability bounds and derivations (10 s) =="
# Every uint32 length rounds to a representable fixed point (or to 0 when
# none fits in 32 bits) in bounded time, SetBoundsExact untags exactly the
# unrepresentable bounds, and no derive, attenuate, seal or unseal
# sequence gains a permission or widens bounds.
go test -run '^$' -fuzz '^FuzzCapBounds$' -fuzztime 10s -fuzzminimizetime 0 ./internal/cap/
echo "ok"

echo "== fuzz: fleet profile specs (10 s) =="
# The -profiles grammar, then Run's validation of what it accepts.
go test -run '^$' -fuzz '^FuzzParseProfiles$' -fuzztime 10s -fuzzminimizetime 0 ./internal/fleet/
echo "ok"

echo "== fuzz: SLO rules (10 s) =="
# The rule grammar: no panic, and every rule it accepts parses back from
# its rendering.
go test -run '^$' -fuzz '^FuzzParseRules$' -fuzztime 10s -fuzzminimizetime 0 ./internal/fleetobs/
echo "ok"

echo "== fuzz: wire codecs (10 s) =="
# Every decoder on one input: no panic, whatever decodes re-encodes to
# the bytes it consumed through the append encoders, and appending onto
# a non-empty buffer keeps its prefix.
go test -run '^$' -fuzz '^FuzzWireCodecs$' -fuzztime 10s -fuzzminimizetime 0 ./internal/netproto/
echo "ok"

echo "== fuzz: frame storms against the IoT deployment (10 s) =="
# Each input is a storm of frames injected into a booted case-study
# device: no panic, and no crash report may name the application
# compartment, whatever the frames.
go test -run '^$' -fuzz '^FuzzFrameStorm$' -fuzztime 10s -fuzzminimizetime 0 ./internal/iotapp/
echo "ok"

echo "== fuzz: audit policies against linker reports (10 s) =="
# Each input is a policy source and a report's JSON: ParsePolicy,
# ParseReport and Check never panic, two checks give the same result,
# and no rule both passes and carries an error.
go test -run '^$' -fuzz '^FuzzPolicy$' -fuzztime 10s -fuzzminimizetime 0 ./internal/audit/
echo "ok"

echo "== kernel loop on thread coroutines (race, 10 runs) =="
# A yielding thread runs the kernel loop on its own coroutine and hands
# the core back to Run's loop, which resumes the next thread; repeat the
# switcher, scheduler and multi-System tests, the libs' ticket-lock,
# queue and multiwait tests (which wake several waiters through each
# thread's one reused waiter), and the case-study stream pins that run
# with both event sinks on, to shake out hand-off races.
go test -race -count=10 ./internal/switcher/ ./internal/sched/ ./internal/core/ \
	./internal/libs/ ./internal/iotapp/
echo "ok"

echo "== dispatch sequence pin (race, 10 runs) =="
# Every context switch of the case study, a 4-device lockstep fleet and
# three equal-priority round-robin threads against
# testdata/dispatch_switches.golden: a change to how the core is handed
# from thread to thread must not reorder a single one.
go test -race -count=10 -run '^TestDispatchSequencePinned$' .
echo "ok"

echo "== broker subscription index (race, 10 runs) =="
# Every shard's dispatch goroutine takes the topic owner's index lock,
# and teardowns on one shard edit another shard's index; repeat the
# broker and control-plane tests to shake out lock-order and index races.
go test -race -count=10 ./internal/netsim/ ./internal/cloud/
echo "ok"

echo "== caller-owned buffers on the publish path (race, 10 runs) =="
# A session's buffers are touched by the device's goroutine and by the
# broker's cloud-originated seals, so sealing and opening use separate
# buffers; the netstack keeps per-thread buffers and the allocator a
# record slab. Repeat their tests to shake out a buffer shared too far.
go test -race -count=10 ./internal/netstack/ ./internal/netproto/ ./internal/alloc/ ./internal/token/
echo "ok"

echo "== session-TTL reaping lockstep = parallel (race) =="
go test -race -count=1 -run 'TestFleetSessionTTLLockstepMatchesParallel' ./internal/fleet/
echo "ok"

echo "== fleet smoke run =="
go run ./cmd/cheriot-fleet -devices 16 -duration 200ms -seed 1 >/dev/null
echo "ok"

echo "== profiled fleet + hotspot regression gate (race) =="
profdir=$(mktemp -d)
# Re-profile the canonical lockstep workload and diff it against the
# committed baseline: the profile is deterministic, so any frame whose
# self-cycles grew >50% (above a 1M-cycle noise floor) is a real
# hotspot regression and fails the check (exit 3).
go run -race ./cmd/cheriot-fleet -devices 4 -lockstep -duration 12s -seed 1 \
	-prof -prof-out "$profdir/prof.json" >/dev/null
go run ./cmd/cheriot-prof diff -threshold 0.5 -min-cycles 1000000 \
	scripts/prof-baseline.json "$profdir/prof.json"
# The diff tolerates growth under its threshold; the profile itself must
# not move at all, so it is also pinned byte for byte. A change that
# moves cycles on purpose rewrites the baseline.
cmp scripts/prof-baseline.json "$profdir/prof.json"
rm -rf "$profdir"
echo "ok"

echo "== sharded-cloud smoke run (race) =="
go run -race ./cmd/cheriot-fleet -devices 32 -shards 4 -duration 14s \
	-fanout 2s -fanout-cmds -seed 1 >/dev/null
echo "ok"

echo "== flight-recorder forensics (race) =="
go test -race -count=1 ./internal/flightrec/
go test -race -count=1 -run 'FlightRecorder|Forensics|Audit' \
	./internal/core/ ./internal/fleet/
echo "ok"

echo "== use-after-free post-mortem pinned byte for byte =="
# The demo's crash report, provenance chain and event tail are a pure
# function of the simulation; any moved byte fails the check. A change
# that moves them on purpose rewrites the golden file.
demo=$(mktemp)
go run ./cmd/cheriot-inspect -demo >"$demo"
cmp scripts/inspect-demo.golden "$demo"
rm -f "$demo"
echo "ok"

echo "== traced fleet + SLO gate (race) =="
obsdir=$(mktemp -d)
# The SLO gate makes this a real check: any delivery loss, crash, or
# latency regression in the traced pipeline fails the run (exit 3).
set -- -devices 8 -shards 2 -duration 14s -fanout 2s -publish-rate 2 -seed 7 -obs \
	-slo 'delivery>=0.99;crashes<=0;p99<=50ms;availability>=0.9@12s'
go run -race ./cmd/cheriot-fleet "$@" -obs-trace "$obsdir/trace.json" \
	-obs-health "$obsdir/health.json" -json >"$obsdir/summary.json"
# A recorded run reads exactly like the live one: cheriot-inspect renders
# the run's JSON Summary byte for byte as cheriot-fleet printed it.
go run ./cmd/cheriot-fleet "$@" >"$obsdir/live.txt" 2>/dev/null
go run ./cmd/cheriot-inspect fleet "$obsdir/summary.json" >"$obsdir/recorded.txt"
cmp "$obsdir/live.txt" "$obsdir/recorded.txt"
rm -rf "$obsdir"
echo "ok"

echo "== snapshot fork = cold boot (race) =="
# The fork ≡ cold-boot identity under the race detector: template
# capture/fork byte-identity, the concurrent template cache, and the
# forked-fleet ≡ cold-fleet summary comparison.
go test -race -count=1 -run 'Snapshot|Fork|Template|Heterogeneous' \
	./internal/mem/ ./internal/snapshot/ ./internal/fleet/
# Concurrent forks each copy the per-word capability store out of one
# shared template snapshot and share its SRAM chunks until they write
# them; repeat the mixed-shape cache test and the concurrent-fork memory
# test to catch a write into shared storage.
go test -race -count=10 -run '^TestCacheConcurrentMixedShapes$' ./internal/snapshot/
go test -race -count=10 -run '^TestSnapshotConcurrentForksWriteApart$' ./internal/mem/
echo "ok"

echo "== scenario campaign smoke suite (race) =="
# The smoke suite (reconnect churn, clock skew, shard failover, and the
# snapshot-fork ≡ cold-boot campaign — small fleets, 2 seeds) judged by
# SLO rules and fixtures; any failed scenario×seed verdict exits
# non-zero and fails the check.
go run -race ./cmd/cheriot-campaign run smoke -seeds 2 -par 4 >/dev/null
echo "ok"

echo "== OTA rollout suite (race) =="
# The whole rollout suite, 2 seeds. rollout-poisoned must PASS *because*
# the rollback fired: its RolledBack fixture demands terminal state
# rolled_back, every device back on the old firmware, cohort crashes
# above the threshold, and the micro-reboots recorded. A rollback that
# silently never triggers — or leaves devices on the poisoned image —
# fails the check. rollout-healthy and rollout-under-partition must
# complete, the latter through a broker partition.
go run -race ./cmd/cheriot-campaign run rollout -seeds 2 >/dev/null
# A firmware swap closes one incarnation and brings up the next through
# the boot path; repeat the swap pin, whose every fault crosses two
# swaps, to shake out races between the swap and the shard goroutines.
go test -race -count=5 -run '^TestRolloutSwapCarriesFaults$' ./internal/fleet/
echo "ok"

echo "== forensics smoke run =="
dumpdir=$(mktemp -d)
go run ./cmd/cheriot-fleet -devices 4 -duration 16s -lockstep \
	-flightrec 512 -pod 13s -dump-dir "$dumpdir" >/dev/null 2>&1
go run ./cmd/cheriot-inspect "$dumpdir"/device-*.json >/dev/null
go run ./cmd/cheriot-inspect -timeline "$dumpdir"/device-*.json >/dev/null
go run ./cmd/cheriot-inspect -chrome "$dumpdir/trace.json" "$dumpdir"/device-*.json 2>/dev/null
rm -rf "$dumpdir"
echo "ok"

echo "all checks passed"
