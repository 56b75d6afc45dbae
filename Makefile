GO ?= go

.PHONY: build test bench bench-json check trace fleet fleet-shard fleetobs campaign inspect prof snapshot ota

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem .

# Re-measure the committed BENCH_*.json reports. Plain test runs check
# the same assertions but never rewrite them (their wall-clock numbers
# change on every run).
bench-json:
	$(GO) test -count=1 -run 'TestBench.*JSON' -update .

# Formatting + vet + full suite under the race detector.
check:
	sh scripts/check.sh

# Chrome trace of the IoT case study (open in chrome://tracing / Perfetto).
trace:
	$(GO) run ./cmd/cheriot-trace -format chrome -o trace.json

# 1000-device fleet against the shared simulated cloud.
fleet:
	$(GO) run ./cmd/cheriot-fleet -devices 1000 -duration 15s

# 1024-device fleet against the sharded cloud control plane, with
# cloud-initiated fan-out and per-device commands.
fleet-shard:
	$(GO) run ./cmd/cheriot-fleet -devices 1024 -shards 8 -duration 15s \
		-fanout 2s -fanout-cmds

# Traced fleet with the health/SLO pipeline: end-to-end spans to
# fleet-trace.json (chrome://tracing), health series to
# fleet-health.json, and an SLO gate that fails the target (exit 3) on
# violation.
fleetobs:
	$(GO) run ./cmd/cheriot-fleet -devices 64 -shards 4 -duration 14s \
		-fanout 2s -obs -obs-trace fleet-trace.json -obs-health fleet-health.json \
		-slo 'delivery>=0.99;p99<=50ms;crashes<=0;availability>=0.9@12s'

# Every registered fault campaign across a 3-seed matrix, judged by
# SLO rules and fixtures; exits 3 if any scenario×seed cell fails.
campaign:
	$(GO) run ./cmd/cheriot-campaign run all -seeds 3 -par 4

# Snapshot/fork boot side by side: the same 1000-device fleet spun up
# cold (full loader per device) and forked (one cold boot per firmware
# shape, snapshot forks for the rest). Compare the boot phase in the
# host-profile tables and the "snapshot boot:" stats line.
snapshot:
	$(GO) run ./cmd/cheriot-fleet -devices 1000 -duration 2s -hostprof -no-snapshot
	$(GO) run ./cmd/cheriot-fleet -devices 1000 -duration 2s -hostprof

# Staged OTA rollout demo: 48 devices, 2%→10%→50%→100% canary rings
# offered over MQTT from 14s, each widening health-gated on the updated
# cohort's trailing bake window; swaps fork from the new shape's
# snapshot template (watch the "snapshot boot:" line stay at 2 cold
# boots). Run the poisoned variant with
#   go run ./cmd/cheriot-fleet ... -rollout-poison
# to watch the crash threshold trip and the fleet auto-roll-back.
ota:
	$(GO) run ./cmd/cheriot-fleet -devices 48 -shards 2 -duration 72s \
		-rollout 14s -rollout-rings 2,10,50,100 -rollout-bringup 12s -rollout-bake 2s

# Flight-recorder demo: a use-after-free caught by the black box, with
# its capability-provenance chain.
inspect:
	$(GO) run ./cmd/cheriot-inspect -demo

# Cycle-exact compartment profile of the canonical lockstep workload:
# writes prof.json, prints the hotspot table, and diffs against the
# committed baseline (exit 3 on a >50% self-cycle regression).
prof:
	$(GO) run ./cmd/cheriot-fleet -devices 4 -lockstep -duration 12s -seed 1 \
		-hostprof -prof -prof-out prof.json
	$(GO) run ./cmd/cheriot-prof top prof.json
	$(GO) run ./cmd/cheriot-prof diff -threshold 0.5 -min-cycles 1000000 \
		scripts/prof-baseline.json prof.json
