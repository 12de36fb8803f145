GO ?= go

# Repetitions of the race-soak suite; CI trims this for wall time.
RACE_SOAK_COUNT ?= 3

.PHONY: check vet lint lint-concurrency test goldens race race-soak fuzz chaos bench bench-diff telemetry-guard codec-guard ctrl-guard

# The gate used before every commit: the pinned outputs (`goldens`, first
# so a moved golden fails fast, before the long race run), static checks
# (`lint` runs the four analyzers: maporder, nowall, handlecopy and
# lockorder), the full suite under the race detector (the parallel figure
# harness and the live stack make -race meaningful), the telemetry, codec
# and control-plane zero-overhead guards (alloc counts need a non-race
# run), and a short
# coverage-guided fuzz of the chaos schedule decoder + oracles.
check: goldens vet lint race telemetry-guard codec-guard ctrl-guard fuzz

vet:
	$(GO) vet ./...

# The four static checks whose planted defects escaped every runtime gate:
# maporder, nowall and handlecopy (map iteration order, wall-clock reads and
# pooled-record ownership, DESIGN.md §9) and lockorder (DESIGN.md §13).
# Machine-readable findings: go run ./cmd/mdrcheck -json ./...
lint:
	$(GO) run ./cmd/mdrcheck ./...

# The concurrency analyzer on its own (see DESIGN.md §13): lock ordering,
# the one concurrency defect the runtime gates (race, leaktest, race-soak)
# cannot be relied on to hit. `make lint` already runs it as part of the
# full analyzer set; this target is the fast loop while working on
# concurrent code.
lint-concurrency:
	$(GO) run ./cmd/mdrcheck -checks lockorder ./...

test:
	$(GO) test ./...

# Every pinned output in one command — chaos fixture hashes, both chaos
# runners' outcomes over the chaos sweep's seed range
# (internal/chaos/testdata/generated_outcomes.txt), the telemetry and flood
# goldens, the bytes of Quick fig14's telemetry artifacts
# (internal/experiments/testdata/fig14_artifacts.sha256), every figure's Quick CSV
# (internal/experiments/testdata/quick_figures.sha256) and the invariance
# table checked against it (worker, GOMAXPROCS and telemetry knobs), the
# report at shards 2 and 3 against the serial one (the equality mdrbench's
# despart.identical row reads), the router's cost trajectory, the fault
# injector's loss, duplication and reorder positions on both faces of a medium, live-vs-DES
# cross-validation on the routers' exact state encodings, the live boot
# replayed by TestSteppedMeshDeterministic (NET1 and a 160-router scale-free
# graph stepped in a seeded order on a virtual clock: one trace per seed at
# GOMAXPROCS 1 and 2, protonet's hash for every seed), the routing
# agent's seam (no simulator import; a hand-written host drives its clocks,
# pricing and AH) and mdrsim's own outputs (TestOutputsPinned: the bytes of
# -opt, -topo and -fuzz, so OPT's φ and D_T are pinned here too): what a
# refactor runs to show nothing observable moved.
# With them, the state encoding's tests (every field of
# mpda.Router.AppendState seen, the owed ACK the old text digest missed,
# and the encoding moving exactly with the router's accessors over
# generated schedules), the settle rule's scripted poll sequence, the
# differential tests the incremental control plane answers to (successor
# sets against a full recompute, neighbor distances — their shapes and the
# fuzz seed corpus — and the repaired tree against Dijkstra, the maintained T
# against a rebuild, protonet's candidate
# list and the router's weighted pick against the collect-and-sort each
# replaced). About 37 s on a 2-core host.
goldens:
	$(GO) test -count=1 -run 'TestFixturesReplayByteIdentically|TestGeneratedScenariosPinned|TestTelemetryFixtureGolden|TestFloodGoldenDES|TestFigureDeterminism|TestQuickFiguresPinned|TestCostTrajectoryPinned|TestCrossValidation|TestMovedSetMatchesFullRecompute|TestNeighborDistancesMatchDijkstra|FuzzNeighborDistances|TestRepairMatchesDijkstra|TestTablesMatchFreshRebuild|TestStepMatchesSortedScan|TestWeightedPickMatchesSortedKeys|TestShardedReportMatchesSerial|TestFaultSequencePinned|TestAgentImportsNoSimulator|TestAgentOnFakeHost|TestAppendState|TestSettleRule|TestTelemetryArtifactsPinned|TestSteppedMeshDeterministic|TestOutputsPinned' ./cmd/mdrsim ./internal/chaos ./cmd/mdrtrace ./internal/experiments ./internal/router ./internal/node ./internal/pda ./internal/dijkstra ./internal/protonet ./internal/core ./internal/transport ./internal/mpda ./internal/obs

# The whole suite under the race detector. A deadlock fails it at the
# package timeout, so that is set near the work rather than at go's 10
# minutes: 7 m is over twice the slowest package, internal/experiments, at
# 170–185 s raced beside the others on a 2-core host.
race:
	$(GO) test -race -timeout 7m ./...

# Concurrency soak: the packages that own goroutines (lane readers of the
# ARQ conn and the node sessions, simpool workers, telemetry sinks) repeated under
# the race detector with elevated parallelism and allocator stress.
# GOMAXPROCS=16 widens the interleaving space beyond the default runner
# cores; GOGC=5 forces frequent collections so freed-then-reused memory
# surfaces use-after-close bugs; clobberfree poisons freed blocks to turn
# silent stale reads into loud crashes. Every test in these packages is
# leaktest-armed, so the soak also hunts teardown leaks across -count
# repetitions (goroutine IDs are never reused, making repeat runs an
# accumulating leak trap). The timeout is 90 s per repetition, twice what
# the slowest package, internal/node, takes per repetition (about 44 s on a
# 2-core host), so a deadlock fails in minutes, not at go's 10-minute
# default.
race-soak:
	GOMAXPROCS=16 GOGC=5 GODEBUG=clobberfree=1 $(GO) test -race -count=$(RACE_SOAK_COUNT) -timeout $$(( $(RACE_SOAK_COUNT) * 90 ))s ./internal/transport/... ./internal/node ./internal/simpool ./internal/telemetry ./internal/despart ./internal/obs ./internal/dataplane

# Telemetry-overhead guard: with instrumentation disabled (no probes), the
# DES packet hot loop and all sink methods must cost zero allocations, an
# Event must stay 64 bytes, and the live ARQ stats callbacks must stay
# allocation-free even with instruments enabled (they write through
# precomputed atomic handles). On the enabled path TestExportAllocBudget
# holds Emit into a grown ring to zero allocations, a data event the
# 1-in-32 packet sample skips to zero allocations and no ring slot, and
# Export's count flat in the number of events; TestTruncationNamesTheBand
# holds the control band clear of data-band overflow, with drops counted
# and warned of per band. Runs without -race because AllocsPerRun is
# unreliable under the race detector.
telemetry-guard:
	$(GO) test -count=1 -run 'TestTelemetryDisabledZeroAlloc|TestDisabledProbesZeroAlloc|TestNilSinksAreSafe|TestEventSize|TestExportAllocBudget|TestTruncationNamesTheBand' ./internal/des ./internal/telemetry
	$(GO) test -count=1 -run 'TestARQStatsDisabledNil|TestARQStatsEnabledZeroAlloc' ./internal/node

# Codec-overhead guard: frame encode into a reused buffer and scratch
# decode must stay at 0 allocs/op (Decode itself <=1 for the returned
# frame) — the live transport's per-frame budget — and so must a data
# packet sent to a neighbour, or relayed and delivered, through the live
# forwarders on the in-memory fabric (self-delivery <=1, the packet
# OnDeliver may keep). Non-race for the same reason as telemetry-guard.
codec-guard:
	$(GO) test -count=1 -run TestCodecAllocBudget ./internal/wire
	$(GO) test -count=1 -run TestForwarderAllocBudget ./internal/dataplane

# Guard for the control plane and the simulated forwarding decision: an LSU
# into converged tables runs NTU, MTU and the successor re-derivation on
# storage that already exists (one allocation, the ACK), the protonet
# harness delivering it allocates nothing of its own, a simulated router
# forwards a data packet in every mode without allocating, IH and AH
# rebuild and step φ in the storage it already has, and a simulation's
# traffic sources take their packets from the engine's pool. All six skip
# under -race, so `race` alone never runs them.
ctrl-guard:
	$(GO) test -count=1 -run 'TestTablesAllocBudget|TestHandleLSUAllocBudget|TestStepAllocBudget|TestHandleDataAllocBudget|TestAllocationStepsAllocBudget|TestDataPacketsComeFromThePool' ./internal/pda ./internal/mpda ./internal/protonet ./internal/router ./internal/core

# Ten seconds of coverage-guided fuzzing over random chaos schedules with
# every invariant oracle armed, plus ten over the wire-format decoder (the
# live transport's parse boundary), ten over graph edits against the
# shortest-path tree repair, ten over LSU batches against the neighbor
# distances' Dijkstra, ten over protonet schedules against the
# collect-and-sort reference, ten over interleavings of two ARQ machines on a
# lossy, duplicating, reordering lane and ten over hostile peers facing one
# node's sessions; the checked-in corpora replay regardless.
fuzz:
	$(GO) test -run FuzzChaosSchedule -fuzz FuzzChaosSchedule -fuzztime 10s ./internal/chaos
	$(GO) test -run FuzzFrameRoundTrip -fuzz FuzzFrameRoundTrip -fuzztime 10s ./internal/wire
	$(GO) test -run FuzzShardSchedule -fuzz FuzzShardSchedule -fuzztime 10s ./internal/despart
	$(GO) test -run FuzzDataFrame -fuzz FuzzDataFrame -fuzztime 10s ./internal/wire
	$(GO) test -run FuzzRepair -fuzz FuzzRepair -fuzztime 10s ./internal/dijkstra
	$(GO) test -run FuzzNeighborDistances -fuzz FuzzNeighborDistances -fuzztime 10s ./internal/pda
	$(GO) test -run FuzzStepSchedule -fuzz FuzzStepSchedule -fuzztime 10s ./internal/protonet
	$(GO) test -run FuzzARQ -fuzz FuzzARQ -fuzztime 10s ./internal/transport
	$(GO) test -run FuzzSession -fuzz FuzzSession -fuzztime 10s ./internal/node

# Longer randomized sweep: 200 seed-derived scenarios through both runners.
chaos:
	$(GO) run ./cmd/mdrsim -fuzz 200 -des

# The one benchmark (BENCHMARK.json, cmd/mdrbench/README.md): every
# workload's end-to-end metrics plus the per-layer ledger, as one report.
# The previous report is kept so two runs (say, parent and change) can be
# compared. `go run ./cmd/mdrbench -quick` is the ~20 s smoke CI runs.
bench:
	@if [ -f BENCH.json ]; then mv BENCH.json BENCH.prev.json; fi
	$(GO) run ./cmd/mdrbench -out BENCH.json

# Verdict per (workload, metric) of the last two `make bench` reports
# against BENCHMARK.json's bounds; exits 1 on a worse metric or more
# failed operations.
bench-diff:
	$(GO) run ./cmd/mdrbench -diff BENCH.prev.json BENCH.json
