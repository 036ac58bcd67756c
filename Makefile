# ZION simulator build/test entry points.
#
#   make build  - compile everything, then vet the benchmark/ module (it
#                 builds the simulator through its public hv/sm/platform
#                 APIs, so an API change that breaks it fails here, and in
#                 make test and make check, which depend on build)
#   make test   - tier-1: full test suite
#   make race   - full test suite under the race detector
#   make lint   - gofmt check, then golangci-lint if installed, else 'go vet'
#                 with a notice
#   make check  - tier-2: lint + race detector on the whole module + one
#                 pass of the pre-bound op loop benchmark, unarmed and under
#                 an armed deadline (BenchmarkRunOps, BenchmarkRunOpsArmed),
#                 of the MMIO exit round trip (BenchmarkMMIOExitRoundTrip),
#                 of a benchmark round's boot (BenchmarkBoot) and of
#                 demand faults on reused frames
#                 (BenchmarkDemandFault), so none can rot + a smoke
#                 fault-injection campaign (fixed seed, 100 faults) + the
#                 compartment-compromise campaign + the host benchmark gate
#                 (also verifies bit-identity; the committed baseline is
#                 left untouched)
#   make bench  - regenerate the paper's evaluation tables
#   make bench-host       - measure the host benchmark ledger (execution
#                           tiers, observability overhead, the multi-hart
#                           sweep, serving), write BENCH_host.json
#   make bench-host-short - same at 1/8 scale, write BENCH_host_short.json
#                           (the committed CI gate baseline)
#   make bench-gate       - re-measure at 1/8 scale and fail if an exact
#                           simulated fingerprint row drifts from the committed
#                           BENCH_host_short.json, a row misses its floor, or
#                           a ratio row regresses >20%
#   make race-engine      - race detector x2 on the parallel engine, the
#                           simulated RAM, the hypervisor's shared window
#                           and the telemetry rings (at -cpu 1,2,4) and
#                           the bench harness (the multi-core CI race lane)
#   make smoke-monitor    - run a guest with the live monitor endpoint armed and
#                           self-scrape /metrics, /healthz and /profile
#   make smoke-serving    - short sustained-serving run (deterministic rerun
#                           checked inside zionbench); writes the latency
#                           histogram artifact serving_hist.json
#   make test-allocs      - pin the zero-allocation contract of Hart.Run over
#                           the one dispatch loop, with and without
#                           pre-bound ops, of trap-cause naming, of the device view's
#                           shared-window copies (a SharedPA hit, a 16-byte
#                           GuestMem.ReadInto, 512-byte ReadInto and
#                           WriteBytes), of stage-2 walk faults, of one
#                           MMIO exit round trip, of one demand fault, of
#                           a store's code-page check, of the TLB's
#                           lookups, fills and flushes, of the virtio-blk
#                           pump and of virtio-net RX delivery; the thin
#                           disk's slab bound; the 8 KiB
#                           bound on booting a 512 MiB RAM; and the
#                           two-allocation bound on registering a
#                           secure pool region
#   make fuzz             - run the native fuzz targets: FuzzLockstep for 60s,
#                           then FuzzDecode, FuzzResume (MMIO, quantum-expiry
#                           and pool-empty exits), FuzzVirtioChain and
#                           FuzzBlkNotify for 30s each

GO ?= go

.PHONY: build test check race race-engine lint smoke smoke-compromise smoke-monitor smoke-serving test-allocs fuzz bench bench-host bench-host-short bench-gate

build:
	$(GO) build ./...
	$(GO) -C benchmark vet ./...

test: build
	$(GO) test ./...

# Under -race one internal/bench pass (the four-tier F4 bit-identity
# test dominates) takes 12-13 minutes on a 2-core host, past go test's
# default 10-minute timeout, so the race targets set their own.
race: build
	$(GO) test -race -timeout 30m ./...

# race-engine stresses the parallel engine and the bench harness under the
# race detector twice over: -count=2 reruns every test in a process whose
# heap/goroutine layout the first pass already perturbed, which is where
# barrier/outbox ordering bugs that a single pristine run misses tend to
# show up. The engine also runs at GOMAXPROCS 1, 2 and 4, so harts that
# finish or post in the same epoch meet in both orders; so do the lock-free
# publications of RAM leaves and pages (internal/mem) and of shared-window
# entries and their cached host pages (internal/hv). So does the record
# ring the flight recorder and the tracer share (internal/telemetry): hart
# goroutines, the engine at a barrier and a peer hart's quarantine write it
# while a monitor reads it.
race-engine:
	$(GO) test -race -timeout 30m -count=2 -cpu 1,2,4 ./internal/platform/... ./internal/mem ./internal/hv ./internal/telemetry
	$(GO) test -race -timeout 60m -count=2 ./internal/bench/...

# lint fails on any file gofmt would rewrite, then prefers golangci-lint
# (.golangci.yml enables govet, staticcheck, errcheck, ineffassign) but
# degrades to plain 'go vet' so 'make check' works on machines without the
# binary.
lint:
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "lint: not gofmt-clean:"; echo "$$unformatted"; exit 1; }
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "lint: golangci-lint not found on PATH; falling back to 'go vet ./...'"; \
		$(GO) vet ./...; \
	fi

check: build
	$(MAKE) lint
	$(MAKE) race
	$(GO) test ./...
	$(GO) test ./internal/hart -run '^$$' -bench BenchmarkRunOps -benchtime 1x
	$(GO) test ./internal/hv -run '^$$' -bench BenchmarkMMIOExitRoundTrip -benchtime 1x
	$(GO) test ./internal/hv -run '^$$' -bench BenchmarkBoot -benchtime 1x
	$(GO) test ./internal/sm -run '^$$' -bench BenchmarkDemandFault -benchtime 1x
	$(MAKE) smoke
	$(MAKE) smoke-compromise
	$(MAKE) smoke-monitor
	$(MAKE) smoke-serving
	$(MAKE) bench-gate

# smoke runs one fixed-seed fault campaign through the zionbench driver:
# quick proof that the robustness path works end to end outside go test.
smoke:
	$(GO) run ./cmd/zionbench -e fi -fiseeds 1 -fifaults 100

# smoke-compromise runs the seeded compartment-compromise campaign: each
# SM compartment corrupted in turn, asserting the blast-radius contract
# (quarantine + post-mortem, bystanders bit-identical, survivors audit
# clean). FIC_SCENARIOS narrows the matrix (CI runs one job per scenario);
# the JSON report doubles as the post-mortem artifact on failure.
smoke-compromise:
	$(GO) run ./cmd/zionbench -e fic -ficseed 1 $(if $(FIC_SCENARIOS),-ficscenarios $(FIC_SCENARIOS)) -ficreport fic_report.json

# smoke-monitor proves the streaming monitor endpoint end to end without
# curl: zionvm serves it on a loopback port, runs a guest with the
# profiler armed, then scrapes its own /metrics, /healthz and /profile
# and exits non-zero if any body is malformed.
smoke-monitor:
	$(GO) run ./cmd/zionvm -workload aes -scale 256 -quantum 30000 -monitorcheck

# smoke-serving drives the multi-queue batched virtio data plane end to
# end outside go test: 20k requests across 8 CVMs, rerun once on a fresh
# stack inside zionbench to check the deterministic fingerprint, with the
# latency histogram written as a CI artifact.
smoke-serving:
	$(GO) run ./cmd/zionbench -e serving -servrequests 20000 -servhist serving_hist.json

# test-allocs is the hot-loop allocation gate: Hart.Run over the one
# dispatch loop, with pre-bound ops (the trace tier), with every
# instruction through execute() (the block tier) and over a loop whose
# side exits chain under an armed deadline, must run allocation-free
# once warm, and so must naming a trap cause (every trap feeds the flight
# recorder); so must the device view's shared-window copies (a SharedPA
# hit, a 16-byte GuestMem.ReadInto, one descriptor read, and 512-byte
# ReadInto and WriteBytes through a page's cached host bytes), a
# stage-2 walk fault taken by value (every MMIO exit and demand fault), one
# warm MMIO exit round trip (SM resume, guest, exit, hypervisor emulation),
# one warm quantum expiry and re-entry for a CVM and for a normal VM
# (TestTimerExitRoundTripAllocs),
# one demand fault on an already-materialized frame (on a fresh frame
# and on a frame a destroy scrubbed and marked clean), a store's
# lock-free code-page check once code pages are registered (every store
# pays it), the TLB's Insert, Lookup, Peek, TouchN and four flushes
# (every world switch flushes twice), and one virtio-blk request through
# post, doorbell, pump and completion (TestBlkPumpZeroAllocs), and so must
# one virtio-net RX frame through buffer post, Inject and completion poll
# (TestNetRXZeroAllocs). On the thin
# disk, a read of a never-written sector and a rewrite of a written one
# allocate nothing, and N first writes at most one slab per 64 sectors
# (TestThinDiskAllocs). Booting a 512 MiB RAM must allocate
# at most 8 KiB (its page directory, TestNewPhysMemoryAllocs), and
# registering a 64 MiB or 1 GiB secure pool region at most twice (the
# region record and one array of its blocks, TestRegisterPoolAllocs). The suite runs
# these anyway; the dedicated target gives CI a cheap job whose failure
# names the regression directly.
test-allocs:
	$(GO) test ./internal/hart ./internal/isa ./internal/ptw ./internal/hv ./internal/sm ./internal/mem ./internal/tlb ./internal/virtio -run 'TestRunBatchSuperblockZeroAllocs|TestTraceDispatchAllocs|TestCauseName|TestWalkFaultReasonAllocs|TestSharedWindowAllocs|TestMMIOExitRoundTripAllocs|TestTimerExitRoundTripAllocs|TestDemandFaultAllocs|TestNoteWriteNonCodeAllocs|TestNewPhysMemoryAllocs|TestTLBAllocs|TestBlkPumpZeroAllocs|TestNetRXZeroAllocs|TestThinDiskAllocs|TestRegisterPoolAllocs' -count=1 -v

# fuzz runs the native fuzz targets for a bounded time each. FuzzLockstep
# (60 s) compares Hart.Run on the trace tier against Step alone over
# fuzzer-chosen instruction words; FuzzDecode (30 s) requires isa.Decode
# never to panic and every valid word to survive re-encoding through the
# isa.Encode* helpers field for field; FuzzResume (30 s) puts fuzzer-chosen
# values in every hypervisor-writable shared-vCPU field after an MMIO-read,
# MMIO-write, quantum-expiry or pool-empty exit (the last answered with a
# run-time FnRegisterPool, as the hypervisor does) and requires
# Check-after-Load to quarantine, apply only the target register, or
# (after a quantum expiry or pool-empty exit) resume the guest at the
# interrupted PC with every register unchanged and the auditor clean;
# FuzzVirtioChain (30 s) writes a hostile guest's descriptor
# table and avail ring into a CVM's shared window and requires the pump to
# fail only with a typed error and to return only in-window segments;
# FuzzBlkNotify (30 s) adds the request buffers and drives the whole
# Blk.Notify, which must fail only typed, match a flat-disk reference
# device byte for byte, and write only into the chains' writable segments
# and the used ring. A failing input is written under the package's testdata/fuzz directory;
# check it in and it becomes a permanent seed that plain 'go test' replays.
fuzz:
	$(GO) test ./internal/hart -run '^$$' -fuzz '^FuzzLockstep$$' -fuzztime 60s
	$(GO) test ./internal/isa -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s
	$(GO) test ./internal/sm -run '^$$' -fuzz '^FuzzResume$$' -fuzztime 30s
	$(GO) test ./internal/hv -run '^$$' -fuzz '^FuzzVirtioChain$$' -fuzztime 30s
	$(GO) test ./internal/hv -run '^$$' -fuzz '^FuzzBlkNotify$$' -fuzztime 30s

bench:
	$(GO) run ./cmd/zionbench

# bench-host times the T1 aes and E4 CoreMark guests under all four
# engines, the aes workload at 1, 2 and 4 harts sequentially vs under the
# quantum-barrier parallel engine, and the serving data plane; the run
# fails if any simulated count diverges between the arms it compares.
bench-host:
	$(GO) run ./cmd/zionbench -e "" -hostbench BENCH_host.json

bench-host-short:
	$(GO) run ./cmd/zionbench -e "" -hostbench BENCH_host_short.json -hostdiv 8

# bench-gate is the CI regression gate: fresh 1/8-scale measurement, gated
# against the committed same-scale baseline. The fresh numbers are written
# to BENCH_host_ci.json (uploaded as a CI artifact, never committed). The
# 4-hart scaling floor binds on hosts with at least 4 cores; elsewhere the
# gate prints the row it skipped.
bench-gate:
	$(GO) run ./cmd/zionbench -e "" -hostbench BENCH_host_ci.json -hostdiv 8 -hostgate BENCH_host_short.json
