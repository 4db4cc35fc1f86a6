GO ?= go

.PHONY: build test vet race check ci fuzz fuzz-smoke fleet-smoke crash-torture daemon-smoke perfbench bench bench-overhead bench-faults bench-isolate bench-memo bench-fleet bench-sync bench-steady bench-gate bench-smoke

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order each run,
# flushing out inter-test state dependence; the chosen seed is printed so a
# failing order can be replayed with -shuffle=SEED.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# race exercises the concurrent machinery under the race detector: the
# experiment dispatcher (RunAll workers, singleflight coalescing), the
# metrics registry's atomic instruments, the supervisor's worker pool
# (watchdogs, kills, restarts) with its framed protocol, the fleet
# coordinator (socket transport, work stealing, requeue, node breakers),
# and the job queue (admission, quotas, drain, concurrent submitters).
# The experiments package runs the full determinism suite (isolated, memo,
# fleet, resume, daemon) under the detector, which takes ~11 minutes on a
# single core — past go test's default 10m per-package limit, hence the
# explicit timeout.
race:
	$(GO) test -race -timeout 30m ./internal/experiments/... ./internal/metrics/... ./internal/supervisor/... ./internal/pointproto/... ./internal/fleet/... ./internal/jobqueue/...

# check is the tier-1 gate: everything must pass before a change lands.
check: build vet test race

# ci mirrors .github/workflows/ci.yml locally: the tier-1 gate plus a short
# fuzz smoke over every native fuzz target and the shell-level smokes
# (fleet, crash, daemon).
ci: build vet test race fuzz-smoke fleet-smoke crash-torture daemon-smoke

# fuzz gives each native fuzz target a short budget. The targets guard the
# untrusted-input parsers — the fault-plan grammar, the binary program codec,
# the supervisor wire protocol (frames and point specs), and the point codec
# that decodes cache entries and worker/node results — plus the salvaging
# journal decoder, the crash-recovery path.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/faultinject/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalProgram -fuzztime 10s ./internal/classfile/
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/pointproto/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalSpec -fuzztime 10s ./internal/pointproto/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalHello -fuzztime 10s ./internal/pointproto/
	$(GO) test -run '^$$' -fuzz FuzzDecodePoint -fuzztime 10s ./internal/experiments/
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime 10s ./internal/metrics/

# fuzz-smoke is the CI-sized version of fuzz: a few seconds per target,
# enough to replay the corpus and catch regressions in the parsers.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 3s ./internal/faultinject/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalProgram -fuzztime 3s ./internal/classfile/
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 3s ./internal/pointproto/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalSpec -fuzztime 3s ./internal/pointproto/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalHello -fuzztime 3s ./internal/pointproto/
	$(GO) test -run '^$$' -fuzz FuzzDecodePoint -fuzztime 3s ./internal/experiments/
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime 3s ./internal/metrics/

# fleet-smoke is the shell-level distributed smoke: the real binary runs a
# quick Figure 6 campaign across two loopback `-serve-node` executors and
# the output is diffed against the in-process run (byte-identical or fail).
# The in-repo twin, TestFleetByteIdentical, adds steals and an injected
# disconnect on top.
fleet-smoke:
	./scripts/fleet_smoke.sh

# crash-torture is the shell-level durability smoke: the real binary is
# SIGKILLed at three injected journal offsets (via JVMPOWER_CRASH_JOURNAL),
# -fsck verifies the wreckage offline, and -resume must reproduce the
# uninterrupted run's bytes. The in-repo twin,
# TestKillAnywhereResumeByteIdentical, sweeps the same kill points across
# the isolate and fleet transports too.
crash-torture:
	./scripts/crash_torture.sh

# daemon-smoke is the characterization service's end-to-end check: the
# real binary runs as `-daemon`, curl submits a quick Figure 6 campaign
# whose /result must byte-match the one-shot CLI, a SIGKILL mid-campaign
# must recover byte-identically on restart, and SIGTERM must drain to a
# clean exit 0. The in-repo twins are TestDaemonJobLifecycle,
# TestDaemonOverloadGate, and TestDaemonCrashRecovery.
daemon-smoke:
	./scripts/daemon_smoke.sh

# perfbench runs the repository benchmark (perfbench/, declared in
# BENCHMARK.json): every workload untraced and then traced, at the default
# seed and run length. It takes several minutes, so ci does not run it.
perfbench:
	bash perfbench/all.sh

# bench regenerates BENCH_1.json from the headline figure benchmarks.
bench:
	./bench.sh

# bench-overhead regenerates BENCH_2.json: the observability layer's cost
# on the Fig. 7 hot path (instrumented vs bare; budget <1%).
bench-overhead:
	./bench.sh BENCH_2.json overhead

# bench-faults regenerates BENCH_3.json: the fault layer's disabled-path
# cost on the Fig. 7 hot path (zero-rate plan vs bare; budget <1%).
bench-faults:
	./bench.sh BENCH_3.json faults

# bench-isolate regenerates BENCH_4.json: the isolation machinery's
# disabled-path cost on the Fig. 7 hot path, and the same path against the
# frozen PR 3 baseline (both budgets <1%).
bench-isolate:
	./bench.sh BENCH_4.json isolate

# bench-memo regenerates BENCH_5.json: the sweep-fork memoization speedup
# on the Fig. 7 hot path; the comparison is significance-tested and the
# frozen BENCH_4 median rides along as an environment-tagged legacy
# baseline (the 2x acceptance floor was recorded on that machine).
bench-memo:
	./bench.sh BENCH_5.json memo

# bench-fleet regenerates BENCH_7.json: the socket transport's coordination
# overhead on the Fig. 7 hot path — bare vs every point dispatched to two
# loopback executor nodes (framing, result encoding, scheduling, loopback
# TCP). The fleet_vs_bare comparison is significance-tested; figures are
# byte-identical either way, so the number is pure transport cost.
bench-fleet:
	./bench.sh BENCH_7.json fleet

# bench-sync regenerates BENCH_8.json: the journal durability default's
# price on the Fig. 7 hot path — a real file-backed journal with per-record
# group commit (-journal-sync point) vs buffer-until-Close. The
# sync_point_vs_close comparison is significance-tested; per-point sync
# ships as the default only because this number stays within budget.
bench-sync:
	./bench.sh BENCH_8.json sync

# bench-steady regenerates BENCH_6.json: one in-process series of the
# Fig. 7 benchmark bare and memoized with per-iteration timings, segmented
# into warmup and steady state by changepoint detection, with bootstrap
# percentile CIs on the steady-state medians and a Mann–Whitney-tested
# memo_vs_bare comparison. This is the statistics-sound successor to the
# repetition modes above.
bench-steady:
	./bench.sh BENCH_6.json steady

# bench-gate is the CI regression gate's self-consistency check: two
# independent gate-mode passes of the Fig. 7 benchmark on the same SHA,
# diffed with a significance test. Same code, same machine → the diff
# must be clean; `benchgate diff` exits nonzero only on a statistically
# significant regression above budget, so benchmark noise alone cannot
# fail CI. The complementary direction — a synthetically slowed build
# MUST fire the gate — is enforced by TestDiffGateFiresOnInjectedSlowdown
# in internal/benchstat.
bench-gate:
	./bench.sh bench-gate-a.json gate
	./bench.sh bench-gate-b.json gate
	$(GO) run ./cmd/benchgate diff bench-gate-a.json bench-gate-b.json -budget 5

# bench-smoke is the CI-sized benchmark gate: one repetition of the Fig. 7
# benchmark bare and with the memo store enabled. It is a correctness
# check, not a timing claim — the memo variant fails the run unless the
# store actually hits — so it is the one benchmark target CI runs. The CPU
# profile lands in bench-smoke.prof (with the test binary kept alongside
# for `go tool pprof`) and CI uploads both as an artifact.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig7EDP$$|BenchmarkFig7EDPMemo$$' -benchmem -count=1 -cpuprofile bench-smoke.prof .
