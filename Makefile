GO ?= go

.PHONY: build test race vet gofmt verify bench bench-smoke bench-json bench-json-smoke fault-smoke bench-json-pr5 workload-smoke bench-json-pr6 verify-smp bench-json-pr7 bench-json-pr8 replay-smoke bench-json-pr9 crash-smoke bench-json-pr10 fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt fails, listing the files, if any Go file is not gofmt-clean.
gofmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "not gofmt-clean:"; echo "$$out"; exit 1; fi

# bench-smoke proves the pipelined-RFS benchmark still runs (one iteration,
# no timing claims) so a protocol change cannot silently rot it, and pins
# the allocation and memory budgets: the SMP scheduler's per pass
# (steady-state passes must not allocate; see TestSMPStepAllocBudget), the
# brk mill's per iteration (the one materialized page plus a small constant,
# so TLB refills stay allocation-free; see TestBrkMillAllocBudget), the
# bytes one fork allocates (TestForkAllocBudget), the live heap of a
# parked process (TestParkedProcessFootprint) and the file system calls'
# (a 512-byte write/lseek/read loop allocates nothing on memfs or blockfs;
# see TestFileSyscallAllocBudget).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRFSPipelined' -benchtime 1x .
	$(GO) test -count=1 -run 'TestSMPStepAllocBudget|TestFileSyscallAllocBudget|TestBrkMillAllocBudget|TestForkAllocBudget|TestParkedProcessFootprint' .

# bench-json records the key memory-pipeline and /proc benchmarks as JSON:
# one run under the NoTLB reference interpreter labeled "before", one with
# the translation fast path labeled "after", merged into BENCH_PR3.json.
bench-json:
	REPRO_NOTLB=1 $(GO) run ./cmd/benchjson -label before -o BENCH_PR3.json
	$(GO) run ./cmd/benchjson -label after -o BENCH_PR3.json

# bench-json-smoke proves the benchjson harness still runs and parses (one
# iteration per benchmark, results to stdout only).
bench-json-smoke:
	$(GO) run ./cmd/benchjson -benchtime 1x -o ''

# fault-smoke is the short fault-injection matrix: every site armed through
# /procx/faults, errnos checked, a seeded storm with the kernel-wide
# invariant checker after every injected fault — all under the race detector.
fault-smoke:
	$(GO) test -race -short -count=1 -run 'TestFaultMatrix|TestFaultStorm|TestFaultPlanDeterminism' .

# bench-json-pr5 records the same benchmark set with the fault sites compiled
# in but disarmed, as BENCH_PR5.json; compare BenchmarkKernelStep against the
# "after" label in BENCH_PR3.json to confirm the disabled-site cost is noise.
bench-json-pr5:
	$(GO) run ./cmd/benchjson -label after -o BENCH_PR5.json

# workload-smoke runs every macro scenario at smoke size plus the seeded
# determinism replay: same seed, bit-identical trace and process table.
workload-smoke:
	$(GO) test -count=1 -run 'TestWorkload' ./internal/workload/

# bench-json-pr6 records the macro-workload suite as BENCH_PR6.json: the
# latency percentiles of every scenario, with the /proc scan at a
# 1000-process population in both modes — batched PIOCSNAP ("batched") and
# the per-pid protocol ("legacy") — plus the micro benchmark set under the
# same "after" label for continuity with BENCH_PR3/BENCH_PR5.
bench-json-pr6:
	$(GO) run ./cmd/benchjson -label after -o BENCH_PR6.json
	$(GO) run ./cmd/benchjson -workload . -wseed 1 -label after -o BENCH_PR6.json

# verify-smp exercises the scheduler CPUs under the race detector: the
# shootdown-barrier mechanics, the NCPU=1 inline CPU (no goroutine across
# Steps, shootdown falls through), the space a CPU publishes after exec,
# the unbilled empty quantum, the pid-ordered wakeup, the run-queue churn,
# the recycled-frame scribblers and checkers, breakpoints planted under a
# running LWP's fetch window and a held pending signal at both widths, the
# fork/wait/signal storm and brk-shootdown programs at NCPU=4, every
# workload scenario at NCPU=4 with the worker goroutine-leak check, host-side /proc controllers racing the scheduler,
# and the mutex-contention profile smoke (the global lock's share of
# sampled wait time stays under budget). The kernel and SMP suites and
# the NCPU=4 workload scenarios then run again under -tags lockdebug, which
# panics on any out-of-order or reentrant lock acquisition and on any
# sleep, wakeup or /proc operation without the global lock. GOMAXPROCS is
# forced up so worker goroutines genuinely interleave even on small hosts.
# Last, both /proc packages, the kernel and rfs run under -tags lockdebug
# with every default-width kernel at NCPU=2 (REPRO_NCPU=2) — simulated
# processes reaching /proc vnode operations from system calls that hold the
# global lock, host-side controllers that must take it, and the scheduler
# CPUs publishing their spaces under rank checks — and then the whole suite
# runs at NCPU=2.
verify-smp:
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestShootdownBarrier|TestOneCPUStepsInline|TestExecRepublishesNewSpace|TestRunLWPNoChargeWhenNothingRan|TestWakeAllPidOrder|TestRunQueueChurn|TestRecycledFramesStayPrivate|TestFetchWindowSeesPlantedBreakpoints|TestHeldSignalClearsIntr|TestSigsuspendPendingUnblocked' ./internal/kernel/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSMP' .
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestWorkloadSMPSmoke' ./internal/workload/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestConcurrentControllers' ./internal/procfs/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSMPMutexContentionSmoke' .
	GOMAXPROCS=4 $(GO) test -tags lockdebug -count=1 ./internal/kernel/
	GOMAXPROCS=4 $(GO) test -tags lockdebug -count=1 -run 'TestSMP|TestConcurrentControllers' . ./internal/procfs/
	GOMAXPROCS=4 $(GO) test -tags lockdebug -count=1 -run 'TestWorkloadSMPSmoke' ./internal/workload/
	REPRO_NCPU=2 $(GO) test -tags lockdebug -count=1 ./internal/procfs/ ./internal/procfs2/ ./internal/kernel/ ./internal/rfs/
	REPRO_NCPU=2 $(GO) test -count=1 ./...

# bench-json-pr7 records the SMP scaling numbers as BENCH_PR7.json: the
# KernelStep scaling curve across NCPU=1/2/4/8 (host_cpus records how many
# cores the host actually had), plus the fork_storm and syscall_mill macro
# scenarios on the deterministic scheduler ("det") and at NCPU=4 ("smp4").
bench-json-pr7:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkKernelStepSMP' -label after -o BENCH_PR7.json
	$(GO) run ./cmd/benchjson -workload 'fork_storm|syscall_mill' -wseed 1 -label det -o BENCH_PR7.json
	$(GO) run ./cmd/benchjson -workload 'fork_storm|syscall_mill' -wseed 1 -ncpu 4 -label smp4 -o BENCH_PR7.json

# bench-json-pr8 records the fine-grained-locking rework as BENCH_PR8.json:
# the KernelStepSMP scaling curve (allocs/op must stay within the per-pass
# budget at every width; host_cpus and gomaxprocs record what the host
# could actually parallelize) and the fork_storm / syscall_mill scenarios
# at NCPU=4. The "before"/"before-smp4" labels in the same file were
# recorded at the big-kernel-lock parent commit; compare against
# "after"/"after-smp4".
bench-json-pr8:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkKernelStepSMP' -label after -o BENCH_PR8.json
	$(GO) run ./cmd/benchjson -workload 'fork_storm|syscall_mill' -wseed 1 -ncpu 4 -label after-smp4 -o BENCH_PR8.json

# replay-smoke is the record/replay gate: the fault-storm soak records,
# replays bit-identically with per-event divergence checking, and the dbg
# time-travel REPL reverse-continues to the injected fault and reverse-steps
# through its neighborhood. REPRO_CKPT sets the checkpoint interval in
# scheduler passes (smaller = cheaper reverse motion, more snapshot memory).
replay-smoke:
	$(GO) test -count=1 -run 'TestRecordReplayBitIdentical|TestReplaySmoke' ./internal/replay/
	$(GO) run ./cmd/dbg -record .replay-smoke.rec
	printf 'i\nb fault\nc\nrc\nrs\nrs\nev 5\nps\nq\n' | REPRO_CKPT=16 $(GO) run ./cmd/dbg -replay .replay-smoke.rec
	rm -f .replay-smoke.rec

# bench-json-pr9 records the record/replay overhead as BENCH_PR9.json:
# BenchmarkKernelStepRecorded (tracing plus the recorder tap) against
# BenchmarkKernelStepTraced from the PR 1 tracing baseline.
bench-json-pr9:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkKernelStep(Traced|Recorded)$$' -label after -o BENCH_PR9.json

# crash-smoke is the crash-consistency gate: the every-ordinal crash storm,
# the EIO matrix and the golden device-write stream under the race detector
# (-short trims the storm to one seed), then one real-binary pass — format a file-backed image, kill it at
# a seeded write ordinal, and prove fsck mounts it, replays the journal and
# finds a clean image.
crash-smoke:
	$(GO) test -race -short -count=1 -run 'TestCrashStorm|TestCrashDuringCheckpoint|TestEIO|TestGoldenDeviceStream' ./internal/blockfs/
	$(GO) run ./cmd/bfs -img .crash-smoke.img mkfs -blocks 1024
	$(GO) run ./cmd/bfs -img .crash-smoke.img crash -seed 7 -ops 40
	$(GO) run ./cmd/bfs -img .crash-smoke.img fsck
	rm -f .crash-smoke.img

# bench-json-pr10 records the persistent-filesystem benchmarks as
# BENCH_PR10.json: the journaled write path and the buffer-cache read hit.
bench-json-pr10:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkBlockFS' -label after -o BENCH_PR10.json

# fuzz-smoke runs each native fuzzer for a few seconds past its checked-in
# seed corpus (testdata/fuzz): the snapshot decoder, both halves of the
# PIOCSNAP ioctl codec, the trace decoder, the replay artifact decoder,
# both halves of every ioctl codec, the rfs server fed request sequences
# over a live /proc, the xout loader and the core file parser.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnap$$' -fuzztime 3s ./internal/procfs2/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapCodec$$' -fuzztime 3s ./internal/rfs/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime 3s ./internal/ktrace/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayDecode$$' -fuzztime 3s ./internal/replay/
	$(GO) test -run '^$$' -fuzz '^FuzzIoctlCodec$$' -fuzztime 3s ./internal/rfs/
	$(GO) test -run '^$$' -fuzz '^FuzzServerHandle$$' -fuzztime 3s ./internal/rfs/
	$(GO) test -run '^$$' -fuzz '^FuzzXoutUnmarshal$$' -fuzztime 3s ./internal/xout/
	$(GO) test -run '^$$' -fuzz '^FuzzParseCore$$' -fuzztime 3s ./internal/kernel/

# verify runs the gofmt check and the tier-1 gate (build + test) plus the
# race detector, vet, the fault-matrix smoke, the workload smoke, the SMP race suite, the
# record/replay smoke, the crash-consistency smoke, the fuzz smoke, and the
# benchmark smoke runs.
verify: gofmt build test race vet fault-smoke workload-smoke verify-smp replay-smoke crash-smoke fuzz-smoke bench-smoke bench-json-smoke

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
