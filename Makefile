GO ?= go

.PHONY: build cross vet lint test race goldens fuzz-smoke benchmark-test benchmark-smoke loc

build:
	$(GO) build ./...

# Builds the module for systems other than Linux: unixes without fdatasync
# (darwin, freebsd), unixes without syscall.Flock (solaris, aix) and
# windows, which has no advisory file lock either (see internal/storage's
# fdatasync_* and sys_* files).
cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=freebsd GOARCH=amd64 $(GO) build ./...
	GOOS=solaris GOARCH=amd64 $(GO) build ./...
	GOOS=aix GOARCH=ppc64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...

vet:
	$(GO) vet ./...

# Non-test Go lines per package directory and in total, outside the
# benchmark module and the analyzers' testdata: the one count a change that
# deletes code quotes before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/analysis/testdata/*' ! -path './.*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# gofmt -l (any file it names fails the gate), go vet, plus prismvet
# (cmd/prismvet), the repo's own analyzer suite for the
# conventions the compiler can't check: *Locked call discipline, refcount and
# epoch pairing, WAL/slab ordering, COW publication, shadowed-error drops.
# Zero unannotated diagnostics is the bar; see internal/analysis/doc.go for
# the invariant catalog and the //prismvet:ignore contract.
lint:
	./scripts/lint.sh

# lint (vet + prismvet) + unit tests (includes the wire-path malformed-RESP
# table, the paper-experiment goldens, and cmd/prismserver's end-to-end
# tests of the real binary: INFO op counts, acked writes across kill -9,
# read-only degrading on a WAL fault, telemetry endpoints) + a -race
# pass over the scan-stress, concurrent-pipelined-client,
# async-compaction, lock-free-read, and write-queue tests (the paths with
# cross-goroutine iterators, epoch pins, shared devices, one server serving
# many connections, background merge commits racing put/get/scan/close,
# lock-free GETs racing all of the above plus Close and the async worker's
# chunked promotion commit, lock-free GETs counted exactly once while write
# batches and stats calls drain their partition's read sink, lock-free GETs
# and iterators racing merges whose retired tables' extents are recycled into
# other partitions' output tables,
# and the write path, where concurrent writers to a partition are batched by
# whichever of them takes its lock: 8 producers × SET/DEL/MSET racing
# lock-free GETs, an open iterator, an async compaction commit, and Close; a
# PutBatch writing one key twice under contention; writers overtaking a batch
# parked in admission; 16 queued writers applied as one batch; writers queued
# across Close and across a degrade; followers of a leader parked in
# admission;
# the admission-credit conservation law across merge-round commits and
# promotion rounds in both compaction modes; a merge round's commit issuing
# its slot frees as one batch, whose async commit drops the lock between
# chunks; the storage fault matrix, whose
# journal row aborts a merge round at its manifest install, and an iterator
# Close whose deferred slot free hits a slab fault; the iterator snapshot
# model check: hinted and unhinted iterators drained under churn and
# background merges must yield exactly the model copied at their creation;
# the lock-free histogram recorded, snapshotted and merged from many
# goroutines; the degrade-before-wake contract: the write after a failed WAL
# write is refused read-only, never answered with the log's sticky error;
# a copy-promoted object's life through merges, writes, deletes and a
# reopen, in both compaction modes and across a crash, and the run of merge
# rounds checked against a full rewrite; a stale flash version kept under a
# pinned NVM key through merges, a demotion or a delete, and a crash; the
# NVM usage a drained background job leaves after a write flood),
# plus the durability
# tests (WAL group commit, crash recovery, fault injection) under -race —
# the group-commit flusher and WaitDurable waiters are cross-goroutine.
test: lint
	$(GO) test ./...
	$(GO) test -race -run 'ConcurrentScansUnderWrites|ConcurrentOpsAcrossPartitions|IteratorSnapshotModelUnderChurn' ./internal/core/
	$(GO) test -race -run 'AsyncConcurrentOpsRaceMergeCommit|AsyncCloseRacesMergeCommit|AsyncModelBasedChurn' ./internal/core/
	$(GO) test -race -run 'LockFreeGetRacesMutators|LockFreeGetRacesPromotionCommit|ReadSinkConcurrentDrain' ./internal/core/
	$(GO) test -race -run 'AsyncReadersRaceExtentRecycling' ./internal/core/
	$(GO) test -race -run 'WriteQueueRacesMutators|PutBatchOrderUnderContention|StalledBatch|StalledDelete|WriteGroup' ./internal/core/
	$(GO) test -race -run 'AdmissionCreditConserved|CommitFreesIssueConcurrently|FaultMatrix|IteratorCloseSlabFaultDegrades|DegradeBeforeWake' ./internal/core/
	$(GO) test -race -run 'CleanCopyLifecycle|MergeWritesOnlyChangedBlocks' ./internal/core/
	$(GO) test -race -run 'PinnedStaleVersionStays|AsyncWriteBackpressure' ./internal/core/
	$(GO) test -race -run 'HistogramConcurrent' ./internal/metrics/
	$(GO) test -race -run 'SnapshotConcurrentReads' ./internal/btree/
	$(GO) test -race -run 'ConcurrentPipelinedClients|GracefulShutdown|DegradedServesReadOnly' ./internal/server/
	$(GO) test -race -run 'Durable' ./internal/core/
	$(GO) test -race ./internal/storage/

# Race-detector pass over the packages with lock-free or multi-goroutine
# paths (manifest snapshots, read views and the COW B-tree, iterator epoch
# pins, shared devices, the network server, async compaction under the bench
# driver, the lock-free histogram and the metrics registry). bench's
# TestExperimentGoldens skips itself here: see its comment.
race:
	$(GO) test -race ./internal/core/ ./internal/btree/ ./internal/sst/ ./internal/simdev/ ./internal/server/ ./internal/storage/ ./internal/metrics/ ./internal/obs/ ./bench/

# Ten seconds of native fuzzing per target beyond its seed corpus: FuzzOpen
# hands sst.Open arbitrary file images (never a panic, never an allocation
# beyond a few times the file's size, every accepted table readable or an
# error); FuzzScanFrames the frame codec of WAL segments and the manifest
# journal (payloads round-trip, a truncated final file is a torn tail and a
# truncated earlier one an error, a flipped payload byte is an error);
# FuzzApplyEdit the manifest journal's edit payloads (never a panic, memory
# in proportion to the payload, every accepted payload is what appendEdit
# writes for the edit it decodes to); FuzzReadCommand the server's RESP
# request decoder (never a panic, memory only for bytes that arrived, every
# accepted command re-encodes to the same arguments); FuzzBTreeModel the
# B-tree's search, insert, delete and every read against a sorted-slice model,
# with snapshots that must not change; FuzzTrackerModel the tracker's
# open-addressing index against the map-indexed tracker it replaced, with a
# run where every key shares one probe cluster.
# Inputs that widen coverage are minimized for at most 2 s each, so the
# budget goes to new inputs. A failing input lands in the package's
# testdata/fuzz/ directory; commit it with the fix as a regression case.
fuzz-smoke:
	$(GO) test ./internal/sst/ -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/storage/ -run '^$$' -fuzz '^FuzzScanFrames$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/storage/ -run '^$$' -fuzz '^FuzzApplyEdit$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/server/ -run '^$$' -fuzz '^FuzzReadCommand$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/btree/ -run '^$$' -fuzz '^FuzzBTreeModel$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/tracker/ -run '^$$' -fuzz '^FuzzTrackerModel$$' -fuzztime 10s -fuzzminimizetime 2s

# Rewrites every pinned output a policy or device-model change can move,
# from the current code: bench/testdata/golden/<id>.txt, the byte-exact
# output of every paper experiment (bench.Experiments) that
# TestExperimentGoldens pins, and the server's INFO goldens that
# TestInfoGolden pins. Run it when such a change moves the numbers on
# purpose, and review the diff it leaves.
goldens:
	$(GO) test ./bench/ -run TestExperimentGoldens -update
	$(GO) test ./internal/server/ -run TestInfoGolden -update

# The repo benchmark (benchmark/, a Go module of its own that the root
# `go test ./...` does not reach): its unit tests, and short end-to-end runs
# that must each verify every reply and fail no operation. serve-get-hot
# is the served GET with no flash or WAL work, every op through the
# connection's buffered telemetry and its fold at the reply flush;
# serve-get-cold exercises the promotion path (async merges, in-memory
# files) and the flash GET's in-place block decode; paper-ycsb-a
# the same merge round run inline, whose three passes must agree bit for bit — a recycled
# buffer read after its time shows up there as a determinism break;
# serve-mixed-durable the backed-file path plus reopen-and-verify. Each run
# issues a fixed number of ops, so a write-path hang (a lost wakeup, an intent
# never signalled) would otherwise sit until the CI job's own limit: timeout
# turns it into a failure that names the workload within two minutes. Each
# result line is written to the inherited stderr (a `tee /dev/stderr` would
# reopen, and so truncate, a log file stderr is redirected to), so
# `make benchmark-smoke > log 2>&1` keeps every workload's line.
benchmark-test:
	cd benchmark && $(GO) test ./...

benchmark-smoke:
	for w in serve-get-hot serve-get-cold paper-ycsb-a serve-mixed-durable; do \
		line=$$(timeout 120 bash benchmark/run.sh --workload $$w --seconds 2 --trace 0 | tail -n 1); \
		printf '%s\n' "$$line" >&2; \
		printf '%s\n' "$$line" | grep -q '"correct":true.*"failed":0' \
			|| { echo "benchmark-smoke: $$w failed an op, or hung and was killed after 120 s" >&2; exit 1; }; \
	done
