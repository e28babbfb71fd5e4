# parseq build/test entry points. `make ci` is the gate every change
# must pass: vet, staticcheck (when installed), formatting, build, the
# full race-enabled test suite, a one-iteration smoke run of the BGZF
# codec and obs-overhead benchmarks, and the metrics-schema and
# live-endpoint smoke tests.

GO ?= go

.PHONY: all build test race race-decode race-convert race-mpinet race-kern race-obs race-shard race-pamx race-daemon vet staticcheck fmt-check bench-smoke bench-decode bench-convert bench-kern bench-shard bench-pamx metrics-smoke metrics-endpoint-smoke daemon-endpoint-smoke fuzz-frame fuzz-kern fuzz-index fuzz-pamx fuzz-conv fuzz-sort fuzz-daemon ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race run over the parallel decode path (zero-copy block API,
# prefetcher, record scanner, BAMZ readahead and their consumers) —
# faster feedback than the full `race` sweep when touching that code.
race-decode:
	$(GO) test -race -count=1 ./internal/bgzf ./internal/bam ./internal/bamx ./internal/sorter

# Focused race run over the parallel convert/write path (byte-slice
# parsing, the SAM text engine with its inline and parallel drains, the
# shared deflate pool and the parpipe pool plumbing under it).
race-convert:
	$(GO) test -race -count=1 ./internal/conv ./internal/sam ./internal/formats ./internal/bgzf ./internal/parpipe

# Focused race run over the rank transports: the transport conformance
# table on both the in-process and TCP worlds, the multi-process
# loopback acceptance tests (byte-identical distributed conversion,
# killed-worker abort) and the flag plumbing.
race-mpinet:
	$(GO) test -race -count=1 ./internal/mpi ./internal/mpinet ./internal/mpiflag

# Focused race run over the word-wide kernels and the packages whose
# hot loops they were wired into (BAM record codec, SAM byte parser,
# format emitters, flagstat tally, BED coordinate parsing). The kernels
# are pure functions, but their zero-copy aliasing helpers deserve the
# race detector's eyes wherever records cross goroutines.
race-kern:
	$(GO) test -race -count=1 ./internal/kern ./internal/bam ./internal/sam ./internal/formats ./internal/flagstat ./internal/bed

# Focused race run over the observability plane: the registry and its
# Prometheus/trace renderers, the cross-rank telemetry gather (channel
# and TCP transports, including the multi-process /metrics acceptance
# tests) and the CLI flag plumbing around them.
race-obs:
	$(GO) test -race -count=1 ./internal/obs ./internal/mpi ./internal/mpinet ./internal/obsflag

# Focused race run over the genomic-range shard layer: the providers
# and the work-stealing drain, the index machinery they cut shards
# from, and the three analyses that ride them — all of whose identity
# tests drive shards across goroutines and both rank transports.
race-shard:
	$(GO) test -race -count=1 ./internal/shard ./internal/bam ./internal/bamx ./internal/flagstat ./internal/hist ./internal/peaks

# Focused race run over the columnar PAMX layer: the column writer and
# projecting reader (whose group decompressors run on the shared codec
# pool), the per-group shard provider, and the two analyses whose
# projection-equivalence tests drive PAMX shards across goroutines.
race-pamx:
	$(GO) test -race -count=1 ./internal/formats/pamx ./internal/shard ./internal/flagstat ./internal/hist

# Focused race run over the daemon: the bounded queue and admission
# paths under a concurrent HTTP burst, job cancellation and panic
# isolation, the fleet lockstep protocol on a loopback worker, and the
# obsflag shutdown hook the graceful drain rides on.
race-daemon:
	$(GO) test -race -count=1 ./internal/daemon ./internal/obsflag

# A short deterministic fuzz pass over the wire-frame decoder: corrupt
# frames must error, never panic or over-allocate.
fuzz-frame:
	$(GO) test -run '^$$' -fuzz 'FuzzFrameDecode' -fuzztime 10s ./internal/mpinet

# Short fuzz passes over the word-wide kernels: every kernel must agree
# with its scalar twin on arbitrary inputs, alignments and lengths.
fuzz-kern:
	$(GO) test -run '^$$' -fuzz 'FuzzUnpackSeq' -fuzztime 10s ./internal/kern
	$(GO) test -run '^$$' -fuzz 'FuzzShiftQual' -fuzztime 10s ./internal/kern
	$(GO) test -run '^$$' -fuzz 'FuzzParseUint' -fuzztime 10s ./internal/kern

# Short fuzz pass over the BAI reader: corrupt index bytes must error,
# never panic, and every accepted index must re-serialise byte-for-byte.
fuzz-index:
	$(GO) test -run '^$$' -fuzz 'FuzzReadIndex' -fuzztime 10s ./internal/bam

# Short fuzz pass over the PAMX footer decoder: corrupt footers must
# error, never panic, and every accepted footer must re-encode
# byte-for-byte and survive the bounds check without panicking.
fuzz-pamx:
	$(GO) test -run '^$$' -fuzz 'FuzzPAMXFooter' -fuzztime 10s ./internal/formats/pamx

# Short fuzz pass over the SAM text engine: arbitrary alignment bytes
# through ConvertSAM and SAM→BAMX preprocessing must never panic, and
# the inline single-worker drain and the parallel stage must leave the
# same bytes or fail with the same first error.
fuzz-conv:
	$(GO) test -run '^$$' -fuzz 'FuzzSAMConvertParity' -fuzztime 10s ./internal/conv

# Short fuzz pass over the coordinate sorter: arbitrary alignment bytes
# through SortSAMToBAM must never panic, and an inline parse with
# three-record runs and a two-worker parse with two-record runs must
# write the same bytes or both fail.
fuzz-sort:
	$(GO) test -run '^$$' -fuzz 'FuzzSortSAMParity' -fuzztime 10s ./internal/sorter

# Short fuzz pass over the daemon's job-spec decoder: arbitrary
# submission bodies must yield a structured error or a spec that
# re-encodes to a fixed point — never a panic.
fuzz-daemon:
	$(GO) test -run '^$$' -fuzz 'FuzzJobSpec' -fuzztime 10s ./internal/daemon

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when the binary is on PATH,
# otherwise skip with a notice (CI images without it must still pass).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping"; \
	fi

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# One iteration of the BGZF benchmarks (sequential + parallel sweeps)
# and the disabled-telemetry overhead guard: catches benchmark bit-rot
# without paying for a real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkBGZF' -benchtime 1x ./internal/bgzf
	$(GO) test -run '^$$' -bench 'BenchmarkParallelBAMScan' -benchtime 1x ./internal/bam
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchtime 1x ./internal/obs
	$(GO) test -run '^$$' -bench 'BenchmarkConvertSAM$$' -benchtime 1x ./internal/conv
	$(GO) test -run '^$$' -bench 'BenchmarkKernSpeedup' -benchtime 1x ./internal/kern
	$(GO) test -run '^$$' -bench 'BenchmarkShardedSpeedup' -benchtime 1x ./internal/shard
	$(GO) test -run '^$$' -bench 'BenchmarkPAMXSpeedup' -benchtime 1x ./internal/shard

# Real measurement of the BAM decode worker sweep (sequential baseline
# vs bam.ParallelScanner at 1/2/4/8 workers), recorded for comparison
# across changes. The JSON wraps `go test -bench` text output with the
# machine's parallelism so runs on different hosts aren't conflated.
bench-decode:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkParallelBAMScan' -benchtime 2x ./internal/bam); \
	status=$$?; echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	{ \
		echo '{'; \
		echo '  "benchmark": "BenchmarkParallelBAMScan",'; \
		echo "  \"cpus\": $$(nproc),"; \
		echo '  "output": ['; \
		echo "$$out" | sed 's/\\/\\\\/g; s/"/\\"/g; s/\t/\\t/g; s/^/    "/; s/$$/",/' | sed '$$ s/,$$//'; \
		echo '  ]'; \
		echo '}'; \
	} > BENCH_decode.json; \
	echo "wrote BENCH_decode.json"

# Real measurement of the pipelined converter: the worker sweep, the
# pre-PR loop baseline, and the paired before/after run whose "speedup"
# metric is the headline number (pairing the two passes per iteration
# and taking per-side minima keeps the ratio meaningful on hosts with
# CPU steal, where separately-timed runs drift 2-4x between runs).
bench-convert:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkConvertSAM$$|BenchmarkConvertSAMPrePR$$' -benchtime 3x ./internal/conv && \
		$(GO) test -run '^$$' -bench 'BenchmarkConvertSAMSpeedup$$' -benchtime 25x ./internal/conv); \
	status=$$?; echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	{ \
		echo '{'; \
		echo '  "benchmark": "BenchmarkConvertSAM",'; \
		echo "  \"cpus\": $$(nproc),"; \
		echo '  "output": ['; \
		echo "$$out" | sed 's/\\/\\\\/g; s/"/\\"/g; s/\t/\\t/g; s/^/    "/; s/$$/",/' | sed '$$ s/,$$//'; \
		echo '  ]'; \
		echo '}'; \
	} > BENCH_convert.json; \
	echo "wrote BENCH_convert.json"

# Real measurement of the word-wide transcoding kernels against their
# scalar twins. The Speedup benchmark interleaves scalar and kernel
# batches per iteration and reports per-side minima, so its "speedup"
# metric holds up on noisy shared hosts; the plain benchmarks record
# absolute MB/s per kernel.
bench-kern:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkKern' -benchtime 100x ./internal/kern); \
	status=$$?; echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	{ \
		echo '{'; \
		echo '  "benchmark": "BenchmarkKern",'; \
		echo "  \"cpus\": $$(nproc),"; \
		echo '  "output": ['; \
		echo "$$out" | sed 's/\\/\\\\/g; s/"/\\"/g; s/\t/\\t/g; s/^/    "/; s/$$/",/' | sed '$$ s/,$$//'; \
		echo '  ]'; \
		echo '}'; \
	} > BENCH_kern.json; \
	echo "wrote BENCH_kern.json"

# Real measurement of region-parallel whole-genome flagstat: the worker
# sweep over both shard providers against the single-stream baselines,
# and the paired before/after run whose "speedup" metric is the
# headline number (per-side minima keep the ratio meaningful on hosts
# with CPU steal).
bench-shard:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkShardedAnalysis' -benchtime 3x ./internal/shard && \
		$(GO) test -run '^$$' -bench 'BenchmarkShardedSpeedup$$' -benchtime 10x ./internal/shard); \
	status=$$?; echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	{ \
		echo '{'; \
		echo '  "benchmark": "BenchmarkShardedAnalysis",'; \
		echo "  \"cpus\": $$(nproc),"; \
		echo '  "output": ['; \
		echo "$$out" | sed 's/\\/\\\\/g; s/"/\\"/g; s/\t/\\t/g; s/^/    "/; s/$$/",/' | sed '$$ s/,$$//'; \
		echo '  ]'; \
		echo '}'; \
	} > BENCH_shard.json; \
	echo "wrote BENCH_shard.json"

# Real measurement of columnar field projection: the worker sweep of
# projected flagstat over PAMX against the row-major BAMX sharded scan,
# and the paired run whose "speedup" and "bytes_inflated_ratio" metrics
# are the headline numbers (projection must inflate ≤30% of the bytes
# the row-major scan reads and beat its records/s by ≥1.5x).
bench-pamx:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkPAMXAnalysis' -benchtime 3x ./internal/shard && \
		$(GO) test -run '^$$' -bench 'BenchmarkPAMXSpeedup$$' -benchtime 10x ./internal/shard); \
	status=$$?; echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	{ \
		echo '{'; \
		echo '  "benchmark": "BenchmarkPAMXAnalysis",'; \
		echo "  \"cpus\": $$(nproc),"; \
		echo '  "output": ['; \
		echo "$$out" | sed 's/\\/\\\\/g; s/"/\\"/g; s/\t/\\t/g; s/^/    "/; s/$$/",/' | sed '$$ s/,$$//'; \
		echo '  ]'; \
		echo '}'; \
	} > BENCH_pamx.json; \
	echo "wrote BENCH_pamx.json"

# End-to-end telemetry check: a real conversion run must produce a
# metrics snapshot with the documented schema (MPI wait, codec
# pipeline gauges, phase walls) and a non-empty trace.
metrics-smoke:
	$(GO) test -run 'TestMetricsSchema' -count=1 ./internal/obsflag

# Live-endpoint check: a -metrics-addr session must serve a scrapeable
# /metrics and /progress and a SIGTERM-killed run must still flush its
# profiles; the subprocess tests cover the 4-rank gather end to end.
metrics-endpoint-smoke:
	$(GO) test -run 'TestMetricsEndpointSmoke|TestSIGTERMFlushesProfiles' -count=1 ./internal/obsflag
	$(GO) test -run 'TestSubprocessObs' -count=1 ./internal/mpinet

# End-to-end daemon check with the real binaries: build seqconvd,
# ngsbench, seqconvert and ngsgen, start the daemon on a loopback port,
# upload a generated SAM, convert it to BED through the job API, and
# verify the streamed result byte-identical to the seqconvert CLI's
# output. SIGTERM then drains the daemon, which must exit 128+15.
daemon-endpoint-smoke:
	@set -e; \
	tmp=$$(mktemp -d); pid=""; \
	trap '[ -n "$$pid" ] && kill "$$pid" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp" ./cmd/seqconvd ./cmd/ngsbench ./cmd/seqconvert ./cmd/ngsgen; \
	"$$tmp/ngsgen" -reads 2000 -format sam -out "$$tmp/tiny" >/dev/null; \
	"$$tmp/seqconvert" -in "$$tmp/tiny.sam" -format bed -out "$$tmp" -prefix ref >/dev/null; \
	"$$tmp/seqconvd" -addr 127.0.0.1:0 -spool "$$tmp/spool" 2> "$$tmp/seqconvd.log" & pid=$$!; \
	base=""; \
	for i in $$(seq 1 100); do \
		base=$$(sed -n 's#.*listening on \(http://[^ ]*\).*#\1#p' "$$tmp/seqconvd.log"); \
		[ -n "$$base" ] && break; sleep 0.1; \
	done; \
	[ -n "$$base" ] || { echo "daemon-endpoint-smoke: seqconvd never came up"; cat "$$tmp/seqconvd.log"; exit 1; }; \
	"$$tmp/ngsbench" -daemon "$$base" \
		-daemon-spec '{"op":"convert","format":"bed"}' \
		-daemon-in "$$tmp/tiny.sam" -daemon-out "$$tmp/got.bed" \
		-daemon-verify "$$tmp/ref_p000.bed"; \
	kill -TERM "$$pid"; \
	wait "$$pid" && rc=0 || rc=$$?; pid=""; \
	[ "$$rc" -eq 143 ] || { echo "daemon-endpoint-smoke: seqconvd exit $$rc, want 143"; cat "$$tmp/seqconvd.log"; exit 1; }; \
	echo "daemon-endpoint-smoke: OK"

ci: vet staticcheck fmt-check build race race-decode race-convert race-mpinet race-kern race-obs race-shard race-pamx race-daemon bench-smoke metrics-smoke metrics-endpoint-smoke daemon-endpoint-smoke
	@echo "ci: all checks passed"
