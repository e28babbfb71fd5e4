package conv

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/bgzf"
	"parseq/internal/formats"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

// engineRecords sizes the engine tests' datasets: ~800 KB of SAM, so
// every rank's range spans several 256 KiB batches and the batch
// boundaries (the streamed source's carry, the mapped cut, the ordered
// drain) are exercised. engineWorkers and engineCores are the identity
// sweep: 0 is the adaptive default, 1 the inline drain, more the
// parpipe stage.
const engineRecords = 3000

var (
	engineWorkers = []int{0, 1, 2, 4, 8}
	engineCores   = []int{1, 2, 3}
)

// forEachSource runs fn once over the mmap'd partitions and once with
// mapping disabled, so the streamed-chunk fallback sees every test too.
func forEachSource(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("mapped", fn)
	t.Run("streamed", func(t *testing.T) {
		old := mmapInput
		mmapInput = func(*os.File) ([]byte, func(), error) { return nil, nil, errors.New("mapping disabled") }
		defer func() { mmapInput = old }()
		fn(t)
	})
}

// TestPipelinedConvertSAMByteIdentity is the engine's contract: for
// every registered target format, at every worker and rank count, the
// rank files concatenate to the reference encoding of the dataset's
// records (expected), and the stats count exactly its records, its
// non-empty encodings and its bytes.
func TestPipelinedConvertSAMByteIdentity(t *testing.T) {
	samPath, _, d := writeDataset(t, engineRecords)
	forEachSource(t, func(t *testing.T) {
		for _, format := range formats.Names() {
			want := expected(t, d, format)
			wantEmitted := emittedRecords(t, d, format)
			for _, workers := range engineWorkers {
				for _, cores := range engineCores {
					res, err := ConvertSAM(samPath, Options{
						Format: format, Cores: cores, ParseWorkers: workers,
						OutDir: t.TempDir(), OutPrefix: "t",
					})
					if err != nil {
						t.Fatalf("ConvertSAM(%s, workers=%d, cores=%d): %v",
							format, workers, cores, err)
					}
					if got := concatFiles(t, res.Files); got != want {
						t.Errorf("%s workers=%d cores=%d output differs from reference (got %d bytes, want %d)",
							format, workers, cores, len(got), len(want))
					}
					if res.Stats.Records != int64(len(d.Records)) {
						t.Errorf("%s workers=%d cores=%d Records = %d, want %d",
							format, workers, cores, res.Stats.Records, len(d.Records))
					}
					if res.Stats.Emitted != wantEmitted {
						t.Errorf("%s workers=%d cores=%d Emitted = %d, want %d",
							format, workers, cores, res.Stats.Emitted, wantEmitted)
					}
					if res.Stats.BytesOut != int64(len(want)) {
						t.Errorf("%s workers=%d cores=%d BytesOut = %d, want %d",
							format, workers, cores, res.Stats.BytesOut, len(want))
					}
				}
			}
		}
	})
}

// emittedRecords counts the records whose reference encoding is
// non-empty — the converter's Emitted tally.
func emittedRecords(t *testing.T, d *simdata.Dataset, format string) int64 {
	t.Helper()
	enc, err := formats.New(format)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	var out []byte
	for i := range d.Records {
		if out, err = enc.Encode(out[:0], &d.Records[i], d.Header); err != nil {
			t.Fatal(err)
		}
		if len(out) > 0 {
			n++
		}
	}
	return n
}

// inflateFile returns the decompressed BGZF stream of a file.
func inflateFile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := io.ReadAll(bgzf.NewReader(f))
	if err != nil {
		t.Fatalf("inflating %s: %v", path, err)
	}
	return raw
}

// bamReference writes a BAM file of h plus pre-encoded records through
// the sequential codec and returns its bytes.
func bamReference(t *testing.T, h *sam.Header, records []byte) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.bam")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := bam.NewWriter(f, h, bam.WithCodecWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteEncoded(records); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPipelinedConvertSAMToBAMByteIdentity pins the binary target
// against the dataset's own bam.EncodeRecord bodies: every shard
// inflates to the BAM header plus a run of those bodies, the runs
// concatenate to all of them in order, and each shard's compressed
// bytes equal that run written through the sequential codec — both with
// the per-stream codec pinned sequential and with the adaptive default
// that attaches the shards to the shared deflate pool.
func TestPipelinedConvertSAMToBAMByteIdentity(t *testing.T) {
	samPath, _, d := writeDataset(t, engineRecords)
	var bodies []byte
	for i := range d.Records {
		var err error
		if bodies, err = bam.EncodeRecord(bodies, &d.Records[i], d.Header); err != nil {
			t.Fatal(err)
		}
	}
	hdr := inflateFile(t, writeBytes(t, bamReference(t, d.Header, nil)))
	// refs[cores] holds the reference shards of a cores-rank run, built
	// from the first such run once its content checks out; every worker
	// count, codec and batch source must then match them byte for byte.
	refs := map[int][][]byte{}
	reference := func(t *testing.T, cores int, files []string) [][]byte {
		if r, ok := refs[cores]; ok {
			return r
		}
		var r [][]byte
		rest := bodies
		for i, f := range files {
			raw := inflateFile(t, f)
			if !bytes.HasPrefix(raw, hdr) {
				t.Fatalf("cores=%d shard %d lacks the BAM header", cores, i)
			}
			run := raw[len(hdr):]
			if !bytes.HasPrefix(rest, run) {
				t.Fatalf("cores=%d shard %d records differ from the encoded dataset", cores, i)
			}
			rest = rest[len(run):]
			r = append(r, bamReference(t, d.Header, run))
		}
		if len(rest) != 0 {
			t.Fatalf("cores=%d: shards miss the last %d encoded bytes", cores, len(rest))
		}
		refs[cores] = r
		return r
	}
	forEachSource(t, func(t *testing.T) {
		for _, workers := range engineWorkers {
			for _, cores := range engineCores {
				for _, codec := range []int{1, 0} { // 0 = adaptive → shared pool
					res, err := ConvertSAMToBAM(samPath, Options{
						Cores: cores, ParseWorkers: workers, CodecWorkers: codec,
						OutDir: t.TempDir(), OutPrefix: "shard",
					})
					if err != nil {
						t.Fatalf("ConvertSAMToBAM(workers=%d, cores=%d, codec=%d): %v", workers, cores, codec, err)
					}
					if res.Stats.Records != int64(len(d.Records)) {
						t.Errorf("workers=%d cores=%d codec=%d Records = %d, want %d",
							workers, cores, codec, res.Stats.Records, len(d.Records))
					}
					want := reference(t, cores, res.Files)
					for i, f := range res.Files {
						got, err := os.ReadFile(f)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want[i]) {
							t.Errorf("workers=%d cores=%d codec=%d shard %d differs from the sequential-codec reference (%d vs %d bytes)",
								workers, cores, codec, i, len(got), len(want[i]))
						}
					}
				}
			}
		}
	})
}

// writeBytes stores b in a fresh temp file and returns its path.
func writeBytes(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPipelinedPreprocessedConverterIdentity covers the psam path end to
// end: SAM→BAMX preprocessing at every worker count feeds conversions
// equal to the reference encoding.
func TestPipelinedPreprocessedConverterIdentity(t *testing.T) {
	samPath, _, d := writeDataset(t, 500)
	want := expected(t, d, "fastq")
	for _, workers := range engineWorkers {
		for _, preCores := range engineCores {
			res, err := ConvertSAMPreprocessed(samPath, preCores, Options{
				Format: "fastq", Cores: 2, ParseWorkers: workers,
				OutDir: t.TempDir(), OutPrefix: "t",
			})
			if err != nil {
				t.Fatalf("ConvertSAMPreprocessed(workers=%d, M=%d): %v", workers, preCores, err)
			}
			if got := concatFiles(t, res.Files); got != want {
				t.Errorf("workers=%d M=%d preprocessed conversion differs from reference", workers, preCores)
			}
		}
	}
	// The preprocessing entry point itself, with explicit parse workers.
	pre, err := PreprocessSAMParallelWorkers(samPath, t.TempDir(), "pp", 3, 4)
	if err != nil {
		t.Fatalf("PreprocessSAMParallelWorkers: %v", err)
	}
	if pre.Records != 500 {
		t.Errorf("preprocessed Records = %d, want 500", pre.Records)
	}
	res, err := ConvertPreprocessed(pre.BAMXFiles, pre.BAIXFiles, Options{
		Format: "fastq", Cores: 1, OutDir: t.TempDir(), OutPrefix: "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := concatFiles(t, res.Files); got != want {
		t.Error("preprocessed shards convert to different bytes")
	}
}

// TestPreprocessSAMMatchesBuildFromRecords pins SAM→BAMX preprocessing
// byte for byte: rank m's BAMX and BAIX files equal what
// bamx.BuildFromRecords writes for that rank's slice of the dataset's
// records — parsed from text and encoded in batches on one side,
// encoded straight from the records on the other.
func TestPreprocessSAMMatchesBuildFromRecords(t *testing.T) {
	samPath, _, d := writeDataset(t, engineRecords)
	forEachSource(t, func(t *testing.T) {
		for _, m := range []int{1, 3} {
			for _, workers := range []int{1, 4} {
				pre, err := PreprocessSAMParallelWorkers(samPath, t.TempDir(), "pp", m, workers)
				if err != nil {
					t.Fatalf("PreprocessSAMParallelWorkers(M=%d, workers=%d): %v", m, workers, err)
				}
				if pre.Records != int64(len(d.Records)) {
					t.Errorf("M=%d workers=%d Records = %d, want %d", m, workers, pre.Records, len(d.Records))
				}
				recs := d.Records
				for r := range pre.BAMXFiles {
					got, err := os.ReadFile(pre.BAMXFiles[r])
					if err != nil {
						t.Fatal(err)
					}
					f, err := bamx.Open(bytes.NewReader(got), int64(len(got)))
					if err != nil {
						t.Fatalf("M=%d workers=%d rank %d: %v", m, workers, r, err)
					}
					n := f.NumRecords()
					if n > int64(len(recs)) {
						t.Fatalf("M=%d workers=%d rank %d holds %d records, %d left", m, workers, r, n, len(recs))
					}
					var want bytes.Buffer
					idx, err := bamx.BuildFromRecords(&want, d.Header, recs[:n])
					if err != nil {
						t.Fatal(err)
					}
					recs = recs[n:]
					if !bytes.Equal(got, want.Bytes()) {
						t.Errorf("M=%d workers=%d rank %d BAMX differs from BuildFromRecords (%d vs %d bytes)",
							m, workers, r, len(got), want.Len())
					}
					var wantIdx bytes.Buffer
					if _, err := idx.WriteTo(&wantIdx); err != nil {
						t.Fatal(err)
					}
					gotIdx, err := os.ReadFile(pre.BAIXFiles[r])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotIdx, wantIdx.Bytes()) {
						t.Errorf("M=%d workers=%d rank %d BAIX differs from BuildFromRecords", m, workers, r)
					}
				}
				if len(recs) != 0 {
					t.Errorf("M=%d workers=%d: %d records missing from the BAMX files", m, workers, len(recs))
				}
			}
		}
	})
}

// corruptRecord rewrites samPath with alignment line n's FLAG field
// replaced by a non-number. It returns the corrupted copy's path and
// the corrupted line.
func corruptRecord(t *testing.T, samPath string, n int) (string, string) {
	t.Helper()
	data, err := os.ReadFile(samPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	seen := 0
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "@") {
			continue
		}
		if seen == n {
			fields := strings.Split(line, "\t")
			if len(fields) < 2 {
				t.Fatalf("line %d has %d fields", i, len(fields))
			}
			fields[1] = "notaflag"
			lines[i] = strings.Join(fields, "\t")
			out := filepath.Join(t.TempDir(), "corrupt.sam")
			if err := os.WriteFile(out, []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}
			return out, strings.TrimSuffix(lines[i], "\n")
		}
		seen++
	}
	t.Fatalf("fewer than %d alignment lines", n)
	return "", ""
}

// TestPipelinedErrorParity pins the failure contract against the
// parser itself: a malformed record fails every worker count with the
// error sam.ParseRecord gives for that line, and the partial rank file
// holds exactly the reference encoding of the records before it —
// nothing after.
func TestPipelinedErrorParity(t *testing.T) {
	const bad = engineRecords - 500 // a few batches in, with more in flight behind it
	samPath, _, d := writeDataset(t, engineRecords)
	corrupt, line := corruptRecord(t, samPath, bad)
	_, parseErr := sam.ParseRecord(line)
	if parseErr == nil {
		t.Fatal("corrupted line parses")
	}
	prefix := &simdata.Dataset{Header: d.Header, Records: d.Records[:bad]}
	wantPartial := expected(t, prefix, "sam")

	forEachSource(t, func(t *testing.T) {
		for _, workers := range engineWorkers {
			dir := t.TempDir()
			_, err := ConvertSAM(corrupt, Options{
				Format: "sam", Cores: 1, ParseWorkers: workers, OutDir: dir, OutPrefix: "t",
			})
			if err == nil {
				t.Fatalf("workers=%d conversion of corrupt input succeeded", workers)
			}
			if err.Error() != parseErr.Error() {
				t.Errorf("workers=%d error differs:\n got:  %v\n want: %v", workers, err, parseErr)
			}
			partial, err := os.ReadFile(filepath.Join(dir, "t_p000.sam"))
			if err != nil {
				t.Fatal(err)
			}
			if string(partial) != wantPartial {
				t.Errorf("workers=%d partial output differs from the reference prefix (%d vs %d bytes)",
					workers, len(partial), len(wantPartial))
			}

			// The binary targets fail with the same message too.
			_, err = ConvertSAMToBAM(corrupt, Options{
				Cores: 1, ParseWorkers: workers, OutDir: t.TempDir(), OutPrefix: "s",
			})
			if err == nil || err.Error() != parseErr.Error() {
				t.Errorf("workers=%d SAM→BAM error = %v, want %v", workers, err, parseErr)
			}
			_, err = PreprocessSAMParallelWorkers(corrupt, t.TempDir(), "pp", 1, workers)
			if err == nil || err.Error() != parseErr.Error() {
				t.Errorf("workers=%d SAM→BAMX error = %v, want %v", workers, err, parseErr)
			}
		}
	})
}

// TestLongLineBeyondOldCap feeds a 5 MiB alignment line — over the old
// converter's silent 4 MiB bufio cap, the shape of an ONT ultralong
// read — through every worker count and requires the reference
// encoding of that record.
func TestLongLineBeyondOldCap(t *testing.T) {
	const seqLen = 5 << 20
	line := fmt.Sprintf("ont1\t0\tchr1\t1\t60\t%dM\t*\t0\t0\t%s\t%s",
		seqLen, strings.Repeat("A", seqLen), strings.Repeat("I", seqLen))
	hdr := "@SQ\tSN:chr1\tLN:100000000\n"
	path := filepath.Join(t.TempDir(), "long.sam")
	if err := os.WriteFile(path, []byte(hdr+line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := sam.ParseHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sam.ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	want := expected(t, &simdata.Dataset{Header: h, Records: []sam.Record{rec}}, "sam")
	forEachSource(t, func(t *testing.T) {
		for _, workers := range engineWorkers {
			res, err := ConvertSAM(path, Options{
				Format: "sam", Cores: 1, ParseWorkers: workers,
				OutDir: t.TempDir(), OutPrefix: "t",
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if res.Stats.Records != 1 {
				t.Errorf("workers=%d Records = %d, want 1", workers, res.Stats.Records)
			}
			if got := concatFiles(t, res.Files); got != want {
				t.Errorf("workers=%d output differs from the reference (%d vs %d bytes)", workers, len(got), len(want))
			}
		}
	})
}

// TestLineLimitErrorParity shrinks the line limit and requires every
// worker count, over both batch sources, to fail with the identical
// wrapped error: bufio.ErrTooLong under errors.Is, carrying the
// offending line's absolute file offset.
func TestLineLimitErrorParity(t *testing.T) {
	old := maxSAMLineBytes
	maxSAMLineBytes = 512 << 10
	defer func() { maxSAMLineBytes = old }()

	hdr := "@SQ\tSN:chr1\tLN:1000\n"
	good1 := "ok1\t0\tchr1\t1\t30\t4M\t*\t0\t0\tACGT\tIIII\n"
	good2 := "ok2\t0\tchr1\t5\t30\t4M\t*\t0\t0\tGGGG\tIIII\n"
	long := "toolong\t0\tchr1\t9\t30\t*\t*\t0\t0\t" +
		strings.Repeat("C", maxSAMLineBytes+1000) + "\t*\n"
	path := filepath.Join(t.TempDir(), "cap.sam")
	if err := os.WriteFile(path, []byte(hdr+good1+good2+long), 0o644); err != nil {
		t.Fatal(err)
	}
	wantOff := int64(len(hdr) + len(good1) + len(good2))
	want := errLineTooLong(wantOff).Error()
	forEachSource(t, func(t *testing.T) {
		for _, workers := range engineWorkers {
			_, err := ConvertSAM(path, Options{
				Format: "bed", Cores: 1, ParseWorkers: workers,
				OutDir: t.TempDir(), OutPrefix: "t",
			})
			if err == nil {
				t.Fatalf("workers=%d over-limit line converted successfully", workers)
			}
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("workers=%d error does not wrap bufio.ErrTooLong: %v", workers, err)
			}
			if err.Error() != want {
				t.Errorf("workers=%d error = %q, want %q", workers, err, want)
			}
		}
	})
}

// TestLineJustUnderLimitSucceeds pins the boundary: content of exactly
// limit-1 bytes plus the newline passes (bufio.Scanner's rule), so the
// per-line check is no stricter than the line limit promises.
func TestLineJustUnderLimitSucceeds(t *testing.T) {
	old := maxSAMLineBytes
	maxSAMLineBytes = 512 << 10
	defer func() { maxSAMLineBytes = old }()

	hdr := "@SQ\tSN:chr1\tLN:1000\n"
	stem := "edge\t0\tchr1\t1\t30\t*\t*\t0\t0\t"
	line := stem + strings.Repeat("C", maxSAMLineBytes-1-len(stem)-2) + "\t*"
	if len(line) != maxSAMLineBytes-1 {
		t.Fatalf("test bug: line is %d bytes, want %d", len(line), maxSAMLineBytes-1)
	}
	path := filepath.Join(t.TempDir(), "edge.sam")
	if err := os.WriteFile(path, []byte(hdr+line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	forEachSource(t, func(t *testing.T) {
		for _, workers := range engineWorkers {
			res, err := ConvertSAM(path, Options{
				Format: "sam", Cores: 1, ParseWorkers: workers,
				OutDir: t.TempDir(), OutPrefix: "t",
			})
			if err != nil {
				t.Fatalf("workers=%d limit-1 line failed: %v", workers, err)
			}
			if res.Stats.Records != 1 {
				t.Errorf("workers=%d Records = %d, want 1", workers, res.Stats.Records)
			}
		}
	})
}

// BenchmarkConvertSAM sweeps the pipelined converter's worker counts on
// one rank, for the allocation-heavy text target (sam) and a
// parse-dominated one (bed). bytes/s is input throughput.
func BenchmarkConvertSAM(b *testing.B) {
	samPath, _, _ := writeDataset(b, 20000)
	fi, err := os.Stat(samPath)
	if err != nil {
		b.Fatal(err)
	}
	for _, format := range []string{"sam", "bed"} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("format=%s/workers=%d", format, workers), func(b *testing.B) {
				outDir := b.TempDir()
				b.SetBytes(fi.Size())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ConvertSAM(samPath, Options{
						Format: format, Cores: 1, ParseWorkers: workers,
						OutDir: outDir, OutPrefix: "b",
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConvertSAMPrePR measures the converter hot loop as it stood
// before the pipelined path landed — bufio.Scanner with the 4 MiB cap,
// a fresh string per line (scan.Text), a freshly allocated CIGAR per
// record and the strings.Builder SAM renderer — so BENCH_convert.json
// carries the before/after comparison on the same dataset.
func BenchmarkConvertSAMPrePR(b *testing.B) {
	samPath, _, _ := writeDataset(b, 20000)
	fi, err := os.Stat(samPath)
	if err != nil {
		b.Fatal(err)
	}
	for _, format := range []string{"sam", "bed"} {
		b.Run(fmt.Sprintf("format=%s", format), func(b *testing.B) {
			outDir := b.TempDir()
			b.SetBytes(fi.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := legacyConvertSAM(samPath, format, outDir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConvertSAMSpeedup is the before/after headline: it
// interleaves one pre-PR-loop pass and one pipelined (4 workers) pass
// per iteration on the same dataset and reports the paired throughput
// ratio as "speedup". Pairing makes the ratio robust against machine
// weather (CPU steal on shared hosts) that skews two separately-timed
// benchmarks.
func BenchmarkConvertSAMSpeedup(b *testing.B) {
	samPath, _, _ := writeDataset(b, 20000)
	fi, err := os.Stat(samPath)
	if err != nil {
		b.Fatal(err)
	}
	for _, format := range []string{"sam", "bed"} {
		b.Run(fmt.Sprintf("format=%s/workers=4", format), func(b *testing.B) {
			outDir := b.TempDir()
			b.SetBytes(fi.Size())
			// One untimed pair first: page-cache and buffer-pool warmup
			// otherwise lands entirely on whichever side runs first.
			if err := legacyConvertSAM(samPath, format, outDir); err != nil {
				b.Fatal(err)
			}
			if _, err := ConvertSAM(samPath, Options{
				Format: format, Cores: 1, ParseWorkers: 4,
				OutDir: outDir, OutPrefix: "b",
			}); err != nil {
				b.Fatal(err)
			}
			// Per-side minimum over the iterations: external noise (CPU
			// steal on a shared host) only ever adds time, so the minimum
			// is the robust estimator of each path's true cost and their
			// ratio the robust speedup.
			minLegacy, minPipe := time.Duration(1<<62), time.Duration(1<<62)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := legacyConvertSAM(samPath, format, outDir); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, err := ConvertSAM(samPath, Options{
					Format: format, Cores: 1, ParseWorkers: 4,
					OutDir: outDir, OutPrefix: "b",
				}); err != nil {
					b.Fatal(err)
				}
				if d := t1.Sub(t0); d < minLegacy {
					minLegacy = d
				}
				if d := time.Since(t1); d < minPipe {
					minPipe = d
				}
			}
			b.ReportMetric(float64(minLegacy)/float64(minPipe), "speedup")
		})
	}
}

// legacyConvertSAM replicates the pre-pipeline sequential rank loop for
// the baseline benchmark: per-line string, per-record CIGAR allocation,
// builder-based SAM rendering, 4 MiB scanner cap.
func legacyConvertSAM(samPath, format, outDir string) error {
	enc, err := formats.New(format)
	if err != nil {
		return err
	}
	f, err := os.Open(samPath)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	h, dataStart, err := scanHeader(f)
	if err != nil {
		return err
	}
	out, err := os.Create(filepath.Join(outDir, "legacy"+enc.Extension()))
	if err != nil {
		return err
	}
	defer out.Close()
	bw := bufio.NewWriterSize(out, 256<<10) // the pre-PR write buffer size
	if _, err := bw.Write(enc.Header(h)); err != nil {
		return err
	}
	scan := bufio.NewScanner(io.NewSectionReader(f, dataStart, fi.Size()-dataStart))
	scan.Buffer(make([]byte, 64<<10), 4<<20)
	var rec sam.Record
	var buf []byte
	for scan.Scan() {
		line := scan.Text()
		if line == "" {
			continue
		}
		rec.Cigar = nil // pre-PR ParseCigar allocated per record
		if err := sam.ParseRecordInto(&rec, line); err != nil {
			return err
		}
		if format == "sam" {
			var sb strings.Builder
			rec.AppendText(&sb)
			buf = append(buf[:0], sb.String()...)
			buf = append(buf, '\n')
		} else {
			buf, err = enc.Encode(buf[:0], &rec, h)
			if err != nil {
				return err
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if err := scan.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// TestConvertSAMAllocsPerRecord guards the inline drain against
// per-line allocation creeping back: one rank on one worker converts a
// 20k-record SAM with a fixed set of allocations (files, header, world,
// write buffer) plus a few per 256 KiB batch — about 260 in all, where
// a per-line allocation alone would add 20000. The bound is one per
// twenty records.
func TestConvertSAMAllocsPerRecord(t *testing.T) {
	const records = 20000
	samPath, _, _ := writeDataset(t, records)
	opts := Options{Format: "fastq", Cores: 1, ParseWorkers: 1, OutDir: t.TempDir(), OutPrefix: "a"}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ConvertSAM(samPath, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d records", allocs, records)
	if allocs > records/20 {
		t.Errorf("ConvertSAM made %.0f allocations for %d records; want at most %d", allocs, records, records/20)
	}
}
