package sorter

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"parseq/internal/bam"
	"parseq/internal/formats/pamx"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

// writeDataset writes d as SAM and BAM files.
func writeDataset(t testing.TB, d *simdata.Dataset) (samPath, bamPath string) {
	t.Helper()
	dir := t.TempDir()
	samPath = filepath.Join(dir, "u.sam")
	bamPath = filepath.Join(dir, "u.bam")
	for path, write := range map[string]func(*os.File) error{
		samPath: func(f *os.File) error { return d.WriteSAM(f) },
		bamPath: func(f *os.File) error { return d.WriteBAM(f) },
	} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return samPath, bamPath
}

// unsortedDataset writes an unsorted dataset as SAM and BAM files.
func unsortedDataset(t testing.TB, n int) (samPath, bamPath string, d *simdata.Dataset) {
	t.Helper()
	cfg := simdata.DefaultConfig(n)
	cfg.Sorted = false
	d = simdata.Generate(cfg)
	samPath, bamPath = writeDataset(t, d)
	return samPath, bamPath, d
}

// equalKeysDataset draws n records over a handful of coordinate keys —
// three positions on two references, unmapped records with and without
// a placement — so nearly every record ties with others that land in
// other chunks, and only a sort stable across run boundaries keeps their
// input order.
func equalKeysDataset(n int) *simdata.Dataset {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 1000}, sam.Reference{Name: "chr2", Length: 1000})
	rng := rand.New(rand.NewSource(7))
	d := &simdata.Dataset{Header: h, Records: make([]sam.Record, n)}
	for i := range d.Records {
		rec := sam.Record{
			QName: fmt.Sprintf("r%05d", i), MapQ: 60,
			Cigar: sam.Cigar{sam.NewCigarOp(sam.CigarMatch, 4)},
			RNext: "*", Seq: "ACGT", Qual: "IIII",
		}
		switch rng.Intn(6) {
		case 0:
			rec.Flag, rec.RName, rec.Cigar = sam.FlagUnmapped, "*", nil
		case 1:
			rec.Flag, rec.RName, rec.Pos, rec.Cigar = sam.FlagUnmapped, "chr2", 7, nil
		default:
			rec.RName = h.Refs[rng.Intn(2)].Name
			rec.Pos = int32(1 + rng.Intn(3))
		}
		d.Records[i] = rec
	}
	return d
}

// referenceSort is the oracle the sorter is held to, built without runs
// or a merge: the dataset's records stable-sorted by (reference ID,
// position) — unmapped records and unknown references last — and written
// through the sequential bam.Writer under the coordinate-sorted header.
func referenceSort(t testing.TB, d *simdata.Dataset) []byte {
	t.Helper()
	h := d.Header.Clone()
	h.SortOrder = sam.SortCoordinate
	key := func(rec *sam.Record) (int, int32) {
		id := h.RefID(rec.RName)
		if id < 0 || rec.Unmapped() {
			id = math.MaxInt32
		}
		return id, rec.Pos
	}
	recs := append([]sam.Record(nil), d.Records...)
	sort.SliceStable(recs, func(i, j int) bool {
		ri, pi := key(&recs[i])
		rj, pj := key(&recs[j])
		return ri < rj || (ri == rj && pi < pj)
	})
	var buf bytes.Buffer
	w, err := bam.NewWriter(&buf, h, bam.WithCodecWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSorted validates coordinate order and content equality against the
// reference records.
func checkSorted(t *testing.T, outPath string, d *simdata.Dataset, wantCount int) {
	t.Helper()
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := bam.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().SortOrder != sam.SortCoordinate {
		t.Errorf("output SortOrder = %q", r.Header().SortOrder)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != wantCount {
		t.Fatalf("output records = %d, want %d", len(recs), wantCount)
	}
	// Order check.
	lastRef, lastPos := -1, int32(0)
	seenUnmapped := false
	for i := range recs {
		ref := r.Header().RefID(recs[i].RName)
		if ref < 0 || recs[i].Unmapped() {
			seenUnmapped = true
			continue
		}
		if seenUnmapped {
			t.Fatalf("mapped record %d after unmapped block", i)
		}
		if ref < lastRef || (ref == lastRef && recs[i].Pos < lastPos) {
			t.Fatalf("record %d out of order: ref %d pos %d after ref %d pos %d",
				i, ref, recs[i].Pos, lastRef, lastPos)
		}
		lastRef, lastPos = ref, recs[i].Pos
	}
	// Content check: the sorted output is a permutation of the input.
	want := map[string]int{}
	for i := range d.Records {
		want[d.Records[i].String()]++
	}
	for i := range recs {
		if want[recs[i].String()] == 0 {
			t.Fatalf("record %d not in input (or duplicated): %s", i, recs[i].QName)
		}
		want[recs[i].String()]--
	}
}

// sortFunc is SortSAMToBAM or SortBAM.
type sortFunc func(in, out string, opts Options) (int64, error)

// sortMatches runs one sort and compares its output with want.
func sortMatches(t *testing.T, sortIt sortFunc, in string, opts Options, want []byte, n int) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "s.bam")
	got, err := sortIt(in, out, opts)
	if err != nil {
		t.Fatalf("%+v: %v", opts, err)
	}
	if got != int64(n) {
		t.Errorf("%+v: sorted %d records, want %d", opts, got, n)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%+v: output differs from the stable-sort reference (%d vs %d bytes)", opts, len(data), len(want))
	}
}

// sweepSort holds one input to the reference across the given chunk
// sizes, chunk workers and codec workers (shared pool, sequential,
// private pool). -short keeps the first and last chunk size only.
func sweepSort(t *testing.T, sortIt sortFunc, in string, d *simdata.Dataset, chunks ...int) {
	t.Helper()
	want := referenceSort(t, d)
	n := len(d.Records)
	if testing.Short() {
		chunks = []int{chunks[0], chunks[len(chunks)-1]}
	}
	for _, chunk := range chunks {
		for _, cores := range []int{1, 2, 4} {
			for _, codec := range []int{0, 1, 4} {
				sortMatches(t, sortIt, in, Options{ChunkRecords: chunk, Cores: cores, CodecWorkers: codec}, want, n)
			}
		}
	}
}

func TestSortSAMToBAM(t *testing.T) {
	samPath, _, d := unsortedDataset(t, 1000)
	// The oracle itself must be coordinate-sorted and a permutation of
	// the input.
	ref := filepath.Join(t.TempDir(), "ref.bam")
	if err := os.WriteFile(ref, referenceSort(t, d), 0o644); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, ref, d, 1000)
	// Many runs, a trailing one-record run, one run. One record per run
	// is swept on the equal-keys dataset, where it costs fewer files.
	sweepSort(t, SortSAMToBAM, samPath, d, 100, 999, 1000)
	// Defaults: one big chunk, adaptive codec.
	out := filepath.Join(t.TempDir(), "s.bam")
	if _, err := SortSAMToBAM(samPath, out, Options{}); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, out, d, 1000)
}

func TestSortBAM(t *testing.T) {
	_, bamPath, d := unsortedDataset(t, 1000)
	sweepSort(t, SortBAM, bamPath, d, 100, 999, 1000)
}

// Equal keys spread across many runs pin the stability of the whole
// sort: within a chunk, and across run boundaries in the merge.
func TestSortEqualKeysStable(t *testing.T) {
	d := equalKeysDataset(250)
	samPath, bamPath := writeDataset(t, d)
	ref := filepath.Join(t.TempDir(), "ref.bam")
	if err := os.WriteFile(ref, referenceSort(t, d), 0o644); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, ref, d, len(d.Records))
	// One record per run, three runs, one run.
	sweepSort(t, SortSAMToBAM, samPath, d, 1, 100, 999)
	sweepSort(t, SortBAM, bamPath, d, 1, 100, 999)
}

func TestSortedOutputIndexes(t *testing.T) {
	// The whole point: sorted output feeds the index builder.
	_, bamPath, _ := unsortedDataset(t, 400)
	out := filepath.Join(t.TempDir(), "s.bam")
	if _, err := SortBAM(bamPath, out, Options{ChunkRecords: 64, Cores: 2}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := bam.BuildFileIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("BuildFileIndex over sorted output: %v", err)
	}
	if idx.NumRefs() == 0 {
		t.Error("empty index")
	}
}

func TestSortEmptyInput(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "e.sam")
	if err := os.WriteFile(empty, []byte("@SQ\tSN:chr1\tLN:100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "e.bam")
	n, err := SortSAMToBAM(empty, out, Options{})
	if err != nil {
		t.Fatalf("empty sort: %v", err)
	}
	if n != 0 {
		t.Errorf("n = %d", n)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := bam.NewReader(f)
	if err != nil {
		t.Fatalf("empty output unreadable: %v", err)
	}
	if recs, _ := r.ReadAll(); len(recs) != 0 {
		t.Errorf("records = %d", len(recs))
	}
}

func TestSortMissingInput(t *testing.T) {
	if _, err := SortSAMToBAM("/nope.sam", filepath.Join(t.TempDir(), "o.bam"), Options{}); err == nil {
		t.Error("missing SAM accepted")
	}
	if _, err := SortBAM("/nope.bam", filepath.Join(t.TempDir(), "o.bam"), Options{}); err == nil {
		t.Error("missing BAM accepted")
	}
}

func BenchmarkSortSAMToBAM(b *testing.B) {
	samPath, _, _ := unsortedDataset(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filepath.Join(b.TempDir(), "s.bam")
		if _, err := SortSAMToBAM(samPath, out, Options{ChunkRecords: 1024, Cores: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// SortBAM reads its input on the codec-worker reader; output bytes must
// equal the reference across the worker ladder.
func TestSortBAMCodecWorkersIdentical(t *testing.T) {
	_, bamPath, d := unsortedDataset(t, 800)
	want := referenceSort(t, d)
	for _, workers := range []int{0, 1, 4, 8} {
		sortMatches(t, SortBAM, bamPath, Options{ChunkRecords: 128, Cores: 2, CodecWorkers: workers}, want, 800)
	}
}

// The adaptive codec default routes spill and merge writers through
// bgzf.SharedPool, as does an explicit SharedCodec with a fixed budget;
// the output must equal the reference either way.
func TestSortSharedCodecDefaultIdentical(t *testing.T) {
	samPath, _, d := unsortedDataset(t, 700)
	want := referenceSort(t, d)
	for _, opts := range []Options{
		{ChunkRecords: 100, Cores: 2},
		{ChunkRecords: 100, Cores: 2, CodecWorkers: 3, SharedCodec: true},
	} {
		sortMatches(t, SortSAMToBAM, samPath, opts, want, 700)
	}
}

// Every failure path releases what it started: no goroutine (BGZF
// drains, codec pools, parse and spill workers) outlives the call, no
// temporary run directory stays behind and no partial output is left.
func TestSortFailuresReleaseResources(t *testing.T) {
	samPath, _, d := unsortedDataset(t, 300)
	_, bamPath, _ := unsortedDataset(t, 2000) // several BGZF blocks
	dir := t.TempDir()
	text, err := os.ReadFile(samPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(text), "\n")
	first := 0
	for strings.HasPrefix(lines[first], "@") {
		first++
	}
	// withLine writes the SAM input with alignment line i replaced.
	withLine := func(name string, i int, line string) string {
		edited := append([]string(nil), lines...)
		edited[first+i] = line
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(edited, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fields := strings.Split(lines[first+250], "\t")
	fields[2] = "chrUnknown"
	unknownRef := withLine("ref.sam", 250, strings.Join(fields, "\t")) // third 100-record chunk
	malformed := withLine("bad.sam", 150, "r\tnotaflag\tchr1\n")
	fields = strings.Split(lines[first+250], "\t")
	fields[0] = strings.Repeat("q", 300) // parses, but BAM caps QNAME at 254 bytes
	longName := withLine("name.sam", 250, strings.Join(fields, "\t"))
	data, err := os.ReadFile(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "trunc.bam")
	if err := os.WriteFile(truncated, data[:len(data)*6/10], 0o644); err != nil {
		t.Fatal(err)
	}

	// A well-framed BAM whose record 150 carries an unknown tag type:
	// bodies pass through verbatim, but only once DecodeRecord's checks
	// accept them.
	corrupt := filepath.Join(dir, "corrupt.bam")
	f, err := os.Create(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := bam.NewWriter(f, d.Header)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Records {
		enc, err := bam.EncodeRecord(nil, &d.Records[i], d.Header)
		if err != nil {
			t.Fatal(err)
		}
		if i == 150 {
			enc = append(enc, 'X', 'X', 'q')
			binary.LittleEndian.PutUint32(enc, uint32(len(enc)-4))
		}
		if err := w.WriteEncoded(enc); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tmp := t.TempDir()
	// Private codec pools (two workers per stream) rather than the
	// shared pool, whose resizing would move the goroutine count.
	opts := Options{ChunkRecords: 100, Cores: 2, CodecWorkers: 4, TmpDir: tmp}
	cases := []struct {
		name string
		run  func(out string) error
	}{
		{"unknown RNAME", func(out string) error { _, err := SortSAMToBAM(unknownRef, out, opts); return err }},
		{"malformed SAM", func(out string) error { _, err := SortSAMToBAM(malformed, out, opts); return err }},
		{"unencodable QNAME", func(out string) error { _, err := SortSAMToBAM(longName, out, opts); return err }},
		{"truncated BAM", func(out string) error { _, err := SortBAM(truncated, out, opts); return err }},
		{"corrupt BAM record", func(out string) error { _, err := SortBAM(corrupt, out, opts); return err }},
		{"pamx truncated BAM", func(out string) error {
			_, err := pamx.FromBAM(truncated, out, pamx.Options{CodecWorkers: 2})
			return err
		}},
	}
	base := runtime.NumGoroutine()
	for _, c := range cases {
		out := filepath.Join(t.TempDir(), "out")
		if err := c.run(out); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s: partial output left behind (%v)", c.name, err)
		}
		if left, _ := filepath.Glob(filepath.Join(tmp, "parseq-sort-*")); len(left) > 0 {
			t.Errorf("%s: temporary runs left behind: %v", c.name, left)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<20)
			t.Errorf("%s: %d goroutines after the failure, %d before:\n%s",
				c.name, n, base, buf[:runtime.Stack(buf, true)])
		}
	}
}
