package conv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"parseq/internal/bamx"
	"parseq/internal/formats"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

// writeDataset materialises a synthetic dataset as SAM and BAM files in a
// temp dir and returns their paths.
func writeDataset(t testing.TB, n int) (string, string, *simdata.Dataset) {
	t.Helper()
	d := simdata.Generate(simdata.DefaultConfig(n))
	dir := t.TempDir()
	samPath := filepath.Join(dir, "in.sam")
	bamPath := filepath.Join(dir, "in.bam")
	sf, err := os.Create(samPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSAM(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	bf, err := os.Create(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	return samPath, bamPath, d
}

// concatFiles concatenates the per-rank output files in rank order.
func concatFiles(t testing.TB, files []string) string {
	t.Helper()
	var b bytes.Buffer
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("reading %s: %v", f, err)
		}
		b.Write(data)
	}
	return b.String()
}

// expected computes the single-threaded reference conversion.
func expected(t testing.TB, d *simdata.Dataset, format string) string {
	t.Helper()
	enc, err := formats.New(format)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	out = append(out, enc.Header(d.Header)...)
	for i := range d.Records {
		out, err = enc.Encode(out, &d.Records[i], d.Header)
		if err != nil {
			t.Fatal(err)
		}
	}
	return string(out)
}

func TestParseRegion(t *testing.T) {
	cases := []struct {
		in   string
		want Region
	}{
		{"chr1", Region{RName: "chr1", Beg: 1}},
		{"chr1:100-200", Region{RName: "chr1", Beg: 100, End: 200}},
		{"chr1:100-", Region{RName: "chr1", Beg: 100}},
		{"chrX:5", Region{RName: "chrX", Beg: 5, End: 5}},
	}
	for _, tc := range cases {
		got, err := ParseRegion(tc.in)
		if err != nil {
			t.Errorf("ParseRegion(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseRegion(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", ":5-10", "chr1:x-10", "chr1:10-x", "chr1:20-10", "chr1:99999999999-"} {
		if _, err := ParseRegion(bad); err == nil {
			t.Errorf("ParseRegion(%q) succeeded", bad)
		}
	}
}

func TestRegionString(t *testing.T) {
	if got := (Region{RName: "chr1", Beg: 5, End: 10}).String(); got != "chr1:5-10" {
		t.Errorf("String = %q", got)
	}
	if got := (Region{RName: "chr1", Beg: 5}).String(); got != "chr1:5-" {
		t.Errorf("open String = %q", got)
	}
}

func TestConvertSAMSequentialMatchesReference(t *testing.T) {
	samPath, _, d := writeDataset(t, 300)
	for _, format := range formats.Names() {
		res, err := ConvertSAM(samPath, Options{
			Format: format, Cores: 1, OutDir: t.TempDir(), OutPrefix: "t",
		})
		if err != nil {
			t.Fatalf("ConvertSAM(%s): %v", format, err)
		}
		got := concatFiles(t, res.Files)
		if want := expected(t, d, format); got != want {
			t.Errorf("%s conversion differs from reference (got %d bytes, want %d)",
				format, len(got), len(want))
		}
		if res.Stats.Records != 300 {
			t.Errorf("%s Records = %d, want 300", format, res.Stats.Records)
		}
	}
}

func TestConvertSAMParallelMatchesSequential(t *testing.T) {
	samPath, _, d := writeDataset(t, 500)
	want := expected(t, d, "bed")
	for _, cores := range []int{2, 3, 8} {
		res, err := ConvertSAM(samPath, Options{
			Format: "bed", Cores: cores, OutDir: t.TempDir(), OutPrefix: "t",
		})
		if err != nil {
			t.Fatalf("ConvertSAM(cores=%d): %v", cores, err)
		}
		if len(res.Files) != cores {
			t.Fatalf("files = %d, want %d", len(res.Files), cores)
		}
		if got := concatFiles(t, res.Files); got != want {
			t.Errorf("cores=%d output differs from sequential", cores)
		}
		if res.Stats.Records != 500 {
			t.Errorf("cores=%d Records = %d", cores, res.Stats.Records)
		}
		if res.Stats.BytesOut == 0 || res.Stats.BytesIn == 0 {
			t.Errorf("cores=%d zero byte counters: %+v", cores, res.Stats)
		}
	}
}

func TestConvertSAMRejectsRegion(t *testing.T) {
	samPath, _, _ := writeDataset(t, 10)
	_, err := ConvertSAM(samPath, Options{
		Format: "bed", Region: &Region{RName: "chr1", Beg: 1, End: 100},
		OutDir: t.TempDir(),
	})
	if err == nil {
		t.Error("ConvertSAM with region succeeded")
	}
}

func TestConvertSAMMissingFile(t *testing.T) {
	if _, err := ConvertSAM("/does/not/exist.sam", Options{Format: "bed", OutDir: t.TempDir()}); err == nil {
		t.Error("missing input succeeded")
	}
}

func TestConvertSAMBadFormat(t *testing.T) {
	samPath, _, _ := writeDataset(t, 10)
	if _, err := ConvertSAM(samPath, Options{Format: "xml", OutDir: t.TempDir()}); err == nil {
		t.Error("unknown format succeeded")
	}
}

func TestConvertBAMSequentialMatchesReference(t *testing.T) {
	_, bamPath, d := writeDataset(t, 300)
	res, err := ConvertBAMSequential(bamPath, Options{
		Format: "sam", Cores: 1, OutDir: t.TempDir(), OutPrefix: "t",
	})
	if err != nil {
		t.Fatalf("ConvertBAMSequential: %v", err)
	}
	got := concatFiles(t, res.Files)
	if want := expected(t, d, "sam"); got != want {
		t.Error("BAM→SAM sequential conversion differs from reference")
	}
}

func TestPreprocessAndConvertBAMX(t *testing.T) {
	_, bamPath, d := writeDataset(t, 400)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "in.bamx")
	baixPath := filepath.Join(dir, "in.baix")
	pre, err := PreprocessBAMFile(bamPath, bamxPath, baixPath)
	if err != nil {
		t.Fatalf("PreprocessBAMFile: %v", err)
	}
	if pre.Duration <= 0 {
		t.Error("preprocessing duration not recorded")
	}
	for _, format := range []string{"bed", "bedgraph", "fasta", "sam"} {
		for _, cores := range []int{1, 4} {
			res, err := ConvertBAMX(bamxPath, baixPath, Options{
				Format: format, Cores: cores, OutDir: t.TempDir(), OutPrefix: "t",
			})
			if err != nil {
				t.Fatalf("ConvertBAMX(%s, cores=%d): %v", format, cores, err)
			}
			got := concatFiles(t, res.Files)
			if want := expected(t, d, format); got != want {
				t.Errorf("%s cores=%d BAMX conversion differs from reference", format, cores)
			}
		}
	}
}

// regionDataset is a sorted dataset whose header also names a
// reference, between chr1 and chr2, that no record lies on.
func regionDataset(n int) *simdata.Dataset {
	d := simdata.Generate(simdata.DefaultConfig(n))
	refs := []sam.Reference{d.Header.Refs[0], {Name: "chrEmpty", Length: 5000}}
	refs = append(refs, d.Header.Refs[1:]...)
	h := sam.NewHeader(refs...)
	h.Version, h.SortOrder, h.ReadGroups = d.Header.Version, d.Header.SortOrder, d.Header.ReadGroups
	h.Programs, h.Comments = d.Header.Programs, d.Header.Comments
	d.Header = h
	return d
}

// regionOracle is the independent reference for partial conversion:
// the dataset's records that start within the region (with the
// defaults of a zero Beg or End), stable-sorted by position and
// encoded after the SAM header.
func regionOracle(t *testing.T, d *simdata.Dataset, r Region) (string, int) {
	t.Helper()
	beg, end := r.Beg, r.End
	if beg <= 0 {
		beg = 1
	}
	if end <= 0 {
		end = 1<<31 - 1
	}
	var selected []sam.Record
	for _, rec := range d.Records {
		if !rec.Unmapped() && rec.RName == r.RName && rec.Pos >= beg && rec.Pos <= end {
			selected = append(selected, rec)
		}
	}
	sort.SliceStable(selected, func(i, j int) bool { return selected[i].Pos < selected[j].Pos })
	enc, _ := formats.New("sam")
	want := enc.Header(d.Header)
	for i := range selected {
		var err error
		if want, err = enc.Encode(want, &selected[i], d.Header); err != nil {
			t.Fatal(err)
		}
	}
	return string(want), len(selected)
}

// regionFixture preprocesses a dataset into BAMX, BAIX and BAMZ files.
func regionFixture(t *testing.T, d *simdata.Dataset) (bamxPath, bamzPath, baixPath string) {
	t.Helper()
	dir := t.TempDir()
	bamPath := filepath.Join(dir, "in.bam")
	bf, err := os.Create(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	bamxPath = filepath.Join(dir, "in.bamx")
	bamzPath = filepath.Join(dir, "in.bamz")
	baixPath = filepath.Join(dir, "in.baix")
	if _, err := PreprocessBAMFile(bamPath, bamxPath, baixPath); err != nil {
		t.Fatal(err)
	}
	if _, err := CompressBAMXFile(bamxPath, bamzPath, 64); err != nil {
		t.Fatal(err)
	}
	return bamxPath, bamzPath, baixPath
}

// TestConvertBAMXPartial sweeps partial conversion through both
// fixed-stride converters, every rank count from 1 to 4, with the BAIX
// and without it, against the independent oracle. A compressed file
// cannot rebuild a missing BAIX, so there the query must fail cleanly.
func TestConvertBAMXPartial(t *testing.T) {
	d := regionDataset(600)
	bamxPath, bamzPath, baixPath := regionFixture(t, d)
	var onRef []sam.Record // chr1's records, in position order
	lastRef := d.Header.Refs[len(d.Header.Refs)-1].Name
	lastRefRecords := 0
	for _, rec := range d.Records {
		if !rec.Unmapped() && rec.RName == "chr1" {
			onRef = append(onRef, rec)
		}
		if rec.RName == lastRef {
			lastRefRecords++
		}
	}
	if len(onRef) < 3 || lastRefRecords == 0 {
		t.Fatalf("dataset too small: %d records on chr1, %d on %s", len(onRef), lastRefRecords, lastRef)
	}
	mid, last := onRef[len(onRef)/2].Pos, onRef[len(onRef)-1].Pos
	regions := map[string]Region{
		"empty":          {RName: "chr1", Beg: last + 1, End: last + 1},
		"single-base":    {RName: "chr1", Beg: mid, End: mid},
		"last-record":    {RName: "chr1", Beg: last, End: last},
		"whole-ref":      {RName: "chr1", Beg: 1},
		"ref-no-records": {RName: "chrEmpty"},
		"last-ref":       {RName: lastRef, Beg: 1},
		"span":           {RName: "chr1", Beg: 1, End: mid},
	}
	converters := map[string]struct {
		path    string
		convert func(string, string, Options) (*Result, error)
		rebuild bool // a missing BAIX is rebuilt rather than an error
	}{
		"bamx": {bamxPath, ConvertBAMX, true},
		"bamz": {bamzPath, ConvertBAMZ, false},
	}
	for cname, cv := range converters {
		for _, withBAIX := range []bool{true, false} {
			ix := baixPath
			if !withBAIX {
				ix = filepath.Join(filepath.Dir(baixPath), "missing.baix")
			}
			for rname, region := range regions {
				want, n := regionOracle(t, d, region)
				for cores := 1; cores <= 4; cores++ {
					name := fmt.Sprintf("%s/baix=%v/%s/cores=%d", cname, withBAIX, rname, cores)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						out := t.TempDir()
						res, err := cv.convert(cv.path, ix, Options{
							Format: "sam", Cores: cores, OutDir: out, OutPrefix: "t", Region: &region,
						})
						if !withBAIX && !cv.rebuild {
							if err == nil {
								t.Fatal("partial conversion without its BAIX succeeded")
							}
							assertNoOutput(t, out)
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if got := concatFiles(t, res.Files); got != want {
							t.Errorf("partial conversion differs: got %d bytes, want %d (%d records)", len(got), len(want), n)
						}
						if res.Stats.Records != int64(n) {
							t.Errorf("Records = %d, want %d", res.Stats.Records, n)
						}
					})
				}
			}
		}
	}
}

// assertNoOutput fails unless dir is empty.
func assertNoOutput(t *testing.T, dir string) {
	t.Helper()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("failed conversion left output in %s: %v (%v)", dir, ents, err)
	}
}

// corruptBAIX writes the corrupt variants of a valid BAIX: bad magic, a
// count larger than the data, one entry moved out of order, and one
// pointing past the last record.
func corruptBAIX(t *testing.T, baixPath string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(baixPath)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 5 + 8
	if len(raw) < hdr+3*16 {
		t.Fatalf("BAIX of %d bytes is too small to corrupt", len(raw))
	}
	variants := map[string][]byte{}
	magic := bytes.Clone(raw)
	magic[0] = 'X'
	variants["magic"] = magic
	count := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(count[5:], uint64((len(raw)-hdr)/16+1))
	variants["count"] = count
	order := bytes.Clone(raw)
	// Give the second entry the reference ID of the last one.
	copy(order[hdr+16:hdr+20], raw[len(raw)-16:len(raw)-12])
	variants["order"] = order
	index := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(index[hdr+8:], 1<<40) // chr1's first record
	variants["index"] = index
	paths := map[string]string{}
	for name, data := range variants {
		p := filepath.Join(t.TempDir(), name+".baix")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths[name] = p
	}
	return paths
}

// waitGoroutines fails unless the goroutine count returns to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines, want at most %d", runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPartialConversionRejectsCorruptBAIX drives each corrupt BAIX
// through both converters: every query must fail with a typed error,
// write nothing and leave no goroutine behind.
func TestPartialConversionRejectsCorruptBAIX(t *testing.T) {
	d := regionDataset(300)
	bamxPath, bamzPath, baixPath := regionFixture(t, d)
	converters := map[string]struct {
		path    string
		convert func(string, string, Options) (*Result, error)
	}{
		"bamx": {bamxPath, ConvertBAMX},
		"bamz": {bamzPath, ConvertBAMZ},
	}
	for name, bad := range corruptBAIX(t, baixPath) {
		for cname, cv := range converters {
			for _, cores := range []int{1, 3} {
				base := runtime.NumGoroutine()
				out := t.TempDir()
				_, err := cv.convert(cv.path, bad, Options{
					Format: "sam", Cores: cores, OutDir: out, OutPrefix: "t",
					Region: &Region{RName: "chr1", Beg: 1},
				})
				switch {
				case err == nil:
					t.Errorf("%s/%s cores=%d: corrupt BAIX accepted", cname, name, cores)
				case name == "magic" && !strings.Contains(err.Error(), "magic"):
					t.Errorf("%s/%s: error %q does not report the bad magic", cname, name, err)
				case name != "magic" && !errors.Is(err, bamx.ErrCorrupt):
					t.Errorf("%s/%s: error %q does not wrap bamx.ErrCorrupt", cname, name, err)
				}
				assertNoOutput(t, out)
				waitGoroutines(t, base)
			}
		}
	}
}

// TestRegionQueryAllocsBelowIndexSize holds a region query to the size
// of its answer: converting a tiny region of a 60k-record BAMX must
// allocate far less than its BAIX holds, so nothing in the lookup or
// the rank write path scales with the index.
func TestRegionQueryAllocsBelowIndexSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool discard pooled write buffers")
	}
	bamxPath, _, baixPath := regionFixture(t, simdata.Generate(simdata.DefaultConfig(60000)))
	fi, err := os.Stat(baixPath)
	if err != nil {
		t.Fatal(err)
	}
	if entries := (fi.Size() - 13) / 16; entries < 50000 {
		t.Fatalf("BAIX holds %d entries, want at least 50000", entries)
	}
	opts := Options{Format: "sam", Cores: 2, OutDir: t.TempDir(), OutPrefix: "r",
		Region: &Region{RName: "chr1", Beg: 1, End: 2000}}
	query := func() {
		res, err := ConvertBAMX(bamxPath, baixPath, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Records == 0 {
			t.Fatal("region selected no records")
		}
	}
	query() // warm the buffer pools
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	perQuery := int64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per region query; BAIX is %d bytes", perQuery, fi.Size())
	if limit := fi.Size() / 4; perQuery > limit {
		t.Errorf("region query allocates %d bytes; want at most %d (a quarter of the BAIX)", perQuery, limit)
	}
}

func TestConvertBAMXPartialWithoutBAIXFallsBack(t *testing.T) {
	_, bamPath, _ := writeDataset(t, 100)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "in.bamx")
	if _, err := PreprocessBAMFile(bamPath, bamxPath, filepath.Join(dir, "in.baix")); err != nil {
		t.Fatal(err)
	}
	// Point at a missing BAIX: index is rebuilt by scanning.
	res, err := ConvertBAMX(bamxPath, filepath.Join(dir, "missing.baix"), Options{
		Format: "bed", Cores: 2, OutDir: t.TempDir(), OutPrefix: "t",
		Region: &Region{RName: "chr2", Beg: 1},
	})
	if err != nil {
		t.Fatalf("ConvertBAMX without BAIX: %v", err)
	}
	if res.Stats.Records == 0 {
		t.Error("no records converted via rebuilt index")
	}
}

func TestConvertBAMXUnknownRegionRef(t *testing.T) {
	_, bamPath, _ := writeDataset(t, 50)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "in.bamx")
	baixPath := filepath.Join(dir, "in.baix")
	if _, err := PreprocessBAMFile(bamPath, bamxPath, baixPath); err != nil {
		t.Fatal(err)
	}
	_, err := ConvertBAMX(bamxPath, baixPath, Options{
		Format: "bed", OutDir: t.TempDir(),
		Region: &Region{RName: "chrNope", Beg: 1},
	})
	if err == nil {
		t.Error("unknown region reference succeeded")
	}
}

func TestPreprocessedSAMConverterMatchesReference(t *testing.T) {
	samPath, _, d := writeDataset(t, 400)
	for _, preCores := range []int{1, 3} {
		outDir := t.TempDir()
		res, err := ConvertSAMPreprocessed(samPath, preCores, Options{
			Format: "fasta", Cores: 2, OutDir: outDir, OutPrefix: "t",
		})
		if err != nil {
			t.Fatalf("ConvertSAMPreprocessed(M=%d): %v", preCores, err)
		}
		// M BAMX files × N ranks of output files.
		if len(res.Files) != preCores*2 {
			t.Errorf("files = %d, want %d", len(res.Files), preCores*2)
		}
		if res.Stats.PreprocessTime <= 0 {
			t.Error("PreprocessTime not recorded")
		}
		got := concatFiles(t, res.Files)
		// The fasta encoder writes no header, so concatenation in
		// (M, rank) order equals the sequential reference.
		if want := expected(t, d, "fasta"); got != want {
			t.Errorf("M=%d preprocessed conversion differs from reference", preCores)
		}
	}
}

func TestPreprocessSAMParallelProducesValidBAMX(t *testing.T) {
	samPath, _, d := writeDataset(t, 300)
	outDir := t.TempDir()
	pre, err := PreprocessSAMParallel(samPath, outDir, "pp", 4)
	if err != nil {
		t.Fatalf("PreprocessSAMParallel: %v", err)
	}
	if len(pre.BAMXFiles) != 4 || len(pre.BAIXFiles) != 4 {
		t.Fatalf("file counts = %d/%d", len(pre.BAMXFiles), len(pre.BAIXFiles))
	}
	if pre.Records != 300 {
		t.Errorf("Records = %d, want 300", pre.Records)
	}
	// Converting the shards sequentially reproduces the dataset.
	res, err := ConvertPreprocessed(pre.BAMXFiles, pre.BAIXFiles, Options{
		Format: "fastq", Cores: 1, OutDir: t.TempDir(), OutPrefix: "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := concatFiles(t, res.Files)
	if want := expected(t, d, "fastq"); got != want {
		t.Error("sharded conversion differs from reference")
	}
}

func TestConvertPreprocessedEmptyInput(t *testing.T) {
	if _, err := ConvertPreprocessed(nil, nil, Options{Format: "bed", OutDir: t.TempDir()}); err == nil {
		t.Error("ConvertPreprocessed with no files succeeded")
	}
}

func TestStatsEmittedExcludesSkipped(t *testing.T) {
	// BED skips unmapped records; Emitted must be less than Records.
	samPath, _, d := writeDataset(t, 1000)
	unmapped := 0
	for i := range d.Records {
		if d.Records[i].Unmapped() {
			unmapped++
		}
	}
	if unmapped == 0 {
		t.Skip("dataset has no unmapped records")
	}
	res, err := ConvertSAM(samPath, Options{Format: "bed", Cores: 2, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Emitted != res.Stats.Records-int64(unmapped) {
		t.Errorf("Emitted = %d, Records = %d, unmapped = %d",
			res.Stats.Emitted, res.Stats.Records, unmapped)
	}
}

func TestScanHeaderHeaderless(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "h.sam")
	line := "r1\t0\tchr1\t1\t30\t4M\t*\t0\t0\tACGT\tIIII\n"
	if err := os.WriteFile(p, []byte("@SQ\tSN:chr1\tLN:100\n"+line), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, off, err := scanHeader(f)
	if err != nil {
		t.Fatal(err)
	}
	if off != int64(len("@SQ\tSN:chr1\tLN:100\n")) {
		t.Errorf("offset = %d", off)
	}
	if len(h.Refs) != 1 {
		t.Errorf("refs = %d", len(h.Refs))
	}
}

func TestConvertSAMManyMoreCoresThanRecords(t *testing.T) {
	samPath, _, d := writeDataset(t, 5)
	res, err := ConvertSAM(samPath, Options{Format: "sam", Cores: 16, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := concatFiles(t, res.Files), expected(t, d, "sam"); got != want {
		t.Error("over-partitioned conversion differs")
	}
}

func TestOutputFileNaming(t *testing.T) {
	samPath, _, _ := writeDataset(t, 20)
	dir := t.TempDir()
	res, err := ConvertSAM(samPath, Options{Format: "bed", Cores: 2, OutDir: dir, OutPrefix: "myrun"})
	if err != nil {
		t.Fatal(err)
	}
	for rank, f := range res.Files {
		base := filepath.Base(f)
		if !strings.HasPrefix(base, "myrun_p") || !strings.HasSuffix(base, ".bed") {
			t.Errorf("rank %d file = %q", rank, base)
		}
	}
}
