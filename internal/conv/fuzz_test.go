package conv

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzHeader is the fixed header every fuzzed input starts with.
const fuzzHeader = "@HD\tVN:1.6\tSO:unsorted\n@SQ\tSN:chr1\tLN:100000\n@SQ\tSN:chr2\tLN:5000\n"

// fuzzOutcome is what one run of a converter left behind: its output
// files' bytes, or its error.
type fuzzOutcome struct {
	files []string
	err   string
}

func readOutcome(t *testing.T, files []string, err error) fuzzOutcome {
	t.Helper()
	if err != nil {
		if strings.Contains(err.Error(), "panicked") {
			t.Fatalf("converter panicked: %v", err)
		}
		return fuzzOutcome{err: err.Error()}
	}
	var o fuzzOutcome
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		o.files = append(o.files, string(b))
	}
	return o
}

func (o fuzzOutcome) equal(p fuzzOutcome) bool {
	if o.err != p.err || len(o.files) != len(p.files) {
		return false
	}
	for i := range o.files {
		if o.files[i] != p.files[i] {
			return false
		}
	}
	return true
}

// FuzzSAMConvertParity drives arbitrary alignment bytes behind a fixed
// header through the SAM text engine: ConvertSAM to FASTQ and SAM→BAMX
// preprocessing, two ranks each, at one parse worker (the inline drain)
// and at four (the parpipe stage). Nothing may panic — a rank panic
// surfaces as an mpi "panicked" error — and both worker counts must
// leave identical bytes or fail with the same first error.
func FuzzSAMConvertParity(f *testing.F) {
	for _, seed := range []string{
		"r1\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\tIIII\n",
		"r1\t0\tchr1\t100\t60\t4M\t=\t200\t104\tACGT\tIIII\tNM:i:0\tXS:Z:hi\r\nr2\t16\tchr2\t1\t0\t2S2M\tchr1\t5\t0\tAC*T\t*\n",
		"r3\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\n\n\nr4\t4\t*\t0\t0\t*\t*\t0\t0\tNNNN\t!!!!",
		"bad\tnotaflag\tchr1\t1\t60\t1M\t*\t0\t0\tA\tI\n",
		"r5\t0\tchrX\t1\t60\t1M\t*\t0\t0\tA\tI\n",
		"r6\t0\tchr1\t1\t60\t1000000M\t*\t0\t0\tA\tI\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "in.sam")
		if err := os.WriteFile(path, append([]byte(fuzzHeader), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		var convert, preprocess [2]fuzzOutcome
		for i, workers := range []int{1, 4} {
			res, err := ConvertSAM(path, Options{
				Format: "fastq", Cores: 2, ParseWorkers: workers,
				OutDir: t.TempDir(), OutPrefix: "f",
			})
			var files []string
			if res != nil {
				files = res.Files
			}
			convert[i] = readOutcome(t, files, err)

			pre, err := PreprocessSAMParallelWorkers(path, t.TempDir(), "p", 2, workers)
			files = nil
			if pre != nil {
				files = append(pre.BAMXFiles, pre.BAIXFiles...)
			}
			preprocess[i] = readOutcome(t, files, err)
		}
		if !convert[0].equal(convert[1]) {
			t.Errorf("ConvertSAM differs between 1 and 4 workers:\n 1: %q\n 4: %q", convert[0].err, convert[1].err)
		}
		if !preprocess[0].equal(preprocess[1]) {
			t.Errorf("PreprocessSAMParallel differs between 1 and 4 workers:\n 1: %q\n 4: %q", preprocess[0].err, preprocess[1].err)
		}
		if len(body) == 0 && convert[0].err != "" {
			t.Errorf("header-only input failed: %s", convert[0].err)
		}
	})
}
