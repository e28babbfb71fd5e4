package sorter

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzHeader is the fixed header every fuzzed input starts with.
const fuzzHeader = "@HD\tVN:1.6\tSO:unsorted\n@SQ\tSN:chr1\tLN:100000\n@SQ\tSN:chr2\tLN:5000\n"

// FuzzSortSAMParity drives arbitrary alignment bytes behind a fixed
// header through SortSAMToBAM twice: parsed inline with three records
// per run, and on two workers with two records per run. Nothing may
// panic, and both runs must write identical bytes or both fail.
func FuzzSortSAMParity(f *testing.F) {
	for _, seed := range []string{
		"r1\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\tIIII\n",
		"r1\t0\tchr2\t9\t60\t4M\t=\t200\t104\tACGT\tIIII\tNM:i:0\tXS:Z:hi\r\nr2\t16\tchr1\t1\t0\t2S2M\tchr1\t5\t0\tAC*T\t*\n" +
			"r3\t0\tchr1\t1\t60\t1M\t*\t0\t0\tA\tI\nr4\t0\tchr1\t1\t60\t1M\t*\t0\t0\tC\tI\nr5\t4\tchr1\t1\t0\t*\t*\t0\t0\tG\tI\n",
		"r3\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\n\n\nr4\t4\t*\t0\t0\t*\t*\t0\t0\tNNNN\t!!!!",
		"bad\tnotaflag\tchr1\t1\t60\t1M\t*\t0\t0\tA\tI\n",
		"r5\t0\tchrX\t1\t60\t1M\t*\t0\t0\tA\tI\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.sam")
		if err := os.WriteFile(in, append([]byte(fuzzHeader), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		var outs [2][]byte
		var errs [2]error
		for i, opts := range []Options{
			{Cores: 1, ChunkRecords: 3, CodecWorkers: 1, TmpDir: dir},
			{Cores: 2, ChunkRecords: 2, TmpDir: dir},
		} {
			out := filepath.Join(dir, "out.bam")
			if _, errs[i] = SortSAMToBAM(in, out, opts); errs[i] == nil {
				var err error
				if outs[i], err = os.ReadFile(out); err != nil {
					t.Fatal(err)
				}
			}
			os.Remove(out)
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("one run failed: inline %v, two workers %v", errs[0], errs[1])
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Fatalf("outputs differ: %d vs %d bytes", len(outs[0]), len(outs[1]))
		}
	})
}
