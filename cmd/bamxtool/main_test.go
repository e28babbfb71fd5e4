package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"parseq/internal/bamx"
	"parseq/internal/conv"
	"parseq/internal/simdata"
)

// fixture preprocesses a small sorted dataset into dir/d.bamx and
// dir/d.baix.
func fixture(t *testing.T, dir string) (*simdata.Dataset, string) {
	t.Helper()
	d := simdata.Generate(simdata.DefaultConfig(300))
	bamPath := filepath.Join(dir, "d.bam")
	f, err := os.Create(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	bamxPath := filepath.Join(dir, "d.bamx")
	if _, err := conv.PreprocessBAMFile(bamPath, bamxPath, filepath.Join(dir, "d.baix")); err != nil {
		t.Fatal(err)
	}
	return d, bamxPath
}

func TestWriteRegionPrintsStartingRecords(t *testing.T) {
	d, bamxPath := fixture(t, t.TempDir())
	var want strings.Builder
	n := 0
	for i := range d.Records {
		r := &d.Records[i]
		if !r.Unmapped() && r.RName == "chr2" && r.Pos >= 1 && r.Pos <= 80000 {
			want.WriteString(r.String() + "\n")
			n++
		}
	}
	if n == 0 {
		t.Fatal("region selects no records")
	}
	for _, withBAIX := range []bool{true, false} {
		if !withBAIX {
			os.Remove(strings.TrimSuffix(bamxPath, ".bamx") + ".baix")
		}
		var out bytes.Buffer
		if err := writeRegion(&out, bamxPath, "chr2:1-80000"); err != nil {
			t.Fatalf("baix=%v: %v", withBAIX, err)
		}
		head, body, _ := strings.Cut(out.String(), "\n")
		if !strings.Contains(head, " "+strconv.Itoa(n)+" records start in chr2:1-80000") {
			t.Errorf("baix=%v: summary line %q, want %d records", withBAIX, head, n)
		}
		if body != want.String() {
			t.Errorf("baix=%v: region records differ", withBAIX)
		}
	}
}

// TestWriteRegionRejectsCorruptBAIX: a corrupt BAIX beside the BAMX
// fails the query with a typed error before anything is printed.
func TestWriteRegionRejectsCorruptBAIX(t *testing.T) {
	_, bamxPath := fixture(t, t.TempDir())
	raw, err := os.ReadFile(strings.TrimSuffix(bamxPath, ".bamx") + ".baix")
	if err != nil {
		t.Fatal(err)
	}
	bamxData, err := os.ReadFile(bamxPath)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 5 + 8
	magic := bytes.Clone(raw)
	magic[0] = 'X'
	count := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(count[5:], uint64((len(raw)-hdr)/16+1))
	order := bytes.Clone(raw)
	copy(order[hdr+16:hdr+20], raw[len(raw)-16:len(raw)-12])
	for name, baix := range map[string][]byte{"magic": magic, "count": count, "order": order} {
		dir := t.TempDir()
		path := filepath.Join(dir, "c.bamx")
		if err := os.WriteFile(path, bamxData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "c.baix"), baix, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := writeRegion(&out, path, "chr1")
		switch {
		case err == nil:
			t.Errorf("%s: corrupt BAIX accepted", name)
		case name == "magic" && !strings.Contains(err.Error(), "magic"):
			t.Errorf("%s: error %q does not report the bad magic", name, err)
		case name != "magic" && !errors.Is(err, bamx.ErrCorrupt):
			t.Errorf("%s: error %q does not wrap bamx.ErrCorrupt", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %d bytes before failing", name, out.Len())
		}
	}
}
