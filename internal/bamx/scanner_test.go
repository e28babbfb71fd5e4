package bamx

import (
	"testing"

	"parseq/internal/sam"
)

func TestScannerFullSweep(t *testing.T) {
	d := dataset(t, 500)
	f, _ := buildBAMX(t, d)
	scan := f.Scan(0, f.NumRecords())
	var rec sam.Record
	i := 0
	for {
		ok, err := scan.Next(&rec)
		if err != nil {
			t.Fatalf("Next at %d: %v", i, err)
		}
		if !ok {
			break
		}
		if rec.String() != d.Records[i].String() {
			t.Fatalf("record %d differs", i)
		}
		i++
	}
	if i != 500 {
		t.Fatalf("scanned %d records, want 500", i)
	}
	// Exhausted scanner stays exhausted.
	ok, err := scan.Next(&rec)
	if ok || err != nil {
		t.Errorf("Next after end = %v, %v", ok, err)
	}
}

func TestScannerSubRange(t *testing.T) {
	d := dataset(t, 200)
	f, _ := buildBAMX(t, d)
	scan := f.Scan(50, 75)
	var rec sam.Record
	for i := 50; i < 75; i++ {
		ok, err := scan.Next(&rec)
		if err != nil || !ok {
			t.Fatalf("Next(%d) = %v, %v", i, ok, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Fatalf("record %d differs", i)
		}
	}
	if ok, _ := scan.Next(&rec); ok {
		t.Error("scanner ran past its range")
	}
}

func TestScannerEmptyAndClampedRanges(t *testing.T) {
	d := dataset(t, 20)
	f, _ := buildBAMX(t, d)
	var rec sam.Record
	// Empty range.
	if ok, err := f.Scan(5, 5).Next(&rec); ok || err != nil {
		t.Errorf("empty range Next = %v, %v", ok, err)
	}
	// Ranges clamp to the file bounds.
	scan := f.Scan(-3, 1000)
	n := 0
	for {
		ok, err := scan.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 20 {
		t.Errorf("clamped scan read %d records, want 20", n)
	}
}

func TestScannerCrossesChunkBoundaries(t *testing.T) {
	// Enough records to force multiple 1 MiB chunks.
	d := dataset(t, 6000)
	f, _ := buildBAMX(t, d)
	if int64(f.Stride())*f.NumRecords() < 2*scanChunkBytes {
		t.Skip("dataset too small to span chunks")
	}
	scan := f.Scan(0, f.NumRecords())
	var rec sam.Record
	n := 0
	for {
		ok, err := scan.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if int64(n) != f.NumRecords() {
		t.Errorf("scanned %d of %d records", n, f.NumRecords())
	}
}

func BenchmarkScannerSweep(b *testing.B) {
	d := dataset(b, 5000)
	f, _ := buildBAMX(b, d)
	var rec sam.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan := f.Scan(0, f.NumRecords())
		for {
			ok, err := scan.Next(&rec)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
}

// TestScannerResetRuns reads several runs through one scanner: its
// buffer is sized to the run, not to a megabyte, and is reused.
func TestScannerResetRuns(t *testing.T) {
	d := dataset(t, 300)
	f, _ := buildBAMX(t, d)
	scan := f.Scan(10, 13)
	if got, want := cap(scan.buf), 3*f.Stride(); got != want {
		t.Errorf("3-record scan buffers %d bytes, want %d", got, want)
	}
	var rec sam.Record
	for _, run := range [][2]int64{{10, 13}, {200, 202}, {0, 1}, {5, 5}, {290, 300}} {
		if run != [2]int64{10, 13} {
			scan.Reset(run[0], run[1])
		}
		for i := run[0]; i < run[1]; i++ {
			ok, err := scan.Next(&rec)
			if err != nil || !ok {
				t.Fatalf("run %v: Next(%d) = %v, %v", run, i, ok, err)
			}
			if rec.String() != d.Records[i].String() {
				t.Fatalf("run %v: record %d differs", run, i)
			}
		}
		if ok, _ := scan.Next(&rec); ok {
			t.Fatalf("run %v: scanner ran past its range", run)
		}
	}
	if got, want := cap(scan.buf), 10*f.Stride(); got != want {
		t.Errorf("after a 10-record run the buffer is %d bytes, want %d", got, want)
	}
}
