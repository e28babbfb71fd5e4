package bamx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// decodeBAIX is the whole-buffer BAIX decoder the streaming lookup
// replaced, kept as its independent oracle: every check on a byte
// slice held in full.
func decodeBAIX(data []byte) (*Index, bool) {
	if len(data) < len(baixMagic)+8 || !bytes.Equal(data[:len(baixMagic)], baixMagic) {
		return nil, false
	}
	count := binary.LittleEndian.Uint64(data[len(baixMagic):])
	if count > uint64(len(data)-len(baixMagic)-8)/16 {
		return nil, false
	}
	entries := make([]Entry, count)
	for i := range entries {
		e := data[len(baixMagic)+8+16*i:]
		entries[i] = Entry{
			RefID: int32(binary.LittleEndian.Uint32(e)),
			Pos:   int32(binary.LittleEndian.Uint32(e[4:])),
			Index: int64(binary.LittleEndian.Uint64(e[8:])),
		}
		if i > 0 {
			a, b := entries[i-1], entries[i]
			if a.RefID > b.RefID || (a.RefID == b.RefID && a.Pos > b.Pos) {
				return nil, false
			}
		}
	}
	return &Index{entries: entries}, true
}

// oracleRegion answers a region query on the in-memory index the way
// the converters used to: defaults for beg and end, Index.Region, then
// slicing (an inverted range is empty).
func oracleRegion(ix *Index, refID, beg, end int32) []Entry {
	if beg <= 0 {
		beg = 1
	}
	if end <= 0 {
		end = math.MaxInt32
	}
	lo, hi := ix.Region(refID, beg, end)
	if hi < lo {
		return nil
	}
	return ix.Entries()[lo:hi]
}

func encodeIndex(t testing.TB, entries []Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := NewIndex(entries).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzBAIXRegion holds the streaming region lookup to the whole-buffer
// oracle on arbitrary BAIX bytes and queries: the same entries, or both
// fail — never a panic, never an allocation the bytes do not back.
func FuzzBAIXRegion(f *testing.F) {
	valid := encodeIndex(f, []Entry{
		{RefID: 0, Pos: 10, Index: 0}, {RefID: 0, Pos: 10, Index: 1},
		{RefID: 0, Pos: 20, Index: 2}, {RefID: 1, Pos: 5, Index: 3},
		{RefID: 2, Pos: 1 << 30, Index: 4},
	})
	f.Add(valid, int32(0), int32(10), int32(10))
	f.Add(valid, int32(0), int32(0), int32(0))
	f.Add(valid, int32(1), int32(1), int32(100))
	f.Add(valid, int32(0), int32(30), int32(5))
	f.Add(valid, int32(-1), int32(-5), int32(-1))
	f.Add(valid[:len(valid)-3], int32(0), int32(1), int32(0))
	f.Add([]byte("BAIX\x01\xff\xff\xff\xff\xff\xff\xff\xff"), int32(0), int32(1), int32(0))
	f.Add([]byte("BAI"), int32(0), int32(1), int32(0))
	f.Fuzz(func(t *testing.T, data []byte, refID, beg, end int32) {
		got, err := readRegion(data, refID, beg, end)
		ix, ok := decodeBAIX(data)
		if !ok {
			if err == nil {
				t.Fatalf("lookup accepted a BAIX the oracle rejects: %d entries", len(got))
			}
			return
		}
		if err != nil {
			t.Fatalf("lookup rejected a valid BAIX: %v", err)
		}
		if want := oracleRegion(ix, refID, beg, end); !sameEntries(got, want) {
			t.Fatalf("lookup(%d, %d, %d) = %v, oracle %v", refID, beg, end, got, want)
		}
		full, err := ReadIndex(bytes.NewReader(data))
		if err != nil || !sameEntries(full.Entries(), ix.Entries()) {
			t.Fatalf("ReadIndex disagrees with the oracle: %v", err)
		}
	})
}

// readRegion runs the streaming lookup over BAIX bytes.
func readRegion(data []byte, refID, beg, end int32) ([]Entry, error) {
	lo, hi := regionKeys(refID, beg, end)
	return readEntries(bytes.NewReader(data), lo, hi)
}

// TestRegionLookupSpansReadBuffers runs the lookup over an index several
// read buffers long, with entries sharing positions across buffer
// boundaries, against the oracle.
func TestRegionLookupSpansReadBuffers(t *testing.T) {
	var entries []Entry
	for i := 0; i < 3*baixReadBytes/16+7; i++ {
		entries = append(entries, Entry{RefID: int32(i / 5000), Pos: int32(i%5000/3 + 1), Index: int64(i)})
	}
	raw := encodeIndex(t, entries)
	ix, ok := decodeBAIX(raw)
	if !ok {
		t.Fatal("oracle rejects a valid index")
	}
	for _, q := range [][3]int32{{0, 1, 0}, {1, 1300, 1400}, {2, 0, 0}, {3, 1, 2}, {4, 1, 1}, {1, 5, 4}} {
		got, err := readRegion(raw, q[0], q[1], q[2])
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleRegion(ix, q[0], q[1], q[2]); !sameEntries(got, want) {
			t.Errorf("lookup%v: %d entries, oracle %d", q, len(got), len(want))
		}
	}
	// An entry out of order in the last buffer still fails the query,
	// however early the region ends.
	bad := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(bad[len(bad)-16:], 0)
	if _, err := readRegion(bad, 0, 1, 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("late out-of-order entry: err = %v, want ErrCorrupt", err)
	}
}

// TestRegionLookupAllocatesForAnswerOnly: a query over a large index
// allocates for the entries it returns, not for the index.
func TestRegionLookupAllocatesForAnswerOnly(t *testing.T) {
	var entries []Entry
	for i := 0; i < 60000; i++ {
		entries = append(entries, Entry{RefID: int32(i / 20000), Pos: int32(i%20000 + 1), Index: int64(i)})
	}
	raw := encodeIndex(t, entries)
	r := bytes.NewReader(raw)
	lo, hi := regionKeys(1, 100, 101)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(raw)
		got, err := readEntries(r, lo, hi)
		if err != nil || len(got) != 2 {
			t.Fatalf("lookup = %d entries, %v", len(got), err)
		}
	})
	if allocs > 2 {
		t.Errorf("lookup made %.0f allocations for a two-entry answer", allocs)
	}
}
