package pamx

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/sam"
)

// bamWriterOpts maps pamx codec Options onto the bam.Writer option set
// with the same semantics: 0 shares the process pool, 1 is sequential,
// n > 1 a private pool. Every path emits bit-identical BGZF bytes.
func bamWriterOpts(opts Options) []bam.Option {
	switch {
	case opts.CodecWorkers == 1:
		return nil
	case opts.CodecWorkers > 1:
		return []bam.Option{bam.WithCodecWorkers(opts.CodecWorkers)}
	default:
		return []bam.Option{bam.WithSharedCodec()}
	}
}

// FromBAM converts a BAM file into PAMX at pamxPath, streaming record
// bodies straight into the column splitter without decoding. Returns the
// record count.
func FromBAM(bamPath, pamxPath string, opts Options) (int64, error) {
	in, err := os.Open(bamPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	var ropts []bam.Option
	if opts.CodecWorkers > 1 {
		ropts = append(ropts, bam.WithCodecWorkers(opts.CodecWorkers))
	}
	br, err := bam.NewReader(bufio.NewReaderSize(in, 1<<20), ropts...)
	if err != nil {
		return 0, err
	}
	defer br.Close()
	return writePAMX(pamxPath, br.Header(), opts, func(w *Writer) error {
		for {
			body, err := br.ReadBody()
			if err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
			if err := w.WriteBody(body); err != nil {
				return err
			}
		}
	})
}

// FromBAMX converts a fixed-stride BAMX file into PAMX, reassembling
// each record body from its padded slot.
func FromBAMX(bamxPath, pamxPath string, opts Options) (int64, error) {
	in, err := os.Open(bamxPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return 0, err
	}
	xf, err := bamx.Open(in, st.Size())
	if err != nil {
		return 0, err
	}
	return writePAMX(pamxPath, xf.Header(), opts, func(w *Writer) error {
		raw := make([]byte, xf.Stride())
		var body []byte
		for i := int64(0); i < xf.NumRecords(); i++ {
			if err := xf.ReadRaw(i, raw); err != nil {
				return err
			}
			body, err = xf.AppendBody(body[:0], raw)
			if err != nil {
				return err
			}
			if err := w.WriteBody(body); err != nil {
				return err
			}
		}
		return nil
	})
}

// writePAMX runs fill against a Writer on a fresh file at path, closing
// both in order and unlinking the partial file on error.
func writePAMX(path string, h *sam.Header, opts Options, fill func(*Writer) error) (int64, error) {
	out, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	w, err := NewWriter(bw, h, opts)
	if err == nil {
		if err = fill(w); err != nil {
			w.fail(err)
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, err
	}
	return w.Count(), nil
}

// ToBAM converts a PAMX file back into BAM at bamPath with the full
// projection — the return leg of the byte-identity round-trip contract.
func ToBAM(pamxPath, bamPath string, opts Options) (int64, error) {
	pf, err := OpenPath(pamxPath)
	if err != nil {
		return 0, err
	}
	defer pf.Close()
	out, err := os.Create(bamPath)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	w, err := bam.NewWriter(bw, pf.Header(), bamWriterOpts(opts)...)
	if err != nil {
		out.Close()
		os.Remove(bamPath)
		return 0, err
	}
	var count int64
	var rec []byte
	err = func() error {
		for i := 0; i < pf.NumGroups(); i++ {
			gr, err := pf.NewGroupReader(i, FieldAll)
			if err != nil {
				return err
			}
			for {
				body, err := gr.NextBody()
				if err == io.EOF {
					break
				}
				if err != nil {
					gr.Close()
					return err
				}
				rec = binary.LittleEndian.AppendUint32(rec[:0], uint32(len(body)))
				rec = append(rec, body...)
				if err := w.WriteEncoded(rec); err != nil {
					gr.Close()
					return err
				}
				count++
			}
			gr.Close()
		}
		return nil
	}()
	if err == nil {
		err = w.Close()
	} else {
		w.Close()
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(bamPath)
		return 0, err
	}
	if want := pf.NumRecords(); count != want {
		return count, fmt.Errorf("%w: footer declares %d records, read %d", ErrCorrupt, want, count)
	}
	return count, nil
}
