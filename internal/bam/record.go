// Package bam implements the BAM binary encoding of SAM alignments on top
// of the bgzf package: the file header with its reference dictionary,
// little-endian record codec (4-bit packed sequences, binary CIGAR, typed
// auxiliary tags) and the BAI index with the UCSC R-tree binning scheme.
package bam

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"parseq/internal/kern"
	"parseq/internal/sam"
)

// Magic identifies a BAM stream after BGZF decompression.
var Magic = []byte{'B', 'A', 'M', 1}

// ErrInvalidRecord reports a malformed binary record.
var ErrInvalidRecord = errors.New("bam: invalid record")

// seqNibbles maps 4-bit sequence codes to bases per the specification;
// the pack/unpack loops themselves run in the word-wide kern layer.
const seqNibbles = kern.SeqChars

// EncodeRecord appends the binary form of rec (including the leading
// block_size field) to dst and returns the extended slice. The header is
// used to resolve reference names to IDs.
func EncodeRecord(dst []byte, rec *sam.Record, h *sam.Header) ([]byte, error) {
	refID := h.RefID(rec.RName)
	nextRefID := refID
	switch rec.RNext {
	case "=":
	case "*":
		nextRefID = -1
	default:
		nextRefID = h.RefID(rec.RNext)
	}
	if rec.RName != "*" && refID < 0 {
		return nil, fmt.Errorf("%w: reference %q not in header", ErrInvalidRecord, rec.RName)
	}

	nameLen := len(rec.QName) + 1 // NUL-terminated
	if nameLen > 255 {
		return nil, fmt.Errorf("%w: QNAME longer than 254 bytes", ErrInvalidRecord)
	}
	seqLen := 0
	if rec.Seq != "*" {
		seqLen = len(rec.Seq)
	}

	sizePos := len(dst)
	dst = append(dst, 0, 0, 0, 0) // block_size placeholder
	dst = appendInt32(dst, int32(refID))
	dst = appendInt32(dst, rec.Pos-1) // BAM positions are 0-based
	dst = append(dst, byte(nameLen), rec.MapQ)
	bin := reg2bin(int(rec.Pos-1), int(rec.End()))
	if rec.Unmapped() {
		bin = 4680 // convention for unplaced reads: bin of [-1, 0)
	}
	dst = appendUint16(dst, uint16(bin))
	dst = appendUint16(dst, uint16(len(rec.Cigar)))
	dst = appendUint16(dst, uint16(rec.Flag))
	dst = appendInt32(dst, int32(seqLen))
	dst = appendInt32(dst, int32(nextRefID))
	dst = appendInt32(dst, rec.PNext-1)
	dst = appendInt32(dst, rec.TLen)
	dst = append(dst, rec.QName...)
	dst = append(dst, 0)
	for _, op := range rec.Cigar {
		dst = appendUint32(dst, uint32(op))
	}
	if seqLen > 0 {
		var tail []byte
		dst, tail = kern.Grow(dst, (seqLen+1)/2)
		kern.PackSeq(tail, kern.StringBytes(rec.Seq))
		dst, tail = kern.Grow(dst, seqLen)
		if rec.Qual == "*" {
			kern.Fill(tail, 0xff)
		} else {
			kern.AddConst(tail, kern.StringBytes(rec.Qual)[:seqLen], 256-33)
		}
	}
	var err error
	for _, tag := range rec.Tags {
		dst, err = appendTag(dst, tag)
		if err != nil {
			return nil, err
		}
	}
	binary.LittleEndian.PutUint32(dst[sizePos:], uint32(len(dst)-sizePos-4))
	return dst, nil
}

func appendInt32(dst []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

func appendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendUint16(dst []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(dst, v)
}

// appendTag encodes one auxiliary field.
func appendTag(dst []byte, tag sam.Tag) ([]byte, error) {
	dst = append(dst, tag.Name[0], tag.Name[1])
	switch tag.Type {
	case 'A':
		if len(tag.Value) != 1 {
			return nil, fmt.Errorf("%w: A tag %s", ErrInvalidRecord, tag.NameString())
		}
		dst = append(dst, 'A', tag.Value[0])
	case 'i':
		v, err := strconv.ParseInt(tag.Value, 10, 64)
		if err != nil || v < math.MinInt32 || v > math.MaxUint32 {
			return nil, fmt.Errorf("%w: i tag %s value %q", ErrInvalidRecord, tag.NameString(), tag.Value)
		}
		if v > math.MaxInt32 {
			dst = append(dst, 'I')
			dst = appendUint32(dst, uint32(v))
		} else {
			dst = append(dst, 'i')
			dst = appendInt32(dst, int32(v))
		}
	case 'f':
		v, err := strconv.ParseFloat(tag.Value, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: f tag %s value %q", ErrInvalidRecord, tag.NameString(), tag.Value)
		}
		dst = append(dst, 'f')
		dst = appendUint32(dst, math.Float32bits(float32(v)))
	case 'Z', 'H':
		dst = append(dst, tag.Type)
		dst = append(dst, tag.Value...)
		dst = append(dst, 0)
	case 'B':
		return appendArrayTag(dst, tag)
	default:
		return nil, fmt.Errorf("%w: unknown tag type %c", ErrInvalidRecord, tag.Type)
	}
	return dst, nil
}

func appendArrayTag(dst []byte, tag sam.Tag) ([]byte, error) {
	sub, err := tag.ArraySubtype()
	if err != nil {
		return nil, err
	}
	parts := strings.Split(tag.Value, ",")[1:]
	dst = append(dst, 'B', sub)
	dst = appendUint32(dst, uint32(len(parts)))
	for _, p := range parts {
		if sub == 'f' {
			v, err := strconv.ParseFloat(p, 32)
			if err != nil {
				return nil, fmt.Errorf("%w: B tag element %q", ErrInvalidRecord, p)
			}
			dst = appendUint32(dst, math.Float32bits(float32(v)))
			continue
		}
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: B tag element %q", ErrInvalidRecord, p)
		}
		switch sub {
		case 'c', 'C':
			dst = append(dst, byte(v))
		case 's', 'S':
			dst = appendUint16(dst, uint16(v))
		case 'i', 'I':
			dst = appendUint32(dst, uint32(v))
		}
	}
	return dst, nil
}

// CheckRecord applies DecodeRecord's validation to one record body
// (after the block_size field) without decoding it: the fixed prefix,
// the declared name, CIGAR and sequence lengths against the body size,
// the read name's NUL terminator, and every auxiliary tag's type and
// length. A body it accepts decodes without error. It is the check that
// lets callers pass bodies through verbatim (the coordinate sorter)
// while still refusing exactly what a decoding path would.
func CheckRecord(body []byte) error {
	const fixed = 32
	if len(body) < fixed {
		return fmt.Errorf("%w: %d-byte body", ErrInvalidRecord, len(body))
	}
	nameLen := int(body[8])
	nCigar := int(binary.LittleEndian.Uint16(body[12:]))
	seqLen := int(int32(binary.LittleEndian.Uint32(body[16:])))
	if seqLen < 0 || nameLen < 1 {
		return fmt.Errorf("%w: negative lengths", ErrInvalidRecord)
	}
	need := fixed + nameLen + nCigar*4 + (seqLen+1)/2 + seqLen
	if len(body) < need {
		return fmt.Errorf("%w: body %d bytes, need %d", ErrInvalidRecord, len(body), need)
	}
	if body[fixed+nameLen-1] != 0 {
		return fmt.Errorf("%w: read name not NUL-terminated", ErrInvalidRecord)
	}
	for aux := body[need:]; len(aux) > 0; {
		if len(aux) < 3 {
			return fmt.Errorf("%w: truncated tag", ErrInvalidRecord)
		}
		n, err := auxValueLen(aux[3:], aux[2])
		if err != nil {
			return err
		}
		aux = aux[3+n:]
	}
	return nil
}

// auxValueLen returns the encoded length of one tag value of type typ
// at the start of aux, or the error decoding it would report.
func auxValueLen(aux []byte, typ byte) (int, error) {
	n := auxWidth(typ)
	switch {
	case typ == 'Z' || typ == 'H':
		i := bytes.IndexByte(aux, 0)
		if i < 0 {
			return 0, fmt.Errorf("%w: unterminated %c tag", ErrInvalidRecord, typ)
		}
		return i + 1, nil
	case typ == 'B':
		if len(aux) < 5 {
			return 0, fmt.Errorf("%w: truncated B tag", ErrInvalidRecord)
		}
		width := auxWidth(aux[0])
		if width == 0 || aux[0] == 'A' {
			return 0, fmt.Errorf("%w: B tag subtype %c", ErrInvalidRecord, aux[0])
		}
		count := int(binary.LittleEndian.Uint32(aux[1:]))
		if len(aux)-5 < count*width {
			return 0, fmt.Errorf("%w: truncated B tag array", ErrInvalidRecord)
		}
		return 5 + count*width, nil
	case n == 0:
		return 0, fmt.Errorf("%w: unknown tag type %c", ErrInvalidRecord, typ)
	case len(aux) < n:
		return 0, fmt.Errorf("%w: truncated %c tag", ErrInvalidRecord, typ)
	}
	return n, nil
}

// auxWidth is the encoded width of a fixed-size tag value (or B-array
// element) type, 0 for the variable-length and unknown types.
func auxWidth(typ byte) int {
	switch typ {
	case 'A', 'c', 'C':
		return 1
	case 's', 'S':
		return 2
	case 'i', 'I', 'f':
		return 4
	}
	return 0
}

// DecodeRecord parses one record body (after the block_size field) into
// rec. refs resolves reference IDs to names.
func DecodeRecord(body []byte, rec *sam.Record, h *sam.Header) error {
	if err := CheckRecord(body); err != nil {
		return err
	}
	const fixed = 32
	refID := int32(binary.LittleEndian.Uint32(body[0:]))
	pos := int32(binary.LittleEndian.Uint32(body[4:]))
	nameLen := int(body[8])
	rec.MapQ = body[9]
	// bin at body[10:12] is derivable; skipped on decode.
	nCigar := int(binary.LittleEndian.Uint16(body[12:]))
	rec.Flag = sam.Flag(binary.LittleEndian.Uint16(body[14:]))
	seqLen := int(int32(binary.LittleEndian.Uint32(body[16:])))
	nextRefID := int32(binary.LittleEndian.Uint32(body[20:]))
	nextPos := int32(binary.LittleEndian.Uint32(body[24:]))
	rec.TLen = int32(binary.LittleEndian.Uint32(body[28:]))

	rec.RName = h.RefByID(int(refID)).Name
	rec.Pos = pos + 1
	switch {
	case nextRefID < 0:
		rec.RNext = "*"
	case nextRefID == refID && refID >= 0:
		rec.RNext = "="
	default:
		rec.RNext = h.RefByID(int(nextRefID)).Name
	}
	rec.PNext = nextPos + 1

	off := fixed
	rec.QName = string(body[off : off+nameLen-1])
	if rec.QName == "" {
		rec.QName = "*"
	}
	off += nameLen

	if nCigar == 0 {
		rec.Cigar = nil
	} else {
		rec.Cigar = make(sam.Cigar, nCigar)
		for i := 0; i < nCigar; i++ {
			rec.Cigar[i] = sam.CigarOp(binary.LittleEndian.Uint32(body[off+i*4:]))
		}
	}
	off += nCigar * 4

	if seqLen == 0 {
		rec.Seq = "*"
		rec.Qual = "*"
	} else {
		seq := make([]byte, seqLen)
		kern.UnpackSeq(seq, body[off:], seqLen)
		rec.Seq = kern.BytesString(seq)
		off += (seqLen + 1) / 2
		if body[off] == 0xff {
			rec.Qual = "*"
		} else {
			qual := make([]byte, seqLen)
			kern.AddConst(qual, body[off:off+seqLen], 33)
			rec.Qual = kern.BytesString(qual)
		}
		off += seqLen
	}

	rec.Tags = rec.Tags[:0]
	for aux := body[off:]; len(aux) > 0; {
		typ := aux[2]
		n, _ := auxValueLen(aux[3:], typ) // validated by CheckRecord
		tag := sam.Tag{Name: [2]byte{aux[0], aux[1]}}
		tag.Type, tag.Value = decodeTagValue(aux[3:3+n], typ)
		rec.Tags = append(rec.Tags, tag)
		aux = aux[3+n:]
	}
	return nil
}

// decodeTagValue renders one validated tag value v of BAM type typ as
// its SAM type and text.
func decodeTagValue(v []byte, typ byte) (byte, string) {
	switch typ {
	case 'A':
		return 'A', string(v)
	case 'f':
		return 'f', auxFloat(v)
	case 'Z', 'H':
		return typ, string(v[:len(v)-1])
	case 'B':
		sub, width := v[0], auxWidth(v[0])
		count := int(binary.LittleEndian.Uint32(v[1:]))
		v = v[5:]
		var b strings.Builder
		b.WriteByte(sub)
		for i := 0; i < count; i++ {
			b.WriteByte(',')
			el := v[i*width : (i+1)*width]
			if sub == 'f' {
				b.WriteString(auxFloat(el))
			} else {
				b.WriteString(strconv.FormatInt(auxInt(el, sub), 10))
			}
		}
		return 'B', b.String()
	default:
		return 'i', strconv.FormatInt(auxInt(v, typ), 10)
	}
}

// auxInt decodes one little-endian integer of BAM type typ (c, C, s, S,
// i or I).
func auxInt(v []byte, typ byte) int64 {
	switch typ {
	case 'c':
		return int64(int8(v[0]))
	case 'C':
		return int64(v[0])
	case 's':
		return int64(int16(binary.LittleEndian.Uint16(v)))
	case 'S':
		return int64(binary.LittleEndian.Uint16(v))
	case 'i':
		return int64(int32(binary.LittleEndian.Uint32(v)))
	default:
		return int64(binary.LittleEndian.Uint32(v))
	}
}

// auxFloat renders one little-endian float32 the way SAM text does.
func auxFloat(v []byte) string {
	bits := binary.LittleEndian.Uint32(v)
	return strconv.FormatFloat(float64(math.Float32frombits(bits)), 'g', -1, 32)
}
