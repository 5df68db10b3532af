package fabric

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro"
	"repro/internal/kernels"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
)

// Frames and the point record inside them are laid out in the package
// doc. The length prefix lets the coordinator decode points as they
// arrive, so a mid-stream kill surfaces as a truncated frame rather
// than a hang; the CRC turns damaged bytes into a stream error.

// pointRecordVersion names the record layout. It is part of the model
// fingerprint, so a worker built with another layout is refused with
// 409 instead of failing mid-stream; change it with the layout.
const pointRecordVersion = 1

// maxFrameSize bounds one frame on the read side. A campaign point is
// a few hundred bytes; a declared length beyond this is a corrupt or
// hostile stream, refused before allocation.
const maxFrameSize = 1 << 20

// crcSize is the width of the frame checksum that precedes the body.
const crcSize = 4

// cellSize is the smallest encoded class cell: one-byte class id and
// N, four f64s.
const cellSize = 1 + 1 + 4*8

// encodeFrame encodes one point as a frame body.
func encodeFrame(p repro.CampaignPoint) ([]byte, error) {
	if min(p.Index, p.Threads, int(p.Placement), int(p.Prec), p.Cores) < 0 {
		return nil, fmt.Errorf("fabric: point %d has a negative integer field", p.Index)
	}
	b := make([]byte, 0, 64+len(p.Base)+len(p.Machine)+8*len(p.Values)+len(kernels.Classes)*cellSize)
	b = binary.AppendUvarint(b, uint64(p.Index))
	b = appendString(b, p.Base)
	b = appendString(b, p.Machine)
	for _, v := range [...]int{p.Threads, int(p.Placement), int(p.Prec), p.Cores} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = appendFloat(b, p.TotalSeconds)
	b = appendFloat(b, p.MeanRatio)
	b = binary.AppendUvarint(b, uint64(len(p.Values)))
	for _, v := range p.Values {
		b = appendFloat(b, v)
	}
	// At most 6 cells, so their uvarint count is one byte, set below.
	at, cells := len(b), 0
	b = append(b, 0)
	for _, c := range kernels.Classes {
		if cell, ok := p.ByClass[c]; ok {
			if cell.Ratio.N < 0 {
				return nil, fmt.Errorf("fabric: point %d: class %v has negative N", p.Index, c)
			}
			cells++
			b = binary.AppendUvarint(b, uint64(c))
			b = appendFloat(b, cell.Seconds)
			b = binary.AppendUvarint(b, uint64(cell.Ratio.N))
			b = appendFloat(b, cell.Ratio.Mean)
			b = appendFloat(b, cell.Ratio.Min)
			b = appendFloat(b, cell.Ratio.Max)
		}
	}
	if cells == 0 || cells != len(p.ByClass) {
		return nil, fmt.Errorf("fabric: point %d has %d class cells, %d of them known classes",
			p.Index, len(p.ByClass), cells)
	}
	b[at] = byte(cells)
	return b, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// decodeFrame rebuilds a CampaignPoint from a frame body. It is total:
// every length and count is checked against the bytes that remain
// before anything is allocated, the class cells must be 1-6 known
// classes in strictly increasing order, and trailing bytes are an
// error, so a damaged body fails rather than yielding a wrong point.
func decodeFrame(body []byte) (repro.CampaignPoint, error) {
	r := recordReader{b: body}
	// Go evaluates the calls of a composite literal left to right, in
	// record order.
	p := repro.CampaignPoint{
		Index:        r.int(),
		Base:         r.string(),
		Machine:      r.string(),
		Threads:      r.int(),
		Placement:    placement.Policy(r.int()),
		Prec:         prec.Precision(r.int()),
		Cores:        r.int(),
		TotalSeconds: r.float(),
		MeanRatio:    r.float(),
	}
	if n := r.count(8, math.MaxInt); n > 0 {
		p.Values = make([]float64, n)
		for i := range p.Values {
			p.Values[i] = r.float()
		}
	}
	cells := r.count(cellSize, len(kernels.Classes))
	if cells == 0 {
		r.fail("no class cells")
		return repro.CampaignPoint{}, r.err
	}
	p.ByClass = make(map[kernels.Class]repro.CampaignCell, cells)
	last := -1
	for range cells {
		id := r.int()
		if id <= last || id >= len(kernels.Classes) {
			r.fail("class id %d after %d (want increasing, below %d)", id, last, len(kernels.Classes))
		}
		last = id
		p.ByClass[kernels.Class(id)] = repro.CampaignCell{
			Seconds: r.float(),
			Ratio:   stats.Summary{N: r.int(), Mean: r.float(), Min: r.float(), Max: r.float()},
		}
	}
	if len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return repro.CampaignPoint{}, r.err
	}
	return p, nil
}

// recordReader consumes a point record. The first failure sticks and
// later reads return zero values and consume nothing, so decodeFrame
// checks the error once rather than after every field.
type recordReader struct {
	b   []byte
	err error
}

func (r *recordReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("fabric: point record: "+format, args...)
	}
}

// int reads a uvarint that must fit an int.
func (r *recordReader) int() int {
	v, n := binary.Uvarint(r.b)
	if r.err != nil || n <= 0 || v > math.MaxInt {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// count reads an element count no larger than max whose elements, at
// least size bytes each, fit in the bytes that remain.
func (r *recordReader) count(size, max int) int {
	n := r.int()
	if n > max || n > len(r.b)/size {
		r.fail("count %d exceeds the record (%d bytes left)", n, len(r.b))
		return 0
	}
	return n
}

func (r *recordReader) string() string {
	n := r.count(1, math.MaxInt)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *recordReader) float() float64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// writeFrame writes one frame around body in two writes: the length
// prefix with the body's CRC-32, then the body.
func writeFrame(w io.Writer, body []byte) error {
	var hdr [binary.MaxVarintLen64 + crcSize]byte
	n := binary.PutUvarint(hdr[:], uint64(crcSize+len(body)))
	binary.BigEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(hdr[:n+crcSize]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame, checks its CRC and decodes the point. It
// returns io.EOF exactly at a clean stream end; a length prefix
// followed by a short frame is a truncation error, not EOF, and a
// checksum mismatch is an error like any other damaged stream.
func readFrame(br *bufio.Reader) (repro.CampaignPoint, error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return repro.CampaignPoint{}, io.EOF
		}
		return repro.CampaignPoint{}, fmt.Errorf("fabric: reading frame length: %w", err)
	}
	if size <= crcSize || size > maxFrameSize {
		return repro.CampaignPoint{}, fmt.Errorf("fabric: frame length %d out of range (max %d)", size, maxFrameSize)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(br, buf); err != nil {
		return repro.CampaignPoint{}, fmt.Errorf("fabric: frame truncated: %w", err)
	}
	body := buf[crcSize:]
	if want, got := binary.BigEndian.Uint32(buf), crc32.ChecksumIEEE(body); got != want {
		return repro.CampaignPoint{}, fmt.Errorf("fabric: frame checksum %08x, want %08x", got, want)
	}
	return decodeFrame(body)
}
