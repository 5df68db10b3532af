package fabric

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro"
	"repro/internal/kernels"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/stats"
	"repro/internal/wire"
)

// The point codec: one evaluated CampaignPoint per wire frame. The
// frame is a column table with one row per kernel class (sorted by
// class, so encoding is canonical); the point's scalar fields repeat
// on every row, its axis values travel as one column per axis (v0,
// v1, ...), absent when the campaign has no axes. All float64 fields
// ride the wire format's IEEE-754 bit patterns, so decode(encode(p))
// is bit-identical to p — the property the distributed determinism
// contract stands on.
//
// On the stream each frame is its uvarint byte length, a CRC-32 (IEEE,
// big-endian) of the body, then the body. The length prefix lets the
// coordinator decode points incrementally as the worker flushes them,
// so a mid-stream kill surfaces as a truncated frame rather than a
// hang; the checksum turns bytes damaged in transit into a stream
// error instead of a silently wrong point.

// pointKind is the frame kind of an encoded campaign point.
const pointKind = "campaign-point"

// maxFrameSize bounds one frame on the read side. A campaign point is
// a few hundred bytes; a declared length beyond this is a corrupt or
// hostile stream, refused before allocation.
const maxFrameSize = 1 << 20

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// encodePoint shapes one evaluated point as a wire table.
func encodePoint(p repro.CampaignPoint) (wire.Table, error) {
	if len(p.ByClass) == 0 {
		return wire.Table{}, fmt.Errorf("fabric: point %d has no class cells", p.Index)
	}
	classes := make([]kernels.Class, 0, len(p.ByClass))
	for c := range p.ByClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	rows := len(classes)
	rep := func(v int64) []int64 {
		col := make([]int64, rows)
		for i := range col {
			col[i] = v
		}
		return col
	}
	repf := func(v float64) []float64 {
		col := make([]float64, rows)
		for i := range col {
			col[i] = v
		}
		return col
	}
	repS := func(v string) []string {
		col := make([]string, rows)
		for i := range col {
			col[i] = v
		}
		return col
	}

	t := wire.Table{
		Kind:  pointKind,
		Title: p.Machine,
		Columns: []wire.Column{
			{Name: "index", Type: wire.Int64, Ints: rep(int64(p.Index))},
			{Name: "base", Type: wire.String, Strings: repS(p.Base)},
			{Name: "threads", Type: wire.Int64, Ints: rep(int64(p.Threads))},
			{Name: "placement", Type: wire.Int64, Ints: rep(int64(p.Placement))},
			{Name: "prec", Type: wire.Int64, Ints: rep(int64(p.Prec))},
			{Name: "cores", Type: wire.Int64, Ints: rep(int64(p.Cores))},
			{Name: "total_seconds", Type: wire.Float64, Floats: repf(p.TotalSeconds)},
			{Name: "mean_ratio", Type: wire.Float64, Floats: repf(p.MeanRatio)},
		},
	}
	for i, v := range p.Values {
		t.Columns = append(t.Columns, wire.Column{
			Name: fmt.Sprintf("v%d", i), Type: wire.Float64, Floats: repf(v),
		})
	}
	classCol := make([]int64, rows)
	secCol := make([]float64, rows)
	nCol := make([]int64, rows)
	meanCol := make([]float64, rows)
	minCol := make([]float64, rows)
	maxCol := make([]float64, rows)
	for i, c := range classes {
		cell := p.ByClass[c]
		classCol[i] = int64(c)
		secCol[i] = cell.Seconds
		nCol[i] = int64(cell.Ratio.N)
		meanCol[i] = cell.Ratio.Mean
		minCol[i] = cell.Ratio.Min
		maxCol[i] = cell.Ratio.Max
	}
	t.Columns = append(t.Columns,
		wire.Column{Name: "class", Type: wire.Int64, Ints: classCol},
		wire.Column{Name: "class_seconds", Type: wire.Float64, Floats: secCol},
		wire.Column{Name: "ratio_n", Type: wire.Int64, Ints: nCol},
		wire.Column{Name: "ratio_mean", Type: wire.Float64, Floats: meanCol},
		wire.Column{Name: "ratio_min", Type: wire.Float64, Floats: minCol},
		wire.Column{Name: "ratio_max", Type: wire.Float64, Floats: maxCol},
	)
	return t, nil
}

// decodePoint rebuilds a CampaignPoint from its frame, validating the
// frame's shape (constant scalar columns, sorted unique classes) so a
// corrupt stream surfaces as an error, never as a silently-wrong
// point.
func decodePoint(t wire.Table) (repro.CampaignPoint, error) {
	var p repro.CampaignPoint
	if t.Kind != pointKind {
		return p, fmt.Errorf("fabric: frame kind %q, want %q", t.Kind, pointKind)
	}
	rows := t.NumRows()
	if rows == 0 {
		return p, fmt.Errorf("fabric: point frame has no rows")
	}

	intCol := func(name string) ([]int64, error) {
		c, err := findColumn(&t, name, wire.Int64)
		if err != nil {
			return nil, err
		}
		return c.Ints, nil
	}
	floatCol := func(name string) ([]float64, error) {
		c, err := findColumn(&t, name, wire.Float64)
		if err != nil {
			return nil, err
		}
		return c.Floats, nil
	}
	constInt := func(name string) (int64, error) {
		col, err := intCol(name)
		if err != nil {
			return 0, err
		}
		for _, v := range col[1:] {
			if v != col[0] {
				return 0, fmt.Errorf("fabric: column %q varies across rows", name)
			}
		}
		return col[0], nil
	}
	constFloat := func(name string) (float64, error) {
		col, err := floatCol(name)
		if err != nil {
			return 0, err
		}
		for _, v := range col[1:] {
			if v != col[0] {
				return 0, fmt.Errorf("fabric: column %q varies across rows", name)
			}
		}
		return col[0], nil
	}

	idx, err := constInt("index")
	if err != nil {
		return p, err
	}
	baseCol, err := findColumn(&t, "base", wire.String)
	if err != nil {
		return p, err
	}
	for _, v := range baseCol.Strings[1:] {
		if v != baseCol.Strings[0] {
			return p, fmt.Errorf("fabric: column \"base\" varies across rows")
		}
	}
	threads, err := constInt("threads")
	if err != nil {
		return p, err
	}
	pol, err := constInt("placement")
	if err != nil {
		return p, err
	}
	pr, err := constInt("prec")
	if err != nil {
		return p, err
	}
	cores, err := constInt("cores")
	if err != nil {
		return p, err
	}
	total, err := constFloat("total_seconds")
	if err != nil {
		return p, err
	}
	mean, err := constFloat("mean_ratio")
	if err != nil {
		return p, err
	}
	if idx < 0 {
		return p, fmt.Errorf("fabric: negative point index %d", idx)
	}

	p.Index = int(idx)
	p.Base = baseCol.Strings[0]
	p.Machine = t.Title
	p.Threads = int(threads)
	p.Placement = placement.Policy(pol)
	p.Prec = prec.Precision(pr)
	p.Cores = int(cores)
	p.TotalSeconds = total
	p.MeanRatio = mean
	for i := 0; ; i++ {
		c, err := findColumn(&t, fmt.Sprintf("v%d", i), wire.Float64)
		if err != nil {
			break
		}
		v, err := constFloat(c.Name)
		if err != nil {
			return p, err
		}
		p.Values = append(p.Values, v)
	}

	classCol, err := intCol("class")
	if err != nil {
		return p, err
	}
	secCol, err := floatCol("class_seconds")
	if err != nil {
		return p, err
	}
	nCol, err := intCol("ratio_n")
	if err != nil {
		return p, err
	}
	meanCol, err := floatCol("ratio_mean")
	if err != nil {
		return p, err
	}
	minCol, err := floatCol("ratio_min")
	if err != nil {
		return p, err
	}
	maxCol, err := floatCol("ratio_max")
	if err != nil {
		return p, err
	}
	p.ByClass = make(map[kernels.Class]repro.CampaignCell, rows)
	for i := 0; i < rows; i++ {
		c := kernels.Class(classCol[i])
		if _, dup := p.ByClass[c]; dup {
			return p, fmt.Errorf("fabric: class %d repeated in point frame", classCol[i])
		}
		p.ByClass[c] = repro.CampaignCell{
			Seconds: secCol[i],
			Ratio: stats.Summary{
				N:    int(nCol[i]),
				Mean: meanCol[i],
				Min:  minCol[i],
				Max:  maxCol[i],
			},
		}
	}
	return p, nil
}

// findColumn locates a named column of the expected type.
func findColumn(t *wire.Table, name string, typ wire.ColType) (*wire.Column, error) {
	for i := range t.Columns {
		c := &t.Columns[i]
		if c.Name == name {
			if c.Type != typ {
				return nil, fmt.Errorf("fabric: column %q has type %v, want %v", name, c.Type, typ)
			}
			return c, nil
		}
	}
	return nil, fmt.Errorf("fabric: frame %q lacks column %q", t.Kind, name)
}

// crcSize is the width of the frame checksum that precedes the body.
const crcSize = 4

// encodeFrame encodes one point as a frame body.
func encodeFrame(p repro.CampaignPoint) ([]byte, error) {
	t, err := encodePoint(p)
	if err != nil {
		return nil, err
	}
	return wire.Encode(t)
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

// readFrame reads one frame, checks its CRC and decodes the body. It
// returns io.EOF exactly at a clean stream end; a length prefix
// followed by a short frame is a truncation error, not EOF, and a
// checksum mismatch is an error like any other damaged stream.
func readFrame(br *bufio.Reader) (wire.Table, error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return wire.Table{}, io.EOF
		}
		return wire.Table{}, fmt.Errorf("fabric: reading frame length: %w", err)
	}
	if size <= crcSize || size > maxFrameSize {
		return wire.Table{}, fmt.Errorf("fabric: frame length %d out of range (max %d)", size, maxFrameSize)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(br, buf); err != nil {
		return wire.Table{}, fmt.Errorf("fabric: frame truncated: %w", err)
	}
	body := buf[crcSize:]
	if want, got := binary.BigEndian.Uint32(buf), crc32.ChecksumIEEE(body); got != want {
		return wire.Table{}, fmt.Errorf("fabric: frame checksum %08x, want %08x", got, want)
	}
	t, rest, err := wire.Decode(body)
	if err != nil {
		return wire.Table{}, fmt.Errorf("fabric: decoding frame: %w", err)
	}
	if len(rest) != 0 {
		return wire.Table{}, fmt.Errorf("fabric: %d trailing bytes in frame", len(rest))
	}
	return t, nil
}
