package fabric

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/kernels"
	"repro/internal/stats"
)

var testSpecJSON = []byte(`{
	"machines": ["SG2042", "SG2044"],
	"axes": [{"axis": "vector", "values": [128, 256]}],
	"threads": [0, 8],
	"precisions": ["f32", "f64"]
}`)

func testSpec(t testing.TB) repro.CampaignSpec {
	t.Helper()
	spec, err := repro.CampaignSpecFromJSON(testSpecJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func evalPoints(t testing.TB, spec repro.CampaignSpec) []repro.CampaignPoint {
	t.Helper()
	res, err := repro.NewEngine(repro.Options{}).Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Points
}

// TestPointCodecRoundTrip: decode(encode(p)) through the record bytes
// is bit-identical for every point of a real campaign grid.
func TestPointCodecRoundTrip(t *testing.T) {
	for _, p := range evalPoints(t, testSpec(t)) {
		body, err := encodeFrame(p)
		if err != nil {
			t.Fatalf("point %d: %v", p.Index, err)
		}
		got, err := decodeFrame(body)
		if err != nil {
			t.Fatalf("point %d: %v", p.Index, err)
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("point %d not bit-identical across the codec", p.Index)
		}
	}
}

// TestFrameStreamRoundTrip: points written as a length-prefixed stream
// read back in order, with a clean EOF at the end and a truncation
// error — not EOF — on a cut stream.
func TestFrameStreamRoundTrip(t *testing.T) {
	points := evalPoints(t, testSpec(t))[:4]
	var buf bytes.Buffer
	for _, p := range points {
		body, err := encodeFrame(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(&buf, body); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()

	br := bufio.NewReader(bytes.NewReader(stream))
	for i, want := range points {
		got, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("frame %d differs after stream round-trip", i)
		}
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}

	cut := bufio.NewReader(bytes.NewReader(stream[:len(stream)-3]))
	var err error
	for err == nil {
		_, err = readFrame(cut)
	}
	if err == io.EOF || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("cut stream = %v, want truncation error", err)
	}
}

func TestReadFrameRejectsHostileLengths(t *testing.T) {
	// Over-long uvarint.
	overlong := bytes.Repeat([]byte{0xFF}, 10)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(overlong))); err == nil || err == io.EOF {
		t.Fatalf("over-long uvarint = %v, want error", err)
	}
	// Declared length beyond the cap: refused before allocation.
	huge := []byte{0x81, 0x80, 0x80, 0x80, 0x08} // 1<<31 + 1
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("huge length = %v, want out-of-range error", err)
	}
	// Zero length.
	if _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0x00}))); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("zero length = %v, want out-of-range error", err)
	}
}

// TestFrameRejectsEveryBitFlip: the CRC catches every single-bit
// flip in a frame's checksum or body — including flips the record
// decoder alone would accept as a different, well-formed point.
func TestFrameRejectsEveryBitFlip(t *testing.T) {
	body, err := encodeFrame(evalPoints(t, testSpec(t))[0])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	prefix := len(frame) - crcSize - len(body)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(frame))); err != nil {
		t.Fatalf("intact frame: %v", err)
	}
	flipped := make([]byte, len(frame))
	for i := prefix; i < len(frame); i++ {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, frame)
			flipped[i] ^= 1 << bit
			if _, err := readFrame(bufio.NewReader(bytes.NewReader(flipped))); err == nil || err == io.EOF {
				t.Fatalf("flip of bit %d in byte %d accepted (err %v)", bit, i, err)
			}
		}
	}
}

// TestTamperedRecordStillDecodes: flipping the low bit of a body's
// last byte, faulttest's tamper mode, leaves a well-formed record with
// a different ratio max, so only the frame CRC can catch that fault.
func TestTamperedRecordStillDecodes(t *testing.T) {
	p := evalPoints(t, testSpec(t))[0]
	body, err := encodeFrame(p)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-1] ^= 0x01
	got, err := decodeFrame(body)
	if err != nil {
		t.Fatalf("tampered record rejected by the decoder: %v", err)
	}
	if got.ByClass[kernels.Stream].Ratio.Max == p.ByClass[kernels.Stream].Ratio.Max {
		t.Fatal("tampering left the last cell's ratio max unchanged")
	}
}

// TestDecodeFrameRejectsMalformedRecords: the decoder refuses every
// proper prefix of a valid record, trailing bytes, and records whose
// counts or uvarints break the layout's rules.
func TestDecodeFrameRejectsMalformedRecords(t *testing.T) {
	p := evalPoints(t, testSpec(t))[0]
	body, err := encodeFrame(p)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(body); n++ {
		if _, err := decodeFrame(body[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(body))
		}
	}
	if _, err := decodeFrame(append(body[:len(body):len(body)], 0)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte = %v, want trailing-bytes error", err)
	}

	// The record's tail is the axis-value count, its values and the six
	// fixed cells: rebuild it by hand from a point with no axis values.
	p.Values = nil
	if body, err = encodeFrame(p); err != nil {
		t.Fatal(err)
	}
	head := body[:len(body)-kernels.NumClasses*cellSize-1]
	cell := append(append(make([]byte, 8), 1), make([]byte, 24)...)
	cells := bytes.Repeat(cell, kernels.NumClasses)
	join := func(parts ...[]byte) []byte {
		return bytes.Join(append([][]byte{head}, parts...), nil)
	}
	if _, err := decodeFrame(join([]byte{0}, cells)); err != nil {
		t.Fatalf("hand-built record rejected: %v", err)
	}
	if _, err := decodeFrame(join([]byte{1}, make([]byte, 8), cells)); err != nil {
		t.Fatalf("hand-built record with one axis value rejected: %v", err)
	}
	for name, bad := range map[string][]byte{
		"five cells":        join([]byte{0}, cells[cellSize:]),
		"count past end":    join([]byte{2}, make([]byte, 8), cells),
		"huge count":        join([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, cells),
		"overlong uvarint":  join([]byte{0}, make([]byte, 8), bytes.Repeat([]byte{0xFF}, 10), cells[9:]),
		"huge string":       {0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"index past MaxInt": {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	} {
		if _, err := decodeFrame(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEncodeFrameRejectsUnencodablePoints: a point the record cannot
// carry is an encode error, not a record the decoder would refuse.
func TestEncodeFrameRejectsUnencodablePoints(t *testing.T) {
	base := evalPoints(t, testSpec(t))[0]
	for name, mutate := range map[string]func(*repro.CampaignPoint){
		"negative index": func(p *repro.CampaignPoint) { p.Index = -1 },
		"negative cores": func(p *repro.CampaignPoint) { p.Cores = -1 },
		"negative N": func(p *repro.CampaignPoint) {
			p.ByClass[kernels.Stream] = repro.CampaignCell{Ratio: stats.Summary{N: -1}}
		},
	} {
		p := base
		mutate(&p)
		if _, err := encodeFrame(p); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// FuzzDecodePoint: the record decoder never panics, and whatever it
// accepts re-encodes canonically — e1 = encode(decode(b)) encodes to
// itself through another decode.
func FuzzDecodePoint(f *testing.F) {
	for _, p := range evalPoints(f, testSpec(f)) {
		body, err := encodeFrame(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodeFrame(b)
		if err != nil {
			return
		}
		e1, err := encodeFrame(p)
		if err != nil {
			t.Fatalf("decoded point does not encode: %v", err)
		}
		q, err := decodeFrame(e1)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		e2, err := encodeFrame(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", e1, e2)
		}
	})
}

// mixKey spreads sequential integers over the full 64-bit space, like
// the well-mixed machine fingerprints real campaigns key on.
func mixKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	targets := []string{"http://a", "http://b", "http://c"}
	r1, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"http://c", "http://a", "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for key := uint64(0); key < 4096; key++ {
		h := mixKey(key)
		a, err := r1.Owner(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r2.Owner(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("ring assignment depends on target order: %q vs %q", a, b)
		}
		counts[a]++
	}
	for _, target := range targets {
		if counts[target] == 0 {
			t.Errorf("ring never assigned anything to %s (balance: %v)", target, counts)
		}
	}
}

// TestRingExclusionMovesOnlyOrphans: excluding one worker must not
// move any key owned by a survivor.
func TestRingExclusionMovesOnlyOrphans(t *testing.T) {
	targets := []string{"http://a", "http://b", "http://c"}
	r, err := NewRing(targets)
	if err != nil {
		t.Fatal(err)
	}
	excluded := map[string]bool{"http://b": true}
	moved := 0
	for key := uint64(0); key < 4096; key++ {
		h := mixKey(key)
		before, _ := r.Owner(h, nil)
		after, err := r.Owner(h, excluded)
		if err != nil {
			t.Fatal(err)
		}
		if after == "http://b" {
			t.Fatal("excluded worker still owns a key")
		}
		if before != "http://b" && after != before {
			t.Fatalf("survivor-owned key moved from %s to %s", before, after)
		}
		if before == "http://b" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("test never exercised an orphaned key")
	}
	if _, err := r.Owner(0, map[string]bool{
		"http://a": true, "http://b": true, "http://c": true,
	}); err == nil {
		t.Fatal("fully-excluded ring returned an owner")
	}
}

func TestRingRejectsBadTargets(t *testing.T) {
	for _, targets := range [][]string{
		nil,
		{},
		{""},
		{"http://a", "http://a"},
	} {
		if _, err := NewRing(targets); err == nil {
			t.Errorf("NewRing(%q) did not error", targets)
		}
	}
}
