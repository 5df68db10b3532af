package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"

	"repro"
)

// checkCampaignBody checks an NDJSON campaign body: exactly points
// point lines, each valid JSON and carrying its own grid index in grid
// order, then one summary line that counts the same points.
func checkCampaignBody(body []byte, points int) error {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return fmt.Errorf("ndjson body is empty or lacks a final newline")
	}
	rest := body
	var prefix []byte
	for i := 0; i < points; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return fmt.Errorf("ndjson body ends after %d of %d point lines", i, points)
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		prefix = strconv.AppendInt(append(prefix[:0], `{"point":`...), int64(i), 10)
		prefix = append(prefix, ',')
		if !bytes.HasPrefix(line, prefix) {
			return fmt.Errorf("ndjson line %d is not point %d in grid order: %.80s", i, i, line)
		}
		if !json.Valid(line) {
			return fmt.Errorf("ndjson line %d is not valid JSON", i)
		}
	}
	var sum struct {
		Summary *struct {
			Points int `json:"points"`
		} `json:"summary"`
	}
	if bytes.Count(rest, []byte{'\n'}) != 1 {
		return fmt.Errorf("ndjson body has %d lines after the points, want one summary line", bytes.Count(rest, []byte{'\n'}))
	}
	if err := json.Unmarshal(rest, &sum); err != nil || sum.Summary == nil {
		return fmt.Errorf("ndjson final line is not a summary: %.80s", rest)
	}
	if sum.Summary.Points != points {
		return fmt.Errorf("ndjson summary counts %d points, want %d", sum.Summary.Points, points)
	}
	return nil
}

// checkHotBody validates a serve-hot target's warm-pass body by its
// format: binary bodies decode as wire tables, the NDJSON campaign has
// its points and summary, and every other body is non-empty.
func checkHotBody(t hotTarget, body []byte) error {
	switch {
	case len(body) == 0:
		return fmt.Errorf("%s: empty body", t.name)
	case t.binary:
		if _, err := repro.DecodeWire(body); err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
	case t.ndjson:
		if err := checkCampaignBody(body, t.points); err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
	}
	return nil
}

// digest is a body's SHA-256.
type digest [sha256.Size]byte

func digestOf(body []byte) digest { return sha256.Sum256(body) }

// checkDigests compares each body digest against the reference
// digest for the same spec and reports the first mismatch.
func checkDigests(got, want []digest) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d bodies against %d reference bodies", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("campaign %d: body sha256 %x differs from the local body's %x", i, got[i], want[i])
		}
	}
	return nil
}
