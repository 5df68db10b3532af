package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/wire"
)

// workerServer mounts a fresh worker on an httptest server.
func workerServer(t *testing.T) (*Worker, *httptest.Server) {
	t.Helper()
	wk := NewWorker(repro.NewEngine(repro.Options{}), nil)
	mux := http.NewServeMux()
	wk.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return wk, srv
}

// postJSON posts body and returns the status and the decoded JSON
// error envelope or warm response.
func postJSON(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s = %s with an undecodable body: %v", url, resp.Status, err)
	}
	return resp.StatusCode
}

// TestWorkerBoundsRequestBodies: a points or warm body past the bound
// is refused with the 400 JSON envelope the public surface sends for
// an over-size body, while the largest legitimate points request — a
// spec of the public cap plus every index a grid can have — still
// reaches validation.
func TestWorkerBoundsRequestBodies(t *testing.T) {
	_, srv := workerServer(t)
	oversize := map[string][]byte{
		PointsPath: []byte(`{"points":[` + strings.Repeat("0,", maxRequestBytes/2) + `0]}`),
		WarmPath:   []byte(`{"peers":[],"arc":"` + strings.Repeat("x", maxRequestBytes) + `"}`),
	}
	for path, body := range oversize {
		var env map[string]string
		if code := postJSON(t, srv.URL+path, body, &env); code != http.StatusBadRequest ||
			!strings.Contains(env["error"], "too large") {
			t.Errorf("%s: %d-byte body = %d %.200q, want 400 naming the size", path, len(body), code, env["error"])
		}
	}

	spec := string(testSpecJSON) + strings.Repeat(" ", repro.MaxSpecBytes-len(testSpecJSON))
	indices := make([]string, repro.MaxCampaignPoints)
	for i := range indices {
		indices[i] = strconv.Itoa(i)
	}
	body := []byte(`{"model":"` + modelFingerprint() + `","spec":` + spec +
		`,"points":[` + strings.Join(indices, ",") + `]}`)
	var env map[string]string
	if code := postJSON(t, srv.URL+PointsPath, body, &env); code != http.StatusBadRequest ||
		!strings.Contains(env["error"], "out of range") {
		t.Errorf("largest legitimate request (%d bytes) = %d %q, want the out-of-range refusal", len(body), code, env["error"])
	}
}

// TestWarmRejectsOversizedPeerSnapshot: a peer, which the client
// names, declaring a snapshot past the largest one a full cache
// produces is reported and never read.
func TestWarmRejectsOversizedPeerSnapshot(t *testing.T) {
	wk, srv := workerServer(t)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(repro.MaxSnapshotBytes+1))
		_, _ = w.Write([]byte("SG42"))
	}))
	defer peer.Close()
	var resp warmResponse
	body, _ := json.Marshal(warmRequest{Peers: []string{peer.URL}})
	if code := postJSON(t, srv.URL+WarmPath, body, &resp); code != http.StatusOK {
		t.Fatalf("warm = %d, want 200", code)
	}
	if resp.Installed != 0 || resp.Peers != 0 || len(resp.Errors) != 1 ||
		!strings.Contains(resp.Errors[0], "exceeds") {
		t.Fatalf("warm from an oversized peer = %+v, want one size error", resp)
	}
	if s := wk.eng.SuiteCacheStats(); s.Entries != 0 {
		t.Fatalf("oversized peer left %d cache entries", s.Entries)
	}
}

// TestWarmFromPoisonedPeerInstallsNothing: a peer serving a snapshot
// whose base-machine entries hold one kernel row each warms nothing
// and is reported; the worker's next shard then streams every point
// bit-identical to a single process instead of indexing past a short
// base entry.
func TestWarmFromPoisonedPeerInstallsNothing(t *testing.T) {
	spec := testSpec(t)
	want := evalPoints(t, spec)

	donor := repro.NewEngine(repro.Options{})
	if _, err := donor.Campaign(spec); err != nil {
		t.Fatal(err)
	}
	snap, err := donor.SnapshotCache()
	if err != nil {
		t.Fatal(err)
	}
	frames, err := wire.DecodeAll(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if frames[i].Kind != "snapshot-suite" || (frames[i].Title != "SG2042" && frames[i].Title != "SG2044") {
			continue
		}
		for j := range frames[i].Columns {
			c := &frames[i].Columns[j]
			c.Strings, c.Ints, c.Floats = c.Strings[:min(1, len(c.Strings))], c.Ints[:min(1, len(c.Ints))], c.Floats[:min(1, len(c.Floats))]
		}
	}
	poisoned, err := wire.Encode(frames...)
	if err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", SnapshotContentType)
		_, _ = w.Write(poisoned)
	}))
	defer peer.Close()

	wk, srv := workerServer(t)
	var resp warmResponse
	body, _ := json.Marshal(warmRequest{Peers: []string{peer.URL}})
	if code := postJSON(t, srv.URL+WarmPath, body, &resp); code != http.StatusOK {
		t.Fatalf("warm = %d, want 200", code)
	}
	if resp.Installed != 0 || resp.Peers != 0 || len(resp.Errors) != 1 {
		t.Errorf("warm from a poisoned peer = %+v, want nothing installed and one error", resp)
	}
	if s := wk.eng.SuiteCacheStats(); s.Entries != 0 {
		t.Errorf("poisoned peer left %d cache entries", s.Entries)
	}

	indices := make([]int, len(want))
	for i := range indices {
		indices[i] = i
	}
	body, _ = json.Marshal(pointsRequest{Spec: testSpecJSON, Points: indices, Model: modelFingerprint()})
	pr, err := http.Post(srv.URL+PointsPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("points after a poisoned warm = %s", pr.Status)
	}
	got := make([]repro.CampaignPoint, len(want))
	br := bufio.NewReader(pr.Body)
	for range want {
		p, err := readFrame(br)
		if err != nil {
			t.Fatalf("points stream: %v", err)
		}
		got[p.Index] = p
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("points after a poisoned warm differ from a single process")
	}
}
