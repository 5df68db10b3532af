package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// postJSON posts body and returns the status and the decoded JSON
// error envelope.
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

// TestWorkerBoundsRequestBodies: a points body past the bound is
// refused with the 400 JSON envelope the public surface sends for an
// over-size body, while the largest legitimate points request — a spec
// of the public cap plus every index a grid can have — still reaches
// validation.
func TestWorkerBoundsRequestBodies(t *testing.T) {
	srv := httptest.NewServer(NewWorker(repro.NewEngine(repro.Options{}), nil))
	defer srv.Close()
	oversize := []byte(`{"points":[` + strings.Repeat("0,", maxRequestBytes/2) + `0]}`)
	var env map[string]string
	if code := postJSON(t, srv.URL+PointsPath, oversize, &env); code != http.StatusBadRequest ||
		!strings.Contains(env["error"], "too large") {
		t.Errorf("%d-byte points body = %d %.200q, want 400 naming the size", len(oversize), code, env["error"])
	}

	spec := string(testSpecJSON) + strings.Repeat(" ", repro.MaxSpecBytes-len(testSpecJSON))
	indices := make([]string, repro.MaxCampaignPoints)
	for i := range indices {
		indices[i] = strconv.Itoa(i)
	}
	body := []byte(`{"model":"` + modelFingerprint() + `","spec":` + spec +
		`,"points":[` + strings.Join(indices, ",") + `]}`)
	env = nil
	if code := postJSON(t, srv.URL+PointsPath, body, &env); code != http.StatusBadRequest ||
		!strings.Contains(env["error"], "out of range") {
		t.Errorf("largest legitimate request (%d bytes) = %d %q, want the out-of-range refusal", len(body), code, env["error"])
	}
}
