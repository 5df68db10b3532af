package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const fabricCampaignBody = `{
	"machines": ["SG2042", "SG2044"],
	"axes": [{"axis": "vector", "values": [128, 256]}],
	"threads": [0, 8]
}`

// stopDaemon cancels the daemon and waits for a clean exit.
func stopDaemon(t *testing.T, cancel context.CancelFunc, done <-chan int) {
	t.Helper()
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("shutdown exit code %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// postBody POSTs a campaign and returns status and body.
func postBody(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/campaign", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// TestWorkerCoordinateExclusive: the two roles cannot be combined.
func TestWorkerCoordinateExclusive(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-worker", "-coordinate", "http://w:1"}, &out, &errOut, nil)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "mutually exclusive") {
		t.Errorf("stderr %q lacks the exclusivity message", errOut.String())
	}
}

// TestCoordinateRejectsBadFleet: an empty or duplicated target list
// fails at boot, before the listener is up.
func TestCoordinateRejectsBadFleet(t *testing.T) {
	for _, list := range []string{",", "http://w:1,http://w:1"} {
		var out, errOut strings.Builder
		if code := run(context.Background(), []string{"-coordinate", list}, &out, &errOut, nil); code != 2 {
			t.Errorf("-coordinate %q: exit %d, want 2 (stderr: %s)", list, code, errOut.String())
		}
	}
}

// TestRestoreRejectsBadSnapshot: a snapshot that does not decode fails
// the boot with exit 1 — never serve cold pretending to be warm.
func TestRestoreRejectsBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-restore", bad}, &out, &errOut, nil); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "restore") {
		t.Errorf("stderr %q lacks a restore error", errOut.String())
	}
	missing := filepath.Join(dir, "missing.snap")
	errOut.Reset()
	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-restore", missing}, &out, &errOut, nil); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
}

// TestSnapshotRestoreCycle: a daemon life that evaluated a campaign
// writes its cache on shutdown, and the next life boots warm from it.
func TestSnapshotRestoreCycle(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cache.snap")

	// Life one: evaluate a campaign, shut down, leave a snapshot behind.
	url, cancel, done := startDaemon(t, "-parallel", "2", "-snapshot", snap)
	if status, body := postBody(t, url, fabricCampaignBody); status != http.StatusOK {
		t.Fatalf("campaign status %d: %s", status, body)
	}
	stopDaemon(t, cancel, done)
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot not written: %v", err)
	}

	// Life two: boot from the snapshot. The restore count is visible on
	// stdout, and the same campaign answers with identical bytes.
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	ready := make(chan string, 1)
	done2 := make(chan int, 1)
	var out, errOut strings.Builder
	go func() {
		done2 <- run(ctx, []string{"-addr", "127.0.0.1:0", "-parallel", "2", "-restore", snap}, &out, &errOut, ready)
	}()
	var url2 string
	select {
	case addr := <-ready:
		url2 = "http://" + addr
	case code := <-done2:
		t.Fatalf("warm daemon exited with code %d; stderr: %s", code, errOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("warm daemon did not come up")
	}
	if !strings.Contains(out.String(), "restored") {
		t.Errorf("stdout %q lacks the restore report", out.String())
	}
	status, warmBody := postBody(t, url2, fabricCampaignBody)
	if status != http.StatusOK {
		t.Fatalf("warm campaign status %d: %s", status, warmBody)
	}
	stopDaemon(t, cancel2, done2)
}

// TestWorkerServesShardEndpoint: under -worker the fabric endpoint is
// mounted and a coordinator daemon pointed at two workers serves the
// campaign byte-identically to a plain daemon.
func TestWorkerServesShardEndpoint(t *testing.T) {
	w1, cancel1, done1 := startDaemon(t, "-parallel", "2", "-worker")
	defer cancel1()
	w2, cancel2, done2 := startDaemon(t, "-parallel", "2", "-worker")
	defer cancel2()
	plain, cancel3, done3 := startDaemon(t, "-parallel", "4")
	defer cancel3()
	coord, cancel4, done4 := startDaemon(t, "-coordinate", w1+","+w2)
	defer cancel4()

	status, want := postBody(t, plain, fabricCampaignBody)
	if status != http.StatusOK {
		t.Fatalf("plain daemon: status %d: %s", status, want)
	}
	status, got := postBody(t, coord, fabricCampaignBody)
	if status != http.StatusOK {
		t.Fatalf("coordinator daemon: status %d: %s", status, got)
	}
	if got != want {
		t.Error("distributed daemon body differs from single daemon body")
	}

	stopDaemon(t, cancel4, done4)
	stopDaemon(t, cancel3, done3)
	stopDaemon(t, cancel2, done2)
	stopDaemon(t, cancel1, done1)
}

// TestWorkerServesSelfHealingSurface: a -worker daemon answers the
// prober's healthz and mounts no cache-shipping route.
func TestWorkerServesSelfHealingSurface(t *testing.T) {
	url, cancel, done := startDaemon(t, "-worker", "-parallel", "2")
	defer stopDaemon(t, cancel, done)

	resp, err := http.Get(url + "/v1/fabric/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fabric healthz: status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(url + "/v1/fabric/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/fabric/snapshot: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(url+"/v1/fabric/warm", "application/json", strings.NewReader(`{"peers":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/fabric/warm: status %d, want 404", resp.StatusCode)
	}
}
