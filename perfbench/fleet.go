package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/fabric"
	"repro/internal/serve"
)

// daemon is one in-process serve.Server bound to an ephemeral loopback
// port, the way cmd/sg2042d mounts it.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startDaemon builds a server, optionally wraps its handler (the traced
// run's middleware), binds it and starts serving.
func startDaemon(opts serve.Options, wrap func(http.Handler) http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(opts)
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // always http.ErrServerClosed after stop
	}()
	return d, nil
}

// stop closes the listener and every connection and waits for the
// serving goroutine to return.
func (d *daemon) stop() {
	_ = d.hs.Close() // the only error is the listener's close error
	<-d.done
}

// tier is what a workload sends its requests to: one local daemon, or
// a coordinator daemon fronting two worker daemons (the probe fleet of
// the traced run has workers only).
type tier struct {
	front   *daemon
	workers []*daemon
}

func (t *tier) stop() {
	if t.front != nil {
		t.front.stop()
	}
	for _, w := range t.workers {
		w.stop()
	}
}

// wrappers holds the traced run's middleware, nil in untraced runs.
type wrappers struct {
	front  func(http.Handler) http.Handler
	worker func(i int) func(http.Handler) http.Handler
}

// startLocal starts one daemon on a fresh engine, prewarms its corpus
// when asked, and waits until it is ready.
func startLocal(c *client, wr wrappers, warm bool) (*tier, error) {
	d, err := startDaemon(serve.Options{Prewarm: warm}, wr.front)
	if err != nil {
		return nil, err
	}
	t := &tier{front: d}
	if warm {
		if _, err := d.srv.Prewarm(context.Background()); err != nil {
			t.stop()
			return nil, fmt.Errorf("prewarm: %w", err)
		}
	}
	if err := c.ready(d.url + "/healthz"); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// startWorkers starts two worker daemons on fresh engines and waits
// until each answers its fabric readiness probe.
func startWorkers(c *client, wr wrappers) (*tier, error) {
	t := &tier{}
	for i := 0; i < 2; i++ {
		var wrap func(http.Handler) http.Handler
		if wr.worker != nil {
			wrap = wr.worker(i)
		}
		w, err := startDaemon(serve.Options{Worker: true}, wrap)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.workers = append(t.workers, w)
		if err := c.ready(w.url + fabric.HealthPath); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

// startFleet starts two worker daemons and a coordinator daemon over
// them and waits until every member is ready.
func startFleet(c *client, wr wrappers) (*tier, error) {
	t, err := startWorkers(c, wr)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(serve.Options{Coordinate: t.urls()}, wr.front)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.front = d
	if err := c.ready(d.url + "/healthz"); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

func (t *tier) urls() []string {
	var out []string
	for _, w := range t.workers {
		out = append(out, w.url)
	}
	return out
}

// client is the benchmark's one load-generating client: one keep-alive
// connection per daemon, identity encoding, and a reused body buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body into c.buf.
// The returned duration runs from sending the request to reading the
// last body byte. A non-200 status is an error.
func (c *client) do(method, url string, body []byte) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.buf.Reset()
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return d, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, c.buf.Bytes())
	}
	return d, nil
}

// ready polls a readiness URL until it answers 200.
func (c *client) ready(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.do("GET", url, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.Join(fmt.Errorf("%s not ready", url), err)
		}
		time.Sleep(time.Millisecond)
	}
}
