package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// harness is one in-process serve.Server behind a loopback listener, and
// the single keep-alive client connection the benchmark drives it with.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	ln     *countingListener
	served chan error
	client *http.Client
	base   string
	gz     gzip.Reader
	body   bytes.Buffer
}

// countingListener counts accepted connections, so a run can assert that
// one reused connection carried it.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// startHarness mounts the archive file under name and starts serving it.
func startHarness(cfg serve.Config, name, path string) (*harness, error) {
	srv := serve.New(cfg)
	if err := srv.MountFile(name, path); err != nil {
		srv.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		ln:     &countingListener{Listener: l},
		served: make(chan error, 1),
		// The transport must not add Accept-Encoding on its own: every
		// request states its encoding, and gzip bodies are decoded here.
		client: &http.Client{Transport: &http.Transport{
			DisableCompression:  true,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}},
		base: "http://" + l.Addr().String(),
	}
	go func() { h.served <- h.hs.Serve(h.ln) }()
	return h, nil
}

// close stops the server and waits until its serve loop has returned.
func (h *harness) close() error {
	h.client.CloseIdleConnections()
	err := h.hs.Close()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// reply is one response. body is valid until the harness's next request.
type reply struct {
	status  int
	latency time.Duration // from send until the body is read and decoded
	wire    int64         // body bytes as sent, before any gzip decoding
	body    []byte
}

// get sends one GET with the given Accept-Encoding and, when traceID is
// set, the X-CFC-Trace id the server records its spans under.
func (h *harness) get(path, encoding, traceID string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, h.base+path, nil)
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Accept-Encoding", encoding)
	if traceID != "" {
		req.Header.Set("X-CFC-Trace", traceID)
	}
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	wire := &countingReader{r: resp.Body}
	var src io.Reader = wire
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if err := h.gz.Reset(wire); err != nil {
			return reply{}, fmt.Errorf("GET %s: %w", path, err)
		}
		src = &h.gz
	}
	h.body.Reset()
	if _, err := h.body.ReadFrom(src); err != nil {
		return reply{}, fmt.Errorf("GET %s: %w", path, err)
	}
	latency := time.Since(start)
	// Drain what the decoder left unread so the connection is reused.
	if _, err := io.Copy(io.Discard, wire); err != nil {
		return reply{}, fmt.Errorf("GET %s: %w", path, err)
	}
	return reply{status: resp.StatusCode, latency: latency, wire: wire.n, body: h.body.Bytes()}, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// traceNode is one span of a /debug/trace span tree.
type traceNode struct {
	Name     string       `json:"name"`
	DurNs    int64        `json:"duration_ns"`
	Children []*traceNode `json:"children"`
}

// traceDoc is one completed request in the /debug/trace body.
type traceDoc struct {
	TraceID string       `json:"trace_id"`
	Dropped int          `json:"dropped_spans"`
	Spans   []*traceNode `json:"spans"`
}

// trace fetches the span tree the server recorded under id. It is called
// right after that request, so the id is among the newest traces.
func (h *harness) trace(id string) (*traceDoc, error) {
	r, err := h.get("/debug/trace?n=4", "identity", "")
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/trace: status %d", r.status)
	}
	var docs []traceDoc
	if err := json.Unmarshal(r.body, &docs); err != nil {
		return nil, fmt.Errorf("decode /debug/trace: %w", err)
	}
	for i := range docs {
		if docs[i].TraceID == id {
			return &docs[i], nil
		}
	}
	return nil, fmt.Errorf("trace %s is not in /debug/trace", id)
}
