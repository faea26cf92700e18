package faults

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true,"pad":"` + strings.Repeat("x", 256) + `"}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func clientWith(plan *Plan) *http.Client {
	return &http.Client{Transport: NewTransport(plan, nil)}
}

// TestTransportConnReset pins the trip discipline: the armed reset fires
// exactly trips times per site, then the wire heals.
func TestTransportConnReset(t *testing.T) {
	srv := testServer(t)
	plan := New(1)
	if err := plan.Add("conn-reset@net/*/task:trips=2"); err != nil {
		t.Fatal(err)
	}
	client := clientWith(plan)
	for i := 0; i < 2; i++ {
		if _, err := client.Get(srv.URL + "/v1/task"); err == nil {
			t.Fatalf("request %d: want injected reset, got success", i)
		}
	}
	resp, err := client.Get(srv.URL + "/v1/task")
	if err != nil {
		t.Fatalf("post-trips request: %v", err)
	}
	resp.Body.Close()
	// A health request is a different site: its rule pattern did not match,
	// so it never faulted.
	if _, err := client.Get(srv.URL + "/v1/health"); err != nil {
		t.Fatalf("unmatched endpoint faulted: %v", err)
	}
}

// TestTransportSlowNet: the delay is observed, then the response arrives
// intact.
func TestTransportSlowNet(t *testing.T) {
	srv := testServer(t)
	plan := New(1)
	if err := plan.Add("slow-net@net/*/*:delay=120ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := clientWith(plan).Get(srv.URL + "/v1/task")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Errorf("request took %v, want >= the injected 120ms delay", d)
	}
	var out struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || !out.OK {
		t.Errorf("slowed response damaged: ok=%v err=%v", out.OK, err)
	}
}

// TestTransportTruncatedBody: the read fails mid-body with unexpected EOF.
func TestTransportTruncatedBody(t *testing.T) {
	srv := testServer(t)
	plan := New(1)
	if err := plan.Add("truncated-body@net/*/*"); err != nil {
		t.Fatal(err)
	}
	resp, err := clientWith(plan).Get(srv.URL + "/v1/task")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, err = io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("read error = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestTransportGarbageJSON: the body arrives but no longer decodes.
func TestTransportGarbageJSON(t *testing.T) {
	srv := testServer(t)
	plan := New(1)
	if err := plan.Add("garbage-json@net/*/*"); err != nil {
		t.Fatal(err)
	}
	resp, err := clientWith(plan).Get(srv.URL + "/v1/task")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if json.Unmarshal(data, &v) == nil {
		t.Errorf("garbage body %q still decodes", data)
	}
}

// TestNewTransportPassThrough: plans without net rules (and nil plans) do
// not wrap.
func TestNewTransportPassThrough(t *testing.T) {
	if rt := NewTransport(nil, http.DefaultTransport); rt != http.DefaultTransport {
		t.Error("nil plan wrapped the transport")
	}
	plan := New(1)
	if err := plan.Add("transient@*/*/*"); err != nil {
		t.Fatal(err)
	}
	if rt := NewTransport(plan, http.DefaultTransport); rt != http.DefaultTransport {
		t.Error("cell-only plan wrapped the transport")
	}
	if plan.HasNetRules() {
		t.Error("cell-only plan reports net rules")
	}
}

// TestWrapListenerConnReset: the first accepted connection is reset, the
// next one serves.
func TestWrapListenerConnReset(t *testing.T) {
	plan := New(1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Add("conn-reset@net/" + ln.Addr().String() + "/accept:trips=1"); err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})}
	go srv.Serve(WrapListener(plan, ln))
	defer srv.Close()

	url := "http://" + ln.Addr().String() + "/"
	// No keep-alive reuse: each request must open a fresh conn so the
	// listener-level fault is actually exercised.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	if _, err := client.Get(url); err == nil {
		t.Fatal("first connection survived the injected reset")
	}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("second connection: %v", err)
	}
	resp.Body.Close()
}
