package debugz

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestHandlerPprofIndex(t *testing.T) {
	h := Handler()
	code, body := get(t, h, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", code)
	}
	// The index page links every profile; spot-check the ones the
	// runbook tells operators to pull first.
	for _, want := range []string{"goroutine", "heap", "cmdline"} {
		if !strings.Contains(body, want) {
			t.Errorf("pprof index missing %q", want)
		}
	}
}

func TestHandlerPprofProfiles(t *testing.T) {
	h := Handler()
	for _, path := range []string{
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
	} {
		if code, _ := get(t, h, path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
	}
}

func TestHandlerNoMetrics(t *testing.T) {
	// The scrape lives on the serving port only; the admin port has no
	// /metrics route.
	if code, _ := get(t, Handler(), "/metrics"); code != http.StatusNotFound {
		t.Errorf("GET /metrics on the admin mux = %d, want 404", code)
	}
}

func TestListenAndServeLifecycle(t *testing.T) {
	// Reserve a port, release it, and race to rebind: good enough for a
	// test and avoids hardcoding.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ListenAndServe(ctx, addr)
	}()

	// Poll until the listener is up.
	var resp *http.Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("admin listener never came up on %s: %v", addr, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("GET /debug/pprof/cmdline = %d %q", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return after ctx cancel")
	}
}

func TestListenAndServeBindError(t *testing.T) {
	// Occupy a port, then ask ListenAndServe for the same one.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ListenAndServe(ctx, l.Addr().String()); err == nil {
		t.Fatal("binding an occupied port should fail")
	}
}
