package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// syncBuffer is a goroutine-safe writer for capturing daemon stdout.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon boots run() with the given extra args and returns the
// bound address and the done channel.
func startDaemon(t *testing.T, ctx context.Context, out *syncBuffer, args ...string) (string, chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return m[1], done
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v (output %q)", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; output %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordinatorDaemonFrontsWorker boots a real in-process worker,
// points the daemon at it, and runs a fill end to end through the
// coordinator's HTTP surface.
func TestCoordinatorDaemonFrontsWorker(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	worker := httptest.NewServer(srv.Handler())
	t.Cleanup(worker.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	addr, done := startDaemon(t, ctx, &out,
		"-worker", worker.URL, "-heartbeat", "25ms", "-fallback=false")

	// Wait for the worker to be admitted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err == nil {
			var hz map[string]any
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if err == nil && hz["workers_healthy"] == float64(1) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(fmt.Sprintf("http://%s/v1/fill", addr), "application/json",
		bytes.NewReader([]byte(`{"cubes":["00","XX","XX","11"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	var fr server.FillResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || fr.Peak != 1 {
		t.Fatalf("fill through daemon: status %d, %+v", resp.StatusCode, fr)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down within 5s of cancel")
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Fatalf("missing clean-shutdown message; output %q", out.String())
	}
}

// TestCoordinatorDaemonFallback: with no workers at all, the daemon
// still answers on its local engine.
func TestCoordinatorDaemonFallback(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	addr, _ := startDaemon(t, ctx, &out)

	resp, err := http.Post(fmt.Sprintf("http://%s/v1/fill", addr), "application/json",
		bytes.NewReader([]byte(`{"cubes":["0X","X1"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback fill status %d", resp.StatusCode)
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run(context.Background(), []string{"-worker", "not a url"}, &out); err == nil {
		t.Fatal("bad worker URL accepted")
	}
	if err := run(context.Background(), []string{"-addr", "999.999.999.999:0"}, &out); err == nil {
		t.Fatal("unbindable address accepted")
	}
	// A bad -log-level is refused even with -access-log off. The context
	// is already cancelled, so a daemon that accepted it would shut down
	// at once instead of serving.
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(stopped, []string{"-addr", "127.0.0.1:0", "-log-level", "loud"}, &out); err == nil {
		t.Fatal("-log-level loud accepted without -access-log")
	}
}
