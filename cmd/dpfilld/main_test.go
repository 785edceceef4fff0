package main

import (
	"context"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
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

func TestDaemonServesAndShutsDownGracefully(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"}, &out)
	}()

	// The daemon prints its bound address; poll for it.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
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

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
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

func TestDaemonRejectsBadFlags(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
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
