package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
)

// TestSweepOneRequestPerWorker: a heartbeat sweep costs each worker one
// /stats request, and that one answer admits it.
func TestSweepOneRequestPerWorker(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var mu sync.Mutex
	seen := map[string][]string{} // worker URL -> request paths
	var urls []string
	for range 2 {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen["http://"+r.Host] = append(seen["http://"+r.Host], r.URL.Path)
			mu.Unlock()
			srv.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	reg, err := newRegistry(RegistryConfig{}, urls, func(u string) (*client.Client, error) {
		return client.New(client.Config{BaseURL: u, MaxAttempts: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 1; sweep <= 2; sweep++ {
		reg.sweep(context.Background())
		for _, u := range urls {
			mu.Lock()
			paths := seen[u]
			mu.Unlock()
			if len(paths) != sweep {
				t.Fatalf("after sweep %d worker %s saw %v, want one /stats per sweep", sweep, u, paths)
			}
			for _, p := range paths {
				if p != "/stats" {
					t.Fatalf("after sweep %d worker %s saw %v, want one /stats per sweep", sweep, u, paths)
				}
			}
		}
		if n := reg.healthyCount(); n != 2 {
			t.Fatalf("after sweep %d, %d workers admitted, want 2", sweep, n)
		}
	}
}
