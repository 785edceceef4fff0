package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/fill"
)

// TestLoadReportsQueueAndInflight pins the occupancy counters a
// cluster coordinator dispatches on: with a 1-worker engine and 3
// blocking jobs, exactly one is in flight and two are queued; after
// the batch drains, both counters return to zero.
func TestLoadReportsQueueAndInflight(t *testing.T) {
	e := New(1)
	set := cube.MustParseSet("0X", "X1")
	release := make(chan struct{})
	started := make(chan struct{}, 3)
	blocking := fill.Func{FillName: "blocking", F: func(s *cube.Set) (*cube.Set, error) {
		started <- struct{}{}
		<-release
		return fillSet(fill.Zero(), s)
	}}
	jobs := []Job{
		{Name: "a", Set: set, Filler: blocking},
		{Name: "b", Set: set, Filler: blocking},
		{Name: "c", Set: set, Filler: blocking},
	}
	done := make(chan []Result, 1)
	go func() { done <- e.Run(context.Background(), jobs) }()

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no job started")
	}
	queued, inflight := e.Load()
	if queued != 2 || inflight != 1 {
		t.Fatalf("Load() = (%d, %d) mid-run, want (2, 1)", queued, inflight)
	}
	close(release)
	results := <-done
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if queued, inflight := e.Load(); queued != 0 || inflight != 0 {
		t.Fatalf("Load() = (%d, %d) after drain, want (0, 0)", queued, inflight)
	}
}

func TestBoundResolvesWorkerCount(t *testing.T) {
	if got := New(3).Bound(); got != 3 {
		t.Fatalf("Bound() = %d, want 3", got)
	}
	if got := New(0).Bound(); got < 1 {
		t.Fatalf("Bound() = %d for machine-sized engine", got)
	}
}
