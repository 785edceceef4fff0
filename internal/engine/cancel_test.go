package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/fill"
	"repro/internal/order"
)

// TestRunMidBatchCancelPartialResults pins the service-facing contract:
// a context cancelled mid-batch returns partial results in submission
// order — every job that completed before the cancel keeps its result,
// everything else carries the cancellation — and FirstErr reports it.
func TestRunMidBatchCancelPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := dpJobs(t, 6)
	// Job 2 fires the cancel while it runs; with one worker, jobs 0-1
	// have already completed and jobs 3-5 have not started.
	inner := jobs[2].Filler
	jobs[2].Filler = fill.Func{FillName: "cancelling", F: func(s *cube.Set) (*cube.Set, error) {
		cancel()
		return fillSet(inner, s)
	}}
	res := New(1).Run(ctx, jobs)
	if len(res) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(res), len(jobs))
	}
	for i, r := range res {
		if r.Job != i || r.Name != jobs[i].Name {
			t.Fatalf("result %d out of submission order: %+v", i, r)
		}
		if i < 2 {
			if r.Err != nil {
				t.Fatalf("pre-cancel job %d lost its result: %v", i, r.Err)
			}
			if r.Filled == nil || !r.Filled.Unpack().FullySpecified() {
				t.Fatalf("pre-cancel job %d has no filled set", i)
			}
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("post-cancel job %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Filled != nil {
			t.Fatalf("post-cancel job %d carries a filled set", i)
		}
	}
	if err := FirstErr(res); !errors.Is(err, context.Canceled) {
		t.Fatalf("FirstErr = %v, want context.Canceled", err)
	}
}

// TestRunJobTimeout pins per-job deadlines: a job whose ordering stage
// overruns Job.Timeout reports context.DeadlineExceeded while its
// batch-mates run to completion.
func TestRunJobTimeout(t *testing.T) {
	jobs := dpJobs(t, 3)
	jobs[1].Timeout = time.Millisecond
	jobs[1].Orderer = order.Func{OrderName: "slow", F: func(p *cube.Packed) ([]int, error) {
		time.Sleep(30 * time.Millisecond)
		return order.Identity(p.Len()), nil
	}}
	res := New(3).Run(context.Background(), jobs)
	if !errors.Is(res[1].Err, context.DeadlineExceeded) {
		t.Fatalf("timed-out job err = %v, want context.DeadlineExceeded", res[1].Err)
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil {
			t.Fatalf("job %d failed alongside the timeout: %v", i, res[i].Err)
		}
	}
}

// TestRunTimeoutCoversQueueWait pins deadline anchoring: Job.Timeout
// is measured from Run's start, so a job stuck behind a slow
// batch-mate is shed with context.DeadlineExceeded instead of running
// long after its caller gave up.
func TestRunTimeoutCoversQueueWait(t *testing.T) {
	slow := order.Func{OrderName: "slow", F: func(p *cube.Packed) ([]int, error) {
		time.Sleep(60 * time.Millisecond)
		return order.Identity(p.Len()), nil
	}}
	set := cube.MustParseSet("0X", "X1")
	jobs := []Job{
		{Name: "head", Set: set, Orderer: slow, Filler: fill.Zero()},
		{Name: "overdue", Set: set, Filler: fill.Zero(), Timeout: 5 * time.Millisecond},
	}
	res := New(1).Run(context.Background(), jobs)
	if res[0].Err != nil {
		t.Fatalf("head job failed: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, context.DeadlineExceeded) {
		t.Fatalf("queued job err = %v, want context.DeadlineExceeded", res[1].Err)
	}
}

// TestRunPriorityOrder pins dispatch order: with one worker, higher
// priority jobs start first, equal priorities keep submission order,
// and results still come back in submission order.
func TestRunPriorityOrder(t *testing.T) {
	var mu sync.Mutex
	var started []string
	record := func(name string) fill.Filler {
		return fill.Func{FillName: "rec", F: func(s *cube.Set) (*cube.Set, error) {
			mu.Lock()
			started = append(started, name)
			mu.Unlock()
			return fillSet(fill.Zero(), s)
		}}
	}
	set := cube.MustParseSet("0X", "X1")
	jobs := []Job{
		{Name: "low", Set: set, Filler: record("low"), Priority: -1},
		{Name: "mid-a", Set: set, Filler: record("mid-a")},
		{Name: "high", Set: set, Filler: record("high"), Priority: 5},
		{Name: "mid-b", Set: set, Filler: record("mid-b")},
	}
	res := New(1).Run(context.Background(), jobs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Name != jobs[i].Name {
			t.Fatalf("result %d is %q, want submission order %q", i, r.Name, jobs[i].Name)
		}
	}
	want := []string{"high", "mid-a", "mid-b", "low"}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if started[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", started, want)
		}
	}
}

// TestRunSharedWorkerBound pins the cross-batch bound: two overlapping
// Run calls on one engine never execute more jobs at once than the
// engine's worker count.
func TestRunSharedWorkerBound(t *testing.T) {
	const bound = 2
	e := New(bound)
	var running, peak atomic.Int64
	gate := fill.Func{FillName: "gate", F: func(s *cube.Set) (*cube.Set, error) {
		cur := running.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		running.Add(-1)
		return fillSet(fill.Zero(), s)
	}}
	set := cube.MustParseSet("0X", "X1")
	batch := func() []Job {
		jobs := make([]Job, 4)
		for i := range jobs {
			jobs[i] = Job{Set: set, Filler: gate}
		}
		return jobs
	}
	var wg sync.WaitGroup
	for b := 0; b < 3; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := e.Run(context.Background(), batch())
			if err := FirstErr(res); err != nil {
				t.Errorf("batch failed: %v", err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("observed %d concurrent jobs, bound is %d", p, bound)
	}
}
