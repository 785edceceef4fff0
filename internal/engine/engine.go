// Package engine is the concurrent batch fill engine: it takes N
// independent jobs (an ordered cube set plus the ordering/filling
// algorithms to run on it) and executes them across a bounded worker
// pool, collecting per-job results, timings and errors.
//
// The engine is the scaling seam of the repository: every consumer that
// processes more than one cube set — cmd/dpfill's multi-file batch mode,
// the fillers × circuits grids of internal/exp, future service
// front-ends — funnels its work through Engine.Run instead of writing
// its own goroutine pool. Jobs are isolated: a job whose filler fails
// (or panics) reports the failure in its own Result slot while every
// other job runs to completion, and results always come back in
// submission order regardless of scheduling, so batch output is
// deterministic for deterministic algorithms.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cube"
	"repro/internal/fill"
	"repro/internal/order"
)

// Job is one unit of batch work.
type Job struct {
	// Name labels the job in results and error messages (a file name, a
	// circuit name...). Optional.
	Name string
	// Set is the cube set to process, for a caller that holds one; the
	// job packs it once when it starts and never modifies it.
	Set *cube.Set
	// Packed is the packed snapshot of the cubes to process, what a
	// served request is parsed into. At least one of Set and Packed is
	// required; a job carrying both must carry the same cubes in each.
	// The orderer and the filler run on the snapshot, which a Set-only
	// job packs once when it starts.
	Packed *cube.Packed
	// Orderer, when non-nil, orders the cubes before filling.
	Orderer order.Orderer
	// Filler completes the (re)ordered set. Required.
	Filler fill.Filler
	// CountOnly asks for the toggle statistics without the filled
	// matrix. A filler with a count entry point (DP-fill) then builds
	// no matrix and Result.Filled is nil; other fillers, and every job
	// of an Engine with Verify set, fill as usual.
	CountOnly bool
	// Priority biases dispatch order: higher-priority jobs start before
	// lower-priority ones when workers are scarce. Equal priorities keep
	// submission order. Results always come back in submission order
	// regardless of priority.
	Priority int
	// Timeout, when positive, bounds this job's wall-clock time measured
	// from Run's start, so it covers queue wait — both in-batch and the
	// shared cross-batch semaphore — as well as execution: a saturated
	// engine sheds overdue queued jobs instead of running them late.
	// Cancellation of a running job is stage-granular — the deadline is
	// checked between ordering and filling and again after filling — and
	// an overrun reports context.DeadlineExceeded in its Result slot
	// instead of a result the caller already gave up on.
	Timeout time.Duration
}

// Result is the outcome of one job. Exactly one of Filled/Err is
// meaningful: on error Filled is nil and the remaining fields are
// whatever had been computed when the job failed.
type Result struct {
	// Job is the index of the job in the submitted slice.
	Job int
	// Name echoes Job.Name.
	Name string
	// Perm is the applied ordering permutation; nil when no Orderer was
	// set.
	Perm []int
	// Filled is the fully specified output in the applied order, as the
	// filler's packed row planes (Filled.Unpack gives the cube set);
	// nil when a CountOnly job ran a count entry point.
	Filled *cube.PackedRows
	// Peak and Total are the peak and total toggle counts of Filled;
	// Profile is its per-cycle toggle count (nil below two vectors).
	// All three are the filler's own count (fill.Result); the engine
	// does not recount.
	Peak, Total int
	Profile     []int
	// QueueWait is the time from Run's start until a worker slot took
	// the job up (or, for a job shed before it ran, until it was shed).
	QueueWait time.Duration
	// Order and Fill split Duration at one shared clock read, so
	// Order+Fill == Duration exactly: Order covers the packing of a
	// Set-only job and the ordering, Fill the filler plus verification.
	Order, Fill time.Duration
	// Duration is the job's wall-clock time inside a worker.
	Duration time.Duration
	// Err is the job's failure, if any.
	Err error
}

// Engine runs batches of jobs over a bounded worker pool. The zero
// value is valid and sizes the pool to the machine.
//
// The worker bound is shared across concurrent Run calls on the same
// Engine: a service handling many requests through one Engine never
// executes more than Workers jobs at once machine-wide, no matter how
// many batches are in flight.
type Engine struct {
	// Workers bounds concurrent jobs; <= 0 means GOMAXPROCS. It is
	// captured at the first Run call; later mutations have no effect.
	Workers int
	// Verify, when set, checks that every filled set is a legal
	// completion of its input (cube.Set.Covers) and fails the job
	// otherwise — a cheap production guard against a misbehaving Filler.
	Verify bool

	// sem is the shared execution semaphore, sized to Workers on first
	// use so the bound holds across overlapping Run calls.
	semOnce sync.Once
	sem     chan struct{}

	// pending counts jobs accepted by Run but not yet finished;
	// running counts jobs currently executing in a worker slot. Both
	// span overlapping Run calls, so Load sees the whole process.
	pending atomic.Int64
	running atomic.Int64
}

// New returns an engine with the given worker bound; <= 0 sizes the
// pool to the machine.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{Workers: workers}
}

// workerCount resolves the configured bound against the batch size.
func (e *Engine) workerCount(jobs int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// semaphore returns the shared execution semaphore, creating it on
// first use with the Engine's worker bound.
func (e *Engine) semaphore() chan struct{} {
	e.semOnce.Do(func() {
		w := e.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		e.sem = make(chan struct{}, w)
	})
	return e.sem
}

// Load reports the engine's live occupancy across every in-flight Run
// call: queued is how many accepted jobs are waiting for a worker
// slot, inflight how many are executing right now. A service exposes
// these so a load balancer can rank replicas by real backlog instead
// of guessing from latency.
func (e *Engine) Load() (queued, inflight int) {
	p, r := e.pending.Load(), e.running.Load()
	if q := p - r; q > 0 {
		queued = int(q)
	}
	if r > 0 {
		inflight = int(r)
	}
	return queued, inflight
}

// Bound returns the resolved machine-wide worker bound.
func (e *Engine) Bound() int { return cap(e.semaphore()) }

// dispatchOrder returns the job indices in execution order: descending
// priority, submission order within a priority level.
func dispatchOrder(jobs []Job) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Priority > jobs[order[b]].Priority
	})
	return order
}

// Run executes the batch and returns one Result per job, in submission
// order. Jobs are dispatched by descending Priority (submission order
// within a level). It blocks until every job has finished or the
// context is cancelled; jobs not yet started when the context fires
// are marked with ctx.Err() instead of running, and jobs in flight are
// marked at their next stage boundary, so a cancelled batch still
// returns the results of every job that completed before the cancel.
func (e *Engine) Run(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	exec := dispatchOrder(jobs)
	workers := e.workerCount(len(jobs))
	sem := e.semaphore()
	e.pending.Add(int64(len(jobs)))
	runStart := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(exec) {
					return
				}
				i := exec[k]
				// A job's deadline is anchored at Run's start, so queue
				// wait counts against it and overdue jobs are shed
				// without running.
				jctx := ctx
				var cancel context.CancelFunc
				if jobs[i].Timeout > 0 {
					jctx, cancel = context.WithDeadline(ctx, runStart.Add(jobs[i].Timeout))
				}
				// The shared semaphore enforces the machine-wide bound
				// across overlapping Run calls; within one call the
				// goroutine count already respects it, so this only
				// blocks under cross-batch contention.
				select {
				case sem <- struct{}{}:
					e.running.Add(1)
					results[i] = e.runJob(jctx, i, jobs[i], runStart)
					e.running.Add(-1)
					<-sem
				case <-jctx.Done():
					results[i] = Result{Job: i, Name: jobs[i].Name, Err: jctx.Err(), QueueWait: time.Since(runStart)}
				}
				e.pending.Add(-1)
				if cancel != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// ctxErr reports the context's cancellation, treating an elapsed
// deadline whose timer has not fired yet as DeadlineExceeded: on a
// single-CPU box a CPU-bound fill can starve the runtime timer that
// cancels the context, and the stage-granular checks below must not
// depend on its delivery.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// runJob executes one job, translating panics and context cancellation
// into the job's error slot. runStart is Run's start, the origin of
// the job's queue wait.
//
// dpvet:hot
func (e *Engine) runJob(ctx context.Context, idx int, job Job, runStart time.Time) (res Result) {
	res = Result{Job: idx, Name: job.Name}
	defer func() {
		if r := recover(); r != nil {
			res.Filled = nil
			res.Err = fmt.Errorf("engine: job %d (%s) panicked: %v", idx, job.Name, r)
		}
	}()
	start := time.Now()
	res.QueueWait = start.Sub(runStart)
	if err := ctxErr(ctx); err != nil {
		res.Err = err
		return res
	}
	// ordered is the clock read between the two stages; a job that
	// stops before filling charges all of its time to Order.
	var ordered time.Time
	defer func() {
		end := time.Now()
		if ordered.IsZero() {
			ordered = end
		}
		res.Order = ordered.Sub(start)
		res.Fill = end.Sub(ordered)
		res.Duration = end.Sub(start)
	}()

	switch {
	case job.Set == nil && job.Packed == nil:
		res.Err = fmt.Errorf("engine: job %d (%s): nil cube set", idx, job.Name)
		return res
	case job.Filler == nil:
		res.Err = fmt.Errorf("engine: job %d (%s): nil filler", idx, job.Name)
		return res
	}
	// A Set-only job is packed once, here; everything after runs on
	// the snapshot.
	p := job.Packed
	if p == nil {
		p = cube.Pack(job.Set)
	}
	if job.Orderer != nil {
		perm, err := job.Orderer.OrderPacked(p)
		if err != nil {
			res.Err = fmt.Errorf("engine: job %d (%s): %s ordering: %w",
				idx, job.Name, job.Orderer.Name(), err)
			return res
		}
		res.Perm = perm
	}
	ordered = time.Now()
	// Cancellation is stage-granular: a deadline that fires mid-stage
	// lets the stage finish, then stops the job here.
	if err := ctxErr(ctx); err != nil {
		res.Err = err
		return res
	}
	var filled *fill.Result
	var err error
	if cf, ok := job.Filler.(countFiller); ok && job.CountOnly && !e.Verify {
		filled, err = cf.CountPacked(p, res.Perm)
	} else {
		filled, err = job.Filler.Fill(p, res.Perm)
	}
	if err != nil {
		res.Err = fmt.Errorf("engine: job %d (%s): %s: %w",
			idx, job.Name, job.Filler.Name(), err)
		return res
	}
	// A job that overran its deadline (or whose batch was cancelled)
	// while filling reports that instead of a result the caller has
	// already given up on.
	if err := ctxErr(ctx); err != nil {
		res.Err = err
		return res
	}
	if e.Verify && !p.Unpack(res.Perm).Covers(filled.Set()) {
		res.Err = fmt.Errorf("engine: job %d (%s): %s output is not a completion of its input",
			idx, job.Name, job.Filler.Name())
		return res
	}
	res.Filled = filled.Rows
	res.Peak, res.Total, res.Profile = filled.Peak, filled.Total, filled.Profile
	return res
}

// countFiller is a filler with a count-only entry point:
// CountPacked(p, perm) returns Fill(p, perm)'s Peak, Total and Profile
// with a nil Rows. DP-fill has one.
type countFiller interface {
	CountPacked(p *cube.Packed, perm []int) (*fill.Result, error)
}

// FirstErr returns the first job error in a batch result, or nil when
// every job succeeded.
func FirstErr(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
