// Package jobs is the persistent asynchronous job layer of the fill
// service: clients submit a batch, get a job ID back immediately, and
// poll (or list, or cancel) instead of holding an HTTP connection open
// for the whole fill.
//
// A Manager owns a FIFO queue, a bounded set of job workers, and a
// retention-bounded history of settled jobs. What the work *is* stays
// opaque: payloads and results travel as raw JSON and a host-supplied
// Runner executes them, so the same Manager serves a single dpfilld
// worker (runner = the local batch engine) and the dpfill-coord
// coordinator (runner = fleet-sharded dispatch) without knowing the
// difference.
//
// Durability: with a data directory configured, every accepted job is
// journaled to a write-ahead log before Submit answers, and settled
// with a terminal record when it finishes. A killed daemon replays the
// journal on startup: settled jobs come back with their recorded
// results, and jobs that were queued or running are re-enqueued and
// re-run — every fill algorithm is deterministic, so the replayed
// answer is byte-identical to the one the crash lost. Without a data
// directory the same API runs in memory only.
package jobs

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/reqid"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: accepted (and journaled, when persistence is on) but
	// not yet picked up by a job worker.
	StateQueued State = "queued"
	// StateRunning: handed to the Runner.
	StateRunning State = "running"
	// StateDone: the Runner answered; Result holds its output.
	StateDone State = "done"
	// StateFailed: the Runner returned an error; Error holds it.
	StateFailed State = "failed"
	// StateCancelled: cancelled before or during execution.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is settled: done, failed or
// cancelled jobs never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Status is a job snapshot — the GET /v1/jobs/{id} payload.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// CreatedAt is the accept time; StartedAt/FinishedAt are zero until
	// the job reaches the corresponding state. After a replayed re-run
	// CreatedAt is preserved from the journal while StartedAt/FinishedAt
	// reflect the re-run.
	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// Done/Total are coarse progress: Total counts the batch's jobs from
	// submission, Done reaches Total when the job settles successfully.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Result is the Runner's output (the /v1/batch response for fill
	// jobs); set only in StateDone, and omitted from listings.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the Runner's failure; set only in StateFailed.
	Error string `json:"error,omitempty"`
}

// StatusList is the GET /v1/jobs payload: every retained job, newest
// first, without result payloads.
type StatusList struct {
	Jobs []Status `json:"jobs"`
}

// Runner executes one job: payload in, result out. It must honor ctx —
// cancellation (DELETE /v1/jobs/{id}) and manager shutdown both arrive
// through it — and be deterministic if crash-replayed jobs are to
// answer identically to the run the crash lost. The context carries a
// progress reporter (Progress); runners that can see partial
// completion call it, and GET /v1/jobs/{id} reports the count as done.
type Runner func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error)

type progressKey struct{}

// withProgress returns a context carrying a progress reporter.
func withProgress(ctx context.Context, fn func(done int)) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// Progress returns the context's progress reporter — the callback a
// Runner invokes with the number of work items completed so far. It
// never returns nil: without a reporter on the context the callback is
// a no-op, so runners call it unconditionally.
func Progress(ctx context.Context) func(done int) {
	if fn, ok := ctx.Value(progressKey{}).(func(int)); ok {
		return fn
	}
	return func(int) {}
}

// DecodeStrict decodes a journaled payload into v, refusing unknown
// fields. Replay decodes this way so a job journaled by an older build
// with a field this build no longer has fails, naming the field,
// instead of silently running as a different request.
func DecodeStrict(payload json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// RunJSON adapts a typed batch executor into a Runner: the journaled
// payload decodes strictly (DecodeStrict) into Req, run executes it,
// and the response is re-encoded as the job's result. Both the fill
// worker and the coordinator wrap their batch paths with it, so the
// async decode/encode contract lives in exactly one place.
func RunJSON[Req, Resp any](run func(context.Context, Req) Resp) Runner {
	return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
		var req Req
		if err := DecodeStrict(payload, &req); err != nil {
			// The payload was validated at submit time; failing to
			// decode it now means the journal (or a code change) broke it.
			return nil, fmt.Errorf("decoding journaled job payload: %w", err)
		}
		out, err := json.Marshal(run(ctx, req))
		if err != nil {
			return nil, fmt.Errorf("encoding job result: %w", err)
		}
		return out, nil
	}
}

// Config tunes a Manager. Runner is required; the zero value of every
// other field gets a production-safe default.
type Config struct {
	// Runner executes accepted jobs. Required.
	Runner Runner
	// Dir is the data directory for the write-ahead log; "" disables
	// persistence (the API still works, state dies with the process).
	Dir string
	// MaxQueued bounds jobs accepted but not yet settled; Submit
	// answers ErrQueueFull past it (HTTP 429). Default 256.
	MaxQueued int
	// Retention bounds how many settled jobs stay queryable; the oldest
	// are evicted first. Default 256.
	Retention int
	// Workers is how many jobs run concurrently (default 1 — strict
	// FIFO; the fill engine underneath parallelizes each batch anyway).
	Workers int
	// Start, when non-nil, holds the job workers back until it is
	// closed: submissions are accepted (and journaled) but nothing
	// executes. The coordinator uses this to keep replayed jobs from
	// racing its first heartbeat sweep — re-running a journaled batch
	// before any worker is admitted would mis-route it to the local
	// fallback (or fail it outright) instead of re-sharding it across
	// the fleet.
	Start <-chan struct{}
	// Log, when non-nil, receives one structured record per job
	// settlement, carrying the trace ID of the submit that accepted the
	// job — journal-replayed runs included — so an async job's
	// completion joins the fleet's access logs on rid=.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxQueued <= 0 {
		c.MaxQueued = 256
	}
	if c.Retention <= 0 {
		c.Retention = 256
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Sentinel errors, mapped to HTTP statuses by the API layer.
var (
	// ErrQueueFull: admission control rejected the submit (429).
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrNotFound: no job with that ID is retained (404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrTerminal: the job already settled and cannot be cancelled (409).
	ErrTerminal = errors.New("jobs: job already settled")
	// ErrClosed: the manager is shut down (503).
	ErrClosed = errors.New("jobs: manager is closed")
)

// job is the manager's mutable record of one submission. All fields
// are guarded by the manager's mutex. Creation order — replay
// included — is the job's position in the manager's jobs slice.
type job struct {
	id       string
	key      string // idempotency key; "" when the submit carried none
	rid      string // trace ID of the accepting submit; journaled with it
	payload  json.RawMessage
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	done     int
	total    int
	result   json.RawMessage
	errMsg   string
	// cancel interrupts the Runner while the job is running.
	cancel context.CancelFunc
	// cancelRequested distinguishes a caller's cancel from a manager
	// shutdown: only the former settles the job as cancelled.
	cancelRequested bool
}

func (j *job) status(withResult bool) Status {
	st := Status{
		ID:         j.id,
		State:      j.state,
		CreatedAt:  j.created,
		StartedAt:  j.started,
		FinishedAt: j.finished,
		Done:       j.done,
		Total:      j.total,
		Error:      j.errMsg,
	}
	if withResult {
		st.Result = j.result
	}
	return st
}

// Manager is the async job queue. Construct with Open; stop with
// Close. Safe for concurrent use.
type Manager struct {
	cfg Config
	wal *wal // nil without persistence

	mu sync.Mutex
	// dpvet:guardedby mu
	byID map[string]*job
	// dpvet:guardedby mu
	byKey map[string]*job // idempotency key -> job, while retained
	// dpvet:guardedby mu
	jobs []*job // creation order; retention evicts from the front
	// dpvet:guardedby mu
	queue []*job // FIFO of jobs awaiting a worker
	// dpvet:guardedby mu
	closed bool
	// dpvet:guardedby mu
	submitting int // Submits between slot reservation and publication
	// dpvet:guardedby mu
	appended int // journal records appended since the last compaction

	wake   chan struct{} // buffered(1): signals workers that queue grew
	ctx    context.Context
	stop   context.CancelFunc
	wg     sync.WaitGroup
	active int // jobs queued or running, for admission control

	walAppends atomic.Uint64 // journal records written since Open
}

// Open builds a Manager, replays the journal when cfg.Dir is set —
// settled jobs reload with their results, unsettled ones re-enqueue in
// submission order — compacts the journal to the retained state, and
// starts the job workers.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Runner == nil {
		return nil, errors.New("jobs: Config.Runner is required")
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:   cfg,
		byID:  make(map[string]*job),
		byKey: make(map[string]*job),
		wake:  make(chan struct{}, 1),
		ctx:   ctx,
		stop:  stop,
	}
	if cfg.Dir != "" {
		w, recs, err := openWAL(cfg.Dir)
		if err != nil {
			stop()
			return nil, err
		}
		m.wal = w
		m.replay(recs)
		if err := w.rewrite(m.liveRecords()); err != nil {
			w.close()
			stop()
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// replay rebuilds manager state from journal records: accepts create
// jobs, terminal records settle them, and whatever is left unsettled
// goes back on the queue. Only Open calls it, before any worker
// goroutine exists, so it runs with exclusivity.
//
// dpvet:locked mu
func (m *Manager) replay(recs []record) {
	for _, rec := range recs {
		switch rec.Op {
		case "accept":
			if _, ok := m.byID[rec.ID]; ok {
				continue // duplicate accept: corrupt but recoverable
			}
			j := &job{
				id:      rec.ID,
				key:     rec.Key,
				rid:     rec.Rid,
				payload: rec.Payload,
				state:   StateQueued,
				created: rec.Created,
				total:   rec.Total,
			}
			m.byID[j.id] = j
			if j.key != "" {
				// Replayed dedupe state: a client retrying a submit
				// across a daemon restart still gets the original job.
				m.byKey[j.key] = j
			}
			m.jobs = append(m.jobs, j)
		case "done", "fail", "cancel":
			j, ok := m.byID[rec.ID]
			if !ok || j.state.Terminal() {
				continue
			}
			j.finished = rec.Finished
			switch rec.Op {
			case "done":
				j.state = StateDone
				j.result = rec.Result
				j.done = j.total
			case "fail":
				j.state = StateFailed
				j.errMsg = rec.Error
			case "cancel":
				j.state = StateCancelled
			}
		}
	}
	m.enforceRetention()
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			m.queue = append(m.queue, j)
			m.active++
		}
	}
}

// liveRecords renders the retained state as a compact journal: one
// accept per job, plus its terminal record when settled. Callers hold
// mu, or (during Open) exclusivity.
//
// dpvet:locked mu
func (m *Manager) liveRecords() []record {
	var recs []record
	for _, j := range m.jobs {
		recs = append(recs, record{Op: "accept", ID: j.id, Key: j.key, Rid: j.rid, Created: j.created, Total: j.total, Payload: j.payload})
		if rec, ok := terminalRecord(j); ok {
			recs = append(recs, rec)
		}
	}
	return recs
}

// terminalRecord renders a settled job's closing journal entry.
func terminalRecord(j *job) (record, bool) {
	switch j.state {
	case StateDone:
		return record{Op: "done", ID: j.id, Finished: j.finished, Result: j.result}, true
	case StateFailed:
		return record{Op: "fail", ID: j.id, Finished: j.finished, Error: j.errMsg}, true
	case StateCancelled:
		return record{Op: "cancel", ID: j.id, Finished: j.finished}, true
	}
	return record{}, false
}

// enforceRetention evicts the oldest settled jobs beyond the retention
// bound. Callers hold mu (or, during Open, exclusivity).
//
// dpvet:locked mu
func (m *Manager) enforceRetention() {
	settled := 0
	for _, j := range m.jobs {
		if j.state.Terminal() {
			settled++
		}
	}
	if settled <= m.cfg.Retention {
		return
	}
	kept := m.jobs[:0]
	for _, j := range m.jobs {
		if settled > m.cfg.Retention && j.state.Terminal() {
			delete(m.byID, j.id)
			if j.key != "" && m.byKey[j.key] == j {
				// The dedupe window is the retention window: once the
				// job is unqueryable, a same-key resubmit runs fresh.
				delete(m.byKey, j.key)
			}
			settled--
			continue
		}
		kept = append(kept, j)
	}
	m.jobs = kept
}

// newID mints a journal-stable job identifier.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random id bytes: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Submit accepts one job: admission check, durable journal append,
// enqueue. It returns the queued snapshot the moment the job is safe —
// a crash after Submit answers can no longer lose it. total is the
// job's work-item count, echoed as progress denominator.
//
// key, when non-empty, is the client-minted idempotency key: a submit
// whose key matches a retained job returns that job's snapshot (same
// ID) instead of minting a duplicate — the contract that makes
// retrying POST /v1/jobs after a lost response safe. The key is
// journaled with the accept record, so dedupe survives a restart; it
// expires with the job when retention evicts it.
//
// The journal append (an fsync) runs outside the manager lock, so
// concurrent Get/List/Cancel calls never stall behind the disk: the
// admission slot is reserved first, and the job only becomes visible
// once its accept record is durable.
func (m *Manager) Submit(payload json.RawMessage, total int, key string) (Status, error) {
	return m.SubmitTraced(payload, total, key, "")
}

// SubmitTraced is Submit carrying the accepting request's trace ID:
// the ID is journaled with the job and restored to the runner's
// context, so the job's completion log line (and any access-log lines
// its execution emits) joins the original submit on rid= — even when
// the run is a journal replay in a later process.
func (m *Manager) SubmitTraced(payload json.RawMessage, total int, key, rid string) (Status, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	if key != "" {
		if dup, ok := m.byKey[key]; ok {
			st := dup.status(false)
			m.mu.Unlock()
			return st, nil
		}
	}
	if m.active >= m.cfg.MaxQueued {
		active := m.active
		m.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %d jobs already pending", ErrQueueFull, active)
	}
	m.active++
	// submitting guards compaction: while any accept append is between
	// its journal write and its publication here, the journal holds a
	// record the in-memory state does not, and a compaction snapshot
	// would silently drop the accepted job.
	m.submitting++
	j := &job{
		id:      newID(),
		key:     key,
		rid:     rid,
		payload: payload,
		state:   StateQueued,
		created: time.Now().UTC(),
		total:   total,
	}
	if key != "" {
		// Reserve the key before the journal fsync so a duplicate
		// racing this submit dedupes against it instead of minting a
		// second job; every identifying field of j is already set.
		m.byKey[key] = j
	}
	m.mu.Unlock()
	if m.wal != nil {
		rec := record{Op: "accept", ID: j.id, Key: j.key, Rid: j.rid, Created: j.created, Total: j.total, Payload: j.payload}
		if err := m.wal.append(rec); err != nil {
			m.mu.Lock()
			m.active--
			m.submitting--
			if key != "" && m.byKey[key] == j {
				delete(m.byKey, key)
			}
			m.mu.Unlock()
			return Status{}, err
		}
		m.walAppends.Add(1)
	}
	// Snapshot before the job becomes visible: a worker may pick it up
	// the instant it enters the queue.
	st := j.status(false)
	m.mu.Lock()
	if m.closed {
		// Close ran while the accept record was being journaled: the
		// workers are gone, so publishing now would strand the job as
		// queued forever. The journaled accept (if any) re-runs it on
		// the next Open; this caller gets ErrClosed, not a dead 202.
		m.active--
		m.submitting--
		if key != "" && m.byKey[key] == j {
			delete(m.byKey, key)
		}
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	m.byID[j.id] = j
	m.jobs = append(m.jobs, j)
	m.queue = append(m.queue, j)
	m.submitting--
	m.appended++
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	m.maybeCompact()
	return st, nil
}

// Get returns the job's snapshot, result included.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.status(true), nil
}

// List returns every retained job newest-first, without result
// payloads (fetch a job by ID for its result).
func (m *Manager) List() StatusList {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.jobs))
	for i := len(m.jobs) - 1; i >= 0; i-- {
		out = append(out, m.jobs[i].status(false))
	}
	return StatusList{Jobs: out}
}

// Cancel stops a job: a queued job settles immediately, a running one
// has its context cancelled and settles when the Runner returns. The
// returned snapshot reflects the state at return; cancelling a settled
// job answers ErrTerminal.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.byID[id]
	if !ok {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	var journal bool
	switch {
	case j.state.Terminal():
		st := j.status(false)
		state := j.state
		m.mu.Unlock()
		return st, fmt.Errorf("%w: %s is %s", ErrTerminal, id, state)
	case j.state == StateQueued:
		// The state flips under the lock so no worker can pick the job
		// up; the journal write follows outside it. A crash in between
		// re-runs the job on replay — at-least-once, never lost.
		m.applySettleLocked(j, StateCancelled, nil, "")
		journal = true
	default: // running
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	st := j.status(false)
	m.mu.Unlock()
	if journal {
		m.journalSettle(j.id, StateCancelled, st.FinishedAt, nil, "")
	}
	return st, nil
}

// applySettleLocked moves a job to a terminal state and frees its
// admission slot. Callers hold mu and journal the record themselves —
// outside the lock — via journalSettle.
func (m *Manager) applySettleLocked(j *job, state State, result json.RawMessage, errMsg string) {
	j.state = state
	j.finished = time.Now().UTC()
	j.result = result
	j.errMsg = errMsg
	if state == StateDone {
		j.done = j.total
	}
	m.active--
	m.enforceRetention()
}

// setProgress advances a running job's done count. Regressions and
// post-settle reports are ignored — shard completions racing the job's
// own settle must never resurrect it.
func (m *Manager) setProgress(j *job, done int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state != StateRunning || done <= j.done {
		return
	}
	if done > j.total {
		done = j.total
	}
	j.done = done
}

// journalSettle appends a job's terminal record; fsync latency is paid
// on the wal's own lock, never the manager's.
func (m *Manager) journalSettle(id string, state State, finished time.Time, result json.RawMessage, errMsg string) {
	if m.wal == nil {
		return
	}
	rec := record{ID: id, Finished: finished}
	switch state {
	case StateDone:
		rec.Op, rec.Result = "done", result
	case StateFailed:
		rec.Op, rec.Error = "fail", errMsg
	case StateCancelled:
		rec.Op = "cancel"
	default:
		return
	}
	// An append failure leaves the job accepted-but-unsettled in the
	// journal: the next Open re-runs it, which is the safe direction.
	if err := m.wal.append(rec); err != nil {
		return
	}
	m.walAppends.Add(1)
	m.mu.Lock()
	m.appended++
	m.mu.Unlock()
	m.maybeCompact()
}

// WALAppends counts journal records written since Open — the tier's
// dpfill_wal_records_total{tier=...} series.
func (m *Manager) WALAppends() uint64 { return m.walAppends.Load() }

// JournalBytes is the journal file's current size, 0 without
// persistence — the tier's dpfill_wal_journal_bytes{tier=...} series.
func (m *Manager) JournalBytes() int64 {
	if m.wal == nil {
		return 0
	}
	return m.wal.size()
}

// Occupancy returns the queue's live view: jobs queued or running
// (the admission-controlled count) and jobs retained in total.
func (m *Manager) Occupancy() (active, retained int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active, len(m.jobs)
}

// compactThreshold is how many journal appends accumulate before the
// log is rewritten to the live records. Startup compaction alone would
// let a long-lived daemon's journal grow without bound — retention
// evicts settled jobs from memory but their records would stay on disk
// until the next restart.
func (m *Manager) compactThreshold() int {
	return 2 * (m.cfg.Retention + m.cfg.MaxQueued)
}

// maybeCompact rewrites the journal to the retained state once enough
// appends have accumulated. The snapshot runs under the wal lock so no
// append can interleave between snapshot and rewrite; it declines when
// a Submit is mid-append (its accept record is durable but the job is
// not yet published, so a snapshot would drop it).
func (m *Manager) maybeCompact() {
	if m.wal == nil {
		return
	}
	m.mu.Lock()
	due := m.appended > m.compactThreshold() && m.submitting == 0 && !m.closed
	m.mu.Unlock()
	if !due {
		return
	}
	_ = m.wal.compact(func() ([]record, bool) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.submitting > 0 {
			return nil, false
		}
		recs := m.liveRecords()
		m.appended = 0
		return recs, true
	})
}

// worker pulls queued jobs FIFO and runs them until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	if m.cfg.Start != nil {
		select {
		case <-m.cfg.Start:
		case <-m.ctx.Done():
			return
		}
	}
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.run(j)
	}
}

// next blocks until a queued job is available or the manager closes.
func (m *Manager) next() *job {
	for {
		m.mu.Lock()
		for len(m.queue) > 0 {
			j := m.queue[0]
			m.queue = m.queue[1:]
			if j.state != StateQueued {
				continue // cancelled while queued
			}
			j.state = StateRunning
			j.started = time.Now().UTC()
			more := len(m.queue) > 0
			m.mu.Unlock()
			// Chain the wakeup: wake is buffered(1), so a burst of
			// Submits can collapse into one token. Re-signalling while
			// the queue is non-empty keeps every idle worker draining it
			// instead of serializing behind this one.
			if more {
				select {
				case m.wake <- struct{}{}:
				default:
				}
			}
			return j
		}
		m.mu.Unlock()
		select {
		case <-m.ctx.Done():
			return nil
		case <-m.wake:
		}
	}
}

// run executes one job through the Runner and settles it. A manager
// shutdown mid-run leaves the job unsettled on purpose: its journal
// accept record has no terminal record, so the next Open re-runs it —
// the crash-recovery path, exercised by Close as much as by SIGKILL.
func (m *Manager) run(j *job) {
	jctx, cancel := context.WithCancel(m.ctx)
	m.mu.Lock()
	j.cancel = cancel
	if j.cancelRequested {
		// Cancel landed in the window between next() flipping the job
		// to running and the handle being installed: without this the
		// Runner would execute the whole job on a live context.
		cancel()
	}
	m.mu.Unlock()
	// The Runner's context carries the accepting submit's trace ID —
	// restored from the journal on a replayed run — so everything the
	// execution logs or dispatches downstream correlates with the
	// original request, plus the progress reporter: shard-aware runners
	// (the coordinator's fleet dispatch) report per-shard completion,
	// which status snapshots carry as done.
	rctx := jctx
	if j.rid != "" {
		rctx = reqid.With(jctx, j.rid)
	}
	pctx := withProgress(rctx, func(done int) { m.setProgress(j, done) })
	started := time.Now()
	result, err := m.cfg.Runner(pctx, j.payload)
	cancel()
	m.mu.Lock()
	j.cancel = nil
	var settled State
	switch {
	case j.cancelRequested:
		m.applySettleLocked(j, StateCancelled, nil, "")
		settled = StateCancelled
	case m.ctx.Err() != nil:
		// Shutdown: revert to queued, journal untouched — replay re-runs.
		j.state = StateQueued
		j.started = time.Time{}
		j.done = 0
	case err != nil:
		m.applySettleLocked(j, StateFailed, nil, err.Error())
		settled = StateFailed
	default:
		m.applySettleLocked(j, StateDone, result, "")
		settled = StateDone
	}
	finished, errMsg := j.finished, j.errMsg
	m.mu.Unlock()
	if settled != "" {
		m.journalSettle(j.id, settled, finished, result, errMsg)
		if m.cfg.Log != nil {
			m.cfg.Log.Info("job",
				"id", j.id,
				"state", string(settled),
				"dur_ms", float64(time.Since(started).Microseconds())/1000,
				"rid", j.rid)
		}
	}
}

// Close stops the workers (cancelling any running Runner), waits for
// them, and closes the journal. Jobs still unsettled stay accepted in
// the journal and re-run on the next Open. Close is idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
	if m.wal != nil {
		return m.wal.close()
	}
	return nil
}
