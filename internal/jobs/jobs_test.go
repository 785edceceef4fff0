package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoRunner answers with the payload it was given, after an optional
// per-call gate, and counts its invocations.
type echoRunner struct {
	calls atomic.Int64
	// gate, when non-nil, blocks each call until it is closed or the
	// job context fires (the context error is returned, as a
	// well-behaved runner would).
	gate chan struct{}
}

func (e *echoRunner) run(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
	e.calls.Add(1)
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return payload, nil
}

// waitState polls until the job reaches want or the deadline expires.
func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (stuck at %s)", id, want, st.State)
	return Status{}
}

func TestSubmitRunsAndRetainsResult(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	payload := json.RawMessage(`{"jobs":[1,2,3]}`)
	st, err := m.Submit(payload, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.ID == "" || st.Total != 3 {
		t.Fatalf("submit snapshot: %+v", st)
	}
	final := waitState(t, m, st.ID, StateDone)
	if string(final.Result) != string(payload) {
		t.Fatalf("result %s, want the payload back", final.Result)
	}
	if final.Done != 3 || final.FinishedAt.IsZero() || final.StartedAt.IsZero() {
		t.Fatalf("done snapshot incomplete: %+v", final)
	}
	list := m.List()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}
	if list.Jobs[0].Result != nil {
		t.Fatal("listing leaked a result payload")
	}
}

func TestRunnerErrorFailsJob(t *testing.T) {
	m, err := Open(Config{Runner: func(context.Context, json.RawMessage) (json.RawMessage, error) {
		return nil, errors.New("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(json.RawMessage(`{}`), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateFailed)
	if final.Error != "boom" {
		t.Fatalf("error %q, want boom", final.Error)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	r := &echoRunner{gate: make(chan struct{})}
	m, err := Open(Config{Runner: r.run, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// First job occupies the single worker; the second stays queued.
	first, err := m.Submit(json.RawMessage(`1`), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	second, err := m.Submit(json.RawMessage(`2`), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	close(r.gate)
	waitState(t, m, first.ID, StateDone)
	if got := r.calls.Load(); got != 1 {
		t.Fatalf("runner ran %d times; the cancelled job must never run", got)
	}
	// Cancelling a settled job is a conflict.
	if _, err := m.Cancel(second.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel of settled job: %v, want ErrTerminal", err)
	}
}

func TestCancelRunningJobInterruptsRunner(t *testing.T) {
	r := &echoRunner{gate: make(chan struct{})}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(json.RawMessage(`1`), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateRunning)
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	// The gate is never closed: only the context cancel can free the
	// runner, so reaching cancelled proves the interrupt worked.
	final := waitState(t, m, st.ID, StateCancelled)
	if final.Result != nil {
		t.Fatal("cancelled job kept a result")
	}
}

func TestQueueFullAdmission(t *testing.T) {
	r := &echoRunner{gate: make(chan struct{})}
	m, err := Open(Config{Runner: r.run, Workers: 1, MaxQueued: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(json.RawMessage(`1`), 1, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Submit(json.RawMessage(`1`), 1, ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	// Settling a job frees its admission slot.
	close(r.gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := m.Submit(json.RawMessage(`1`), 1, ""); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRetentionEvictsOldestSettled(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run, Retention: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ids := make([]string, 6)
	for i := range ids {
		st, err := m.Submit(json.RawMessage(fmt.Sprintf(`%d`, i)), 1, "")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		waitState(t, m, st.ID, StateDone)
	}
	if n := len(m.List().Jobs); n != 3 {
		t.Fatalf("retained %d jobs, want 3", n)
	}
	for _, id := range ids[:3] {
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("evicted job %s still retained: %v", id, err)
		}
	}
	for _, id := range ids[3:] {
		if _, err := m.Get(id); err != nil {
			t.Fatalf("recent job %s evicted: %v", id, err)
		}
	}
}

func TestWALReplayServesSettledResults(t *testing.T) {
	dir := t.TempDir()
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`{"jobs":["a"]}`)
	st, err := m.Submit(payload, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateDone)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh manager on the same directory serves the settled job
	// verbatim without re-running it.
	m2, err := Open(Config{Runner: func(context.Context, json.RawMessage) (json.RawMessage, error) {
		t.Error("settled job re-ran after replay")
		return nil, errors.New("unreachable")
	}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || string(got.Result) != string(final.Result) {
		t.Fatalf("replayed %+v, want the recorded result %s", got, final.Result)
	}
	if !got.CreatedAt.Equal(final.CreatedAt) {
		t.Fatalf("replay lost the accept time: %v vs %v", got.CreatedAt, final.CreatedAt)
	}
}

func TestWALReplayRerunsUnsettledJob(t *testing.T) {
	dir := t.TempDir()
	blocked := &echoRunner{gate: make(chan struct{})}
	m, err := Open(Config{Runner: blocked.run, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`{"jobs":["crash"]}`)
	st, err := m.Submit(payload, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateRunning)
	// Close with the runner mid-flight: the accept record has no
	// terminal record, exactly the journal a SIGKILL leaves behind.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := &echoRunner{}
	m2, err := Open(Config{Runner: r2.run, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	final := waitState(t, m2, st.ID, StateDone)
	if string(final.Result) != string(payload) {
		t.Fatalf("re-run result %s, want %s", final.Result, payload)
	}
	if r2.calls.Load() != 1 {
		t.Fatalf("re-run ran %d times, want 1", r2.calls.Load())
	}
}

func TestWALTornTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(json.RawMessage(`1`), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, newline-less final record.
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m2, err := Open(Config{Runner: r.run, Dir: dir})
	if err != nil {
		t.Fatalf("torn tail broke replay: %v", err)
	}
	defer m2.Close()
	if _, err := m2.Get(st.ID); err != nil {
		t.Fatalf("settled job lost alongside the torn tail: %v", err)
	}
	if _, err := m2.Get("torn"); !errors.Is(err, ErrNotFound) {
		t.Fatal("torn record half-materialized a job")
	}
}

// TestWALCrashAtEveryOffset cuts a real journal at every byte offset,
// as a crash mid-append would, and opens each prefix in a fresh data
// directory. Open always succeeds; every job whose accept line survived
// whole, newline included, comes back under its ID and idempotency key,
// settled exactly when its terminal line survived whole too; a job
// whose accept line was cut does not appear.
func TestWALCrashAtEveryOffset(t *testing.T) {
	runner := func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
		switch string(payload) {
		case `"fail"`:
			return nil, errors.New("boom")
		case `"block"`:
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return payload, nil
	}
	src := t.TempDir()
	m, err := Open(Config{Runner: runner, Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(payload, key string, want State) {
		st, err := m.Submit(json.RawMessage(payload), 1, key)
		if err != nil {
			t.Fatal(err)
		}
		if want == StateCancelled {
			waitState(t, m, st.ID, StateRunning)
			if _, err := m.Cancel(st.ID); err != nil {
				t.Fatal(err)
			}
		}
		waitState(t, m, st.ID, want)
	}
	submit(`"a"`, "key-a", StateDone)
	submit(`"fail"`, "key-b", StateFailed)
	submit(`"block"`, "key-c", StateCancelled)
	submit(`"d"`, "key-d", StateDone)
	// Left running: Close keeps its accept unsettled in the journal.
	submit(`"block"`, "key-e", StateRunning)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		end int // offset just past the line's newline
		rec record
	}
	var lines []line
	for off := 0; off < len(data); {
		n := bytes.IndexByte(data[off:], '\n') + 1
		var rec record
		if err := json.Unmarshal(data[off:off+n], &rec); err != nil {
			t.Fatal(err)
		}
		off += n
		lines = append(lines, line{off, rec})
	}
	if len(lines) != 9 {
		t.Fatalf("journal has %d records, want 5 accepts and 4 settles", len(lines))
	}
	settled := map[string]State{"done": StateDone, "fail": StateFailed, "cancel": StateCancelled}
	hold := make(chan struct{}) // never closed: replayed jobs stay queued
	base := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		dir := filepath.Join(base, strconv.Itoa(cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Open(Config{Runner: runner, Dir: dir, Start: hold})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		want := map[string]State{}
		for _, l := range lines {
			switch {
			case l.end > cut:
			case l.rec.Op == "accept":
				want[l.rec.ID] = StateQueued
			default:
				want[l.rec.ID] = settled[l.rec.Op]
			}
		}
		for _, l := range lines {
			if l.rec.Op != "accept" {
				continue
			}
			st, err := m.Get(l.rec.ID)
			if l.end > cut {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("cut at %d: job %s with a torn accept came back: %+v, %v", cut, l.rec.ID, st, err)
				}
				continue
			}
			if err != nil || st.State != want[l.rec.ID] {
				t.Fatalf("cut at %d: job %s is %+v, %v; want %s", cut, l.rec.ID, st, err, want[l.rec.ID])
			}
			dup, err := m.Submit(l.rec.Payload, 1, l.rec.Key)
			if err != nil || dup.ID != l.rec.ID {
				t.Fatalf("cut at %d: resend of key %s answered %+v, %v; want job %s", cut, l.rec.Key, dup, err, l.rec.ID)
			}
		}
		if got := len(m.List().Jobs); got != len(want) {
			t.Fatalf("cut at %d: %d jobs retained, want %d", cut, got, len(want))
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALCompactionDropsEvictedHistory(t *testing.T) {
	dir := t.TempDir()
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run, Dir: dir, Retention: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for i := 0; i < 5; i++ {
		st, err := m.Submit(json.RawMessage(fmt.Sprintf(`%d`, i)), 1, "")
		if err != nil {
			t.Fatal(err)
		}
		last = st.ID
		waitState(t, m, st.ID, StateDone)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen compacts: only the retained job survives in the journal.
	m2, err := Open(Config{Runner: r.run, Dir: dir, Retention: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"op":"accept"`); n != 1 {
		t.Fatalf("compacted journal holds %d accepts, want 1:\n%s", n, data)
	}
	if !strings.Contains(string(data), last) {
		t.Fatalf("compacted journal lost the retained job %s:\n%s", last, data)
	}
}

func TestOnlineCompactionBoundsJournal(t *testing.T) {
	dir := t.TempDir()
	r := &echoRunner{}
	// Retention 2 + MaxQueued 2 puts the compaction threshold at 8
	// appended records; 40 settled jobs append 80 without it.
	cfg := Config{Runner: r.run, Dir: dir, Retention: 2, MaxQueued: 2}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for i := 0; i < 40; i++ {
		st, err := m.Submit(json.RawMessage(fmt.Sprintf(`%d`, i)), 1, "")
		if err != nil {
			t.Fatal(err)
		}
		last = st.ID
		waitState(t, m, st.ID, StateDone)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// Compaction never shrinks below the live records, and between
	// compactions at most threshold more accumulate: live (<= 2*2
	// settled records) + threshold (8) + a little slack.
	if n := strings.Count(string(data), "\n"); n > 16 {
		t.Fatalf("journal grew to %d records while the daemon lived; online compaction never ran", n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted journal must still replay: the last settled job
	// answers from its recorded result.
	m2, err := Open(cfg)
	if err != nil {
		t.Fatalf("compacted journal broke replay: %v", err)
	}
	defer m2.Close()
	st, err := m2.Get(last)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || string(st.Result) != `39` {
		t.Fatalf("replayed job after online compaction: %+v", st)
	}
}

func TestBurstSubmitsReachAllWorkers(t *testing.T) {
	r := &echoRunner{gate: make(chan struct{})}
	m, err := Open(Config{Runner: r.run, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Two back-to-back submits can collapse into one token on the
	// buffered wake channel; both jobs must still start concurrently —
	// the first worker re-signals while the queue is non-empty.
	a, err := m.Submit(json.RawMessage(`1`), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(json.RawMessage(`2`), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning)
	waitState(t, m, b.ID, StateRunning)
	close(r.gate)
	waitState(t, m, a.ID, StateDone)
	waitState(t, m, b.ID, StateDone)
}

func TestCorruptJournalRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	if err := os.WriteFile(path, []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := &echoRunner{}
	if _, err := Open(Config{Runner: r.run, Dir: dir}); err == nil {
		t.Fatal("corrupt journal opened silently")
	}
}

func TestOpenRequiresRunner(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("nil runner accepted")
	}
}

func TestGetAndCancelUnknownJob(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get: %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel: %v, want ErrNotFound", err)
	}
}

func TestSubmitAfterCloseRefused(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(json.RawMessage(`1`), 1, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second close not idempotent:", err)
	}
}
