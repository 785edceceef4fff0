package jobs

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestSubmitIdempotencyKeyDedupes pins the double-submit fix: a resend
// with the same idempotency key answers the originally accepted job
// instead of minting a duplicate, and the runner runs once.
func TestSubmitIdempotencyKeyDedupes(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	first, err := m.Submit(json.RawMessage(`{"a":1}`), 1, "key-1")
	if err != nil {
		t.Fatal(err)
	}
	dup, err := m.Submit(json.RawMessage(`{"a":1}`), 1, "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate submit minted a new job: %s vs %s", dup.ID, first.ID)
	}
	other, err := m.Submit(json.RawMessage(`{"a":2}`), 1, "key-2")
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == first.ID {
		t.Fatal("distinct keys shared a job")
	}
	waitState(t, m, first.ID, StateDone)
	waitState(t, m, other.ID, StateDone)
	if n := r.calls.Load(); n != 2 {
		t.Fatalf("runner ran %d times, want 2", n)
	}
	// The dedupe holds even against a settled job: the retried POST may
	// arrive after the job finished.
	late, err := m.Submit(json.RawMessage(`{"a":1}`), 1, "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if late.ID != first.ID {
		t.Fatal("post-settle resend minted a new job")
	}
}

// TestSubmitIdempotencyConcurrent hammers one key from many
// goroutines under -race: exactly one job may exist afterwards.
func TestSubmitIdempotencyConcurrent(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run, MaxQueued: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const goroutines = 16
	ids := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := m.Submit(json.RawMessage(`{}`), 1, "shared")
			if err == nil {
				ids[i] = st.ID
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("goroutine %d got job %s, goroutine 0 got %s", i, ids[i], ids[0])
		}
	}
}

// TestIdempotencyKeySurvivesReplay: the key is journaled with the
// accept record, so a resend after a daemon restart still dedupes.
func TestIdempotencyKeySurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	r := &echoRunner{gate: gate}
	m, err := Open(Config{Runner: r.run, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(json.RawMessage(`{"x":1}`), 1, "replay-key")
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // job still queued/running: accept record has no terminal

	r2 := &echoRunner{}
	m2, err := Open(Config{Runner: r2.run, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	dup, err := m2.Submit(json.RawMessage(`{"x":1}`), 1, "replay-key")
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != st.ID {
		t.Fatalf("resend after replay minted job %s, want the journaled %s", dup.ID, st.ID)
	}
}
