package jobs

import (
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/reqid"
)

// logBuf is a goroutine-safe sink for the manager's structured log:
// job settlement records are written from worker goroutines.
type logBuf struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *logBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *logBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// settleLine picks the settlement record for the given job out of the
// structured log. The worker writes that record just after the job's
// state flips, so a caller that has seen the final state polls for it
// briefly; "" means it never appeared.
func settleLine(buf *logBuf, id string) string {
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, "msg=job") && strings.Contains(line, "id="+id) {
				return line
			}
		}
		if time.Now().After(deadline) {
			return ""
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobCompletionLogCarriesRid: a job submitted with a trace ID logs
// its settlement under that ID, and the runner's context carries it so
// downstream dispatch (a coordinator re-sharding the batch) forwards
// the original request's ID.
func TestJobCompletionLogCarriesRid(t *testing.T) {
	var buf logBuf
	var gotCtxRid string
	m, err := Open(Config{
		Runner: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
			gotCtxRid = reqid.From(ctx)
			return p, nil
		},
		Log: slog.New(slog.NewTextHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.SubmitTraced(json.RawMessage(`{"n":1}`), 0, "", "rid-job-7")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	if gotCtxRid != "rid-job-7" {
		t.Fatalf("runner context rid = %q, want rid-job-7", gotCtxRid)
	}
	line := settleLine(&buf, st.ID)
	if line == "" {
		t.Fatalf("no settlement record for %s in log:\n%s", st.ID, buf.String())
	}
	for _, want := range []string{"state=done", "rid=rid-job-7", "dur_ms="} {
		if !strings.Contains(line, want) {
			t.Fatalf("settlement record %q missing %q", line, want)
		}
	}
}

// TestSubmitWithoutRidLogsNone: the plain Submit path keeps an empty
// rid — the record still appears, without inventing a trace ID.
func TestSubmitWithoutRidLogsNone(t *testing.T) {
	var buf logBuf
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run, Log: slog.New(slog.NewTextHandler(&buf, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(json.RawMessage(`{}`), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	line := settleLine(&buf, st.ID)
	if line == "" {
		t.Fatalf("no settlement record in log:\n%s", buf.String())
	}
	if !strings.Contains(line, `rid=""`) && !strings.Contains(line, "rid= ") && !strings.HasSuffix(line, "rid=") {
		t.Fatalf("record should carry an empty rid, got %q", line)
	}
}

// TestRidSurvivesJournalReplay: the trace ID rides the WAL accept
// record, so a job replayed after a crash settles under the original
// request's ID — the log line an operator greps for still matches.
func TestRidSurvivesJournalReplay(t *testing.T) {
	dir, err := os.MkdirTemp("", "jobs-rid-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })

	// First life: accept the job but die before it runs.
	blocked := &echoRunner{gate: make(chan struct{})}
	m1, err := Open(Config{Runner: blocked.run, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.SubmitTraced(json.RawMessage(`{"replay":true}`), 0, "", "rid-replay-3")
	if err != nil {
		t.Fatal(err)
	}
	m1.Close() // gate never opens: job dies accepted-but-unsettled

	// Second life: replay re-runs the job; its settlement record must
	// still carry the original rid.
	var buf logBuf
	var gotCtxRid string
	m2, err := Open(Config{
		Runner: func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
			gotCtxRid = reqid.From(ctx)
			return p, nil
		},
		Dir: dir,
		Log: slog.New(slog.NewTextHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	waitState(t, m2, st.ID, StateDone)
	if gotCtxRid != "rid-replay-3" {
		t.Fatalf("replayed runner context rid = %q, want rid-replay-3", gotCtxRid)
	}
	line := settleLine(&buf, st.ID)
	if !strings.Contains(line, "rid=rid-replay-3") {
		t.Fatalf("replayed settlement record %q does not carry the original rid", line)
	}
}
