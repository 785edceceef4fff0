package logx

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestLogger(opts Options) (*Logger, *strings.Builder) {
	var buf strings.Builder
	opts.NoTime = true
	l := New(&buf, opts)
	return l, &buf
}

func TestLogfmtLine(t *testing.T) {
	l, buf := newTestLogger(Options{})
	l.Info("request", "method", "POST", "path", "/v1/fill", "status", 400, "dur_ms", 1.42, "rid", "rid-log-1")
	got := buf.String()
	want := "level=info msg=request method=POST path=/v1/fill status=400 dur_ms=1.42 rid=rid-log-1\n"
	if got != want {
		t.Fatalf("line %q, want %q", got, want)
	}
}

func TestLogfmtQuoting(t *testing.T) {
	l, buf := newTestLogger(Options{})
	l.Warn("disk low", "mount", "/var/lib/dp fill", "free", "", "err", errors.New(`broken "pipe"`))
	got := buf.String()
	for _, want := range []string{`msg="disk low"`, `mount="/var/lib/dp fill"`, `free=""`, `err="broken \"pipe\""`} {
		if !strings.Contains(got, want) {
			t.Fatalf("line %q missing %q", got, want)
		}
	}
}

func TestJSONLine(t *testing.T) {
	l, buf := newTestLogger(Options{Format: JSON})
	l.Error("shard failed", "rid", "abc", "attempts", 3, "hedged", true, "dur", 1500*time.Millisecond, "err", errors.New("boom"), "frac", 0.5)
	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("line %q is not JSON: %v", buf.String(), err)
	}
	if rec["level"] != "error" || rec["msg"] != "shard failed" || rec["rid"] != "abc" {
		t.Fatalf("record %v", rec)
	}
	if rec["attempts"] != float64(3) || rec["hedged"] != true || rec["frac"] != 0.5 {
		t.Fatalf("numeric/bool fields mangled: %v", rec)
	}
	if rec["dur"] != "1.5s" || rec["err"] != "boom" {
		t.Fatalf("duration/error fields mangled: %v", rec)
	}
}

func TestJSONTimestampAndStructured(t *testing.T) {
	var buf strings.Builder
	l := New(&buf, Options{Format: JSON})
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	l.Info("up", "shards", []int{1, 2}, "null", nil)
	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("line %q: %v", buf.String(), err)
	}
	if rec["time"] != "2026-08-08T12:00:00Z" {
		t.Fatalf("time field %v", rec["time"])
	}
	if fmt.Sprint(rec["shards"]) != "[1 2]" || rec["null"] != nil {
		t.Fatalf("structured values mangled: %v", rec)
	}
}

func TestLogfmtTimestamp(t *testing.T) {
	var buf strings.Builder
	l := New(&buf, Options{})
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	l.Info("up")
	if got, want := buf.String(), "time=2026-08-08T12:00:00Z level=info msg=up\n"; got != want {
		t.Fatalf("line %q, want %q", got, want)
	}
}

func TestLevelFiltering(t *testing.T) {
	l, buf := newTestLogger(Options{Level: Warn})
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	got := buf.String()
	if strings.Contains(got, "msg=d") || strings.Contains(got, "msg=i") {
		t.Fatalf("sub-threshold records leaked: %q", got)
	}
	if !strings.Contains(got, "msg=w") || !strings.Contains(got, "msg=e") {
		t.Fatalf("threshold records missing: %q", got)
	}
	if l.Enabled(Info) || !l.Enabled(Error) {
		t.Fatal("Enabled disagrees with the configured level")
	}
	l.SetLevel(Debug)
	if !l.Enabled(Debug) {
		t.Fatal("SetLevel did not take effect")
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x", "k", "v")
	l.Warn("x")
	l.Error("x")
	l.SetLevel(Error)
	if l.Enabled(Error) {
		t.Fatal("nil logger claims to be enabled")
	}
	if l.With("k", "v") != nil {
		t.Fatal("nil With returned a logger")
	}
	var s *Sampler
	s.Log(Info, "x")
	if s.Dropped() != 0 {
		t.Fatal("nil sampler dropped")
	}
}

func TestWithBindsFields(t *testing.T) {
	l, buf := newTestLogger(Options{})
	jl := l.With("job", "j1", "rid", "r9")
	jl.Info("done", "state", "completed")
	if got, want := buf.String(), "level=info msg=done job=j1 rid=r9 state=completed\n"; got != want {
		t.Fatalf("line %q, want %q", got, want)
	}
	buf.Reset()
	l.Info("plain")
	if strings.Contains(buf.String(), "job=") {
		t.Fatalf("With leaked fields into the parent: %q", buf.String())
	}
	if l.With() != l {
		t.Fatal("With() without fields should return the receiver")
	}
}

func TestOddPairsFlagged(t *testing.T) {
	l, buf := newTestLogger(Options{})
	l.Info("odd", "k1", "v1", "dangling")
	if !strings.Contains(buf.String(), "!BADKEY=dangling") {
		t.Fatalf("odd pair not flagged: %q", buf.String())
	}
	buf.Reset()
	lj, bufj := newTestLogger(Options{Format: JSON})
	lj.Info("odd", "dangling")
	if !strings.Contains(bufj.String(), `"!BADKEY":"dangling"`) {
		t.Fatalf("odd pair not flagged in JSON: %q", bufj.String())
	}
	l.Info("nonstring", 42, "v")
	if !strings.Contains(buf.String(), "42=v") {
		t.Fatalf("non-string key not rendered: %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": Debug, "info": Info, "": Info, "WARN": Warn, "warning": Warn, "error": Error, " Error ": Error,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
	for lv, name := range map[Level]string{Debug: "debug", Info: "info", Warn: "warn", Error: "error"} {
		if lv.String() != name {
			t.Fatalf("Level(%d).String() = %q", lv, lv.String())
		}
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{"": Logfmt, "logfmt": Logfmt, "text": Logfmt, "JSON": JSON} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat accepted garbage")
	}
}

// TestFromFlags: logging off is a nil logger whatever the other flags
// say; on, the level and format flags shape the lines, and a bad value
// of either is an error.
func TestFromFlags(t *testing.T) {
	if l, err := FromFlags(nil, false, "loud", "xml"); l != nil || err != nil {
		t.Fatalf("disabled: %v, %v; want nil, nil", l, err)
	}
	var buf strings.Builder
	l, err := FromFlags(&buf, true, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept")
	if out := buf.String(); strings.Contains(out, "dropped") || !strings.Contains(out, `"msg":"kept"`) {
		t.Fatalf("warn-level JSON logger wrote %q", out)
	}
	for _, bad := range [][2]string{{"loud", "json"}, {"info", "xml"}} {
		if _, err := FromFlags(&buf, true, bad[0], bad[1]); err == nil {
			t.Errorf("FromFlags accepted level %q format %q", bad[0], bad[1])
		}
	}
}

func TestSamplerBoundsVolume(t *testing.T) {
	l, buf := newTestLogger(Options{})
	s := NewSampler(l, time.Second, 2)
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return clock }

	for i := 0; i < 10; i++ {
		s.Log(Info, "hot", "i", i)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("burst of 2 emitted %d lines:\n%s", got, buf.String())
	}
	if s.Dropped() != 8 {
		t.Fatalf("dropped = %d, want 8", s.Dropped())
	}

	// One refill interval later, the next record lands and reports the
	// suppressed stretch.
	clock = clock.Add(time.Second)
	buf.Reset()
	s.Log(Info, "hot", "i", 10)
	if got := buf.String(); !strings.Contains(got, "dropped=8") {
		t.Fatalf("resumed record does not report drops: %q", got)
	}
	if s.Dropped() != 0 {
		t.Fatal("dropped counter not reset after reporting")
	}
}

func TestSamplerRespectsLevel(t *testing.T) {
	l, buf := newTestLogger(Options{Level: Warn})
	s := NewSampler(l, time.Second, 1)
	s.Log(Info, "hot")
	if buf.Len() != 0 || s.Dropped() != 0 {
		t.Fatalf("sub-threshold record consumed a token or line: %q", buf.String())
	}
	s.Log(Warn, "cold")
	if !strings.Contains(buf.String(), "msg=cold") {
		t.Fatalf("threshold record suppressed: %q", buf.String())
	}
	// Degenerate configs are clamped.
	s2 := NewSampler(l, 0, 0)
	if s2.every != time.Second || s2.burst != 1 {
		t.Fatalf("degenerate sampler config not clamped: %+v", s2)
	}
}

func TestConcurrentLinesNeverInterleave(t *testing.T) {
	l, buf := newTestLogger(Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.With("g", g).Info("tick", "i", i)
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("%d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "level=info msg=tick g=") || strings.Count(line, "msg=") != 1 {
			t.Fatalf("interleaved line %q", line)
		}
	}
}
