package server

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestParseLevel: -log-level takes debug, info (also empty), warn (or
// warning) and error in any case and with surrounding space, sets the
// severity floor to that level, and rejects anything else by name.
func TestParseLevel(t *testing.T) {
	ctx := context.Background()
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo, "WARN": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, " Error ": slog.LevelError,
	} {
		var buf strings.Builder
		l, err := LoggerFromFlags(&buf, true, in, "")
		if err != nil {
			t.Fatalf("level %q: %v", in, err)
		}
		if !l.Enabled(ctx, want) || l.Enabled(ctx, want-1) {
			t.Fatalf("level %q: floor is not %v", in, want)
		}
		l.Log(ctx, want, "x")
		if name := "level=" + want.String() + " "; !strings.Contains(buf.String(), name) {
			t.Fatalf("level %q: line %q lacks %q", in, buf.String(), name)
		}
	}
	_, err := LoggerFromFlags(nil, true, "loud", "")
	if err == nil || err.Error() != `unknown log level "loud" (want debug, info, warn or error)` {
		t.Fatalf("level loud: err %v", err)
	}
}

// TestParseFormat: -log-format takes logfmt (also empty or text) and
// json in any case, and rejects anything else by name.
func TestParseFormat(t *testing.T) {
	for in, isJSON := range map[string]bool{"": false, "logfmt": false, "text": false, "JSON": true} {
		var buf strings.Builder
		l, err := LoggerFromFlags(&buf, true, "info", in)
		if err != nil {
			t.Fatalf("format %q: %v", in, err)
		}
		l.Info("up")
		if got := strings.HasPrefix(buf.String(), "{"); got != isJSON {
			t.Fatalf("format %q wrote %q", in, buf.String())
		}
	}
	_, err := LoggerFromFlags(nil, true, "info", "xml")
	if err == nil || err.Error() != `unknown log format "xml" (want logfmt or json)` {
		t.Fatalf("format xml: err %v", err)
	}
}

// TestFromFlags: access logging off is a logger whose floor is at
// least warn — the info-level request and job records drop, the error
// records print — and a bad level or format is an error whether access
// logging is on or off; the level and format flags shape the lines.
func TestFromFlags(t *testing.T) {
	for level, floor := range map[string]slog.Level{"debug": slog.LevelWarn, "info": slog.LevelWarn, "error": slog.LevelError} {
		var off strings.Builder
		l, err := LoggerFromFlags(&off, false, level, "json")
		if err != nil {
			t.Fatalf("access log off, level %s: %v", level, err)
		}
		if ctx := context.Background(); !l.Enabled(ctx, floor) || l.Enabled(ctx, floor-1) {
			t.Fatalf("access log off, level %s: floor is not %v", level, floor)
		}
		l.Info("request")
		l.Error("shard dispatch failed")
		if out := off.String(); strings.Contains(out, `"msg":"request"`) || !strings.Contains(out, `"msg":"shard dispatch failed"`) {
			t.Fatalf("access log off, level %s, wrote %q", level, out)
		}
	}
	var buf strings.Builder
	l, err := LoggerFromFlags(&buf, true, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept")
	if out := buf.String(); strings.Contains(out, "dropped") || !strings.Contains(out, `"msg":"kept"`) {
		t.Fatalf("warn-level JSON logger wrote %q", out)
	}
	for _, bad := range [][2]string{{"loud", "json"}, {"info", "xml"}, {"loud", "xml"}} {
		for _, on := range []bool{true, false} {
			if _, err := LoggerFromFlags(&buf, on, bad[0], bad[1]); err == nil {
				t.Errorf("LoggerFromFlags(enabled=%v) accepted level %q format %q", on, bad[0], bad[1])
			}
		}
	}
}

// TestLogfmtLine: a logfmt logger keeps the access-log tokens the
// fleet's runbook greps for, after slog's own time= prefix.
func TestLogfmtLine(t *testing.T) {
	var buf strings.Builder
	l, err := LoggerFromFlags(&buf, true, "info", "logfmt")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("request", "method", "POST", "path", "/v1/fill", "status", 400, "dur_ms", 1.42, "rid", "rid-log-1")
	want := " level=INFO msg=request method=POST path=/v1/fill status=400 dur_ms=1.42 rid=rid-log-1\n"
	if got := buf.String(); !strings.HasPrefix(got, "time=") || !strings.HasSuffix(got, want) {
		t.Fatalf("line %q, want time=…%q", got, want)
	}
}

// TestJSONLine: a JSON logger writes one object per line with numbers
// and booleans typed, durations as nanoseconds and errors as their text.
func TestJSONLine(t *testing.T) {
	var buf strings.Builder
	l, err := LoggerFromFlags(&buf, true, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Error("shard failed", "rid", "abc", "attempts", 3, "hedged", true, "dur", 1500*time.Millisecond, "err", errors.New("boom"), "frac", 0.5)
	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("line %q is not JSON: %v", buf.String(), err)
	}
	if rec["level"] != "ERROR" || rec["msg"] != "shard failed" || rec["rid"] != "abc" {
		t.Fatalf("record %v", rec)
	}
	if rec["attempts"] != float64(3) || rec["hedged"] != true || rec["frac"] != 0.5 {
		t.Fatalf("numeric/bool fields mangled: %v", rec)
	}
	if rec["dur"] != float64(1500*time.Millisecond) || rec["err"] != "boom" {
		t.Fatalf("duration/error fields mangled: %v", rec)
	}
}

// TestLevelFiltering: a warn-level logger drops debug and info records,
// keeps warn and error ones, and Enabled agrees with that floor.
func TestLevelFiltering(t *testing.T) {
	ctx := context.Background()
	var buf strings.Builder
	l, err := LoggerFromFlags(&buf, true, "warn", "logfmt")
	if err != nil {
		t.Fatal(err)
	}
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
	if l.Enabled(ctx, slog.LevelInfo) || !l.Enabled(ctx, slog.LevelError) {
		t.Fatal("Enabled disagrees with the configured level")
	}
}
