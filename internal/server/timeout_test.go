package server

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestClampTimeoutNeverWraps: timeout_ms is clamped in milliseconds
// before it becomes a Duration, so a huge value means the ceiling
// rather than a wrapped tiny or negative deadline. The default is 1ns
// here, so every request that falls back to it answers with a deadline
// overrun, and every one that gets the ceiling runs to completion —
// through each endpoint that calls clampTimeout.
func TestClampTimeoutNeverWraps(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1, DefaultTimeout: time.Nanosecond, MaxTimeout: time.Minute})
	cases := []struct {
		millis int64
		want   time.Duration
	}{
		{0, time.Nanosecond},
		{-5, time.Nanosecond},
		{math.MinInt64, time.Nanosecond},
		{60000, time.Minute},
		{60001, time.Minute},
		{18446744073710, time.Minute}, // used to wrap to a 448µs deadline
		{9223372036855, time.Minute},  // used to wrap negative, to the default
		{math.MaxInt64, time.Minute},
	}
	for _, tc := range cases {
		if got := s.clampTimeout(tc.millis); got != tc.want {
			t.Errorf("clampTimeout(%d) = %v, want %v", tc.millis, got, tc.want)
		}
		ms := strconv.FormatInt(tc.millis, 10)
		fill := `{"cubes":["0XX1X0","1X0XX1","XX01X0"],"timeout_ms":` + ms + `}`
		overrun := tc.want == time.Nanosecond
		for _, ep := range []struct{ path, body string }{
			{"/v1/fill", fill},
			{"/v1/batch", `{"jobs":[` + fill + `]}`},
			{"/v1/pipeline", `{"spec":"b01","timeout_ms":` + ms + `}`},
		} {
			resp, err := http.Post(ts.URL+ep.path, "application/json", strings.NewReader(ep.body))
			if err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			// A batch isolates job failures: the overrun is the job's
			// error slot inside a 200.
			timedOut := resp.StatusCode == http.StatusGatewayTimeout ||
				(ep.path == "/v1/batch" && strings.Contains(string(out), "deadline exceeded"))
			if timedOut != overrun || (!timedOut && resp.StatusCode != http.StatusOK) {
				t.Errorf("%s timeout_ms %d: status %d %s, want overrun=%v", ep.path, tc.millis, resp.StatusCode, string(out), overrun)
			}
		}
	}
}
