package server

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
)

// FillRequest is the POST /v1/fill payload: one cube set (inline
// matrix or STIL text) plus the algorithm pair to run on it. Exactly
// one of Cubes and STIL must be set.
type FillRequest struct {
	// Name labels the job in responses and logs. Optional.
	Name string `json:"name,omitempty"`
	// Cubes is the inline cube matrix: one string of 0/1/X per vector,
	// all of equal width.
	Cubes []string `json:"cubes,omitempty"`
	// STIL is a STIL pattern block as emitted by cube.WriteSTIL, the
	// exchange format commercial ATPG flows speak.
	STIL string `json:"stil,omitempty"`
	// Orderer names the reordering applied before filling: tool
	// (default), xstat, i, isa.
	Orderer string `json:"orderer,omitempty"`
	// Filler names the X-fill: dp (default), mt, r, 0, 1, b, adj, xstat.
	Filler string `json:"filler,omitempty"`
	// Seed fixes the randomized algorithms (R-fill, ISA). Default 1.
	Seed int64 `json:"seed,omitempty"`
	// Priority biases dispatch among the jobs of one /v1/batch request
	// when workers are scarce; higher starts earlier. Single-job
	// /v1/fill requests are unaffected (ordering across requests is up
	// to the shared pool).
	Priority int `json:"priority,omitempty"`
	// TimeoutMillis bounds the job's wall-clock time. 0 means the
	// server default; values above the server maximum are clamped.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// OmitCubes drops the filled matrix from the response, for callers
	// that only want the statistics on large sets.
	OmitCubes bool `json:"omit_cubes,omitempty"`
	// Debug asks for the fill-core explain trace (per-stage timings,
	// BCP prune counters, arena reuse) in the response. DP fills are
	// always traced server-side to feed the stage histograms; Debug
	// only controls whether the trace is included in the answer.
	Debug bool `json:"debug,omitempty"`
}

// FillResponse is the POST /v1/fill result payload.
type FillResponse struct {
	Name string `json:"name,omitempty"`
	// Rows and Width are the input shape; XPercent its average
	// don't-care density.
	Rows     int     `json:"rows"`
	Width    int     `json:"width"`
	XPercent float64 `json:"x_percent"`
	// Orderer and Filler echo the resolved algorithm names.
	Orderer string `json:"orderer"`
	Filler  string `json:"filler"`
	// Perm is the applied ordering permutation.
	Perm []int `json:"perm,omitempty"`
	// Cubes is the fully specified output in the applied order (absent
	// with omit_cubes).
	Cubes []string `json:"cubes,omitempty"`
	// Peak and Total are the toggle statistics of the filled set;
	// Profile is the per-cycle toggle count.
	Peak    int   `json:"peak"`
	Total   int   `json:"total"`
	Profile []int `json:"profile,omitempty"`
	// DurationMillis is the job's wall-clock time inside the server
	// (near zero on cache hits).
	DurationMillis float64 `json:"duration_ms"`
	// Cached reports whether the result came from the LRU cache.
	Cached bool `json:"cached"`
	// Explain is the fill-core stage trace, present when the request
	// set debug and the job ran DP-fill. On a cache hit it is the trace
	// of the run that populated the entry (Cached says so).
	Explain *core.Trace `json:"explain,omitempty"`
	// filled is the filled matrix of a response Server builds, written
	// into the answer as its cubes (Cubes stays nil): the cache entry's
	// own bits, never rendered to strings in the server.
	filled *cube.Filled
}

// BatchRequest is the POST /v1/batch payload: many fill jobs run as
// one engine batch with per-job failure isolation.
type BatchRequest struct {
	Jobs []FillRequest `json:"jobs"`
	// Debug asks a coordinator to include the per-shard dispatch
	// breakdown (Shards) in the response, and every tier to include
	// each DP job's fill-core explain trace on its result.
	Debug bool `json:"debug,omitempty"`
}

// BatchItem is one slot of a batch response: exactly one of Result and
// Error is set.
type BatchItem struct {
	Result *FillResponse `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// ShardTrace is one shard's dispatch timing breakdown: where a slice
// of a batch went and how long each layer took. Coordinators record
// one per shard — in the batch response when BatchRequest.Debug is
// set, and in /stats' bounded recent-shards ring always.
type ShardTrace struct {
	// Lo and Hi bound the shard's jobs in the submitted batch: [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Worker is the answering worker's base URL; empty when every
	// attempt failed or the local fallback answered.
	Worker string `json:"worker,omitempty"`
	// Attempts counts worker launches, hedge included.
	Attempts int `json:"attempts"`
	// Hedged and FellBack flag a duplicate straggler attempt and a
	// local-engine fallback answer.
	Hedged   bool `json:"hedged,omitempty"`
	FellBack bool `json:"fell_back,omitempty"`
	// DispatchNS is the shard's total wall-clock time in the
	// coordinator (queueing, failover, fallback included); WorkerNS is
	// the winning worker call alone. Their gap is coordination cost.
	DispatchNS int64 `json:"dispatch_ns"`
	WorkerNS   int64 `json:"worker_ns,omitempty"`
}

// BatchResponse is the POST /v1/batch result payload. Results align
// with the submitted jobs.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	Failed  int         `json:"failed"`
	// Shards is the coordinator's per-shard dispatch breakdown, present
	// only when the request set Debug (and the answerer shards work).
	Shards []ShardTrace `json:"shards,omitempty"`
}

// errorResponse is the uniform error payload.
type errorResponse struct {
	Error string `json:"error"`
}

// badRequestError marks a client-side validation failure (HTTP 400).
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return badRequestError{msg: fmt.Sprintf(format, args...)}
}

// parseSet validates and parses a request's payload against the
// configured shape limits into the packed snapshot the fill runs on.
// Exactly one of cubes/stil must be present. Inline cubes decode
// straight into the snapshot, after the row limit and the first cube's
// width are checked, so an over-limit request is refused before its
// planes are allocated.
func (s *Server) parseSet(cubes []string, stil string) (*cube.Packed, error) {
	switch {
	case len(cubes) > 0 && stil != "":
		return nil, badRequestf("request carries both cubes and stil; send one")
	case len(cubes) == 0 && stil == "":
		return nil, badRequestf("request carries no patterns: set cubes or stil")
	}
	if len(cubes) > 0 {
		if len(cubes) > s.cfg.MaxRows {
			return nil, badRequestf("%d cubes exceed the row limit %d", len(cubes), s.cfg.MaxRows)
		}
		if err := s.checkWidth(len(cubes[0])); err != nil {
			return nil, err
		}
		p, err := cube.ParsePacked(cubes)
		if err != nil {
			return nil, badRequestf("parsing cubes: %v", err)
		}
		return p, nil
	}
	set, err := cube.ReadSTIL(strings.NewReader(stil))
	if err != nil {
		return nil, badRequestf("parsing stil: %v", err)
	}
	if set.Len() > s.cfg.MaxRows {
		return nil, badRequestf("%d cubes exceed the row limit %d", set.Len(), s.cfg.MaxRows)
	}
	if err := s.checkWidth(set.Width); err != nil {
		return nil, err
	}
	return cube.Pack(set), nil
}

// checkWidth applies the column limit to a cube width.
func (s *Server) checkWidth(width int) error {
	if width > s.cfg.MaxCols {
		return badRequestf("cube width %d exceeds the column limit %d", width, s.cfg.MaxCols)
	}
	return nil
}

// clampTimeout resolves a request's timeout_ms against the server's
// default and ceiling. It clamps in milliseconds before converting, so
// a huge timeout_ms cannot wrap the Duration multiply into a tiny or
// negative deadline.
func (s *Server) clampTimeout(millis int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if millis > 0 {
		d = s.cfg.MaxTimeout
		if millis <= s.cfg.MaxTimeout.Milliseconds() {
			d = time.Duration(millis) * time.Millisecond
		}
	}
	return min(d, s.cfg.MaxTimeout)
}
