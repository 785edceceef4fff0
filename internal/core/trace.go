package core

import (
	"time"

	"repro/internal/bcp"
)

// Trace is a fill's explain record: per-stage wall time over the
// packed hot path, the BCP solver's prune counters and arena reuse.
// Attach one via Options.Trace; a nil sink costs the hot path only a
// handful of predictable branches (pinned by the CI bench gate).
//
// The stage timings partition the fill exactly: PackNS + ScanNS +
// BoundNS + AssignNS + ReconstructNS + UnpackNS + OtherNS == TotalNS,
// because OtherNS is computed as the remainder (instance validation,
// result assembly). Downstream explain surfaces and tests rely on that
// identity.
type Trace struct {
	// Rows and Cols are the input's dimensions (pins × vectors).
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Shards is the row-scan fan-out the fill resolved to.
	Shards int `json:"shards"`
	// ArenaReused reports whether the fill's scratch came warm from the
	// sync.Pool.
	ArenaReused bool `json:"arena_reused"`

	// Intervals and ForcedUnit mirror Result: total BCP intervals and
	// forced unit toggles.
	Intervals  int `json:"intervals"`
	ForcedUnit int `json:"forced_unit"`
	// Peak and LowerBound mirror Result.
	Peak       int `json:"peak"`
	LowerBound int `json:"lower_bound"`

	// BCP carries Algorithm 1's prune counters.
	BCP bcp.Stats `json:"bcp"`

	// Stage wall times, nanoseconds. They sum (with OtherNS) to TotalNS.
	PackNS        int64 `json:"pack_ns"`
	ScanNS        int64 `json:"scan_ns"`
	BoundNS       int64 `json:"bound_ns"`
	AssignNS      int64 `json:"assign_ns"`
	ReconstructNS int64 `json:"reconstruct_ns"`
	UnpackNS      int64 `json:"unpack_ns"`
	OtherNS       int64 `json:"other_ns"`
	TotalNS       int64 `json:"total_ns"`
}

// StageNS returns the named stage timings in a fixed order, for
// histogram export and explain printing.
func (t *Trace) StageNS() []StageTime {
	return []StageTime{
		{"pack", t.PackNS},
		{"scan", t.ScanNS},
		{"bound", t.BoundNS},
		{"assign", t.AssignNS},
		{"reconstruct", t.ReconstructNS},
		{"unpack", t.UnpackNS},
		{"other", t.OtherNS},
	}
}

// StageTime is one named stage duration of a fill trace.
type StageTime struct {
	Stage string
	NS    int64
}

// seal closes a trace's accounting: TotalNS is fixed and OtherNS
// becomes the remainder not attributed to a named stage, making the
// stage sum exact by construction.
func (t *Trace) seal(totalNS int64) {
	t.TotalNS = totalNS
	t.OtherNS = totalNS - (t.PackNS + t.ScanNS + t.BoundNS + t.AssignNS + t.ReconstructNS + t.UnpackNS)
}

// finish records a fill's shape, schedule and outcome, and seals the
// trace at the time since the fill's start.
func (t *Trace) finish(res *Result, rows, cols, shards int, reused bool, start time.Time) {
	t.Rows = rows
	t.Cols = cols
	t.Shards = shards
	t.ArenaReused = t.ArenaReused || reused
	t.Intervals += res.NumIntervals
	t.ForcedUnit += res.ForcedUnit
	t.Peak = res.Peak
	t.LowerBound = res.LowerBound
	t.seal(time.Since(start).Nanoseconds())
}
