package fill

import (
	"repro/internal/core"
	"repro/internal/cube"
)

// dpName is DP-fill's table name, and how IsDP recognizes it.
const dpName = "DP-fill"

// DP returns the paper's DP-fill as a Filler, so it can be slotted into
// the same table harness as the heuristics. The heavy lifting lives in
// package core; the fill's internal stretch scan shards itself across
// the machine (see DPWith to pin the schedule).
func DP() Filler {
	return DPWith(core.Options{})
}

// DPWith is DP with explicit core execution options. Callers that
// already parallelize across many fills — the batch engine's grids —
// should pin Shards to 1 so the per-fill fan-out does not multiply
// against the worker pool and oversubscribe the CPU; output is
// byte-identical either way.
func DPWith(opt core.Options) Filler {
	return dpFiller{opt: opt}
}

// dpFiller is DP-fill as a Filler: the core kernel's planes and the
// toggle statistics it counted pass through without an unpack.
type dpFiller struct{ opt core.Options }

// Name implements Filler.
func (dpFiller) Name() string { return dpName }

// Fill implements Filler: the rows are built from the snapshot's
// words, with no cube set in between.
func (d dpFiller) Fill(p *cube.Packed, perm []int) (*Result, error) {
	return dpResult(core.FillPacked(p, perm, d.opt))
}

// CountPacked returns Fill's Peak, Total and Profile without the
// filled matrix (Rows is nil): core.CountPacked counts them from the
// BCP colouring instead of building the planes.
func (d dpFiller) CountPacked(p *cube.Packed, perm []int) (*Result, error) {
	res, err := core.CountPacked(p, perm, d.opt)
	if err != nil {
		return nil, err
	}
	return &Result{Peak: res.Peak, Total: res.Total, Profile: res.Profile}, nil
}

// dpResult passes the kernel's planes and counts through.
func dpResult(pr *cube.PackedRows, res *core.Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{Rows: pr, Peak: res.Peak, Total: res.Total, Profile: res.Profile}, nil
}

// IsDP reports whether fl is DP-fill, the one filler that honours
// core.Options (and so the only one that writes an explain trace).
func IsDP(fl Filler) bool {
	return fl.Name() == dpName
}

// All returns every filler of Tables II–IV in the paper's column order:
// MT-fill, R-fill, 0-fill, 1-fill, B-fill, DP-fill. The seed fixes
// R-fill and opt configures DP-fill (see DPWith).
func All(seed int64, opt core.Options) []Filler {
	return append(Baselines(seed), DPWith(opt))
}
