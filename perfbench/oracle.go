package main

// The output oracle. Every answer a run receives is checked, outside
// the timed window, against properties the paper proves or the API
// promises; a failed check counts as a failed request.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cube"
)

// checkPerm reports whether perm is a permutation of [0, n).
func checkPerm(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("perm has %d entries for %d cubes", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return fmt.Errorf("perm is not a permutation of [0,%d)", n)
		}
		seen[p] = true
	}
	return nil
}

// checkFill checks one DP fill answer against its input cubes: perm
// permutes the input, the reported peak equals core.Bottleneck of the
// input in that order (the paper's optimality theorem: DP-fill attains
// the BCP lower bound), and returned cubes, when present, cover the
// reordered input and reproduce peak and total under ToggleStats.
func checkFill(input []string, perm []int, peak, total int, out []string) error {
	set, err := cube.ParseSet(input...)
	if err != nil {
		return fmt.Errorf("oracle: parsing input: %w", err)
	}
	if err := checkPerm(perm, set.Len()); err != nil {
		return err
	}
	ordered := set.Reorder(perm)
	bound, err := core.Bottleneck(ordered)
	if err != nil {
		return fmt.Errorf("oracle: bottleneck: %w", err)
	}
	if peak != bound {
		return fmt.Errorf("peak %d != bottleneck %d of the input in the returned order", peak, bound)
	}
	if out == nil {
		return nil
	}
	filled, err := cube.ParseSet(out...)
	if err != nil {
		return fmt.Errorf("oracle: parsing output: %w", err)
	}
	if !ordered.Covers(filled) {
		return errors.New("returned cubes do not cover the reordered input")
	}
	p, t, _ := filled.ToggleStats()
	if p != peak || t != total {
		return fmt.Errorf("returned cubes count peak %d total %d, answer says %d/%d", p, t, peak, total)
	}
	return nil
}

// checkFillResponse is checkFill on a served answer.
func checkFillResponse(input []string, r *client.FillResponse) error {
	if r.Filler != "DP-fill" {
		return fmt.Errorf("answered by filler %q, want DP-fill", r.Filler)
	}
	return checkFill(input, r.Perm, r.Peak, r.Total, r.Cubes)
}

// checkPipeline checks a pipeline report: its fill stage passes the
// fill oracle on the report's own ATPG cubes (so the fill-stage peak
// equals a recount of the filled cubes), and the LOS power stage
// reports that same peak.
func checkPipeline(rep *client.PipelineReport) error {
	if rep.ATPG == nil || rep.Fill == nil || rep.Power == nil {
		return errors.New("pipeline report lacks a stage")
	}
	if rep.Fill.Filler != "DP-fill" {
		return fmt.Errorf("fill stage ran %q, want DP-fill", rep.Fill.Filler)
	}
	if err := checkFill(rep.ATPG.Cubes, rep.Fill.Perm, rep.Fill.Peak, rep.Fill.Total, rep.Fill.Cubes); err != nil {
		return fmt.Errorf("fill stage: %w", err)
	}
	if rep.Power.CapturePeakToggles != rep.Fill.Peak {
		return fmt.Errorf("power stage peak %d != fill stage peak %d", rep.Power.CapturePeakToggles, rep.Fill.Peak)
	}
	return nil
}

var digestSeed = maphash.MakeSeed()

// digest fingerprints the deterministic part of a fill answer — perm,
// cubes, peak and total — so answers can be compared without being
// kept.
func digest(r *client.FillResponse) uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	var b [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	word(r.Peak)
	word(r.Total)
	word(len(r.Perm))
	for _, p := range r.Perm {
		word(p)
	}
	for _, c := range r.Cubes {
		h.WriteString(c)
		h.WriteByte('\n')
	}
	return h.Sum64()
}
