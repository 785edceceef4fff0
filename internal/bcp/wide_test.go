package bcp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// TestLowerBoundLongWindows checks LowerBound against the unpruned
// lowerBoundRef where the full pass has to find the bound: every
// interval is longer than seedSpan where the range allows (spans the
// whole range where it does not), so the seed pass sees no interval,
// and a dense burst 17 to 64 colors wide at color 0, mid-range or
// ending at C-1 sets a bound above the global density ceil(k/C) the
// full pass starts from whenever it is narrower than the range.
func TestLowerBoundLongWindows(t *testing.T) {
	r := rand.New(rand.NewSource(2016))
	for _, c := range []int{1, seedSpan - 1, seedSpan, seedSpan + 1, 2000} {
		for _, width := range []int{seedSpan + 1, 33, 64} {
			width = min(width, c)
			for _, at := range []int{0, (c - width) / 2, c - width} {
				for trial := 0; trial < 3; trial++ {
					inst := longWindowInstance(r, c, at, width)
					name := fmt.Sprintf("C=%d/burst=[%d,%d]/%d", c, at, at+width-1, trial)
					t.Run(name, func(t *testing.T) {
						for _, iv := range inst.Intervals {
							if span := iv.End - iv.Start + 1; span <= seedSpan && span < c {
								t.Fatalf("interval %v fits a seed window", iv)
							}
						}
						want := inst.lowerBoundRef()
						k := len(inst.Intervals)
						if width < c && want <= (k+c-1)/c {
							t.Fatalf("bound %d does not beat the global density %d/%d", want, k, c)
						}
						if got := inst.LowerBound(); got != want {
							t.Fatalf("LowerBound %d, unpruned reference %d", got, want)
						}
						checkSolve(t, inst)
					})
				}
			}
		}
	}
}

// longWindowInstance builds a background of long intervals over c
// colors, about one per color, plus a burst of intervals inside
// [at, at+width-1], each spanning more than seedSpan colors where the
// burst is wide enough, dense enough to set the bound.
func longWindowInstance(r *rand.Rand, c, at, width int) *Instance {
	minSpan := min(seedSpan+1, c)
	inst := &Instance{NumColors: c}
	for range c / 2 {
		span := minSpan + r.Intn(c-minSpan+1)
		s := r.Intn(c - span + 1)
		inst.Intervals = append(inst.Intervals, Interval{Start: s, End: s + span - 1})
	}
	burstSpan := min(seedSpan+1, width)
	for range (2 + r.Intn(3)) * width {
		span := burstSpan + r.Intn(width-burstSpan+1)
		s := at + r.Intn(width-span+1)
		inst.Intervals = append(inst.Intervals, Interval{Start: s, End: s + span - 1})
	}
	r.Shuffle(len(inst.Intervals), func(i, j int) {
		inst.Intervals[i], inst.Intervals[j] = inst.Intervals[j], inst.Intervals[i]
	})
	return inst
}

// FuzzBCPWide is FuzzBCP over ranges wide enough for the full pass to
// matter: two bytes pick the color count, up to 1024, one byte a floor
// on interval length, and each following four bytes one interval, two
// for its extra length above the floor and two for its start. It
// checks the instance with checkSolve.
func FuzzBCPWide(f *testing.F) {
	f.Add([]byte{0x00, 0x40, 17, 0, 0, 0, 0, 0, 5, 0, 3, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		c := 1 + int(binary.BigEndian.Uint16(data))%1024
		floor := max(1, min(int(data[2]), c))
		inst := &Instance{NumColors: c}
		for b := data[3:]; len(b) >= 4 && len(inst.Intervals) < 256; b = b[4:] {
			span := floor + int(binary.BigEndian.Uint16(b))%(c-floor+1)
			s := int(binary.BigEndian.Uint16(b[2:])) % (c - span + 1)
			inst.Intervals = append(inst.Intervals, Interval{Start: s, End: s + span - 1})
		}
		checkSolve(t, inst)
	})
}
