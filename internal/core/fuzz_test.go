package core

import (
	"slices"
	"testing"

	"repro/internal/cube"
)

// fuzzFillSet decodes a fuzz input into a cube set: width%140 pins,
// 1+n%24 cubes, trits two bits at a time from data (0 and 1 are care
// values, anything else or exhausted data is X). With allXRow set, pin
// width/2 is X in every cube.
func fuzzFillSet(width, n uint8, allXRow bool, data []byte) *cube.Set {
	w, m := int(width)%140, 1+int(n)%24
	s := cube.NewSet(w)
	k := 0
	for j := 0; j < m; j++ {
		c := make(cube.Cube, w)
		for i := range c {
			c[i] = cube.X
			if k/4 < len(data) && !(allXRow && i == w/2) {
				switch (data[k/4] >> (2 * (k % 4))) & 3 {
				case 0:
					c[i] = cube.Zero
				case 1:
					c[i] = cube.One
				}
			}
			k++
		}
		s.Append(c)
	}
	return s
}

// FuzzFill is the kernel's oracle: the planes FillPacked returns
// complete the input, the Peak/Total/Profile it counted equal a fresh
// ToggleStats of the unpacked planes (the count-once contract), the
// peak equals the BottleneckOrder bound and, for at most 16 Xs, the
// exhaustive minimum — and the FillWith edge unpacks to the same set.
// CountPacked returns the same Result on the snapshot, in snapshot
// order and in a permutation drawn from data, as FillPacked does.
func FuzzFill(f *testing.F) {
	f.Add(uint8(5), uint8(7), false, []byte("\x1b\xe4\x00\xff\x42"))
	f.Add(uint8(65), uint8(3), true, []byte("\x55\xaa\x0f\xf0\x33\xcc\x01\x10"))
	f.Add(uint8(64), uint8(0), false, []byte("\x11\x44"))
	f.Fuzz(func(t *testing.T, width, n uint8, allXRow bool, data []byte) {
		s := fuzzFillSet(width, n, allXRow, data)
		p := cube.Pack(s)
		pr, res, err := FillPacked(p, nil, Options{Shards: 1})
		if err != nil {
			t.Fatalf("FillPacked: %v", err)
		}
		filled := pr.Unpack()
		if !s.Covers(filled) {
			t.Fatal("the filled planes do not cover the input")
		}
		peak, total, profile := filled.ToggleStats()
		if res.Peak != peak || res.Total != total || !slices.Equal(res.Profile, profile) {
			t.Fatalf("kernel counted peak %d total %d profile %v; recount gives %d %d %v",
				res.Peak, res.Total, res.Profile, peak, total, profile)
		}
		perm := make([]int, s.Len())
		for i := range perm {
			perm[i] = i
		}
		bound, err := BottleneckOrder(p, perm)
		if err != nil {
			t.Fatal(err)
		}
		if res.Peak != bound {
			t.Fatalf("peak %d != BottleneckOrder bound %d", res.Peak, bound)
		}
		if s.XCount() <= 16 {
			if bf := bruteForcePeak(s); res.Peak != bf {
				t.Fatalf("peak %d != exhaustive minimum %d", res.Peak, bf)
			}
		}
		edge, edgeRes, err := FillWith(s, Options{Shards: 2})
		if err != nil {
			t.Fatalf("FillWith: %v", err)
		}
		if !edge.Equal(filled) {
			t.Fatal("FillWith unpacks to a different set than FillPacked's planes")
		}
		sameResult(t, edgeRes, res)
		count, err := CountPacked(p, nil, Options{})
		if err != nil {
			t.Fatalf("CountPacked: %v", err)
		}
		sameResult(t, count, res)
		perm = fuzzPerm(s.Len(), data)
		_, permRes, err := FillPacked(p, perm, Options{Shards: 1})
		if err != nil {
			t.Fatalf("FillPacked: %v", err)
		}
		if count, err = CountPacked(p, perm, Options{}); err != nil {
			t.Fatalf("CountPacked in order %v: %v", perm, err)
		}
		sameResult(t, count, permRes)
	})
}

// fuzzPerm is a permutation of n cubes shuffled by data's bytes: a
// Fisher-Yates pass whose draws read data from its end.
func fuzzPerm(n int, data []byte) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0 && len(data) > 0; i-- {
		j := int(data[(n-1-i)%len(data)]) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
