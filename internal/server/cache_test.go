package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cube"
)

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	a, b, d := &cachedFill{Peak: 1}, &cachedFill{Peak: 2}, &cachedFill{Peak: 3}
	c.Put("a", a)
	c.Put("b", b)
	// Touch "a" so "b" is the eviction victim. (The cache copies
	// entries both ways, so identity is by value, not pointer.)
	if got, ok := c.Get("a", false); !ok || got.Peak != a.Peak {
		t.Fatal("a missing before eviction")
	}
	c.Put("d", d)
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	if _, ok := c.Get("b", false); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	for key, want := range map[string]*cachedFill{"a": a, "d": d} {
		if got, ok := c.Get(key, false); !ok || got.Peak != want.Peak {
			t.Fatalf("%s evicted or replaced", key)
		}
	}
	// Refreshing an existing key must not grow the cache.
	c.Put("a", d)
	if c.Len() != 2 {
		t.Fatalf("len %d after refresh, want 2", c.Len())
	}
	if got, _ := c.Get("a", false); got.Peak != d.Peak {
		t.Fatal("refresh did not replace the value")
	}
}

func TestCacheEntriesDoNotAliasCallers(t *testing.T) {
	c := newLRUCache(4)
	filled, err := cube.NewFilled(cube.PackRows(cube.MustParseSet("0101", "1010")))
	if err != nil {
		t.Fatal(err)
	}
	entry := &cachedFill{
		Filled:  filled,
		Perm:    []int{1, 0},
		Peak:    4,
		Total:   4,
		Profile: []int{4},
	}
	c.Put("k", entry)
	// Mutating what the caller passed to Put must not reach the cache.
	flip(entry.Filled, 0, 0)
	entry.Perm[0] = 99
	entry.Profile[0] = 99
	served, ok := c.Get("k", true)
	if !ok {
		t.Fatal("entry missing")
	}
	if pin(served.Filled, 0, 0) != 0 || served.Perm[0] != 1 || served.Profile[0] != 4 {
		t.Fatalf("Put aliased the caller's data: %+v", served)
	}
	// Mutating a served response must not reach the cache either.
	flip(served.Filled, 1, 1)
	served.Perm[1] = 99
	served.Profile[0] = 99
	again, ok := c.Get("k", true)
	if !ok {
		t.Fatal("entry missing on second get")
	}
	if pin(again.Filled, 1, 1) != 0 || again.Perm[1] != 0 || again.Profile[0] != 4 {
		t.Fatalf("Get handed out a live pointer into the cache: %+v", again)
	}
}

// flip inverts pin i of cube j, writing through the value slice the
// way a careless holder of the entry could; pin reads it.
func flip(f *cube.Filled, i, j int) {
	f.Val[j*f.Words+i/64] ^= 1 << (i % 64)
}

func pin(f *cube.Filled, i, j int) uint64 {
	return f.Val[j*f.Words+i/64] >> (i % 64) & 1
}

func TestCachedFillCloneHandlesNilFields(t *testing.T) {
	e := &cachedFill{Peak: 7}
	got := e.clone()
	if got.Filled != nil || got.Perm != nil || got.Profile != nil || got.Peak != 7 {
		t.Fatalf("clone of sparse entry: %+v", got)
	}
}

func TestNilCacheNeverHits(t *testing.T) {
	var c *lruCache
	c.Put("k", &cachedFill{})
	if _, ok := c.Get("k", false); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
}

func TestFillDigestDiscriminates(t *testing.T) {
	s1 := cube.MustParseSet("0X", "X1")
	s2 := cube.MustParseSet("0X", "X0")
	// Same width/row-count matrix whose concatenation could collide
	// without per-cube separators.
	s3 := cube.MustParseSet("0XX1")
	p1, p2, p3 := cube.Pack(s1), cube.Pack(s2), cube.Pack(s3)
	base := fillDigest(p1, "Tool", "DP-fill", 1)
	for name, other := range map[string]string{
		"different cubes":   fillDigest(p2, "Tool", "DP-fill", 1),
		"different shape":   fillDigest(p3, "Tool", "DP-fill", 1),
		"different orderer": fillDigest(p1, "I-Order", "DP-fill", 1),
		"different filler":  fillDigest(p1, "Tool", "MT-fill", 1),
		"different seed":    fillDigest(p1, "Tool", "DP-fill", 2),
	} {
		if other == base {
			t.Errorf("%s digests collide", name)
		}
	}
	if fillDigest(cube.Pack(s1), "Tool", "DP-fill", 1) != base {
		t.Error("digest is not deterministic")
	}
}

func TestLRUCacheStress(t *testing.T) {
	c := newLRUCache(8)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i%16), &cachedFill{Peak: i})
		c.Get(fmt.Sprintf("k%d", (i*7)%16), i%2 == 0)
		if c.Len() > 8 {
			t.Fatalf("cache grew past capacity: %d", c.Len())
		}
	}
}

// TestFillDigestMatchesFormula pins the cache key byte for byte to its
// formula — a header line, then the care plane and the value plane,
// one native-endian word per 64 pins of each cube, built here trit by
// trit — and checks that it keys exactly what the rendered 0/1/X text
// used to: two sets share a digest when, and only when, they render
// the same, whatever X spelling a request used. That keeps the cache's
// hit ratio where it was.
func TestFillDigestMatchesFormula(t *testing.T) {
	formula := func(s *cube.Set, orderer, filler string, seed int64) string {
		h := sha256.New()
		fmt.Fprintf(h, "w=%d|n=%d|ord=%s|fill=%s|seed=%d\n", s.Width, s.Len(), orderer, filler, seed)
		words := (s.Width + 63) / 64
		var care, val []byte
		for _, c := range s.Cubes {
			for w := 0; w < words; w++ {
				var cw, vw uint64
				for i := w * 64; i < min(w*64+64, s.Width); i++ {
					if c[i] != cube.X {
						cw |= 1 << (i % 64)
					}
					if c[i] == cube.One {
						vw |= 1 << (i % 64)
					}
				}
				care = binary.NativeEndian.AppendUint64(care, cw)
				val = binary.NativeEndian.AppendUint64(val, vw)
			}
		}
		h.Write(care)
		h.Write(val)
		return hex.EncodeToString(h.Sum(nil))
	}
	r := rand.New(rand.NewSource(11))
	spell := strings.NewReplacer("X", "x")
	seen := map[string]string{} // digest -> rendered set
	for _, shape := range []struct{ w, n int }{{0, 2}, {1, 1}, {2, 2}, {2, 2}, {2, 2}, {5, 9}, {64, 3}, {130, 40}} {
		s := cube.NewSet(shape.w)
		for j := 0; j < shape.n; j++ {
			c := make(cube.Cube, shape.w)
			for i := range c {
				c[i] = cube.Trit(r.Intn(3))
			}
			s.Append(c)
		}
		for _, seed := range []int64{1, 42} {
			if got, want := fillDigest(cube.Pack(s), "I-Order", "DP-fill", seed), formula(s, "I-Order", "DP-fill", seed); got != want {
				t.Fatalf("%dx%d seed %d: digest %s, formula %s", shape.w, shape.n, seed, got, want)
			}
		}
		text := make([]string, s.Len())
		for j, c := range s.Cubes {
			text[j] = spell.Replace(c.String())
		}
		p, err := cube.ParsePacked(text)
		if err != nil {
			t.Fatal(err)
		}
		d := fillDigest(p, "Tool", "DP-fill", 1)
		if d != fillDigest(cube.Pack(s), "Tool", "DP-fill", 1) {
			t.Fatalf("%dx%d: the x spelling digests differently from X", shape.w, shape.n)
		}
		if prev, ok := seen[d]; ok && prev != s.String() {
			t.Fatalf("sets %q and %q share a digest", prev, s.String())
		}
		seen[d] = s.String()
	}
}
