package cube

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Filled is a fully specified cube matrix in cube-major form, value
// bits only: cube j's pin i is bit i%64 of word j*Words+i/64, set
// where the pin is One. A filled matrix has no X left to mark, so this
// is half the bytes of the two row planes it is built from, and it is
// laid out in the order an answer writes the cubes.
type Filled struct {
	// Width is the cube width in pins, N the number of cubes and Words
	// ceil(Width/64).
	Width, N, Words int
	Val             []uint64
}

// NewFilled builds the cube-major form of p, which must be fully
// specified (a fill.Filler leaves no X): an X is an error. The tiles
// of 64 pins × 64 cubes are transposed as Rows transposes them, in
// the other direction.
func NewFilled(p *PackedRows) (*Filled, error) {
	for i := 0; i < p.Width; i++ {
		for w, c := range p.care[i] {
			want := ^uint64(0)
			if rest := p.N - w*64; rest < 64 {
				want = 1<<rest - 1
			}
			if x := want &^ c; x != 0 {
				return nil, fmt.Errorf("cube: pin %d of cube %d is X in a filled matrix", i, w*64+bits.TrailingZeros64(x))
			}
		}
	}
	words := (p.Width + 63) / 64
	f := &Filled{Width: p.Width, N: p.N, Words: words, Val: make([]uint64, p.N*words)}
	var t [64]uint64
	for cw := 0; cw < p.Words; cw++ {
		j0, j1 := cw*64, min(cw*64+64, p.N)
		for w := 0; w < words; w++ {
			i0, i1 := w*64, min(w*64+64, p.Width)
			for i := i0; i < i1; i++ {
				t[i-i0] = p.valBuf[i*p.Words+cw]
			}
			clear(t[i1-i0:])
			transpose64(&t)
			for j := j0; j < j1; j++ {
				f.Val[j*words+w] = t[j-j0]
			}
		}
	}
	return f, nil
}

// spread[b] holds bit k of b in bit 0 of byte k, so '0'*lsb8+spread[b]
// is the eight pins of b as characters.
var spread = func() (t [256]uint64) {
	for b := range t {
		for k := 0; k < 8; k++ {
			t[b] |= uint64(b>>k&1) << (8 * k)
		}
	}
	return t
}()

// dpvet:hot
// AppendJSON appends the cubes to dst as the JSON array of '0'/'1'
// strings encoding/json writes for them: eight pins become eight
// characters with one table lookup and one add.
func (f *Filled) AppendJSON(dst []byte) []byte {
	dst = slices.Grow(dst, 2+f.N*(f.Width+3))
	dst = append(dst, '[')
	for j := 0; j < f.N; j++ {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		for w, v := range f.Val[j*f.Words : (j+1)*f.Words] {
			n := min(64, f.Width-w*64)
			for ; n >= 8; n -= 8 {
				dst = binary.LittleEndian.AppendUint64(dst, '0'*lsb8+spread[byte(v)])
				v >>= 8
			}
			for ; n > 0; n-- {
				dst = append(dst, '0'+byte(v&1))
				v >>= 1
			}
		}
		dst = append(dst, '"')
	}
	return append(dst, ']')
}
