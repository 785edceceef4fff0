package cube

import (
	"fmt"
	"io"
	"math/bits"
	"unsafe"
)

// Packed is a bit-packed view of a Set for fast pairwise distance
// queries: each cube becomes a (care-mask, value) pair of uint64 words,
// so Hamming and expected distances reduce to a handful of popcounts per
// 64 pins. Orderings that evaluate O(n²) cube pairs (nearest-neighbour
// chains, simulated annealing) or walk the set in candidate orders
// (I-Ordering's bottleneck bound) build a Packed once and query it.
//
// Pack builds one from a Set; ParsePacked decodes one straight from
// cube text, which is how a served request arrives, and the fill's
// row planes are built from it in any order by Rows. Packed is a
// snapshot: later mutations of a source Set are not reflected.
type Packed struct {
	// Width is the cube width in pins; Words is ceil(Width/64).
	Width, Words int
	n            int
	// care/val are the contiguous planes: cube i occupies words
	// [i*Words, (i+1)*Words). A care bit is set where the pin is
	// specified, a val bit where it is One.
	care, val []uint64
	careCount []int
}

// Pack builds the packed snapshot of s. Every trit of s must be Zero,
// One or X.
func Pack(s *Set) *Packed {
	p := newPacked(s.Width, s.Len())
	words := p.Words
	for i, c := range s.Cubes {
		care := p.care[i*words : (i+1)*words]
		packCubeWords(c, care, p.val[i*words:(i+1)*words])
		for _, w := range care {
			p.careCount[i] += bits.OnesCount64(w)
		}
	}
	return p
}

// newPacked allocates the zeroed snapshot of n cubes of the given
// width. One backing array per plane keeps each cube's words
// contiguous and the whole plane one allocation.
func newPacked(width, n int) *Packed {
	words := (width + 63) / 64
	return &Packed{
		Width: width, Words: words, n: n,
		care:      make([]uint64, n*words),
		val:       make([]uint64, n*words),
		careCount: make([]int, n),
	}
}

// ParsePacked is ParseSet straight into a packed snapshot: it accepts
// and rejects exactly what ParseSet does, with the same error text,
// and on success returns Pack(ParseSet(cubes...)) without ever building
// the one-byte-per-trit set. Equal-length cubes decode eight bytes at a
// time (see decodeWords); a bad byte or a ragged width hands the whole
// input to ParseSet's per-cube path for its message.
func ParsePacked(cubes []string) (*Packed, error) {
	if len(cubes) == 0 {
		return nil, fmt.Errorf("cube: ParseSet needs at least one cube")
	}
	width := len(cubes[0])
	for _, s := range cubes {
		if len(s) != width {
			return parsePackedEach(cubes)
		}
	}
	p := newPacked(width, len(cubes))
	for i, s := range cubes {
		care, val := p.care[i*p.Words:(i+1)*p.Words], p.val[i*p.Words:(i+1)*p.Words]
		if !decodeWords(s, care, val) {
			return parsePackedEach(cubes)
		}
		for _, w := range care {
			p.careCount[i] += bits.OnesCount64(w)
		}
	}
	return p, nil
}

// parsePackedEach is ParsePacked through parseSetEach, the path that
// owns the error messages.
func parsePackedEach(cubes []string) (*Packed, error) {
	s, err := parseSetEach(cubes)
	if err != nil {
		return nil, err
	}
	return Pack(s), nil
}

// Len returns the number of cubes in the snapshot.
func (p *Packed) Len() int { return p.n }

// XCount returns the total number of X bits across all cubes
// (Set.XCount of the source set).
func (p *Packed) XCount() int {
	x := p.Width * p.n
	for _, c := range p.careCount {
		x -= c
	}
	return x
}

// XPercent is Set.XPercent of the source set, computed from the same
// integer X count, so the two are float-identical.
func (p *Packed) XPercent() float64 {
	if p.n == 0 || p.Width == 0 {
		return 0
	}
	return 100 * float64(p.XCount()) / float64(p.Width*p.n)
}

// WritePlanes writes the raw care plane and then the raw value plane
// to w, in machine byte order. Bits past Width are always zero and the
// X spellings all decode to the same bits, so two snapshots of equal
// Width and Len write equal bytes exactly when their sets render to
// the same text: a hash of the bytes keys an in-process cache. It is
// not a wire format.
func (p *Packed) WritePlanes(w io.Writer) error {
	for _, plane := range [][]uint64{p.care, p.val} {
		if len(plane) == 0 {
			continue
		}
		b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(plane))), len(plane)*8)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// order resolves a permutation argument: nil is the identity, anything
// else must be a bijection over [0, n), checked with Set.Reorder's
// panic.
func (p *Packed) order(perm []int) []int {
	if perm == nil {
		perm = make([]int, p.n)
		for i := range perm {
			perm[i] = i
		}
		return perm
	}
	if len(perm) != p.n {
		panic("cube: Reorder permutation length mismatch")
	}
	seen := make([]uint64, (p.n+63)/64)
	for _, c := range perm {
		if c < 0 || c >= p.n || seen[c/64]&(1<<(c%64)) != 0 {
			panic("cube: Reorder argument is not a permutation")
		}
		seen[c/64] |= 1 << (c % 64)
	}
	return perm
}

// Rows builds the row-major planes of the snapshot's cubes applied in
// perm order (nil: snapshot order): PackRows(s.Reorder(perm)) for
// p = Pack(s), without a trit. For each block of 64 output columns
// and each 64-pin word it gathers the permuted cubes' word into a tile
// and transposes it, as PackRowsInto does after decoding trits. The
// planes are freshly allocated and owned by the caller.
func (p *Packed) Rows(perm []int) *PackedRows {
	perm = p.order(perm)
	words := (p.n + 63) / 64
	out := &PackedRows{Width: p.Width, N: p.n, Words: words,
		careBuf: make([]uint64, p.Width*words), valBuf: make([]uint64, p.Width*words)}
	out.care = rowViews(nil, out.careBuf, p.Width, words)
	out.val = rowViews(nil, out.valBuf, p.Width, words)
	var careT, valT [64]uint64
	for cw := 0; cw < words; cw++ {
		cols := perm[cw*64 : min(cw*64+64, p.n)]
		for w := 0; w < p.Words; w++ {
			gatherTile(&careT, &valT, p, cols, w)
			i0 := w * 64
			for i := i0; i < min(i0+64, p.Width); i++ {
				out.careBuf[i*words+cw] = careT[i-i0]
				out.valBuf[i*words+cw] = valT[i-i0]
			}
		}
	}
	return out
}

// dpvet:hot
// gatherTile fills care[j] and val[j] with word w of cube cols[j] (at
// most 64 cubes; the rest of the tile reads as X) and transposes both,
// so care[r] holds pin w*64+r across the cubes, bit j for cube cols[j].
func gatherTile(care, val *[64]uint64, p *Packed, cols []int, w int) {
	for j, c := range cols {
		care[j], val[j] = p.care[c*p.Words+w], p.val[c*p.Words+w]
	}
	for j := len(cols); j < 64; j++ {
		care[j], val[j] = 0, 0
	}
	transpose64(care)
	transpose64(val)
}

// Unpack decodes the snapshot's cubes in perm order (nil: snapshot
// order) into a fresh set: s.Reorder(perm) for p = Pack(s), with cubes
// of its own. It is the edge for code that still walks trits.
func (p *Packed) Unpack(perm []int) *Set {
	perm = p.order(perm)
	out := &Set{Width: p.Width, Cubes: make([]Cube, p.n)}
	buf := make(Cube, p.Width*p.n)
	for j, c := range perm {
		cb := buf[j*p.Width : (j+1)*p.Width : (j+1)*p.Width]
		care, val := p.CubeWords(c)
		unpackWords(cb, care, val)
		out.Cubes[j] = cb
	}
	return out
}

// CareCount returns the number of specified bits of cube i.
func (p *Packed) CareCount(i int) int { return p.careCount[i] }

// CubeWords returns the care and value words of cube i. The slices alias
// the snapshot and must not be modified.
func (p *Packed) CubeWords(i int) (care, val []uint64) {
	lo, hi := i*p.Words, (i+1)*p.Words
	return p.care[lo:hi:hi], p.val[lo:hi:hi]
}

// dpvet:hot
// Distance returns, from one pass over the care words of cubes i and
// j, hd — the guaranteed toggle count, the number of jointly specified
// differing pins — and both, the number of jointly specified pins.
// Width-both is the X-union: the pins where at least one cube is X,
// the filler's freedom between the pair.
func (p *Packed) Distance(i, j int) (hd, both int) {
	ci, vi := p.CubeWords(i)
	cj, vj := p.CubeWords(j)
	vj = vj[:len(ci)]
	cj = cj[:len(ci)]
	vi = vi[:len(ci)]
	for w, c := range ci {
		a := c & cj[w]
		both += bits.OnesCount64(a)
		hd += bits.OnesCount64((vi[w] ^ vj[w]) & a)
	}
	return hd, both
}

// dpvet:hot
// Expected2 returns twice the expected Hamming distance between cubes i
// and j under uniform random filling (doubling keeps it integral:
// jointly specified differing pins count 2, pins with any X count 1).
func (p *Packed) Expected2(i, j int) int {
	hd, both := p.Distance(i, j)
	return 2*hd + p.Width - both
}

// PackedRows is the transpose companion of Packed: the m×n trit matrix A
// of §V-C stored row-major as bit-planes. Row i holds pin i across all n
// cubes as a (care-mask, value) pair of uint64 word slices over columns,
// so the X-stretch scans that dominate DP-fill's Map step skip 64
// columns per word operation instead of walking trits one by one, and
// pre-filling a stretch becomes a handful of word ORs.
//
// Unlike Packed, PackedRows is mutable: FillSpan specifies previously-X
// columns in place, and Unpack converts the columns back into the
// cube-major Set layout. Distinct rows are independent, so concurrent
// use is safe as long as no two goroutines touch the same row.
type PackedRows struct {
	// Width is the number of pin rows m; N the number of cubes
	// (columns); Words is ceil(N/64).
	Width, N, Words int
	care            [][]uint64 // care[i][w]: bit set where row i column is specified
	val             [][]uint64 // val[i][w]: bit set where row i column is One
	// careBuf/valBuf are the contiguous backing arrays of the row
	// views; row i occupies words [i*Words, (i+1)*Words). Column-major
	// decoders index them directly to trade large-stride writes for
	// small-stride reads.
	careBuf, valBuf []uint64
}

// PackRows builds the mutable row-major snapshot of s.
func PackRows(s *Set) *PackedRows {
	return PackRowsInto(nil, s)
}

// PackRowsInto is PackRows reusing the backing arrays of a previous
// snapshot: when p is non-nil and its buffers are large enough they
// are repacked in place (every word is overwritten, so no clearing is
// needed), otherwise fresh arrays are allocated, so a caller packing
// many sets of similar shape pays for two m×ceil(n/64) planes once.
// It returns p (reshaped) or a new snapshot when p is nil. Every trit
// of s must be Zero, One or X.
func PackRowsInto(p *PackedRows, s *Set) *PackedRows {
	words := (s.Len() + 63) / 64
	if p == nil {
		p = &PackedRows{}
	}
	p.Width, p.N, p.Words = s.Width, s.Len(), words
	need := s.Width * words
	if cap(p.careBuf) < need || cap(p.valBuf) < need {
		// One backing array per plane keeps rows contiguous in memory.
		p.careBuf = make([]uint64, need)
		p.valBuf = make([]uint64, need)
	} else {
		p.careBuf = p.careBuf[:need]
		p.valBuf = p.valBuf[:need]
	}
	p.care = rowViews(p.care, p.careBuf, s.Width, words)
	p.val = rowViews(p.val, p.valBuf, s.Width, words)
	// Tiled transpose: decode a 64-cube × 64-row tile cube-major, one
	// word per cube, transpose it into one word per row, and flush —
	// the flush is the only strided traffic.
	var careT, valT [64]uint64
	for w := 0; w < words; w++ {
		cubes := s.Cubes[w*64 : min(w*64+64, p.N)]
		for i0 := 0; i0 < p.Width; i0 += 64 {
			i1 := min(i0+64, p.Width)
			packTile(&careT, &valT, cubes, i0, i1)
			for i := i0; i < i1; i++ {
				p.careBuf[i*words+w] = careT[i-i0]
				p.valBuf[i*words+w] = valT[i-i0]
			}
		}
	}
	return p
}

// dpvet:hot
// packTile fills care[r] and val[r] with rows i0+r of cubes (at most
// 64 of each): bit j of a row word is cube j. Rows past i1 and cubes
// past len(cubes) read as X.
func packTile(care, val *[64]uint64, cubes []Cube, i0, i1 int) {
	for j, c := range cubes {
		care[j], val[j] = packWord(c[i0:i1])
	}
	for j := len(cubes); j < 64; j++ {
		care[j], val[j] = 0, 0
	}
	transpose64(care)
	transpose64(val)
}

// rowViews slices buf into rows views of words words each, reusing
// dst's backing array when it is large enough.
func rowViews(dst [][]uint64, buf []uint64, rows, words int) [][]uint64 {
	if cap(dst) < rows {
		dst = make([][]uint64, rows)
	}
	dst = dst[:rows]
	for i := range dst {
		dst[i] = buf[i*words : (i+1)*words : (i+1)*words]
	}
	return dst
}

// transposeTile is the row-tile height of the cache-blocked
// unpack transposes (tile footprint: 2 planes × 128 words = 2 KiB,
// comfortably L1-resident).
const transposeTile = 128

// RowWords returns the care and value word planes of row i. The slices
// alias the packed buffers: callers may scan them directly (the fast
// path for stretch extraction) but must mutate only through FillSpan.
func (p *PackedRows) RowWords(i int) (care, val []uint64) { return p.care[i], p.val[i] }

// dpvet:hot
// FillSpan specifies columns lo..hi (inclusive) of row i with the care
// value v. The span must currently be all X; spans with hi < lo are
// no-ops.
func (p *PackedRows) FillSpan(i, lo, hi int, v Trit) {
	if hi < lo {
		return
	}
	setRange(p.care[i], lo, hi)
	if v == One {
		setRange(p.val[i], lo, hi)
	}
}

// dpvet:hot
// setRange sets bits lo..hi inclusive in the word slice.
func setRange(words []uint64, lo, hi int) {
	lw, hw := lo/64, hi/64
	loMask := ^uint64(0) << (lo % 64)
	hiMask := ^uint64(0) >> (63 - hi%64)
	if lw == hw {
		words[lw] |= loMask & hiMask
		return
	}
	words[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		words[w] = ^uint64(0)
	}
	words[hw] |= hiMask
}

// Unpack decodes the matrix into a fresh Set, X columns staying X.
// The cubes slice one backing array, so the allocator is hit once for
// all trits.
//
// The decode is tiled like a bit-matrix transpose: one 64-column word
// block × tileRows rows at a time. The tile's words are staged into a
// scratch array once (the only strided reads), then every cube in the
// block receives a short sequential run of trit writes — without the
// tiling, either the reads or the writes walk the full matrix with a
// cache-hostile stride.
func (p *PackedRows) Unpack() *Set {
	out := &Set{Width: p.Width, Cubes: make([]Cube, p.N)}
	buf := make(Cube, p.Width*p.N)
	for j := range out.Cubes {
		out.Cubes[j] = buf[j*p.Width : (j+1)*p.Width : (j+1)*p.Width]
	}
	var careW, valW [transposeTile]uint64
	for w := 0; w < p.Words; w++ {
		jlo, jhi := w*64, min((w+1)*64, p.N)
		for i0 := 0; i0 < p.Width; i0 += transposeTile {
			i1 := min(i0+transposeTile, p.Width)
			for i := i0; i < i1; i++ {
				careW[i-i0] = p.careBuf[i*p.Words+w]
				valW[i-i0] = p.valBuf[i*p.Words+w]
			}
			for j := jlo; j < jhi; j++ {
				shift := uint(j % 64)
				c := out.Cubes[j][i0:i1]
				for k := range c {
					// Branchless decode: care=0 → X(2); care=1 → val.
					cb := (careW[k] >> shift) & 1
					vb := (valW[k] >> shift) & 1
					c[k] = Trit(((cb ^ 1) << 1) | (cb & vb))
				}
			}
		}
	}
	return out
}

// Strings renders cube j (column j) as the j-th string, in the
// canonical '0'/'1'/'X' characters of Cube.String. It is Unpack
// writing characters instead of trits: the same tiled transpose, into
// one byte buffer that every returned string slices, so a whole set
// costs two allocations however many cubes it holds.
func (p *PackedRows) Strings() []string {
	out := make([]string, p.N)
	m := p.Width
	if m == 0 || p.N == 0 {
		return out
	}
	buf := make([]byte, m*p.N)
	var careW, valW [transposeTile]uint64
	for w := 0; w < p.Words; w++ {
		jlo, jhi := w*64, min((w+1)*64, p.N)
		for i0 := 0; i0 < m; i0 += transposeTile {
			i1 := min(i0+transposeTile, m)
			for i := i0; i < i1; i++ {
				careW[i-i0] = p.careBuf[i*p.Words+w]
				valW[i-i0] = p.valBuf[i*p.Words+w]
			}
			for j := jlo; j < jhi; j++ {
				shift := uint(j % 64)
				line := buf[j*m+i0 : j*m+i1]
				for k := range line {
					cb := (careW[k] >> shift) & 1
					vb := (valW[k] >> shift) & 1
					line[k] = tritChar[((cb^1)<<1)|(cb&vb)]
				}
			}
		}
	}
	// buf is never written again, so the strings may share its bytes.
	all := unsafe.String(unsafe.SliceData(buf), len(buf))
	for j := range out {
		out[j] = all[j*m : (j+1)*m]
	}
	return out
}

// ColumnWord returns 64 consecutive columns of row i starting at
// column base as a (care, val) word pair: bit p is column base+p.
// Columns at or beyond N read as X (zero bits). The unaligned case
// stitches two adjacent plane words with a shift — the primitive the
// 64-way batch simulators use to load a pin's patterns in one read
// instead of a per-trit repack.
func (p *PackedRows) ColumnWord(i, base int) (care, val uint64) {
	w, off := base/64, uint(base%64)
	c, v := p.care[i], p.val[i]
	care, val = c[w]>>off, v[w]>>off
	if w+1 < p.Words {
		// off == 0 contributes nothing: a 64-bit shift is zero in Go.
		care |= c[w+1] << (64 - off)
		val |= v[w+1] << (64 - off)
	}
	return care, val
}

// ToggleProfile computes the per-cycle guaranteed toggle counts of the
// packed matrix — element j counts the rows whose columns j and j+1
// are both specified and differ, exactly Set.ToggleProfile on the
// unpacked set. The scan is word-parallel: each row contributes one
// XOR-shift word per 64 cycles and then only its set (toggling) bits,
// so the cost is O(m·n/64 + total toggles) instead of O(m·n).
// The result has length N-1 (nil for N < 2).
func (p *PackedRows) ToggleProfile() []int {
	if p.N < 2 {
		return nil
	}
	profile := make([]int, p.N-1)
	p.AddToggles(profile)
	return profile
}

// dpvet:hot
// AddToggles accumulates the packed toggle profile into profile, which
// must have length N-1. Separated from ToggleProfile so callers with a
// pooled histogram can avoid the allocation.
func (p *PackedRows) AddToggles(profile []int) {
	if len(profile) != p.N-1 {
		panic("cube: AddToggles profile length mismatch")
	}
	for i := 0; i < p.Width; i++ {
		care, val := p.care[i], p.val[i]
		for w := 0; w < p.Words; w++ {
			// Bit j of nextC/nextV is column w*64+j+1: shift in the
			// next word's low bit so cycle boundaries cross words.
			nextC, nextV := care[w]>>1, val[w]>>1
			if w+1 < p.Words {
				nextC |= care[w+1] << 63
				nextV |= val[w+1] << 63
			}
			t := (val[w] ^ nextV) & care[w] & nextC
			for ; t != 0; t &= t - 1 {
				j := w*64 + bits.TrailingZeros64(t)
				if j < p.N-1 {
					profile[j]++
				}
			}
		}
	}
}

// PeakToggles returns the maximum per-cycle toggle count of the packed
// matrix (Set.PeakToggles on the unpacked set).
func (p *PackedRows) PeakToggles() int {
	peak := 0
	for _, v := range p.ToggleProfile() {
		if v > peak {
			peak = v
		}
	}
	return peak
}
