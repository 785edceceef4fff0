package logicsim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/cube"
)

// DualRail is a 64-way bit-parallel three-valued simulator: each net
// carries two words, One and Zero; bit p of One set means the net is 1
// in pattern p, bit p of Zero means 0, and neither means X. It simulates
// test cubes (with don't-cares) directly, which is what the ATPG's fault
// dropping needs: a fault counts as detected by a cube only if the
// difference is observable regardless of how the Xs are later filled.
type DualRail struct {
	c *Circuit3
	// One[id] and Zero[id] are the dual-rail words of net id.
	One, Zero []uint64
}

// NewDualRail returns a dual-rail simulator over a compiled circuit.
func NewDualRail(cc *Circuit3) *DualRail {
	n := len(cc.C.Gates)
	return &DualRail{c: cc, One: make([]uint64, n), Zero: make([]uint64, n)}
}

// Circuit returns the compiled circuit the simulator runs on.
func (d *DualRail) Circuit() *Circuit3 { return d.c }

// ApplyCubes simulates up to 64 test cubes (X bits allowed) through the
// combinational core, leaving per-net dual-rail words readable via One
// and Zero.
func (d *DualRail) ApplyCubes(cubes []cube.Cube) error {
	if len(cubes) > 64 {
		return fmt.Errorf("logicsim: %d cubes exceed a 64-pattern batch", len(cubes))
	}
	width := d.c.C.NumInputs()
	one := make([]uint64, width)
	zero := make([]uint64, width)
	for pIdx, c := range cubes {
		if len(c) != width {
			return fmt.Errorf("logicsim: cube %d width %d, want %d", pIdx, len(c), width)
		}
		bit := uint64(1) << uint(pIdx)
		for k, t := range c {
			switch t {
			case cube.One:
				one[k] |= bit
			case cube.Zero:
				zero[k] |= bit
			}
		}
	}
	for k, id := range d.c.C.ScanInputs() {
		d.One[id], d.Zero[id] = one[k], zero[k]
	}
	d.eval()
	return nil
}

// ApplyPackedRows simulates the up-to-64 cubes starting at column base
// of the packed row planes (X bits allowed): bit p of every loaded
// dual-rail word is cube base+p. The planes already separate care and
// value, so each pin loads as One = value word, Zero = care-and-not-
// value word — one ColumnWord read instead of a per-trit repack.
// Output is bit-identical to ApplyCubes on the same cubes.
func (d *DualRail) ApplyPackedRows(pr *cube.PackedRows, base int) error {
	if pr.Width != d.c.C.NumInputs() {
		return fmt.Errorf("logicsim: packed width %d, want %d", pr.Width, d.c.C.NumInputs())
	}
	if base < 0 || base >= pr.N {
		return fmt.Errorf("logicsim: batch base %d out of range [0,%d)", base, pr.N)
	}
	for k, id := range d.c.C.ScanInputs() {
		care, val := pr.ColumnWord(k, base)
		d.One[id], d.Zero[id] = val, care&^val
	}
	d.eval()
	return nil
}

// dpvet:hot
// eval settles the combinational core: constant sources, then every
// gate in topological order. Scan inputs must already be loaded.
func (d *DualRail) eval() {
	c := d.c.C
	for i := range c.Gates {
		switch c.Gates[i].Type {
		case circuit.Const0:
			d.One[i], d.Zero[i] = 0, ^uint64(0)
		case circuit.Const1:
			d.One[i], d.Zero[i] = ^uint64(0), 0
		}
	}
	for _, g := range c.Topo() {
		d.One[g], d.Zero[g] = EvalDualRail(c.Gates[g].Type, c.Gates[g].Fanin, d.One, d.Zero)
	}
}

// Trit returns the 3-valued value of net id in pattern p.
func (d *DualRail) Trit(id, p int) cube.Trit {
	bit := uint64(1) << uint(p)
	switch {
	case d.One[id]&bit != 0:
		return cube.One
	case d.Zero[id]&bit != 0:
		return cube.Zero
	default:
		return cube.X
	}
}

// dpvet:hot
// EvalDualRail computes a gate's dual-rail output from the given value
// arrays. It is exported so fault simulators can evaluate fanout cones
// against overridden (faulty) value arrays using the same semantics.
func EvalDualRail(t circuit.GateType, fanin []int, one, zero []uint64) (uint64, uint64) {
	switch t {
	case circuit.Buf:
		return one[fanin[0]], zero[fanin[0]]
	case circuit.Not:
		return zero[fanin[0]], one[fanin[0]]
	case circuit.And, circuit.Nand:
		o := ^uint64(0)
		z := uint64(0)
		for _, f := range fanin {
			o &= one[f]
			z |= zero[f]
		}
		if t == circuit.Nand {
			return z, o
		}
		return o, z
	case circuit.Or, circuit.Nor:
		o := uint64(0)
		z := ^uint64(0)
		for _, f := range fanin {
			o |= one[f]
			z &= zero[f]
		}
		if t == circuit.Nor {
			return z, o
		}
		return o, z
	case circuit.Xor, circuit.Xnor:
		// Fold pairwise: known iff both known.
		o := uint64(0)
		z := ^uint64(0)
		for _, f := range fanin {
			no := (o & zero[f]) | (z & one[f])
			nz := (z & zero[f]) | (o & one[f])
			o, z = no, nz
		}
		if t == circuit.Xnor {
			return z, o
		}
		return o, z
	default:
		return 0, 0
	}
}
