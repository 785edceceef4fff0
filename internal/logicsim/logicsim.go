// Package logicsim provides the logic-simulation substrate: three-valued
// (0/1/X) event-free simulation of the combinational core, used for cube
// evaluation and toggle counting, and 64-way bit-parallel two-valued
// simulation used by fault simulation and power estimation.
//
// All simulators operate on the full-scan view of a circuit.Circuit:
// stimuli address PIs and DFF outputs (pseudo-PIs) in
// circuit.ScanInputs order, and evaluation sweeps the levelized
// combinational gates once (zero-delay model).
package logicsim

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/cube"
)

// Simulator is a three-valued zero-delay simulator. It owns a value
// array indexed by gate ID and is reused across patterns; it is not safe
// for concurrent use.
type Simulator struct {
	c *Circuit3
	// vals[id] is the current 3-valued net value.
	vals []cube.Trit
}

// Circuit3 is a circuit prepared for simulation (shared by the
// 3-valued and 64-way engines).
type Circuit3 struct {
	C *circuit.Circuit
}

// Compile prepares a circuit for simulation.
func Compile(c *circuit.Circuit) *Circuit3 {
	return &Circuit3{C: c}
}

// NewSimulator returns a 3-valued simulator over a compiled circuit.
func NewSimulator(cc *Circuit3) *Simulator {
	return &Simulator{c: cc, vals: make([]cube.Trit, len(cc.C.Gates))}
}

// Apply simulates one test cube (width = |PIs|+|FFs|) through the
// combinational core and leaves net values readable via Value. X inputs
// propagate pessimistically (standard 3-valued semantics).
func (s *Simulator) Apply(t cube.Cube) error {
	if len(t) != s.c.C.NumInputs() {
		return fmt.Errorf("logicsim: cube width %d, want %d", len(t), s.c.C.NumInputs())
	}
	c := s.c.C
	// Constants and sources.
	for i := range c.Gates {
		switch c.Gates[i].Type {
		case circuit.Const0:
			s.vals[i] = cube.Zero
		case circuit.Const1:
			s.vals[i] = cube.One
		}
	}
	for k, id := range s.c.C.ScanInputs() {
		s.vals[id] = t[k]
	}
	for _, g := range c.Topo() {
		s.vals[g] = eval3(c.Gates[g].Type, c.Gates[g].Fanin, s.vals)
	}
	return nil
}

// Value returns the last simulated value of the net driven by gate id.
func (s *Simulator) Value(id int) cube.Trit { return s.vals[id] }

// Outputs returns the scan-output values (POs then pseudo-POs) for the
// last applied cube.
func (s *Simulator) Outputs() []cube.Trit {
	so := s.c.C.ScanOutputs()
	out := make([]cube.Trit, len(so))
	for i, id := range so {
		out[i] = s.vals[id]
	}
	return out
}

// eval3 computes a gate's 3-valued output.
func eval3(t circuit.GateType, fanin []int, vals []cube.Trit) cube.Trit {
	switch t {
	case circuit.Buf:
		return vals[fanin[0]]
	case circuit.Not:
		return vals[fanin[0]].Neg()
	case circuit.And, circuit.Nand:
		out := cube.One
		for _, f := range fanin {
			switch vals[f] {
			case cube.Zero:
				out = cube.Zero
			case cube.X:
				if out == cube.One {
					out = cube.X
				}
			}
		}
		if t == circuit.Nand {
			return out.Neg()
		}
		return out
	case circuit.Or, circuit.Nor:
		out := cube.Zero
		for _, f := range fanin {
			switch vals[f] {
			case cube.One:
				out = cube.One
			case cube.X:
				if out == cube.Zero {
					out = cube.X
				}
			}
		}
		if t == circuit.Nor {
			return out.Neg()
		}
		return out
	case circuit.Xor, circuit.Xnor:
		out := cube.Zero
		for _, f := range fanin {
			v := vals[f]
			if v == cube.X {
				return cube.X
			}
			if v == cube.One {
				out = out.Neg()
			}
		}
		if t == circuit.Xnor {
			return out.Neg()
		}
		return out
	default:
		// Sources are never evaluated here.
		return cube.X
	}
}

// Parallel is a 64-way bit-parallel two-valued simulator: bit b of every
// word carries pattern b. Inputs must be fully specified.
type Parallel struct {
	c *Circuit3
	// words[id] is the 64-pattern value of net id.
	words []uint64
}

// NewParallel returns a 64-way simulator over a compiled circuit.
func NewParallel(cc *Circuit3) *Parallel {
	return &Parallel{c: cc, words: make([]uint64, len(cc.C.Gates))}
}

// ApplyBatch simulates up to 64 fully specified cubes at once. Pattern
// p's value for input pin k is bit p of in[k]. Unused high bits are
// don't-cares for the caller.
func (p *Parallel) ApplyBatch(in []uint64) error {
	if len(in) != p.c.C.NumInputs() {
		return fmt.Errorf("logicsim: batch width %d, want %d", len(in), p.c.C.NumInputs())
	}
	c := p.c.C
	for i := range c.Gates {
		switch c.Gates[i].Type {
		case circuit.Const0:
			p.words[i] = 0
		case circuit.Const1:
			p.words[i] = ^uint64(0)
		}
	}
	for k, id := range p.c.C.ScanInputs() {
		p.words[id] = in[k]
	}
	for _, g := range c.Topo() {
		p.words[g] = eval64(c.Gates[g].Type, c.Gates[g].Fanin, p.words)
	}
	return nil
}

// ApplyPackedRows simulates the up-to-64 cubes starting at column base
// of the packed row planes: bit p of every loaded input word is cube
// base+p. Callers with a whole ordered set pack it once and sweep the
// bases, so each batch load is one ColumnWord read per pin instead of
// a per-trit repack of 64 cubes (PackCubes + ApplyBatch produce
// bit-identical net words on the same cubes). Every covered cube must
// be fully specified.
func (p *Parallel) ApplyPackedRows(pr *cube.PackedRows, base int) error {
	if pr.Width != p.c.C.NumInputs() {
		return fmt.Errorf("logicsim: packed width %d, want %d", pr.Width, p.c.C.NumInputs())
	}
	if base < 0 || base >= pr.N {
		return fmt.Errorf("logicsim: batch base %d out of range [0,%d)", base, pr.N)
	}
	active := ^uint64(0)
	if rem := pr.N - base; rem < 64 {
		active = 1<<uint(rem) - 1
	}
	c := p.c.C
	for i := range c.Gates {
		switch c.Gates[i].Type {
		case circuit.Const0:
			p.words[i] = 0
		case circuit.Const1:
			p.words[i] = ^uint64(0)
		}
	}
	for k, id := range p.c.C.ScanInputs() {
		care, val := pr.ColumnWord(k, base)
		if care&active != active {
			return fmt.Errorf("logicsim: pin %d has X bits in cubes %d..%d; batch simulation needs specified bits",
				k, base, base+bits.Len64(active)-1)
		}
		p.words[id] = val
	}
	for _, g := range c.Topo() {
		p.words[g] = eval64(c.Gates[g].Type, c.Gates[g].Fanin, p.words)
	}
	return nil
}

// Word returns the 64-pattern value of net id after ApplyBatch.
func (p *Parallel) Word(id int) uint64 { return p.words[id] }

// Words exposes the whole net-value array (shared; read-only for
// callers). Fault simulation uses it to snapshot the good machine.
func (p *Parallel) Words() []uint64 { return p.words }

// PackCubes packs up to 64 fully specified cubes into the ApplyBatch
// input layout. It errors on X bits or if more than 64 cubes are given.
func PackCubes(cubes []cube.Cube, width int) ([]uint64, error) {
	if len(cubes) > 64 {
		return nil, fmt.Errorf("logicsim: %d cubes exceed a 64-pattern batch", len(cubes))
	}
	in := make([]uint64, width)
	for pIdx, c := range cubes {
		if len(c) != width {
			return nil, fmt.Errorf("logicsim: cube %d width %d, want %d", pIdx, len(c), width)
		}
		for k, t := range c {
			switch t {
			case cube.One:
				in[k] |= 1 << uint(pIdx)
			case cube.Zero:
			default:
				return nil, fmt.Errorf("logicsim: cube %d pin %d is X; batch simulation needs specified bits", pIdx, k)
			}
		}
	}
	return in, nil
}

// dpvet:hot
// eval64 computes a gate's 64-way output.
func eval64(t circuit.GateType, fanin []int, w []uint64) uint64 {
	switch t {
	case circuit.Buf:
		return w[fanin[0]]
	case circuit.Not:
		return ^w[fanin[0]]
	case circuit.And, circuit.Nand:
		out := ^uint64(0)
		for _, f := range fanin {
			out &= w[f]
		}
		if t == circuit.Nand {
			return ^out
		}
		return out
	case circuit.Or, circuit.Nor:
		out := uint64(0)
		for _, f := range fanin {
			out |= w[f]
		}
		if t == circuit.Nor {
			return ^out
		}
		return out
	case circuit.Xor, circuit.Xnor:
		out := uint64(0)
		for _, f := range fanin {
			out ^= w[f]
		}
		if t == circuit.Xnor {
			return ^out
		}
		return out
	default:
		return 0
	}
}

// ToggleCount simulates two fully specified cubes and returns the number
// of nets (gate outputs, including inputs) whose settled value differs —
// the circuit-toggle metric behind Table VI. The optional toggled slice,
// when non-nil and of length NumGates, receives per-net flags.
func ToggleCount(cc *Circuit3, a, b cube.Cube, toggled []bool) (int, error) {
	p := NewParallel(cc)
	in, err := PackCubes([]cube.Cube{a, b}, cc.C.NumInputs())
	if err != nil {
		return 0, err
	}
	if err := p.ApplyBatch(in); err != nil {
		return 0, err
	}
	count := 0
	for id := range cc.C.Gates {
		w := p.words[id]
		if (w&1)^((w>>1)&1) != 0 {
			count++
			if toggled != nil {
				toggled[id] = true
			}
		} else if toggled != nil {
			toggled[id] = false
		}
	}
	return count, nil
}
