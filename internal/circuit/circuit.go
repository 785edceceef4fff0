// Package circuit provides the gate-level netlist substrate: a typed
// netlist with primary inputs/outputs, combinational gates and D
// flip-flops, the ISCAS-89/ITC-99 ".bench" exchange format, and
// levelization of the combinational core for simulation and ATPG.
//
// Full-scan semantics: every DFF is assumed scannable, so the
// combinational core is tested with inputs = PIs ∪ DFF outputs
// (pseudo-PIs) and outputs = POs ∪ DFF inputs (pseudo-POs). That is the
// view the paper's test cubes address: cube width = |PIs| + |FFs|.
package circuit

import (
	"fmt"
	"sort"
)

// GateType enumerates the supported netlist primitives.
type GateType uint8

// Supported gate types. Input is a primary input; DFF is a D flip-flop
// (its output behaves as a pseudo-PI of the combinational core, its
// fanin as a pseudo-PO).
const (
	Input GateType = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	DFF
	Const0
	Const1
)

var gateNames = [...]string{
	Input: "INPUT", Buf: "BUFF", Not: "NOT", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR", DFF: "DFF",
	Const0: "CONST0", Const1: "CONST1",
}

// String returns the .bench keyword for the gate type.
func (g GateType) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("GateType(%d)", uint8(g))
}

// MinFanin returns the minimum legal fanin count for the type.
func (g GateType) MinFanin() int {
	switch g {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count (-1 = unbounded).
func (g GateType) MaxFanin() int {
	switch g {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return -1
	}
}

// Gate is one netlist node; its output is the net with the same ID.
type Gate struct {
	// ID is the gate's index in Circuit.Gates and the ID of its output
	// net.
	ID int
	// Name is the net name from the source description.
	Name string
	// Type is the gate's primitive type.
	Type GateType
	// Fanin lists driver gate IDs in pin order.
	Fanin []int
	// Fanout lists reader gate IDs (computed by Build).
	Fanout []int
}

// Circuit is a flattened netlist.
type Circuit struct {
	// Name is an optional design name.
	Name string
	// Gates holds every node; Gates[i].ID == i.
	Gates []Gate
	// PIs, POs and DFFs list gate IDs: primary inputs, gates whose nets
	// are primary outputs, and flip-flops.
	PIs, POs, DFFs []int

	byName map[string]int
	// topo is the levelized order of combinational gates (excludes
	// Input/DFF/Const sources), computed by Build.
	topo []int
	// level[i] is the logic depth of gate i (sources are level 0).
	level []int
	// scanIn and scanOut are the cube-pin and observable orders,
	// computed by Build.
	scanIn, scanOut []int
}

// NumGates returns the total node count, including inputs and DFFs.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumLogicGates returns the count of combinational logic gates (the
// "# Gates" column of Table I: everything except PIs, DFFs, constants).
func (c *Circuit) NumLogicGates() int {
	n := 0
	for i := range c.Gates {
		switch c.Gates[i].Type {
		case Input, DFF, Const0, Const1:
		default:
			n++
		}
	}
	return n
}

// NumInputs returns |PIs| + |FFs|, the test cube width.
func (c *Circuit) NumInputs() int { return len(c.PIs) + len(c.DFFs) }

// GateByName returns the gate ID for a net name.
func (c *Circuit) GateByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// Level returns the logic depth of gate id (0 for sources).
func (c *Circuit) Level(id int) int { return c.level[id] }

// Depth returns the maximum logic level in the circuit.
func (c *Circuit) Depth() int {
	d := 0
	for _, l := range c.level {
		if l > d {
			d = l
		}
	}
	return d
}

// Topo returns the combinational gates in topological (level) order.
// The slice is shared; callers must not modify it.
func (c *Circuit) Topo() []int { return c.topo }

// Builder accumulates gates and produces a validated Circuit.
type Builder struct {
	c    *Circuit
	outs map[string]bool // names declared as outputs
	// pendingFanin holds unresolved fanin name lists, parallel to
	// c.Gates; Build resolves them once every net is declared, so
	// forward references are legal.
	pendingFanin [][]string
}

// NewBuilder returns an empty builder for a named design.
func NewBuilder(name string) *Builder {
	return &Builder{
		c:    &Circuit{Name: name, byName: make(map[string]int)},
		outs: make(map[string]bool),
	}
}

// AddGate appends a gate with the given name, type and fanin names.
// Fanin nets may be forward references; they are resolved in Build.
func (b *Builder) AddGate(name string, t GateType, fanin ...string) error {
	if _, dup := b.c.byName[name]; dup {
		return fmt.Errorf("circuit: duplicate net %q", name)
	}
	if min := t.MinFanin(); len(fanin) < min {
		return fmt.Errorf("circuit: %s gate %q needs at least %d fanin, got %d",
			t, name, min, len(fanin))
	}
	if max := t.MaxFanin(); max >= 0 && len(fanin) > max {
		return fmt.Errorf("circuit: %s gate %q allows at most %d fanin, got %d",
			t, name, max, len(fanin))
	}
	id := len(b.c.Gates)
	b.c.byName[name] = id
	g := Gate{ID: id, Name: name, Type: t}
	b.pendingFanin = append(b.pendingFanin, fanin)
	b.c.Gates = append(b.c.Gates, g)
	return nil
}

// MarkOutput declares the named net a primary output.
func (b *Builder) MarkOutput(name string) {
	b.outs[name] = true
}

// Build resolves references, validates the netlist, computes fanout
// lists and levelizes the combinational core.
func (b *Builder) Build() (*Circuit, error) {
	c := b.c
	// Resolve fanin names.
	for i := range c.Gates {
		names := b.pendingFanin[i]
		c.Gates[i].Fanin = make([]int, len(names))
		for k, n := range names {
			id, ok := c.byName[n]
			if !ok {
				return nil, fmt.Errorf("circuit: gate %q references undeclared net %q",
					c.Gates[i].Name, n)
			}
			c.Gates[i].Fanin[k] = id
		}
	}
	// Classify.
	for i := range c.Gates {
		switch c.Gates[i].Type {
		case Input:
			c.PIs = append(c.PIs, i)
		case DFF:
			c.DFFs = append(c.DFFs, i)
		}
	}
	for name := range b.outs {
		id, ok := c.byName[name]
		if !ok {
			return nil, fmt.Errorf("circuit: OUTPUT(%s) references undeclared net", name)
		}
		c.POs = append(c.POs, id)
	}
	sortInts(c.POs)
	// Fanout lists.
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			c.Gates[f].Fanout = append(c.Gates[f].Fanout, i)
		}
	}
	if err := c.levelize(); err != nil {
		return nil, err
	}
	c.scanIn = make([]int, 0, len(c.PIs)+len(c.DFFs))
	c.scanIn = append(c.scanIn, c.PIs...)
	c.scanIn = append(c.scanIn, c.DFFs...)
	c.scanOut = make([]int, 0, len(c.POs)+len(c.DFFs))
	c.scanOut = append(c.scanOut, c.POs...)
	for _, ff := range c.DFFs {
		c.scanOut = append(c.scanOut, c.Gates[ff].Fanin[0])
	}
	return c, nil
}

// levelize computes a topological order of the combinational core,
// treating Input/DFF/Const gates as sources. It fails on combinational
// cycles.
func (c *Circuit) levelize() error {
	n := len(c.Gates)
	c.level = make([]int, n)
	indeg := make([]int, n)
	queue := make([]int, 0, n)
	for i := range c.Gates {
		switch c.Gates[i].Type {
		case Input, DFF, Const0, Const1:
			// Sources: level 0, not part of the combinational order.
			queue = append(queue, i)
		default:
			indeg[i] = len(c.Gates[i].Fanin)
			if indeg[i] == 0 {
				return fmt.Errorf("circuit: combinational gate %q has no fanin", c.Gates[i].Name)
			}
		}
	}
	c.topo = make([]int, 0, n-len(queue))
	for head := 0; head < len(queue); head++ {
		g := queue[head]
		for _, out := range c.Gates[g].Fanout {
			switch c.Gates[out].Type {
			case Input, DFF, Const0, Const1:
				continue // DFF fanin edges do not propagate levels
			}
			if l := c.level[g] + 1; l > c.level[out] {
				c.level[out] = l
			}
			indeg[out]--
			if indeg[out] == 0 {
				queue = append(queue, out)
				c.topo = append(c.topo, out)
			}
		}
	}
	for i := range c.Gates {
		switch c.Gates[i].Type {
		case Input, DFF, Const0, Const1:
		default:
			if indeg[i] != 0 {
				return fmt.Errorf("circuit: combinational cycle through gate %q", c.Gates[i].Name)
			}
		}
	}
	return nil
}

// ScanInputs returns the gate IDs addressed by a test cube, in cube pin
// order: first the PIs, then the DFF outputs (pseudo-PIs). This fixes
// the cube-pin ↔ net correspondence used across the repository.
// The slice is shared; callers must not modify it.
func (c *Circuit) ScanInputs() []int { return c.scanIn }

// ScanOutputs returns the observable nets of the combinational core in
// a fixed order: POs first, then DFF fanin nets (pseudo-POs).
// The slice is shared; callers must not modify it.
func (c *Circuit) ScanOutputs() []int { return c.scanOut }

func sortInts(a []int) { sort.Ints(a) }
