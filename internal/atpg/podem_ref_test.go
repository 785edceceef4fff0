package atpg

import (
	"repro/internal/circuit"
	"repro/internal/cube"
)

// This file keeps the scalar PODEM engine that predates the dual-rail
// kernel in podem.go, unchanged except for its names (it shares
// decision, the status codes and nonControlling with podem.go). It
// evaluates the good and faulty machines separately through
// eval3Region, rescans the region for detection and for the D-frontier
// on every decision, and serves as the oracle the production engine
// must match cube for cube (TestPodemMatchesReference,
// FuzzPodemMatchesReference).

// refPodem runs path-oriented decision making for one target fault and
// returns a test cube over the scan inputs (unassigned inputs remain X),
// or ok=false if the fault was proven untestable or the backtrack limit
// was exceeded.
//
// The engine is region-limited: only the transitive fanin of the
// observables reachable from the fault net is simulated, and only scan
// inputs inside that region are decision candidates. Everything outside
// the region stays X in the emitted cube — the structural reason ATPG
// cubes are X-dominated (Table I).
type refPodem struct {
	c *circuit.Circuit
	// scanIndex maps gate ID -> cube pin index for scan inputs, -1
	// otherwise.
	scanIndex []int

	// Region state (epoch-stamped, reused across faults).
	inRegion    []int
	regionEpoch int
	regionTopo  []int // region gates in global topo order
	regionPIs   []int // scan inputs inside the region

	// Dual-machine 3-valued values.
	good, faulty []cube.Trit

	// assignment[pin] is the current decision value for scan pin, X if
	// unassigned.
	assignment []cube.Trit

	observable []bool

	// scratch for region construction
	markFwd []int
	fwdList []int
	bwdList []int

	// Event-driven propagation state: level-bucketed worklist, reused
	// across calls via qEpoch stamps.
	qBuckets [][]int
	qDirty   []int
	inQueue  []int
	qEpoch   int
}

func newRefPodem(c *circuit.Circuit) *refPodem {
	n := len(c.Gates)
	p := &refPodem{
		c:          c,
		scanIndex:  make([]int, n),
		inRegion:   make([]int, n),
		good:       make([]cube.Trit, n),
		faulty:     make([]cube.Trit, n),
		observable: make([]bool, n),
		markFwd:    make([]int, n),
	}
	for i := range p.scanIndex {
		p.scanIndex[i] = -1
	}
	scan := c.ScanInputs()
	p.assignment = make([]cube.Trit, len(scan))
	for k, id := range scan {
		p.scanIndex[id] = k
	}
	for _, id := range c.ScanOutputs() {
		p.observable[id] = true
	}
	p.qBuckets = make([][]int, c.Depth()+1)
	p.inQueue = make([]int, n)
	return p
}

// propagate event-drives a single source-value change (assign, flip or
// unassign at scan pin gate src) through the region: only gates whose
// value actually changes are re-evaluated downstream. Level-ascending
// sweep guarantees each affected gate is evaluated once, after all its
// changed fanins.
func (p *refPodem) propagate(f Fault, src int) {
	c := p.c
	ep := p.regionEpoch
	p.qEpoch++
	for _, l := range p.qDirty {
		p.qBuckets[l] = p.qBuckets[l][:0]
	}
	p.qDirty = p.qDirty[:0]
	push := func(id int) {
		if p.inQueue[id] == p.qEpoch || p.inRegion[id] != ep {
			return
		}
		p.inQueue[id] = p.qEpoch
		l := c.Level(id)
		if len(p.qBuckets[l]) == 0 {
			p.qDirty = append(p.qDirty, l)
		}
		p.qBuckets[l] = append(p.qBuckets[l], id)
	}
	expand := func(from int) {
		for _, out := range c.Gates[from].Fanout {
			if c.Gates[out].Type == circuit.DFF {
				continue
			}
			push(out)
		}
	}
	expand(src)
	for l := 0; l < len(p.qBuckets); l++ {
		for _, g := range p.qBuckets[l] {
			newG := eval3Region(c.Gates[g].Type, c.Gates[g].Fanin, p.good)
			newF := f.Stuck
			if g != f.Net {
				newF = eval3Region(c.Gates[g].Type, c.Gates[g].Fanin, p.faulty)
			}
			if newG == p.good[g] && newF == p.faulty[g] {
				continue
			}
			p.good[g], p.faulty[g] = newG, newF
			expand(g)
		}
	}
}

// setPin writes a decision value (or X on unassign) at a scan pin and
// event-propagates the change.
func (p *refPodem) setPin(f Fault, pin int, val cube.Trit) {
	p.assignment[pin] = val
	src := p.c.ScanInputs()[pin]
	p.good[src] = val
	if src == f.Net {
		p.faulty[src] = f.Stuck
	} else {
		p.faulty[src] = val
	}
	p.propagate(f, src)
}

// buildRegion computes the fault's relevant subcircuit: forward cone
// from the fault net, then transitive fanin of every observable (or
// frontier gate) in that cone. regionTopo/regionPIs are rebuilt.
func (p *refPodem) buildRegion(f Fault) {
	c := p.c
	p.regionEpoch++
	ep := p.regionEpoch

	// Forward cone (combinational only).
	p.fwdList = p.fwdList[:0]
	p.fwdList = append(p.fwdList, f.Net)
	p.markFwd[f.Net] = ep
	for head := 0; head < len(p.fwdList); head++ {
		g := p.fwdList[head]
		for _, out := range c.Gates[g].Fanout {
			if c.Gates[out].Type == circuit.DFF {
				continue
			}
			if p.markFwd[out] != ep {
				p.markFwd[out] = ep
				p.fwdList = append(p.fwdList, out)
			}
		}
	}
	// Backward closure from cone members (the cone's side inputs matter
	// for propagation, and the fault net's fanin matters for
	// activation).
	p.bwdList = p.bwdList[:0]
	seed := func(id int) {
		if p.inRegion[id] != ep {
			p.inRegion[id] = ep
			p.bwdList = append(p.bwdList, id)
		}
	}
	for _, g := range p.fwdList {
		seed(g)
	}
	for head := 0; head < len(p.bwdList); head++ {
		g := p.bwdList[head]
		for _, in := range c.Gates[g].Fanin {
			seed(in)
		}
	}
	// Region topo order: filter the global topo order; collect region
	// scan inputs.
	p.regionTopo = p.regionTopo[:0]
	p.regionPIs = p.regionPIs[:0]
	for _, id := range p.bwdList {
		if p.scanIndex[id] >= 0 {
			p.regionPIs = append(p.regionPIs, id)
		}
	}
	for _, g := range c.Topo() {
		if p.inRegion[g] == ep {
			p.regionTopo = append(p.regionTopo, g)
		}
	}
}

// imply simulates both machines over the region given the current scan
// assignments. The faulty machine forces the stuck value on the fault
// net.
func (p *refPodem) imply(f Fault) {
	c := p.c
	ep := p.regionEpoch
	// Sources.
	for _, id := range p.bwdList {
		g := &c.Gates[id]
		var v cube.Trit
		switch {
		case g.Type == circuit.Const0:
			v = cube.Zero
		case g.Type == circuit.Const1:
			v = cube.One
		case p.scanIndex[id] >= 0:
			v = p.assignment[p.scanIndex[id]]
		default:
			continue
		}
		p.good[id] = v
		p.faulty[id] = v
	}
	if f.Net < len(p.good) && p.inRegion[f.Net] == ep {
		if p.scanIndex[f.Net] >= 0 || c.Gates[f.Net].Type == circuit.Const0 || c.Gates[f.Net].Type == circuit.Const1 {
			p.faulty[f.Net] = f.Stuck
		}
	}
	for _, g := range p.regionTopo {
		p.good[g] = eval3Region(c.Gates[g].Type, c.Gates[g].Fanin, p.good)
		if g == f.Net {
			p.faulty[g] = f.Stuck
		} else {
			p.faulty[g] = eval3Region(c.Gates[g].Type, c.Gates[g].Fanin, p.faulty)
		}
	}
}

// eval3Region mirrors logicsim's 3-valued evaluation on a raw value
// array (duplicated to avoid exporting simulator internals).
func eval3Region(t circuit.GateType, fanin []int, vals []cube.Trit) cube.Trit {
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
		return cube.X
	}
}

// detected reports whether some observable region net currently shows a
// specified good/faulty difference.
func (p *refPodem) detected() bool {
	for _, g := range p.bwdList {
		if !p.observable[g] {
			continue
		}
		gv, fv := p.good[g], p.faulty[g]
		if gv != cube.X && fv != cube.X && gv != fv {
			return true
		}
	}
	return false
}

// dFrontierObjective returns an objective (net, value) that advances
// fault-effect propagation, or ok=false if the D-frontier is empty.
func (p *refPodem) dFrontierObjective() (int, cube.Trit, bool) {
	c := p.c
	for _, g := range p.regionTopo {
		gv, fv := p.good[g], p.faulty[g]
		// Composite output still unknown?
		if gv != cube.X && fv != cube.X {
			continue
		}
		// Needs a D/D' input.
		hasD := false
		for _, in := range c.Gates[g].Fanin {
			iv, ifv := p.good[in], p.faulty[in]
			if iv != cube.X && ifv != cube.X && iv != ifv {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		// Objective: set an unknown side input to the gate's
		// non-controlling value. Only good-unknown inputs are
		// controllable by further PI decisions.
		for _, in := range c.Gates[g].Fanin {
			if p.good[in] == cube.X {
				return in, nonControlling(c.Gates[g].Type), true
			}
		}
	}
	return 0, cube.X, false
}

// backtrace walks an objective (net, value) backward to an unassigned
// scan input in the region and returns the pin and trial value.
func (p *refPodem) backtrace(net int, val cube.Trit) (int, cube.Trit, bool) {
	c := p.c
	for steps := 0; steps <= len(c.Gates); steps++ {
		if pin := p.scanIndex[net]; pin >= 0 {
			if p.assignment[pin] != cube.X {
				return 0, cube.X, false // already decided; objective unreachable
			}
			return pin, val, true
		}
		g := &c.Gates[net]
		switch g.Type {
		case circuit.Const0, circuit.Const1, circuit.Input, circuit.DFF:
			return 0, cube.X, false
		case circuit.Buf:
			net = g.Fanin[0]
		case circuit.Not:
			net, val = g.Fanin[0], val.Neg()
		case circuit.Nand, circuit.Nor, circuit.Xnor:
			// Pick an X fanin; objective value inverts through the gate
			// (for the XOR family this is a heuristic, which is all
			// backtrace needs to be).
			in, ok := p.xFanin(g)
			if !ok {
				return 0, cube.X, false
			}
			net, val = in, val.Neg()
		default: // And, Or, Xor
			in, ok := p.xFanin(g)
			if !ok {
				return 0, cube.X, false
			}
			net = in
		}
	}
	return 0, cube.X, false
}

// xFanin returns a fanin with unknown good value, preferring the first.
func (p *refPodem) xFanin(g *circuit.Gate) (int, bool) {
	for _, in := range g.Fanin {
		if p.good[in] == cube.X {
			return in, true
		}
	}
	return 0, false
}

// generate runs PODEM for fault f. On success it returns the test cube
// (width = |scan inputs|) with unassigned pins left X.
func (p *refPodem) generate(f Fault, backtrackLimit int) (cube.Cube, int) {
	p.buildRegion(f)
	// No observable reachable => untestable (e.g. dangling logic).
	reachable := false
	for _, g := range p.fwdList {
		if p.observable[g] {
			reachable = true
			break
		}
	}
	if !reachable {
		return nil, statusUntestable
	}
	for i := range p.assignment {
		p.assignment[i] = cube.X
	}
	var stack []decision
	backtracks := 0

	p.imply(f)
	for {
		if p.detected() {
			p.relax(f, stack)
			out := cube.New(len(p.assignment))
			for i, v := range p.assignment {
				out[i] = v
			}
			return out, statusDetected
		}
		obj, objVal, ok := p.objective(f)
		var pin int
		var val cube.Trit
		if ok {
			pin, val, ok = p.backtrace(obj, objVal)
		}
		if !ok {
			// Dead end: backtrack. Unassignments and flips are plain
			// source-value changes, so they event-propagate too.
			flipped := false
			for len(stack) > 0 {
				top := &stack[len(stack)-1]
				if !top.flipped {
					top.flipped = true
					top.value = top.value.Neg()
					p.setPin(f, top.pin, top.value)
					flipped = true
					break
				}
				p.setPin(f, top.pin, cube.X)
				stack = stack[:len(stack)-1]
			}
			if !flipped {
				return nil, statusUntestable
			}
			backtracks++
			if backtracks > backtrackLimit {
				return nil, statusAborted
			}
			continue
		}
		stack = append(stack, decision{pin: pin, value: val})
		p.setPin(f, pin, val)
	}
}

// relax is the pattern-relaxation pass real ATPG flows run after a
// successful generation: walk the decisions newest-first, revert each
// to X, and keep the X whenever the fault stays detected. Only the
// assignments on the surviving activation/propagation path remain, so
// the emitted cubes carry the high X density that makes X-filling
// worthwhile (Table I).
func (p *refPodem) relax(f Fault, stack []decision) {
	for i := len(stack) - 1; i >= 0; i-- {
		pin := stack[i].pin
		old := p.assignment[pin]
		if old == cube.X {
			continue
		}
		p.setPin(f, pin, cube.X)
		if !p.detected() {
			p.setPin(f, pin, old)
		}
	}
}

// objective picks the next goal: activate the fault if not yet
// activated, otherwise advance the D-frontier.
func (p *refPodem) objective(f Fault) (int, cube.Trit, bool) {
	gv := p.good[f.Net]
	switch gv {
	case cube.X:
		return f.Net, f.Stuck.Neg(), true
	case f.Stuck:
		return 0, cube.X, false // activation impossible under current assignment
	}
	return p.dFrontierObjective()
}
