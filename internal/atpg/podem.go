package atpg

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/cube"
	"repro/internal/logicsim"
)

// podem runs path-oriented decision making for one target fault and
// returns a test cube over the scan inputs (unassigned inputs remain X),
// or ok=false if the fault was proven untestable or the backtrack limit
// was exceeded.
//
// The engine is region-limited: only the transitive fanin of the
// observables reachable from the fault net is simulated, and only scan
// inputs inside that region are decision candidates. Everything outside
// the region stays X in the emitted cube — the structural reason ATPG
// cubes are X-dominated (Table I).
//
// Encoding. Each net carries a two-lane dual-rail word pair one[id],
// zero[id] in the logicsim.DualRail convention (a set bit in one means
// 1, in zero means 0, neither means X). Bit 0 (laneGood) is the good
// machine and bit 1 (laneFaulty) the faulty machine, so one
// logicsim.EvalDualRail call evaluates a gate for both machines; the
// faulty lane of the fault net is then forced to the stuck value.
// Words never carry bits above 1: sources are written from lane masks,
// and every combinational gate has a fanin, which masks its output.
//
// Invariants. After imply and after every setPin, over the nets of the
// current region:
//   - dCount is the number of observable nets showing D (both lanes
//     known and different), so detected() is dCount > 0;
//   - dNets is the bitset over gate IDs of the nets showing D.
//
// Both are updated wherever a value changes: the source write in
// setPin, each changed gate in propagate, and a full recount in imply.
// Every D-frontier gate has a D fanin, so the frontier objective scans
// only the combinational fanouts of dNets and takes the qualifying one
// earliest in topological order — the gate a scan of the whole region
// in topological order finds first.
//
// The search (objectives, backtrace, backtrack counting, relax) is the
// scalar engine's step for step: it reads the same values and makes the
// same choices, so cubes, statuses and Stats are identical to the
// reference kept in podem_ref_test.go.
type podem struct {
	c *circuit.Circuit
	// scan is c.ScanInputs(): cube pin -> gate ID.
	scan []int
	// scanIndex maps gate ID -> cube pin index for scan inputs, -1
	// otherwise.
	scanIndex []int
	// The combinational fanouts of gate id are
	// fanout[fanStart[id]:fanStart[id+1]] (DFF readers dropped: a
	// fault effect stops at the flip-flop's D input).
	fanStart, fanout []int
	// topoPos[id] is gate id's position in c.Topo().
	topoPos []int

	// Region state (epoch-stamped, reused across faults).
	inRegion    []int
	regionEpoch int
	regionTopo  []int // region gates in global topo order

	// Two-lane dual-rail values and their D summaries (see the type
	// comment); stuckOne, stuckZero hold the current fault's stuck
	// value on the faulty lane.
	one, zero           []uint64
	stuckOne, stuckZero uint64
	dCount              int
	dNets               []uint64

	// assignment[pin] is the current decision value for scan pin, X if
	// unassigned.
	assignment []cube.Trit
	// stack holds the decisions of the current search.
	stack []decision

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

// Lanes of the two-lane dual-rail words.
const (
	laneGood   = 1 << 0
	laneFaulty = 1 << 1
	lanesBoth  = laneGood | laneFaulty
)

func newPodem(c *circuit.Circuit) *podem {
	n := len(c.Gates)
	p := &podem{
		c:          c,
		scan:       c.ScanInputs(),
		scanIndex:  make([]int, n),
		fanStart:   make([]int, n+1),
		topoPos:    make([]int, n),
		inRegion:   make([]int, n),
		one:        make([]uint64, n),
		zero:       make([]uint64, n),
		dNets:      make([]uint64, (n+63)/64),
		observable: make([]bool, n),
		markFwd:    make([]int, n),
		qBuckets:   make([][]int, c.Depth()+1),
		inQueue:    make([]int, n),
	}
	for i := range p.scanIndex {
		p.scanIndex[i] = -1
	}
	p.assignment = make([]cube.Trit, len(p.scan))
	for k, id := range p.scan {
		p.scanIndex[id] = k
	}
	for _, id := range c.ScanOutputs() {
		p.observable[id] = true
	}
	for id := range c.Gates {
		for _, out := range c.Gates[id].Fanout {
			if c.Gates[out].Type != circuit.DFF {
				p.fanout = append(p.fanout, out)
			}
		}
		p.fanStart[id+1] = len(p.fanout)
	}
	for i, g := range c.Topo() {
		p.topoPos[g] = i
	}
	return p
}

// lanes returns the dual-rail words of v on the lanes in mask.
func lanes(v cube.Trit, mask uint64) (one, zero uint64) {
	switch v {
	case cube.One:
		return mask, 0
	case cube.Zero:
		return 0, mask
	}
	return 0, 0
}

// isD reports whether a net shows a fault effect: both machines known
// and different.
func isD(one, zero uint64) bool {
	return one|zero == lanesBoth && one != 0 && zero != 0
}

// forceStuck overrides the faulty lane with the current fault's stuck
// value.
func (p *podem) forceStuck(one, zero uint64) (uint64, uint64) {
	return one&^laneFaulty | p.stuckOne, zero&^laneFaulty | p.stuckZero
}

// eval evaluates combinational gate g for both machines.
func (p *podem) eval(f Fault, g int) (uint64, uint64) {
	gate := &p.c.Gates[g]
	one, zero := logicsim.EvalDualRail(gate.Type, gate.Fanin, p.one, p.zero)
	if g == f.Net {
		return p.forceStuck(one, zero)
	}
	return one, zero
}

// good returns the good-machine value of net id.
func (p *podem) good(id int) cube.Trit {
	switch {
	case p.one[id]&laneGood != 0:
		return cube.One
	case p.zero[id]&laneGood != 0:
		return cube.Zero
	}
	return cube.X
}

// set stores net id's words and keeps dCount and dNets exact.
func (p *podem) set(id int, one, zero uint64) {
	was := isD(p.one[id], p.zero[id])
	p.one[id], p.zero[id] = one, zero
	now := isD(one, zero)
	if now == was {
		return
	}
	p.dNets[id>>6] ^= 1 << (id & 63)
	if p.observable[id] {
		if now {
			p.dCount++
		} else {
			p.dCount--
		}
	}
}

// dpvet:hot
// propagate event-drives a single source-value change (assign, flip or
// unassign at scan pin gate src) through the region: only gates whose
// value actually changes are re-evaluated downstream. Level-ascending
// sweep guarantees each affected gate is evaluated once, after all its
// changed fanins.
func (p *podem) propagate(f Fault, src int) {
	p.qEpoch++
	dirty := p.qDirty
	for _, l := range dirty {
		p.qBuckets[l] = p.qBuckets[l][:0]
	}
	dirty = p.schedule(src, dirty[:0])
	for l := range p.qBuckets {
		for _, g := range p.qBuckets[l] {
			one, zero := p.eval(f, g)
			if one == p.one[g] && zero == p.zero[g] {
				continue
			}
			p.set(g, one, zero)
			dirty = p.schedule(g, dirty)
		}
	}
	p.qDirty = dirty
}

// dpvet:hot
// schedule queues the in-region combinational fanouts of id on the
// propagation worklist and returns dirty extended by any level bucket
// that became non-empty.
func (p *podem) schedule(id int, dirty []int) []int {
	for _, out := range p.fanout[p.fanStart[id]:p.fanStart[id+1]] {
		if p.inQueue[out] == p.qEpoch || p.inRegion[out] != p.regionEpoch {
			continue
		}
		p.inQueue[out] = p.qEpoch
		l := p.c.Level(out)
		if len(p.qBuckets[l]) == 0 {
			dirty = append(dirty, l)
		}
		p.qBuckets[l] = append(p.qBuckets[l], out)
	}
	return dirty
}

// dpvet:hot
// setPin writes a decision value (or X on unassign) at a scan pin and
// event-propagates the change.
func (p *podem) setPin(f Fault, pin int, val cube.Trit) {
	p.assignment[pin] = val
	src := p.scan[pin]
	one, zero := lanes(val, lanesBoth)
	if src == f.Net {
		one, zero = p.forceStuck(one, zero)
	}
	p.set(src, one, zero)
	p.propagate(f, src)
}

// buildRegion computes the fault's relevant subcircuit: forward cone
// from the fault net, then transitive fanin of every observable (or
// frontier gate) in that cone. regionTopo is rebuilt.
func (p *podem) buildRegion(f Fault) {
	c := p.c
	p.regionEpoch++
	ep := p.regionEpoch

	// Forward cone (combinational only).
	p.fwdList = p.fwdList[:0]
	p.fwdList = append(p.fwdList, f.Net)
	p.markFwd[f.Net] = ep
	for head := 0; head < len(p.fwdList); head++ {
		g := p.fwdList[head]
		for _, out := range p.fanout[p.fanStart[g]:p.fanStart[g+1]] {
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
	// Region topo order: filter the global topo order.
	p.regionTopo = p.regionTopo[:0]
	for _, g := range c.Topo() {
		if p.inRegion[g] == ep {
			p.regionTopo = append(p.regionTopo, g)
		}
	}
}

// imply simulates both machines over the region given the current scan
// assignments, then recounts dCount and dNets. The faulty machine
// forces the stuck value on the fault net.
func (p *podem) imply(f Fault) {
	c := p.c
	// Sources.
	for _, id := range p.bwdList {
		var v cube.Trit
		switch {
		case c.Gates[id].Type == circuit.Const0:
			v = cube.Zero
		case c.Gates[id].Type == circuit.Const1:
			v = cube.One
		case p.scanIndex[id] >= 0:
			v = p.assignment[p.scanIndex[id]]
		default:
			continue
		}
		p.one[id], p.zero[id] = lanes(v, lanesBoth)
	}
	// A source fault net keeps this; a gate fault net is re-forced below.
	p.one[f.Net], p.zero[f.Net] = p.forceStuck(p.one[f.Net], p.zero[f.Net])
	for _, g := range p.regionTopo {
		p.one[g], p.zero[g] = p.eval(f, g)
	}
	clear(p.dNets)
	p.dCount = 0
	for _, id := range p.bwdList {
		if isD(p.one[id], p.zero[id]) {
			p.dNets[id>>6] |= 1 << (id & 63)
			if p.observable[id] {
				p.dCount++
			}
		}
	}
}

// detected reports whether some observable region net currently shows a
// specified good/faulty difference.
func (p *podem) detected() bool { return p.dCount > 0 }

// dFrontierObjective returns an objective (net, value) that advances
// fault-effect propagation, or ok=false if the D-frontier is empty. The
// frontier gate is the earliest in topological order whose output is
// still X in some machine, with a D fanin and a good-X fanin; the
// objective sets that first good-X fanin (the only kind further PI
// decisions control) to the gate's non-controlling value.
func (p *podem) dFrontierObjective() (int, cube.Trit, bool) {
	best, bestPos := -1, len(p.topoPos)
	for w, word := range p.dNets {
		for ; word != 0; word &= word - 1 {
			d := w<<6 | bits.TrailingZeros64(word)
			for _, g := range p.fanout[p.fanStart[d]:p.fanStart[d+1]] {
				if p.topoPos[g] >= bestPos || p.inRegion[g] != p.regionEpoch ||
					p.one[g]|p.zero[g] == lanesBoth {
					continue
				}
				if _, ok := p.xFanin(&p.c.Gates[g]); ok {
					best, bestPos = g, p.topoPos[g]
				}
			}
		}
	}
	if best < 0 {
		return 0, cube.X, false
	}
	in, _ := p.xFanin(&p.c.Gates[best])
	return in, nonControlling(p.c.Gates[best].Type), true
}

// nonControlling returns the value a side input must take for the fault
// effect to pass through a gate of the given type (arbitrary for XOR
// family, where either value propagates).
func nonControlling(t circuit.GateType) cube.Trit {
	switch t {
	case circuit.And, circuit.Nand:
		return cube.One
	case circuit.Or, circuit.Nor:
		return cube.Zero
	default:
		return cube.Zero
	}
}

// backtrace walks an objective (net, value) backward to an unassigned
// scan input in the region and returns the pin and trial value.
func (p *podem) backtrace(net int, val cube.Trit) (int, cube.Trit, bool) {
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
func (p *podem) xFanin(g *circuit.Gate) (int, bool) {
	for _, in := range g.Fanin {
		if (p.one[in]|p.zero[in])&laneGood == 0 {
			return in, true
		}
	}
	return 0, false
}

// decision is one trial assignment on the PODEM stack.
type decision struct {
	pin     int
	value   cube.Trit
	flipped bool // both values tried?
}

// Result statuses for one fault.
const (
	statusDetected = iota
	statusUntestable
	statusAborted
)

// generate runs PODEM for fault f. On success it returns the test cube
// (width = |scan inputs|) with unassigned pins left X. On a warmed
// engine the cube is its only allocation.
func (p *podem) generate(f Fault, backtrackLimit int) (cube.Cube, int) {
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
	p.stuckOne, p.stuckZero = lanes(f.Stuck, laneFaulty)
	p.stack = p.stack[:0]
	backtracks := 0

	p.imply(f)
	for {
		if p.detected() {
			p.relax(f, p.stack)
			out := make(cube.Cube, len(p.assignment))
			copy(out, p.assignment)
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
			for len(p.stack) > 0 {
				top := &p.stack[len(p.stack)-1]
				if !top.flipped {
					top.flipped = true
					top.value = top.value.Neg()
					p.setPin(f, top.pin, top.value)
					flipped = true
					break
				}
				p.setPin(f, top.pin, cube.X)
				p.stack = p.stack[:len(p.stack)-1]
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
		p.stack = append(p.stack, decision{pin: pin, value: val})
		p.setPin(f, pin, val)
	}
}

// relax is the pattern-relaxation pass real ATPG flows run after a
// successful generation: walk the decisions newest-first, revert each
// to X, and keep the X whenever the fault stays detected. Only the
// assignments on the surviving activation/propagation path remain, so
// the emitted cubes carry the high X density that makes X-filling
// worthwhile (Table I).
func (p *podem) relax(f Fault, stack []decision) {
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
func (p *podem) objective(f Fault) (int, cube.Trit, bool) {
	switch p.good(f.Net) {
	case cube.X:
		return f.Net, f.Stuck.Neg(), true
	case f.Stuck:
		return 0, cube.X, false // activation impossible under current assignment
	}
	return p.dFrontierObjective()
}
