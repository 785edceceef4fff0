// Package netgen generates synthetic gate-level netlists matching the
// ITC'99 benchmark profiles of Table I (input count and gate count per
// circuit). The paper's pipeline consumes only test cubes, whose
// geometry (width, count, X density, stretch structure) is produced by
// running ATPG on these netlists — see DESIGN.md for the substitution
// rationale (the real ITC'99 RTL plus a commercial synthesis flow is
// unavailable offline).
//
// Generation is deterministic per profile (seeded by circuit name), so
// every experiment in the repository is reproducible bit-for-bit.
package netgen

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
)

// Profile describes one benchmark circuit to synthesize.
type Profile struct {
	// Name is the benchmark name (b01..b22).
	Name string
	// PIs and FFs are the primary-input and flip-flop counts; PIs+FFs is
	// the paper's "#(PIs+FFs)" column (the test cube width).
	PIs, FFs int
	// Gates is the combinational logic gate budget ("# Gates").
	Gates int
	// XPct is the paper's reported average X percentage (Table I),
	// carried along for reporting; the measured value comes from ATPG.
	XPct float64
	// Seed drives deterministic generation; 0 derives it from Name.
	Seed int64
}

// Inputs returns the test cube width |PIs| + |FFs|.
func (p Profile) Inputs() int { return p.PIs + p.FFs }

// Size returns len(Generate(p).Gates) without generating: one gate per
// PI, a DFF and its D-driving Buf per FF, and the logic gates.
func (p Profile) Size() int { return p.PIs + 2*p.FFs + p.Gates }

// ITC99 returns the benchmark profiles of Table I (plus b09, which the
// result tables include). Input totals and gate counts follow the
// paper; the PI/FF split approximates the real suite (control-dominated
// designs: few PIs, many state bits).
func ITC99() []Profile {
	mk := func(name string, inputs, gates int, xpct float64) Profile {
		pis := inputs / 5
		if pis < 1 {
			pis = 1
		}
		if inputs-pis < 1 {
			pis = inputs - 1
			if pis < 1 {
				pis = 1
			}
		}
		return Profile{Name: name, PIs: pis, FFs: inputs - pis, Gates: gates, XPct: xpct}
	}
	return []Profile{
		mk("b01", 5, 57, 7.1),
		mk("b02", 4, 31, 5),
		mk("b03", 29, 103, 70.4),
		mk("b04", 77, 615, 64.4),
		mk("b05", 35, 608, 36.8),
		mk("b06", 5, 60, 12.5),
		mk("b07", 50, 431, 58.6),
		mk("b08", 30, 196, 60.4),
		mk("b09", 29, 170, 59.0), // not in Table I; sized from the suite
		mk("b10", 28, 217, 58.7),
		mk("b11", 38, 574, 64.1),
		mk("b12", 126, 1600, 76.9),
		mk("b13", 53, 596, 65.4),
		mk("b14", 275, 5400, 77.9),
		mk("b15", 485, 8700, 87.8),
		mk("b17", 1452, 27990, 89.9),
		mk("b18", 3357, 75800, 86.9),
		mk("b19", 6666, 146500, 89.8),
		mk("b20", 522, 9400, 75.3),
		mk("b21", 522, 9400, 73.2),
		mk("b22", 767, 13400, 74.1),
	}
}

// ProfileByName returns the named ITC'99 profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range ITC99() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Scaled returns a copy of p with the gate, PI and FF counts scaled by
// factor (minimum 1 each), for CI-speed experiment runs. Scaling
// preserves the suite's relative size ordering, which the paper's
// "improvement grows with circuit size" claim depends on.
func (p Profile) Scaled(factor float64) Profile {
	if factor >= 1 {
		return p
	}
	scale := func(n int) int {
		v := int(float64(n) * factor)
		if v < 1 {
			v = 1
		}
		return v
	}
	out := p
	out.PIs = scale(p.PIs)
	out.FFs = scale(p.FFs)
	out.Gates = scale(p.Gates)
	return out
}

// seedFor derives a stable seed from a circuit name.
func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for _, r := range name {
		h ^= int64(r)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// gateMix is the combinational gate type distribution, loosely matching
// synthesized control logic (NAND/NOR dominated).
var gateMix = []struct {
	t circuit.GateType
	w int
}{
	{circuit.Nand, 30},
	{circuit.Nor, 18},
	{circuit.And, 12},
	{circuit.Or, 12},
	{circuit.Not, 12},
	{circuit.Xor, 7},
	{circuit.Xnor, 3},
	{circuit.Buf, 6},
}

func pickType(r *rand.Rand) circuit.GateType {
	total := 0
	for _, gm := range gateMix {
		total += gm.w
	}
	v := r.Intn(total)
	for _, gm := range gateMix {
		if v < gm.w {
			return gm.t
		}
		v -= gm.w
	}
	return circuit.Nand
}

// Generate synthesizes a netlist for the profile: a layered random DAG
// whose gates draw fanin with a locality bias (yielding realistic depth
// and reconvergence), whose flip-flop D inputs and primary outputs
// absorb otherwise-unread nets (so the whole circuit is observable), and
// whose gate count matches the budget exactly.
func Generate(p Profile) (*circuit.Circuit, error) {
	if p.PIs < 1 || p.FFs < 0 || p.Gates < 1 {
		return nil, fmt.Errorf("netgen: degenerate profile %+v", p)
	}
	seed := p.Seed
	if seed == 0 {
		seed = seedFor(p.Name)
	}
	r := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder(p.Name)

	var nets []string // creation order: PIs, FF outputs, then gates
	for i := 0; i < p.PIs; i++ {
		name := fmt.Sprintf("pi%d", i)
		if err := b.AddGate(name, circuit.Input); err != nil {
			return nil, err
		}
		nets = append(nets, name)
	}
	// FF outputs exist up front (their D fanins are assigned later via
	// forward references).
	ffD := make([]string, p.FFs)
	for i := 0; i < p.FFs; i++ {
		q := fmt.Sprintf("q%d", i)
		ffD[i] = fmt.Sprintf("d%d", i) // resolved after gate creation
		if err := b.AddGate(q, circuit.DFF, ffD[i]); err != nil {
			return nil, err
		}
		nets = append(nets, q)
	}

	// unread tracks nets with no reader yet; new gates prefer them for
	// their first fanin so logic stays connected.
	unread := make(map[string]bool, len(nets))
	for _, n := range nets {
		unread[n] = true
	}
	unreadList := append([]string(nil), nets...)
	head := 0 // consumed prefix of unreadList

	takeUnread := func() (string, bool) {
		for head < len(unreadList) {
			// Bias toward older unread nets so early logic gets
			// consumed; occasionally jump anywhere (swap-with-head keeps
			// this O(1)).
			idx := head
			if rest := len(unreadList) - head; rest > 1 && r.Intn(4) == 0 {
				idx = head + r.Intn(rest)
			}
			unreadList[head], unreadList[idx] = unreadList[idx], unreadList[head]
			n := unreadList[head]
			head++
			if unread[n] {
				return n, true
			}
		}
		return "", false
	}
	pickNet := func() string {
		// Mild locality bias: half the picks come from a recent window
		// (builds depth and reconvergence), half from anywhere (keeps
		// overall depth realistic for synthesized control logic).
		n := len(nets)
		window := n / 3
		if window < 64 {
			window = 64
		}
		if window > n {
			window = n
		}
		if r.Intn(2) == 0 {
			return nets[n-1-r.Intn(window)]
		}
		return nets[r.Intn(n)]
	}

	markRead := func(n string) {
		if unread[n] {
			unread[n] = false
		}
	}

	for g := 0; g < p.Gates; g++ {
		t := pickType(r)
		nFanin := 1
		if t != circuit.Not && t != circuit.Buf {
			// Mostly 2-input, occasionally 3 or 4.
			switch r.Intn(10) {
			case 0:
				nFanin = 4
			case 1, 2:
				nFanin = 3
			default:
				nFanin = 2
			}
		}
		fanin := make([]string, 0, nFanin)
		if un, ok := takeUnread(); ok && r.Intn(10) < 8 {
			fanin = append(fanin, un)
			markRead(un)
		}
		for len(fanin) < nFanin {
			n := pickNet()
			fanin = append(fanin, n)
			markRead(n)
		}
		name := fmt.Sprintf("g%d", g)
		if err := b.AddGate(name, t, fanin...); err != nil {
			return nil, err
		}
		nets = append(nets, name)
		unread[name] = true
		unreadList = append(unreadList, name)
	}

	// Collect still-unread nets; they become FF D inputs and POs so no
	// logic dangles.
	var leftovers []string
	for _, n := range nets {
		if unread[n] {
			leftovers = append(leftovers, n)
		}
	}
	li := 0
	nextSink := func() string {
		if li < len(leftovers) {
			n := leftovers[li]
			li++
			return n
		}
		return nets[len(nets)-1-r.Intn(minInt(len(nets), 64))]
	}
	for i := 0; i < p.FFs; i++ {
		if err := b.AddGate(ffD[i], circuit.Buf, nextSink()); err != nil {
			return nil, err
		}
	}
	// POs: roughly one per 10 inputs, at least one, plus any leftovers
	// that still have no reader.
	numPOs := p.Inputs()/10 + 1
	for i := 0; i < numPOs; i++ {
		b.MarkOutput(nextSink())
	}
	for li < len(leftovers) {
		b.MarkOutput(leftovers[li])
		li++
	}
	return b.Build()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
