package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netgen"
)

// b01 is small (5 inputs, 57 gates) and fully deterministic — the
// workhorse circuit of these tests.
const testSpec = "b01"

func mustRun(t *testing.T, req Request) *Report {
	t.Helper()
	rep, err := Run(context.Background(), req, RunOptions{})
	if err != nil {
		t.Fatalf("Run(%+v): %v", req, err)
	}
	return rep
}

func TestRunFullPipeline(t *testing.T) {
	rep := mustRun(t, Request{Spec: testSpec, IncludeCubes: true})
	if rep.Name != "b01" {
		t.Errorf("report name %q, want b01", rep.Name)
	}
	if rep.Circuit.Width != rep.Circuit.PIs+rep.Circuit.FFs {
		t.Errorf("width %d != pis %d + ffs %d", rep.Circuit.Width, rep.Circuit.PIs, rep.Circuit.FFs)
	}
	if rep.ATPG == nil || rep.Fill == nil || rep.Power == nil {
		t.Fatalf("missing stage reports: %+v", rep)
	}
	if rep.ATPG.Patterns == 0 || rep.ATPG.Patterns != len(rep.ATPG.Cubes) {
		t.Errorf("patterns %d, cubes %d", rep.ATPG.Patterns, len(rep.ATPG.Cubes))
	}
	if rep.ATPG.Coverage <= 0 || rep.ATPG.Coverage > 1 {
		t.Errorf("coverage %v outside (0,1]", rep.ATPG.Coverage)
	}
	if len(rep.ATPG.Curve) == 0 {
		t.Error("missing coverage curve")
	} else if last := rep.ATPG.Curve[len(rep.ATPG.Curve)-1]; last.Patterns != rep.ATPG.Patterns {
		t.Errorf("curve ends at %d patterns, want %d", last.Patterns, rep.ATPG.Patterns)
	}
	if rep.Fill.Filler != "DP-fill" || rep.Fill.Orderer != "Tool" {
		t.Errorf("default algorithms = %q/%q", rep.Fill.Orderer, rep.Fill.Filler)
	}
	if rep.Fill.Rows != rep.ATPG.Patterns {
		t.Errorf("fill rows %d, want %d", rep.Fill.Rows, rep.ATPG.Patterns)
	}
	if len(rep.Fill.Cubes) != rep.Fill.Rows {
		t.Errorf("filled cubes %d, want %d", len(rep.Fill.Cubes), rep.Fill.Rows)
	}
	for _, cb := range rep.Fill.Cubes {
		if strings.ContainsAny(cb, "Xx") {
			t.Fatalf("filled cube still has X: %q", cb)
		}
	}
	if !rep.Power.StatePreserving || rep.Power.Scheme != "LOS" {
		t.Errorf("default scheme = %q (state_preserving=%v), want LOS", rep.Power.Scheme, rep.Power.StatePreserving)
	}
	if rep.Power.CapturePeakToggles != rep.Fill.Peak {
		t.Errorf("capture peak toggles %d != fill peak %d", rep.Power.CapturePeakToggles, rep.Fill.Peak)
	}
	if rep.Power.CapturePeakUW <= 0 || rep.Power.IRDrop == nil || rep.Power.IRDrop.WorstUA <= 0 {
		t.Errorf("power numbers missing: %+v", rep.Power)
	}
	if rep.Power.TestCycles <= 0 || rep.Power.ShiftCycles <= 0 {
		t.Errorf("cycle accounting missing: %+v", rep.Power)
	}
	wantStages := []string{"netlist", "atpg", "curve", "fill", "power"}
	if len(rep.Stages) != len(wantStages) {
		t.Fatalf("stages = %+v, want %v", rep.Stages, wantStages)
	}
	for i, st := range rep.Stages {
		if st.Stage != wantStages[i] {
			t.Errorf("stage[%d] = %q, want %q", i, st.Stage, wantStages[i])
		}
	}
}

// TestDPPeakIsBottleneckBound extends the optimality property suite to
// the pipeline: the DP fill stage's peak must equal the BCP lower
// bound of the ordered ATPG set.
func TestDPPeakIsBottleneckBound(t *testing.T) {
	rep := mustRun(t, Request{Spec: testSpec, IncludeCubes: true})
	set := mustParseCubes(t, rep.ATPG.Cubes)
	bound, err := core.Bottleneck(set)
	if err != nil {
		t.Fatalf("Bottleneck: %v", err)
	}
	if rep.Fill.Peak != bound {
		t.Errorf("DP peak %d != BCP bound %d", rep.Fill.Peak, bound)
	}
}

func TestShardedRunMatchesShardMerge(t *testing.T) {
	req := Request{Spec: "b06", ATPG: ATPGConfig{Shards: 3}, IncludeCubes: true}
	local := mustRun(t, req)

	// Re-run the same request as a coordinator would: one StageATPG
	// request per shard, MergeShards, one Finish.
	c, err := ResolveCircuit(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	var shardReps []*ATPGReport
	for k := 0; k < req.Shards(); k++ {
		sreq := req
		sreq.Stage = StageATPG
		sreq.ShardIndex = k
		rep := mustRun(t, sreq)
		if rep.ATPG == nil || rep.Fill != nil || rep.Power != nil {
			t.Fatalf("shard report shape wrong: %+v", rep)
		}
		shardReps = append(shardReps, rep.ATPG)
	}
	merged, agg, err := MergeShards(c.NumInputs(), shardReps)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Finish(context.Background(), req, c, merged, agg, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	local.ZeroTimings()
	remote.ZeroTimings()
	remote.Stages = nil
	local.Stages = nil
	a, _ := json.Marshal(local)
	b, _ := json.Marshal(remote)
	if string(a) != string(b) {
		t.Errorf("sharded-merge report differs from local run:\nlocal:  %s\nmerged: %s", a, b)
	}
}

func TestShardUnionCoversUnshardedFaultList(t *testing.T) {
	req := Request{Spec: testSpec, ATPG: ATPGConfig{Shards: 4}}
	rep := mustRun(t, req)
	single := mustRun(t, Request{Spec: testSpec})
	if rep.ATPG.TotalFaults != single.ATPG.TotalFaults {
		t.Errorf("sharded fault total %d != unsharded %d", rep.ATPG.TotalFaults, single.ATPG.TotalFaults)
	}
	if rep.ATPG.Shards != 4 {
		t.Errorf("shards = %d, want 4", rep.ATPG.Shards)
	}
	if rep.ATPG.Patterns == 0 {
		t.Error("sharded run produced no patterns")
	}
}

func TestNetlistInputMatchesSpec(t *testing.T) {
	p, _ := netgen.ProfileByName(testSpec)
	c, err := netgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := circuit.WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	// WriteBench keeps the design name only as a comment, so pin the
	// report name via the request and compare everything else.
	fromNetlist := mustRun(t, Request{Name: "b01", Netlist: sb.String(), IncludeCubes: true})
	fromSpec := mustRun(t, Request{Name: "b01", Spec: testSpec, IncludeCubes: true})
	fromNetlist.ZeroTimings()
	fromSpec.ZeroTimings()
	fromNetlist.Circuit.Name = ""
	fromSpec.Circuit.Name = ""
	a, _ := json.Marshal(fromNetlist)
	b, _ := json.Marshal(fromSpec)
	if string(a) != string(b) {
		t.Errorf("netlist-text run differs from spec run:\n%s\n%s", a, b)
	}
}

func TestProgressReachesSteps(t *testing.T) {
	req := Request{Spec: testSpec, ATPG: ATPGConfig{Shards: 2}}
	var got []int
	_, err := Run(context.Background(), req, RunOptions{Progress: func(done int) { got = append(got, done) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[len(got)-1] != req.Steps() {
		t.Errorf("progress %v, want monotone ending at %d", got, req.Steps())
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Errorf("progress not monotone: %v", got)
		}
	}
}

func TestRunOptionsAndSchemes(t *testing.T) {
	loc := mustRun(t, Request{Spec: testSpec, Power: PowerConfig{Scheme: "loc", Chains: 2, Tiles: 3}})
	if loc.Power.Scheme != "LOC" || loc.Power.StatePreserving {
		t.Errorf("LOC plan misreported: %+v", loc.Power)
	}
	if loc.Power.CapturePeakToggles != 0 {
		t.Errorf("LOC must not report capture toggles (model undefined), got %d", loc.Power.CapturePeakToggles)
	}
	if loc.Power.IRDrop.Tiles != 3 {
		t.Errorf("tiles = %d, want 3", loc.Power.IRDrop.Tiles)
	}
	if loc.Power.Chains != 2 {
		t.Errorf("chains = %d, want 2", loc.Power.Chains)
	}

	dp := mustRun(t, Request{Spec: testSpec, Filler: "DP"})
	if dp.Fill.Filler != "DP-fill" {
		t.Errorf("dp filler = %q", dp.Fill.Filler)
	}
	mt := mustRun(t, Request{Spec: testSpec, Filler: "mt", Orderer: "xstat"})
	if mt.Fill.Filler != "MT-fill" || mt.Fill.Orderer != "X-Stat" {
		t.Errorf("algorithms = %q/%q", mt.Fill.Orderer, mt.Fill.Filler)
	}
}

func TestMaxGatesLimit(t *testing.T) {
	_, err := Run(context.Background(), Request{Spec: "b04"}, RunOptions{MaxGates: 10})
	if err == nil || !isBadRequest(err) {
		t.Errorf("want ErrBadRequest for over-limit circuit, got %v", err)
	}
}

// TestMaxGatesRefusesSpecBeforeSynthesis: an over-limit spec is refused
// from its profile, naming the gate count the synthesized circuit
// would have had; a netlist is refused after parsing.
func TestMaxGatesRefusesSpecBeforeSynthesis(t *testing.T) {
	for _, tc := range []struct {
		req  Request
		want string
	}{
		// Built, b19 has 158499 gates and the custom spec 1048579;
		// neither is built here.
		{Request{Spec: "b19"}, `pipeline: bad request: circuit "b19" has 158499 gates, exceeding the limit 100`},
		{Request{Spec: "pis=1,ffs=1,gates=1048576"}, `pipeline: bad request: circuit "custom" has 1048579 gates, exceeding the limit 100`},
		{Request{Netlist: "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n"}, ""},
	} {
		c, err := ResolveCircuit(tc.req, 100)
		if tc.want == "" {
			if err != nil || c == nil {
				t.Errorf("ResolveCircuit(%+v) = %v, want a circuit", tc.req, err)
			}
			continue
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("ResolveCircuit(%+v) = %v, want %s", tc.req, err, tc.want)
		}
	}
	big := "INPUT(a)\nOUTPUT(z0)\n"
	for i := range 100 {
		big += fmt.Sprintf("z%d = NOT(a)\n", i)
	}
	if _, err := ResolveCircuit(Request{Netlist: big}, 100); err == nil || !isBadRequest(err) {
		t.Errorf("a 101-gate netlist under a 100-gate limit: got %v, want ErrBadRequest", err)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Request{Spec: testSpec, ATPG: ATPGConfig{Shards: 2}}, RunOptions{}); err == nil {
		t.Error("want error from cancelled context")
	}
}

// TestRunDeadlineStopsATPG: a deadline that fires while ATPG runs
// stops it at the next targeted fault, on both ATPG call sites (a
// whole run and a single StageATPG shard), so the run returns
// context.DeadlineExceeded soon after its deadline rather than when
// b12's ATPG finishes, seconds later.
func TestRunDeadlineStopsATPG(t *testing.T) {
	for _, req := range []Request{{Spec: "b12"}, {Spec: "b12", Stage: StageATPG}} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, err := Run(ctx, req, RunOptions{})
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stage %q: err = %v, want context.DeadlineExceeded", req.Stage, err)
		}
		if took >= 500*time.Millisecond {
			t.Fatalf("stage %q: a 100ms deadline returned after %v", req.Stage, took)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []Request{
		{},
		{Spec: "b01", Netlist: "INPUT(a)"},
		{Spec: "b01", Stage: "fill"},
		{Spec: "b01", ATPG: ATPGConfig{Shards: -1}},
		{Spec: "b01", ATPG: ATPGConfig{Shards: MaxShards + 1}},
		{Spec: "b01", Stage: StageATPG, ShardIndex: 1},
		{Spec: "b01", ShardIndex: 2},
		{Spec: "b01", Power: PowerConfig{Scheme: "bist"}},
		{Spec: "b01", Power: PowerConfig{Chains: -1}},
		{Spec: "b01", Power: PowerConfig{Tiles: -1}},
		{Spec: "b01", Power: PowerConfig{Tiles: MaxTiles + 1}},
	}
	for _, req := range cases {
		if err := req.Validate(); err == nil || !isBadRequest(err) {
			t.Errorf("Validate(%+v): want ErrBadRequest, got %v", req, err)
		}
	}
}

func TestRunBadInputs(t *testing.T) {
	cases := []Request{
		{Spec: "nosuch"},
		{Netlist: "not a netlist ((("},
		{Netlist: "OUTPUT(g)\ng = AND(a, b)"}, // undeclared nets
		{Spec: "b01", Filler: "nosuch"},
		{Spec: "b01", Orderer: "nosuch"},
	}
	for _, req := range cases {
		_, err := Run(context.Background(), req, RunOptions{})
		if err == nil || !isBadRequest(err) {
			t.Errorf("Run(%+v): want ErrBadRequest, got %v", req, err)
		}
	}
}

func TestMergeShardsErrors(t *testing.T) {
	if _, _, err := MergeShards(5, []*ATPGReport{nil}); err == nil {
		t.Error("nil shard report: want error")
	}
	if _, _, err := MergeShards(5, []*ATPGReport{{Cubes: []string{"0X1"}}}); err == nil {
		t.Error("width mismatch: want error")
	}
	if _, _, err := MergeShards(3, []*ATPGReport{{Cubes: []string{"0@1"}}}); err == nil {
		t.Error("bad cube text: want error")
	}
	set, agg, err := MergeShards(3, []*ATPGReport{
		{Cubes: []string{"0X1"}, Detected: 2},
		{Cubes: nil, Untestable: 1},
		{Cubes: []string{"1X0", "X01"}, Detected: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 || agg.Detected != 5 || agg.Untestable != 1 || agg.Shards != 3 {
		t.Errorf("merge = len %d, %+v", set.Len(), agg)
	}
}

func TestFinishEmptySet(t *testing.T) {
	req := Request{Spec: testSpec}
	c, err := ResolveCircuit(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	merged, agg, err := MergeShards(c.NumInputs(), []*ATPGReport{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Finish(context.Background(), req, c, merged, agg, nil, RunOptions{}); err == nil {
		t.Error("empty merged set: want error")
	}
}

func TestStepsAccounting(t *testing.T) {
	if got := (Request{Spec: "x"}).Steps(); got != 4 {
		t.Errorf("unsharded steps = %d, want 4", got)
	}
	if got := (Request{Spec: "x", ATPG: ATPGConfig{Shards: 5}}).Steps(); got != 8 {
		t.Errorf("5-shard steps = %d, want 8", got)
	}
	if got := (Request{Spec: "x", Stage: StageATPG}).Steps(); got != 2 {
		t.Errorf("shard-stage steps = %d, want 2", got)
	}
}

func TestParseScheme(t *testing.T) {
	for _, name := range []string{"", "los", "LOS"} {
		if s, err := ParseScheme(name); err != nil || s.String() != "LOS" {
			t.Errorf("ParseScheme(%q) = %v, %v", name, s, err)
		}
	}
	if s, err := ParseScheme("LoC"); err != nil || s.String() != "LOC" {
		t.Errorf("ParseScheme(LoC) = %v, %v", s, err)
	}
}
