package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/fill"
	"repro/internal/order"
	"repro/internal/power"
	"repro/internal/scan"
)

// RunOptions carries the serving layer's hooks into a run.
type RunOptions struct {
	// Progress, when non-nil, receives the cumulative completed step
	// count (out of Request.Steps()) as stages finish — the async job
	// layer reports it as the job's done count.
	Progress func(done int)
	// MaxGates, when positive, rejects resolved circuits with more
	// gates — the serving layer's shape limit, so a one-line spec
	// ("b19") cannot demand a 146k-gate run from a capped server.
	MaxGates int
}

func (o RunOptions) progress(done int) {
	if o.Progress != nil {
		o.Progress(done)
	}
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Info summarizes a circuit for the report.
func Info(c *circuit.Circuit) CircuitInfo {
	return CircuitInfo{
		Name:  c.Name,
		PIs:   len(c.PIs),
		FFs:   len(c.DFFs),
		Width: c.NumInputs(),
		Gates: c.NumLogicGates(),
		POs:   len(c.POs),
	}
}

func (r Request) seed() int64 {
	if r.Seed == 0 {
		return 1
	}
	return r.Seed
}

func (r Request) atpgOptions(shard int) atpg.Options {
	return atpg.Options{
		BacktrackLimit: r.ATPG.BacktrackLimit,
		MaxFaults:      r.ATPG.MaxFaults,
		MaxPatterns:    r.ATPG.MaxPatterns,
		NoCompact:      r.ATPG.NoCompact,
		Seed:           r.seed(),
		Shard:          shard,
		NumShards:      r.Shards(),
	}
}

func reportName(req Request, c *circuit.Circuit) string {
	if req.Name != "" {
		return req.Name
	}
	return c.Name
}

// addStats folds one shard's generation counters into the aggregate.
func addStats(agg *ATPGReport, st atpg.Stats) {
	agg.TotalFaults += st.TotalFaults
	agg.Detected += st.Detected
	agg.Untestable += st.Untestable
	agg.Aborted += st.Aborted
	agg.DroppedBySim += st.DroppedBySim
	agg.Merged += st.Merged
}

// shardStage names the timing entry for shard k of K.
func shardStage(k, total int) string {
	if total <= 1 {
		return "atpg"
	}
	return fmt.Sprintf("atpg/%d", k)
}

// Run executes the request locally: resolve the circuit, run every
// ATPG fault shard in order, then Finish (coverage curve, fill,
// power). StageATPG requests stop after their single shard and return
// its cubes for a remote merger.
func Run(ctx context.Context, req Request, opt RunOptions) (*Report, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	c, err := ResolveCircuit(req, opt.MaxGates)
	if err != nil {
		return nil, err
	}
	stages := []StageTiming{{Stage: "netlist", DurationMillis: millis(time.Since(start))}}
	opt.progress(1)

	if req.Stage == StageATPG {
		return runShard(ctx, req, c, stages, opt)
	}

	shards := req.Shards()
	merged := cube.NewSet(c.NumInputs())
	agg := ATPGReport{Shards: shards}
	for k := 0; k < shards; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		set, st, err := atpg.GenerateContext(ctx, c, req.atpgOptions(k))
		if err != nil {
			return nil, err
		}
		addStats(&agg, st)
		for _, cb := range set.Cubes {
			merged.Append(cb)
		}
		stages = append(stages, StageTiming{Stage: shardStage(k, shards), DurationMillis: millis(time.Since(t0))})
		opt.progress(1 + k + 1)
	}
	return Finish(ctx, req, c, merged, agg, stages, opt)
}

// runShard answers a StageATPG request: one fault shard's cubes plus
// its counters, always carrying the cube matrix (it is the payload a
// coordinator merges).
func runShard(ctx context.Context, req Request, c *circuit.Circuit, stages []StageTiming, opt RunOptions) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	set, st, err := atpg.GenerateContext(ctx, c, req.atpgOptions(req.ShardIndex))
	if err != nil {
		return nil, err
	}
	stages = append(stages, StageTiming{
		Stage:          shardStage(req.ShardIndex, req.Shards()),
		DurationMillis: millis(time.Since(t0)),
	})
	opt.progress(2)
	rep := &Report{
		Name:    reportName(req, c),
		Circuit: Info(c),
		ATPG: &ATPGReport{
			Shards:   req.Shards(),
			Patterns: set.Len(),
			Coverage: st.Coverage(),
			XPercent: set.XPercent(),
			Cubes:    cube.PackRows(set).Strings(),
		},
		Stages: stages,
	}
	addStats(rep.ATPG, st)
	return rep, nil
}

// MergeShards reassembles fanned-out shard reports in shard order into
// the merged cube set and the summed generation counters — the inputs
// Finish takes. It errors on a missing report or a width mismatch
// (protocol corruption, not a user error).
func MergeShards(width int, shards []*ATPGReport) (*cube.Set, ATPGReport, error) {
	merged := cube.NewSet(width)
	agg := ATPGReport{Shards: len(shards)}
	for i, sh := range shards {
		if sh == nil {
			return nil, agg, fmt.Errorf("pipeline: shard %d carries no atpg report", i)
		}
		agg.TotalFaults += sh.TotalFaults
		agg.Detected += sh.Detected
		agg.Untestable += sh.Untestable
		agg.Aborted += sh.Aborted
		agg.DroppedBySim += sh.DroppedBySim
		agg.Merged += sh.Merged
		if len(sh.Cubes) == 0 {
			continue
		}
		set, err := cube.ParseSet(sh.Cubes...)
		if err != nil {
			return nil, agg, fmt.Errorf("pipeline: shard %d cubes: %w", i, err)
		}
		if set.Width != width {
			return nil, agg, fmt.Errorf("pipeline: shard %d width %d, want %d", i, set.Width, width)
		}
		for _, cb := range set.Cubes {
			merged.Append(cb)
		}
	}
	return merged, agg, nil
}

// Finish runs the back half of the pipeline on a merged cube set: the
// fault-coverage curve, the fill stage and the power stage. Both the
// local Run and the coordinator's shard merger call it, so a sharded
// fleet run and a single-process run produce the identical report (up
// to stage timings) by construction. The agg counters come from
// addStats/MergeShards; stages is the timing prefix accumulated so
// far.
func Finish(ctx context.Context, req Request, c *circuit.Circuit, set *cube.Set, agg ATPGReport, stages []StageTiming, opt RunOptions) (*Report, error) {
	if set.Len() == 0 {
		return nil, fmt.Errorf("pipeline: atpg produced no patterns for %q", c.Name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	base := req.Shards() + 1 // netlist + shards already done
	seed := req.seed()

	// Resolve the fill-stage algorithms before the (expensive) coverage
	// curve, so a bad name fails fast.
	ordName := req.Orderer
	if ordName == "" {
		ordName = "tool"
	}
	ord, err := order.ByName(ordName, seed)
	if err != nil {
		return nil, badf("%v", err)
	}
	// DP-fill is pinned to one core shard (the serving layer is the
	// concurrency layer), exactly as the fill service resolves it, so
	// this stage is byte-identical to /v1/fill and /v1/batch.
	fl, err := fill.ByName(req.Filler, seed, core.Options{Shards: 1})
	if err != nil {
		return nil, badf("%v", err)
	}

	agg.Patterns = set.Len()
	agg.XPercent = set.XPercent()
	if den := agg.Detected + agg.Aborted; den > 0 {
		agg.Coverage = float64(agg.Detected) / float64(den)
	}
	t0 := time.Now()
	curve, err := atpg.CoverageCurve(c, set)
	if err != nil {
		return nil, fmt.Errorf("pipeline: coverage curve: %w", err)
	}
	agg.Curve = make([]CurvePoint, len(curve))
	for i, pt := range curve {
		agg.Curve[i] = CurvePoint(pt)
	}
	if req.IncludeCubes {
		agg.Cubes = cube.PackRows(set).Strings()
	}
	stages = append(stages, StageTiming{Stage: "curve", DurationMillis: millis(time.Since(t0))})

	// Fill stage: pack once, order and fill that snapshot — the exact
	// sequence the batch engine runs for /v1/fill and /v1/batch,
	// reporting the filler's own toggle count.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	p := cube.Pack(set)
	perm, err := ord.OrderPacked(p)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s ordering: %w", ord.Name(), err)
	}
	filled, err := fl.Fill(p, perm)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", fl.Name(), err)
	}
	fillRep := &FillReport{
		Orderer:  ord.Name(),
		Filler:   fl.Name(),
		Rows:     set.Len(),
		Width:    set.Width,
		XPercent: set.XPercent(),
		Perm:     perm,
		Peak:     filled.Peak,
		Total:    filled.Total,
		Profile:  filled.Profile,
	}
	if req.IncludeCubes {
		fillRep.Cubes = filled.Rows.Strings()
	}
	stages = append(stages, StageTiming{Stage: "fill", DurationMillis: millis(time.Since(t0))})
	opt.progress(base + 1)

	// Power stage: shift toggles, capture power, IR-drop on the filled,
	// applied-order set.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	// The power models simulate trits, so the filled planes unpack here.
	powRep, err := evalPower(req, c, filled.Set())
	if err != nil {
		return nil, err
	}
	if powRep.StatePreserving {
		powRep.CapturePeakToggles = filled.Peak
	}
	stages = append(stages, StageTiming{Stage: "power", DurationMillis: millis(time.Since(t0))})
	opt.progress(base + 2)

	return &Report{
		Name:    reportName(req, c),
		Circuit: Info(c),
		ATPG:    &agg,
		Fill:    fillRep,
		Power:   powRep,
		Stages:  stages,
	}, nil
}

// evalPower runs the evaluation stage on the fully specified set.
func evalPower(req Request, c *circuit.Circuit, filled *cube.Set) (*PowerReport, error) {
	scheme, err := ParseScheme(req.Power.Scheme)
	if err != nil {
		return nil, err
	}
	chains := req.Power.Chains
	if chains == 0 {
		chains = 1
	}
	tiles := req.Power.Tiles
	if tiles == 0 {
		tiles = 4
	}
	plan, err := scan.NewPlan(c, scheme, chains)
	if err != nil {
		return nil, badf("%v", err)
	}
	rep := &PowerReport{
		Scheme:          scheme.String(),
		Chains:          len(plan.Chains),
		ShiftCycles:     plan.ShiftCycles,
		TestCycles:      plan.TestCycles(filled.Len()),
		StatePreserving: plan.StatePreserving(),
	}
	for _, v := range filled.Cubes {
		t, err := plan.ShiftToggleBound(c, v)
		if err != nil {
			return nil, fmt.Errorf("pipeline: shift toggles: %w", err)
		}
		rep.ShiftTotal += t
		if t > rep.ShiftPeak {
			rep.ShiftPeak = t
		}
	}
	if n := filled.Len(); n > 0 {
		rep.ShiftAvg = float64(rep.ShiftTotal) / float64(n)
	}
	model := power.Extract(c, power.Default45nm())
	cr, err := model.CapturePower(filled)
	if err != nil {
		return nil, fmt.Errorf("pipeline: capture power: %w", err)
	}
	rep.CapturePeakUW = cr.PeakUW
	rep.CaptureAvgUW = cr.AvgUW
	rep.PeakCycle = cr.PeakCycle
	ir, err := model.IRDrop(c, filled, tiles)
	if err != nil {
		return nil, fmt.Errorf("pipeline: ir-drop: %w", err)
	}
	rep.IRDrop = &IRDropReport{
		Tiles:        ir.Tiles,
		WorstUA:      ir.WorstUA,
		MeanUA:       ir.MeanUA,
		HotspotRatio: ir.HotspotRatio(),
		PeakTileX:    ir.PeakTileX,
		PeakTileY:    ir.PeakTileY,
		PeakCycle:    ir.PeakCycle,
	}
	return rep, nil
}
