package main

// The traced run. It replays a seeded sample of a workload's requests
// one at a time and records a span around each call into a layer's
// public API — from these files, not from inside the program. Each
// request goes once through the live loopback stack (the client's
// round trip) and once through a mirror server's handler into an
// in-memory recorder (the server's handling); the calls below the
// handler — cube parse, engine run, ordering, the DP core, rendering,
// the pipeline stages — are then replayed directly on the same input
// as logical children of the handler span. The mirror has seen the
// same requests in the same order as the live server, so its cache
// answers alike.
//
// Because children are replayed after their parent rather than inside
// it, a span's self time is its duration minus the union of its
// children's own intervals (see selfTimes). The run also replays the
// sample untraced on a fresh stack; the difference between the two
// passes' round trips is the tracing overhead.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/engine"
	"repro/internal/fill"
	"repro/internal/netgen"
	"repro/internal/order"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/scan"
	"repro/internal/server"
)

// traceSample is how many requests of each workload the traced run
// replays; each pass takes a few seconds on a 2-CPU machine.
var traceSample = map[string]int{"fill-cold": 24, "fill-hot": 400, "pipeline": 30, "coord-batch": 16}

// span is one timed call of the traced replay.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans and per-call values in memory until the run
// ends.
type recorder struct {
	t0     time.Time
	spans  []span
	values map[string][]float64
	sums   map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), values: map[string][]float64{}, sums: map[string]float64{}}
}

func (r *recorder) begin(req, parent int, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = int64(time.Since(r.t0)) }

// do runs fn inside a new span and returns the span's ID.
func (r *recorder) do(req, parent int, name string, fn func() error) (int, error) {
	id := r.begin(req, parent, name)
	err := fn()
	r.end(id)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return id, err
}

// record adds a span timed elsewhere (concurrent calls) and returns
// its ID.
func (r *recorder) record(req, parent int, name string, start, end time.Time) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return len(r.spans)
}

func (r *recorder) dur(id int) time.Duration { return r.spans[id-1].dur() }

// self returns one span's self time (see selfTimes).
func (r *recorder) self(id int) time.Duration { return r.selfTimes()[id] }

// value records one per-call sample of a metric; add accumulates a
// total for a ratio.
func (r *recorder) value(name string, v float64) { r.values[name] = append(r.values[name], v) }
func (r *recorder) add(name string, v float64)   { r.sums[name] += v }

// replayer replays one request at a time against the live stack and
// the mirror handler.
type replayer struct {
	ctx  context.Context
	rec  *recorder
	live *stack
	// mirrors shadow the live fill servers, one per fleet worker.
	mirrors []http.Handler
	// eng replays engine.Run with the serving tier's worker bound.
	eng *engine.Engine
}

// traced runs the untraced and traced passes over the workload's
// sample and reports the per-layer metrics.
func traced(ctx context.Context, w workload, m *meta) (result, []metricRow, error) {
	n := traceSample[m.Workload]
	// Pass 1: untraced round trips on a fresh stack.
	st, err := newStack(w.fleet(), 1)
	if err != nil {
		return result{}, nil, err
	}
	if err := w.warm(ctx, st, 1); err != nil {
		st.close()
		return result{}, nil, fmt.Errorf("warm-up: %w", err)
	}
	var plain []float64
	for i := range n {
		body := w.request(i)
		runtime.GC() // every request of both passes starts from a collected heap
		t0 := time.Now()
		if err := call(ctx, st.c, body); err != nil {
			st.close()
			return result{}, nil, fmt.Errorf("untraced request %d: %w", i, err)
		}
		plain = append(plain, ms(time.Since(t0)))
	}
	st.close()

	// Pass 2: traced replay on a fresh stack plus mirror servers.
	if st, err = newStack(w.fleet(), 1); err != nil {
		return result{}, nil, err
	}
	defer st.close()
	if err := w.warm(ctx, st, 1); err != nil {
		return result{}, nil, fmt.Errorf("warm-up: %w", err)
	}
	p := &replayer{ctx: ctx, rec: newRecorder(), live: st, eng: engine.New(0)}
	mcfg := server.Config{}
	if w.fleet() > 0 {
		mcfg.Workers = 1 // mirrors of fleet workers
		p.eng = engine.New(1)
	}
	for range max(w.fleet(), 1) {
		mirror, err := server.New(mcfg)
		if err != nil {
			return result{}, nil, err
		}
		defer mirror.Close()
		if err := w.warm(ctx, &stack{c: handlerClient(mirror.Handler())}, 1); err != nil {
			return result{}, nil, fmt.Errorf("mirror warm-up: %w", err)
		}
		p.mirrors = append(p.mirrors, mirror.Handler())
	}
	cache0 := st.stats()
	var co0 cluster.Stats
	if st.co != nil {
		co0 = st.co.Stats()
	}
	var failures []error
	for i := range n {
		body := w.request(i)
		runtime.GC()
		var err error
		switch req := body.(type) {
		case client.FillRequest:
			err = p.fill(i, req)
		case client.PipelineRequest:
			err = p.pipeline(i, req)
		case client.BatchRequest:
			err = p.batch(i, req)
		}
		if err != nil {
			failures = append(failures, fmt.Errorf("request %d: %w", i, err))
		}
	}
	cache1 := st.stats()
	p.rec.add("server.cache_hits", float64(cache1.CacheHits-cache0.CacheHits))
	p.rec.add("server.cache_lookups", float64(cache1.CacheHits+cache1.CacheMisses-cache0.CacheHits-cache0.CacheMisses))
	p.rec.value("server.cache_entries", float64(cache1.CacheEntries))
	if st.co != nil {
		co1 := st.co.Stats()
		p.rec.value("cluster.hedges", float64(co1.HedgesLaunched-co0.HedgesLaunched))
		p.rec.value("cluster.fallbacks", float64(co1.Fallbacks-co0.Fallbacks))
		p.rec.add("cluster.affinity_hits", float64(co1.AffinityHits-co0.AffinityHits))
		p.rec.add("cluster.affinity_lookups", float64(co1.AffinityHits+co1.AffinityMisses-co0.AffinityHits-co0.AffinityMisses))
	}

	values := p.rec.metrics()
	var rts []float64
	for _, s := range p.rec.spans {
		if s.Name == "client.roundtrip" {
			rts = append(rts, ms(s.dur()))
		}
	}
	if base := median(plain); base > 0 && len(rts) > 0 {
		values["trace.overhead_ms"] = median(rts) - base
		values["trace.overhead_pct"] = 100 * (median(rts) - base) / base
	}

	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", m.Workload, m.Seed))
	layers, err := p.rec.write(path)
	if err != nil {
		return result{}, nil, err
	}
	m.SpanFile = path
	m.Sent, m.Failed = n, min(len(failures), n)
	m.Succeeded = n - m.Failed
	m.ErrorRate = float64(m.Failed) / float64(n)
	m.Samples = len(rts)
	for k, err := range failures {
		if k == 5 {
			break
		}
		m.Failures = append(m.Failures, err.Error())
	}
	res := result{Correct: m.Failed == 0, Attempted: n, Failed: m.Failed, Metrics: map[string]metricValue{}}
	var rows []metricRow
	for _, lm := range layerMetrics {
		v := values[lm.name]
		res.Metrics[lm.name] = metricValue{v, lm.unit}
		rows = append(rows, metricRow{lm.name, v, lm.unit, "moves " + lm.moves + " on " + lm.on})
	}
	for _, l := range layers {
		rows = append(rows, metricRow{"self." + l.Layer, l.SelfMS, "ms", fmt.Sprintf("%.1f%% of traced time, %d calls", l.Share, l.Calls)})
	}
	return res, rows, nil
}

// call sends one request untraced.
func call(ctx context.Context, c *client.Client, body any) error {
	var err error
	switch req := body.(type) {
	case client.FillRequest:
		_, err = c.Fill(ctx, req)
	case client.PipelineRequest:
		_, err = c.Pipeline(ctx, req)
	case client.BatchRequest:
		_, err = c.Batch(ctx, req)
	default:
		err = fmt.Errorf("no client call for %T", body)
	}
	return err
}

// exchange times the client-side encode, the mirror's handling and the
// client-side decode of one request as children of its round trip rt,
// and records the part of the round trip spent outside all three:
// connection, HTTP framing and scheduling.
func (p *replayer) exchange(i, rt int, path string, req, out any) (handle int, err error) {
	var body, resp []byte
	enc, err := p.rec.do(i, rt, "client.encode", func() (err error) {
		body, err = json.Marshal(req)
		return err
	})
	if err != nil {
		return 0, err
	}
	status := 0
	handle, _ = p.rec.do(i, rt, "server.handle", func() error {
		status, resp = serveRecorded(p.mirrors[0], path, body)
		return nil
	})
	if status != http.StatusOK {
		return 0, fmt.Errorf("mirror answered %d: %s", status, strings.TrimSpace(string(resp)))
	}
	dec, err := p.rec.do(i, rt, "client.decode", func() error { return json.Unmarshal(resp, out) })
	if err != nil {
		return 0, err
	}
	p.rec.value("client.request_kb", float64(len(body))/1024)
	p.rec.value("client.response_kb", float64(len(resp))/1024)
	p.rec.value("client.transport_ms", ms(p.rec.dur(rt)-p.rec.dur(enc)-p.rec.dur(handle)-p.rec.dur(dec)))
	return handle, nil
}

func (p *replayer) fill(i int, req client.FillRequest) error {
	var live *client.FillResponse
	rt, err := p.rec.do(i, 0, "client.roundtrip", func() (err error) {
		live, err = p.live.c.Fill(p.ctx, req)
		return err
	})
	if err != nil {
		return err
	}
	var mir client.FillResponse
	handle, err := p.exchange(i, rt, "/v1/fill", req, &mir)
	if err != nil {
		return err
	}
	if digest(live) != digest(&mir) || live.Cached != mir.Cached {
		return errors.New("live and mirror servers answered differently")
	}
	var set *cube.Set
	if _, err := p.rec.do(i, handle, "cube.parse", func() (err error) {
		set, err = cube.ParseSet(req.Cubes...)
		return err
	}); err != nil {
		return err
	}
	if !mir.Cached {
		if err := p.engineRun(i, handle, []*cube.Set{set}, []string{req.Orderer}); err != nil {
			return err
		}
	}
	if !req.OmitCubes {
		return p.render(i, handle, mir.Cubes)
	}
	return nil
}

// render times Cube.String over an answer's output cubes.
func (p *replayer) render(i, parent int, cubes []string) error {
	out, err := cube.ParseSet(cubes...)
	if err != nil {
		return err
	}
	_, err = p.rec.do(i, parent, "cube.render", func() error {
		for _, c := range out.Cubes {
			_ = c.String()
		}
		return nil
	})
	return err
}

// engineRun replays the engine run the server makes for these jobs —
// DP-fill pinned to one shard with a trace sink, as the server builds
// it — then the calls inside each job one by one.
func (p *replayer) engineRun(i, parent int, sets []*cube.Set, orderers []string) error {
	jobs := make([]engine.Job, len(sets))
	for k, set := range sets {
		ord, err := order.ByName(orderers[k], 1)
		if err != nil {
			return err
		}
		jobs[k] = engine.Job{Set: set, Orderer: ord, Filler: fill.DPWith(core.Options{Shards: 1, Trace: &core.Trace{}}), Timeout: 30 * time.Second}
	}
	var res []engine.Result
	run, err := p.rec.do(i, parent, "engine.run", func() error {
		res = p.eng.Run(p.ctx, jobs)
		return engine.FirstErr(res)
	})
	if err != nil {
		return err
	}
	var busy time.Duration
	for _, r := range res {
		p.rec.value("engine.job_ms", ms(r.Duration))
		busy += r.Duration
	}
	// Queue wait: the run's wall time beyond its jobs' work spread over
	// the worker slots they could use.
	slots := time.Duration(min(p.eng.Bound(), len(jobs)))
	p.rec.value("engine.queue_wait_ms", ms(p.rec.dur(run)-busy/slots))
	for k, set := range sets {
		if err := p.orderFill(i, run, set, orderers[k]); err != nil {
			return err
		}
	}
	return nil
}

// orderSpan names each orderer's span.
var orderSpan = map[string]string{"tool": "order.tool", "xstat": "order.xstat", "i": "order.iorder"}

// orderFill replays one job's ordering, reorder, DP core and toggle
// count.
func (p *replayer) orderFill(i, parent int, set *cube.Set, orderer string) error {
	var perm []int
	iterations := 0
	if _, err := p.rec.do(i, parent, orderSpan[orderer], func() error {
		if orderer == "i" {
			var tr []order.Trace
			var err error
			perm, tr, err = order.InterleavedTrace(set)
			iterations = len(tr)
			return err
		}
		ord, err := order.ByName(orderer, 1)
		if err != nil {
			return err
		}
		perm, err = ord.Order(set)
		return err
	}); err != nil {
		return err
	}
	if orderer == "i" {
		p.rec.value("order.iorder_iterations", float64(iterations))
	}
	var ordered, filled *cube.Set
	p.rec.do(i, parent, "cube.reorder", func() error {
		ordered = set.Reorder(perm)
		return nil
	})
	tr := &core.Trace{}
	if _, err := p.rec.do(i, parent, "core.fill", func() (err error) {
		filled, _, err = core.FillWith(ordered, core.Options{Shards: 1, Trace: tr})
		return err
	}); err != nil {
		return err
	}
	for _, st := range tr.StageNS() {
		switch st.Stage {
		case "pack", "scan", "reconstruct", "unpack", "other":
			p.rec.value("core."+st.Stage+"_ms", float64(st.NS)/1e6)
		}
	}
	p.rec.value("core.intervals", float64(tr.Intervals))
	p.rec.value("core.forced_unit", float64(tr.ForcedUnit))
	p.rec.value("bcp.bound_ms", float64(tr.BoundNS)/1e6)
	p.rec.value("bcp.assign_ms", float64(tr.AssignNS)/1e6)
	p.rec.value("bcp.windows_scanned", float64(tr.BCP.WindowsScanned))
	p.rec.value("bcp.suffix_breaks", float64(tr.BCP.SuffixBreaks))
	p.rec.add("bcp.starts_skipped", float64(tr.BCP.StartsSkipped))
	p.rec.add("bcp.starts", float64(tr.BCP.StartsScanned+tr.BCP.StartsSkipped))
	p.rec.do(i, parent, "cube.toggle_stats", func() error {
		filled.ToggleStats()
		return nil
	})
	return nil
}

func (p *replayer) pipeline(i int, req client.PipelineRequest) error {
	var live *client.PipelineReport
	rt, err := p.rec.do(i, 0, "client.roundtrip", func() (err error) {
		live, err = p.live.c.Pipeline(p.ctx, req)
		return err
	})
	if err != nil {
		return err
	}
	var mir client.PipelineReport
	handle, err := p.exchange(i, rt, "/v1/pipeline", req, &mir)
	if err != nil {
		return err
	}
	if err := checkPipeline(live); err != nil {
		return err
	}
	if !sameReport(live, &mir) {
		return errors.New("live and mirror servers answered differently")
	}

	var rep *pipeline.Report
	run, err := p.rec.do(i, handle, "pipeline.run", func() (err error) {
		rep, err = pipeline.Run(p.ctx, req, pipeline.RunOptions{})
		return err
	})
	if err != nil {
		return err
	}
	for _, st := range rep.Stages {
		if st.Stage == "fill" {
			p.rec.value("pipeline.fill_ms", st.DurationMillis)
		}
	}
	// The stages again, one public call at a time, as Run makes them.
	var c *circuit.Circuit
	if _, err := p.rec.do(i, run, "netgen.generate", func() error {
		prof, err := netgen.ParseSpec(req.Spec)
		if err != nil {
			return err
		}
		c, err = netgen.Generate(prof)
		return err
	}); err != nil {
		return err
	}
	var set *cube.Set
	var st atpg.Stats
	if _, err := p.rec.do(i, run, "atpg.generate", func() (err error) {
		set, st, err = atpg.Generate(c, atpg.Options{Seed: 1})
		return err
	}); err != nil {
		return err
	}
	p.rec.value("atpg.patterns", float64(st.Patterns))
	p.rec.value("atpg.faults", float64(st.TotalFaults))
	p.rec.value("atpg.aborted", float64(st.Aborted))
	p.rec.add("atpg.dropped_by_sim", float64(st.DroppedBySim))
	p.rec.add("atpg.detected", float64(st.Detected))
	if _, err := p.rec.do(i, run, "atpg.curve", func() (err error) {
		_, err = atpg.CoverageCurve(c, set)
		return err
	}); err != nil {
		return err
	}
	filled, err := cube.ParseSet(rep.Fill.Cubes...)
	if err != nil {
		return err
	}
	if _, err := p.rec.do(i, run, "scan.shift", func() error {
		plan, err := scan.NewPlan(c, scan.LOS, 1)
		if err != nil {
			return err
		}
		for _, v := range filled.Cubes {
			if _, err := plan.ShiftToggleBound(c, v); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var model *power.Model
	if _, err := p.rec.do(i, run, "power.capture", func() (err error) {
		model = power.Extract(c, power.Default45nm())
		_, err = model.CapturePower(filled)
		return err
	}); err != nil {
		return err
	}
	_, err = p.rec.do(i, run, "power.irdrop", func() (err error) {
		_, err = model.IRDrop(c, filled, 4)
		return err
	})
	return err
}

// sameReport compares two pipeline reports with their stage timings
// projected out.
func sameReport(a, b *client.PipelineReport) bool {
	ca, cb := *a, *b
	ca.Stages, cb.Stages = nil, nil
	ja, errA := json.Marshal(ca)
	jb, errB := json.Marshal(cb)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

func (p *replayer) batch(i int, req client.BatchRequest) error {
	req.Debug = true // the coordinator returns its ShardTrace breakdown
	var live *client.BatchResponse
	rt, err := p.rec.do(i, 0, "client.roundtrip", func() (err error) {
		live, err = p.live.c.Batch(p.ctx, req)
		return err
	})
	if err != nil {
		return err
	}
	if live.Failed != 0 || len(live.Shards) == 0 {
		return fmt.Errorf("coordinator answered %d failed jobs over %d shards", live.Failed, len(live.Shards))
	}
	// Client-side encode and decode of the coordinator's request and
	// answer.
	if _, err := p.rec.do(i, rt, "client.encode", func() error {
		body, err := json.Marshal(req)
		p.rec.value("client.request_kb", float64(len(body))/1024)
		return err
	}); err != nil {
		return err
	}
	answer, err := json.Marshal(live)
	if err != nil {
		return err
	}
	p.rec.value("client.response_kb", float64(len(answer))/1024)
	if _, err := p.rec.do(i, rt, "client.decode", func() error {
		return json.Unmarshal(answer, new(client.BatchResponse))
	}); err != nil {
		return err
	}

	slowest := 0.0
	for _, sh := range live.Shards {
		d, wk := float64(sh.DispatchNS)/1e6, float64(sh.WorkerNS)/1e6
		p.rec.value("cluster.dispatch_ms", d)
		p.rec.value("cluster.worker_ms", wk)
		p.rec.value("cluster.overhead_ms", d-wk)
		p.rec.value("cluster.attempts_per_shard", float64(sh.Attempts))
		slowest = max(slowest, d)
	}
	p.rec.value("cluster.hop_ms", ms(p.rec.dur(rt))-slowest)

	// Every shard again on the mirror of the worker that answered it,
	// concurrently as the fleet ran them, then the layers under each.
	type shardRun struct {
		sub        client.BatchRequest
		status     int
		resp       []byte
		start, end time.Time
	}
	runs := make([]shardRun, len(live.Shards))
	var wg sync.WaitGroup
	for k, sh := range live.Shards {
		runs[k].sub = client.BatchRequest{Jobs: req.Jobs[sh.Lo:sh.Hi], Debug: true}
		body, err := json.Marshal(runs[k].sub)
		if err != nil {
			return err
		}
		mirror := p.mirrors[p.live.workerIndex(sh.Worker)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &runs[k]
			r.start = time.Now()
			r.status, r.resp = serveRecorded(mirror, "/v1/batch", body)
			r.end = time.Now()
		}()
	}
	wg.Wait()
	handles := make([]int, len(runs))
	for k, r := range runs {
		handles[k] = p.rec.record(i, rt, "server.handle", r.start, r.end)
	}
	p.rec.value("client.transport_ms", ms(p.rec.self(rt)))
	for k, r := range runs {
		sh := live.Shards[k]
		var mir client.BatchResponse
		if r.status != http.StatusOK {
			return fmt.Errorf("mirror answered %d", r.status)
		}
		if err := json.Unmarshal(r.resp, &mir); err != nil {
			return err
		}
		sets := make([]*cube.Set, len(r.sub.Jobs))
		orderers := make([]string, len(r.sub.Jobs))
		for j, job := range r.sub.Jobs {
			it := mir.Results[j]
			if it.Error != "" || digest(it.Result) != digest(live.Results[sh.Lo+j].Result) {
				return fmt.Errorf("job %d: mirror and coordinator answered differently", sh.Lo+j)
			}
			if _, err := p.rec.do(i, handles[k], "cube.parse", func() (err error) {
				sets[j], err = cube.ParseSet(job.Cubes...)
				return err
			}); err != nil {
				return err
			}
			orderers[j] = job.Orderer
		}
		if err := p.engineRun(i, handles[k], sets, orderers); err != nil {
			return err
		}
		for _, it := range mir.Results {
			if len(it.Result.Cubes) == 0 {
				continue // omit_cubes: the server renders nothing
			}
			if err := p.render(i, handles[k], it.Result.Cubes); err != nil {
				return err
			}
		}
	}
	return nil
}

// metrics reduces the recorded spans and values to the per-layer
// metrics: span means per call, value means, ratios of totals, and the
// server's self time.
func (r *recorder) metrics() map[string]float64 {
	durs := map[string][]float64{}
	for _, s := range r.spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	out := map[string]float64{}
	for name, ds := range durs {
		out[name+"_ms"] = mean(ds)
	}
	for name, vs := range r.values {
		out[name] = mean(vs)
	}
	ratio := func(name, num, den string) {
		if d := r.sums[den]; d > 0 {
			out[name] = r.sums[num] / d
		}
	}
	ratio("server.cache_hit_ratio", "server.cache_hits", "server.cache_lookups")
	ratio("bcp.start_skip_ratio", "bcp.starts_skipped", "bcp.starts")
	ratio("atpg.sim_drop_ratio", "atpg.dropped_by_sim", "atpg.detected")
	ratio("cluster.affinity_hit_ratio", "cluster.affinity_hits", "cluster.affinity_lookups")
	self := r.selfTimes()
	var handle []float64
	for _, s := range r.spans {
		if s.Name == "server.handle" {
			handle = append(handle, ms(self[s.ID]))
		}
	}
	if len(handle) > 0 {
		out["server.self_ms"] = mean(handle)
	}
	return out
}

// selfTimes maps each span ID to its duration minus the time its
// children cover. Children are replayed outside their parent's
// interval, so coverage is the union of the children's own intervals:
// concurrent children (the shards of a batch) count once.
func (r *recorder) selfTimes() map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(r.spans))
	for _, s := range r.spans {
		self[s.ID] = s.dur() - covered(kids[s.ID])
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var total, lo, hi int64
	for k, s := range spans {
		switch {
		case k == 0:
			lo, hi = s.Start, s.End
		case s.Start > hi:
			total += hi - lo
			lo, hi = s.Start, s.End
		default:
			hi = max(hi, s.End)
		}
	}
	if len(spans) > 0 {
		total += hi - lo
	}
	return time.Duration(total)
}

// layerTime is one layer's self time over the traced pass.
type layerTime struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share_pct"`
	Calls  int     `json:"calls"`
}

// write saves every span plus each layer's self time, and returns the
// layer table (largest first).
func (r *recorder) write(path string) ([]layerTime, error) {
	self := r.selfTimes()
	byLayer := map[string]*layerTime{}
	total := 0.0
	for _, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		lt := byLayer[layer]
		if lt == nil {
			lt = &layerTime{Layer: layer}
			byLayer[layer] = lt
		}
		lt.SelfMS += ms(self[s.ID])
		lt.Calls++
		total += ms(self[s.ID])
	}
	var layers []layerTime
	for _, lt := range byLayer {
		if total > 0 {
			lt.Share = 100 * lt.SelfMS / total
		}
		layers = append(layers, *lt)
	}
	sort.Slice(layers, func(a, b int) bool { return layers[a].SelfMS > layers[b].SelfMS })
	data, err := json.Marshal(map[string]any{"layers": layers, "spans": r.spans})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return layers, os.WriteFile(path, data, 0o644)
}
