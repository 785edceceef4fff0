package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// reply is what the closed loop keeps of one answered request: its
// latency, its outcome, the reported peaks, and whatever the oracle
// needs to check it after the timed window.
type reply struct {
	i     int
	lat   time.Duration
	err   error
	peaks []int

	perm    []int                  // fill-cold
	peak    int                    // fill-cold
	fresh   bool                   // fill-hot: a fresh set, checked later
	digests []uint64               // fill-hot (one), coord-batch (one per job)
	report  *client.PipelineReport // pipeline
}

// workload is one named traffic mix. Request i of a run is a pure
// function of (seed, i), so a run draws its requests in a fixed,
// seed-determined order.
type workload interface {
	// fleet is how many dpfilld workers sit behind a coordinator; 0
	// serves one dpfilld directly.
	fleet() int
	// warm sends the set-up traffic through a fresh stack.
	warm(ctx context.Context, st *stack, clients int) error
	// request returns request i's payload.
	request(i int) any
	// send sends request i through c and keeps what the oracle needs.
	send(ctx context.Context, c *client.Client, i int) reply
	// verify checks every reply against the oracle, outside the timed
	// window, and returns one error per failed reply.
	verify(ctx context.Context, replies []reply) []error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fill-cold", "fill-hot", "pipeline", "coord-batch"}

// peakSample is how many leading requests of each workload's sequence
// peak_toggles_mean averages over: whole cycles of the request mix that
// every run completes, so the paper's objective is measured on the same
// fills however fast a run goes.
var peakSample = map[string]int{"fill-cold": 256, "fill-hot": 2000, "pipeline": 160, "coord-batch": 160}

// newWorkload generates a workload's inputs from the seed.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "fill-cold":
		return newFillCold(seed), nil
	case "fill-hot":
		return newFillHot(seed), nil
	case "pipeline":
		return &pipelineMix{seed: seed}, nil
	case "coord-batch":
		return newCoordBatch(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// parallel runs fn(0..n-1) on `workers` goroutines and returns the
// first error.
func parallel(workers, n int, fn func(k int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(k)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verifyEach runs check on every reply across the machine's CPUs and
// collects the failures.
func verifyEach(replies []reply, check func(r *reply) error) []error {
	errs := make([]error, len(replies))
	_ = parallel(runtime.NumCPU(), len(replies), func(k int) error {
		if err := check(&replies[k]); err != nil {
			errs[k] = fmt.Errorf("request %d: %w", replies[k].i, err)
		}
		return nil
	})
	var out []error
	for _, err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// ---- fill-cold --------------------------------------------------------

const coldBases = 32

// coldOrderers mixes tool:xstat:i at 2:1:1. Base b of block v uses
// entry (b+v) mod 4, so every block holds each entry coldBases/4 times
// and every base cycles through all of them in four blocks.
var coldOrderers = [4]string{"tool", "tool", "xstat", "i"}

// fillCold sends every request a fresh ATPG-scale set — 256–1024 pins ×
// 500–2000 vectors at 75–90% X — with omit_cubes, so every cache lookup
// misses and ordering plus the DP core do the work.
type fillCold struct {
	seed   uint64
	sets   [][]string
	starts []int
	warms  [][]string
}

func newFillCold(seed uint64) *fillCold {
	sets := cubeSets(seed, coldBases, bounds{256, 1024}, bounds{500, 2000}, bounds{0.75, 0.90})
	return &fillCold{
		seed:   seed,
		sets:   sets,
		starts: offsets(seed, sets),
		warms:  warmSets(seed, 4, 512, 1000),
	}
}

// warmSets renders k small sets for set-up traffic, from a stream the
// timed requests never use.
func warmSets(seed uint64, k, pins, vectors int) [][]string {
	out := make([][]string, k)
	for i := range out {
		out[i] = cubeSet(rng(seed, streamWarm, uint64(pins)<<32|uint64(i)), shape{pins: pins, vectors: vectors, x: 0.8})
	}
	return out
}

func (w *fillCold) fleet() int { return 0 }

func (w *fillCold) fillRequest(i int) client.FillRequest {
	v, k := i/coldBases, i%coldBases
	b := blockOrder(w.seed, coldBases, v)[k]
	return client.FillRequest{
		Cubes:     variant(w.sets, w.starts, b, v),
		Orderer:   coldOrderers[(b+v)%len(coldOrderers)],
		Filler:    "dp",
		OmitCubes: true,
	}
}

func (w *fillCold) request(i int) any { return w.fillRequest(i) }

func (w *fillCold) warm(ctx context.Context, st *stack, clients int) error {
	return parallel(clients, len(w.warms), func(k int) error {
		_, err := st.c.Fill(ctx, client.FillRequest{Cubes: w.warms[k], Orderer: coldOrderers[k], Filler: "dp", OmitCubes: true})
		return err
	})
}

func (w *fillCold) send(ctx context.Context, c *client.Client, i int) reply {
	req := w.fillRequest(i)
	t0 := time.Now()
	resp, err := c.Fill(ctx, req)
	r := reply{i: i, lat: time.Since(t0), err: err}
	if err == nil {
		r.perm, r.peak, r.peaks = resp.Perm, resp.Peak, []int{resp.Peak}
		if resp.Cached {
			r.err = errors.New("fill-cold answer came from the cache: the request was not fresh")
		}
	}
	return r
}

func (w *fillCold) verify(_ context.Context, replies []reply) []error {
	return verifyEach(replies, func(r *reply) error {
		return checkFill(w.fillRequest(r.i).Cubes, r.perm, r.peak, 0, nil)
	})
}

// ---- fill-hot ---------------------------------------------------------

const (
	hotPool = 64
	// hotFreshEvery: one request in this many is a fresh set.
	hotFreshEvery = 10
	// hotSkew is the Zipf exponent of pool popularity: skewed, yet flat
	// enough that a run's mean peak averages over ~25 sets.
	hotSkew = 0.8
)

// fillHot draws ~90% of its requests from a fixed pool of ATPG-sized
// sets (64–256 pins × 100–1000 vectors, 60–80% X) with Zipf
// popularity (exponent hotSkew), and ~10% fresh variants of pool sets,
// which insert into the server's 256-entry LRU and eventually evict
// from it. Full cubes come back, so JSON, cube parse and render, the
// digest and the cache do the work.
type fillHot struct {
	seed   uint64
	pool   [][]string
	starts []int
	// cum is the cumulative popularity of pool ranks; rank r is pool
	// set (r*37+5) mod hotPool, a fixed scramble so popular sets have
	// assorted shapes and the request-weighted shape mix is the same
	// for every seed.
	cum []float64
	// ref holds each pool set's answer digest, from the warm-up fill
	// the oracle checked before the clock started.
	ref     []uint64
	refResp []*client.FillResponse
}

func newFillHot(seed uint64) *fillHot {
	pool := cubeSets(seed, hotPool, bounds{64, 256}, bounds{100, 1000}, bounds{0.60, 0.80})
	cum := make([]float64, hotPool)
	sum := 0.0
	for r := range cum {
		sum += math.Pow(float64(r+1), -hotSkew)
		cum[r] = sum
	}
	for r := range cum {
		cum[r] /= sum
	}
	return &fillHot{seed: seed, pool: pool, starts: offsets(seed, pool), cum: cum}
}

func (w *fillHot) fleet() int { return 0 }

// pick returns request i's pool set and variant: variant 0 is the pool
// set itself; fresh requests use variants >= 1, each once.
func (w *fillHot) pick(i int) (b, v int) {
	blk := i / hotFreshEvery
	if i%hotFreshEvery == blockOrder(w.seed, hotFreshEvery, blk)[0] {
		// The blk-th fresh request: pool sets in a seeded order per
		// round, one new variant per round.
		round := blk / hotPool
		return blockOrder(w.seed, hotPool, round)[blk%hotPool], 1 + round
	}
	u := rng(w.seed, streamPopularity, uint64(i)).Float64()
	rank := min(sort.SearchFloat64s(w.cum, u), hotPool-1)
	return (rank*37 + 5) % hotPool, 0
}

func (w *fillHot) fillRequest(b, v int) client.FillRequest {
	return client.FillRequest{Cubes: variant(w.pool, w.starts, b, v), Orderer: "tool", Filler: "dp"}
}

func (w *fillHot) request(i int) any { return w.fillRequest(w.pick(i)) }

// warm fills every pool set once and keeps the answers as the
// reference the timed window's repeats are compared with.
func (w *fillHot) warm(ctx context.Context, st *stack, clients int) error {
	w.refResp = make([]*client.FillResponse, hotPool)
	return parallel(clients, hotPool, func(b int) error {
		resp, err := st.c.Fill(ctx, w.fillRequest(b, 0))
		w.refResp[b] = resp
		return err
	})
}

// checkWarm runs the full oracle over the warm-up answers and records
// their digests. It runs before the clock starts.
func (w *fillHot) checkWarm() error {
	w.ref = make([]uint64, hotPool)
	for b, resp := range w.refResp {
		if err := checkFillResponse(w.fillRequest(b, 0).Cubes, resp); err != nil {
			return fmt.Errorf("pool set %d: %w", b, err)
		}
		w.ref[b] = digest(resp)
	}
	return nil
}

func (w *fillHot) send(ctx context.Context, c *client.Client, i int) reply {
	b, v := w.pick(i)
	req := w.fillRequest(b, v)
	t0 := time.Now()
	resp, err := c.Fill(ctx, req)
	r := reply{i: i, lat: time.Since(t0), err: err, fresh: v > 0}
	if err != nil {
		return r
	}
	r.peaks = []int{resp.Peak}
	r.digests = []uint64{digest(resp)}
	if !r.fresh && r.digests[0] != w.ref[b] {
		r.err = fmt.Errorf("pool set %d answered differently from its checked warm-up answer", b)
	}
	return r
}

// verify re-answers each fresh request on a reference server, checks
// that answer with the full oracle and compares it with the served one.
// Pool repeats were compared with their checked warm-up answers.
func (w *fillHot) verify(ctx context.Context, replies []reply) []error {
	ref, err := server.New(server.Config{CacheSize: -1})
	if err != nil {
		return []error{err}
	}
	defer ref.Close()
	rc := handlerClient(ref.Handler())
	var fresh []reply
	for _, r := range replies {
		if r.fresh {
			fresh = append(fresh, r)
		}
	}
	return verifyEach(fresh, func(r *reply) error {
		req := w.fillRequest(w.pick(r.i))
		want, err := rc.Fill(ctx, req)
		if err != nil {
			return fmt.Errorf("reference server: %w", err)
		}
		if err := checkFillResponse(req.Cubes, want); err != nil {
			return err
		}
		if digest(want) != r.digests[0] {
			return errors.New("served answer differs from the reference server's")
		}
		return nil
	})
}

// ---- pipeline ---------------------------------------------------------

// pipeBlock holds one block of pipeline requests, sent in a seeded
// order: 12 b03, 12 b08, 8 b09, 7 b10 and one custom profile (""). The
// custom profiles are the costly, netlist-dependent tail; at one in 40
// they stay above p95, which then falls inside the scaled-b10 requests,
// whose cost varies smoothly with the scale factor.
var pipeBlock = slices.Concat(
	slices.Repeat([]string{"b03"}, 12), slices.Repeat([]string{"b08"}, 12),
	slices.Repeat([]string{"b09"}, 8), slices.Repeat([]string{"b10"}, 7), []string{""})

// pipeStrata is how many strata the continuous draws of a slot cycle
// through across blocks.
const pipeStrata = 8

// pipelineMix runs the whole netlist → ATPG → fill → power loop on
// small netgen circuits: the catalog profiles scaled by a factor drawn
// from [0.7, 1], and custom 300–500-gate profiles, with the default
// tool + DP fill and LOS power. ATPG and logic simulation do ~99% of
// the work.
type pipelineMix struct{ seed uint64 }

func (w *pipelineMix) fleet() int { return 0 }

func (w *pipelineMix) spec(i int) string {
	v, k := i/len(pipeBlock), i%len(pipeBlock)
	slot := blockOrder(w.seed, len(pipeBlock), v)[k]
	r := rng(w.seed, streamShapes, 1<<32|uint64(i))
	stratum := (v + 3*slot) % pipeStrata
	if name := pipeBlock[slot]; name != "" {
		f := bounds{0.7, 1}.stratum(r, stratum, pipeStrata)
		return name + "@" + strconv.FormatFloat(f, 'f', 3, 64)
	}
	// A custom profile sits in one stratum of each dimension, the same
	// way shapes do, so the costly tail of the mix is alike for every
	// seed; the seed jitters the sizes and picks the netlist.
	gates := bounds{300, 500}.stratum(r, stratum, pipeStrata)
	pis := bounds{8, 14}.stratum(r, (stratum*5+3)%pipeStrata, pipeStrata)
	ffs := bounds{20, 40}.stratum(r, (stratum*3+1)%pipeStrata, pipeStrata)
	return fmt.Sprintf("pis=%d,ffs=%d,gates=%d,seed=%d,name=c%d",
		int(pis), int(ffs), int(gates), r.IntN(1<<30), i)
}

func (w *pipelineMix) pipeRequest(i int) client.PipelineRequest {
	return client.PipelineRequest{Spec: w.spec(i), IncludeCubes: true}
}

func (w *pipelineMix) request(i int) any { return w.pipeRequest(i) }

func (w *pipelineMix) warm(ctx context.Context, st *stack, clients int) error {
	warms := []string{"b03@0.5", "b08@0.5", "b09@0.5", "b10@0.5"}
	return parallel(clients, len(warms), func(k int) error {
		_, err := st.c.Pipeline(ctx, client.PipelineRequest{Spec: warms[k]})
		return err
	})
}

func (w *pipelineMix) send(ctx context.Context, c *client.Client, i int) reply {
	req := w.pipeRequest(i)
	t0 := time.Now()
	rep, err := c.Pipeline(ctx, req)
	r := reply{i: i, lat: time.Since(t0), err: err, report: rep}
	if err == nil && rep.Fill != nil {
		r.peaks = []int{rep.Fill.Peak}
	}
	return r
}

func (w *pipelineMix) verify(_ context.Context, replies []reply) []error {
	return verifyEach(replies, func(r *reply) error { return checkPipeline(r.report) })
}

// ---- coord-batch ------------------------------------------------------

const (
	coordJobs = 32
	// coordBases is the base-set pool: every block of
	// coordBases/coordJobs batches sends each base once, so a run's mean
	// peak averages over all of them.
	coordBases = 512
)

// coordOrderers mixes tool:i at 3:1 by job position, so every batch
// holds eight I-Ordering jobs.
var coordOrderers = [4]string{"tool", "tool", "tool", "i"}

// coordBatch posts batches of 32 fresh jobs (64–192 pins × 100–400
// vectors at 75–90% X, tool and i orderers, omit_cubes) to a
// coordinator fronting two dpfilld workers with one engine worker
// each. The jobs omit their cubes so that a batch stays near 100 ms on
// two CPUs and a run holds enough samples for its p95; fill-hot covers
// full-cube answers.
type coordBatch struct {
	seed   uint64
	sets   [][]string
	starts []int
	warms  [][]string
}

func newCoordBatch(seed uint64) *coordBatch {
	sets := cubeSets(seed, coordBases, bounds{64, 192}, bounds{100, 400}, bounds{0.75, 0.90})
	return &coordBatch{seed: seed, sets: sets, starts: offsets(seed, sets), warms: warmSets(seed, coordJobs, 64, 100)}
}

func (w *coordBatch) fleet() int { return 2 }

// batchRequest is batch i: its slice of block v's seeded order of the
// base sets, each as variant v.
func (w *coordBatch) batchRequest(i int) client.BatchRequest {
	v, part := i/(coordBases/coordJobs), i%(coordBases/coordJobs)
	bases := blockOrder(w.seed, coordBases, v)[part*coordJobs : (part+1)*coordJobs]
	jobs := make([]client.FillRequest, coordJobs)
	for k, b := range bases {
		jobs[k] = client.FillRequest{
			Cubes:     variant(w.sets, w.starts, b, v),
			Orderer:   coordOrderers[k%len(coordOrderers)],
			Filler:    "dp",
			OmitCubes: true,
		}
	}
	return client.BatchRequest{Jobs: jobs}
}

func (w *coordBatch) request(i int) any { return w.batchRequest(i) }

func (w *coordBatch) warm(ctx context.Context, st *stack, clients int) error {
	return parallel(clients, 2*clients, func(k int) error {
		jobs := make([]client.FillRequest, len(w.warms))
		for j, set := range w.warms {
			jobs[j] = client.FillRequest{Cubes: set, Orderer: coordOrderers[(j+k)%len(coordOrderers)], Filler: "dp", OmitCubes: true}
		}
		_, err := st.c.Batch(ctx, client.BatchRequest{Jobs: jobs})
		return err
	})
}

func (w *coordBatch) send(ctx context.Context, c *client.Client, i int) reply {
	req := w.batchRequest(i)
	t0 := time.Now()
	resp, err := c.Batch(ctx, req)
	r := reply{i: i, lat: time.Since(t0), err: err}
	if err != nil {
		return r
	}
	if len(resp.Results) != coordJobs || resp.Failed != 0 {
		r.err = fmt.Errorf("batch answered %d results with %d failed", len(resp.Results), resp.Failed)
		return r
	}
	for _, it := range resp.Results {
		r.peaks = append(r.peaks, it.Result.Peak)
		r.digests = append(r.digests, digest(it.Result))
	}
	return r
}

// verify answers every batch again on a direct in-process server,
// requires the coordinator's answers to equal those, and checks them
// with the oracle. The answers carry no cubes, so the oracle checks the
// perm and the peak; fill-hot and pipeline run the cube checks.
func (w *coordBatch) verify(ctx context.Context, replies []reply) []error {
	ref, err := server.New(server.Config{CacheSize: -1})
	if err != nil {
		return []error{err}
	}
	defer ref.Close()
	rc := handlerClient(ref.Handler())
	return verifyEach(replies, func(r *reply) error {
		req := w.batchRequest(r.i)
		want, err := rc.Batch(ctx, req)
		if err != nil {
			return fmt.Errorf("reference server: %w", err)
		}
		for k, it := range want.Results {
			if it.Error != "" {
				return fmt.Errorf("job %d: reference server: %s", k, it.Error)
			}
			if digest(it.Result) != r.digests[k] {
				return fmt.Errorf("job %d: coordinator answer differs from the direct server's", k)
			}
			if err := checkFillResponse(req.Jobs[k].Cubes, it.Result); err != nil {
				return fmt.Errorf("job %d: %w", k, err)
			}
		}
		return nil
	})
}
