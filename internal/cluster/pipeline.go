package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/internal/reqid"
	"repro/internal/server"
)

// Pipeline fan-out. A pipeline request with K > 1 ATPG shards splits
// along the collapsed fault list: each worker runs stage=atpg on its
// contiguous fault partition (the same dispatch machinery batches use
// — failover, hedging, affinity, local fallback), and the coordinator
// merges the shard cubes in shard order and runs the back half
// (coverage curve, fill, power) in-process through pipeline.Finish.
// Because Finish is the exact function a single worker runs on its
// own merged set, the fleet answer is byte-identical to the
// single-process answer up to stage timings.

// Pipeline answers one pipeline request: unsharded runs (and explicit
// stage=atpg shard calls) proxy whole to one worker; fault-sharded runs
// fan out across the fleet.
func (co *Coordinator) Pipeline(ctx context.Context, req client.PipelineRequest) (*client.PipelineReport, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	co.met.jobs.Add(1)
	if req.Stage == pipeline.StageATPG || req.Shards() <= 1 {
		body, key := encodePipeline(req)
		resp, _, err := dispatch[client.PipelineReport](co, ctx, 1, key, "/v1/pipeline", body)
		if err != nil && co.fallbackEligible(ctx, err) {
			co.met.fallbacks.Add(1)
			return post[client.PipelineReport](ctx, co.local, "/v1/pipeline", body)
		}
		return resp, err
	}
	return co.pipelineSharded(ctx, req)
}

// pipelineSharded fans the K ATPG fault shards across the fleet and
// finishes the merged set locally. Any shard failing (after failover
// and fallback) fails the whole pipeline: a fill stage over a partial
// fault list would silently report the wrong peak.
func (co *Coordinator) pipelineSharded(ctx context.Context, req client.PipelineRequest) (*client.PipelineReport, error) {
	start := time.Now()
	c, err := pipeline.ResolveCircuit(req, co.cfg.MaxGates)
	if err != nil {
		return nil, err
	}
	stages := []pipeline.StageTiming{{
		Stage:          "netlist",
		DurationMillis: float64(time.Since(start).Nanoseconds()) / 1e6,
	}}
	progress := jobs.Progress(ctx)
	progress(1)

	shards := req.Shards()
	reports := make([]*pipeline.ATPGReport, shards)
	shardMillis := make([]float64, shards)
	errs := make([]error, shards)
	traces := make([]server.ShardTrace, shards)
	var done atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sreq := req
			sreq.Stage = pipeline.StageATPG
			sreq.ShardIndex = k
			t0 := time.Now()
			rep, tr, err := co.dispatchPipelineShard(ctx, sreq)
			shardMillis[k] = float64(time.Since(t0).Nanoseconds()) / 1e6
			tr.Lo, tr.Hi = k, k+1
			traces[k] = tr
			if err != nil {
				errs[k] = fmt.Errorf("cluster: pipeline shard %d/%d: %w", k, shards, err)
				return
			}
			if rep.ATPG == nil {
				errs[k] = &server.StatusError{Status: http.StatusBadGateway,
					Err: fmt.Errorf("cluster: pipeline shard %d/%d answered no atpg report", k, shards)}
				return
			}
			reports[k] = rep.ATPG
			progress(1 + int(done.Add(1)))
		}(k)
	}
	wg.Wait()
	co.shardLog.record(traces)
	for _, err := range errs {
		if err != nil {
			if co.cfg.Log != nil {
				co.cfg.Log.Error("pipeline shard failed",
					"rid", reqid.From(ctx), "err", err)
			}
			return nil, err
		}
	}
	for k := 0; k < shards; k++ {
		stages = append(stages, pipeline.StageTiming{
			Stage:          fmt.Sprintf("atpg/%d", k),
			DurationMillis: shardMillis[k],
		})
	}
	set, agg, err := pipeline.MergeShards(c.NumInputs(), reports)
	if err != nil {
		// The shards' answers do not fit together: a worker fault.
		return nil, &server.StatusError{Status: http.StatusBadGateway, Err: err}
	}
	return pipeline.Finish(ctx, req, c, set, agg, stages, pipeline.RunOptions{Progress: progress})
}

// dispatchPipelineShard routes one stage=atpg shard through the fleet
// with the batch machinery's failover/hedging/affinity, falling back
// to the local engine when the fleet can't answer.
func (co *Coordinator) dispatchPipelineShard(ctx context.Context, sreq client.PipelineRequest) (*client.PipelineReport, server.ShardTrace, error) {
	start := time.Now()
	co.met.shards.Add(1)
	body, key := encodePipeline(sreq)
	rep, info, err := dispatch[client.PipelineReport](co, ctx, 1, key, "/v1/pipeline", body)
	tr := server.ShardTrace{
		Worker:   info.Worker,
		Attempts: info.Attempts,
		Hedged:   info.Hedged,
		WorkerNS: info.WorkerNS,
	}
	if err != nil && co.fallbackEligible(ctx, err) {
		co.met.fallbacks.Add(1)
		tr.FellBack, tr.Worker = true, ""
		rep, err = post[client.PipelineReport](ctx, co.local, "/v1/pipeline", body)
	}
	tr.DispatchNS = time.Since(start).Nanoseconds()
	co.shardLatency.Observe(time.Duration(tr.DispatchNS))
	if err != nil {
		co.met.shardFailures.Add(1)
	}
	return rep, tr, err
}
