package cluster

import (
	"context"
	"encoding/json"
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

func (co *Coordinator) handlePipeline(w http.ResponseWriter, r *http.Request) {
	var req client.PipelineRequest
	if !co.decode(w, r, &req) {
		return
	}
	rep, err := co.pipelineThrough(r.Context(), req)
	if err != nil {
		co.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// pipelineThrough answers one pipeline request: unsharded runs (and
// explicit stage=atpg shard calls) proxy whole to one worker;
// fault-sharded runs fan out across the fleet.
func (co *Coordinator) pipelineThrough(ctx context.Context, req client.PipelineRequest) (*client.PipelineReport, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	co.met.jobs.Add(1)
	if req.Stage == pipeline.StageATPG || req.Shards() <= 1 {
		resp, _, err := dispatch(co, ctx, 1, affinityKey(req), func(ctx context.Context, c *client.Client) (*client.PipelineReport, error) {
			return c.Pipeline(ctx, req)
		})
		if err != nil && co.fallbackEligible(ctx, err) {
			co.met.fallbacks.Add(1)
			return co.local.Pipeline(ctx, req)
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
	c, err := pipeline.ResolveCircuit(req)
	if err != nil {
		return nil, err
	}
	if co.cfg.MaxGates > 0 && len(c.Gates) > co.cfg.MaxGates {
		return nil, fmt.Errorf("%w: circuit %q has %d gates, exceeding the limit %d",
			pipeline.ErrBadRequest, c.Name, len(c.Gates), co.cfg.MaxGates)
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
				errs[k] = fmt.Errorf("cluster: pipeline shard %d/%d answered no atpg report", k, shards)
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
			co.cfg.Log.Error("pipeline shard failed",
				"rid", reqid.From(ctx), "err", err)
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
		return nil, err
	}
	return pipeline.Finish(ctx, req, c, set, agg, stages, pipeline.RunOptions{Progress: progress})
}

// dispatchPipelineShard routes one stage=atpg shard through the fleet
// with the batch machinery's failover/hedging/affinity, falling back
// to the local engine when the fleet can't answer.
func (co *Coordinator) dispatchPipelineShard(ctx context.Context, sreq client.PipelineRequest) (*client.PipelineReport, server.ShardTrace, error) {
	start := time.Now()
	co.met.shards.Add(1)
	rep, info, err := dispatch(co, ctx, 1, affinityKey(sreq), func(ctx context.Context, c *client.Client) (*client.PipelineReport, error) {
		return c.Pipeline(ctx, sreq)
	})
	tr := server.ShardTrace{
		Worker:   info.Worker,
		Attempts: info.Attempts,
		Hedged:   info.Hedged,
		WorkerNS: info.WorkerNS,
	}
	if err != nil && co.fallbackEligible(ctx, err) {
		co.met.fallbacks.Add(1)
		tr.FellBack, tr.Worker = true, ""
		rep, err = co.local.Pipeline(ctx, sreq)
	}
	tr.DispatchNS = time.Since(start).Nanoseconds()
	co.shardLatency.Observe(time.Duration(tr.DispatchNS))
	if err != nil {
		co.met.shardFailures.Add(1)
	}
	return rep, tr, err
}

// pipelineEnvelope is the journaled payload of an async pipeline job
// — the same {"pipeline": ...} framing dpfilld itself journals, so
// the two WAL formats stay interchangeable.
type pipelineEnvelope struct {
	Pipeline *client.PipelineRequest `json:"pipeline"`
}

// pipelinePayload probes a journaled payload for the pipeline
// envelope; batch payloads decode with a nil Pipeline. A pipeline
// payload then decodes strictly: one carrying a field this build does
// not know reports ok with an error naming it.
func pipelinePayload(payload json.RawMessage) (client.PipelineRequest, bool, error) {
	var env pipelineEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Pipeline == nil {
		return client.PipelineRequest{}, false, nil
	}
	if err := jobs.DecodeStrict(payload, &env); err != nil {
		return client.PipelineRequest{}, true, fmt.Errorf("decoding journaled pipeline payload: %w", err)
	}
	return *env.Pipeline, true, nil
}

// runJob is the coordinator's async job runner: a journaled pipeline
// envelope fans out through pipelineThrough (re-sharding across
// whatever fleet is alive at replay time), anything else is a batch.
func (co *Coordinator) runJob(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
	if preq, ok, err := pipelinePayload(payload); ok {
		if err != nil {
			return nil, err
		}
		rep, err := co.pipelineThrough(ctx, preq)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}
	return jobs.RunJSON(co.batchThrough)(ctx, payload)
}
