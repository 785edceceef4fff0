package cluster

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// localPipeline answers the request in-process — the ground truth
// every fleet topology must match byte for byte (up to stage timings).
func localPipeline(t *testing.T, req client.PipelineRequest) *client.PipelineReport {
	t.Helper()
	rep, err := pipeline.Run(context.Background(), req, pipeline.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertPipelineParity compares two reports after zeroing the stage
// timings (measurements, not results).
func assertPipelineParity(t *testing.T, got, want *client.PipelineReport) {
	t.Helper()
	got.ZeroTimings()
	want.ZeroTimings()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("reports diverge:\n%s\nvs\n%s", g, w)
	}
}

var shardedPipelineReq = client.PipelineRequest{
	Spec:         "b06",
	ATPG:         pipeline.ATPGConfig{Shards: 4},
	IncludeCubes: true,
}

// TestPipelineShardedParityThroughCoordinator pins the tentpole
// byte-identity contract: a fault-sharded pipeline fanned across a
// two-worker fleet answers identically (up to stage timings) to a
// single-process run of the same request. Run under -race by CI.
func TestPipelineShardedParityThroughCoordinator(t *testing.T) {
	w1, w2 := newChaosWorker(t), newChaosWorker(t)
	co := newTestCoordinator(t, Config{DisableFallback: true}, w1, w2)
	waitHealthy(t, co, 2)
	c := coordClient(t, co)

	want := localPipeline(t, shardedPipelineReq)
	got, err := c.Pipeline(context.Background(), shardedPipelineReq)
	if err != nil {
		t.Fatal(err)
	}
	assertPipelineParity(t, got, want)
	if got.ATPG.Shards != 4 {
		t.Fatalf("merged report claims %d shards, want 4", got.ATPG.Shards)
	}
	if hits := w1.pipelineHits.Load() + w2.pipelineHits.Load(); hits < 4 {
		t.Fatalf("fleet saw %d shard calls, want >= 4", hits)
	}
	// The fan-out leaves per-shard dispatch traces in the /stats ring.
	st := co.Stats()
	if st.ShardsDispatched < 4 || len(st.RecentShards) == 0 {
		t.Fatalf("shard accounting: %d dispatched, %d traced", st.ShardsDispatched, len(st.RecentShards))
	}
}

// TestPipelineUnshardedProxiesToWorker: a one-shard pipeline is not
// fanned out — it proxies whole to a single worker and still matches
// the local answer.
func TestPipelineUnshardedProxiesToWorker(t *testing.T) {
	w := newChaosWorker(t)
	co := newTestCoordinator(t, Config{DisableFallback: true}, w)
	waitHealthy(t, co, 1)
	c := coordClient(t, co)

	req := client.PipelineRequest{Spec: "b02", IncludeCubes: true}
	want := localPipeline(t, req)
	got, err := c.Pipeline(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertPipelineParity(t, got, want)
	if w.pipelineHits.Load() != 1 {
		t.Fatalf("worker saw %d pipeline calls, want exactly 1", w.pipelineHits.Load())
	}
}

// TestPipelineShardSurvivesWorkerDeath pins mid-shard failover: a
// worker dropping dead on its first shard call must not change the
// answer — the shard retries on the surviving worker (or the local
// fallback) and the merged report stays byte-identical.
func TestPipelineShardSurvivesWorkerDeath(t *testing.T) {
	w1, w2 := newChaosWorker(t), newChaosWorker(t)
	w1.dieOnNextPipeline.Store(true)
	co := newTestCoordinator(t, Config{}, w1, w2)
	waitHealthy(t, co, 2)
	c := coordClient(t, co)

	want := localPipeline(t, shardedPipelineReq)
	got, err := c.Pipeline(context.Background(), shardedPipelineReq)
	if err != nil {
		t.Fatal(err)
	}
	assertPipelineParity(t, got, want)
}

// TestPipelineFallsBackWithoutFleet: with no workers at all, the
// coordinator's local engine answers — and still byte-identically.
func TestPipelineFallsBackWithoutFleet(t *testing.T) {
	co := newTestCoordinator(t, Config{})
	c := coordClient(t, co)

	req := client.PipelineRequest{Spec: "b01", ATPG: pipeline.ATPGConfig{Shards: 2}, IncludeCubes: true}
	want := localPipeline(t, req)
	got, err := c.Pipeline(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertPipelineParity(t, got, want)
	if co.Stats().Fallbacks == 0 {
		t.Fatal("no fallback recorded despite an empty fleet")
	}
}

// TestAsyncPipelineParityThroughCoordinator pins the async fleet door:
// a pipeline submitted through the coordinator's /v1/jobs re-shards
// across the fleet and settles with the single-process answer.
func TestAsyncPipelineParityThroughCoordinator(t *testing.T) {
	w := newChaosWorker(t)
	co := newTestCoordinator(t, Config{}, w)
	waitHealthy(t, co, 1)
	c := coordClient(t, co)

	req := client.PipelineRequest{Spec: "b06", ATPG: pipeline.ATPGConfig{Shards: 2}, IncludeCubes: true}
	want := localPipeline(t, req)
	st, err := c.SubmitPipelineJob(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != req.Steps() {
		t.Fatalf("job total %d, want %d stage steps", st.Total, req.Steps())
	}
	final, err := c.WaitJob(context.Background(), st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Done != final.Total {
		t.Fatalf("settled job progress %d/%d", final.Done, final.Total)
	}
	got, err := client.JobPipelineReport(final)
	if err != nil {
		t.Fatal(err)
	}
	assertPipelineParity(t, got, want)
	if w.pipelineHits.Load() == 0 {
		t.Fatal("async pipeline never reached the fleet")
	}
}

// TestPipelineValidationThroughCoordinator: the coordinator rejects
// bad pipelines itself (400, not a wasted fleet dispatch), for both
// the sync endpoint and the job submit.
func TestPipelineValidationThroughCoordinator(t *testing.T) {
	co := newTestCoordinator(t, Config{FrontConfig: server.FrontConfig{MaxGates: 50}})
	c := coordClient(t, co)

	// Synchronous: both structural failures and run-time resolution
	// failures (unknown filler via the local fallback, the coordinator's
	// own gate limit on the sharded path) answer 400.
	for name, req := range map[string]client.PipelineRequest{
		"no input":                  {},
		"unknown filler":            {Spec: "b01", Filler: "nope"},
		"oversharded":               {Spec: "b01", ATPG: pipeline.ATPGConfig{Shards: pipeline.MaxShards + 1}},
		"over gate limit (sharded)": {Spec: "b06", ATPG: pipeline.ATPGConfig{Shards: 2}},
	} {
		if _, err := c.Pipeline(context.Background(), req); !isAPIStatus(err, 400) {
			t.Errorf("%s: %v, want 400", name, err)
		}
	}
	// Async: structural validation runs at admission.
	for name, req := range map[string]client.PipelineRequest{
		"no input":    {},
		"oversharded": {Spec: "b01", ATPG: pipeline.ATPGConfig{Shards: pipeline.MaxShards + 1}},
	} {
		if _, err := c.SubmitPipelineJob(context.Background(), req); !isAPIStatus(err, 400) {
			t.Errorf("%s (async): %v, want 400", name, err)
		}
	}
}
