package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/jobs"
	"repro/internal/order"
	"repro/internal/pipeline"
)

// postPipeline runs one request through the served POST /v1/pipeline.
func postPipeline(t *testing.T, baseURL string, req pipeline.Request) *pipeline.Report {
	t.Helper()
	var rep pipeline.Report
	if code := post(t, baseURL+"/v1/pipeline", req, &rep); code != http.StatusOK {
		t.Fatalf("POST /v1/pipeline: status %d", code)
	}
	return &rep
}

func TestPipelineEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	rep := postPipeline(t, ts.URL, pipeline.Request{Spec: "b02"})
	if rep.ATPG == nil || rep.Fill == nil || rep.Power == nil {
		t.Fatalf("report missing sections: %+v", rep)
	}
	if rep.Fill.Filler != "DP-fill" || rep.Fill.Orderer != "Tool" {
		t.Fatalf("default algorithms: %s + %s", rep.Fill.Orderer, rep.Fill.Filler)
	}
	if rep.ATPG.Patterns == 0 || rep.Power.ShiftPeak == 0 {
		t.Fatalf("empty pipeline result: %+v", rep)
	}
	if len(rep.Stages) == 0 {
		t.Fatal("report carries no stage timings")
	}
}

func TestPipelineEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, FrontConfig: FrontConfig{MaxGates: 50}})
	cases := []struct {
		name string
		req  pipeline.Request
	}{
		{"no input", pipeline.Request{}},
		{"unknown spec", pipeline.Request{Spec: "b99"}},
		{"bad netlist", pipeline.Request{Netlist: "y = AND(a b"}},
		{"unknown filler", pipeline.Request{Spec: "b01", Filler: "nope"}},
		{"unknown orderer", pipeline.Request{Spec: "b01", Orderer: "nope"}},
		{"bad scheme", pipeline.Request{Spec: "b01", Power: pipeline.PowerConfig{Scheme: "lok"}}},
		{"over gate limit", pipeline.Request{Spec: "b06"}},
	}
	for _, tc := range cases {
		var errResp errorResponse
		if code := post(t, ts.URL+"/v1/pipeline", tc.req, &errResp); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (error %q)", tc.name, code, errResp.Error)
		}
	}
}

// differentialCases span the fill algorithms and circuits the
// differential suite pins: DP under the default and the X-Stat
// ordering, a baseline filler, a non-default ordering.
var differentialCases = []struct {
	name string
	req  pipeline.Request
}{
	{"b01-dp", pipeline.Request{Spec: "b01", IncludeCubes: true}},
	{"b02-dp-xstat", pipeline.Request{Spec: "b02", Orderer: "xstat", IncludeCubes: true}},
	{"b06-dp-xstat", pipeline.Request{Spec: "b06", Orderer: "xstat", IncludeCubes: true}},
	{"b06-mt-iorder", pipeline.Request{Spec: "b06", Orderer: "i", Filler: "mt", IncludeCubes: true}},
	{"b09-scaled-sharded", pipeline.Request{Spec: "b09@0.25", ATPG: pipeline.ATPGConfig{Shards: 3}, IncludeCubes: true}},
}

// TestPipelineFillStageMatchesBatchEndpoint is the end-to-end
// differential contract: the pipeline's fill stage must be
// byte-identical — cubes, perm, peak, total — to what POST /v1/batch
// answers for the extracted ATPG cubes under the same ordering,
// filler and seed. The pipeline is not a parallel implementation of
// filling; it is the same one, observed through two doors.
func TestPipelineFillStageMatchesBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, tc := range differentialCases {
		t.Run(tc.name, func(t *testing.T) {
			rep := postPipeline(t, ts.URL, tc.req)
			if len(rep.ATPG.Cubes) == 0 || len(rep.Fill.Cubes) == 0 {
				t.Fatal("report carries no cube matrices despite include_cubes")
			}
			var batch BatchResponse
			code := post(t, ts.URL+"/v1/batch", BatchRequest{Jobs: []FillRequest{{
				Cubes:   rep.ATPG.Cubes,
				Orderer: tc.req.Orderer,
				Filler:  tc.req.Filler,
				Seed:    tc.req.Seed,
			}}}, &batch)
			if code != http.StatusOK || batch.Failed != 0 {
				t.Fatalf("batch on extracted cubes: status %d, %d failed", code, batch.Failed)
			}
			got := batch.Results[0].Result
			if got.Orderer != rep.Fill.Orderer || got.Filler != rep.Fill.Filler {
				t.Fatalf("algorithms diverge: batch %s+%s, pipeline %s+%s",
					got.Orderer, got.Filler, rep.Fill.Orderer, rep.Fill.Filler)
			}
			if got.Peak != rep.Fill.Peak || got.Total != rep.Fill.Total {
				t.Fatalf("peak/total diverge: batch %d/%d, pipeline %d/%d",
					got.Peak, got.Total, rep.Fill.Peak, rep.Fill.Total)
			}
			if jsonString(t, got.Perm) != jsonString(t, rep.Fill.Perm) {
				t.Fatalf("perm diverges:\n%v\nvs\n%v", got.Perm, rep.Fill.Perm)
			}
			if jsonString(t, got.Cubes) != jsonString(t, rep.Fill.Cubes) {
				t.Fatalf("filled cubes diverge:\n%v\nvs\n%v", got.Cubes, rep.Fill.Cubes)
			}
		})
	}
}

func jsonString(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestPipelineDPPeakIsOptimalThroughServedPath pins the paper's
// optimality claim end to end through the serving stack: the served
// DP-fill peak equals the Bottleneck Coloring lower bound on the
// ordered cube set, and no served baseline filler beats it.
func TestPipelineDPPeakIsOptimalThroughServedPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	base := pipeline.Request{Spec: "b06", IncludeCubes: true}
	dp := postPipeline(t, ts.URL, base)

	// The BCP bound is computed locally on the served ATPG cubes in
	// served order — an independent derivation the served peak must hit.
	set, err := cube.ParseSet(dp.ATPG.Cubes...)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := order.ByName("tool", 1)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := ord.Order(set)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := core.Bottleneck(set.Reorder(perm))
	if err != nil {
		t.Fatal(err)
	}
	if dp.Fill.Peak != bound {
		t.Fatalf("served DP peak %d != BCP bound %d", dp.Fill.Peak, bound)
	}
	for _, filler := range []string{"mt", "r", "0", "1", "b", "adj", "xstat"} {
		req := base
		req.Filler = filler
		rep := postPipeline(t, ts.URL, req)
		if rep.Fill.Peak < bound {
			t.Errorf("served %s peak %d beats the DP bound %d", rep.Fill.Filler, rep.Fill.Peak, bound)
		}
	}
}

// TestAsyncPipelineJobMatchesSync pins the async door: a pipeline
// submitted through POST /v1/jobs settles with a report identical (up
// to stage timings) to the synchronous POST /v1/pipeline answer, and
// its progress counter walks the advertised stage total.
func TestAsyncPipelineJobMatchesSync(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := pipeline.Request{Spec: "b06", ATPG: pipeline.ATPGConfig{Shards: 2}, IncludeCubes: true}
	want := postPipeline(t, ts.URL, req)

	var st jobs.Status
	if code := post(t, ts.URL+"/v1/jobs", jobSubmit{Pipeline: &req}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st.Total != req.Steps() {
		t.Fatalf("job total %d, want %d stage steps", st.Total, req.Steps())
	}
	final := waitJobState(t, ts.URL, st.ID, jobs.StateDone)
	if final.Done != final.Total {
		t.Fatalf("settled job progress %d/%d", final.Done, final.Total)
	}
	var got pipeline.Report
	if err := json.Unmarshal(final.Result, &got); err != nil {
		t.Fatalf("decoding job result: %v", err)
	}
	got.ZeroTimings()
	want.ZeroTimings()
	if jsonString(t, &got) != jsonString(t, want) {
		t.Fatalf("async report differs from sync:\n%s\nvs\n%s", jsonString(t, &got), jsonString(t, want))
	}
}

// TestAsyncPipelineJobSurvivesRestart pins the journal envelope: a
// settled pipeline job's result replays byte-identically on a fresh
// server over the same data directory.
func TestAsyncPipelineJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := pipeline.Request{Spec: "b02", IncludeCubes: true}

	s1, ts1 := newTestServer(t, Config{Workers: 2, FrontConfig: FrontConfig{DataDir: dir}})
	var st jobs.Status
	if code := post(t, ts1.URL+"/v1/jobs", jobSubmit{Pipeline: &req}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	settled := waitJobState(t, ts1.URL, st.ID, jobs.StateDone)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, Config{Workers: 2, FrontConfig: FrontConfig{DataDir: dir}})
	var replayed jobs.Status
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+st.ID, &replayed); code != http.StatusOK {
		t.Fatalf("GET replayed job: status %d", code)
	}
	if replayed.State != jobs.StateDone {
		t.Fatalf("replayed state %s, want done", replayed.State)
	}
	if string(replayed.Result) != string(settled.Result) {
		t.Fatalf("replayed result differs:\n%s\nvs\n%s", replayed.Result, settled.Result)
	}
}

func TestPipelineJobSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A submit carrying both a batch and a pipeline is ambiguous.
	both := map[string]any{
		"jobs":     []FillRequest{{Cubes: []string{"0X"}}},
		"pipeline": pipeline.Request{Spec: "b01"},
	}
	if code := post(t, ts.URL+"/v1/jobs", both, nil); code != http.StatusBadRequest {
		t.Fatalf("jobs+pipeline submit: status %d, want 400", code)
	}
	// Pipeline validation runs at admission, not at execution.
	if code := post(t, ts.URL+"/v1/jobs", jobSubmit{Pipeline: &pipeline.Request{}}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty pipeline submit: status %d, want 400", code)
	}
	bad := pipeline.Request{Spec: "b01", ATPG: pipeline.ATPGConfig{Shards: pipeline.MaxShards + 1}}
	if code := post(t, ts.URL+"/v1/jobs", jobSubmit{Pipeline: &bad}, nil); code != http.StatusBadRequest {
		t.Fatalf("overshard pipeline submit: status %d, want 400", code)
	}
}

// TestPipelineMetricsFamilies pins the per-stage metric families on
// the scrape surface after a served pipeline run.
func TestPipelineMetricsFamilies(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	postPipeline(t, ts.URL, pipeline.Request{Spec: "b01"})
	st := s.Stats()
	if st.Pipelines != 1 || st.PipelineErrors != 0 {
		t.Fatalf("stats counters: %d runs, %d errors", st.Pipelines, st.PipelineErrors)
	}
	var errResp errorResponse
	if code := post(t, ts.URL+"/v1/pipeline", pipeline.Request{Spec: "b99"}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d", code)
	}
	if st = s.Stats(); st.PipelineErrors != 1 {
		t.Fatalf("pipeline errors %d, want 1", st.PipelineErrors)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"dpfill_pipeline_runs_total 1\n",
		"dpfill_pipeline_errors_total 1\n",
		`dpfill_pipeline_stage_seconds_count{stage="atpg"} 1`,
		`dpfill_pipeline_stage_seconds_count{stage="fill"} 1`,
		`dpfill_pipeline_stage_seconds_count{stage="power"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
