package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/jobs"
	"repro/internal/server"
)

// ingressMaxGates caps the pipeline circuits of ingressTiers: b01,
// b02, b06 and small custom specs fit, so a fuzzed pipeline run takes
// milliseconds.
const ingressMaxGates = 80

// ingressTiers stands up both serving tiers in process with small shape
// limits: a dpfilld handler, and a coordinator without a fleet, whose
// local in-process service answers every dispatch.
func ingressTiers(tb testing.TB, limit int64) map[string]http.Handler {
	tb.Helper()
	front := server.FrontConfig{MaxBodyBytes: limit, MaxGates: ingressMaxGates}
	cfg := server.Config{Workers: 1, MaxRows: 16, MaxCols: 16, DefaultTimeout: time.Minute, FrontConfig: front}
	srv, err := server.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	co, err := New(Config{Local: cfg, FrontConfig: front})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { co.Close() })
	return map[string]http.Handler{"dpfilld": srv.Handler(), "dpfill-coord": co.Handler()}
}

// TestIngressEdges runs the body-decoding edge cases through both
// tiers: an over-limit body answers 413 with the limit; an over-limit
// body that is malformed from its first byte keeps the 400 it has
// always had; bytes after the value are a 400; a Content-Length
// claiming a terabyte in front of a short body costs no more than the
// limit; and one declaring exactly the limit in front of a short body
// costs a small fraction of it, since the buffer grows only as bytes
// arrive.
func TestIngressEdges(t *testing.T) {
	const limit = 1 << 20
	long := strings.Repeat("0", limit)
	cases := []struct {
		name, path, body string
		declared         int64 // Content-Length when non-zero
		maxAlloc         uint64
		status           int
		errBody          string
	}{
		{"fill over the limit", "/v1/fill", `{"cubes":["` + long + `"]}`, 0, 0, http.StatusRequestEntityTooLarge,
			`{"error":"request body exceeds 1048576 bytes"}`},
		{"batch over the limit", "/v1/batch", `{"jobs":[{"cubes":["` + long + `"]}]}`, 0, 0, http.StatusRequestEntityTooLarge,
			`{"error":"request body exceeds 1048576 bytes"}`},
		{"over the limit, malformed from byte one", "/v1/fill", "x" + long, 0, 0, http.StatusBadRequest,
			`{"error":"malformed JSON: invalid character 'x' looking for beginning of value"}`},
		{"over the limit in trailing whitespace", "/v1/fill", `{"cubes":["01"]}` + strings.Repeat(" ", limit), 0, 0,
			http.StatusRequestEntityTooLarge, `{"error":"request body exceeds 1048576 bytes"}`},
		{"bytes after the value", "/v1/fill", `{"cubes":["01"]} 1`, 0, 0, http.StatusBadRequest,
			`{"error":"malformed JSON: body continues after the first JSON value"}`},
		{"batch bytes after the value", "/v1/batch", `{"jobs":[{"cubes":["01"]}]}]`, 0, 0, http.StatusBadRequest,
			`{"error":"malformed JSON: invalid character ']' looking for beginning of value"}`},
		{"terabyte Content-Length, short body", "/v1/fill", `{"cubes":["0X","X1"]}`, 1 << 40, limit, http.StatusOK, ""},
		{"Content-Length at the limit, short body", "/v1/fill", `{"cubes":["0X","X1"]}`, limit, limit / 8, http.StatusOK, ""},
	}
	for tier, h := range ingressTiers(t, limit) {
		for _, tc := range cases {
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			if tc.declared != 0 {
				req.ContentLength = tc.declared
			}
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if rec.Code != tc.status {
				t.Errorf("%s %s: status %d %.200s, want %d", tier, tc.name, rec.Code, rec.Body.String(), tc.status)
				continue
			}
			if tc.errBody != "" && strings.TrimSpace(rec.Body.String()) != tc.errBody {
				t.Errorf("%s %s: answered %s, want %s", tier, tc.name, rec.Body.String(), tc.errBody)
			}
			if tc.maxAlloc != 0 {
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > tc.maxAlloc {
					t.Errorf("%s %s: allocated %d bytes, more than %d", tier, tc.name, alloc, tc.maxAlloc)
				}
			}
		}
	}
}

// checkServed requires a 2xx or 4xx answer. The one 5xx an arbitrary
// body may earn is a 504, and only when it asks for a deadline of its
// own (timeout_ms in any spelling encoding/json matches).
func checkServed(t *testing.T, tier, path string, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	code := rec.Code
	if code/100 == 2 || code/100 == 4 {
		return
	}
	if code == http.StatusGatewayTimeout && setsTimeout(body) {
		return
	}
	t.Fatalf("%s %s %.300q: answered %d %s", tier, path, body, code, rec.Body.String())
}

func setsTimeout(body []byte) bool {
	var fill client.FillRequest
	var batch client.BatchRequest
	var pipe client.PipelineRequest
	if json.Unmarshal(body, &fill) == nil && fill.TimeoutMillis != 0 ||
		json.Unmarshal(body, &pipe) == nil && pipe.TimeoutMillis != 0 {
		return true
	}
	if json.Unmarshal(body, &batch) == nil {
		for _, j := range batch.Jobs {
			if j.TimeoutMillis != 0 {
				return true
			}
		}
	}
	return false
}

// fuzzServe sends every fuzzed body to path on both tiers and checks
// each 2xx answer with checkAnswer and checkOmitted; when both tiers answer 2xx to a
// body that sets no deadline of its own (which one tier may meet and
// the other miss), the coordinator's answer is dpfilld's once
// measurements are zeroed.
func fuzzServe(f *testing.F, path string, seeds []string) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	tiers := ingressTiers(f, 64<<10)
	f.Fuzz(func(t *testing.T, body []byte) {
		answers := map[string]any{}
		for tier, h := range tiers {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			checkServed(t, tier, path, body, rec)
			if rec.Code/100 == 2 {
				answers[tier] = checkAnswer(t, tier, path, body, rec.Body.Bytes())
				checkOmitted(t, tier, h, path, body, answers[tier])
			}
		}
		worker, coord := answers["dpfilld"], answers["dpfill-coord"]
		if worker == nil || coord == nil || setsTimeout(body) {
			return
		}
		if w, c := unmeasured(worker), unmeasured(coord); !reflect.DeepEqual(w, c) {
			t.Fatalf("%s %.300q: coordinator answered %+v, dpfilld %+v", path, body, c, w)
		}
	})
}

// checkAnswer decodes a 2xx answer with a strict encoding/json decoder
// and with the client's decoder, requires the two to agree, checks
// every result that carries cubes against its job, and returns the
// decoded answer.
func checkAnswer(t *testing.T, tier, path string, body, answer []byte) any {
	t.Helper()
	strict, scanned := any(new(client.FillResponse)), any(new(client.FillResponse))
	if path == "/v1/batch" {
		strict, scanned = new(client.BatchResponse), new(client.BatchResponse)
	}
	if err := jobs.DecodeStrict(answer, strict); err != nil {
		t.Fatalf("%s %s %.300q: answer %.300q does not decode strictly: %v", tier, path, body, answer, err)
	}
	if err := server.DecodeAnswer(answer, scanned); err != nil || !reflect.DeepEqual(scanned, strict) {
		t.Fatalf("%s %s %.300q: the client decoded %+v (%v), encoding/json %+v", tier, path, body, scanned, err, strict)
	}
	switch a := strict.(type) {
	case *client.FillResponse:
		var req client.FillRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%s %s %.300q: answered 2xx to a body json.Unmarshal refuses: %v", tier, path, body, err)
		}
		checkFilled(t, tier, req, a)
	case *client.BatchResponse:
		var req client.BatchRequest
		if err := json.Unmarshal(body, &req); err != nil || len(a.Results) != len(req.Jobs) {
			t.Fatalf("%s %s %.300q: %d results for the body's jobs (%v)", tier, path, body, len(a.Results), err)
		}
		for k, it := range a.Results {
			if it.Result != nil {
				checkFilled(t, tier, req.Jobs[k], it.Result)
			}
		}
	}
	return strict
}

// checkFilled checks a result that carries cubes against its job: the
// k-th output cube keeps every care bit of input cube perm[k], no X is
// left, and peak, total and profile are the filled set's recount.
func checkFilled(t *testing.T, tier string, req client.FillRequest, r *client.FillResponse) {
	t.Helper()
	if len(r.Cubes) == 0 {
		return
	}
	in := jobInput(t, tier, req)
	out, err := cube.ParseSet(r.Cubes...)
	if err != nil || len(r.Perm) != in.Len() || !slices.Equal(slices.Sorted(slices.Values(r.Perm)), seq(in.Len())) {
		t.Fatalf("%s: cubes %q with perm %v for %d inputs (%v)", tier, r.Cubes, r.Perm, in.Len(), err)
	}
	if !in.Reorder(r.Perm).Covers(out) {
		t.Fatalf("%s: %s cubes %q do not cover the input %q in perm order %v", tier, r.Filler, r.Cubes, req.Cubes, r.Perm)
	}
	profile := out.ToggleProfile()
	total := 0
	for _, v := range profile {
		total += v
	}
	if r.Peak != out.PeakToggles() || r.Total != total || !slices.Equal(r.Profile, profile) {
		t.Fatalf("%s: %s answered peak %d total %d profile %v; the cubes recount to %d, %d, %v",
			tier, r.Filler, r.Peak, r.Total, r.Profile, out.PeakToggles(), total, profile)
	}
}

// jobInput parses an answered job's cubes.
func jobInput(t *testing.T, tier string, req client.FillRequest) *cube.Set {
	t.Helper()
	in, err := cube.ParseSet(req.Cubes...)
	if req.STIL != "" {
		in, err = cube.ReadSTIL(strings.NewReader(req.STIL))
	}
	if err != nil {
		t.Fatalf("%s: answered a job whose input does not parse: %v", tier, err)
	}
	return in
}

// checkOmitted holds every DP-fill omit_cubes result of a 2xx answer to
// the paper's theorem at the door. The same body with omit_cubes off,
// sent to the same tier, must answer the same perm, peak, total and
// profile, with cubes that pass checkAnswer; and when the job's input
// has at most 16 X, the peak must be the exhaustive minimum over every
// completion in perm order.
func checkOmitted(t *testing.T, tier string, h http.Handler, path string, body []byte, answer any) {
	t.Helper()
	var reqs []client.FillRequest
	var results []*client.FillResponse
	switch a := answer.(type) {
	case *client.FillResponse:
		var req client.FillRequest
		_ = json.Unmarshal(body, &req) // checkAnswer has decoded it
		reqs, results = []client.FillRequest{req}, []*client.FillResponse{a}
	case *client.BatchResponse:
		var req client.BatchRequest
		_ = json.Unmarshal(body, &req)
		reqs = req.Jobs
		for _, it := range a.Results {
			results = append(results, it.Result)
		}
	}
	full := slices.Clone(reqs)
	omitted := false
	for k := range full {
		omitted = omitted || full[k].OmitCubes && results[k] != nil && results[k].Filler == "DP-fill"
		full[k].OmitCubes = false
	}
	if !omitted {
		return
	}
	var fullBody []byte
	var err error
	if path == "/v1/batch" {
		fullBody, err = json.Marshal(client.BatchRequest{Jobs: full})
	} else {
		fullBody, err = json.Marshal(full[0])
	}
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(fullBody)))
	if rec.Code == http.StatusGatewayTimeout && setsTimeout(body) {
		return
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s %.300q: the body with omit_cubes off answered %d %s", tier, path, fullBody, rec.Code, rec.Body.String())
	}
	fullResults := []*client.FillResponse{}
	switch a := checkAnswer(t, tier, path, fullBody, rec.Body.Bytes()).(type) {
	case *client.FillResponse:
		fullResults = append(fullResults, a)
	case *client.BatchResponse:
		for _, it := range a.Results {
			fullResults = append(fullResults, it.Result)
		}
	}
	for k, r := range results {
		if r == nil || !reqs[k].OmitCubes || r.Filler != "DP-fill" {
			continue
		}
		f := fullResults[k]
		if f == nil {
			if setsTimeout(body) {
				continue
			}
			t.Fatalf("%s %s %.300q: job %d answered with omit_cubes and failed without it", tier, path, body, k)
		}
		if !slices.Equal(r.Perm, f.Perm) || r.Peak != f.Peak || r.Total != f.Total || !slices.Equal(r.Profile, f.Profile) {
			t.Fatalf("%s %s %.300q: job %d answered perm %v peak %d total %d profile %v with omit_cubes, %v %d %d %v without",
				tier, path, body, k, r.Perm, r.Peak, r.Total, r.Profile, f.Perm, f.Peak, f.Total, f.Profile)
		}
		in := jobInput(t, tier, reqs[k])
		if in.XCount() <= 16 {
			if least := exhaustivePeak(in.Reorder(r.Perm)); r.Peak != least {
				t.Fatalf("%s %s %.300q: job %d answered peak %d, the exhaustive minimum is %d", tier, path, body, k, r.Peak, least)
			}
		}
	}
}

// exhaustivePeak is the least peak toggle count over every completion
// of s, found by trying each assignment of its Xs.
func exhaustivePeak(s *cube.Set) int {
	var xs [][2]int // cube, pin
	for j, c := range s.Cubes {
		for i, v := range c {
			if v == cube.X {
				xs = append(xs, [2]int{j, i})
			}
		}
	}
	work := s.Clone()
	least := -1
	for m := 0; m < 1<<len(xs); m++ {
		for k, x := range xs {
			work.Cubes[x[0]][x[1]] = cube.Zero
			if m>>k&1 == 1 {
				work.Cubes[x[0]][x[1]] = cube.One
			}
		}
		if p := work.PeakToggles(); least < 0 || p < least {
			least = p
		}
	}
	return least
}

// seq is 0, 1, ..., n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// unmeasured zeroes what differs between two correct answers to one
// body: durations, cache hits, explain traces (kept only as present or
// absent) and the coordinator's shard breakdown.
func unmeasured(answer any) any {
	clean := func(r *client.FillResponse) {
		r.DurationMillis, r.Cached = 0, false
		if r.Explain != nil {
			r.Explain = &core.Trace{}
		}
	}
	switch a := answer.(type) {
	case *client.FillResponse:
		clean(a)
	case *client.BatchResponse:
		a.Shards = nil
		for _, it := range a.Results {
			if it.Result != nil {
				clean(it.Result)
			}
		}
	}
	return answer
}

// FuzzServeFill sends arbitrary bodies through POST /v1/fill on
// dpfilld and on the coordinator: no panic, no 5xx but a requested
// deadline's 504, every 2xx answer strict JSON that the client decodes
// alike, every filled set a covering completion with its statistics,
// and the two tiers agreeing.
func FuzzServeFill(f *testing.F) {
	fuzzServe(f, "/v1/fill", []string{
		`{"cubes":["0X1X","1XX0","X01X"],"orderer":"xstat","filler":"dp","omit_cubes":true}`,
		`{"name":"a<b>&\u2028","cubes":["0X1X","1XX0","X01X","XXXX","1x-0"],"orderer":"i","filler":"dp","debug":true}`,
		`{"cubes":["0X","X1"],"orderer":"isa","filler":"r","seed":-9223372036854775808}`,
		`{"cubes":[""]}`,
		`{"cubes":["0X"],"stil":"x"}`,
		`{"stil":"STIL 1.0;\nSignals { \"a\" In; }\nPattern p { V { all = 0N; } }\n"}`,
		`{"cubes":["0X"],"timeout_ms":1}`,
		`{"cubes":["0X"],"timeout_ms":18446744073710}`,
		`{"cubes":["0X"],"priority":-9223372036854775808,"debug":true}`,
		`{"cubes":["01234567890123456789"]}`,
		`{"Cubes":["01"],"cubes":["10"]}`,
		`null`,
	})
}

// FuzzServeBatch is FuzzServeFill for POST /v1/batch.
func FuzzServeBatch(f *testing.F) {
	fuzzServe(f, "/v1/batch", []string{
		`{"jobs":[{"cubes":["0X1","1X0"]},{"cubes":["0z"]}],"debug":true}`,
		`{"jobs":[{"cubes":["0XX1","XX10","1XXX"],"orderer":"i"},{"cubes":["0XX1","XX10","1XXX"],"filler":"mt"},{"cubes":["0XX1","XX10","1XXX"],"orderer":"i"}]}`,
		`{"jobs":[{"cubes":["0X"],"timeout_ms":1},{"cubes":["0X"],"timeout_ms":1}]}`,
		`{"jobs":[{"cubes":["0X"],"filler":"nope"},{"stil":"bad"}]}`,
		`{"jobs":[]}`,
		`{"jobs":null}`,
		`{"jobs":[{}]}`,
		`{"jobs":[{"cubes":["0X"],"seed":1},{"cubes":["0X"],"seed":1},{"cubes":["0X"],"seed":1}]}`,
		`{"jobs":[{"cubes":["0XX1","XX10","1XXX"],"orderer":"i","omit_cubes":true},{"cubes":["0XX1","XX10","1XXX"],"orderer":"i"},{"cubes":["0X1X","1XX0","X01X"],"omit_cubes":true,"debug":true}]}`,
	})
}

// FuzzServePipeline sends arbitrary bodies through POST /v1/pipeline
// on dpfilld and on the coordinator: no panic, no 5xx but a requested
// deadline's 504, every 2xx answer a report that decodes strictly, and
// without a deadline of its own the two tiers answering the same
// status and, on 2xx, the same report once stage timings are removed.
func FuzzServePipeline(f *testing.F) {
	for _, s := range []string{
		`{"spec":"b02"}`,
		`{"spec":"b01","atpg":{"shards":3},"include_cubes":true}`,
		`{"spec":"b06","stage":"atpg","atpg":{"shards":2},"shard_index":1}`,
		`{"spec":"pis=3,ffs=4,gates=20,seed=7","orderer":"i","filler":"dp","power":{"scheme":"loc","chains":2,"tiles":3}}`,
		`{"spec":"b01","atpg":{"max_faults":20,"backtrack_limit":5,"max_patterns":4,"no_compact":true},"seed":3,"filler":"mt","name":"x"}`,
		`{"netlist":"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(z)\nz = NAND(a, q)\ny = NOR(b, q)\n","include_cubes":true}`,
		`{"netlist":"INPUT(a)\nOUTPUT(z)\nna = NOT(a)\nz = AND(a, na)\n","atpg":{"max_faults":1}}`,
		`{"spec":"b19"}`,
		`{"spec":"pis=1,ffs=1,gates=1048576"}`,
		`{"spec":"b02","power":{"tiles":100000}}`,
		`{"spec":"b02","timeout_ms":1}`,
		`{"spec":"b02","netlist":"INPUT(a)"}`,
		`{"spec":"b02","stage":"atpg","shard_index":5}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	tiers := ingressTiers(f, 64<<10)
	f.Fuzz(func(t *testing.T, body []byte) {
		status := map[string]int{}
		reports := map[string]*client.PipelineReport{}
		for tier, h := range tiers {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/pipeline", bytes.NewReader(body)))
			checkServed(t, tier, "/v1/pipeline", body, rec)
			status[tier] = rec.Code
			if rec.Code/100 == 2 {
				rep := new(client.PipelineReport)
				if err := jobs.DecodeStrict(rec.Body.Bytes(), rep); err != nil {
					t.Fatalf("%s %.300q: answer %.300q does not decode strictly: %v", tier, body, rec.Body.Bytes(), err)
				}
				rep.Stages = nil
				reports[tier] = rep
			}
		}
		if setsTimeout(body) {
			return
		}
		if status["dpfilld"] != status["dpfill-coord"] {
			t.Fatalf("%.300q: dpfilld answered %d, the coordinator %d", body, status["dpfilld"], status["dpfill-coord"])
		}
		if w, c := reports["dpfilld"], reports["dpfill-coord"]; !reflect.DeepEqual(w, c) {
			t.Fatalf("%.300q: coordinator reported %+v, dpfilld %+v", body, c, w)
		}
	})
}
