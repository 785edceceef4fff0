package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/engine"
	"repro/internal/fill"
	"repro/internal/jobs"
)

// doJSON sends a bodyless request and decodes the JSON response.
func doJSON(t *testing.T, method, url string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// waitJobState polls GET /v1/jobs/{id} until the job reaches want.
func waitJobState(t *testing.T, baseURL, id string, want jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var st jobs.Status
	for time.Now().Before(deadline) {
		if code := doJSON(t, http.MethodGet, baseURL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (stuck at %s)", id, want, st.State)
	return jobs.Status{}
}

// assertBatchItemParity requires the async result to carry the exact
// cubes, perm, peak and total of the synchronous answer, error slots
// aligned.
func assertBatchItemParity(t *testing.T, got, want *BatchResponse) {
	t.Helper()
	if len(got.Results) != len(want.Results) || got.Failed != want.Failed {
		t.Fatalf("shape mismatch: %d/%d results, %d/%d failed",
			len(got.Results), len(want.Results), got.Failed, want.Failed)
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if (g.Error != "") != (w.Error != "") {
			t.Fatalf("item %d: error %q vs %q", i, g.Error, w.Error)
		}
		if w.Error != "" {
			continue
		}
		if g.Result.Peak != w.Result.Peak || g.Result.Total != w.Result.Total {
			t.Fatalf("item %d: peak/total %d/%d, want %d/%d",
				i, g.Result.Peak, g.Result.Total, w.Result.Peak, w.Result.Total)
		}
		if fmt.Sprint(g.Result.Cubes) != fmt.Sprint(w.Result.Cubes) {
			t.Fatalf("item %d: cubes differ:\n%v\nvs\n%v", i, g.Result.Cubes, w.Result.Cubes)
		}
		if fmt.Sprint(g.Result.Perm) != fmt.Sprint(w.Result.Perm) {
			t.Fatalf("item %d: perm differs: %v vs %v", i, g.Result.Perm, w.Result.Perm)
		}
	}
}

// asyncParityBatch is a mixed batch: two fillers, a duplicate job and
// one invalid job, so parity covers dedup and error slots too.
func asyncParityBatch() BatchRequest {
	return BatchRequest{Jobs: []FillRequest{
		{Name: "a", Cubes: []string{"0XX1X", "1XX0X", "X10XX"}},
		{Name: "bad", Cubes: []string{"0z"}},
		{Name: "b", Cubes: []string{"00X", "X1X", "1X0"}, Filler: "mt", Orderer: "i"},
		{Name: "a-again", Cubes: []string{"0XX1X", "1XX0X", "X10XX"}},
	}}
}

// TestAsyncJobMatchesSyncBatch pins the tentpole contract on a single
// worker: a batch submitted through POST /v1/jobs answers with the
// same cubes, perm, peak and total as POST /v1/batch.
func TestAsyncJobMatchesSyncBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := asyncParityBatch()
	var want BatchResponse
	if code := post(t, ts.URL+"/v1/batch", req, &want); code != http.StatusOK {
		t.Fatalf("sync batch: status %d", code)
	}
	var st jobs.Status
	if code := post(t, ts.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st.ID == "" || st.Total != len(req.Jobs) {
		t.Fatalf("submit snapshot: %+v", st)
	}
	final := waitJobState(t, ts.URL, st.ID, jobs.StateDone)
	var got BatchResponse
	if err := json.Unmarshal(final.Result, &got); err != nil {
		t.Fatalf("decoding job result: %v", err)
	}
	assertBatchItemParity(t, &got, &want)
}

// TestAsyncJobSurvivesRestart pins the WAL contract: a settled job's
// result is served byte-identically by a fresh server over the same
// data directory, without re-running anything.
func TestAsyncJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := asyncParityBatch()

	s1, ts1 := newTestServer(t, Config{Workers: 2, FrontConfig: FrontConfig{DataDir: dir}})
	var want BatchResponse
	if code := post(t, ts1.URL+"/v1/batch", req, &want); code != http.StatusOK {
		t.Fatalf("sync batch: status %d", code)
	}
	var st jobs.Status
	if code := post(t, ts1.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
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
		t.Fatalf("replayed result differs from the recorded one:\n%s\nvs\n%s", replayed.Result, settled.Result)
	}
	var got BatchResponse
	if err := json.Unmarshal(replayed.Result, &got); err != nil {
		t.Fatal(err)
	}
	assertBatchItemParity(t, &got, &want)
}

// journalUnsettled leaves each payload in dir's job journal as an
// accepted job that never ran, the way a server killed before running
// it (or an older build's queue) leaves one behind: a gated manager
// accepts and fsyncs the submits, and its workers never start.
func journalUnsettled(t *testing.T, dir string, payloads ...string) []string {
	t.Helper()
	m, err := jobs.Open(jobs.Config{
		Runner: func(context.Context, json.RawMessage) (json.RawMessage, error) {
			t.Error("gated manager ran a job")
			return nil, nil
		},
		Dir:   dir,
		Start: make(chan struct{}), // never released
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(payloads))
	for i, p := range payloads {
		st, err := m.Submit(json.RawMessage(p), 1, "")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestReplayRejectsUnknownFields: a job journaled with a field this
// build no longer has — "window", from the removed windowed filler —
// settles failed on replay with an error naming the field, in both the
// batch and the pipeline payload, instead of running as an exact fill.
func TestReplayRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	ids := journalUnsettled(t, dir,
		`{"jobs":[{"cubes":["0X1","X10","1XX"],"window":4}]}`,
		`{"pipeline":{"spec":"b01","window":4}}`)
	_, ts := newTestServer(t, Config{Workers: 1, FrontConfig: FrontConfig{DataDir: dir}})
	for _, id := range ids {
		st := waitJobState(t, ts.URL, id, jobs.StateFailed)
		if !strings.Contains(st.Error, `unknown field "window"`) {
			t.Errorf("job %s failed with %q, want it to name the unknown field", id, st.Error)
		}
	}
}

// blockingFiller parks every Fill until release is closed, so tests
// can hold the engine's only worker slot deterministically.
type blockingFiller struct{ release chan struct{} }

func (f blockingFiller) Name() string { return "block" }
func (f blockingFiller) Fill(p *cube.Packed, perm []int) (*fill.Result, error) {
	<-f.release
	return &fill.Result{Rows: p.Rows(perm)}, nil
}

// blockEngine occupies every worker slot of a 1-worker engine and
// returns the release gate plus a done channel.
func blockEngine(t *testing.T, eng *engine.Engine) (release chan struct{}, done chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	done = make(chan struct{})
	go func() {
		defer close(done)
		eng.Run(context.Background(), []engine.Job{{
			Name: "blocker", Set: cube.MustParseSet("0X"), Filler: blockingFiller{release},
		}})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, inflight := eng.Load(); inflight == 1 {
			return release, done
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never occupied the engine")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncJobReplayAfterKillMidBatch kills the daemon (Close is the
// in-process stand-in for SIGKILL: the journal holds an accept record
// and no terminal record) while the job's batch is wedged behind the
// engine semaphore, then requires a fresh server over the same data
// directory to re-run it and answer exactly what /v1/batch answers.
func TestAsyncJobReplayAfterKillMidBatch(t *testing.T) {
	dir := t.TempDir()
	eng := engine.New(1)
	release, done := blockEngine(t, eng)
	s1, ts1 := newTestServer(t, Config{Engine: eng, FrontConfig: FrontConfig{DataDir: dir}})
	req := BatchRequest{Jobs: []FillRequest{{Name: "k", Cubes: []string{"0XX1", "1XX0", "X10X"}}}}
	var st jobs.Status
	if code := post(t, ts1.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// The job must be mid-run — accepted, journaled, wedged at the
	// engine — when the daemon dies.
	waitJobState(t, ts1.URL, st.ID, jobs.StateRunning)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	close(release)
	<-done

	_, ts2 := newTestServer(t, Config{Workers: 2, FrontConfig: FrontConfig{DataDir: dir}})
	final := waitJobState(t, ts2.URL, st.ID, jobs.StateDone)
	var got BatchResponse
	if err := json.Unmarshal(final.Result, &got); err != nil {
		t.Fatal(err)
	}
	var want BatchResponse
	if code := post(t, ts2.URL+"/v1/batch", req, &want); code != http.StatusOK {
		t.Fatalf("sync batch: status %d", code)
	}
	assertBatchItemParity(t, &got, &want)
}

// TestAsyncJobCancelAtEngineQueue cancels a job whose batch is queued
// behind a saturated engine: the DELETE must interrupt the engine-level
// wait and settle the job cancelled, without waiting for the blocker.
func TestAsyncJobCancelAtEngineQueue(t *testing.T) {
	eng := engine.New(1)
	release, done := blockEngine(t, eng)
	defer func() { close(release); <-done }()
	_, ts := newTestServer(t, Config{Engine: eng})
	req := BatchRequest{Jobs: []FillRequest{{Cubes: []string{"0X", "X1"}}}}
	var st jobs.Status
	if code := post(t, ts.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitJobState(t, ts.URL, st.ID, jobs.StateRunning)
	var cancelled jobs.Status
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	final := waitJobState(t, ts.URL, st.ID, jobs.StateCancelled)
	if final.Result != nil {
		t.Fatal("cancelled job kept a result")
	}
	// A settled job cannot be cancelled again.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil); code != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", code)
	}
}

// TestAsyncJobAdmissionControl pins the 429 path: with the queue full,
// submits bounce instead of buffering without bound.
func TestAsyncJobAdmissionControl(t *testing.T) {
	eng := engine.New(1)
	release, done := blockEngine(t, eng)
	defer func() { close(release); <-done }()
	_, ts := newTestServer(t, Config{Engine: eng, FrontConfig: FrontConfig{MaxQueuedJobs: 1}})
	req := BatchRequest{Jobs: []FillRequest{{Cubes: []string{"0X", "X1"}}}}
	if code := post(t, ts.URL+"/v1/jobs", req, nil); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	var errResp errorResponse
	if code := post(t, ts.URL+"/v1/jobs", req, &errResp); code != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", code)
	}
	if errResp.Error == "" {
		t.Fatal("429 carried no error payload")
	}
}

// TestAsyncJobValidationAndLookups covers the remaining API edges:
// submit validation mirrors /v1/batch, unknown IDs are 404, and the
// listing carries retained jobs without result payloads.
func TestAsyncJobValidationAndLookups(t *testing.T) {
	_, ts := newTestServer(t, Config{FrontConfig: FrontConfig{MaxBatchJobs: 2}})
	if code := post(t, ts.URL+"/v1/jobs", BatchRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty submit: status %d, want 400", code)
	}
	three := BatchRequest{Jobs: make([]FillRequest, 3)}
	if code := post(t, ts.URL+"/v1/jobs", three, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized submit: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/absent", nil); code != http.StatusNotFound {
		t.Fatalf("unknown get: status %d, want 404", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/absent", nil); code != http.StatusNotFound {
		t.Fatalf("unknown cancel: status %d, want 404", code)
	}
	req := BatchRequest{Jobs: []FillRequest{{Cubes: []string{"0X", "X1"}}}}
	var st jobs.Status
	if code := post(t, ts.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	waitJobState(t, ts.URL, st.ID, jobs.StateDone)
	var list jobs.StatusList
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}
	if list.Jobs[0].Result != nil {
		t.Fatal("listing leaked a result payload")
	}
}
