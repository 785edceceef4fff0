package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cube"
	"repro/internal/engine"
	"repro/internal/fill"
	"repro/internal/jobs"
	"repro/internal/server"
)

// TestAsyncJobParityThroughCoordinator pins the fleet half of the
// async contract: a batch submitted through the coordinator's
// /v1/jobs — sharded across a worker exactly like a synchronous batch
// — answers byte-identically (cubes, peak, total, error slots) to a
// single-node run. Run under -race by CI.
func TestAsyncJobParityThroughCoordinator(t *testing.T) {
	w := newChaosWorker(t)
	co := newTestCoordinator(t, Config{ShardSize: 2}, w)
	waitHealthy(t, co, 1)
	c := coordClient(t, co)

	req := randomBatch(9)
	want := localExpected(t, req)
	st, err := c.SubmitJob(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "queued" && st.State != "running" && st.State != "done" {
		t.Fatalf("submit snapshot state %q", st.State)
	}
	final, err := c.WaitJob(context.Background(), st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	got, err := client.JobBatchResult(final)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchParity(t, got, want, req)
	if w.batchHits.Load() == 0 {
		t.Fatal("async job never reached the fleet")
	}

	// The job is listed, and cancelling it now is a 409 conflict.
	list, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("job listing: %+v", list)
	}
	if _, err := c.CancelJob(context.Background(), st.ID); err == nil {
		t.Fatal("cancelled a settled job")
	}
}

// TestCoordinatorJobJournalSurvivesRestart pins the coordinator's WAL:
// a job settled before a restart answers from its journaled result; a
// job killed mid-flight re-runs and re-shards over the live fleet.
func TestCoordinatorJobJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	w := newChaosWorker(t)
	req := randomBatch(4)
	want := localExpected(t, req)

	co1 := newTestCoordinator(t, Config{FrontConfig: server.FrontConfig{DataDir: dir}}, w)
	waitHealthy(t, co1, 1)
	c1 := coordClient(t, co1)
	st, err := c1.SubmitJob(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	settled, err := c1.WaitJob(context.Background(), st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}

	co2 := newTestCoordinator(t, Config{FrontConfig: server.FrontConfig{DataDir: dir}}, w)
	waitHealthy(t, co2, 1)
	c2 := coordClient(t, co2)
	replayed, err := c2.Job(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.State != "done" {
		t.Fatalf("replayed job state %s, want done", replayed.State)
	}
	if string(replayed.Result) != string(settled.Result) {
		t.Fatalf("replayed result differs from the recorded one:\n%s\nvs\n%s",
			replayed.Result, settled.Result)
	}
	got, err := client.JobBatchResult(replayed)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchParity(t, got, want, req)
}

// journalUnsettled leaves each payload in dir's job journal as an
// accepted job that never ran, the way a coordinator killed before
// running it (or an older build's queue) leaves one behind: a gated
// manager accepts and fsyncs the submits, and its workers never start.
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

// TestReplayedJobWaitsForFleetAdmission pins the startup ordering: a
// job journaled as unsettled (accepted, never finished — a coordinator
// killed mid-flight) must not re-run before the first heartbeat sweep
// has admitted the fleet. With fallback disabled, a premature re-run
// would dispatch into an all-unhealthy registry and journal a
// permanent "no healthy workers" failure as the job's final answer;
// the Start gate holds the job workers until Run's first sweep.
func TestReplayedJobWaitsForFleetAdmission(t *testing.T) {
	dir := t.TempDir()
	w := newChaosWorker(t)
	req := randomBatch(4)
	want := localExpected(t, req)

	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	id := journalUnsettled(t, dir, string(payload))[0]

	co := newTestCoordinator(t, Config{DisableFallback: true, FrontConfig: server.FrontConfig{DataDir: dir}}, w)
	c := coordClient(t, co)
	final, err := c.WaitJob(context.Background(), id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("replayed job ended %s (%s): it ran before the fleet was admitted", final.State, final.Error)
	}
	got, err := client.JobBatchResult(final)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchParity(t, got, want, req)
	if w.batchHits.Load() == 0 {
		t.Fatal("replayed job never reached the fleet")
	}
}

// TestReplayRejectsUnknownFields: a job journaled with a field this
// build no longer has — "window", from the removed windowed filler —
// settles failed on the coordinator's replay with an error naming the
// field, in both the batch and the pipeline payload, instead of being
// dispatched as an exact fill.
func TestReplayRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	w := newChaosWorker(t)
	ids := journalUnsettled(t, dir,
		`{"jobs":[{"cubes":["0X1","X10","1XX"],"window":4}]}`,
		`{"pipeline":{"spec":"b01","window":4}}`)
	co := newTestCoordinator(t, Config{FrontConfig: server.FrontConfig{DataDir: dir}}, w)
	c := coordClient(t, co)
	for _, id := range ids {
		st, err := c.WaitJob(context.Background(), id, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "failed" || !strings.Contains(st.Error, `unknown field "window"`) {
			t.Errorf("job %s settled %s (%q), want failed naming the unknown field", id, st.State, st.Error)
		}
	}
	if w.batchHits.Load() != 0 || w.pipelineHits.Load() != 0 {
		t.Fatal("a job with an unknown field reached the fleet")
	}
}

// TestAsyncJobValidationThroughCoordinator: the coordinator applies
// the same submit validation as its synchronous batch handler.
func TestAsyncJobValidationThroughCoordinator(t *testing.T) {
	co := newTestCoordinator(t, Config{FrontConfig: server.FrontConfig{MaxBatchJobs: 2}})
	c := coordClient(t, co)
	_, err := c.SubmitJob(context.Background(), client.BatchRequest{})
	if !isAPIStatus(err, 400) {
		t.Fatalf("empty submit: %v, want 400", err)
	}
	_, err = c.SubmitJob(context.Background(), client.BatchRequest{Jobs: make([]client.FillRequest, 3)})
	if !isAPIStatus(err, 400) {
		t.Fatalf("oversized submit: %v, want 400", err)
	}
	_, err = c.Job(context.Background(), "absent")
	if !isAPIStatus(err, 404) {
		t.Fatalf("unknown job: %v, want 404", err)
	}
}

// isAPIStatus reports whether err is an APIError with the status.
func isAPIStatus(err error, status int) bool {
	var api *client.APIError
	return errors.As(err, &api) && api.Status == status
}

// TestWatchParamAnswersPlainGet: on both tiers a watch query parameter
// changes nothing — GET /v1/jobs/{id}?watch=1 answers the plain GET's
// status, Content-Type and body for a queued job, an unknown ID and a
// settled job.
func TestWatchParamAnswersPlainGet(t *testing.T) {
	// One single-slot engine under both tiers, its slot held by a
	// blocked fill: each tier's first async job stalls in the engine, so
	// its second stays queued until release closes.
	eng := engine.New(1)
	release := make(chan struct{})
	set, err := cube.ParseSet("0X")
	if err != nil {
		t.Fatal(err)
	}
	blocker := fill.Func{FillName: "blocker", F: func(s *cube.Set) (*cube.Set, error) {
		<-release
		return s.Clone(), nil
	}}
	go eng.Run(context.Background(), []engine.Job{{Set: set, Filler: blocker}})
	for _, inflight := eng.Load(); inflight == 0; _, inflight = eng.Load() {
		time.Sleep(time.Millisecond)
	}
	cfg := server.Config{Engine: eng}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	// No worker: the coordinator's jobs run on its local fallback.
	co := newTestCoordinator(t, Config{Local: cfg})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock)
	tiers := map[string]http.Handler{"dpfilld": srv.Handler(), "dpfill-coord": co.Handler()}

	get := func(h http.Handler, url string) (int, string, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()
	}
	check := func(tier, name, id string, status int, state jobs.State) {
		t.Helper()
		h := tiers[tier]
		code, ctype, body := get(h, "/v1/jobs/"+id)
		wcode, wctype, wbody := get(h, "/v1/jobs/"+id+"?watch=1")
		if code != status || ctype != "application/json" {
			t.Fatalf("%s %s: plain GET answered %d %q, want %d application/json", tier, name, code, ctype, status)
		}
		if wcode != code || wctype != ctype || wbody != body {
			t.Fatalf("%s %s: watch GET answered %d %q %s, plain GET %d %q %s", tier, name, wcode, wctype, wbody, code, ctype, body)
		}
		var st jobs.Status
		if err := json.Unmarshal([]byte(body), &st); err != nil || st.State != state {
			t.Fatalf("%s %s: body %s is not a %q snapshot (%v)", tier, name, body, state, err)
		}
	}
	queued := map[string]string{}
	for tier, h := range tiers {
		for range 2 {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"jobs":[{"cubes":["0X","X1"]}]}`)))
			var st jobs.Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusAccepted || err != nil {
				t.Fatalf("%s: submit answered %d %s", tier, rec.Code, rec.Body)
			}
			queued[tier] = st.ID
		}
	}
	for _, c := range []struct {
		name, id string
		status   int
		state    jobs.State
	}{
		{"queued job", "", http.StatusOK, jobs.StateQueued},
		{"unknown id", "ghost", http.StatusNotFound, ""},
	} {
		for tier := range tiers {
			id := c.id
			if id == "" {
				id = queued[tier]
			}
			check(tier, c.name, id, c.status, c.state)
		}
	}
	unblock()
	for tier, h := range tiers {
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, _, body := get(h, "/v1/jobs/"+queued[tier])
			var st jobs.Status
			if json.Unmarshal([]byte(body), &st) == nil && st.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: job never settled: %s", tier, body)
			}
			time.Sleep(5 * time.Millisecond)
		}
		check(tier, "settled job", queued[tier], http.StatusOK, jobs.StateDone)
	}
}
