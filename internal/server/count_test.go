package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"slices"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/jobs"
)

// postRaw sends a JSON body and returns the answer's bytes.
func postRaw(t *testing.T, url string, body any) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d %s (%v)", url, resp.StatusCode, out, err)
	}
	return out
}

var measured = regexp.MustCompile(`,"duration_ms":[^,]*,"cached":(true|false)`)

// unmeasured drops what differs between two correct answers to one
// body: every result's duration_ms and cached, and the line end.
func unmeasured(answer []byte) string {
	return measured.ReplaceAllString(string(bytes.TrimSpace(answer)), "")
}

// omitTwins is one set as an omit_cubes job and as a full job.
func omitTwins() (omit, full FillRequest) {
	full = FillRequest{Cubes: []string{"0XX1X", "1XX0X", "X10XX", "XX1X0"}, Orderer: "i"}
	omit = full
	omit.OmitCubes = true
	return omit, full
}

// TestFullAfterOmitRecomputes: an omit_cubes fill caches no cubes, so a
// full request for the same set misses, runs the fill with its matrix
// and answers exactly what a fresh server does; its Put upgrades the
// entry, which every later request of either kind hits.
func TestFullAfterOmitRecomputes(t *testing.T) {
	omit, full := omitTwins()
	_, fresh := newTestServer(t, Config{Workers: 1})
	want := postRaw(t, fresh.URL+"/v1/fill", full)

	s, ts := newTestServer(t, Config{Workers: 1})
	var first FillResponse
	if err := json.Unmarshal(postRaw(t, ts.URL+"/v1/fill", omit), &first); err != nil || first.Cached || first.Cubes != nil {
		t.Fatalf("omit request answered %+v (%v)", first, err)
	}
	got := postRaw(t, ts.URL+"/v1/fill", full)
	var second FillResponse
	if err := json.Unmarshal(got, &second); err != nil || second.Cached || len(second.Cubes) != len(full.Cubes) {
		t.Fatalf("full request after an omit one answered %s (%v)", got, err)
	}
	if unmeasured(got) != unmeasured(want) {
		t.Fatalf("full request after an omit one answered\n%s\na fresh server\n%s", got, want)
	}
	for _, req := range []FillRequest{full, omit} {
		var again FillResponse
		if err := json.Unmarshal(postRaw(t, ts.URL+"/v1/fill", req), &again); err != nil || !again.Cached ||
			(again.Cubes == nil) != req.OmitCubes {
			t.Fatalf("repeat (omit %v) after the upgrade answered %+v (%v)", req.OmitCubes, again, err)
		}
	}
	if st := s.Stats(); st.CacheMisses != 2 || st.CacheHits != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestOmitHitsAnyEntry: an omit_cubes request hits the entry of a full
// fill and of an omit one alike, and answers the same bytes.
func TestOmitHitsAnyEntry(t *testing.T) {
	omit, full := omitTwins()
	_, fresh := newTestServer(t, Config{Workers: 1})
	want := postRaw(t, fresh.URL+"/v1/fill", omit)
	for _, first := range []FillRequest{full, omit} {
		s, ts := newTestServer(t, Config{Workers: 1})
		postRaw(t, ts.URL+"/v1/fill", first)
		got := postRaw(t, ts.URL+"/v1/fill", omit)
		var r FillResponse
		if err := json.Unmarshal(got, &r); err != nil || !r.Cached {
			t.Fatalf("omit after omit=%v: answered %s (%v)", first.OmitCubes, got, err)
		}
		if unmeasured(got) != unmeasured(want) {
			t.Fatalf("omit after omit=%v answered\n%s\na fresh server\n%s", first.OmitCubes, got, want)
		}
		if st := s.Stats(); st.CacheMisses != 1 || st.CacheHits != 1 {
			t.Fatalf("omit after omit=%v: stats %+v", first.OmitCubes, st)
		}
	}
}

// TestBatchOmitTwinsFillOnce: a batch holding the omit and the full
// twin of one job runs one engine job, in either order, and that run
// builds the matrix the full twin answers with; an async submission of
// the batch answers what the synchronous one does.
func TestBatchOmitTwinsFillOnce(t *testing.T) {
	omit, full := omitTwins()
	_, fresh := newTestServer(t, Config{Workers: 1})
	var wantFull FillResponse
	if err := json.Unmarshal(postRaw(t, fresh.URL+"/v1/fill", full), &wantFull); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []BatchRequest{{Jobs: []FillRequest{omit, full}}, {Jobs: []FillRequest{full, omit}}} {
		s, ts := newTestServer(t, Config{Workers: 1})
		want := postRaw(t, ts.URL+"/v1/batch", batch)
		var got BatchResponse
		if err := json.Unmarshal(want, &got); err != nil || got.Failed != 0 {
			t.Fatalf("batch answered %s (%v)", want, err)
		}
		for k, it := range got.Results {
			r := it.Result
			if batch.Jobs[k].OmitCubes != (r.Cubes == nil) || r.Peak != wantFull.Peak ||
				r.Total != wantFull.Total || !slices.Equal(r.Perm, wantFull.Perm) {
				t.Fatalf("item %d (omit %v) answered %+v, want the statistics of %+v", k, batch.Jobs[k].OmitCubes, r, wantFull)
			}
			if r.Cubes != nil && !slices.Equal(r.Cubes, wantFull.Cubes) {
				t.Fatalf("item %d cubes %v, want %v", k, r.Cubes, wantFull.Cubes)
			}
		}
		if st := s.Stats(); st.CacheMisses != 1 || st.CacheHits != 1 {
			t.Fatalf("twin batch ran more than one engine job: %+v", st)
		}

		_, ats := newTestServer(t, Config{Workers: 1})
		var st jobs.Status
		if code := post(t, ats.URL+"/v1/jobs", batch, &st); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		async := waitJobState(t, ats.URL, st.ID, jobs.StateDone).Result
		if unmeasured(async) != unmeasured(want) {
			t.Fatalf("async batch answered\n%s\nthe sync one\n%s", async, want)
		}
	}
}

// TestConcurrentOmitAndFull races omit_cubes and full requests for one
// set: every full answer carries the cubes, every omit answer none, and
// both kinds carry the same statistics.
func TestConcurrentOmitAndFull(t *testing.T) {
	omit, full := omitTwins()
	_, fresh := newTestServer(t, Config{Workers: 1})
	var want FillResponse
	if err := json.Unmarshal(postRaw(t, fresh.URL+"/v1/fill", full), &want); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := omit
				if (g+i)%2 == 0 {
					req = full
				}
				r, err := s.Fill(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				cubes := r.filled != nil
				if cubes == req.OmitCubes || r.Peak != want.Peak || r.Total != want.Total || !slices.Equal(r.Perm, want.Perm) {
					t.Errorf("omit %v answered %+v (cubes %v), want the statistics of %+v", req.OmitCubes, r, cubes, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCountEntryNeverDowngrades: an entry without cubes does not
// replace one with them.
func TestCountEntryNeverDowngrades(t *testing.T) {
	c := newLRUCache(2)
	filled, err := cube.NewFilled(cube.PackRows(cube.MustParseSet("01", "10")))
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", &cachedFill{Filled: filled, Peak: 2})
	c.Put("k", &cachedFill{Peak: 2})
	if got, ok := c.Get("k", true); !ok || got.Filled == nil {
		t.Fatal("a count-only Put dropped the cached cubes")
	}
	c.Put("j", &cachedFill{Peak: 1})
	if _, ok := c.Get("j", true); ok {
		t.Fatal("an entry without cubes answered a lookup that needs them")
	}
	if _, ok := c.Get("j", false); !ok {
		t.Fatal("an entry without cubes missed an omit_cubes lookup")
	}
}
