package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWindowFieldRefused: "window" went with the windowed filler. Both
// tiers decode strictly, so every door that once accepted the field
// answers 400 naming it — never a silent exact fill.
func TestWindowFieldRefused(t *testing.T) {
	worker := newChaosWorker(t)
	fleet := newChaosWorker(t) // behind the coordinator only
	co := newTestCoordinator(t, Config{}, fleet)
	waitHealthy(t, co, 1)
	coord := httptest.NewServer(co.Handler())
	t.Cleanup(coord.Close)

	tiers := []struct{ name, url string }{
		{"dpfilld", worker.ts.URL},
		{"dpfill-coord", coord.URL},
	}
	doors := []struct{ path, body string }{
		{"/v1/fill", `{"cubes":["0X1","X10"],"window":4}`},
		{"/v1/batch", `{"jobs":[{"cubes":["0X1","X10"],"window":4}]}`},
		{"/v1/pipeline", `{"spec":"b01","window":4}`},
		{"/v1/jobs", `{"jobs":[{"cubes":["0X1","X10"],"window":4}]}`},
		{"/v1/jobs", `{"pipeline":{"spec":"b01","window":4}}`},
	}
	for _, tier := range tiers {
		for _, d := range doors {
			resp, err := http.Post(tier.url+d.path, "application/json", strings.NewReader(d.body))
			if err != nil {
				t.Fatal(err)
			}
			var e errorResponse
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: decoding answer: %v", tier.name, d.path, err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "window"`) {
				t.Errorf("%s %s %s: status %d (%q), want 400 naming the unknown field",
					tier.name, d.path, d.body, resp.StatusCode, e.Error)
			}
		}
	}
	if fleet.batchHits.Load() != 0 || fleet.pipelineHits.Load() != 0 {
		t.Fatal("the coordinator dispatched a request with an unknown field to its fleet")
	}
}
