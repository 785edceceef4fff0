package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestBodyMustEndAfterOneValue sends the same bodies through both
// tiers' handlers: a JSON value followed by garbage, or by a second
// value, is malformed (400) on every POST endpoint, while the same
// value followed by whitespace is accepted.
func TestBodyMustEndAfterOneValue(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	co := newTestCoordinator(t, Config{}, newChaosWorker(t))
	waitHealthy(t, co, 1)
	tiers := map[string]http.Handler{"dpfilld": srv.Handler(), "coordinator": co.Handler()}
	bodies := map[string]string{
		"/v1/fill":     `{"cubes":["0X1","1X0"]}`,
		"/v1/batch":    `{"jobs":[{"cubes":["0X1","1X0"]}]}`,
		"/v1/pipeline": `{"spec":"b01"}`,
		"/v1/jobs":     `{"jobs":[{"cubes":["0X1","1X0"]}]}`,
	}
	tails := []struct {
		name, tail string
		bad        bool
	}{
		{"whitespace", " \n\t", false},
		{"garbage", " trailing garbage", true},
		{"second value", `{"cubes":["01"]}`, true},
		{"second value after newline", "\n" + `{"cubes":["01"]}`, true},
		{"stray bracket", "]", true},
		{"number", " 1", true},
	}
	for tier, h := range tiers {
		for path, body := range bodies {
			for _, tc := range tails {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body+tc.tail)))
				if got := rec.Code == http.StatusBadRequest; got != tc.bad {
					t.Errorf("%s %s + %s: status %d: %s", tier, path, tc.name, rec.Code, strings.TrimSpace(rec.Body.String()))
				}
				if tc.bad && !strings.Contains(rec.Body.String(), "malformed JSON") {
					t.Errorf("%s %s + %s: error %s does not say malformed JSON", tier, path, tc.name, rec.Body.String())
				}
			}
		}
	}
}
