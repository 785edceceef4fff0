package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden pipeline reports")

// goldenCases pin the full report shape — ATPG counters, fill
// statistics, power and IR-drop numbers — for three small circuits.
// Report-shape or power-model drift fails here instead of shipping
// silently; intentional changes regenerate with
// go test ./internal/pipeline -run TestGolden -update.
var goldenCases = []struct {
	file string
	req  Request
}{
	{"b01_default.json", Request{Spec: "b01", IncludeCubes: true}},
	{"b02_sharded_loc.json", Request{Spec: "b02", ATPG: ATPGConfig{Shards: 2},
		Power: PowerConfig{Scheme: "loc", Chains: 2, Tiles: 2}}},
	{"b06_xstat.json", Request{Spec: "b06", Orderer: "xstat",
		Power: PowerConfig{Chains: 3}}},
}

func TestGoldenReports(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.file, func(t *testing.T) {
			rep, err := Run(context.Background(), tc.req, RunOptions{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			// Timings are measurements, not results.
			rep.ZeroTimings()
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "pipeline", tc.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}
