package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/netgen"
	"repro/internal/pipeline"
)

// TestPipelineModeLocal runs the full local pipeline from the CLI and
// checks both the rendered summary and the -o JSON report.
func TestPipelineModeLocal(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	var sb strings.Builder
	if err := run([]string{"-pipeline", "-spec", "b02", "-o", out}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"circuit b02:", "atpg:", "Tool + DP-fill: peak input toggles", "power (LOS", "ir-drop", "stage "} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("summary missing %q in:\n%s", want, sb.String())
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep pipeline.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.ATPG == nil || rep.Fill == nil || rep.Power == nil || rep.Fill.Filler != "DP-fill" {
		t.Fatalf("report incomplete: %s", data)
	}
}

// TestPipelineModeNetlistFile feeds a .bench file and pins the fill
// and scheme flags through to the report.
func TestPipelineModeNetlistFile(t *testing.T) {
	c, err := netgen.Generate(netgen.Profile{Name: "tiny", PIs: 4, FFs: 8, Gates: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.bench")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := circuit.WriteBench(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-pipeline", "-netlist", path, "-fill", "dp", "-scheme", "loc", "-chains", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DP-fill") || !strings.Contains(sb.String(), "power (LOC, 2 chains)") {
		t.Fatalf("summary: %s", sb.String())
	}
}

// TestPipelineModeRemoteMatchesLocal pins the CLI half of the
// differential contract: -server routes through POST /v1/pipeline and
// prints the same summary as the in-process run (timing lines aside).
func TestPipelineModeRemoteMatchesLocal(t *testing.T) {
	url := startWorker(t)
	var local, remote strings.Builder
	if err := run([]string{"-pipeline", "-spec", "b02", "-fill", "mt"}, &local); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-pipeline", "-spec", "b02", "-fill", "mt", "-server", url}, &remote); err != nil {
		t.Fatal(err)
	}
	stripTimings := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.Contains(line, "stage ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if stripTimings(local.String()) != stripTimings(remote.String()) {
		t.Fatalf("remote summary diverges:\nlocal:\n%s\nremote:\n%s", local.String(), remote.String())
	}
}

// TestPipelineModeAsync drives -async -follow against a real worker:
// submit, narrate stage progress, settle, render.
func TestPipelineModeAsync(t *testing.T) {
	url := startWorker(t)
	var sb strings.Builder
	err := run([]string{"-pipeline", "-spec", "b02", "-shards", "2", "-server", url, "-async", "-follow"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, "submitted pipeline job ") || !strings.Contains(got, "(5 stages") {
		t.Fatalf("submit line missing: %s", got)
	}
	if !strings.Contains(got, "peak input toggles") {
		t.Fatalf("report missing: %s", got)
	}
	// -follow narrates every polled change, the terminal one last.
	id := strings.Fields(got[strings.Index(got, "submitted pipeline job ")+len("submitted pipeline job "):])[0]
	var last string
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "job ") {
			last = line
		}
	}
	if want := "job " + id + ": done"; last != want {
		t.Fatalf("narration ends %q, want %q:\n%s", last, want, got)
	}
}

// TestPipelineModeFlagErrors pins the mode's argument contract.
func TestPipelineModeFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-pipeline"}, // no input
		{"-pipeline", "-spec", "b01", "-netlist", "x"},   // both inputs
		{"-pipeline", "-spec", "b01", "-grid"},           // grid conflicts
		{"-pipeline", "-spec", "b01", "in.cubes"},        // positional conflicts
		{"-pipeline", "-spec", "b01", "-jobs", "2"},      // batch conflicts
		{"-pipeline", "-spec", "b01", "-async"},          // async needs -server
		{"-pipeline", "-spec", "nosuch"},                 // unknown spec
		{"-pipeline", "-netlist", "/nonexistent.bench"},  // unreadable netlist
		{"-pipeline", "-spec", "b01", "-fill", "nosuch"}, // unknown filler
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
