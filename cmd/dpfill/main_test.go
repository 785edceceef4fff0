package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/fill"
	"repro/internal/order"
)

func writeCubes(t *testing.T, dir string, cubes ...string) string {
	t.Helper()
	path := filepath.Join(dir, "in.cubes")
	s := cube.MustParseSet(cubes...)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := s.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBasic(t *testing.T) {
	dir := t.TempDir()
	in := writeCubes(t, dir, "0X1X", "XXXX", "1X0X")
	out := filepath.Join(dir, "out.cubes")
	var sb strings.Builder
	if err := run([]string{"-in", in, "-order", "i", "-fill", "dp", "-o", out}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "peak input toggles") {
		t.Fatalf("output: %q", sb.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := cube.ReadSet(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || !got.FullySpecified() {
		t.Fatalf("written set: %v", got)
	}
	// -explain is decided on the resolved filler, so every DP spelling
	// fill.ByName accepts prints the fill-core trace.
	for _, name := range []string{"dp", "DP", "dpfill", "dp-fill"} {
		sb.Reset()
		if err := run([]string{"-in", in, "-fill", name, "-explain"}, &sb); err != nil {
			t.Fatalf("-fill %s -explain: %v", name, err)
		}
		if !strings.Contains(sb.String(), "DP-fill: peak input toggles") || !strings.Contains(sb.String(), "explain: 4 pins x 3 vectors") {
			t.Fatalf("-fill %s -explain output: %q", name, sb.String())
		}
	}
}

func TestRunGrid(t *testing.T) {
	dir := t.TempDir()
	in := writeCubes(t, dir, "0X1X", "XXXX", "1X0X", "X1X0")
	var sb strings.Builder
	if err := run([]string{"-in", in, "-grid"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Tool", "X-Stat", "I-Order", "ISA", "DP-fill"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid output missing %q", want)
		}
	}
}

func TestRunBatch(t *testing.T) {
	dir := t.TempDir()
	a := writeCubes(t, dir, "0X1X", "XXXX", "1X0X")
	// Second input as STIL to exercise format detection.
	stil := filepath.Join(dir, "b.stil")
	s := cube.MustParseSet("0XX1", "1XX0", "XX01")
	f, err := os.Create(stil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cube.WriteSTIL(f, s, "b"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	outdir := filepath.Join(dir, "filled")
	var sb strings.Builder
	args := []string{"-jobs", a + "," + stil, "-workers", "2", "-order", "i", "-fill", "dp", "-outdir", outdir}
	if err := run(args, &sb); err != nil {
		t.Fatalf("batch run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"2 jobs", "in.cubes", "b.stil", "peak"} {
		if !strings.Contains(out, want) {
			t.Errorf("batch output missing %q:\n%s", want, out)
		}
	}
	for _, name := range []string{"in.filled", "b.filled"} {
		g, err := os.Open(filepath.Join(outdir, name))
		if err != nil {
			t.Fatalf("missing batch output %s: %v", name, err)
		}
		got, err := cube.ReadSet(g)
		g.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !got.FullySpecified() {
			t.Errorf("%s not fully specified", name)
		}
	}
}

func TestRunBatchPositionalArgs(t *testing.T) {
	dir := t.TempDir()
	a := writeCubes(t, dir, "0X", "1X")
	var sb strings.Builder
	if err := run([]string{"-fill", "dp", a, a}, &sb); err != nil {
		t.Fatalf("positional batch: %v", err)
	}
	if !strings.Contains(sb.String(), "2 jobs") {
		t.Fatalf("positional args not batched:\n%s", sb.String())
	}
}

func TestRunBatchErrors(t *testing.T) {
	dir := t.TempDir()
	good := writeCubes(t, dir, "0X1X", "1XX0")
	var sb strings.Builder
	err := run([]string{"-jobs", good + "," + filepath.Join(dir, "missing.cubes")}, &sb)
	if err == nil {
		t.Fatal("missing batch input accepted")
	}
	// The unreadable input must not take down the readable one.
	if !strings.Contains(sb.String(), "ok") || !strings.Contains(sb.String(), "missing.cubes") {
		t.Fatalf("read failure not isolated per job:\n%s", sb.String())
	}
	// Single-input flags are rejected in batch mode.
	sb.Reset()
	if err := run([]string{"-o", filepath.Join(dir, "x"), good, good}, &sb); err == nil {
		t.Error("-o accepted in batch mode")
	}
	sb.Reset()
	if err := run([]string{"-in", good, "-jobs", good}, &sb); err == nil {
		t.Error("-in accepted in batch mode")
	}
	// -in plus a positional input is ambiguous, not a silent override.
	sb.Reset()
	if err := run([]string{"-in", good, good}, &sb); err == nil {
		t.Error("-in plus positional input accepted silently")
	}
	// Grid stays single-input.
	sb.Reset()
	if err := run([]string{"-grid", good, good}, &sb); err == nil {
		t.Error("-grid accepted with multiple inputs")
	}
	// Batch flags with no inputs.
	sb.Reset()
	if err := run([]string{"-outdir", dir}, &sb); err == nil {
		t.Error("batch mode accepted with no inputs")
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	in := writeCubes(t, dir, "01")
	var sb strings.Builder
	if err := run([]string{"-in", in, "-order", "bogus"}, &sb); err == nil {
		t.Error("bad ordering accepted")
	}
	if err := run([]string{"-in", in, "-fill", "bogus"}, &sb); err == nil {
		t.Error("bad fill accepted")
	}
	if err := run([]string{"-in", filepath.Join(dir, "missing")}, &sb); err == nil {
		t.Error("missing input accepted")
	}
	for _, name := range []string{"mt", "xstat", "bogus"} {
		if err := run([]string{"-in", in, "-fill", name, "-explain"}, &sb); err == nil {
			t.Errorf("-fill %s -explain accepted", name)
		}
	}
	// -window went with the windowed filler: the flag is unknown.
	if err := run([]string{"-in", in, "-window", "4"}, &sb); err == nil {
		t.Error("-window accepted")
	}
}

func TestOrdererAndFillerNames(t *testing.T) {
	for _, name := range []string{"tool", "xstat", "i", "isa"} {
		if _, err := order.ByName(name, 1); err != nil {
			t.Errorf("ordering %q: %v", name, err)
		}
	}
	for _, name := range []string{"mt", "r", "0", "1", "b", "adj", "xstat", "dp", "DP", "dpfill", "dp-fill"} {
		if _, err := fill.ByName(name, 1, core.Options{}); err != nil {
			t.Errorf("fill %q: %v", name, err)
		}
	}
}
