package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cube"
	"repro/internal/exp"
	"repro/internal/server"
)

// startWorker mounts a real fill service for remote-mode tests.
func startWorker(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func writeTempCubes(t *testing.T, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRemoteFillMatchesLocal pins the satellite contract: the same
// input through -server prints the same summary lines as a local run,
// and -o writes the same filled set.
func TestRemoteFillMatchesLocal(t *testing.T) {
	url := startWorker(t)
	in := writeTempCubes(t, "cubes.txt", "00X1", "1XX0", "X10X", "01XX")
	dir := t.TempDir()
	localOut, remoteOut := filepath.Join(dir, "local.filled"), filepath.Join(dir, "remote.filled")

	var local, remote strings.Builder
	if err := run([]string{"-in", in, "-order", "i", "-fill", "dp", "-o", localOut}, &local); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-server", url, "-in", in, "-order", "i", "-fill", "dp", "-o", remoteOut}, &remote); err != nil {
		t.Fatal(err)
	}
	// Same read line, same peak line; only the trailing "wrote" path
	// differs.
	localLines := strings.Split(local.String(), "\n")
	remoteLines := strings.Split(remote.String(), "\n")
	if localLines[0] != remoteLines[0] || localLines[1] != remoteLines[1] {
		t.Fatalf("remote output diverges:\nlocal:  %q\nremote: %q", local.String(), remote.String())
	}
	lb, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(remoteOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(lb) != string(rb) {
		t.Fatalf("filled sets differ:\nlocal:\n%s\nremote:\n%s", lb, rb)
	}
}

// TestRemoteBatchWritesOutdir runs two inputs as one remote batch and
// checks the written sets match local batch mode byte for byte.
func TestRemoteBatchWritesOutdir(t *testing.T) {
	url := startWorker(t)
	a := writeTempCubes(t, "a.txt", "0XX0", "XXXX", "1XX1")
	b := writeTempCubes(t, "b.txt", "00", "XX", "11")
	localDir, remoteDir := t.TempDir(), t.TempDir()

	var local, remote strings.Builder
	if err := run([]string{"-order", "i", "-outdir", localDir, a, b}, &local); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-server", url, "-order", "i", "-outdir", remoteDir, a, b}, &remote); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.filled", "b.filled"} {
		lb, err := os.ReadFile(filepath.Join(localDir, name))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := os.ReadFile(filepath.Join(remoteDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(lb) != string(rb) {
			t.Fatalf("%s differs between local and remote batch", name)
		}
	}
	if !strings.Contains(remote.String(), "ok") && !strings.Contains(remote.String(), "wrote") {
		t.Fatalf("remote batch report: %q", remote.String())
	}
}

// TestRemoteBatchIsolatesFailures: an unreadable input and an invalid
// one fail in their own rows; the good job still answers.
func TestRemoteBatchIsolatesFailures(t *testing.T) {
	url := startWorker(t)
	good := writeTempCubes(t, "good.txt", "0X", "X1")
	bad := writeTempCubes(t, "bad.txt", "0z")
	missing := filepath.Join(t.TempDir(), "missing.txt")

	var out strings.Builder
	err := run([]string{"-server", url, good, bad, missing}, &out)
	if err == nil || !strings.Contains(err.Error(), "2 of 3 jobs failed") {
		t.Fatalf("err = %v, want 2 of 3 jobs failed", err)
	}
	report := out.String()
	if !strings.Contains(report, "good.txt") || !strings.Contains(report, "ok") {
		t.Fatalf("good job missing from report: %q", report)
	}
}

// startCoordinator mounts a coordinator over one real worker and waits
// until its heartbeat has admitted the worker.
func startCoordinator(t *testing.T) string {
	t.Helper()
	co, err := cluster.New(cluster.Config{
		Workers:         []string{startWorker(t)},
		Registry:        cluster.RegistryConfig{HeartbeatInterval: 25 * time.Millisecond},
		DisableFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go co.Run(ctx)
	for deadline := time.Now().Add(5 * time.Second); co.Stats().WorkersHealthy != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never admitted its worker")
		}
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRemoteGrid prints the Table II–IV row of one input, built from a
// /v1/batch of the paper's fillers, through a worker and through a
// coordinator: every column is present, no baseline beats DP-fill's
// (provably minimal) peak, and on this set DP-fill is the sole winner.
func TestRemoteGrid(t *testing.T) {
	in := writeTempCubes(t, "grid.txt", "0XX0XX", "XX1XX0", "1XXX0X", "XX0X1X")
	for tier, url := range map[string]string{"dpfilld": startWorker(t), "dpfill-coord": startCoordinator(t)} {
		var out strings.Builder
		if err := run([]string{"-server", url, "-grid", "-in", in}, &out); err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 3 || lines[2] != "best: DP-fill" {
			t.Fatalf("%s: grid output %q", tier, out.String())
		}
		// The tool ordering's table also carries the paper's DP-fill
		// column, "-" for a circuit the paper did not publish.
		want := fmt.Sprint(slices.Concat([]string{"Ckt"}, exp.FillNames, []string{"best", "paper-DP"}))
		if got := fmt.Sprint(strings.Fields(lines[0])); got != want {
			t.Fatalf("%s: header %v, want %v", tier, got, want)
		}
		cells := strings.Fields(lines[1])
		if len(cells) != len(exp.FillNames)+3 || cells[0] != "grid.txt" || cells[len(exp.FillNames)+1] != "DP-fill" {
			t.Fatalf("%s: row %q", tier, lines[1])
		}
		peaks := make([]int, len(exp.FillNames))
		for i := range peaks {
			var err error
			if peaks[i], err = strconv.Atoi(strings.TrimPrefix(cells[1+i], "*")); err != nil {
				t.Fatalf("%s: peak cell %q: %v", tier, cells[1+i], err)
			}
		}
		dp := peaks[len(peaks)-1]
		for i, p := range peaks {
			if p < dp {
				t.Errorf("%s: %s peak %d beats DP-fill's %d", tier, exp.FillNames[i], p, dp)
			}
		}
	}
}

// TestRemoteSTILPassthrough sends a .stil input as STIL text for the
// server to parse.
func TestRemoteSTILPassthrough(t *testing.T) {
	url := startWorker(t)
	stil := filepath.Join(t.TempDir(), "pat.stil")
	f, err := os.Create(stil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cube.WriteSTIL(f, cube.MustParseSet("0XX1", "1XX0", "0XX0"), "t"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-server", url, "-in", stil}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "read 3 cubes of width 4") {
		t.Fatalf("stil remote output: %q", out.String())
	}
}

// TestRemoteBatchUnreachableServerFailsPerJob: a dead server fails
// every row in the report instead of aborting before it — the same
// isolation local batch mode gives.
func TestRemoteBatchUnreachableServerFailsPerJob(t *testing.T) {
	dead := httptest.NewServer(nil)
	url := dead.URL
	dead.Close()
	a := writeTempCubes(t, "a.txt", "0X", "X1")
	b := writeTempCubes(t, "b.txt", "00", "11")
	var out strings.Builder
	err := run([]string{"-server", url, a, b}, &out)
	if err == nil || !strings.Contains(err.Error(), "2 of 2 jobs failed") {
		t.Fatalf("err = %v, want 2 of 2 jobs failed", err)
	}
	if !strings.Contains(out.String(), "a.txt") || !strings.Contains(out.String(), "b.txt") {
		t.Fatalf("per-job rows missing: %q", out.String())
	}
}

func TestRemoteBadServerURL(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-server", "not a url", "-in", "-"}, &out); err == nil {
		t.Fatal("bad server URL accepted")
	}
}
