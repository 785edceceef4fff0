package cluster

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// manifestRow is one row of the README's metrics manifest.
type manifestRow struct {
	kind   string
	labels []string // sorted; empty for an unlabelled family
	tiers  []string // sorted: "coord", "worker"
}

// readManifest parses the README table whose header is
// "| family | type | labels | tiers | question |".
func readManifest(t *testing.T) map[string]manifestRow {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]manifestRow{}
	in := false
	for _, line := range strings.Split(string(raw), "\n") {
		if !in {
			in = strings.TrimSpace(line) == "| family | type | labels | tiers | question |"
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if strings.HasPrefix(strings.TrimSpace(cells[0]), "---") {
			continue
		}
		if len(cells) != 5 {
			t.Fatalf("manifest row %q has %d cells, want 5", line, len(cells))
		}
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		if _, dup := rows[name]; dup {
			t.Fatalf("manifest lists %s twice", name)
		}
		if strings.TrimSpace(cells[4]) == "" {
			t.Fatalf("manifest row %s names no question", name)
		}
		rows[name] = manifestRow{
			kind:   strings.TrimSpace(cells[1]),
			labels: cellList(cells[2]),
			tiers:  cellList(cells[3]),
		}
	}
	if len(rows) == 0 {
		t.Fatal("README has no metrics manifest table")
	}
	return rows
}

// cellList splits a "`a`, `b`" cell into sorted names; "—" is empty.
func cellList(cell string) []string {
	var out []string
	for _, f := range strings.Split(cell, ",") {
		if f = strings.Trim(strings.TrimSpace(f), "`"); f != "" && f != "—" {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// scrapedFamily is one family of a /metrics scrape.
type scrapedFamily struct {
	kind   string
	labels []string // sorted label names over every series, le excluded
}

var labelRE = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:\\.|[^"\\])*"`)

// scrapeFamilies parses a tier's /metrics answer into its families.
func scrapeFamilies(t *testing.T, tier string, h http.Handler) map[string]scrapedFamily {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s /metrics: status %d", tier, rec.Code)
	}
	fams := map[string]scrapedFamily{}
	labels := map[string]map[string]bool{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(f, " ")
			fams[name] = scrapedFamily{kind: kind}
			labels[name] = map[string]bool{}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// A sample is "<name>[{labels}] <value>"; label values may hold spaces.
		name, rest, _ := strings.Cut(line[:max(strings.LastIndexByte(line, ' '), 0)], "{")
		if _, ok := fams[name]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && fams[base].kind == "histogram" {
					name = base
				}
			}
		}
		if _, ok := fams[name]; !ok {
			t.Fatalf("%s /metrics: sample %q precedes its TYPE line", tier, line)
		}
		for _, m := range labelRE.FindAllStringSubmatch(rest, -1) {
			if m[1] != "le" {
				labels[name][m[1]] = true
			}
		}
	}
	for name, f := range fams {
		for l := range labels[name] {
			f.labels = append(f.labels, l)
		}
		sort.Strings(f.labels)
		fams[name] = f
	}
	return fams
}

// TestMetricsManifest holds both tiers' /metrics to the README's
// manifest: a dpfilld and a coordinator that has admitted it, slow
// capture on, scraped in process. Every scraped family needs a row;
// every row's family must be served, with the row's type and label
// set, by exactly the tiers the row names.
func TestMetricsManifest(t *testing.T) {
	rows := readManifest(t)
	fe := server.FrontConfig{SlowThreshold: time.Second}
	srv, err := server.New(server.Config{Workers: 1, FrontConfig: fe})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	co, err := New(Config{Workers: []string{ts.URL}, FrontConfig: fe,
		Registry: RegistryConfig{HeartbeatInterval: 25 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go co.Run(ctx)
	waitHealthy(t, co, 1)

	served := map[string][]string{} // family -> sorted tiers serving it
	for _, tier := range []struct {
		name string
		h    http.Handler
	}{{"coord", co.Handler()}, {"worker", srv.Handler()}} {
		for name, f := range scrapeFamilies(t, tier.name, tier.h) {
			served[name] = append(served[name], tier.name)
			row, ok := rows[name]
			switch {
			case !ok:
				t.Errorf("%s serves %s (%s, labels %v), which has no manifest row", tier.name, name, f.kind, f.labels)
			case f.kind != row.kind:
				t.Errorf("%s serves %s as a %s; the manifest says %s", tier.name, name, f.kind, row.kind)
			case !slices.Equal(f.labels, row.labels):
				t.Errorf("%s serves %s with labels %v; the manifest says %v", tier.name, name, f.labels, row.labels)
			}
		}
	}
	for name, row := range rows {
		if !slices.Equal(served[name], row.tiers) {
			t.Errorf("%s is served by %v; the manifest says %v", name, served[name], row.tiers)
		}
	}
	if len(served) != len(rows) {
		t.Errorf("the two tiers serve %d families; the manifest lists %d", len(served), len(rows))
	}
}
