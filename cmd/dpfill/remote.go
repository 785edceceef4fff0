package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/client"
	"repro/internal/cube"
	"repro/internal/exp"
)

// Remote mode: with -server URL the binary becomes a thin front-end
// for a dpfilld worker or a dpfill-coord fleet — inputs are read and
// validated locally, jobs travel through internal/client, and the
// reports mirror local mode line for line, so scripts can switch
// between topologies without reparsing output.

// remotePayload reads one input into a fill request: STIL files
// travel as STIL text (the server parses them), plain cube files are
// parsed locally and sent as an inline matrix.
func remotePayload(r io.Reader, path string) (client.FillRequest, error) {
	if strings.EqualFold(filepath.Ext(path), ".stil") {
		data, err := io.ReadAll(r)
		if err != nil {
			return client.FillRequest{}, err
		}
		return client.FillRequest{STIL: string(data)}, nil
	}
	set, err := cube.ReadSet(r)
	if err != nil {
		return client.FillRequest{}, err
	}
	cubes := make([]string, set.Len())
	for i, c := range set.Cubes {
		cubes[i] = c.String()
	}
	return client.FillRequest{Cubes: cubes}, nil
}

// runRemoteFill submits one input through /v1/fill and reports like
// the local single-input path.
func runRemoteFill(stdout io.Writer, serverURL string, r io.Reader, path, ordName, fillName string, seed int64, out string, explain bool) error {
	c, err := client.New(client.Config{BaseURL: serverURL})
	if err != nil {
		return err
	}
	req, err := remotePayload(r, path)
	if err != nil {
		return err
	}
	req.Name = path
	req.Orderer = ordName
	req.Filler = fillName
	req.Seed = seed
	req.OmitCubes = out == ""
	req.Debug = explain
	resp, err := c.Fill(context.Background(), req)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "read %d cubes of width %d (%.1f%% X)\n",
		resp.Rows, resp.Width, resp.XPercent)
	fmt.Fprintf(stdout, "%s + %s: peak input toggles = %d (total %d)\n",
		resp.Orderer, resp.Filler, resp.Peak, resp.Total)
	if explain {
		if resp.Explain == nil {
			fmt.Fprintln(stdout, "explain: server returned no trace (cached pre-upgrade result or non-dp filler)")
		} else {
			printExplain(stdout, resp.Explain)
		}
	}
	if out != "" {
		if err := writeCubeLines(out, resp.Cubes); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", out)
	}
	return nil
}

// runRemoteGrid evaluates the paper's fillers (the Table II–IV
// columns) on one input under the flag-selected ordering, as one
// /v1/batch, and prints the peak table and its winner. Each job asks
// for a deadline past any server's ceiling, so the server clamps it to
// its own maximum.
func runRemoteGrid(stdout io.Writer, serverURL string, r io.Reader, path, ordName string, seed int64) error {
	c, err := client.New(client.Config{BaseURL: serverURL})
	if err != nil {
		return err
	}
	req, err := remotePayload(r, path)
	if err != nil {
		return err
	}
	name := path
	if name == "" || name == "-" {
		name = "stdin"
	}
	req.Orderer, req.Seed, req.OmitCubes, req.TimeoutMillis = ordName, seed, true, math.MaxInt64
	jobs := make([]client.FillRequest, len(exp.FillNames))
	for i, fl := range exp.FillNames {
		jobs[i] = req
		jobs[i].Filler = fl
	}
	resp, err := c.Batch(context.Background(), client.BatchRequest{Jobs: jobs})
	if err != nil {
		return err
	}
	if len(resp.Results) != len(jobs) {
		return fmt.Errorf("server answered %d results for %d fillers", len(resp.Results), len(jobs))
	}
	row := exp.PeakRow{Ckt: filepath.Base(name), Peaks: make([]int, len(jobs))}
	for i, it := range resp.Results {
		if it.Error != "" {
			return fmt.Errorf("%s: %s", exp.FillNames[i], it.Error)
		}
		row.Peaks[i] = it.Result.Peak
	}
	if err := exp.RenderPeakTable(stdout, resp.Results[0].Result.Orderer, []exp.PeakRow{row}); err != nil {
		return err
	}
	_, best := row.Best()
	fmt.Fprintf(stdout, "best: %s\n", exp.FillNames[best])
	return nil
}

// readRemoteJobs reads every input into a fill request. Unreadable
// inputs become pre-failed items without aborting the rest, matching
// local semantics; jobs[k] answers items[jobIdx[k]].
func readRemoteJobs(inputs []string, ordName, fillName string, seed int64, omitCubes bool) (items []client.BatchItem, jobs []client.FillRequest, jobIdx []int) {
	items = make([]client.BatchItem, len(inputs))
	for i, path := range inputs {
		f, err := os.Open(path)
		if err != nil {
			items[i] = client.BatchItem{Error: err.Error()}
			continue
		}
		req, err := remotePayload(f, path)
		f.Close()
		if err != nil {
			items[i] = client.BatchItem{Error: err.Error()}
			continue
		}
		req.Name = path
		req.Orderer = ordName
		req.Filler = fillName
		req.Seed = seed
		req.OmitCubes = omitCubes
		jobs = append(jobs, req)
		jobIdx = append(jobIdx, i)
	}
	return items, jobs, jobIdx
}

// chunkSize mirrors the server's default batch limit so job counts
// beyond it still run, like local mode's no-ceiling batch engine.
const chunkSize = 256

// runRemoteBatch submits every input as one /v1/batch and prints the
// same per-job table as local batch mode. A chunk that fails
// wholesale (fleet unreachable, oversized reply) fails only its own
// rows — the other chunks still answer, which is the per-job
// isolation local mode gives. The first failure is returned after the
// whole report.
func runRemoteBatch(stdout io.Writer, serverURL string, inputs []string, ordName, fillName string, seed int64, outdir string) error {
	c, err := client.New(client.Config{BaseURL: serverURL})
	if err != nil {
		return err
	}
	items, jobs, jobIdx := readRemoteJobs(inputs, ordName, fillName, seed, outdir == "")
	for lo := 0; lo < len(jobs); lo += chunkSize {
		hi := min(lo+chunkSize, len(jobs))
		chunk := jobs[lo:hi]
		resp, err := c.Batch(context.Background(), client.BatchRequest{Jobs: chunk})
		switch {
		case err != nil:
			for k := lo; k < hi; k++ {
				items[jobIdx[k]] = client.BatchItem{Error: err.Error()}
			}
		case len(resp.Results) != len(chunk):
			msg := fmt.Sprintf("server answered %d results for %d jobs", len(resp.Results), len(chunk))
			for k := lo; k < hi; k++ {
				items[jobIdx[k]] = client.BatchItem{Error: msg}
			}
		default:
			for k, it := range resp.Results {
				items[jobIdx[lo+k]] = it
			}
		}
	}
	return reportRemoteBatch(stdout, serverURL, inputs, items, ordName, fillName, outdir)
}

// runRemoteAsyncBatch is batch mode over the async job API: every
// chunk is submitted through POST /v1/jobs, the job IDs are printed
// immediately, and the results are polled for — so a worker or
// coordinator restart mid-run does not lose the work (the server
// journals accepted jobs when it runs with -data-dir).
func runRemoteAsyncBatch(stdout io.Writer, serverURL string, inputs []string, ordName, fillName string, seed int64, outdir string, poll time.Duration, follow bool) error {
	c, err := client.New(client.Config{BaseURL: serverURL})
	if err != nil {
		return err
	}
	items, jobs, jobIdx := readRemoteJobs(inputs, ordName, fillName, seed, outdir == "")
	type submitted struct {
		id     string
		lo, hi int // chunk bounds into jobs/jobIdx
	}
	var subs []submitted
	for lo := 0; lo < len(jobs); lo += chunkSize {
		hi := min(lo+chunkSize, len(jobs))
		st, err := c.SubmitJob(context.Background(), client.BatchRequest{Jobs: jobs[lo:hi]})
		if err != nil {
			for k := lo; k < hi; k++ {
				items[jobIdx[k]] = client.BatchItem{Error: err.Error()}
			}
			continue
		}
		fmt.Fprintf(stdout, "submitted job %s (%d inputs, %s)\n", st.ID, hi-lo, st.State)
		subs = append(subs, submitted{id: st.ID, lo: lo, hi: hi})
	}
	for _, sub := range subs {
		fail := func(msg string) {
			for k := sub.lo; k < sub.hi; k++ {
				items[jobIdx[k]] = client.BatchItem{Error: msg}
			}
		}
		st, err := c.WaitJob(context.Background(), sub.id, poll, narrateJob(stdout, follow, "inputs"))
		if err != nil {
			fail(err.Error())
			continue
		}
		if st.State != "done" {
			fail(fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error))
			continue
		}
		resp, err := client.JobBatchResult(st)
		if err != nil {
			fail(err.Error())
			continue
		}
		if len(resp.Results) != sub.hi-sub.lo {
			fail(fmt.Sprintf("job %s answered %d results for %d inputs", sub.id, len(resp.Results), sub.hi-sub.lo))
			continue
		}
		for k, it := range resp.Results {
			items[jobIdx[sub.lo+k]] = it
		}
	}
	return reportRemoteBatch(stdout, serverURL, inputs, items, ordName, fillName, outdir)
}

// reportRemoteBatch renders the per-job table shared by the sync and
// async remote batch paths, writes -outdir outputs, and returns the
// first failure after the whole report.
func reportRemoteBatch(stdout io.Writer, serverURL string, inputs []string, items []client.BatchItem, ordName, fillName, outdir string) error {
	if outdir != "" {
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "%s + %s over %d jobs via %s\n", ordName, fillName, len(inputs), serverURL)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\tcubes\twidth\tX%\tpeak\ttotal\tms\tstatus")
	failures := 0
	var firstErr error
	for i, it := range items {
		name := inputs[i]
		if it.Error != "" {
			failures++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %s", name, it.Error)
			}
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t%s\n", name, it.Error)
			continue
		}
		r := it.Result
		status := "ok"
		if outdir != "" {
			base := strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
			dst := filepath.Join(outdir, base+".filled")
			if err := writeCubeLines(dst, r.Cubes); err != nil {
				failures++
				if firstErr == nil {
					firstErr = err
				}
				status = err.Error()
			} else {
				status = "wrote " + dst
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%d\t%.2f\t%s\n",
			name, r.Rows, r.Width, r.XPercent, r.Peak, r.Total, r.DurationMillis, status)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d jobs failed: first: %w", failures, len(inputs), firstErr)
	}
	return nil
}

// writeCubeLines writes a filled set as the same one-cube-per-line
// format cube.Set.Write emits, from the response's string form.
func writeCubeLines(path string, cubes []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, c := range cubes {
		if _, err := fmt.Fprintln(f, c); err != nil {
			return err
		}
	}
	return nil
}

// narrateJob is the -follow narrator WaitJob calls with each polled
// snapshot: it prints every change of state, and every advance of the
// done count of unit ("inputs", "stages"). nil when follow is off.
func narrateJob(stdout io.Writer, follow bool, unit string) func(client.JobStatus) {
	if !follow {
		return nil
	}
	last := client.JobStatus{Done: -1}
	return func(st client.JobStatus) {
		if st.State != last.State {
			fmt.Fprintf(stdout, "job %s: %s\n", st.ID, st.State)
		} else if st.Done != last.Done {
			fmt.Fprintf(stdout, "job %s: %d/%d %s done\n", st.ID, st.Done, st.Total, unit)
		}
		last = st
	}
}
