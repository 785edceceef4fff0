package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/pipeline"
)

// Pipeline mode: -pipeline turns the binary into a front-end for the
// full netlist → ATPG → fill → power workload. Locally it calls
// pipeline.Run in-process; with -server it posts the same request to
// /v1/pipeline on a worker or coordinator (where -shards fans the
// ATPG fault list across the fleet), and -async routes it through the
// persistent job queue, polling it for stage progress.

type pipelineOpts struct {
	spec, netlist         string
	orderer, filler       string
	seed                  int64
	scheme                string
	chains, tiles, shards int
	server                string
	async, follow         bool
	poll                  time.Duration
	out                   string
}

// buildPipelineRequest assembles the request both the local and the
// remote paths submit — one construction site, so the two modes can
// never diverge in what they ask for.
func buildPipelineRequest(o pipelineOpts) (pipeline.Request, error) {
	var req pipeline.Request
	switch {
	case o.spec == "" && o.netlist == "":
		return req, fmt.Errorf("-pipeline needs -spec or -netlist")
	case o.spec != "" && o.netlist != "":
		return req, fmt.Errorf("-spec and -netlist are mutually exclusive")
	}
	if o.netlist != "" {
		data, err := os.ReadFile(o.netlist)
		if err != nil {
			return req, err
		}
		req.Netlist = string(data)
		req.Name = o.netlist
	} else {
		req.Spec = o.spec
	}
	req.Orderer = o.orderer
	req.Filler = o.filler
	req.Seed = o.seed
	req.ATPG.Shards = o.shards
	req.Power = pipeline.PowerConfig{Scheme: o.scheme, Chains: o.chains, Tiles: o.tiles}
	return req, nil
}

func runPipelineMode(stdout io.Writer, o pipelineOpts) error {
	if o.async && o.server == "" {
		return fmt.Errorf("-async needs -server: pipeline jobs are queued on a dpfilld worker or a dpfill-coord fleet")
	}
	req, err := buildPipelineRequest(o)
	if err != nil {
		return err
	}
	var rep *pipeline.Report
	switch {
	case o.server == "":
		rep, err = pipeline.Run(context.Background(), req, pipeline.RunOptions{})
	case o.async:
		rep, err = runRemoteAsyncPipeline(stdout, o, req)
	default:
		var c *client.Client
		if c, err = client.New(client.Config{BaseURL: o.server}); err == nil {
			rep, err = c.Pipeline(context.Background(), req)
		}
	}
	if err != nil {
		return err
	}
	if err := renderPipelineReport(stdout, rep); err != nil {
		return err
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", o.out)
	}
	return nil
}

// runRemoteAsyncPipeline submits through POST /v1/jobs and waits; with
// -follow each polled progress advance narrates a pipeline stage
// completing (netlist, each ATPG shard, fill, power).
func runRemoteAsyncPipeline(stdout io.Writer, o pipelineOpts, req pipeline.Request) (*pipeline.Report, error) {
	c, err := client.New(client.Config{BaseURL: o.server})
	if err != nil {
		return nil, err
	}
	st, err := c.SubmitPipelineJob(context.Background(), req)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "submitted pipeline job %s (%d stages, %s)\n", st.ID, st.Total, st.State)
	st, err = c.WaitJob(context.Background(), st.ID, o.poll, narrateJob(stdout, o.follow, "stages"))
	if err != nil {
		return nil, err
	}
	if st.State != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return client.JobPipelineReport(st)
}

// renderPipelineReport prints the human-readable view; -o holds the
// full JSON for machine consumers.
func renderPipelineReport(stdout io.Writer, rep *pipeline.Report) error {
	ci := rep.Circuit
	fmt.Fprintf(stdout, "circuit %s: %d PIs + %d FFs (scan width %d), %d gates, %d POs\n",
		rep.Name, ci.PIs, ci.FFs, ci.Width, ci.Gates, ci.POs)
	if a := rep.ATPG; a != nil {
		fmt.Fprintf(stdout, "atpg: %d patterns for %d faults (%.1f%% coverage, %d dropped by sim, %d merged",
			a.Patterns, a.TotalFaults, a.Coverage*100, a.DroppedBySim, a.Merged)
		if a.Shards > 1 {
			fmt.Fprintf(stdout, ", %d shards", a.Shards)
		}
		fmt.Fprintf(stdout, "), %.1f%% X\n", a.XPercent)
	}
	if f := rep.Fill; f != nil {
		fmt.Fprintf(stdout, "%s + %s: peak input toggles = %d (total %d)\n",
			f.Orderer, f.Filler, f.Peak, f.Total)
	}
	if p := rep.Power; p != nil {
		fmt.Fprintf(stdout, "power (%s, %d chains): shift peak %d toggles (avg %.1f over %d cycles/load), capture peak %.1f uW (avg %.1f)\n",
			p.Scheme, p.Chains, p.ShiftPeak, p.ShiftAvg, p.ShiftCycles, p.CapturePeakUW, p.CaptureAvgUW)
		if ir := p.IRDrop; ir != nil {
			fmt.Fprintf(stdout, "ir-drop (%dx%d tiles): worst %.1f uA at (%d,%d) cycle %d, hotspot ratio %.2f\n",
				ir.Tiles, ir.Tiles, ir.WorstUA, ir.PeakTileX, ir.PeakTileY, ir.PeakCycle, ir.HotspotRatio)
		}
	}
	for _, st := range rep.Stages {
		fmt.Fprintf(stdout, "  stage %-8s %8.2f ms\n", st.Stage, st.DurationMillis)
	}
	return nil
}
