// Command dpfill applies a test-vector ordering and an X-filling
// algorithm to cube files (one cube per line, characters 0/1/X, '#'
// comments) or STIL pattern files (.stil) and reports the peak input
// toggle count. With -o it writes the filled, reordered set.
//
// Usage:
//
//	dpfill -in cubes.txt -order i -fill dp -o filled.txt
//	dpfill -in cubes.txt -grid        # full ordering x fill grid
//	dpfill -jobs a.txt,b.stil -workers 4 -outdir filled/
//	dpfill -order i -fill dp a.txt b.txt c.txt
//	dpfill -server http://fill-coord:8090 a.txt b.txt
//	dpfill -server http://fill-coord:8090 -async a.txt b.txt
//
// With more than one input (via -jobs, repeated, and/or positional
// arguments) the files are processed as a batch on the concurrent fill
// engine: every job gets the same -order/-fill pipeline, failures are
// reported per job without aborting the rest, and -outdir collects the
// filled sets.
//
// With -server URL nothing is filled locally: inputs are read here and
// submitted to a dpfilld worker or a dpfill-coord fleet through the
// typed API client, in both single and batch mode (-grid then runs the
// server-side filler grid under the one -order'ed ordering). Adding
// -async routes the work through the server's persistent job queue
// (POST /v1/jobs): job IDs print immediately, results are polled for,
// and a server running with -data-dir finishes accepted jobs even
// across its own restart.
//
// With -pipeline the binary runs the full workload the repository
// models end to end — synthesize or read a netlist, generate test
// cubes with ATPG, X-fill them, and evaluate shift/capture power and
// IR-drop — locally, against a server, or fault-sharded across a
// fleet:
//
//	dpfill -pipeline -spec b06
//	dpfill -pipeline -netlist s27.bench -fill dp -scheme loc -chains 4
//	dpfill -pipeline -spec b09@0.5 -shards 4 -server http://fill-coord:8090
//	dpfill -pipeline -spec b06 -server http://fill-coord:8090 -async -follow
//
// Orderings: tool, xstat, i, isa. Fills: mt, r, 0, 1, b, adj, xstat, dp.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/engine"
	"repro/internal/fill"
	"repro/internal/order"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpfill:", err)
		os.Exit(1)
	}
}

// jobsFlag accumulates -jobs values: the flag is repeatable and each
// value may hold a comma-separated file list.
type jobsFlag []string

func (j *jobsFlag) String() string { return strings.Join(*j, ",") }
func (j *jobsFlag) Set(s string) error {
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*j = append(*j, part)
		}
	}
	return nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dpfill", flag.ContinueOnError)
	in := fs.String("in", "-", "input cube file ('-' = stdin)")
	out := fs.String("o", "", "write the filled set to this file")
	ordName := fs.String("order", "tool", "ordering: tool|xstat|i|isa")
	fillName := fs.String("fill", "dp", "fill: mt|r|0|1|b|adj|xstat|dp")
	explain := fs.Bool("explain", false, "dp only: print the fill's explain trace (stage timings, BCP prune counters, arena reuse); with -server, request the server-side record")
	seed := fs.Int64("seed", 1, "seed for randomized algorithms")
	grid := fs.Bool("grid", false, "evaluate the full ordering x fill grid instead")
	var jobs jobsFlag
	fs.Var(&jobs, "jobs", "comma-separated input files to batch-fill (repeatable)")
	workers := fs.Int("workers", 0, "batch engine worker bound (0 = GOMAXPROCS)")
	outdir := fs.String("outdir", "", "directory for batch-mode filled sets")
	serverURL := fs.String("server", "", "dpfilld/dpfill-coord base URL: submit jobs there instead of filling locally")
	async := fs.Bool("async", false, "with -server: submit through the async job API (/v1/jobs) and poll for the result")
	poll := fs.Duration("poll", 100*time.Millisecond, "async job poll interval")
	follow := fs.Bool("follow", false, "with -async: print each job's state and progress changes as it polls")
	pipelineMode := fs.Bool("pipeline", false, "run the full netlist -> ATPG -> fill -> power pipeline (needs -spec or -netlist)")
	spec := fs.String("spec", "", "pipeline: netgen circuit spec — a catalog name (b04), name@factor (b04@0.25), or pis=..,ffs=..,gates=..")
	netlist := fs.String("netlist", "", "pipeline: ISCAS-89 .bench netlist file")
	scheme := fs.String("scheme", "", "pipeline: capture scheme los|loc (default los)")
	chains := fs.Int("chains", 0, "pipeline: scan chain count (0 = 1)")
	tiles := fs.Int("tiles", 0, "pipeline: IR-drop analysis grid dimension (0 = 4, at most 256)")
	shards := fs.Int("shards", 0, "pipeline: ATPG fault shards (0/1 = unsharded; a coordinator fans shards across its fleet)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pipelineMode {
		if *grid || len(jobs) > 0 || len(fs.Args()) > 0 {
			return fmt.Errorf("-pipeline takes its input from -spec or -netlist only")
		}
		return runPipelineMode(stdout, pipelineOpts{
			spec: *spec, netlist: *netlist,
			orderer: *ordName, filler: *fillName, seed: *seed,
			scheme: *scheme, chains: *chains, tiles: *tiles, shards: *shards,
			server: *serverURL, async: *async, follow: *follow, poll: *poll,
			out: *out,
		})
	}
	if *async {
		switch {
		case *serverURL == "":
			return fmt.Errorf("-async needs -server: jobs are queued on a dpfilld worker or a dpfill-coord fleet")
		case *grid:
			return fmt.Errorf("-async is fill-only; -grid has no async API")
		}
	}
	if *explain {
		// Decide on the resolved filler, so every DP spelling (DP,
		// dpfill, dp-fill) qualifies.
		fl, err := fill.ByName(*fillName, *seed, core.Options{})
		switch {
		case err != nil:
			return err
		case !fill.IsDP(fl):
			return fmt.Errorf("-explain only applies to -fill dp: only the fill core emits a trace")
		case *grid:
			return fmt.Errorf("-explain is single-fill only; -grid has no explain records")
		case *async:
			return fmt.Errorf("-explain is synchronous-only; async job results do not retain explain records")
		}
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	inputs := append([]string(nil), jobs...)
	inputs = append(inputs, fs.Args()...)
	// Batch mode: any -jobs use, multiple inputs, or an output directory.
	if len(jobs) > 0 || len(inputs) > 1 || *outdir != "" {
		switch {
		case *grid:
			return fmt.Errorf("-grid is single-input only")
		case *explain:
			return fmt.Errorf("-explain is single-input only")
		case explicit["in"]:
			return fmt.Errorf("-in is single-input only; pass batch inputs via -jobs or arguments")
		case explicit["o"]:
			return fmt.Errorf("-o is single-input only; use -outdir in batch mode")
		case len(inputs) == 0:
			return fmt.Errorf("batch mode needs input files (-jobs or arguments)")
		}
		switch {
		case *serverURL != "" && *async:
			return runRemoteAsyncBatch(stdout, *serverURL, inputs, *ordName, *fillName, *seed, *outdir, *poll, *follow)
		case *serverURL != "":
			return runRemoteBatch(stdout, *serverURL, inputs, *ordName, *fillName, *seed, *outdir)
		}
		return runBatch(stdout, inputs, *ordName, *fillName, *seed, *workers, *outdir)
	}
	// A single positional argument is shorthand for -in.
	if len(inputs) == 1 {
		if explicit["in"] {
			return fmt.Errorf("both -in %s and argument %s given; pass one input, or use batch mode for several", *in, inputs[0])
		}
		*in = inputs[0]
	}

	// A single input through the async job API runs as a one-job batch
	// (stdin has no stable path to re-read, so it stays synchronous).
	if *async {
		if *in == "-" {
			return fmt.Errorf("-async needs file inputs; stdin is submit-and-forget-unsafe")
		}
		if explicit["o"] {
			return fmt.Errorf("-o is synchronous-only; use -outdir with -async")
		}
		return runRemoteAsyncBatch(stdout, *serverURL, []string{*in}, *ordName, *fillName, *seed, *outdir, *poll, *follow)
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	// Remote mode: the input still comes from here, the work happens
	// on the server (a dpfilld worker or a dpfill-coord fleet).
	if *serverURL != "" {
		if *grid {
			return runRemoteGrid(stdout, *serverURL, r, *in, *ordName, *seed)
		}
		return runRemoteFill(stdout, *serverURL, r, *in, *ordName, *fillName, *seed, *out, *explain)
	}
	set, err := readCubes(r, *in)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "read %d cubes of width %d (%.1f%% X)\n",
		set.Len(), set.Width, set.XPercent())

	if *grid {
		return runGrid(stdout, set, *seed)
	}

	ord, err := order.ByName(*ordName, *seed)
	if err != nil {
		return err
	}
	var tr *core.Trace
	if *explain {
		tr = &core.Trace{}
	}
	fl, err := fill.ByName(*fillName, *seed, core.Options{Trace: tr})
	if err != nil {
		return err
	}
	p := cube.Pack(set)
	perm, err := ord.OrderPacked(p)
	if err != nil {
		return err
	}
	filled, err := fl.Fill(p, perm)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s + %s: peak input toggles = %d (total %d)\n",
		ord.Name(), fl.Name(), filled.Peak, filled.Total)
	if tr != nil {
		printExplain(stdout, tr)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := filled.Set().Write(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return nil
}

// printExplain renders a fill-core explain trace: input shape, BCP
// prune counters, the per-stage wall-time breakdown (which sums to the
// total by construction).
func printExplain(w io.Writer, tr *core.Trace) {
	fmt.Fprintf(w, "explain: %d pins x %d vectors, shards=%d, arena_reused=%v\n",
		tr.Rows, tr.Cols, tr.Shards, tr.ArenaReused)
	fmt.Fprintf(w, "  bcp: intervals=%d forced_unit=%d peak=%d lower_bound=%d\n",
		tr.Intervals, tr.ForcedUnit, tr.Peak, tr.LowerBound)
	fmt.Fprintf(w, "  bcp sweep: starts scanned=%d pruned=%d, windows scanned=%d, suffix breaks=%d\n",
		tr.BCP.StartsScanned, tr.BCP.StartsSkipped, tr.BCP.WindowsScanned, tr.BCP.SuffixBreaks)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "  stage\tms\tshare\t\n")
	for _, st := range tr.StageNS() {
		var share float64
		if tr.TotalNS > 0 {
			share = 100 * float64(st.NS) / float64(tr.TotalNS)
		}
		fmt.Fprintf(tw, "  %s\t%.3f\t%.1f%%\t\n", st.Stage, float64(st.NS)/1e6, share)
	}
	fmt.Fprintf(tw, "  total\t%.3f\t\t\n", float64(tr.TotalNS)/1e6)
	tw.Flush()
}

// readCubes parses r as STIL when the path ends in .stil, plain cube
// lines otherwise.
func readCubes(r io.Reader, path string) (*cube.Set, error) {
	if strings.EqualFold(filepath.Ext(path), ".stil") {
		return cube.ReadSTIL(r)
	}
	return cube.ReadSet(r)
}

func readCubeFile(path string) (*cube.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readCubes(f, path)
}

// runBatch fills every input file through the concurrent engine with
// one shared ordering + fill pipeline and prints a per-job report.
// Failing jobs — unreadable inputs included — are reported inline
// without aborting the rest; the first failure is returned after every
// job has run.
func runBatch(stdout io.Writer, inputs []string, ordName, fillName string, seed int64, workers int, outdir string) error {
	ord, err := order.ByName(ordName, seed)
	if err != nil {
		return err
	}
	// DP-fill pinned to one shard: the engine's worker pool already
	// saturates the CPU.
	fl, err := fill.ByName(fillName, seed, core.Options{Shards: 1})
	if err != nil {
		return err
	}
	// Read every input, isolating failures per job: unreadable files
	// become pre-failed result rows, readable ones engine jobs.
	results := make([]engine.Result, len(inputs))
	var batch []engine.Job
	var batchIdx []int // batch[k] fills results[batchIdx[k]]
	for i, path := range inputs {
		set, err := readCubeFile(path)
		if err != nil {
			results[i] = engine.Result{Job: i, Name: path, Err: err}
			continue
		}
		batch = append(batch, engine.Job{Name: path, Set: set, Orderer: ord, Filler: fl})
		batchIdx = append(batchIdx, i)
	}
	eng := engine.New(workers)
	for k, r := range eng.Run(context.Background(), batch) {
		r.Job = batchIdx[k]
		results[batchIdx[k]] = r
	}

	if outdir != "" {
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "%s + %s over %d jobs (worker bound %d)\n",
		ord.Name(), fl.Name(), len(inputs), eng.Workers)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\tcubes\twidth\tX%\tpeak\ttotal\tms\tstatus")
	failures := 0
	for i, r := range results {
		if r.Err != nil {
			failures++
			shape := "-\t-\t-"
			if set := inputSet(batch, batchIdx, i); set != nil {
				shape = fmt.Sprintf("%d\t%d\t%.1f", set.Len(), set.Width, set.XPercent())
			}
			fmt.Fprintf(tw, "%s\t%s\t-\t-\t%.2f\t%v\n",
				r.Name, shape, float64(r.Duration.Microseconds())/1000, r.Err)
			continue
		}
		set := inputSet(batch, batchIdx, i)
		status := "ok"
		if outdir != "" {
			base := strings.TrimSuffix(filepath.Base(r.Name), filepath.Ext(r.Name))
			dst := filepath.Join(outdir, base+".filled")
			if err := writeSet(dst, r.Filled.Unpack()); err != nil {
				failures++
				results[i].Err = err
				status = err.Error()
			} else {
				status = "wrote " + dst
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%d\t%.2f\t%s\n",
			r.Name, set.Len(), set.Width, set.XPercent(), r.Peak, r.Total,
			float64(r.Duration.Microseconds())/1000, status)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d jobs failed: first: %w", failures, len(inputs), engine.FirstErr(results))
	}
	return nil
}

// inputSet returns the cube set submitted for display row i, or nil
// when that input never became a job (read failure).
func inputSet(batch []engine.Job, batchIdx []int, i int) *cube.Set {
	for k, idx := range batchIdx {
		if idx == i {
			return batch[k].Set
		}
	}
	return nil
}

func writeSet(path string, s *cube.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Write(f)
}

func runGrid(stdout io.Writer, set *cube.Set, seed int64) error {
	orderers := append(order.All(), order.ISA(seed))
	fillers := append(fill.All(seed, core.Options{}), fill.Adj(), fill.XStat())
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	names := make([]string, len(fillers))
	for i, fl := range fillers {
		names[i] = fl.Name()
	}
	fmt.Fprintf(tw, "ordering\\fill\t%s\n", strings.Join(names, "\t"))
	p := cube.Pack(set)
	for _, ord := range orderers {
		perm, err := ord.OrderPacked(p)
		if err != nil {
			return err
		}
		cells := make([]string, len(fillers))
		for i, fl := range fillers {
			filled, err := fl.Fill(p, perm)
			if err != nil {
				return err
			}
			cells[i] = fmt.Sprintf("%d", filled.Peak)
		}
		fmt.Fprintf(tw, "%s\t%s\n", ord.Name(), strings.Join(cells, "\t"))
	}
	return tw.Flush()
}
