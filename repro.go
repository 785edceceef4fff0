// Package repro is an open-source reproduction of "DP-fill: A Dynamic
// Programming approach to X-filling for minimizing peak test power in
// scan tests" (DATE 2015).
//
// It provides, from scratch and on the standard library only:
//
//   - DPFill, the provably optimal X-filling algorithm for minimizing
//     peak input toggles between consecutive scan test vectors, via the
//     paper's Bottleneck Coloring Problem reduction;
//   - the baseline fills (0/1/R/MT/B, Adj-fill, X-Stat) and orderings
//     (tool, X-Stat, ISA, and the paper's interleaved I-Ordering) it is
//     evaluated against;
//   - the full substrate: netlists, .bench I/O, synthetic ITC'99
//     benchmark generation, 3-valued/64-way logic simulation, PODEM
//     ATPG with fault dropping, scan/DFT modeling and a placement-based
//     power model;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation (package internal/exp, cmd/experiments).
//
// This root package is the stable facade: thin, documented re-exports
// of the pieces a downstream user composes. Examples live under
// examples/, executables under cmd/.
package repro

import (
	"context"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/engine"
	"repro/internal/fill"
	"repro/internal/jobs"
	"repro/internal/netgen"
	"repro/internal/order"
	pipelinepkg "repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/scan"
	"repro/internal/server"
)

// Re-exported data types. The aliases keep one canonical definition
// while letting user code import only this package.
type (
	// Trit is a three-valued logic symbol (0, 1, X).
	Trit = cube.Trit
	// Cube is one test cube (a trit vector over PIs + scan FFs).
	Cube = cube.Cube
	// CubeSet is an ordered sequence of equal-width cubes.
	CubeSet = cube.Set
	// PackedCubes is the bit-packed snapshot of a cube set that every
	// Orderer and Filler runs on; PackCubes builds one.
	PackedCubes = cube.Packed
	// Circuit is a gate-level netlist.
	Circuit = circuit.Circuit
	// Profile describes a synthetic ITC'99 benchmark.
	Profile = netgen.Profile
	// Filler is a named X-filling algorithm.
	Filler = fill.Filler
	// Orderer is a named test-vector ordering algorithm.
	Orderer = order.Orderer
	// FillResult carries DP-fill run statistics.
	FillResult = core.Result
	// Fault is a stuck-at fault.
	Fault = atpg.Fault
	// ATPGStats summarizes a test-generation run.
	ATPGStats = atpg.Stats
	// PowerModel holds extracted per-net capacitances.
	PowerModel = power.Model
	// ScanPlan describes scan chains and the at-speed scheme.
	ScanPlan = scan.Plan
	// FillOptions tunes how DPFill executes (row-shard count); every
	// setting produces byte-identical output.
	FillOptions = core.Options
	// BatchEngine runs batches of ordering+fill jobs over a bounded
	// worker pool.
	BatchEngine = engine.Engine
	// BatchJob is one unit of batch work: a cube set plus the
	// algorithms to run on it.
	BatchJob = engine.Job
	// BatchResult is the outcome of one batch job (filled set, peak,
	// timing, error).
	BatchResult = engine.Result
	// Server is the long-running HTTP/JSON fill service (cmd/dpfilld).
	Server = server.Server
	// ServerConfig tunes the fill service: engine workers, shape and
	// body-size limits, per-request deadlines, result cache size.
	ServerConfig = server.Config
	// ServerStats is the service's /stats payload (jobs served, cache
	// hit rate, latency percentiles, engine queue depth).
	ServerStats = server.Stats
	// FillRequest and FillResponse are the /v1/fill payload pair;
	// FillBatchRequest and FillBatchResponse the /v1/batch pair. They
	// are shared by the server, the client and the cluster.
	FillRequest       = server.FillRequest
	FillResponse      = server.FillResponse
	FillBatchRequest  = server.BatchRequest
	FillBatchResponse = server.BatchResponse
	// FillClient is the typed HTTP client for the dpfilld/dpfill-coord
	// API: fill/batch/pipeline, the async job API (SubmitJob/Job/Jobs/
	// CancelJob, and WaitJob, which polls Job until the job settles)
	// plus health and stats, with retries, backoff and request-ID
	// propagation.
	FillClient = client.Client
	// FillJobStatus is an async job snapshot: ID, lifecycle state,
	// progress, and (once done) the journaled batch result.
	FillJobStatus = jobs.Status
	// FillJobState is an async job's lifecycle position (queued,
	// running, done, failed, cancelled).
	FillJobState = jobs.State
	// FillClientConfig tunes a FillClient (base URL, retry policy).
	FillClientConfig = client.Config
	// Cluster is the fill-fleet coordinator (cmd/dpfill-coord): it
	// shards batches across dpfilld workers behind the same /v1/* API.
	Cluster = cluster.Coordinator
	// ClusterConfig tunes a Cluster: worker URLs, heartbeat policy,
	// shard size, hedging, local fallback.
	ClusterConfig = cluster.Config
	// ClusterStats is the coordinator's /stats payload (fleet health,
	// shards, retries, hedges, fallbacks).
	ClusterStats = cluster.Stats
	// PipelineRequest describes one full netlist -> ATPG -> fill ->
	// power workload: the circuit (inline .bench text or a netgen
	// spec), ATPG compaction and fault-shard settings, the fill-stage
	// algorithms, and the power-evaluation scheme. It is the payload
	// of POST /v1/pipeline on server and cluster alike.
	PipelineRequest = pipelinepkg.Request
	// PipelineReport is the typed result: circuit shape, ATPG counters
	// and coverage curve, fill statistics, shift/capture power and
	// IR-drop, plus per-stage timings.
	PipelineReport = pipelinepkg.Report
)

// Trit values.
const (
	Zero = cube.Zero
	One  = cube.One
	X    = cube.X
)

// ParseCubes builds a cube set from strings like "01XX0".
func ParseCubes(cubes ...string) (*CubeSet, error) { return cube.ParseSet(cubes...) }

// PackCubes builds the packed snapshot of s that orderers and fillers
// take: pack a set once, then order and fill the snapshot.
func PackCubes(s *CubeSet) *PackedCubes { return cube.Pack(s) }

// DPFill runs the paper's optimal X-filling on the ordered set and
// returns a fully specified completion achieving the minimum possible
// peak toggle count for that ordering.
func DPFill(s *CubeSet) (*CubeSet, *FillResult, error) { return core.FillWith(s, core.Options{}) }

// DPFillWith is DPFill with explicit execution options (e.g. a pinned
// row-shard count for the parallel stretch scan).
func DPFillWith(s *CubeSet, opt FillOptions) (*CubeSet, *FillResult, error) {
	return core.FillWith(s, opt)
}

// OptimalPeak returns the minimum achievable peak toggle count of the
// ordering without materializing the filled set (the Algorithm 1 lower
// bound, which Algorithm 2 always attains).
func OptimalPeak(s *CubeSet) (int, error) { return core.Bottleneck(s) }

// NewEngine returns a concurrent batch fill engine with the given
// worker bound (<= 0 sizes the pool to the machine). Submit jobs with
// BatchEngine.Run; results come back in submission order with per-job
// timings, and a failing job never takes down its batch.
func NewEngine(workers int) *BatchEngine { return engine.New(workers) }

// BatchErr returns the first job error in a batch result, or nil when
// every job succeeded.
func BatchErr(results []BatchResult) error { return engine.FirstErr(results) }

// NewServer returns the HTTP fill service: POST /v1/fill and /v1/batch
// accept cube sets (inline matrices or STIL text) and answer them
// through a shared batch engine worker pool, with an LRU result cache,
// request validation against configurable limits, per-request
// deadlines, POST /v1/pipeline, and /healthz + /stats + /metrics
// endpoints. The async job API (/v1/jobs) accepts batches and
// pipelines for background execution and, with ServerConfig.DataDir
// set, journals them so accepted work survives a restart. Serve it
// with Server.ListenAndServe (graceful shutdown on context cancel) or
// mount Server.Handler under an existing mux and stop the job workers
// with Server.Close.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewFillClient returns a typed client for a dpfilld worker or a
// dpfill-coord fleet — the two speak the same API, so callers are
// topology-agnostic.
func NewFillClient(cfg FillClientConfig) (*FillClient, error) { return client.New(cfg) }

// NewCluster returns the fill-fleet coordinator: it health-checks the
// configured dpfilld workers by heartbeat, shards /v1/batch workloads
// across them least-loaded-first with per-shard failover and optional
// hedging, and re-exposes the worker API plus fleet-level /healthz
// and /stats. Serve it with Cluster.ListenAndServe, or mount
// Cluster.Handler and drive heartbeats with Cluster.Run.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// Fills returns the named X-filling algorithms of the paper's tables:
// "MT-fill", "R-fill", "0-fill", "1-fill", "B-fill", "DP-fill" via
// fill.All plus "Adj-fill" and "X-Stat".
func Fills(seed int64) []Filler {
	return append(fill.All(seed, core.Options{}), fill.Adj(), fill.XStat())
}

// Orderings returns the orderings of the paper's tables: "Tool",
// "X-Stat", "I-Order", plus "ISA".
func Orderings(seed int64) []Orderer {
	return append(order.All(), order.ISA(seed))
}

// IOrdering returns the paper's Algorithm 3 interleaved ordering.
func IOrdering() Orderer { return order.Interleaved() }

// Pipeline composes an ordering with a fill — the unit every experiment
// evaluates (e.g. I-Ordering + DP-fill is the paper's proposal).
type Pipeline struct {
	Orderer Orderer
	Filler  Filler
}

// Proposed returns the paper's proposed pipeline: I-Ordering + DP-fill.
func Proposed() Pipeline {
	return Pipeline{Orderer: order.Interleaved(), Filler: fill.DP()}
}

// Run packs the set once, then orders and fills that snapshot,
// returning the filled set, the permutation used, and the achieved
// peak toggle count.
func (p Pipeline) Run(s *CubeSet) (*CubeSet, []int, int, error) {
	packed := cube.Pack(s)
	perm, err := p.Orderer.OrderPacked(packed)
	if err != nil {
		return nil, nil, 0, err
	}
	filled, err := p.Filler.Fill(packed, perm)
	if err != nil {
		return nil, nil, 0, err
	}
	return filled.Set(), perm, filled.Peak, nil
}

// RunPipeline executes one full workload in-process: resolve the
// request's circuit, generate test cubes with PODEM ATPG (optionally
// fault-sharded), X-fill them with the requested ordering and filler,
// and evaluate shift/capture power and IR-drop. It is the exact
// function POST /v1/pipeline serves, so a local run and a served run
// of the same request produce the identical report (up to stage
// timings).
func RunPipeline(ctx context.Context, req PipelineRequest) (*PipelineReport, error) {
	return pipelinepkg.Run(ctx, req, pipelinepkg.RunOptions{})
}

// ITC99Profiles returns the synthetic benchmark profiles of Table I.
func ITC99Profiles() []Profile { return netgen.ITC99() }

// GenerateCircuit synthesizes a profile-matched netlist.
func GenerateCircuit(p Profile) (*Circuit, error) { return netgen.Generate(p) }

// GenerateTests runs the PODEM ATPG on the circuit, returning
// X-dominated test cubes in tool (generation) order.
func GenerateTests(c *Circuit, opts atpg.Options) (*CubeSet, ATPGStats, error) {
	return atpg.Generate(c, opts)
}

// ATPGOptions re-exports the ATPG tuning knobs.
type ATPGOptions = atpg.Options

// NewScanPlan builds a full-scan LOS plan with the given chain count.
func NewScanPlan(c *Circuit, chains int) (*ScanPlan, error) {
	return scan.NewPlan(c, scan.LOS, chains)
}

// ExtractPower builds the placement-based 45 nm power model for the
// circuit.
func ExtractPower(c *Circuit) *PowerModel {
	return power.Extract(c, power.Default45nm())
}
