package pipeline

// Report is the typed result of one pipeline run. Every field except
// the stage timings is deterministic for a given request, which is the
// contract the golden-report and coordinator byte-identity suites pin.
type Report struct {
	// Name labels the run (the request name, defaulting to the circuit
	// name).
	Name string `json:"name,omitempty"`
	// Circuit summarizes the resolved netlist.
	Circuit CircuitInfo `json:"circuit"`
	// ATPG reports the generation stage (one shard for StageATPG
	// requests, the merged whole otherwise).
	ATPG *ATPGReport `json:"atpg,omitempty"`
	// Fill and Power report the later stages; absent on StageATPG
	// responses.
	Fill  *FillReport  `json:"fill,omitempty"`
	Power *PowerReport `json:"power,omitempty"`
	// Stages holds per-stage wall-clock timings in execution order.
	// Timings are measurements, not results: differential suites zero
	// them before comparing reports.
	Stages []StageTiming `json:"stages,omitempty"`
}

// CircuitInfo summarizes a resolved netlist.
type CircuitInfo struct {
	Name string `json:"name"`
	// PIs and FFs count primary inputs and flip-flops; Width is their
	// sum, the test cube width.
	PIs   int `json:"pis"`
	FFs   int `json:"ffs"`
	Width int `json:"width"`
	// Gates counts combinational logic gates; POs primary outputs.
	Gates int `json:"gates"`
	POs   int `json:"pos"`
}

// ATPGReport is the generation-stage summary. For sharded runs the
// counters are sums over the shards and Patterns counts the merged
// set. Detected, Untestable and Aborted partition TotalFaults.
// Coverage is Detected / (Detected + Aborted), leaving untestable
// faults out; the curve's coverage is over TotalFaults instead.
type ATPGReport struct {
	TotalFaults  int     `json:"total_faults"`
	Detected     int     `json:"detected"`
	Untestable   int     `json:"untestable"`
	Aborted      int     `json:"aborted"`
	DroppedBySim int     `json:"dropped_by_sim"`
	Merged       int     `json:"merged"`
	Patterns     int     `json:"patterns"`
	Coverage     float64 `json:"coverage"`
	// Shards is the fault-partition count the run used.
	Shards int `json:"shards"`
	// XPercent is the don't-care density of the emitted cubes.
	XPercent float64 `json:"x_percent"`
	// Curve is the cumulative fault-coverage curve over the merged set
	// (absent on shard responses; the merger computes it once).
	Curve []CurvePoint `json:"curve,omitempty"`
	// Cubes is the emitted test cube matrix. Shard responses always
	// carry it (it is the merge payload); full runs only with
	// include_cubes.
	Cubes []string `json:"cubes,omitempty"`
}

// CurvePoint is one point of the fault-coverage curve.
type CurvePoint struct {
	Patterns int     `json:"patterns"`
	Detected int     `json:"detected"`
	Coverage float64 `json:"coverage"`
}

// FillReport is the fill-stage summary, mirroring the /v1/fill
// response for the same cubes.
type FillReport struct {
	Orderer  string  `json:"orderer"`
	Filler   string  `json:"filler"`
	Rows     int     `json:"rows"`
	Width    int     `json:"width"`
	XPercent float64 `json:"x_percent"`
	// Perm is the applied ordering permutation.
	Perm []int `json:"perm,omitempty"`
	// Peak and Total are the toggle statistics of the filled set;
	// Profile the per-cycle toggle counts.
	Peak    int   `json:"peak"`
	Total   int   `json:"total"`
	Profile []int `json:"profile,omitempty"`
	// Cubes is the fully specified output (include_cubes only).
	Cubes []string `json:"cubes,omitempty"`
}

// PowerReport is the evaluation-stage summary.
type PowerReport struct {
	// Scheme and Chains echo the resolved plan; ShiftCycles is the
	// longest chain, TestCycles the total tester cycles for the set.
	Scheme      string `json:"scheme"`
	Chains      int    `json:"chains"`
	ShiftCycles int    `json:"shift_cycles"`
	TestCycles  int    `json:"test_cycles"`
	// StatePreserving reports whether the inter-vector Hamming model
	// (the paper's objective) applies — true under LOS only.
	StatePreserving bool `json:"state_preserving"`
	// ShiftPeak/ShiftTotal/ShiftAvg summarize per-pattern scan-cell
	// toggles while shifting.
	ShiftPeak  int     `json:"shift_peak"`
	ShiftTotal int     `json:"shift_total"`
	ShiftAvg   float64 `json:"shift_avg"`
	// CapturePeakToggles is the peak inter-vector input toggle count —
	// the quantity DP-fill minimizes. LOS only (zero under LOC, where
	// the model is undefined).
	CapturePeakToggles int `json:"capture_peak_toggles,omitempty"`
	// CapturePeakUW/CaptureAvgUW/PeakCycle summarize simulated weighted
	// switching power per capture cycle.
	CapturePeakUW float64 `json:"capture_peak_uw"`
	CaptureAvgUW  float64 `json:"capture_avg_uw"`
	PeakCycle     int     `json:"peak_cycle"`
	// IRDrop is the per-tile peak current summary.
	IRDrop *IRDropReport `json:"ir_drop,omitempty"`
}

// IRDropReport summarizes the per-tile peak current map.
type IRDropReport struct {
	Tiles        int     `json:"tiles"`
	WorstUA      float64 `json:"worst_ua"`
	MeanUA       float64 `json:"mean_ua"`
	HotspotRatio float64 `json:"hotspot_ratio"`
	PeakTileX    int     `json:"peak_tile_x"`
	PeakTileY    int     `json:"peak_tile_y"`
	PeakCycle    int     `json:"peak_cycle"`
}

// StageTiming is one stage's wall-clock measurement.
type StageTiming struct {
	Stage          string  `json:"stage"`
	DurationMillis float64 `json:"duration_ms"`
}

// ZeroTimings clears the report's stage durations in place (keeping
// the stage sequence), for deterministic comparison in tests.
func (r *Report) ZeroTimings() {
	for i := range r.Stages {
		r.Stages[i].DurationMillis = 0
	}
}
