package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/internal/pipeline"
)

// handlePipeline answers POST /v1/pipeline: one full
// netlist→ATPG→fill→power run (or one ATPG fault shard when the
// request sets stage=atpg — the coordinator fan-out unit).
func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	var req pipeline.Request
	if !s.decode(w, r, &req) {
		return
	}
	rep, err := s.runPipeline(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// runPipeline executes one pipeline request under the clamped
// deadline, feeding async progress and the per-stage metric families.
// It is the single execution path behind the synchronous handler and
// the async job runner, mirroring the runBatch contract: an async
// pipeline job replayed after a crash re-runs here and produces the
// identical report (up to stage timings).
func (s *Server) runPipeline(ctx context.Context, req pipeline.Request) (*pipeline.Report, error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.clampTimeout(req.TimeoutMillis))
	defer cancel()
	rep, err := pipeline.Run(ctx, req, pipeline.RunOptions{
		Progress: jobs.Progress(ctx),
		MaxGates: s.cfg.MaxGates,
	})
	if err != nil {
		s.met.observePipelineError()
		return nil, err
	}
	s.met.observePipeline(time.Since(start), rep.Stages)
	return rep, nil
}

// runJob is the async job runner: it dispatches on the journaled
// payload's envelope — a pipeline request runs the pipeline path, a
// batch payload the batch path — so one WAL carries both job types and
// pre-envelope journals (plain batch payloads) replay unchanged. A
// pipeline failure fails the whole job (there are no per-item slots to
// isolate it into, unlike a batch).
func (s *Server) runJob(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
	if preq, ok, err := pipelinePayload(payload); ok {
		if err != nil {
			return nil, err
		}
		rep, err := s.runPipeline(ctx, preq)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}
	return jobs.RunJSON(s.runBatch)(ctx, payload)
}

// pipelineEnvelope is the journaled payload of an async pipeline job.
// Batch payloads ({"jobs": ...}) decode into it with a nil Pipeline,
// which is how runJob tells the two job types apart without a journal
// format version.
type pipelineEnvelope struct {
	Pipeline *pipeline.Request `json:"pipeline"`
}

// pipelinePayload probes a journaled payload for the pipeline
// envelope. A pipeline payload then decodes strictly: one carrying a
// field this build does not know reports ok with an error naming it.
func pipelinePayload(payload json.RawMessage) (pipeline.Request, bool, error) {
	var env pipelineEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Pipeline == nil {
		return pipeline.Request{}, false, nil
	}
	if err := jobs.DecodeStrict(payload, &env); err != nil {
		return pipeline.Request{}, true, fmt.Errorf("decoding journaled pipeline payload: %w", err)
	}
	return *env.Pipeline, true, nil
}
