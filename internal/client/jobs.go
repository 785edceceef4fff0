package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/jobs"
	"repro/internal/reqid"
)

// Async job API. A dpfilld worker and a dpfill-coord coordinator
// expose the same /v1/jobs surface, so these calls are
// topology-agnostic like the synchronous ones.

// SubmitJob submits a batch asynchronously through POST /v1/jobs and
// returns the accepted job's snapshot (its ID is what everything else
// keys on). A full queue answers an APIError with status 429.
//
// Every submit carries a client-minted idempotency key, so retrying
// after a lost 202 — connection cut between the server journaling the
// job and the response arriving — answers with the originally
// accepted job instead of journaling and running a duplicate. That
// makes submits as safely retryable as every other call.
func (c *Client) SubmitJob(ctx context.Context, req BatchRequest) (*JobStatus, error) {
	hdr := http.Header{}
	hdr.Set(jobs.IdempotencyHeader, "sub-"+reqid.New())
	var out JobStatus
	if err := c.doHeaders(ctx, http.MethodPost, "/v1/jobs", req, &out, hdr); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job's status/progress/result via GET /v1/jobs/{id}.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists every retained job, newest first, without result
// payloads.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out jobs.StatusList
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// CancelJob cancels a queued or running job via DELETE /v1/jobs/{id}.
// A settled job answers an APIError with status 409.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob polls GET /v1/jobs/{id} every poll interval (default 100ms
// when <= 0) until the job settles, and returns the terminal snapshot.
// onEvent, when non-nil, receives every polled snapshot, the terminal
// one included. A restart is survived naturally: polls fail while the
// daemon is down, and the first successful poll after WAL replay sees
// the job back in flight (or settled).
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration, onEvent ...func(JobStatus)) (*JobStatus, error) {
	var cb func(JobStatus)
	if len(onEvent) > 0 {
		cb = onEvent[0]
	}
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err == nil {
			if cb != nil {
				cb(*st)
			}
			if st.State.Terminal() {
				return st, nil
			}
		} else if !Retryable(err) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
			return nil, fmt.Errorf("client: waiting for job %s: %w", id, err)
		case <-t.C:
		}
	}
}

// JobBatchResult decodes a settled job's result into the BatchResponse
// the same request would have received through POST /v1/batch.
func JobBatchResult(st *JobStatus) (*BatchResponse, error) {
	if st.State != jobs.StateDone {
		return nil, fmt.Errorf("client: job %s is %s, not done", st.ID, st.State)
	}
	var out BatchResponse
	if err := json.Unmarshal(st.Result, &out); err != nil {
		return nil, &ProtocolError{Path: "/v1/jobs/" + st.ID, Err: err}
	}
	return &out, nil
}
