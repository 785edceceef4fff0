package jobs

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/reqid"
)

// IdempotencyHeader carries the client-minted submit idempotency key:
// a POST /v1/jobs resent with the same key (a retry after a lost
// response) answers with the originally accepted job instead of
// minting a duplicate.
const IdempotencyHeader = "X-Idempotency-Key"

// DecodeSubmit validates a POST /v1/jobs body against the host
// service's own limits and schema and returns the canonical payload to
// journal plus the job's work-item count. On failure it must answer
// the request itself and return ok=false.
type DecodeSubmit func(w http.ResponseWriter, r *http.Request) (payload json.RawMessage, total int, ok bool)

// Mount registers the async job API on mux:
//
//	POST   /v1/jobs      submit, answers 202 + the queued snapshot
//	GET    /v1/jobs      list retained jobs, newest first
//	GET    /v1/jobs/{id} status/progress/result
//	DELETE /v1/jobs/{id} cancel
//
// The error payload shape ({"error": "..."}) matches the rest of the
// /v1/* surface, so clients need exactly one error decoder.
func Mount(mux *http.ServeMux, m *Manager, decode DecodeSubmit) {
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		payload, total, ok := decode(w, r)
		if !ok {
			return
		}
		st, err := m.SubmitTraced(payload, total, r.Header.Get(IdempotencyHeader), reqid.From(r.Context()))
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJobJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJobJSON(w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJobJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJobJSON(w, http.StatusOK, st)
	})
}

// writeJobError maps manager sentinels to HTTP statuses: full queue
// 429, unknown job 404, settled job 409, closed manager 503, anything
// else (journal I/O) 500.
func writeJobError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrTerminal):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJobJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJobJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
