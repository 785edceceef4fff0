// Package debugz is the opt-in admin surface both daemons mount on
// -debug-addr: the net/http/pprof profiling suite. The tier's /metrics
// scrape stays on the serving port. It is a separate listener by design —
// profiling endpoints can stall a process and must never share the
// serving port, and operators typically firewall the admin port to
// localhost while the serving port faces the fleet.
package debugz

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the admin mux: the pprof index and profiles under
// /debug/pprof/.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ListenAndServe binds addr and serves the admin mux until ctx is
// cancelled. Unlike the serving listeners it has no graceful drain: an
// in-flight profile download is not worth delaying shutdown for.
func ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}
