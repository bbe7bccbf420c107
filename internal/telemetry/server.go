package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// HealthFunc reports liveness for /healthz: ok=false turns the endpoint
// into a 503. The detail string is included in the body either way.
type HealthFunc func() (ok bool, detail string)

// ServerOptions wires the diagnostics endpoints.
type ServerOptions struct {
	// Registry backs /metrics. A nil registry serves an empty (but
	// valid) exposition.
	Registry *Registry
	// Health backs /healthz; nil means always healthy. The binaries pass
	// their fleet's obs.Fleet.Healthz, which builds the answer from the
	// fleet's loops at scrape time: 503 naming the first loop in
	// supervisor fallback, then one failing its model-health monitor,
	// then one alerting on a control SLO; otherwise 200, annotated with
	// model-health warns, SLO budget burn and the caller's extra sources
	// (such as tsdb baseline drift).
	Health HealthFunc
	// Extra mounts additional diagnostics routes (e.g. the flight
	// recorder's /debug/flightrec, mimotrace's /trace) without this
	// package importing their providers. Each entry is listed on the
	// index page.
	Extra []Endpoint
}

// Endpoint is one additional diagnostics route mounted by NewMux.
type Endpoint struct {
	// Path is the mux pattern (e.g. "/debug/flightrec").
	Path string
	// Desc is the one-line index description.
	Desc string
	// Handler serves the route.
	Handler http.Handler
}

// Server is a live diagnostics HTTP server:
//
//	/metrics     Prometheus text exposition of the registry
//	/healthz     200/503 from the HealthFunc (the fleet's loops)
//	/debug/vars  expvar JSON
//	/debug/pprof profiling endpoints
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// NewMux builds the diagnostics handler without binding a listener, for
// embedding into an existing server.
func NewMux(opts ServerOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = opts.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		ok, detail := true, "ok"
		if opts.Health != nil {
			ok, detail = opts.Health()
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, detail)
	})
	for _, e := range opts.Extra {
		mux.Handle(e.Path, e.Handler)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "mimoctl diagnostics")
		fmt.Fprintln(w, "  /metrics      Prometheus text exposition")
		fmt.Fprintln(w, "  /healthz      loop health (503 on fallback, model-health fail or SLO alert)")
		for _, e := range opts.Extra {
			fmt.Fprintf(w, "  %-13s %s\n", e.Path, e.Desc)
		}
		fmt.Fprintln(w, "  /debug/vars   expvar JSON")
		fmt.Fprintln(w, "  /debug/pprof  profiling")
	})
	return mux
}

// StartServer binds addr (e.g. ":8090" or "127.0.0.1:0") and serves the
// diagnostics mux in a background goroutine until Close.
func StartServer(addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           NewMux(opts),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, ln: ln}, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately.
func (s *Server) Close() error { return s.srv.Close() }
