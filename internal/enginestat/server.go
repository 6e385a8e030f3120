package enginestat

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Server is the live telemetry endpoint: a plain net/http server exposing
// the latest *published* observability snapshots plus the Go runtime's
// own introspection handlers.
//
//	/metrics       Prometheus text format (latest published snapshot)
//	/progress      campaign progress (jobs done/total, wall-clock, ETA)
//	/debug/pprof/  Go CPU/heap/goroutine profiles
//	/debug/vars    expvar
//
// The simulator's registries are single-logical-thread values, so HTTP
// handlers never touch them: the owner renders a snapshot when a campaign
// job finishes and PublishMetrics swaps it in atomically. Handlers only
// ever read the swapped pointers, so the server is race-free by
// construction and a scrape can never observe a half-updated registry.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	once sync.Once

	metrics  atomic.Pointer[[]byte]
	progress atomic.Pointer[func() ProgressSnapshot]
}

// ProgressSnapshot is the campaign-progress payload served at /progress.
type ProgressSnapshot struct {
	Done      int64   `json:"done"`
	Total     int64   `json:"total"`
	ElapsedMS float64 `json:"elapsed_ms"`
	AvgJobMS  float64 `json:"avg_job_ms"`
	ETAMS     float64 `json:"eta_ms"`
}

// NewServer starts a telemetry server on addr (host:port; use port 0 for
// an ephemeral port, Addr reports the bound address). The error is the
// listen failure, if any.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down. Safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() { err = s.srv.Close() })
	return err
}

// PublishMetrics swaps in a rendered Prometheus text snapshot. The caller
// must not mutate b afterwards.
func (s *Server) PublishMetrics(b []byte) { s.metrics.Store(&b) }

// SetProgress installs the campaign-progress source. fn must be safe to
// call from HTTP handler goroutines (Pool.Progress snapshots are — they
// read only atomics).
func (s *Server) SetProgress(fn func() ProgressSnapshot) { s.progress.Store(&fn) }

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "sanft telemetry\n\n/metrics\n/progress\n/debug/pprof/\n/debug/vars\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if b := s.metrics.Load(); b != nil {
		_, _ = w.Write(*b)
		return
	}
	// Nothing published yet: still a valid (empty) exposition, so scrapes
	// before the first sample don't error.
	fmt.Fprint(w, "# no metrics published yet\n")
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	fn := s.progress.Load()
	if fn == nil {
		http.Error(w, "no campaign in progress", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode((*fn)())
}
