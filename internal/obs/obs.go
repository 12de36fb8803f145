// Package obs is the live stack's observability plane: a per-node HTTP
// introspection server exposing Prometheus-format metrics, health and
// readiness probes, and JSON dumps of live routing state and peer
// sessions.
//
// The server is deliberately passive: it owns no protocol state. The
// hosting node hands it a Sample closure (a consistent snapshot of
// routing and session state taken under the node's own lock) and a
// telemetry.Registry whose instruments the node's goroutines write
// through atomic counters and gauges. Scraping therefore never blocks
// the data path, and the data path never knows the server exists.
//
// Readiness is the settle rule (Settle) run per node on its
// transport.Clock: ready once StablePolls polls in a row found the node
// Eligible — PASSIVE, fully peered, windows drained — with one state
// digest. node.Mesh.AwaitConverged runs the same rule over a whole mesh,
// so /readyz turning 200 on every node is its distributed analogue.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"minroute/internal/telemetry"
	"minroute/internal/transport"
)

// Config parameterizes one introspection server.
type Config struct {
	// Addr is the TCP listen address (host:port; port 0 binds ephemeral).
	Addr string
	// Clock drives the readiness poll — the hosting node's clock, so
	// virtual-clock tests can step the poller deterministically.
	Clock transport.Clock
	// Sample returns a consistent snapshot of the node's live state
	// (required). It is called from poll ticks and HTTP handlers
	// concurrently, so it must take whatever lock makes it consistent.
	Sample func() Sample
	// Registry backs /metrics. Instruments must be created before the
	// server starts (the registry's maps are not locked); values may keep
	// changing — counter and gauge reads are atomic.
	Registry *telemetry.Registry
	// Refresh, when non-nil, runs before every /metrics gather — the hook
	// a node uses to mirror externally maintained totals (event-bus drop
	// counts) into registry instruments right before exposition.
	Refresh func()
	// ConstLabels are attached to every exposed series (e.g. node="3").
	ConstLabels map[string]string
}

// Server is one node's live introspection endpoint.
type Server struct {
	cfg   Config
	ln    net.Listener
	srv   *http.Server
	done  chan struct{}
	start float64

	mu     sync.Mutex
	closed bool
	timer  transport.Timer
	settle Settle
}

// NewServer binds cfg.Addr, starts serving, and arms the readiness
// poller. The caller owns the server and must Close it.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("obs: Config.Clock is required")
	}
	if cfg.Sample == nil {
		return nil, fmt.Errorf("obs: Config.Sample is required")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		done:  make(chan struct{}),
		start: cfg.Clock.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/routes", s.handleRoutes)
	mux.HandleFunc("/peers", s.handlePeers)
	mux.HandleFunc("/flows", s.handleFlows)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	// Serve exits once Close tears the listener down; the handler
	// goroutines it spawns die with their connections, which Close also
	// force-closes.
	go func() {
		_ = s.srv.Serve(ln)
		close(s.done)
	}()
	s.mu.Lock()
	s.armPollLocked()
	s.mu.Unlock()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the poller, force-closes the listener and every live
// connection, and waits for the serve loop to exit. Idempotent. Callers
// must not hold the lock that Sample takes (the node releases its own
// mutex before closing its obs server).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.mu.Unlock()
	_ = s.srv.Close()
	<-s.done
}

// armPollLocked schedules the next readiness poll; each tick re-arms.
func (s *Server) armPollLocked() {
	s.timer = s.cfg.Clock.AfterFunc(PollEvery, s.pollTick)
}

// pollTick feeds one sample to the settle rule. The sample is taken
// before the server lock so a tick blocked on the node's mutex can never
// deadlock against Close.
func (s *Server) pollTick() {
	sample := s.cfg.Sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.settle.Observe(sample.Eligible(), sample.Digest)
	s.armPollLocked()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Refresh != nil {
		s.cfg.Refresh()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, s.cfg.Registry.Gather(), s.cfg.ConstLabels)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	sample := s.cfg.Sample()
	writeJSON(w, http.StatusOK, Health{
		Status: "ok",
		ID:     sample.ID,
		Uptime: s.cfg.Clock.Now() - s.start,
		Peers:  len(sample.Peers),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	sample := s.cfg.Sample()
	s.mu.Lock()
	st := s.settle
	s.mu.Unlock()
	r := Readiness{
		Ready:       st.Settled() && sample.Eligible(),
		Passive:     sample.Passive,
		Peers:       len(sample.Peers),
		MinPeers:    sample.MinPeers,
		Outstanding: sample.Outstanding,
		Streak:      st.streak,
		StablePolls: StablePolls,
		Hash:        st.digest,
	}
	code := http.StatusOK
	if !r.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, r)
}

func (s *Server) handleRoutes(w http.ResponseWriter, _ *http.Request) {
	sample := s.cfg.Sample()
	writeJSON(w, http.StatusOK, RoutesDoc{ID: sample.ID, Routes: sample.Routes})
}

func (s *Server) handlePeers(w http.ResponseWriter, _ *http.Request) {
	sample := s.cfg.Sample()
	writeJSON(w, http.StatusOK, PeersDoc{ID: sample.ID, MinPeers: sample.MinPeers, Peers: sample.Peers})
}

// handleFlows serves the data-plane snapshot: split table and sink
// flows. 404 on nodes running without a data plane, so watchers can
// distinguish "no forwarder" from "no traffic yet".
func (s *Server) handleFlows(w http.ResponseWriter, _ *http.Request) {
	sample := s.cfg.Sample()
	if sample.Data == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no data plane"})
		return
	}
	writeJSON(w, http.StatusOK, FlowsDoc{ID: sample.ID, Data: sample.Data})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
