package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/obs"
	"ignite/internal/wire"
	"ignite/internal/workload"
)

// Server timeouts; overridable through Config.
const (
	defaultRequestTimeout = 60 * time.Second
	maxRequestTimeout     = 5 * time.Minute
	maxBodyBytes          = 1 << 20
)

// Config shapes one serving daemon.
type Config struct {
	// Addr is the listen address (":8080"; ":0" for an ephemeral port).
	Addr string
	// TargetInstr overrides every function's instruction budget when > 0 —
	// CI smokes and tests serve small cells; production serves Table 1's.
	TargetInstr uint64
	// Checks enables the runtime invariant verifier on fresh cells.
	Checks bool
	// MaxCycles arms the per-invocation watchdog on fresh cells.
	MaxCycles uint64
	// Faults is the injection plan (nil = none), from IGNITE_FAULTS.
	Faults *faults.Plan
	// Registry receives the serve.* metric family (nil = private registry).
	Registry *obs.Registry
	// Tracer observes fresh cell simulations (nil = none).
	Tracer obs.Tracer
	// Population adds extra servable functions beyond the Table-1 catalog —
	// ignite-serve -population mounts a sampled fleet population here. The
	// Table-1 catalog wins name clashes (sampled names are prefixed, so
	// clashes cannot happen in practice), and the TargetInstr override
	// applies to population cells the same way.
	Population []workload.Spec

	// Admission knobs (zero = defaults; see batcher.go): Queue bounds the
	// flights waiting for a worker, Workers the concurrent computations.
	Queue   int
	Workers int

	// RequestTimeout is the default per-request deadline; a request's
	// timeoutMs may shorten or extend it up to 5 minutes.
	RequestTimeout time.Duration
}

// Server is the invocation-serving daemon: HTTP handlers in front of a
// coalescing Batcher in front of the experiment layer's cell cache.
//
// The hot path never reaches the batcher: every successful response body is
// remembered under its parsed request (see canonical), so a repeated request
// (the steady state of a load test hammering one warm function) costs one
// parse, one map lookup and one write. Cells are pure functions of their
// key, which is what makes the pre-encoded bytes reusable verbatim.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	batcher  *Batcher // owns the cell cache
	start    time.Time
	draining atomic.Bool

	// respCache maps a request's canonical respKey → its pre-encoded warm
	// response (a json.RawMessage). Keys are parsed values, so entries are
	// bounded by distinct requests, not by their spellings.
	respCache sync.Map

	// popByName/popNames index Config.Population for resolution and the
	// catalog listing (names in mount order, after the Table-1 catalog).
	popByName map[string]workload.Spec
	popNames  []string

	listener net.Listener
	http     *http.Server
	served   chan error

	mRequests *obs.Counter
	mOK       *obs.Counter
	mErrors   *obs.Counter
	mShed     *obs.Counter
	mFast     *obs.Counter
	mInflight *obs.Gauge
}

// NewServer builds a daemon from cfg. Call Start to begin listening.
func NewServer(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = defaultRequestTimeout
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg: cfg,
		reg: reg,
		batcher: NewBatcher(BatcherConfig{
			Cache:   experiments.NewCellCache(),
			Env:     experiments.CellEnv{Tracer: cfg.Tracer, Checks: cfg.Checks, MaxCycles: cfg.MaxCycles},
			Faults:  cfg.Faults,
			Queue:   cfg.Queue,
			Workers: cfg.Workers,
		}, reg),
		start:  time.Now(),
		served: make(chan error, 1),
	}
	s.popByName = make(map[string]workload.Spec, len(cfg.Population))
	for _, spec := range cfg.Population {
		if _, err := workload.ByName(spec.Name); err == nil {
			continue // Table-1 wins name clashes
		}
		if _, dup := s.popByName[spec.Name]; dup {
			continue
		}
		s.popByName[spec.Name] = spec
		s.popNames = append(s.popNames, spec.Name)
	}
	l := obs.L("component", "serve")
	s.mRequests = reg.Counter("serve.requests", l)
	s.mOK = reg.Counter("serve.responses_ok", l)
	s.mErrors = reg.Counter("serve.responses_error", l)
	s.mShed = reg.Counter("serve.shed", l)
	s.mFast = reg.Counter("serve.fast_path_hits", l)
	s.mInflight = reg.Gauge("serve.inflight", l)

	mux := http.NewServeMux()
	mux.HandleFunc(PathInvoke, s.handleInvoke)
	mux.HandleFunc(PathCatalog, s.handleCatalog)
	mux.HandleFunc(PathMetrics, s.handleMetrics)
	mux.HandleFunc(PathHealthz, s.handleHealthz)
	s.http = &http.Server{Handler: mux}
	return s
}

// Start binds the listen address and serves in the background. After Start
// returns, Addr reports the bound address (useful with ":0").
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.listener = ln
	go func() {
		err := s.http.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.served <- err
	}()
	return nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Shutdown drains the daemon: stop accepting connections, wait for in-flight
// handlers (they need the batcher alive), then wait for the batcher's
// flights. This ordering is what makes SIGTERM lossless — every admitted
// request is answered before the process exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.http.Shutdown(ctx)
	s.batcher.Close()
	if serveErr := <-s.served; serveErr != nil && err == nil {
		err = serveErr
	}
	return err
}

// handleInvoke is POST /v1/invoke.
func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	s.mInflight.Add(1)
	defer s.mInflight.Add(-1)

	if r.Method != http.MethodPost {
		s.writeError(w, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "use POST"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "read body: %v", err))
		return
	}

	req, envErr := ParseInvokeRequest(body)
	if envErr != nil {
		s.writeError(w, envErr)
		return
	}
	// Hot path: a request answered before replays its pre-encoded response.
	canon := req.canonical()
	if enc, ok := s.respCache.Load(canon); ok {
		s.mFast.Inc()
		s.mOK.Inc()
		wire.WriteJSON(w, http.StatusOK, enc)
		return
	}
	spec, envErr := s.resolve(req)
	if envErr != nil {
		s.writeError(w, envErr)
		return
	}

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		if timeout > maxRequestTimeout {
			timeout = maxRequestTimeout
		}
	}
	ctx, cancel := context.WithTimeoutCause(r.Context(), timeout,
		fmt.Errorf("request exceeded its %s deadline", timeout))
	defer cancel()

	key := spec.Key()
	cell, cached, batchSize, envErr := s.batcher.Submit(ctx, key, spec)
	if envErr != nil {
		s.writeError(w, envErr)
		return
	}

	resp := InvokeResponse{
		SchemaVersion: SchemaVersion,
		Function:      spec.Workload.Name,
		Config:        string(spec.Config),
		Mode:          req.Mode,
		CellKey:       key,
		Cached:        cached,
		BatchSize:     batchSize,
		Result:        ResultFrom(cell.Res),
	}
	if resp.Mode == "" {
		resp.Mode = "interleaved"
	}
	enc, err := json.Marshal(resp)
	if err != nil {
		s.writeError(w, wire.Errorf(SchemaVersion, wire.CodeInternal, "encode response: %v", err))
		return
	}
	s.mOK.Inc()
	wire.WriteJSON(w, http.StatusOK, json.RawMessage(enc))

	// Remember the warm variant for subsequent requests of the same form.
	warm := resp
	warm.Cached = true
	warm.BatchSize = 0
	if wenc, err := json.Marshal(warm); err == nil {
		s.respCache.Store(canon, json.RawMessage(wenc))
	}
}

// resolve maps a validated wire request onto a cell spec.
func (s *Server) resolve(req InvokeRequest) (experiments.CellSpec, *wire.Envelope) {
	var spec experiments.CellSpec
	wl, err := workload.ByName(req.Function)
	if err != nil {
		pop, ok := s.popByName[req.Function]
		if !ok {
			return spec, wire.Errorf(SchemaVersion, wire.CodeUnknownFunction, "%v", err)
		}
		wl = pop
	}
	if s.cfg.TargetInstr > 0 {
		wl.TargetInstr = s.cfg.TargetInstr
	}
	kind, envErr := ParseKind(req.Config)
	if envErr != nil {
		return spec, envErr
	}
	mode, envErr := ParseMode(req.Mode)
	if envErr != nil {
		return spec, envErr
	}
	tweaks, terr := req.Tweaks.ToSim()
	if terr != nil {
		return spec, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "%v", terr)
	}
	return experiments.CellSpec{Workload: wl, Config: kind, Tweaks: tweaks, Mode: mode}, nil
}

// handleCatalog is GET /v1/catalog.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, CatalogResponse{
		SchemaVersion: SchemaVersion,
		Functions:     append(workload.Names(), s.popNames...),
		Configs:       allKinds(),
		Modes:         []string{"interleaved", "back-to-back"},
	})
}

// handleMetrics is GET /metrics: the registry snapshot as a versioned
// document. Instruments are scrape-safe (see obs.Registry), so this reads a
// live registry while request workers update it.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	doc := MetricsDocument{
		SchemaVersion: SchemaVersion,
		Kind:          MetricsDocumentKind,
		UptimeSec:     time.Since(s.start).Seconds(),
		Samples:       make([]MetricSample, 0, len(snap)),
	}
	for _, smp := range snap {
		doc.Samples = append(doc.Samples, MetricSample{
			Key:   smp.Key(),
			Kind:  string(smp.Kind),
			Value: smp.Value,
			Count: smp.Count,
			Min:   smp.Min,
			Max:   smp.Max,
		})
	}
	wire.WriteJSON(w, http.StatusOK, doc)
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	cells, hits := s.batcher.cache.Stats()
	wire.WriteJSON(w, code, map[string]any{
		"status":    status,
		"uptimeSec": time.Since(s.start).Seconds(),
		"cells":     cells,
		"cellHits":  hits,
		"programs":  s.batcher.cache.Programs(),
	})
}

// writeError answers with env and counts it.
func (s *Server) writeError(w http.ResponseWriter, env *wire.Envelope) {
	if env.Code == wire.CodeOverloaded {
		s.mShed.Inc()
	}
	s.mErrors.Inc()
	wire.WriteError(w, env)
}
