// Package serve is the invocation-serving layer: a long-running HTTP/JSON
// daemon (cmd/ignite-serve) that accepts invocation requests for named
// functions, coalesces concurrent requests for the same simulation cell
// onto one flight (one engine run through the experiment layer's cell
// cache), and answers with per-invocation latency/CPI/traffic results.
//
// This file defines the versioned v1 wire API. Every request and response
// carries an explicit SchemaVersion; unknown versions are rejected with
// internal/wire's structured error envelope, the same posture
// obs.DecodeDocument takes for result documents. The server handlers,
// ignite-load, and the tests all share these types — there is no ad-hoc map
// shaping on either side of the wire.
package serve

import (
	"encoding/json"
	"fmt"

	"ignite/internal/ignite"
	"ignite/internal/lukewarm"
	"ignite/internal/sim"
	"ignite/internal/wire"
)

// SchemaVersion is the current version of the serving wire API. Bump it on
// any incompatible change to the request or response shapes; the server
// rejects requests carrying any other version.
const SchemaVersion = 1

// HTTP paths of the serving API.
const (
	PathInvoke  = "/v1/invoke"
	PathCatalog = "/v1/catalog"
	PathMetrics = "/metrics"
	PathHealthz = "/healthz"
)

// MetricsDocumentKind identifies the /metrics JSON document.
const MetricsDocumentKind = "ignite.serve-metrics"

// InvokeRequest asks the daemon to run (or serve from cache) the lukewarm
// protocol for one named function under one front-end configuration.
type InvokeRequest struct {
	// SchemaVersion must equal SchemaVersion (explicitly: a missing or
	// zero version is rejected, so old clients fail loudly).
	SchemaVersion int `json:"schemaVersion"`
	// Function is the Table-1 workload name, e.g. "Auth-G".
	Function string `json:"function"`
	// Config is the front-end configuration (default "ignite").
	Config string `json:"config,omitempty"`
	// Mode is "interleaved" (default) or "back-to-back".
	Mode string `json:"mode,omitempty"`
	// Tweaks optionally adjusts the configuration (sensitivity knobs).
	Tweaks *TweakSpec `json:"tweaks,omitempty"`
	// TimeoutMs overrides the server's per-request deadline (0 = server
	// default). A request that cannot be answered in time gets a
	// retryable "deadline" error envelope; the underlying simulation
	// still completes and warms the cache for the retry.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// respKey is the response cache's key: the parsed request without
// timeoutMs, which shapes the deadline but not the answer, and with its
// tweaks dereferenced, so requests that resolve to one answer compare equal.
// The mode keeps its spelling, which the response echoes.
type respKey struct {
	function, config, mode string
	tweaks                 TweakSpec
}

func (r InvokeRequest) canonical() respKey {
	k := respKey{function: r.Function, config: r.Config, mode: r.Mode}
	if r.Tweaks != nil {
		k.tweaks = *r.Tweaks
	}
	return k
}

// TweakSpec is the JSON mirror of sim.Tweaks with explicit field names.
type TweakSpec struct {
	KeepBTB           bool   `json:"keepBTB,omitempty"`
	KeepBIM           bool   `json:"keepBIM,omitempty"`
	KeepTAGE          bool   `json:"keepTAGE,omitempty"`
	BIMPolicy         string `json:"bimPolicy,omitempty"` // "none", "weakly-taken", "weakly-not-taken"
	DoubleBuffer      bool   `json:"doubleBuffer,omitempty"`
	ThrottleThreshold int    `json:"throttleThreshold,omitempty"`
	MetadataBytes     int    `json:"metadataBytes,omitempty"`
	BTBEntries        int    `json:"btbEntries,omitempty"`
	L2KiB             int    `json:"l2KiB,omitempty"`
}

// ToSim resolves the wire tweaks into sim.Tweaks and validates them
// (sim.Tweaks.Validate), so geometry the engine cannot build fails the
// request instead of the cell.
func (t *TweakSpec) ToSim() (sim.Tweaks, error) {
	var tw sim.Tweaks
	if t == nil {
		return tw, nil
	}
	tw.Keep = lukewarm.Preserve{BTB: t.KeepBTB, BIM: t.KeepBIM, TAGE: t.KeepTAGE}
	switch t.BIMPolicy {
	case "":
	case "none":
		p := ignite.BIMNone
		tw.BIMPolicy = &p
	case "weakly-taken":
		p := ignite.BIMWeaklyTaken
		tw.BIMPolicy = &p
	case "weakly-not-taken":
		p := ignite.BIMWeaklyNotTaken
		tw.BIMPolicy = &p
	default:
		return tw, fmt.Errorf("unknown bimPolicy %q (valid: none, weakly-taken, weakly-not-taken)", t.BIMPolicy)
	}
	tw.DoubleBuffer = t.DoubleBuffer
	tw.ThrottleThreshold = t.ThrottleThreshold
	tw.MetadataBytes = t.MetadataBytes
	tw.BTBEntries = t.BTBEntries
	tw.L2KiB = t.L2KiB
	return tw, tw.Validate()
}

// InvokeResponse answers one invocation request.
type InvokeResponse struct {
	SchemaVersion int    `json:"schemaVersion"`
	Function      string `json:"function"`
	Config        string `json:"config"`
	Mode          string `json:"mode"`
	// CellKey is the canonical cell-cache key the request resolved to —
	// two requests with the same key are guaranteed identical results.
	CellKey string `json:"cellKey"`
	// Cached is true when a cache answered (the warm response cache or the
	// cell cache), false when the request's flight ran the simulation.
	Cached bool `json:"cached"`
	// BatchSize is the number of concurrent requests coalesced onto this
	// cell's simulation (present only on freshly computed responses).
	BatchSize int `json:"batchSize,omitempty"`
	// Result carries the measured protocol outcome.
	Result InvocationResult `json:"result"`
}

// InvocationResult is the wire form of a lukewarm protocol result. Fields
// are float64/uint64 straight from the simulation; JSON round-trips them
// bit-exactly (encoding/json emits the shortest representation that parses
// back to the identical float), which is what the bit-identical serving
// tests pin.
type InvocationResult struct {
	Invocations int     `json:"invocations"`
	Instrs      uint64  `json:"instrs"`
	Cycles      float64 `json:"cycles"`
	CPI         float64 `json:"cpi"`

	Retiring float64 `json:"retiring"`
	Fetch    float64 `json:"fetch"`
	BadSpec  float64 `json:"badSpec"`
	Backend  float64 `json:"backend"`

	L1IMPKI     float64 `json:"l1iMPKI"`
	BTBMPKI     float64 `json:"btbMPKI"`
	CBPMPKI     float64 `json:"cbpMPKI"`
	BPUMPKI     float64 `json:"bpuMPKI"`
	OffChipMPKI float64 `json:"offChipMPKI"`

	Traffic TrafficResult `json:"traffic"`
}

// TrafficResult is the mean per-invocation DRAM bandwidth breakdown.
type TrafficResult struct {
	UsefulInstrBytes  uint64 `json:"usefulInstrBytes"`
	UselessInstrBytes uint64 `json:"uselessInstrBytes"`
	RecordMetaBytes   uint64 `json:"recordMetaBytes"`
	ReplayMetaBytes   uint64 `json:"replayMetaBytes"`
}

// ResultFrom flattens a lukewarm result into the wire form. The serving
// integration test runs the same cell through lukewarm.Run directly and
// asserts deep equality against the response's Result.
func ResultFrom(res *lukewarm.Result) InvocationResult {
	st := res.CPIStack()
	tr := res.MeanTraffic()
	return InvocationResult{
		Invocations: len(res.PerInvocation),
		Instrs:      res.Instrs(),
		Cycles:      res.Cycles(),
		CPI:         res.CPI(),
		Retiring:    st.Retiring,
		Fetch:       st.Fetch,
		BadSpec:     st.BadSpec,
		Backend:     st.Backend,
		L1IMPKI:     res.L1IMPKI(),
		BTBMPKI:     res.BTBMPKI(),
		CBPMPKI:     res.CBPMPKI(),
		BPUMPKI:     res.BPUMPKI(),
		OffChipMPKI: res.OffChipMPKI(),
		Traffic: TrafficResult{
			UsefulInstrBytes:  tr.UsefulInstrBytes,
			UselessInstrBytes: tr.UselessInstrBytes,
			RecordMetaBytes:   tr.RecordMetaBytes,
			ReplayMetaBytes:   tr.ReplayMetaBytes,
		},
	}
}

// ParseInvokeRequest decodes and validates a request body. Unknown fields,
// trailing data (wire.DecodeRequest) and unknown schema versions are
// rejected — the v1 API is strict in both directions, so a typo'd field
// name or a request written for a future schema fails loudly instead of
// silently simulating the wrong cell.
func ParseInvokeRequest(body []byte) (InvokeRequest, *wire.Envelope) {
	var req InvokeRequest
	if err := wire.DecodeRequest(body, &req); err != nil {
		return req, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "malformed request: %v", err)
	}
	if req.SchemaVersion != SchemaVersion {
		return req, wire.Errorf(SchemaVersion, wire.CodeUnsupportedSchema,
			"request schema version %d, this server speaks %d", req.SchemaVersion, SchemaVersion)
	}
	if req.Function == "" {
		return req, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "missing function name")
	}
	return req, nil
}

// allKinds lists every servable configuration name: the presentation-order
// kinds plus fdp+ignite, which sim defines but keeps out of Kinds().
func allKinds() []string {
	out := make([]string, 0, len(sim.Kinds())+1)
	for _, k := range sim.Kinds() {
		out = append(out, string(k))
	}
	return append(out, string(sim.KindFDPIgnite))
}

// ParseKind resolves the wire spelling of a front-end configuration. The
// empty string defaults to the paper's configuration, ignite.
func ParseKind(s string) (sim.Kind, *wire.Envelope) {
	if s == "" {
		return sim.KindIgnite, nil
	}
	for _, k := range allKinds() {
		if k == s {
			return sim.Kind(k), nil
		}
	}
	return "", wire.Errorf(SchemaVersion, wire.CodeUnknownConfig, "unknown config %q", s)
}

// ParseMode resolves the wire spelling of a lukewarm mode.
func ParseMode(s string) (lukewarm.Mode, *wire.Envelope) {
	switch s {
	case "", "interleaved":
		return lukewarm.Interleaved, nil
	case "back-to-back", "b2b":
		return lukewarm.BackToBack, nil
	default:
		return 0, wire.Errorf(SchemaVersion, wire.CodeUnknownMode, "unknown mode %q (valid: interleaved, back-to-back)", s)
	}
}

// CatalogResponse answers /v1/catalog: the names a client may put in an
// InvokeRequest. ignite-load resolves "-function all" through it.
type CatalogResponse struct {
	SchemaVersion int      `json:"schemaVersion"`
	Functions     []string `json:"functions"`
	Configs       []string `json:"configs"`
	Modes         []string `json:"modes"`
}

// MetricsDocument is the /metrics endpoint's JSON form: a versioned,
// deterministic snapshot of the server's registry.
type MetricsDocument struct {
	SchemaVersion int            `json:"schemaVersion"`
	Kind          string         `json:"kind"`
	UptimeSec     float64        `json:"uptimeSec"`
	Samples       []MetricSample `json:"samples"`
}

// MetricSample is one metric reading (mirrors obs.Sample, restated here so
// the wire shape is pinned by this package's schema version, not by
// internal refactors of obs).
type MetricSample struct {
	Key   string  `json:"key"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
	Count uint64  `json:"count,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// DecodeMetrics parses a /metrics document, rejecting unknown schema
// versions and kinds.
func DecodeMetrics(data []byte) (MetricsDocument, error) {
	var d MetricsDocument
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("serve: decode metrics document: %w", err)
	}
	if d.SchemaVersion != SchemaVersion {
		return d, fmt.Errorf("serve: metrics document schema version %d, this build reads %d",
			d.SchemaVersion, SchemaVersion)
	}
	if d.Kind != MetricsDocumentKind {
		return d, fmt.Errorf("serve: unexpected metrics document kind %q", d.Kind)
	}
	return d, nil
}

// Get returns the sample with the given key (zero Sample if absent).
func (d MetricsDocument) Get(key string) (MetricSample, bool) {
	for _, s := range d.Samples {
		if s.Key == key {
			return s, true
		}
	}
	return MetricSample{}, false
}

// Value returns the sample value for key (0 if absent).
func (d MetricsDocument) Value(key string) float64 {
	s, _ := d.Get(key)
	return s.Value
}
