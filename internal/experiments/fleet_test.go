package experiments

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ignite/internal/loadgen"
	"ignite/internal/obs"
)

// fleetQuickParams is a shrunk sweep for test speed.
func fleetQuickParams() FleetParams {
	return FleetParams{
		Seed:     7,
		N:        400,
		Duration: 10 * time.Second,
		Process:  loadgen.Poisson,
		Policies: []string{"lru", "topk"},
		Budgets:  []uint64{1 << 20, 4 << 20},
	}
}

func TestFleetExperimentsRegistered(t *testing.T) {
	has := map[ID]bool{}
	for _, id := range IDs() {
		has[id] = true
	}
	for _, id := range []ID{"fleet-pop", "fleet-frontier"} {
		if !has[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

// TestFleetFrontierValues checks the sweep exports one row per
// (policy, budget) point with sane speedups.
func TestFleetFrontierValues(t *testing.T) {
	p := fleetQuickParams()
	res, err := FleetFrontier(context.Background(), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(p.Policies) * len(p.Budgets)
	if len(res.Values) != wantRows {
		t.Fatalf("got %d value rows, want %d", len(res.Values), wantRows)
	}
	for row, cols := range res.Values {
		if cols["meanSpeedup"] < 1-1e-9 {
			t.Errorf("%s: mean speedup %.4f below the all-cold baseline", row, cols["meanSpeedup"])
		}
		if cols["p99Speedup"] <= 0 {
			t.Errorf("%s: non-positive p99 speedup", row)
		}
	}
}

// TestFleetPopulationValues checks the characterization exports per-flavor
// rows plus the All aggregate.
func TestFleetPopulationValues(t *testing.T) {
	p := fleetQuickParams()
	res, err := FleetPopulation(context.Background(), Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	all, ok := res.Values["All"]
	if !ok {
		t.Fatal("missing All row")
	}
	if all["count"] != float64(p.N) {
		t.Errorf("All count = %g, want %d", all["count"], p.N)
	}
	for _, flavor := range []string{"standard", "tiny", "huge", "chain"} {
		cols, ok := res.Values[flavor]
		if !ok {
			t.Errorf("missing %s row", flavor)
			continue
		}
		if cols["coldCPI"] <= cols["warmCPI"] {
			t.Errorf("%s: cold CPI %.3f not above warm %.3f", flavor, cols["coldCPI"], cols["warmCPI"])
		}
	}
}

// TestFleetFrontierParallelIndependence pins the determinism acceptance:
// the exported document is byte-identical regardless of the scheduler
// width in Options. fleet-frontier replays its points Options.Parallel
// goroutines wide, so this compares the serial path with the parallel one.
func TestFleetFrontierParallelIndependence(t *testing.T) {
	p := fleetQuickParams()
	encode := func(parallel int) []byte {
		t.Helper()
		opt := Options{Parallel: parallel}
		res, err := FleetFrontier(context.Background(), opt, p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.Document(obs.Manifest{}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := encode(1)
	if wide := encode(8); !bytes.Equal(ref, wide) {
		t.Fatal("fleet-frontier document differs between Parallel=1 and Parallel=8")
	}
}

// TestFleetFrontierCancellation checks ctx cancellation aborts the sweep.
func TestFleetFrontierCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FleetFrontier(ctx, Options{}, fleetQuickParams()); err == nil {
		t.Fatal("cancelled fleet-frontier returned no error")
	}
}
