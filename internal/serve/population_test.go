package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ignite/internal/fleet/population"
	"ignite/internal/lukewarm"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// TestServePopulation covers the -population catalog mode end to end: a
// server mounted with a sampled fleet population lists the sampled names in
// its catalog and serves /v1/invoke for them through the same cell path as
// the Table-1 functions.
func TestServePopulation(t *testing.T) {
	fns, err := population.Sample(population.Params{Seed: 42, N: 12})
	if err != nil {
		t.Fatal(err)
	}
	s := startTestServer(t, Config{Population: population.Specs(fns)})
	addr := s.Addr()

	// Catalog: Table 1 first, then every sampled name in mount order.
	resp, err := http.Get("http://" + addr + PathCatalog)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var cat CatalogResponse
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatalf("decode catalog: %v", err)
	}
	listed := make(map[string]bool, len(cat.Functions))
	for _, name := range cat.Functions {
		listed[name] = true
	}
	if !listed["Auth-G"] {
		t.Error("catalog lost the Table-1 functions")
	}
	for _, f := range fns {
		if !listed[f.Name] {
			t.Errorf("catalog missing sampled function %s", f.Name)
		}
	}

	// Invoke a sampled function under the ignite config; the response must
	// come from a real simulated cell.
	name := fns[0].Name
	body := fmt.Sprintf(`{"schemaVersion":1,"function":%q,"config":"ignite"}`, name)
	hresp, hdata := postInvoke(t, addr, body)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("invoke %s: status %d: %s", name, hresp.StatusCode, hdata)
	}
	var ir InvokeResponse
	if err := json.Unmarshal(hdata, &ir); err != nil {
		t.Fatalf("decode invoke: %v", err)
	}
	if ir.Function != name {
		t.Errorf("response function = %q, want %q", ir.Function, name)
	}
	if ir.Result.CPI <= 0 || ir.Result.Instrs == 0 {
		t.Errorf("degenerate result for %s: %+v", name, ir.Result)
	}

	// A name outside both catalogs still 404s.
	eresp, edata := postInvoke(t, addr,
		`{"schemaVersion":1,"function":"Zzz9999-G","config":"ignite"}`)
	if eresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown function: status %d: %s", eresp.StatusCode, edata)
	}
}

// TestServerReleasesIdlePrograms pins the daemon's memory bound: it holds a
// function's program only while a batch of that function is in flight. Six
// sampled functions are served one after another, then one of them gets
// three rounds of two concurrent configs, each round a fresh pair of cells
// that rebuilds the released program. Every served result must equal a
// direct simulation, and afterwards /healthz must report no programs and
// one cell per distinct request.
func TestServerReleasesIdlePrograms(t *testing.T) {
	fns, err := population.Sample(population.Params{Seed: 42, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	s := startTestServer(t, Config{Population: population.Specs(fns)})
	addr := s.Addr()

	// invoke serves one cell and returns an error unless the result equals
	// a direct sim.New/Run of the same cell.
	invoke := func(spec workload.Spec, kind sim.Kind) error {
		body := fmt.Sprintf(`{"schemaVersion":1,"function":%q,"config":%q}`, spec.Name, kind)
		resp, err := http.Post("http://"+addr+PathInvoke, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s/%s: status %d: %s (%v)", spec.Name, kind, resp.StatusCode, data, err)
		}
		var ir InvokeResponse
		if err := json.Unmarshal(data, &ir); err != nil {
			return err
		}
		spec.TargetInstr = testInstr
		setup, err := sim.New(spec, kind)
		if err != nil {
			return err
		}
		res, err := setup.Run(lukewarm.Interleaved)
		if err != nil {
			return err
		}
		if direct := ResultFrom(res); !reflect.DeepEqual(direct, ir.Result) {
			return fmt.Errorf("%s/%s: served result differs from direct run:\nserved %+v\ndirect %+v",
				spec.Name, kind, ir.Result, direct)
		}
		return nil
	}

	for _, f := range fns {
		if err := invoke(f.Spec, sim.KindIgnite); err != nil {
			t.Fatal(err)
		}
	}
	rounds := [][2]sim.Kind{
		{sim.KindNL, sim.KindFDP},
		{sim.KindBoomerang, sim.KindJukebox},
		{sim.KindConfluence, sim.KindIgniteTAGE},
	}
	for _, pair := range rounds {
		var wg sync.WaitGroup
		errs := make([]error, len(pair))
		for i, kind := range pair {
			wg.Add(1)
			go func(i int, kind sim.Kind) {
				defer wg.Done()
				errs[i] = invoke(fns[0].Spec, kind)
			}(i, kind)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	resp, err := http.Get("http://" + addr + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Cells    int  `json:"cells"`
		Programs *int `json:"programs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Programs == nil {
		t.Fatal("healthz does not report programs")
	}
	if want := len(fns) + 2*len(rounds); *health.Programs != 0 || health.Cells != want {
		t.Errorf("healthz: %d program(s) and %d cell(s) held, want 0 and %d", *health.Programs, health.Cells, want)
	}
}
