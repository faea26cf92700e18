package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ignite/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenFig1Document runs fig1 on the quick workload set and encodes it with
// every environment-dependent manifest field cleared, so the bytes depend
// only on the simulation (which the determinism tests pin bit-exactly) and
// on the document schema itself.
func goldenFig1Document(t *testing.T) []byte {
	t.Helper()
	opt := quickOpts(t)
	opt.Parallel = 1 // recorded in the manifest; fix it so the bytes are stable
	res, err := Run(context.Background(), "fig1", opt)
	if err != nil {
		t.Fatal(err)
	}
	man := opt.Manifest()
	man.GoVersion = "" // toolchain-dependent; omitted from the fixture
	data, err := res.Document(man).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenFig1Document locks the exported JSON document byte-for-byte.
// A diff here means either the simulation changed (rerun with -update after
// checking the determinism tests) or the document schema changed shape — in
// which case obs.SchemaVersion must be bumped alongside regenerating the
// fixture.
func TestGoldenFig1Document(t *testing.T) {
	path := filepath.Join("testdata", "fig1.golden.json")
	got := goldenFig1Document(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("document differs from %s at line %d:\n got: %s\nwant: %s\n(rerun with -update if the change is intentional)",
					path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("document differs from %s in length: got %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}

// TestGoldenSchemaVersion asserts the committed fixture carries the schema
// version this build writes, so bumping obs.SchemaVersion without
// regenerating the golden file fails with a direct message rather than a
// byte diff.
func TestGoldenSchemaVersion(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fig1.golden.json"))
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var probe struct {
		SchemaVersion int `json:"schemaVersion"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.SchemaVersion != obs.SchemaVersion {
		t.Fatalf("golden fixture has schemaVersion %d but this build writes %d: regenerate with -update",
			probe.SchemaVersion, obs.SchemaVersion)
	}
}

// TestDocumentRoundTrip decodes the exported document and re-encodes it,
// asserting the bytes survive unchanged — no field is dropped, renamed, or
// reordered by the decode path.
func TestDocumentRoundTrip(t *testing.T) {
	data := goldenFig1Document(t)
	doc, err := obs.DecodeDocument(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("document does not round-trip byte-identically through DecodeDocument + Encode")
	}
	if doc.ID != "fig1" || len(doc.Cells) == 0 || len(doc.Values) == 0 {
		t.Fatalf("round-tripped document lost content: id=%q cells=%d values=%d",
			doc.ID, len(doc.Cells), len(doc.Values))
	}
}

// TestAllExperimentsExportDocuments runs every registered experiment on the
// quick workload set through one shared cell cache and round-trips each
// result through the exported file format — the programmatic version of
// `ignite-bench -exp all -out dir/`.
func TestAllExperimentsExportDocuments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	opt := quickOpts(t)
	opt.Cache = NewCellCache()
	results, err := RunAll(context.Background(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("RunAll returned %d results, want %d", len(results), len(IDs()))
	}
	dir := t.TempDir()
	man := opt.Manifest()
	for _, res := range results {
		if res.ID == "" {
			t.Fatalf("experiment %q has an empty ID", res.Title)
		}
		path, err := res.Document(man).WriteFile(dir, string(res.ID))
		if err != nil {
			t.Fatalf("%s: %v", res.ID, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", res.ID, err)
		}
		doc, err := obs.DecodeDocument(data)
		if err != nil {
			t.Fatalf("%s: %v", res.ID, err)
		}
		if doc.ID != string(res.ID) || doc.SchemaVersion != obs.SchemaVersion {
			t.Fatalf("%s: document id=%q schema=%d", res.ID, doc.ID, doc.SchemaVersion)
		}
		// tab2 is a pure configuration listing; everything else carries
		// figure values.
		if len(doc.Values) == 0 && len(doc.Tables) == 0 {
			t.Errorf("%s: document has neither values nor tables", res.ID)
		}
	}
}

// TestDecodeRejectsForeignDocuments asserts DecodeDocument fails loudly on
// documents written by a different schema generation or of a different kind.
func TestDecodeRejectsForeignDocuments(t *testing.T) {
	data := goldenFig1Document(t)

	bumped := bytes.Replace(data,
		[]byte(`"schemaVersion": 1`), []byte(`"schemaVersion": 999`), 1)
	if bytes.Equal(bumped, data) {
		t.Fatal("fixture did not contain the schemaVersion field to mutate")
	}
	if _, err := obs.DecodeDocument(bumped); err == nil {
		t.Error("DecodeDocument accepted schema version 999")
	} else if !strings.Contains(err.Error(), "schema version") {
		t.Errorf("unhelpful schema-version error: %v", err)
	}

	alien := bytes.Replace(data,
		[]byte(obs.DocumentKind), []byte("some.other-document"), 1)
	if _, err := obs.DecodeDocument(alien); err == nil {
		t.Error("DecodeDocument accepted a foreign document kind")
	}
}
