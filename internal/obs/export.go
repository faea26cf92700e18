package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// SchemaVersion is the current version of the exported result document.
// Bump it on any incompatible change to Document's shape; DecodeDocument
// rejects documents written by a different version, which is what golden
// tests key off to detect accidental schema drift.
const SchemaVersion = 1

// DocumentKind identifies exported result documents.
const DocumentKind = "ignite.experiment-result"

// Document is the versioned machine-readable form of one experiment result:
// the figure/table values, the run manifest (what was simulated, how), and
// the per-cell metric snapshots the analysis scripts mine.
type Document struct {
	SchemaVersion int    `json:"schemaVersion"`
	Kind          string `json:"kind"`
	ID            string `json:"id"`
	Title         string `json:"title"`

	// Values holds the figure's numbers keyed by row then column,
	// exactly what Result.Get serves programmatically.
	Values map[string]map[string]float64 `json:"values"`

	// Tables carries the rendered presentation tables (machine-readable
	// rows, not preformatted text).
	Tables []TableDoc `json:"tables,omitempty"`

	// Cells holds one metric snapshot per simulated (workload, config)
	// cell contributing to this result.
	Cells []CellMetrics `json:"cells,omitempty"`

	Manifest Manifest `json:"manifest"`
}

// TableDoc is a machine-readable table: title, column header, string rows.
type TableDoc struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// CellMetrics is one cell's flattened metric snapshot plus its scheduler
// fate. Status is empty for cells that simulated cleanly on the first
// attempt (readers treat empty as "ok"); the fault-tolerance fields are
// populated only on degraded runs so healthy documents keep their exact
// pre-existing byte shape.
type CellMetrics struct {
	Workload string             `json:"workload"`
	Config   string             `json:"config"`
	Metrics  map[string]float64 `json:"metrics"`
	// Status is "" (ok), "retried", "failed" or "skipped".
	Status string `json:"status,omitempty"`
	// Attempts counts simulation attempts when more than one was made.
	Attempts int `json:"attempts,omitempty"`
	// Error carries the final error of a failed cell.
	Error string `json:"error,omitempty"`
}

// Manifest records how the run was produced: enough to re-simulate it
// bit-identically (the engine seeds every RNG from the workload spec).
type Manifest struct {
	// Generated is an RFC3339 timestamp; empty in golden fixtures so the
	// document stays byte-deterministic.
	Generated string `json:"generated,omitempty"`
	GoVersion string `json:"goVersion,omitempty"`
	// Parallel is the cell-scheduler width the run used (0 = NumCPU).
	// Results are bit-identical across widths; it is recorded for
	// wall-clock reproducibility.
	Parallel  int                `json:"parallel"`
	Workloads []WorkloadManifest `json:"workloads"`
	// CacheCells/CacheHits describe the shared cell cache at export time.
	CacheCells int `json:"cacheCells,omitempty"`
	CacheHits  int `json:"cacheHits,omitempty"`
	// FailurePolicy names the scheduler's failure policy when it differs
	// from the default (fail-fast); Errors joins the per-cell failures of
	// a degraded continue-on-error run. Both stay empty on healthy runs.
	FailurePolicy string   `json:"failurePolicy,omitempty"`
	Errors        []string `json:"errors,omitempty"`
}

// WorkloadManifest pins one workload of the run: its name, generator seed
// and instruction budget determine the simulation bit-exactly.
type WorkloadManifest struct {
	Name        string `json:"name"`
	Seed        uint64 `json:"seed"`
	TargetInstr uint64 `json:"targetInstr"`
}

// Encode renders the document as indented JSON with a trailing newline.
// Map keys are sorted by encoding/json, so equal documents encode to equal
// bytes — the property the golden-file test relies on.
func (d Document) Encode() ([]byte, error) {
	if d.SchemaVersion == 0 {
		d.SchemaVersion = SchemaVersion
	}
	if d.Kind == "" {
		d.Kind = DocumentKind
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeDocument parses an exported document, rejecting unknown schema
// versions and kinds so consumers fail loudly instead of misreading a
// document written by a different tool generation.
func DecodeDocument(data []byte) (Document, error) {
	var d Document
	if err := json.Unmarshal(data, &d); err != nil {
		return Document{}, fmt.Errorf("obs: decode result document: %w", err)
	}
	if d.SchemaVersion != SchemaVersion {
		return Document{}, fmt.Errorf("obs: result document schema version %d, this build reads %d",
			d.SchemaVersion, SchemaVersion)
	}
	if d.Kind != DocumentKind {
		return Document{}, fmt.Errorf("obs: unexpected document kind %q", d.Kind)
	}
	return d, nil
}

// WriteFile encodes the document into dir/<name>.json, creating dir as
// needed, and returns the written path. The write is atomic: a crash mid-way
// leaves either the previous document or the new one, never a torn file.
func (d Document) WriteFile(dir, name string) (string, error) {
	data, err := d.Encode()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	if err := WriteFileAtomic(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// WriteFileAtomic writes data to path through a temp file in the same
// directory: write, fsync, rename over the destination, then fsync the
// directory so the rename itself survives a power loss. Readers never
// observe a partially written file, and a crash leaves the old content
// intact. The temp file is removed on any failure.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
