package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzKey is the key FuzzGetRecord files its records under, and the key the
// records in testdata/fuzz/FuzzGetRecord name.
const fuzzKey = "2c3b1f0e4d5a69788796a5b4c3d2e1f00f1e2d3c4b5a69788796a5b4c3d2e1f0"

// FuzzGetRecord: arbitrary bytes filed as a key's record never make Get
// panic, and Get answers only with a *CorruptionError or with the payload
// of a record that names the key and whose CRC matches. Seeds live in
// testdata/fuzz/FuzzGetRecord.
func FuzzGetRecord(f *testing.F) {
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := st.RecordPath(fuzzKey)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, err := st.Get(fuzzKey)
		if err != nil {
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("Get failed with %T (%v), want *CorruptionError", err, err)
			}
			return
		}
		var rec record
		if json.Unmarshal(data, &rec) != nil || rec.Key != fuzzKey ||
			crc32.ChecksumIEEE(payload) != rec.CRC || !bytes.Equal(payload, rec.Cell) {
			t.Fatalf("Get served %q from a record that does not verify", payload)
		}
	})
}

// FuzzOpenManifest: arbitrary bytes as MANIFEST.json never make Open panic,
// and a manifest Open accepts decodes to records that hash to its Merkle
// root and seals exactly its distinct record hashes. Seeds live in
// testdata/fuzz/FuzzOpenManifest.
func FuzzOpenManifest(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.ManifestErr() != nil {
			return
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("Open accepted a manifest that does not decode: %v", err)
		}
		if got := merkleRoot(m.Records); got != m.Root {
			t.Fatalf("Open accepted root %q, records hash to %q", m.Root, got)
		}
		hashes := make(map[string]bool, len(m.Records))
		for _, r := range m.Records {
			hashes[r.Hash] = true
		}
		if sealed, n := st.Sealed(); !sealed || n != len(hashes) {
			t.Fatalf("Sealed() = %v, %d; want true, %d", sealed, n, len(hashes))
		}
	})
}
