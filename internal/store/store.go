// Package store is the on-disk content-addressed result store behind warm
// reproduction sweeps: one fsync'd, CRC-guarded JSON record per simulation
// cell, addressed by the SHA-256 of the cell's cache key, plus a Merkle
// manifest over the record CRCs so a result set restored from disk — or
// fetched from a remote worker that shares the directory — is corruption-
// evident end to end, not merely trusted.
//
// Integrity posture, strongest first:
//
//   - every record carries its payload in a wire.Frame, under the IEEE
//     CRC-32 of the payload's bytes; a bit-flipped or torn record fails
//     Get with a *CorruptionError instead of being served;
//   - a sealed store additionally has MANIFEST.json: the (hash, CRC) pairs
//     of every record under a Merkle root. Open recomputes the root; any
//     bit flip in the manifest — a leaf, the root, the structure — marks
//     the whole store corrupt, and Get refuses to serve anything until the
//     store is resealed (a wholesale-rewritten record, whose self-CRC is
//     consistent by construction, is still caught by its manifest leaf);
//   - records written after the last Seal are served on their self-CRC
//     alone, so concurrent workers can keep appending to a sealed store,
//     and rerunning an interrupted sweep over its never-sealed store
//     resumes it; the next Seal folds them in.
//
// Corruption is always a recoverable miss for exactly the damaged cell:
// callers count the detection and recompute, and Put replaces the bad
// record in place.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ignite/internal/obs"
	"ignite/internal/wire"
)

// Format constants. Records and the manifest are versioned the same way
// result documents are: unknown kinds or schema versions fail loudly.
const (
	recordKind    = "ignite.cell-record"
	manifestKind  = "ignite.store-manifest"
	schemaVersion = 1

	objectsDir   = "objects"
	manifestName = "MANIFEST.json"
)

// ErrNotFound reports a Get for a key with no stored record.
var ErrNotFound = errors.New("store: record not found")

// CorruptionError reports a record or manifest that failed integrity
// verification. It is deliberately loud — callers treat it as a miss and
// recompute, but never serve the damaged bytes.
type CorruptionError struct {
	Path   string // file that failed verification
	Reason string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("store: %s: %s", e.Path, e.Reason)
}

// record is the on-disk form of one stored cell result: the payload's
// frame (its CRC and cell) after the key. Key is stored verbatim so a
// (vanishingly unlikely) hash collision or a misfiled record is detected by
// equality, not trusted by address.
type record struct {
	Kind          string `json:"kind"`
	SchemaVersion int    `json:"schemaVersion"`
	Key           string `json:"key"`
	wire.Frame
}

// ManifestRecord is one manifest leaf: a record's content address and its
// payload CRC.
type ManifestRecord struct {
	Hash string `json:"hash"`
	CRC  uint32 `json:"crc"`
}

// manifest is MANIFEST.json: every sealed record under a Merkle root.
type manifest struct {
	Kind          string           `json:"kind"`
	SchemaVersion int              `json:"schemaVersion"`
	Root          string           `json:"root"`
	Records       []ManifestRecord `json:"records"`
}

// Store is an open content-addressed result store rooted at a directory.
// Safe for concurrent use within a process; cross-process safety comes
// from atomic (write-temp, fsync, rename) record writes and idempotent
// content — two workers racing to Put the same key write identical bytes.
type Store struct {
	dir string

	mu sync.Mutex
	// leaves is the verified manifest index (nil when the store has never
	// been sealed). A valid leaf pins the record's expected CRC.
	leaves map[string]uint32
	// sealErr is non-nil when MANIFEST.json exists but failed
	// verification: the store serves nothing until resealed.
	sealErr *CorruptionError
}

// Open opens (creating if needed) the store rooted at dir and verifies the
// manifest if one exists. A corrupt manifest does not fail Open — the
// condition is per-read recoverable — but every Get reports it until Seal
// rewrites the manifest; ManifestErr exposes it for CLIs to surface.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, objectsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir}
	s.loadManifest()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ManifestErr reports the manifest's verification failure, if any. A nil
// return means the manifest is absent or valid.
func (s *Store) ManifestErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealErr != nil {
		return s.sealErr
	}
	return nil
}

// Sealed reports whether a verified manifest is loaded and how many
// records it covers.
func (s *Store) Sealed() (bool, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaves != nil, len(s.leaves)
}

// KeyHash returns the content address of a cell key: the hex SHA-256 the
// key's record is filed under.
func KeyHash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// recordPath shards records into 256 subdirectories by hash prefix so a
// full-reproduction store does not pile thousands of files into one dir.
func (s *Store) recordPath(hash string) string {
	return filepath.Join(s.dir, objectsDir, hash[:2], hash+".json")
}

// RecordPath returns the on-disk path a cell key's record is filed under
// (whether or not the record exists) — the key→path mapping tooling and
// corruption tests need.
func (s *Store) RecordPath(key string) string { return s.recordPath(KeyHash(key)) }

// ManifestPath returns the path of the store's Merkle manifest.
func (s *Store) ManifestPath() string { return filepath.Join(s.dir, manifestName) }

// Get returns the stored payload for key. ErrNotFound means no record;
// *CorruptionError means a record (or the manifest) exists but failed
// integrity verification — the caller must recompute, never trust.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.Lock()
	sealErr := s.sealErr
	var leafCRC uint32
	var sealed bool
	if s.leaves != nil {
		leafCRC, sealed = s.leaves[KeyHash(key)]
	}
	s.mu.Unlock()
	if sealErr != nil {
		// Manifest corrupt: integrity of the whole set is unknown, so
		// nothing is served — detected, recomputed, never silent.
		return nil, sealErr
	}
	path := s.recordPath(KeyHash(key))
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("store: get: %w", err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, &CorruptionError{Path: path, Reason: fmt.Sprintf("unparseable record: %v", err)}
	}
	if rec.Kind != recordKind || rec.SchemaVersion != schemaVersion {
		return nil, &CorruptionError{Path: path,
			Reason: fmt.Sprintf("record is %q v%d, want %q v%d", rec.Kind, rec.SchemaVersion, recordKind, schemaVersion)}
	}
	if rec.Key != key {
		return nil, &CorruptionError{Path: path, Reason: "record key does not match its content address"}
	}
	if !rec.Valid() {
		return nil, &CorruptionError{Path: path, Reason: "payload CRC mismatch"}
	}
	if sealed && leafCRC != rec.CRC {
		return nil, &CorruptionError{Path: path, Reason: "record CRC does not match its manifest leaf"}
	}
	return rec.Cell, nil
}

// Put stores payload, which must be one JSON value, under key, fsynced and
// atomic (write-temp, sync, rename). The record holds the payload in the
// compact form encoding/json writes (see wire.NewFrame), which is what Get
// returns. Re-putting an identical record is a cheap no-op; a differing or
// damaged existing record is replaced. Put never touches the manifest —
// new records ride on their self-CRC until the next Seal.
func (s *Store) Put(key string, payload []byte) error {
	frame, err := wire.NewFrame(payload)
	if err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	path := s.recordPath(KeyHash(key))
	if old, err := os.ReadFile(path); err == nil {
		var rec record
		if json.Unmarshal(old, &rec) == nil && rec.Key == key && rec.CRC == frame.CRC && rec.Valid() {
			return nil
		}
	}
	data, err := json.Marshal(record{
		Kind:          recordKind,
		SchemaVersion: schemaVersion,
		Key:           key,
		Frame:         frame,
	})
	if err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if err := obs.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	return nil
}

// Seal scans every record on disk, drops unverifiable ones from coverage
// (their self-CRC already damns them on Get), and atomically rewrites
// MANIFEST.json with a fresh Merkle root. It returns the root and the
// number of records sealed. Sealing also clears a previously detected
// manifest corruption — the new manifest supersedes the damaged one.
func (s *Store) Seal() (root string, n int, err error) {
	entries, err := s.scan()
	if err != nil {
		return "", 0, err
	}
	root = merkleRoot(entries)
	data, err := json.MarshalIndent(manifest{
		Kind:          manifestKind,
		SchemaVersion: schemaVersion,
		Root:          root,
		Records:       entries,
	}, "", "  ")
	if err != nil {
		return "", 0, fmt.Errorf("store: seal: %w", err)
	}
	if err := obs.WriteFileAtomic(filepath.Join(s.dir, manifestName), append(data, '\n'), 0o644); err != nil {
		return "", 0, fmt.Errorf("store: seal: %w", err)
	}
	leaves := make(map[string]uint32, len(entries))
	for _, e := range entries {
		leaves[e.Hash] = e.CRC
	}
	s.mu.Lock()
	s.leaves = leaves
	s.sealErr = nil
	s.mu.Unlock()
	return root, len(entries), nil
}

// scan walks the objects tree and returns a manifest entry per record that
// passes self-verification, sorted by hash.
func (s *Store) scan() ([]ManifestRecord, error) {
	var entries []ManifestRecord
	base := filepath.Join(s.dir, objectsDir)
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec record
		if json.Unmarshal(data, &rec) != nil ||
			rec.Kind != recordKind || rec.SchemaVersion != schemaVersion ||
			!rec.Valid() ||
			KeyHash(rec.Key)+".json" != filepath.Base(path) {
			return nil // unverifiable: excluded from the sealed set
		}
		entries = append(entries, ManifestRecord{Hash: KeyHash(rec.Key), CRC: rec.CRC})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan: %w", err)
	}
	// WalkDir visits lexically, and hashes name the files, so entries are
	// already sorted by hash; keep the invariant explicit for merkleRoot.
	return entries, nil
}

// loadManifest reads and verifies MANIFEST.json, populating the leaf index
// or recording the corruption.
func (s *Store) loadManifest() {
	path := filepath.Join(s.dir, manifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return // never sealed: records serve on self-CRC
	}
	if err != nil {
		s.sealErr = &CorruptionError{Path: path, Reason: err.Error()}
		return
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		s.sealErr = &CorruptionError{Path: path, Reason: fmt.Sprintf("unparseable manifest: %v", err)}
		return
	}
	if m.Kind != manifestKind || m.SchemaVersion != schemaVersion {
		s.sealErr = &CorruptionError{Path: path,
			Reason: fmt.Sprintf("manifest is %q v%d, want %q v%d", m.Kind, m.SchemaVersion, manifestKind, schemaVersion)}
		return
	}
	if got := merkleRoot(m.Records); got != m.Root {
		s.sealErr = &CorruptionError{Path: path,
			Reason: fmt.Sprintf("Merkle root mismatch: manifest says %.16s…, records hash to %.16s…", m.Root, got)}
		return
	}
	leaves := make(map[string]uint32, len(m.Records))
	for _, e := range m.Records {
		leaves[e.Hash] = e.CRC
	}
	s.leaves = leaves
}
