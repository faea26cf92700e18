package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func put(t *testing.T, s *Store, key, payload string) {
	t.Helper()
	if err := s.Put(key, []byte(payload)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "wl|kind=ignite|mode=0|tweaks"
	put(t, s, key, `{"cpi":1.5}`)
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"cpi":1.5}` {
		t.Fatalf("Get = %s", got)
	}
	if _, err := s.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	// Idempotent re-put, then a replacing put.
	put(t, s, key, `{"cpi":1.5}`)
	put(t, s, key, `{"cpi":2.5}`)
	if got, _ := s.Get(key); string(got) != `{"cpi":2.5}` {
		t.Fatalf("after re-put Get = %s", got)
	}
	if err := s.Put(key, []byte("not json")); err == nil {
		t.Fatal("Put accepted invalid JSON")
	}
	// A payload is stored in the form encoding/json writes it, compacted
	// and HTML-escaped, and its CRC covers that form.
	for payload, want := range map[string]string{
		`{"a": 1}`:    `{"a":1}`,
		`{"s":"<b>"}`: `{"s":"\u003cb\u003e"}`,
	} {
		put(t, s, key, payload)
		if got, err := s.Get(key); err != nil || string(got) != want {
			t.Errorf("Put(%s) then Get = %s, %v; want %s", payload, got, err, want)
		}
	}
}

// TestStoreSurvivesReopen proves persistence across Open calls — the whole
// point of the store versus the in-process cell cache.
func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir)
	put(t, s1, "k", `{"v":1}`)
	if _, _, err := s1.Seal(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sealed, n := s2.Sealed(); !sealed || n != 1 {
		t.Fatalf("Sealed() = %v, %d; want true, 1", sealed, n)
	}
	got, err := s2.Get("k")
	if err != nil || string(got) != `{"v":1}` {
		t.Fatalf("Get after reopen = %s, %v", got, err)
	}
}

// flipBit flips one bit somewhere inside the file's JSON string content,
// avoiding structural characters so the mutation models silent media
// corruption rather than a truncation (which is separately detected).
func flipBit(t *testing.T, path string, needle string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(data), needle)
	if i < 0 {
		t.Fatalf("needle %q not found in %s", needle, path)
	}
	data[i+len(needle)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecordCorruptionDetected flips one bit in a stored record: Get must
// fail with *CorruptionError — never serve the damaged payload — while
// sibling records keep serving.
func TestRecordCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	put(t, s, "good", `{"v":"intact-payload"}`)
	put(t, s, "bad", `{"v":"doomed-payload"}`)

	flipBit(t, s.recordPath(KeyHash("bad")), "doomed-payload")

	var ce *CorruptionError
	if _, err := s.Get("bad"); !errors.As(err, &ce) {
		t.Fatalf("Get(bad) = %v, want *CorruptionError", err)
	}
	if got, err := s.Get("good"); err != nil || string(got) != `{"v":"intact-payload"}` {
		t.Fatalf("sibling record damaged by detection: %s, %v", got, err)
	}

	// Recompute path: Put replaces the damaged record in place.
	put(t, s, "bad", `{"v":"doomed-payload"}`)
	if got, err := s.Get("bad"); err != nil || string(got) != `{"v":"doomed-payload"}` {
		t.Fatalf("repaired record: %s, %v", got, err)
	}
}

// TestManifestLeafPinsRecord rewrites a record wholesale (self-consistent
// CRC) after sealing: the manifest leaf must still catch it.
func TestManifestLeafPinsRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	put(t, s, "k", `{"v":1}`)
	if _, _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// A wholesale rewrite through Put produces a record whose self-CRC is
	// valid — only the sealed manifest can tell it changed.
	put(t, s, "k", `{"v":"tampered"}`)

	s2, _ := Open(dir)
	var ce *CorruptionError
	if _, err := s2.Get("k"); !errors.As(err, &ce) {
		t.Fatalf("tampered-but-self-consistent record served: %v", err)
	}
	if !strings.Contains(ce.Reason, "manifest leaf") {
		t.Fatalf("wrong detection path: %v", ce)
	}
}

// TestManifestCorruptionDetected flips one bit in MANIFEST.json: the store
// must refuse to serve anything (integrity unknown) until resealed.
func TestManifestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	put(t, s, "a", `{"v":1}`)
	put(t, s, "b", `{"v":2}`)
	if _, _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	flipBit(t, filepath.Join(dir, manifestName), KeyHash("a"))

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ManifestErr() == nil {
		t.Fatal("corrupt manifest not detected at open")
	}
	var ce *CorruptionError
	if _, err := s2.Get("a"); !errors.As(err, &ce) {
		t.Fatalf("Get under corrupt manifest = %v, want *CorruptionError", err)
	}
	if _, err := s2.Get("b"); !errors.As(err, &ce) {
		t.Fatalf("Get(b) under corrupt manifest = %v, want *CorruptionError", err)
	}

	// Reseal supersedes the damaged manifest and restores service.
	if _, n, err := s2.Seal(); err != nil || n != 2 {
		t.Fatalf("reseal: n=%d err=%v", n, err)
	}
	if s2.ManifestErr() != nil {
		t.Fatal("reseal did not clear the manifest error")
	}
	if got, err := s2.Get("a"); err != nil || string(got) != `{"v":1}` {
		t.Fatalf("Get after reseal = %s, %v", got, err)
	}
}

// TestMerkleRootProperties pins the root's algebra: order-independence,
// sensitivity to every leaf, and the empty/singleton edges.
func TestMerkleRootProperties(t *testing.T) {
	if merkleRoot(nil) != "" {
		t.Error("empty set should have the empty root")
	}
	a := ManifestRecord{Hash: KeyHash("a"), CRC: 1}
	b := ManifestRecord{Hash: KeyHash("b"), CRC: 2}
	c := ManifestRecord{Hash: KeyHash("c"), CRC: 3}
	if merkleRoot([]ManifestRecord{a, b, c}) != merkleRoot([]ManifestRecord{c, a, b}) {
		t.Error("root depends on insertion order")
	}
	r1 := merkleRoot([]ManifestRecord{a, b, c})
	b.CRC++
	if merkleRoot([]ManifestRecord{a, b, c}) == r1 {
		t.Error("root insensitive to a leaf CRC change")
	}
	if merkleRoot([]ManifestRecord{a}) == "" || merkleRoot([]ManifestRecord{a}) == r1 {
		t.Error("singleton root degenerate")
	}
	// Odd/even widths must both be well-defined and distinct.
	var many []ManifestRecord
	for i := 0; i < 5; i++ {
		many = append(many, ManifestRecord{Hash: KeyHash(fmt.Sprintf("k%d", i)), CRC: uint32(i)})
	}
	if merkleRoot(many) == merkleRoot(many[:4]) {
		t.Error("5-leaf root equals 4-leaf root")
	}
}

// TestSealSkipsUnverifiableRecords: a damaged record is excluded from the
// sealed set but remains detected (by self-CRC) on Get.
func TestSealSkipsUnverifiableRecords(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	put(t, s, "ok", `{"v":"fine-here"}`)
	put(t, s, "bad", `{"v":"broken-rec"}`)
	flipBit(t, s.recordPath(KeyHash("bad")), "broken-rec")
	if _, n, err := s.Seal(); err != nil || n != 1 {
		t.Fatalf("Seal: n=%d err=%v, want 1 sealed record", n, err)
	}
	var ce *CorruptionError
	if _, err := s.Get("bad"); !errors.As(err, &ce) {
		t.Fatalf("damaged record served after seal: %v", err)
	}
}
