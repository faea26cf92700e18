package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"

	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// CellSpec identifies one simulation cell — the unit the experiment matrix
// schedules, the store persists, the dist wire ships and the serving daemon
// coalesces concurrent invocation requests onto. A cell served over HTTP is
// the same cell, under the same key, that the batch pipeline computes:
// results are bit-identical between the two paths by construction.
type CellSpec struct {
	// Workload is the full function specification. Servers that override
	// the instruction budget (CI smokes, tests) adjust TargetInstr here;
	// the budget is part of the cache key.
	Workload workload.Spec
	// Config is the front-end configuration kind (sim.KindIgnite, ...).
	Config sim.Kind
	// Tweaks adjusts the configuration (sensitivity-study knobs).
	Tweaks sim.Tweaks
	// Mode selects back-to-back or interleaved execution.
	Mode lukewarm.Mode
}

// keyVersion versions every key canonicalKey derives. Bump it when a cell's
// result changes for an unchanged CellSpec, so records stored by older
// builds miss instead of serving stale cells.
const keyVersion = 2

// canonicalKey returns the hex SHA-256 of v's canonical encoding, prefixed
// with keyVersion. The encoding walks v by reflection in field declaration
// order and writes every field's name and value — strings quoted, numbers
// as numbers (never through a String method, which may not be one-to-one),
// floats in their shortest exact form, a nil pointer distinct from a set
// one — so every field reachable from v is keyed without a hand-kept field
// list. It keeps no per-type state: encoding/json would hold about 18 KB of
// encoder caches for the life of a serving daemon. A kind it cannot encode
// (a slice, a map) panics: only a new field type the walk was not taught can
// reach it, and TestCellKeyCoversEveryField fails first.
func canonicalKey(v any) string {
	sum := canonicalSum(v)
	return hex.EncodeToString(sum[:])
}

// canonicalSum is canonicalKey before the hex encoding: the raw 32 bytes,
// for a key that is held, not shown.
func canonicalSum(v any) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "v%d;", keyVersion)
	writeCanonical(h, reflect.ValueOf(v))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func writeCanonical(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := 0; i < v.NumField(); i++ {
			io.WriteString(w, v.Type().Field(i).Name+":")
			writeCanonical(w, v.Field(i))
		}
		io.WriteString(w, "}")
	case reflect.Pointer:
		if v.IsNil() {
			io.WriteString(w, "nil;")
			return
		}
		io.WriteString(w, "&")
		writeCanonical(w, v.Elem())
	case reflect.String:
		fmt.Fprintf(w, "%q;", v.String())
	case reflect.Bool:
		fmt.Fprintf(w, "%t;", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%d;", v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%g;", v.Float())
	default:
		panic(fmt.Sprintf("experiments: canonicalKey cannot encode a %s", v.Type()))
	}
}

// Key returns the cell's canonical cache key: everything that determines
// its outcome, nothing that doesn't (tracing, checks and watchdogs are
// excluded, see CellEnv). It keys the cell by how it is named: the store,
// the dist wire, the manifests' cell counts and the serving daemon all see
// this key. Cells that name one simulation in different words share one
// effective key (see effectiveCell).
func (cs CellSpec) Key() string { return canonicalKey(cs) }

// effectiveCell is what a cell simulates: its workload, its mode and the
// plan its configuration and tweaks resolve to. Its canonical sum is the
// cell's effective key, the key the cell cache simulates by.
type effectiveCell struct {
	Workload workload.Spec
	Mode     lukewarm.Mode
	Plan     sim.Plan
}

// effectiveKey resolves cs's plan and returns it with cs's effective key.
func effectiveKey(cs CellSpec) (sim.Plan, [sha256.Size]byte, error) {
	plan, err := sim.Resolve(cs.Config, cs.Tweaks)
	if err != nil {
		return sim.Plan{}, [sha256.Size]byte{}, err
	}
	return plan, canonicalSum(effectiveCell{Workload: cs.Workload, Mode: cs.Mode, Plan: plan}), nil
}

// CellEnv carries the per-run knobs that shape how a fresh cell simulates
// without affecting its result, so none of them are part of the cache key:
// tracing and checking never alter outcomes (a check can only abort the
// run), and the cycle-budget watchdog is abort-only.
type CellEnv struct {
	// Tracer receives invocation/replay lifecycle events from freshly
	// simulated cells (nil = no tracing).
	Tracer obs.Tracer
	// Checks enables the runtime invariant verifier (sim.WithChecks) on
	// freshly simulated cells.
	Checks bool
	// MaxCycles arms the per-invocation cycle-budget watchdog
	// (0 = unlimited).
	MaxCycles uint64
}

// Invoke computes (or serves from cache) the cell cs, whose key is
// cs.Key() (the caller already holds it, so the cell is hashed once),
// single-flight: concurrent Invokes of one key share one simulation. The
// second return reports whether the cell was served from the cache. This is
// the serving daemon's and the dist worker's entry point into the same
// memoized cells the experiment matrix runs on.
func (cc *CellCache) Invoke(key string, cs CellSpec, env CellEnv) (*CellPayload, bool, error) {
	return cc.cell(context.Background(), key, cs, env)
}
