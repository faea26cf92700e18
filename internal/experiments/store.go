package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"ignite/internal/obs"
	"ignite/internal/store"
)

// StoreStats counts the persistent store's traffic during a run: warm
// hits, misses (fresh computes), records persisted, and corruption
// detections (each one is a record or manifest that failed integrity
// verification and was recomputed instead of served).
type StoreStats struct {
	Hits    obs.Counter
	Misses  obs.Counter
	Saves   obs.Counter
	Corrupt obs.Counter
}

// storeBacking adapts internal/store to the cell cache's CellBacking seam:
// records hold the CellPayload JSON, keyed by the canonical cell-cache key.
type storeBacking struct {
	st    *store.Store
	stats *StoreStats
}

// BindStore mounts a persistent content-addressed store behind the cache:
// every fresh cell is persisted, every later run (or process — workers
// sharing the directory see each other's records) restores it as pure
// I/O. A corrupt record or manifest is counted, warned about once, and
// recomputed — detection is loud, recovery is automatic, and the damaged
// record is repaired by the recompute's Save. stats may be nil.
func BindStore(cc *CellCache, st *store.Store, stats *StoreStats) {
	if stats == nil {
		stats = &StoreStats{}
	}
	cc.SetBacking(&storeBacking{st: st, stats: stats})
}

func (b *storeBacking) Load(key string) (CellPayload, bool) {
	data, err := b.st.Get(key)
	if err != nil {
		var ce *store.CorruptionError
		if errors.As(err, &ce) {
			b.stats.Corrupt.Inc()
			fmt.Fprintf(os.Stderr, "store: corruption detected, recomputing cell: %v\n", ce)
		} else if !errors.Is(err, store.ErrNotFound) {
			fmt.Fprintf(os.Stderr, "store: read failed, recomputing cell: %v\n", err)
		}
		b.stats.Misses.Inc()
		return CellPayload{}, false
	}
	var p CellPayload
	if err := json.Unmarshal(data, &p); err != nil || p.Res == nil {
		// The payload passed its CRC but does not decode to a cell — a
		// record written by an incompatible build. Recompute and repair.
		b.stats.Corrupt.Inc()
		b.stats.Misses.Inc()
		return CellPayload{}, false
	}
	b.stats.Hits.Inc()
	return p, true
}

func (b *storeBacking) Save(key string, p CellPayload) {
	data, err := json.Marshal(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "store: encode cell %q: %v\n", key, err)
		return
	}
	if err := b.st.Put(key, data); err != nil {
		// A failed persist degrades the next run to a recompute; this run
		// already holds the result in memory, so warn and continue.
		fmt.Fprintf(os.Stderr, "store: %v\n", err)
		return
	}
	b.stats.Saves.Inc()
}
