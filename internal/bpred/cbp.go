package bpred

import "ignite/internal/stats"

// CBP is the conditional branch predictor of the simulated core: an
// L-TAGE-style composition of a bimodal base (BIM), TAGE tagged tables and
// a loop predictor, exposing the selective warm/cold state control the
// paper's sensitivity studies require (Figures 4, 5, 11).
type CBP struct {
	bim  *Bimodal
	tage *TAGE
	loop *LoopPredictor

	stat CBPStats
}

// CBPStats counts prediction outcomes.
type CBPStats struct {
	Predictions stats.Counter
	Mispredicts stats.Counter
}

// NewCBP builds the default Table 2 predictor: 64 KiB L-TAGE over a ~5 KiB
// bimodal with a 64-entry loop predictor.
func NewCBP() *CBP {
	bim := NewBimodal(16 * 1024)
	return &CBP{
		bim:  bim,
		tage: NewTAGE(bim),
		loop: NewLoopPredictor(64),
	}
}

// Bimodal exposes the BIM component (Ignite's restore target).
func (c *CBP) Bimodal() *Bimodal { return c.bim }

// TAGE exposes the tagged component.
func (c *CBP) TAGE() *TAGE { return c.tage }

// Stats returns prediction statistics.
func (c *CBP) Stats() *CBPStats { return &c.stat }

// Predict returns the predicted direction for the conditional branch at pc.
func (c *CBP) Predict(pc uint64) bool {
	if pred, conf := c.loop.Predict(pc); conf {
		return pred
	}
	return c.tage.Predict(pc)
}

// PredictAndUpdate performs one full predict-then-train step, returning the
// prediction that the front end acted on. It also maintains accuracy
// statistics.
func (c *CBP) PredictAndUpdate(pc uint64, taken bool) (pred bool) {
	pred = c.Predict(pc)
	c.stat.Predictions.Inc()
	if pred != taken {
		c.stat.Mispredicts.Inc()
	}
	c.loop.Update(pc, taken)
	c.tage.Update(pc, taken) // also trains the bimodal base
	return pred
}

// Update trains every component with the actual outcome without touching
// accuracy statistics — used by the engine, which tracks mispredictions
// against the prediction the front end actually acted on.
func (c *CBP) Update(pc uint64, taken bool) {
	c.loop.Update(pc, taken)
	c.tage.Update(pc, taken) // also trains the bimodal base
}

// FlushTAGE clears the tagged tables, history and loop predictor but leaves
// the BIM intact — the "warm BIM, cold TAGE" configuration.
func (c *CBP) FlushTAGE() {
	c.tage.Flush()
	c.loop.Flush()
}

// FlushAll makes the whole CBP cold: TAGE and loop predictor cleared, BIM
// overwritten with random state (the paper's lukewarm methodology).
func (c *CBP) FlushAll(seed uint64) {
	c.FlushTAGE()
	c.bim.Randomize(seed)
}

// ResetStats clears accuracy counters.
func (c *CBP) ResetStats() { c.stat = CBPStats{} }

// State is a copy of the CBP components a thrash keeps: the BIM, or the
// TAGE with the loop predictor, or both.
type State struct {
	bim  []uint8
	tage *TAGESnapshot
	loop []loopEntry
}

// Snapshot copies the components to keep: the BIM when bim is set, the TAGE
// and the loop predictor when tage is set (Figure 5's "+BIM warm" and
// "+TAGE warm"). A component not kept is not copied.
func (c *CBP) Snapshot(bim, tage bool) *State {
	s := &State{}
	if bim {
		s.bim = c.bim.Snapshot()
	}
	if tage {
		s.tage = c.tage.Snapshot()
		s.loop = c.loop.Snapshot()
	}
	return s
}

// Restore reinstates the components s holds.
func (c *CBP) Restore(s *State) {
	if s.bim != nil {
		c.bim.Restore(s.bim)
	}
	if s.tage != nil {
		c.tage.Restore(s.tage)
		c.loop.Restore(s.loop)
	}
}
