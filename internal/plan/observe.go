package plan

import "math"

// observedAlpha is the EWMA weight of the newest run in ObservedStats'
// running means.
const observedAlpha = 0.3

// ObservedStats accumulates the profiles of plan runs (see Execution) as
// exponentially-decayed running means and overlays them on a Stats during
// estimation: an observed group width for an access constraint takes
// precedence over the width derived from collected distinct counts, so
// candidate ranking corrects its own estimation error instead of
// re-trusting a skew-blind average. Decay (weight observedAlpha on the
// newest run) keeps the overlay tracking a drifting instance instead of
// pinning the first thing it saw.
//
// ObservedStats is NOT safe for concurrent use and must not be copied
// (copies would share the width map but fork the scalar means); callers
// hold one *ObservedStats and serialize access (the PreparedQuery
// feedback loop folds runs under its selection lock).
type ObservedStats struct {
	width   map[string]float64 // constraint key -> EWMA realized group width
	rows    float64            // EWMA output rows (-1 until first sample)
	joinFan float64            // EWMA join fan-out ratio (-1 until first join)
	samples int64
}

// NewObservedStats builds an empty accumulator.
func NewObservedStats() *ObservedStats {
	return &ObservedStats{width: make(map[string]float64), rows: -1, joinFan: -1}
}

// ewma folds sample into the running mean *m (negative: no sample yet)
// and reports whether the mean changed bit for bit.
func ewma(m *float64, sample float64) bool {
	old := *m
	if old < 0 {
		*m = sample
	} else {
		*m = old + observedAlpha*(sample-old)
	}
	return math.Float64bits(*m) != math.Float64bits(old)
}

// Absorb folds one run of program p — the slots it recorded and its answer
// count — into the running means: per access constraint, the width its
// fetch ops realized together (see Program.Group), the output rows and
// the fan-out of the hash joins. It reports whether any mean changed bit
// for bit; when none did, every estimate under the overlay is unchanged.
func (o *ObservedStats) Absorb(p *Program, slots []Slot, rows int) (moved bool) {
	for i := range slots {
		key, g, ok := p.Group(slots, i)
		if !ok || g.In <= 0 {
			continue
		}
		w, seen := o.width[key]
		if !seen {
			w = -1
		}
		if ewma(&w, float64(g.Out)/float64(g.In)) {
			o.width[key], moved = w, true
		}
	}
	moved = ewma(&o.rows, float64(rows)) || moved
	if j := p.Joins(slots); j.In > 0 {
		moved = ewma(&o.joinFan, float64(j.Out)/float64(j.In)) || moved
	}
	o.samples++
	return moved
}

// Width returns the observed mean group width for a constraint key, if
// any run ever fetched through it.
func (o *ObservedStats) Width(key string) (float64, bool) {
	if o == nil {
		return 0, false
	}
	w, ok := o.width[key]
	return w, ok
}

// Rows returns the observed mean output cardinality (false before the
// first sample).
func (o *ObservedStats) Rows() (float64, bool) {
	if o == nil || o.rows < 0 {
		return 0, false
	}
	return o.rows, true
}

// JoinFanOut returns the observed mean hash-join fan-out ratio (false
// until a run with at least one hash join was absorbed).
func (o *ObservedStats) JoinFanOut() (float64, bool) {
	if o == nil || o.joinFan < 0 {
		return 0, false
	}
	return o.joinFan, true
}

// Samples returns the number of runs absorbed.
func (o *ObservedStats) Samples() int64 {
	if o == nil {
		return 0
	}
	return o.samples
}

// obsWidth resolves the overlay for one fetch: the observed group width,
// clamped into [0.5, hi] — realized widths respect the constraint's
// promise N (hi), and the 0.5 floor keeps an observed-empty group from
// zeroing out every downstream term while still pricing it far below any
// estimated width.
func (o *ObservedStats) obsWidth(key string, hi float64) (float64, bool) {
	w, ok := o.Width(key)
	if !ok {
		return 0, false
	}
	return clamp(w, 0.5, math.Max(0.5, hi)), true
}
