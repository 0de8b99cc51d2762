package plan

import "math"

// Observation is the realized execution profile of ONE plan run: what the
// plan actually fetched and produced, attributed to the structures the
// cost model estimates. It is the closed-loop counterpart of Cost — where
// Estimate predicts from collected statistics, an Observation reports what
// a concrete run against a concrete epoch measured, so a serving layer can
// correct the estimates it trusted (see ObservedStats and the
// PreparedQuery feedback loop in the root package).
type Observation struct {
	// Rows is the output cardinality after the root's set-semantics dedup.
	Rows int
	// JoinIn and JoinOut are the summed input and output rows of the
	// run's hash joins — their ratio is the realized join fan-out.
	JoinIn  int
	JoinOut int
	// Groups attributes fetch traffic to access constraints: for each
	// constraint the plan fetched through (keyed by Constraint.Key), the
	// number of distinct probe keys and the tuples they returned. Their
	// ratio is the realized group width — the quantity the cost model
	// otherwise guesses as |R| over the collected distinct counts.
	Groups map[string]GroupObs
}

// GroupObs is the realized fetch profile of one access constraint within
// one plan run. Plain value; safe to copy.
type GroupObs struct {
	Probes int // distinct probe keys fetched through the constraint
	Rows   int // tuples those probes returned
}

// addGroup folds one fetch node's traffic into the observation.
func (o *Observation) addGroup(key string, probes, rows int) {
	if o.Groups == nil {
		o.Groups = make(map[string]GroupObs, 4)
	}
	g := o.Groups[key]
	g.Probes += probes
	g.Rows += rows
	o.Groups[key] = g
}

// ObservedStats accumulates Observations as exponentially-decayed running
// means and overlays them on a Stats during estimation: an observed group
// width for an access constraint takes precedence over the width derived
// from collected distinct counts, so candidate ranking corrects its own
// estimation error instead of re-trusting a skew-blind average. Decay
// (weight Alpha on the newest sample) keeps the overlay tracking a
// drifting instance instead of pinning the first thing it saw.
//
// ObservedStats is NOT safe for concurrent use and must not be copied
// (copies would share the width map but fork the scalar means); callers
// hold one *ObservedStats and serialize access (the PreparedQuery
// feedback loop folds observations under its selection lock).
type ObservedStats struct {
	alpha   float64
	width   map[string]float64 // constraint key -> EWMA realized group width
	rows    float64            // EWMA output rows (-1 until first sample)
	joinFan float64            // EWMA join fan-out ratio (-1 until first join)
	samples int64
}

// DefaultObservedAlpha is the EWMA weight of the newest observation used
// when NewObservedStats is given a non-positive alpha.
const DefaultObservedAlpha = 0.3

// NewObservedStats builds an empty accumulator. alpha in (0, 1] is the
// weight of the newest observation; <= 0 selects DefaultObservedAlpha.
func NewObservedStats(alpha float64) *ObservedStats {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultObservedAlpha
	}
	return &ObservedStats{alpha: alpha, width: make(map[string]float64), rows: -1, joinFan: -1}
}

// ewma folds sample into prev (prev < 0 means "no samples yet").
func (o *ObservedStats) ewma(prev, sample float64) float64 {
	if prev < 0 {
		return sample
	}
	return prev + o.alpha*(sample-prev)
}

// Absorb folds one run's observation into the running means. A nil
// observation is a no-op.
func (o *ObservedStats) Absorb(ob *Observation) {
	if ob == nil {
		return
	}
	for key, g := range ob.Groups {
		if g.Probes <= 0 {
			continue
		}
		w := float64(g.Rows) / float64(g.Probes)
		if prev, ok := o.width[key]; ok {
			w = prev + o.alpha*(w-prev)
		}
		o.width[key] = w
	}
	o.rows = o.ewma(o.rows, float64(ob.Rows))
	if ob.JoinIn > 0 {
		o.joinFan = o.ewma(o.joinFan, float64(ob.JoinOut)/float64(ob.JoinIn))
	}
	o.samples++
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

// Samples returns the number of observations absorbed.
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
