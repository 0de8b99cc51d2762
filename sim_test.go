package repro

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/vbrp"
	"repro/internal/workload"
)

// The seeded handle simulator: one model, one checker and one op stream
// over the whole Handle surface.
//
// A run builds a system from its seed — random relations, access
// constraints, views and plans; the Movies fixture with ξ0; or the
// Sharded account fixture — opens handles at P in {1, 2, 8}, the first
// drawn and each next at the P after it, and deals a shuffled op stream:
//
//	apply   one batch, to every handle and to the mirror database
//	check   the plan battery on every handle: ad hoc and prepared Execute
//	pin     pin a snapshot, then recheck every pin (prepared via ExecuteOn)
//	at      At(seq) across the retention window and on both sides of it
//	race    K readers race the writer over a few batches
//	reopen  durable Close, or abandon the handle, then reopen at a drawn P
//
// The model is the mirror, a Database fed every accepted batch. Each epoch
// it reaches is an oracle: plan.Run over a fetch index built from it, with
// views materialized from it by full evaluation. The checker compares
// rows, fetched tuples, views, Size, Stats, DeltaStats counts, dictionary
// growth (and the strings behind every ID, alike on every handle),
// RecoveryInfo and LifecycleStats with the model, and on every
// epoch with D ⊨ A it holds each execution to its plan's fetch bound:
// Conforms' for an ad hoc plan, the executed candidate's FetchBound for a
// prepared one. The batch stream has a generator of its own, so crash
// mode (TestCrashRecoveryDifferential) can replay it in a child process.
//
// A failure names the seed and the op index and prints the command that
// replays it. SIM_SEED=n runs seed n alone; SIM_SEEDS=n runs seeds 1..n.

// simSeeds returns the seeds a run plays: seeds unless the environment
// says otherwise.
func simSeeds(t *testing.T, seeds []int64) []int64 {
	for _, name := range []string{"SIM_SEED", "SIM_SEEDS"} {
		if v := os.Getenv(name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				t.Fatalf("%s=%q: want a non-negative integer", name, v)
			} else if name == "SIM_SEED" {
				return []int64{n}
			}
			for seeds = nil; int64(len(seeds)) < n; {
				seeds = append(seeds, int64(len(seeds))+1)
			}
		}
	}
	return seeds
}

// simSystem is what a run simulates: the system, its opening database,
// the plan battery and the batch stream.
type simSystem struct {
	sys     *System
	db      *Database // the opening state; every open and the mirror clone it
	plans   []Plan    // the ad hoc battery
	bounds  []int64   // per plan: Conforms' fetch bound, -1 if it does not conform
	queries []*PreparedQuery
	next    func() (ins, del []Op) // the batch stream, seeded at build time
	joins   int                    // searched 2-atom queries with rewritings
	keepsA  bool                   // the stream keeps D ⊨ A by construction
}

// simConfig names a system and the shape of its runs.
type simConfig struct {
	name     string
	build    func(t testing.TB, seed int64) *simSystem
	seeds    []int64  // tier-1 seeds
	ops      int      // op stream length
	handles  int      // handles open at once
	sweep    bool     // a size sweep: in-memory handles, apply only, one oracle at the end
	noRace   bool     // too large for the race detector
	kinds    []string // the op mix, dealt in equal shares; nil for the default
	need     []string // marks every run must reach (see sim.played)
	shards   []int    // the P values handles open at; nil for {1, 2, 8}
	reshards []int    // the P values handles reopen at; nil for shards
}

var simConfigs = []simConfig{
	{name: "random", build: simRandom, seeds: []int64{1, 2, 3, 4, 5, 6}, ops: 48, handles: 2},
	{name: "movies", build: simMovies(400, 30, 150), seeds: []int64{1}, ops: 36, handles: 2},
	{name: "sharded", build: simSharded, seeds: []int64{1, 2, 3}, ops: 48, handles: 2},
	{name: "movies-1250", build: simMovies(1250, 50, 0), seeds: []int64{1}, ops: 26, handles: 1, sweep: true},
	{name: "movies-12500", build: simMovies(12500, 50, 0), seeds: []int64{1}, ops: 26, handles: 1, sweep: true},
	{name: "movies-50000", build: simMovies(50000, 50, 0), seeds: []int64{1}, ops: 26, handles: 1, sweep: true, noRace: true},
}

// TestSimulator plays every system's op stream over its seeds.
func TestSimulator(t *testing.T) {
	for _, c := range simConfigs {
		t.Run(c.name, func(t *testing.T) { simPlay(t, c) })
	}
}

// simPlay plays c's op stream over its seeds.
func simPlay(t *testing.T, c simConfig) {
	if c.noRace && raceEnabled {
		t.Skip("largest input: skipped under the race detector")
	}
	for _, seed := range simSeeds(t, c.seeds) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := newSim(t, c, seed)
			for i := 0; i < c.handles; i++ {
				m.open()
			}
			m.run()
			for _, k := range c.need {
				if m.played[k] == 0 {
					m.failf("the stream reached no %s", k)
				}
			}
		})
	}
}

// simFocus plays the focused stream named after the calling test: its
// system for 16 ops, dealing only the ops that cover the test's behaviour,
// at each subtest's P values, over its seeds (7 and 8 unless named, which
// TestSimulator's tier-1 runs do not play), which subtests share out.
func simFocus(t *testing.T) {
	f := simFocused[t.Name()]
	c := simConfigs[slices.IndexFunc(simConfigs, func(c simConfig) bool { return c.name == f.system })]
	seeds := f.seeds
	if seeds == nil {
		seeds = []int64{7, 8}
	}
	c.ops, c.kinds, c.need, c.seeds = 16, f.kinds, f.need, seeds
	for i, sub := range slices.Sorted(maps.Keys(f.subs)) {
		c.shards, c.reshards = f.subs[sub][0], f.subs[sub][1]
		if len(f.subs) > 1 {
			c.seeds = seeds[i%len(seeds):][:1]
		}
		if sub == "" {
			simPlay(t, c)
		} else {
			t.Run(sub, func(t *testing.T) { simPlay(t, c) })
		}
	}
}

// simFocused holds the focused streams by test: the system, the ops dealt,
// the marks each run must reach, per subtest ("" for none) the P values
// handles open at and reopen at (nil for the defaults), and the seeds.
var simFocused = map[string]struct {
	system      string
	kinds, need []string
	subs        simSubs
	seeds       []int64
}{
	// Answers, fetched tuples, views, Size, DeltaStats and dictionary
	// growth follow the oracle over multiset batches at P = 3, not a power
	// of two, join rewritings included: seeds 29 and 34 are the first whose
	// searched 2-atom queries, a join and a product, have rewritings.
	"TestShardedDifferentialRandom": {"random", []string{"apply", "apply", "check"}, []string{"join rewriting"}, simSubs{"": {{3}}}, []int64{29, 34}},
	// Movies under churn keeps answering Q(D) within ξ0's bound of 2·N0.
	"TestLiveServesFreshAnswersUnderChurn": {"movies", []string{"apply", "apply", "check"}, nil, simSubs{"persons=400": {}}, nil},
	// Readers racing the writer see one epoch's answers, within the bound.
	"TestLiveConcurrentReadersAndWriter": {"movies", []string{"apply", "check", "race"}, nil, simSubs{"": {}}, nil},
	// A pinned snapshot never drifts, across later batches and reopens.
	"TestSnapshotDifferentialRandom": {"random", []string{"apply", "apply", "pin", "pin", "reopen"}, nil, simSubs{"": {}}, nil},
	// At P = 8 a racing reader's snapshot fixes its cross-shard views and
	// its answers, prepared point reads included.
	"TestSnapshotCrossShardConsistencyUnderConcurrency": {"sharded", []string{"apply", "check", "race", "race", "race"}, nil, simSubs{"": {{8}}}, nil},
	// At serves every retained epoch, ErrEpochRetired outside the window, and
	// the lifecycle counters show nothing leaked and every epoch reclaimed.
	"TestAtDifferential": {"random", []string{"apply", "apply", "pin", "at", "race"}, []string{"at past the window"},
		simSubs{"shards=0": {{0}}, "shards=1": {{1}}, "shards=8": {{8}}}, nil},
	// A clean close replays no epoch; the reopened handle keeps writing.
	"TestDurableRoundTrip": {"random", []string{"apply", "apply", "check", "close"}, nil, simSubs{"unsharded": {{1}}, "sharded": {{8}}}, nil},
	// An abandoned handle replays every batch since its last checkpoint.
	"TestDurableReplay": {"random", []string{"apply", "apply", "check", "abandon"}, []string{"replay"},
		simSubs{"unsharded": {{1}}, "sharded": {{8}}}, nil},
	// The same batches intern the same strings under the same IDs at P = 1
	// and P = 8.
	"TestInterningIndependentOfShardCount": {"sharded", []string{"apply"}, []string{"interning"}, simSubs{"": {{1, 8}}}, nil},
	// A directory reopens at another P with the same state and answers.
	"TestDurableCrossEngine": {"sharded", []string{"apply", "apply", "check", "reopen"}, nil,
		simSubs{"sharded-to-unsharded": {{8}, {1}}, "unsharded-to-sharded": {{1}, {8}}}, nil},
}

// simSubs maps subtests to the P values their handles open and reopen at.
type simSubs = map[string][2][]int

func TestShardedDifferentialRandom(t *testing.T)                     { simFocus(t) }
func TestLiveServesFreshAnswersUnderChurn(t *testing.T)              { simFocus(t) }
func TestLiveConcurrentReadersAndWriter(t *testing.T)                { simFocus(t) }
func TestSnapshotDifferentialRandom(t *testing.T)                    { simFocus(t) }
func TestSnapshotCrossShardConsistencyUnderConcurrency(t *testing.T) { simFocus(t) }
func TestAtDifferential(t *testing.T)                                { simFocus(t) }
func TestDurableRoundTrip(t *testing.T)                              { simFocus(t) }
func TestDurableReplay(t *testing.T)                                 { simFocus(t) }
func TestDurableCrossEngine(t *testing.T)                            { simFocus(t) }
func TestInterningIndependentOfShardCount(t *testing.T)              { simFocus(t) }

// ---- systems ----

const diffPool = 9 // random instance values and query constants share "v0".."v8"

func diffVal(rng *rand.Rand) string { return fmt.Sprintf("v%d", rng.Intn(diffPool)) }

func diffRow(rng *rand.Rand, rel *Relation) Tuple {
	row := make(Tuple, rel.Arity())
	for j := range row {
		row[j] = diffVal(rng)
	}
	return row
}

// diffQuery draws a CQ over s: up to maxAtoms atoms with shared and
// repeated variables, each argument a pool constant with chance cst, and
// a head of arity terms (constants when no variable is at hand).
func diffQuery(rng *rand.Rand, s *Schema, maxAtoms, arity int, cst float64) *CQ {
	var atoms []Atom
	var vars []string
	for a := 0; a < 1+rng.Intn(maxAtoms); a++ {
		rel := s.Relations[rng.Intn(len(s.Relations))]
		args := make([]Term, rel.Arity())
		for i := range args {
			switch {
			case rng.Float64() < cst:
				args[i] = Cst(diffVal(rng))
			case len(vars) > 0 && rng.Float64() < 0.5:
				args[i] = Var(vars[rng.Intn(len(vars))])
			default:
				vars = append(vars, fmt.Sprintf("x%d", len(vars)))
				args[i] = Var(vars[len(vars)-1])
			}
		}
		atoms = append(atoms, Atom{Rel: rel.Name, Args: args})
	}
	head := make([]Term, arity)
	for i := range head {
		if len(vars) == 0 || rng.Float64() < 0.1 {
			head[i] = Cst(diffVal(rng))
		} else {
			head[i] = Var(vars[rng.Intn(len(vars))])
		}
	}
	return NewCQ(head, atoms)
}

// simRandom builds a random system: 2-3 relations of arity 1-3, 1-2
// constraints each (X sometimes empty, so fetches broadcast), 1-3 UCQ
// views, 80 opening rows over a 9-value pool, prepared queries for two
// random atoms at M = 4, and up to three rewritings each of two random
// queries of 1-2 atoms from a search at M = 5 capped at 2,000 shapes
// (at most 0.15 s a query on seeds 1-40; it enumerates small plans first,
// so the cap drops larger ones). Its batches hold the row store's multiset cases:
// duplicate inserts of live rows, repeated deletes, deletes of absent
// rows and of never-interned values. Random data need not satisfy A.
func simRandom(t testing.TB, seed int64) *simSystem {
	rng := rand.New(rand.NewSource(seed))
	rels := make([]*Relation, 2+rng.Intn(2))
	for i := range rels {
		attrs := make([]string, 1+rng.Intn(3))
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j)
		}
		rels[i] = NewRelation(fmt.Sprintf("R%d", i), attrs...)
	}
	s, a := NewSchema(rels...), NewAccessSchema()
	for _, r := range rels {
		for k := 0; k < 1+rng.Intn(2); k++ {
			var x, y []string
			for _, attr := range r.Attrs {
				if rng.Float64() < 0.4 {
					x = append(x, attr)
				}
				if rng.Float64() < 0.6 {
					y = append(y, attr)
				}
			}
			if rng.Float64() < 0.2 {
				x = nil
			}
			if len(y) == 0 {
				y = []string{r.Attrs[rng.Intn(r.Arity())]}
			}
			a.Add(NewConstraint(r.Name, x, y, 2+rng.Intn(6)))
		}
	}
	views := map[string]*UCQ{}
	for v := 0; v < 1+rng.Intn(3); v++ {
		u := &UCQ{Name: fmt.Sprintf("W%d", v)}
		arity := 1 + rng.Intn(2)
		for d := 0; d < 1+rng.Intn(2); d++ {
			u.Disjuncts = append(u.Disjuncts, diffQuery(rng, s, 3, arity, 0.15))
		}
		views[u.Name] = u
	}
	sys, err := NewSystem(s, a, views, 4)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	ss := &simSystem{sys: sys, db: NewDatabase(s)}
	live := map[string][]Tuple{}
	for i := 0; i < 80; i++ {
		rel := rels[rng.Intn(len(rels))]
		row := diffRow(rng, rel)
		ss.db.MustInsert(rel.Name, row...)
		live[rel.Name] = append(live[rel.Name], row)
	}
	ss.battery(rng)
	for q := 0; q < 2; q++ {
		if pq, err := sys.Prepare(NewUCQ(diffQuery(rng, s, 1, 1, 0.4)), LangCQ); err == nil {
			ss.prepared(pq, 3)
		} // else no rewriting, or a truncated search: the battery still covers
	}
	for q := 0; q < 2; q++ {
		cq := diffQuery(rng, s, 2, 1, 0.4)
		cands, _ := vbrp.Candidates(NewUCQ(cq), &vbrp.Problem{S: s, A: sys.Access, Views: sys.Views, M: 5,
			Lang: LangUCQ, Consts: cq.Constants(), MaxShapes: 2000})
		if len(cq.Atoms) > 1 && len(cands) > 0 {
			ss.joins++
		}
		for _, c := range cands[:min(3, len(cands))] {
			ss.add(c.Plan)
		}
	}
	batch := 0
	ss.next = func() (ins, del []Op) {
		batch++
		for o := 0; o < 18; o++ {
			rel := rels[rng.Intn(len(rels))]
			pool := live[rel.Name]
			switch {
			case rng.Float64() < 0.4 && len(pool) > 0:
				i := rng.Intn(len(pool))
				del = append(del, Op{Rel: rel.Name, Row: pool[i]})
				pool[i] = pool[len(pool)-1]
				live[rel.Name] = pool[:len(pool)-1]
			case rng.Float64() < 0.12:
				del = append(del, Op{Rel: rel.Name, Row: diffRow(rng, rel)}) // maybe absent
			case rng.Float64() < 0.1:
				row := diffRow(rng, rel)
				row[rng.Intn(len(row))] = fmt.Sprintf("never-%d-%d", batch, o)
				del = append(del, Op{Rel: rel.Name, Row: row})
			case rng.Float64() < 0.08 && len(del) > 0:
				del = append(del, del[rng.Intn(len(del))]) // claims a second copy, or nothing
			default:
				row := diffRow(rng, rel)
				if rng.Float64() < 0.15 && len(pool) > 0 {
					row = pool[rng.Intn(len(pool))].Clone() // another copy of a live row
				}
				live[rel.Name] = append(pool, row)
				ins = append(ins, Op{Rel: rel.Name, Row: row.Clone()})
			}
		}
		return ins, del
	}
	return ss
}

// simMovies builds the Movies fixture (ϕ1 caps movies per (studio, year)
// at n0) over persons persons and as many movies, with ξ0 and a churn
// stream of batch ops (1% of |D| when 0) that keeps D ⊨ A.
func simMovies(persons, n0, batch int) func(testing.TB, int64) *simSystem {
	return func(t testing.TB, seed int64) *simSystem {
		sys, m := movieSystemN0(t, n0)
		db := m.Generate(workload.MoviesParams{Persons: persons, Movies: persons, LikesPerPerson: 5, NASAShare: 8, Seed: seed})
		ss := &simSystem{sys: sys, db: db, keepsA: true}
		if ss.add(m.Fig1Plan()); ss.bounds[0] != int64(2*m.N0) {
			t.Fatalf("ξ0 conforms with fetch bound %d, want 2·N0 = %d", ss.bounds[0], 2*m.N0)
		}
		ss.battery(rand.New(rand.NewSource(seed)))
		if batch == 0 {
			batch = db.Size() / 100
		}
		ch := workload.NewChurn(m, db, workload.ChurnParams{Seed: seed})
		ss.next = func() ([]Op, []Op) { return ch.Batch(batch) }
		return ss
	}
}

// simSharded builds the account/transaction fixture with per-uid point
// queries prepared for six uids, present or not, and its churn stream,
// which keeps D ⊨ A.
func simSharded(t testing.TB, seed int64) *simSystem {
	w, sys, _ := shardedWorkload(t, 0, 0)
	ss := &simSystem{sys: sys, db: w.Generate(60, 4, seed), keepsA: true}
	rng := rand.New(rand.NewSource(seed))
	ss.battery(rng)
	for i := 0; i < 6; i++ {
		pq, err := sys.Prepare(NewUCQ(w.Query(w.UID(rng.Intn(70)))), LangCQ)
		if err != nil {
			t.Fatal(err)
		}
		ss.prepared(pq, i%2*len(pq.cands))
	}
	ch := w.NewChurn(ss.db.Clone(), seed)
	ss.next = func() ([]Op, []Op) { return ch.Batch(40) }
	return ss
}

// add appends p to the ad hoc battery with its Conforms bound.
func (ss *simSystem) add(p Plan) {
	ok, bound, _ := ss.sys.Conforms(p)
	if !ok {
		bound = -1
	}
	ss.plans = append(ss.plans, p)
	ss.bounds = append(ss.bounds, bound)
}

// prepared adds pq to the prepared battery and its first n candidates to
// the ad hoc one.
func (ss *simSystem) prepared(pq *PreparedQuery, n int) {
	ss.queries = append(ss.queries, pq)
	for _, c := range pq.Candidates()[:min(n, len(pq.cands))] {
		ss.add(c)
	}
}

// battery adds the generic plans: per constraint, fetches with the key of
// a stored row and with an absent key (one input-free fetch when X is
// empty), and per view a scan and a selection.
func (ss *simSystem) battery(rng *rand.Rand) {
	for _, c := range ss.sys.Access.Constraints {
		if len(c.X) == 0 {
			ss.add(&plan.Fetch{C: c})
			continue
		}
		rows, rel := ss.db.Table(c.Rel).Tuples, ss.sys.Schema.Relation(c.Rel)
		for _, present := range []bool{true, false} {
			var key plan.Node
			var row Tuple
			if present && len(rows) > 0 {
				row = rows[rng.Intn(len(rows))]
			}
			for _, attr := range c.X {
				leaf := plan.Node(&plan.Const{Attr: attr, Val: "absent"})
				if row != nil {
					leaf = &plan.Const{Attr: attr, Val: row[rel.AttrPos(attr)]}
				}
				if key != nil {
					leaf = &plan.Product{L: key, R: leaf}
				}
				key = leaf
			}
			ss.add(&plan.Fetch{Child: key, C: c})
		}
	}
	for _, name := range slices.Sorted(maps.Keys(ss.sys.Views)) {
		cols := make([]string, len(ss.sys.Views[name].Disjuncts[0].Head))
		for i := range cols {
			cols[i] = fmt.Sprintf("h%d", i)
		}
		v := &plan.View{Name: name, Cols: cols}
		ss.add(v)
		ss.add(&plan.Select{Child: v, Cond: []plan.CondItem{{L: cols[0], RConst: true, R: diffVal(rng)}}})
	}
}

// ---- the model ----

// simEpoch is the oracle for one epoch: the mirror as it was then.
type simEpoch struct {
	seq     uint64
	size    int
	bounded bool              // D ⊨ A, so fetch bounds hold
	views   map[string]string // canonical extents
	stats   *plan.Stats
	vx      *instance.VIndex
	pv      *plan.PreparedViews

	mu   sync.Mutex
	runs map[Plan]simRun
}

// simRun is one execution in canonical form.
type simRun struct {
	rows    string // sorted
	fetched int
	err     bool
}

func newRun(rows [][]string, fetched int, err error) simRun {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, slices.Compare)
	return simRun{rows: fmt.Sprint(rows), fetched: fetched, err: err != nil}
}

// run returns the oracle's answer to p, computed once per epoch.
func (e *simEpoch) run(p Plan) simRun {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.runs[p]; !ok {
		e.runs[p] = newRun(plan.Run(p, e.vx, e.pv))
	}
	return e.runs[p]
}

// simHandle is one open handle with the model of its durable directory
// and retention ring.
type simHandle struct {
	h        Handle
	p        int
	dir      string // "" for an in-memory handle
	base     uint64 // the epoch it opened at: the first its ring held
	ckpt     uint64 // the epoch of the directory's last checkpoint
	since    int    // batches journaled after it
	sinceOps int    // their physical ops
	pins     []*simPin
}

// simPin is a pinned snapshot and the epoch it must keep answering.
type simPin struct {
	snap  *Snapshot
	owner *simHandle
	e     *simEpoch
}

// sim is one run.
type sim struct {
	t       *testing.T
	cfg     simConfig
	seed    int64
	rng     *rand.Rand // the op stream; the batch stream has its own
	s       *simSystem
	mirror  *Database
	seq     uint64
	ops     []int // physical ops of each batch, by epoch
	retain  int
	ckpt    int
	handles []*simHandle
	pins    []*simPin
	op      int
	opName  string
	played  map[string]int // ops by kind, and marks: "at past the window", "replay", "join rewriting", "interning"

	mu     sync.Mutex // guards hist while readers race the writer
	hist   map[uint64]*simEpoch
	racing bool // keep every epoch: readers may look any up
}

func newSim(t *testing.T, c simConfig, seed int64) *sim {
	if c.shards == nil {
		c.shards = []int{1, 2, 8}
	}
	if c.reshards == nil {
		c.reshards = c.shards
	}
	m := &sim{t: t, cfg: c, seed: seed, rng: rand.New(rand.NewSource(seed ^ 0x5eed)), s: c.build(t, seed),
		ops: []int{0}, hist: map[uint64]*simEpoch{}, played: map[string]int{}, opName: "open"}
	m.mirror, m.played["join rewriting"] = m.s.db.Clone(), m.s.joins
	m.retain, m.ckpt = []int{2, 4, 6}[m.rng.Intn(3)], []int{0, 3, 7}[m.rng.Intn(3)]
	if !c.sweep {
		m.epoch()
	}
	t.Cleanup(func() {
		for _, p := range m.pins {
			p.snap.Close()
		}
		for _, sh := range m.handles {
			sh.h.Close()
		}
	})
	return m
}

// failf fails the run, naming the seed, the op and the replay command.
func (m *sim) failf(format string, args ...any) {
	m.t.Helper()
	parts := strings.Split(m.t.Name(), "/")
	for i, p := range parts {
		parts[i] = "^" + regexp.QuoteMeta(p) + "$"
	}
	m.t.Fatalf("seed %d, op %d (%s): %s\nreplay: SIM_SEED=%d go test -count=1 -run '%s' .",
		m.seed, m.op, m.opName, fmt.Sprintf(format, args...), m.seed, strings.Join(parts, "/"))
}

func (m *sim) must(err error) {
	m.t.Helper()
	if err != nil {
		m.failf("%v", err)
	}
}

// options returns a handle's options at P = p (0: the default, no
// WithShards) over dir ("" for in memory).
func (m *sim) options(p int, dir string) []OpenOption {
	opts := []OpenOption{WithRetainEpochs(m.retain), WithSlowQueryThreshold(time.Nanosecond)}
	if p > 0 {
		opts = append(opts, WithShards(p))
	}
	if dir != "" {
		opts = append(opts, WithDurability(dir), WithCheckpointEvery(m.ckpt))
	}
	return opts
}

// open adds a handle over the opening database, durable unless the run is
// a sweep: the first at a drawn P, each next one at the P after its
// predecessor's. Handles open before the first batch.
func (m *sim) open() {
	ps := m.cfg.shards
	sh := &simHandle{p: m.draw(ps)}
	if n := len(m.handles); n > 0 {
		sh.p = ps[(slices.Index(ps, m.handles[n-1].p)+1)%len(ps)]
	}
	if !m.cfg.sweep {
		sh.dir = m.t.TempDir()
	}
	h, err := m.s.sys.Open(m.s.db.Clone(), m.options(sh.p, sh.dir)...)
	m.must(err)
	sh.h = h
	m.handles = append(m.handles, sh)
	if !m.cfg.sweep {
		m.must(m.checkReader(fmt.Sprintf("P=%d", sh.p), h, h, m.cur(), nil))
	}
}

// feed applies the next batch to the mirror alone, deletes first as the
// engine applies them, and returns what it physically changed.
func (m *sim) feed() (ins, del []Op, a *Applied) {
	ins, del = m.s.next()
	a, err := m.mirror.ApplyDelta(ins, del)
	m.must(err)
	m.seq++
	m.ops = append(m.ops, len(a.Inserted)+len(a.Deleted))
	return ins, del, a
}

// extents materializes the views over the mirror: each view's distinct
// rows, sorted.
func (m *sim) extents() map[string][][]string {
	views, err := eval.Materialize(m.s.sys.Views, m.mirror)
	m.must(err)
	for name, rows := range views {
		slices.SortFunc(rows, slices.Compare)
		views[name] = slices.CompactFunc(rows, slices.Equal)
	}
	return views
}

// distinct counts the distinct values in column i of rows.
func distinct[R ~[]string](rows []R, i int) int {
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r[i]] = true
	}
	return len(seen)
}

// epoch builds the oracle for the mirror's current state.
func (m *sim) epoch() *simEpoch {
	sys, db := m.s.sys, m.mirror
	vx, err := instance.BuildVIndex(db.Schema, db.Dict, db.IDTables(), sys.Access)
	m.must(err)
	views := m.extents()
	e := &simEpoch{seq: m.seq, size: db.Size(), bounded: m.s.keepsA, vx: vx, pv: plan.PrepareViews(db.Dict, views),
		views: map[string]string{}, runs: map[Plan]simRun{}, stats: &plan.Stats{RelRows: map[string]int{},
			RelDistinct: map[string]map[string]int{}, ViewRows: map[string]int{}, ViewDistinct: map[string][]int{}}}
	if !e.bounded {
		e.bounded, err = db.SatisfiesAll(sys.Access)
		m.must(err)
	}
	for _, r := range sys.Schema.Relations {
		rows := db.Table(r.Name).Tuples
		e.stats.RelRows[r.Name] = len(rows)
		e.stats.RelDistinct[r.Name] = map[string]int{}
		for i, attr := range r.Attrs {
			e.stats.RelDistinct[r.Name][attr] = distinct(rows, i)
		}
	}
	for name, def := range sys.Views {
		rows := views[name]
		e.views[name] = fmt.Sprint(rows)
		e.stats.ViewRows[name] = len(rows)
		e.stats.ViewDistinct[name] = make([]int, len(def.Disjuncts[0].Head))
		for i := range e.stats.ViewDistinct[name] {
			e.stats.ViewDistinct[name][i] = distinct(rows, i)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hist[m.seq] = e
	for seq := range m.hist {
		if !m.racing && seq+uint64(m.retain) <= m.seq {
			delete(m.hist, seq) // past every ring; pins keep their own
		}
	}
	return e
}

func (m *sim) at(seq uint64) *simEpoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hist[seq]
}

func (m *sim) cur() *simEpoch { return m.at(m.seq) }

func epochOf(h Handle) uint64 {
	s := h.Snapshot()
	defer s.Close()
	return s.Epoch()
}

// ---- the checker ----

// simReader is what handles and snapshots both serve.
type simReader interface {
	Execute(Plan) ([][]string, int, error)
	Views() map[string][][]string
	Stats() (*plan.Stats, uint64)
	Size() int
}

// checkState compares a reader's size, views and statistics with e.
func checkState(who string, r simReader, e *simEpoch) error {
	if n := r.Size(); n != e.size {
		return fmt.Errorf("%s: Size %d, oracle %d at epoch %d", who, n, e.size, e.seq)
	}
	for name, rows := range r.Views() {
		if got := newRun(rows, 0, nil).rows; got != e.views[name] {
			return fmt.Errorf("%s: view %s at epoch %d diverges\nhandle %s\noracle %s", who, name, e.seq, got, e.views[name])
		}
	}
	if st, _ := r.Stats(); !reflect.DeepEqual(st, e.stats) {
		return fmt.Errorf("%s: statistics at epoch %d diverge\nhandle %+v\noracle %+v", who, e.seq, *st, *e.stats)
	}
	return nil
}

// checkRun compares one execution with the oracle's and its fetches with
// the plan's bound (none when negative).
func checkRun(who string, p Plan, got simRun, e *simEpoch, bound int64) error {
	if want := e.run(p); got != want {
		return fmt.Errorf("%s: diverges from the oracle at epoch %d\nhandle %d fetched (error %v), %s\noracle %d fetched (error %v), %s\nplan:\n%s",
			who, e.seq, got.fetched, got.err, got.rows, want.fetched, want.err, want.rows, plan.Render(p))
	}
	if e.bounded && bound >= 0 && int64(got.fetched) > bound {
		return fmt.Errorf("%s: fetched %d > bound %d on D ⊨ A\nplan:\n%s", who, got.fetched, bound, plan.Render(p))
	}
	return nil
}

// checkReader checks r's state, runs the ad hoc battery on it and every
// prepared query through prepared (Execute on h when nil). h's trace
// names the executed candidate and must agree on its fetches; the run
// must equal that candidate's oracle run within its FetchBound.
func (m *sim) checkReader(who string, r simReader, h Handle, e *simEpoch, prepared func(*PreparedQuery) ([][]string, int, error)) error {
	if err := checkState(who, r, e); err != nil {
		return err
	}
	for i, p := range m.s.plans {
		if err := checkRun(fmt.Sprintf("%s plan %d", who, i), p, newRun(r.Execute(p)), e, m.s.bounds[i]); err != nil {
			return err
		}
	}
	if prepared == nil {
		prepared = func(pq *PreparedQuery) ([][]string, int, error) { return pq.Execute(h) }
	}
	for i, pq := range m.s.queries {
		got := newRun(prepared(pq))
		tr := h.SlowQueries()
		if len(tr) == 0 || tr[0].QueryKey != pq.Key() || tr[0].Fetched != got.fetched {
			return fmt.Errorf("%s query %d: no trace of the execution that fetched %d", who, i, got.fetched)
		}
		c := pq.cands[tr[0].Candidate]
		if err := checkRun(fmt.Sprintf("%s query %d candidate %d", who, i, tr[0].Candidate), c.Plan, got, e, c.FetchBound); err != nil {
			return err
		}
	}
	return nil
}

// ---- the op stream ----

// run plays the op stream, then checks the final state.
func (m *sim) run() {
	kinds := m.cfg.kinds
	if m.cfg.sweep {
		kinds = []string{"apply"}
	} else if kinds == nil {
		kinds = []string{"apply", "apply", "apply", "apply", "apply", "check", "check", "pin", "pin", "at", "race", "reopen"}
	}
	deck := make([]string, m.cfg.ops) // each kind its share, shuffled: none is left out
	for i := range deck {
		deck[i] = kinds[i%len(kinds)]
	}
	m.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	for m.op = 0; m.op < m.cfg.ops; m.op++ {
		m.opName = deck[m.op]
		m.played[m.opName]++
		map[string]func(){"apply": m.apply, "check": m.check, "pin": m.pin, "at": m.atOp, "race": m.race,
			"reopen":  func() { m.reopenAs(m.rng.Intn(len(m.handles)), m.rng.Intn(2) == 0) },
			"close":   func() { m.reopenAs(m.rng.Intn(len(m.handles)), false) },
			"abandon": func() { m.reopenAs(m.rng.Intn(len(m.handles)), true) },
		}[m.opName]()
	}
	m.opName = "final"
	m.t.Logf("%d batches, ops %v; %d plans, %d prepared queries; retain %d, checkpoint every %d",
		m.seq, m.played, len(m.s.plans), len(m.s.queries), m.retain, m.ckpt)
	if m.cfg.sweep {
		m.epoch()
	}
	m.check()
	if ok, err := m.mirror.SatisfiesAll(m.s.sys.Access); m.s.keepsA && (err != nil || !ok) {
		m.failf("the stream broke D ⊨ A (%v)", err)
	}
}

// apply feeds the next batch to the mirror and every handle. DeltaStats
// counts, dictionary growth, the epoch number and |D| must follow the
// mirror, and each durable handle's journal model advances.
func (m *sim) apply() {
	prev := m.cur()
	ins, del, want := m.feed()
	if !m.cfg.sweep {
		m.epoch()
	}
	for _, sh := range m.handles {
		who, dict := fmt.Sprintf("P=%d", sh.p), sh.h.(*Live).sh.Dict()
		fresh, before := map[string]bool{}, dict.Len()
		for _, op := range ins {
			for _, v := range op.Row {
				if _, ok := dict.LookupRow([]string{v}); !ok {
					fresh[v] = true
				}
			}
		}
		got, err := sh.h.ApplyDelta(ins, del)
		m.must(err)
		if got.Inserted != len(want.Inserted) || got.Deleted != len(want.Deleted) {
			m.failf("%s: applied %d+%d, the mirror %d+%d", who, got.Inserted, got.Deleted, len(want.Inserted), len(want.Deleted))
		}
		if grown := dict.Len() - before; grown != len(fresh) {
			m.failf("%s: dictionary grew by %d, the inserts hold %d new values", who, grown, len(fresh))
		} else if grown > 0 {
			m.played["interning"]++
		}
		// Interning depends neither on P nor on how a handle recovered.
		if ref := m.handles[0].h.(*Live).sh.Dict(); sh != m.handles[0] &&
			!slices.Equal(dict.StringsRange(0, dict.Len()), ref.StringsRange(0, ref.Len())) {
			m.failf("%s: its dictionary and P=%d's name different strings", who, m.handles[0].p)
		}
		if prev != nil {
			changed := 0 // views whose extents the batch changed
			for name, ext := range prev.views {
				if ext != m.cur().views[name] {
					changed++
				}
			}
			if got.ViewsChanged != changed {
				m.failf("%s: %d views changed, the oracle's %d", who, got.ViewsChanged, changed)
			}
		}
		if seq, size := epochOf(sh.h), sh.h.Size(); seq != m.seq || size != m.mirror.Size() {
			m.failf("%s: at epoch %d with |D| = %d, the mirror at %d with %d", who, seq, size, m.seq, m.mirror.Size())
		}
		if sh.dir != "" {
			if sh.since, sh.sinceOps = sh.since+1, sh.sinceOps+m.ops[m.seq]; m.ckpt > 0 && sh.since >= m.ckpt {
				sh.ckpt, sh.since, sh.sinceOps = m.seq, 0, 0
			}
		}
		for i, p := range m.s.plans {
			if !m.cfg.sweep {
				break // a sweep has no oracle per epoch: every batch checks the bounds alone
			}
			if _, fetched, err := sh.h.Execute(p); err == nil && m.s.bounds[i] >= 0 && int64(fetched) > m.s.bounds[i] {
				m.failf("%s plan %d: fetched %d > bound %d under churn\nplan:\n%s", who, i, fetched, m.s.bounds[i], plan.Render(p))
			}
		}
	}
}

// check runs the batteries on every handle.
func (m *sim) check() {
	for _, sh := range m.handles {
		m.must(m.checkReader(fmt.Sprintf("P=%d", sh.p), sh.h, sh.h, m.cur(), nil))
	}
}

// pin pins the current epoch on a handle, keeps the last four pins, and
// rechecks every pin: a pinned snapshot never drifts, whatever landed,
// reopened or closed since.
func (m *sim) pin() {
	sh := m.handles[m.rng.Intn(len(m.handles))]
	p := &simPin{snap: sh.h.Snapshot(), owner: sh, e: m.cur()}
	m.pins, sh.pins = append(m.pins, p), append(sh.pins, p)
	if old := m.pins[0]; len(m.pins) > 4 {
		m.pins = m.pins[1:]
		old.owner.pins = slices.DeleteFunc(old.owner.pins, func(q *simPin) bool { return q == old })
		m.must(old.snap.Close())
	}
	for i, p := range m.pins {
		who := fmt.Sprintf("pin %d (P=%d, epoch %d)", i, p.owner.p, p.e.seq)
		if seq := p.snap.Epoch(); seq != p.e.seq {
			m.failf("%s: moved to epoch %d", who, seq)
		}
		m.must(m.checkReader(who, p.snap, p.owner.h, p.e, func(pq *PreparedQuery) ([][]string, int, error) { return pq.ExecuteOn(p.snap) }))
	}
}

// atOp reads every retained epoch of a handle through At, expects
// ErrEpochRetired on both sides of the window, and checks the lifecycle
// counters: no snapshot leaked, the ring full, and every epoch that left
// the ring reclaimed unless a pin still holds it.
func (m *sim) atOp() {
	sh := m.handles[m.rng.Intn(len(m.handles))]
	who, lo := fmt.Sprintf("P=%d", sh.p), max(sh.base, m.seq+1-min(m.seq+1, uint64(m.retain)))
	if lo > sh.base {
		m.played["at past the window"]++
	}
	for seq := lo; seq <= m.seq; seq++ {
		s, err := sh.h.At(seq)
		if err == nil && s.Epoch() != seq {
			err = fmt.Errorf("served epoch %d", s.Epoch())
		}
		if err != nil {
			m.failf("%s: At(%d) inside the window [%d, %d]: %v", who, seq, lo, m.seq, err)
		}
		m.must(m.checkReader(fmt.Sprintf("%s At(%d)", who, seq), s, sh.h, m.at(seq), func(pq *PreparedQuery) ([][]string, int, error) { return pq.ExecuteOn(s) }))
		m.must(s.Close())
	}
	outside := []uint64{m.seq + 1}
	if lo > 0 {
		outside = append(outside, lo-1)
	}
	for _, seq := range outside {
		if _, err := sh.h.At(seq); !errors.Is(err, ErrEpochRetired) {
			m.failf("%s: At(%d) outside the window [%d, %d]: %v, want ErrEpochRetired", who, seq, lo, m.seq, err)
		}
	}
	held := map[uint64]bool{} // epochs past the window that a pin holds
	for _, p := range sh.pins {
		if p.e.seq < lo {
			held[p.e.seq] = true
		}
	}
	lc := sh.h.Lifecycle()
	want := LifecycleStats{RetainedEpochs: int(m.seq - lo + 1), LiveSnapshots: len(sh.pins),
		ReclaimedEpochs: int64(lo-sh.base) - int64(len(held)), FinalizedSnapshots: lc.FinalizedSnapshots}
	if lc != want {
		m.failf("%s: lifecycle %+v, the model %+v", who, lc, want)
	}
}

// race runs K readers against one handle while the writer applies a few
// batches. A reader's pinned snapshot, or At read, names the epoch its
// state, plans and prepared reads must match; a handle-level Execute must
// match an epoch current during the call.
func (m *sim) race() {
	sh := m.handles[m.rng.Intn(len(m.handles))]
	readers, batches := 2+m.rng.Intn(3), 2+m.rng.Intn(4)
	// matches: got is the oracle's run of one of plans at an epoch in [lo, hi].
	matches := func(got simRun, lo, hi uint64, plans ...Plan) bool {
		for seq := lo; seq <= hi; seq++ {
			if e := m.at(seq); e != nil && slices.ContainsFunc(plans, func(p Plan) bool { return e.run(p) == got }) {
				return true
			}
		}
		return false
	}
	read := func(i int) error {
		p, bound := m.s.plans[i%len(m.s.plans)], m.s.bounds[i%len(m.s.plans)]
		s := sh.h.Snapshot()
		if back := uint64(i / 2 % (m.retain + 1)); i%2 == 1 {
			// A point-in-time read; a retired epoch is a legal answer.
			seq := s.Epoch() - min(s.Epoch(), back)
			s.Close()
			var err error
			if s, err = sh.h.At(seq); errors.Is(err, ErrEpochRetired) {
				return nil
			} else if err == nil && s.Epoch() != seq {
				err = fmt.Errorf("served epoch %d", s.Epoch())
			}
			if err != nil {
				return fmt.Errorf("reader: At(%d): %v", seq, err)
			}
		}
		defer s.Close()
		e, who := m.at(s.Epoch()), fmt.Sprintf("reader, epoch %d", s.Epoch())
		if e == nil {
			return fmt.Errorf("%s: not in the played history", who)
		}
		if err := checkState(who, s, e); err != nil {
			return err
		}
		if err := checkRun(who, p, newRun(s.Execute(p)), e, bound); err != nil {
			return err
		}
		lo := epochOf(sh.h)
		if got := newRun(sh.h.Execute(p)); !matches(got, lo, epochOf(sh.h), p) {
			return fmt.Errorf("reader: handle Execute matches no epoch from %d: %d fetched, %s\nplan:\n%s", lo, got.fetched, got.rows, plan.Render(p))
		}
		if len(m.s.queries) > 0 {
			pq := m.s.queries[i%len(m.s.queries)]
			if got := newRun(pq.ExecuteOn(s)); !matches(got, e.seq, e.seq, pq.Candidates()...) {
				return fmt.Errorf("%s: prepared ExecuteOn matches no candidate: %d fetched, %s", who, got.fetched, got.rows)
			}
			lo := epochOf(sh.h)
			if got := newRun(pq.Execute(sh.h)); !matches(got, lo, epochOf(sh.h), pq.Candidates()...) {
				return fmt.Errorf("reader: prepared Execute matches no candidate at an epoch from %d: %d fetched, %s", lo, got.fetched, got.rows)
			}
		}
		return nil
	}
	var wg, ready sync.WaitGroup
	stop, errs := make(chan struct{}), make(chan error, readers)
	m.racing = true
	defer func() { // when the batches are in, or one failed
		close(stop)
		wg.Wait()
		m.racing = false
		select {
		case err := <-errs:
			m.failf("%v", err)
		default:
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i += readers {
				err := read(i)
				if i == r {
					ready.Done()
				}
				if err != nil {
					errs <- err
					return
				}
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond): // leave the writer a CPU
				}
			}
		}()
	}
	ready.Wait() // every reader has read once before the writer starts
	for b := 0; b < batches; b++ {
		m.apply()
	}
}

func (m *sim) draw(ps []int) int { return ps[m.rng.Intn(len(ps))] }

// reopenAs closes durable handle i cleanly or abandons it, reopens its
// directory at a drawn P, and checks what recovery did: a clean close
// replays nothing, an abandoned handle every batch since its last
// checkpoint.
func (m *sim) reopenAs(i int, abandon bool) {
	old := m.handles[i]
	sh := &simHandle{p: m.draw(m.cfg.reshards), dir: old.dir, ckpt: old.ckpt, since: old.since, sinceOps: old.sinceOps}
	m.opName = fmt.Sprintf("reopen: close P=%d, reopen at P=%d", old.p, sh.p)
	if abandon {
		m.opName = fmt.Sprintf("reopen: abandon P=%d, reopen at P=%d", old.p, sh.p)
		if sh.since > 0 {
			m.played["replay"]++
		}
	} else if m.must(old.h.Close()); sh.since > 0 {
		sh.ckpt, sh.since, sh.sinceOps = m.seq, 0, 0
	}
	h, err := m.s.sys.Open(NewDatabase(m.s.sys.Schema), m.options(sh.p, sh.dir)...)
	m.must(err)
	sh.h, sh.base, m.handles[i] = h, sh.ckpt, sh
	want := RecoveryInfo{CheckpointSeq: sh.ckpt, ReplayedEpochs: sh.since, ReplayedOps: sh.sinceOps}
	if got := h.(*Live).Recovery(); got != want {
		m.failf("recovery %+v, the model %+v", got, want)
	}
	if seq := epochOf(h); seq != m.seq {
		m.failf("reopened at epoch %d, the mirror at %d", seq, m.seq)
	}
	m.must(m.checkReader(fmt.Sprintf("P=%d", sh.p), h, h, m.cur(), nil))
}

// ---- crash mode ----

// simCrashLimit bounds the batches a crash child applies.
const simCrashLimit = 200

// TestCrashRecoveryDifferential plays a simulator run's batch stream in a
// child process (this test binary, re-run with SIM_CRASH_DIR set) and
// SIGKILLs it after an ack count drawn from the seed. The parent recovers
// the directory at the child's P: no acked batch may be lost, recovery
// must replay exactly the journal past its checkpoint, and the recovered
// state must equal the oracle's at the recovered epoch. The recovered
// handle then plays the op stream.
func TestCrashRecoveryDifferential(t *testing.T) {
	if os.Getenv("SIM_CRASH_DIR") != "" {
		simCrashChild(t)
	}
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	for _, p := range []int{1, 8} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			for _, seed := range simSeeds(t, []int64{1, 2}) {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { simCrash(t, p, seed) })
			}
		})
	}
}

// simCrashChild opens a fresh durable handle and applies the batch
// stream, acking each batch on stdout, until killed.
func simCrashChild(t *testing.T) {
	seed, err := strconv.ParseInt(os.Getenv("SIM_CRASH_SEED"), 10, 64)
	p, perr := strconv.Atoi(os.Getenv("SIM_CRASH_P"))
	var h Handle
	if err = errors.Join(err, perr); err == nil {
		m := newSim(t, simConfigs[seed%2*2], seed)
		if h, err = m.s.sys.Open(m.s.db.Clone(), m.options(p, os.Getenv("SIM_CRASH_DIR"))...); err == nil {
			for b := 1; b <= simCrashLimit && err == nil; b++ {
				if _, err = h.ApplyDelta(m.s.next()); err == nil {
					fmt.Println("acked", b)
				}
			}
		}
	}
	if err != nil {
		fmt.Println("child error:", err)
	}
	os.Exit(0)
}

func simCrash(t *testing.T, p int, seed int64) {
	m := newSim(t, simConfigs[seed%2*2], seed) // Sharded for odd seeds, random for even ones
	kill, dir := 1+m.rng.Intn(simCrashLimit/4), t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRecoveryDifferential$")
	cmd.Env = append(os.Environ(), "SIM_CRASH_DIR="+dir, "SIM_CRASH_P="+strconv.Itoa(p), "SIM_CRASH_SEED="+strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	m.must(err)
	m.must(cmd.Start())
	acked, child := 0, ""
	for sc := bufio.NewScanner(out); acked < kill && sc.Scan(); {
		if n, ok := strings.CutPrefix(sc.Text(), "acked "); ok {
			acked, _ = strconv.Atoi(n)
		} else if strings.HasPrefix(sc.Text(), "child error:") {
			child = sc.Text()
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	if acked < kill {
		m.failf("the child acked %d batches, the kill was armed at %d (%s)", acked, kill, child)
	}

	m.opName = fmt.Sprintf("recover after a kill at ack %d", acked)
	h, err := m.s.sys.Open(NewDatabase(m.s.sys.Schema), m.options(p, dir)...)
	m.must(err)
	sh := &simHandle{h: h, p: p, dir: dir}
	m.handles = append(m.handles, sh)
	recovered := epochOf(h)
	if recovered < uint64(acked) || recovered > simCrashLimit {
		m.failf("recovered epoch %d: acked %d of a %d-batch stream", recovered, acked, simCrashLimit)
	}
	for m.seq < recovered {
		if m.feed(); m.seq+uint64(m.retain) > recovered {
			m.epoch() // the window At reads
		}
	}
	rec := h.(*Live).Recovery()
	sh.ckpt, sh.base, sh.since = rec.CheckpointSeq, rec.CheckpointSeq, int(recovered-rec.CheckpointSeq)
	for _, n := range m.ops[rec.CheckpointSeq+1:] {
		sh.sinceOps += n
	}
	// A checkpoint lands every m.ckpt batches; a kill inside one leaves
	// the one before.
	ckptOK := rec.CheckpointSeq == 0
	if m.ckpt > 0 {
		ckptOK = rec.CheckpointSeq%uint64(m.ckpt) == 0 && sh.since <= m.ckpt
	}
	if !ckptOK || rec.ReplayedEpochs != sh.since || rec.ReplayedOps != sh.sinceOps {
		m.failf("recovery %+v at epoch %d, checkpoints every %d batches (%d ops since it)", rec, recovered, m.ckpt, sh.sinceOps)
	}
	m.check()
	m.run()
}
