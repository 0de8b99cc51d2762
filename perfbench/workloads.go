package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro"
	"repro/internal/cq"
	"repro/internal/plan"
	fx "repro/internal/workload"
)

// Workload sizes. They are fixed: a later change is measured against the
// same inputs (see README.md for why each workload exists).
const (
	fig1Rows    = 20_000 // persons = movies; |D| = 160 k with 5 likes each
	fig1Likes   = 5
	fig1N0      = 50 // ϕ1: movies per (studio, release)
	fig1NASA    = 10 // one person in ten is at NASA, so |V1| ≈ 7.9 k
	fig1Studios = 8  // the generator's defaults, named so the groups can be
	fig1Years   = 12 // enumerated
	fig1M       = 4  // System bound; ξ0 runs directly and needs no search
	shardUsers  = 25_000
	shardTxns   = 4 // per user, so |D| = 125 k
	shardNTxn   = 8
	pointShards = 8
	poolSize    = 32 // per-uid prepared queries: served by serve_point, read back by write_churn
	batchOps    = 256
	zipfS       = 1.1
	opSequence  = 1 << 16 // pre-drawn pool picks, cycled
)

// opResult is what one closed-loop operation produced: the rows of its
// read (the op itself on serving workloads, the read-back on write_churn),
// the answer they must equal, and its latencies.
type opResult struct {
	rows    [][]string
	want    [][]string
	fetched int
	lat     time.Duration // the whole operation (a batch on write_churn)
	read    time.Duration // its read
	err     error
}

// workload is one traffic mix. Only setup and op run on the clock;
// generate and reset build inputs and run before it starts.
type workload interface {
	// generate builds every input from the seed.
	generate(seed int64) error
	// reset prepares the next set-up repetition: it closes the previous
	// handle and gives the next one a fresh copy of the database.
	reset() error
	// setup makes the program's own set-up calls: NewSystem, the pool's
	// Prepare calls, Open and one warm-up operation.
	setup(tr *tracer, parent int64) error
	op(i int, tr *tracer, parent int64) opResult
	// checkEvery is k: one operation in k, chosen by sampled, has its
	// rows compared in full with the answer EvalDirect gives on a mirror
	// database.
	checkEvery() int
	// dropInputs releases the generated inputs once the timed phase is
	// over, so the heap reading holds the engine's state only.
	dropInputs()
	// layers returns what the traced run's layer probes need.
	layers(tr *tracer) (*layerTarget, error)
	close()
}

func newWorkload(name, dir string, traced bool) (workload, error) {
	switch name {
	case "serve_fig1":
		return &serveFig1{traced: traced, dir: dir}, nil
	case "serve_point":
		return &servePoint{traced: traced, dir: dir}, nil
	case "write_churn":
		return &writeChurn{traced: traced, dir: dir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve_fig1, serve_point or write_churn)", name)
}

// timeCall times f, records it as a span and returns its duration.
func timeCall(tr *tracer, name spanName, op, parent int64, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	tr.record(name, op, parent, t0, t1)
	return t1.Sub(t0)
}

// oracle is a System without views: EvalDirect then evaluates a query by
// full scans of the base relations, independently of the view
// maintenance the served plans read.
func oracle(s *repro.Schema, a *repro.AccessSchema) (*repro.System, error) {
	return repro.NewSystem(s, a, nil, 1)
}

// pickDistinct draws n distinct integers in [0, below).
func pickDistinct(rng *rand.Rand, n, below int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		u := rng.Intn(below)
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// prepareAll prepares one point query per uid, each as a cold search.
func prepareAll(sys *repro.System, qs []*repro.UCQ, tr *tracer, parent int64) ([]*repro.PreparedQuery, error) {
	pool := make([]*repro.PreparedQuery, len(qs))
	for j, q := range qs {
		var err error
		timeCall(tr, spPrepareCold, int64(j), parent, func() { pool[j], err = sys.Prepare(q, repro.LangCQ) })
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", q.Disjuncts[0].Name, err)
		}
	}
	return pool, nil
}

// engine is the state every workload sets up the same way. Each set-up
// opens a fresh copy of the generated database: NewSystem, a cold Prepare
// of each pool query, Open and one warm-up operation.
type engine struct {
	schema  *repro.Schema
	access  *repro.AccessSchema
	views   map[string]*repro.UCQ
	bound   int          // the System's M
	queries []*repro.UCQ // the pool, prepared by each set-up
	base    *repro.Database

	db   *repro.Database // copy the next set-up opens
	sys  *repro.System
	pool []*repro.PreparedQuery
	h    repro.Handle
}

func (e *engine) reset() error {
	e.close()
	e.db = e.base.Clone()
	return nil
}

// setUp makes the set-up calls. opts open the handle, and warm is the
// workload's operation, run once as operation 0.
func (e *engine) setUp(tr *tracer, parent int64, warm func(int, *tracer, int64) opResult, opts ...repro.OpenOption) error {
	var err error
	timeCall(tr, spNewSystem, 0, parent, func() { e.sys, err = repro.NewSystem(e.schema, e.access, e.views, e.bound) })
	if err != nil {
		return err
	}
	if e.pool, err = prepareAll(e.sys, e.queries, tr, parent); err != nil {
		return err
	}
	timeCall(tr, spOpen, 0, parent, func() { e.h, err = e.sys.Open(e.db, opts...) })
	e.db = nil
	if err != nil {
		return err
	}
	var res opResult
	timeCall(tr, spWarmup, 0, parent, func() { res = warm(0, nil, 0) })
	return res.err
}

func (e *engine) close() {
	if e.h != nil {
		e.h.Close()
		e.h = nil
	}
}

// ---------------------------------------------------------------------
// serve_fig1: Handle.Execute of the paper's Figure 1 plan ξ0, over a pool
// of (studio, release) groups.

// fig1Group is ξ0 and Q0 with the constants of one (studio, release)
// group in place of ("Universal", "2014").
type fig1Group struct {
	studio, release string
	plan            repro.Plan
	query           *repro.UCQ
	want            [][]string
}

// fig1For rewrites ξ0 and Q0 for one group: the plan shape, its fetch
// bound (2·N0) and the view it scans stay those of Figure 1.
func fig1For(m *fx.Movies, studio, release string) fig1Group {
	sub := map[string]string{"Universal": studio, "2014": release}
	p := m.Fig1Plan()
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if c, ok := n.(*plan.Const); ok {
			if v, ok := sub[c.Val]; ok {
				c.Val = v
			}
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(p)
	atoms := make([]cq.Atom, len(m.Q0.Atoms))
	for i, a := range m.Q0.Atoms {
		args := slices.Clone(a.Args)
		for k, t := range args {
			if v, ok := sub[t.Val]; ok && t.Const {
				args[k].Val = v
			}
		}
		atoms[i] = cq.NewAtom(a.Rel, args...)
	}
	return fig1Group{studio: studio, release: release, plan: p, query: cq.NewUCQ(cq.NewCQ(m.Q0.Head, atoms))}
}

type serveFig1 struct {
	engine // no pool: ξ0 runs without a search
	traced bool
	dir    string
	m      *fx.Movies
	groups []fig1Group // groups[0] is the paper's ("Universal", "2014")
	seq    []uint8     // group of each operation, cycled

	probe *writeProbe // traced runs only
}

func (w *serveFig1) generate(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.m = fx.NewMovies(fig1N0)
	w.engine = engine{schema: w.m.Schema, access: w.m.Access, views: w.m.Views(), bound: fig1M}
	w.base = w.m.Generate(fx.MoviesParams{
		Persons: fig1Rows, Movies: fig1Rows, LikesPerPerson: fig1Likes, NASAShare: fig1NASA,
		Studios: fig1Studios, Years: fig1Years, Seed: seed,
	})
	o, err := oracle(w.m.Schema, w.m.Access)
	if err != nil {
		return err
	}
	// Every one of the fig1Studios × fig1Years groups holds N0 movies:
	// the generator fills them all before it opens overflow studios.
	picks := []int{0}
	for _, k := range pickDistinct(rng, poolSize-1, fig1Studios*fig1Years-1) {
		picks = append(picks, k+1)
	}
	for _, k := range picks {
		g := fig1For(w.m, studioName(k/fig1Years), yearName(k%fig1Years))
		rows, err := o.EvalDirect(g.query, w.base)
		if err != nil {
			return err
		}
		g.want = rows
		w.groups = append(w.groups, g)
	}
	w.seq = make([]uint8, opSequence)
	for i := range w.seq {
		w.seq[i] = uint8(rng.Intn(poolSize))
	}
	if w.traced {
		ch := fx.NewChurn(w.m, w.base, fx.ChurnParams{Seed: seed + 1})
		w.probe = newWriteProbe(w.dir, w.base, func() ([]repro.Op, []repro.Op) { return ch.Batch(batchOps) })
	}
	return nil
}

// studioName and yearName name the generator's groups (Universal and
// 2014 first).
func studioName(i int) string {
	if i == 0 {
		return "Universal"
	}
	return fmt.Sprintf("Studio%d", i)
}

func yearName(i int) string {
	if i == 0 {
		return "2014"
	}
	return fmt.Sprintf("%d", 2000+i)
}

func (w *serveFig1) setup(tr *tracer, parent int64) error { return w.setUp(tr, parent, w.op) }

func (w *serveFig1) checkEvery() int { return 16 }
func (w *serveFig1) dropInputs()     { w.seq, w.base = nil, nil }

func (w *serveFig1) op(i int, tr *tracer, parent int64) opResult {
	g := &w.groups[w.seq[i%len(w.seq)]]
	var r opResult
	r.lat = timeCall(tr, spHandleExec, int64(i), parent, func() { r.rows, r.fetched, r.err = w.h.Execute(g.plan) })
	r.read, r.want = r.lat, g.want
	return r
}

// ---------------------------------------------------------------------
// serve_point: PreparedQuery.Execute of Zipf-picked per-uid point queries
// on a P = 8 sharded handle.

// uidPool is the uids of poolSize per-uid point queries on the Sharded
// fixture: serve_point serves them, write_churn reads them back.
type uidPool struct {
	sh   *fx.Sharded
	uids []string
}

// newUIDPool draws the pool's uids and returns them with the engine that
// prepares their queries over the Sharded fixture's generated database.
func newUIDPool(rng *rand.Rand, seed int64) (uidPool, engine) {
	p := uidPool{sh: fx.NewSharded(shardNTxn)}
	e := engine{schema: p.sh.Schema, access: p.sh.Access, views: p.sh.Views(), bound: p.sh.M}
	for _, u := range pickDistinct(rng, poolSize, shardUsers) {
		uid := p.sh.UID(u)
		p.uids = append(p.uids, uid)
		e.queries = append(e.queries, cq.NewUCQ(p.sh.Query(uid)))
	}
	e.base = p.sh.Generate(shardUsers, shardTxns, seed)
	return p, e
}

// execTargets adds each pool query's selected plan and its one fetch, on
// the txn constraint, to the layer probes' targets.
func (p *uidPool) execTargets(lt *layerTarget) {
	var views []float64
	for j, pq := range lt.pool {
		sel := selectedPlan(pq, lt.h)
		lt.execs = append(lt.execs, execTarget{plan: sel, fetches: []fetchProbe{{c: p.sh.Txn, xval: repro.Tuple{p.uids[j]}}}})
		views = append(views, float64(viewRowsOf(sel, lt.h)))
	}
	lt.viewRows = mean(views)
}

type servePoint struct {
	engine
	uidPool
	traced bool
	dir    string
	wants  [][][]string
	seq    []uint8 // pool index of each operation, cycled

	probe *writeProbe
}

func (w *servePoint) generate(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.uidPool, w.engine = newUIDPool(rng, seed)
	o, err := oracle(w.sh.Schema, w.sh.Access)
	if err != nil {
		return err
	}
	for _, q := range w.queries {
		rows, err := o.EvalDirect(q, w.base)
		if err != nil {
			return err
		}
		w.wants = append(w.wants, rows)
	}
	z := rand.NewZipf(rng, zipfS, 1, poolSize-1)
	w.seq = make([]uint8, opSequence)
	for i := range w.seq {
		w.seq[i] = uint8(z.Uint64())
	}
	if w.traced {
		ch := w.sh.NewChurn(w.base, seed+1)
		w.probe = newWriteProbe(w.dir, w.base, func() ([]repro.Op, []repro.Op) { return ch.Batch(batchOps) }, repro.WithShards(pointShards))
	}
	return nil
}

func (w *servePoint) setup(tr *tracer, parent int64) error {
	return w.setUp(tr, parent, w.op, repro.WithShards(pointShards))
}

func (w *servePoint) checkEvery() int { return 1024 }
func (w *servePoint) dropInputs()     { w.seq, w.base = nil, nil }

func (w *servePoint) op(i int, tr *tracer, parent int64) opResult {
	j := w.seq[i%len(w.seq)]
	var r opResult
	r.lat = timeCall(tr, spPreparedExec, int64(i), parent, func() { r.rows, r.fetched, r.err = w.pool[j].Execute(w.h) })
	r.read, r.want = r.lat, w.wants[j]
	return r
}

// ---------------------------------------------------------------------
// write_churn: durable P = 1 handle fed ShardedChurn batches, each
// followed by one prepared point read-back.

// churnHalf is how many ShardedChurn batches write_churn generates. The
// loop applies them in order and then their inverses in reverse order,
// so every 2·churnHalf batches the database is back in its generated
// state. The run therefore measures one stationary state, whatever its
// length or the host's speed: without the inverses, |D| grew with every
// batch and a slower host measured a smaller database.
const churnHalf = 64

type writeChurn struct {
	engine
	uidPool
	traced bool
	dir    string

	// Inputs per position of the cycle: the batch, which pool query reads
	// back after it, and the read-back's expected answer.
	ins, dels [][]repro.Op
	reads     []int
	wants     [][][]string

	walDir string
	reps   int
	deltas []repro.DeltaStats // traced runs only: the layer metrics read them
}

// generate draws the churn batches, appends their inverses and applies
// the whole cycle to a mirror database, recording after each batch the
// read-back's expected answer from EvalDirect on the mirror.
func (w *writeChurn) generate(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.uidPool, w.engine = newUIDPool(rng, seed)
	o, err := oracle(w.sh.Schema, w.sh.Access)
	if err != nil {
		return err
	}
	churn := w.sh.NewChurn(w.base, seed+1)
	for n := 0; n < churnHalf; n++ {
		ins, dels := churn.Batch(batchOps)
		w.ins, w.dels = append(w.ins, ins), append(w.dels, dels)
	}
	for n := churnHalf - 1; n >= 0; n-- {
		// Deletes apply first, so the inverse removes the batch's inserts
		// before it restores the rows the batch deleted.
		w.ins, w.dels = append(w.ins, w.dels[n]), append(w.dels, w.ins[n])
	}
	mirror := w.base.Clone()
	for i := range w.ins {
		if _, err := mirror.ApplyDelta(w.ins[i], w.dels[i]); err != nil {
			return fmt.Errorf("mirror batch %d: %w", i, err)
		}
		j := rng.Intn(poolSize)
		want, err := o.EvalDirect(w.queries[j], mirror)
		if err != nil {
			return err
		}
		w.reads, w.wants = append(w.reads, j), append(w.wants, want)
	}
	if mirror.Size() != w.base.Size() {
		return fmt.Errorf("churn cycle ends at |D| = %d, not the generated %d", mirror.Size(), w.base.Size())
	}
	return nil
}

// reset also gives the next set-up an empty write-ahead log directory
// and removes the previous one.
func (w *writeChurn) reset() error {
	w.close()
	if err := os.RemoveAll(w.walDir); err != nil {
		return err
	}
	w.db = w.base.Clone()
	w.deltas = w.deltas[:0]
	w.reps++
	w.walDir = filepath.Join(w.dir, fmt.Sprintf("wal-%d", w.reps))
	return os.RemoveAll(w.walDir)
}

func (w *writeChurn) setup(tr *tracer, parent int64) error {
	return w.setUp(tr, parent, w.op, repro.WithDurability(w.walDir))
}

func (w *writeChurn) checkEvery() int { return 1 } // every read-back; a batch takes milliseconds

// op applies the batch at operation i's position in the cycle and reads
// back one pooled query. Operation 0 is the set-up's warm-up; the timed
// loop starts at 1.
func (w *writeChurn) op(i int, tr *tracer, parent int64) opResult {
	p := i % len(w.ins)
	var r opResult
	var st repro.DeltaStats
	r.lat = timeCall(tr, spApply, int64(i), parent, func() { st, r.err = w.h.ApplyDelta(w.ins[p], w.dels[p]) })
	if r.err != nil {
		return r
	}
	if w.traced {
		w.deltas = append(w.deltas, st)
	}
	j := w.reads[p]
	r.read = timeCall(tr, spReadback, int64(i), parent, func() { r.rows, r.fetched, r.err = w.pool[j].Execute(w.h) })
	r.want = w.wants[p]
	return r
}

func (w *writeChurn) dropInputs() {
	w.ins, w.dels, w.reads, w.wants, w.base = nil, nil, nil, nil, nil
}

// xvalOf orders named values like the constraint's X attributes.
func xvalOf(c *repro.Constraint, vals map[string]string) repro.Tuple {
	x := make(repro.Tuple, len(c.X))
	for i, a := range c.X {
		x[i] = vals[a]
	}
	return x
}

// fig1ProbeQueries are point queries on ϕ2 (one movie's rating). ξ0 runs
// without a search, so serve_fig1's traced run measures the prepare layer
// on these, over the same System and handle.
func fig1ProbeQueries() []*repro.UCQ {
	qs := make([]*repro.UCQ, 8)
	for j := range qs {
		q := cq.NewCQ([]cq.Term{cq.Var("r")}, []cq.Atom{cq.NewAtom("rating", cq.Cst(fmt.Sprintf("m%d", j*2477)), cq.Var("r"))})
		q.Name = fmt.Sprintf("R%d", j)
		qs[j] = cq.NewUCQ(q)
	}
	return qs
}

func (w *serveFig1) layers(tr *tracer) (*layerTarget, error) {
	lt := &layerTarget{sys: w.sys, h: w.h, flat: w.h, loop: w.h.Metrics()}
	inV1 := map[string]bool{}
	for _, r := range w.h.Views()["V1"] {
		inV1[r[0]] = true
	}
	s := w.h.Snapshot()
	defer s.Close()
	phi1 := w.m.Phi1
	attrs := slices.Sorted(slices.Values(append(slices.Clone(phi1.X), phi1.Y...)))
	midPos := slices.Index(attrs, "mid")
	var views []float64
	for _, g := range w.groups {
		// ξ0 fetches ϕ1 on the group's (studio, release), then ϕ2 on each
		// fetched mid that V1 holds.
		x := xvalOf(phi1, map[string]string{"studio": g.studio, "release": g.release})
		rows, err := s.Fetch(phi1, x)
		if err != nil {
			return nil, err
		}
		ex := execTarget{plan: g.plan, fetches: []fetchProbe{{c: phi1, xval: x}}}
		for _, r := range rows {
			if inV1[r[midPos]] {
				ex.fetches = append(ex.fetches, fetchProbe{c: w.m.Phi2, xval: repro.Tuple{r[midPos]}})
			}
		}
		lt.execs = append(lt.execs, ex)
		views = append(views, float64(viewRowsOf(g.plan, w.h)))
	}
	lt.viewRows = mean(views)
	lt.queries = fig1ProbeQueries()
	var err error
	if lt.pool, err = prepareAll(w.sys, lt.queries, tr, 0); err != nil {
		return nil, err
	}
	lt.writes, err = w.probe.run(w.sys)
	return lt, err
}

func (w *servePoint) layers(tr *tracer) (*layerTarget, error) {
	lt := &layerTarget{sys: w.sys, h: w.h, pool: w.pool, queries: w.queries, loop: w.h.Metrics()}
	flat, err := w.sys.Open(w.base.Clone())
	if err != nil {
		return nil, err
	}
	lt.flat = flat
	w.execTargets(lt)
	lt.writes, err = w.probe.run(w.sys)
	return lt, err
}

func (w *writeChurn) layers(tr *tracer) (*layerTarget, error) {
	lt := &layerTarget{sys: w.sys, h: w.h, flat: w.h, pool: w.pool, queries: w.queries, loop: w.h.Metrics()}
	w.execTargets(lt)
	lt.writes = writeSource{deltas: w.deltas, met: lt.loop, lc: w.h.Lifecycle()}
	return lt, nil
}
