// Package eval is the direct query-evaluation engine: it computes Q(D) by
// scanning and joining full relations, the way an engine without access
// constraints must. It serves two roles: (1) the baseline that bounded
// plans are compared against in the experiments, and (2) the reference
// semantics for correctness tests of plans and rewritings.
//
// CQ/UCQ evaluation uses constant pushdown and left-deep hash joins over
// interned rows: every value is a dense uint32 ID from the database
// dictionary, join keys are 64-bit hashes of packed ID rows, and strings
// reappear only at the API boundary. UCQ disjuncts and view
// materialization run on the bounded worker pool of internal/par. FO
// evaluation is structural over safe-range formulas (RANF-style): positive
// conjuncts are joined first, comparisons filter or extend, negated
// conjuncts anti-join, disjuncts union, quantifiers project.
package eval

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cq"
	"repro/internal/fo"
	"repro/internal/instance"
	"repro/internal/intern"
	"repro/internal/par"
)

// Source resolves relation (or view) names to row sets. It carries the
// interning state of one evaluation context; the zero value with DB and/or
// Views set is ready to use, and one Source may be shared by concurrent
// evaluations.
type Source struct {
	DB    *instance.Database
	Views map[string][][]string

	mu      sync.Mutex
	dict    *intern.Dict
	viewIDs *intern.RowCache
}

// Rows returns the rows of a relation or materialized view as strings.
func (s *Source) Rows(rel string) ([][]string, bool) {
	if s.DB != nil {
		if t := s.DB.Table(rel); t != nil {
			rows := make([][]string, len(t.Tuples))
			for i, tu := range t.Tuples {
				rows[i] = tu
			}
			return rows, true
		}
	}
	if s.Views != nil {
		if rows, ok := s.Views[rel]; ok {
			return rows, true
		}
	}
	return nil, false
}

// Dict returns the interning dictionary of this evaluation context: the
// database's when present, a private one otherwise.
func (s *Source) Dict() *intern.Dict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dictLocked()
}

func (s *Source) dictLocked() *intern.Dict {
	if s.dict == nil {
		if s.DB != nil && s.DB.Dict != nil {
			s.dict = s.DB.Dict
		} else {
			s.dict = intern.NewDict()
		}
	}
	return s.dict
}

// IDRows returns the ID-encoded rows of a relation or view. View extents
// are interned once per Source and cached. The result must not be mutated.
func (s *Source) IDRows(rel string) ([][]uint32, bool) {
	if s.DB != nil {
		if t := s.DB.Table(rel); t != nil {
			return t.IDRows(), true
		}
	}
	if s.Views != nil {
		if rows, ok := s.Views[rel]; ok {
			s.mu.Lock()
			if s.viewIDs == nil {
				s.viewIDs = intern.NewRowCache(s.dictLocked())
			}
			cache := s.viewIDs
			s.mu.Unlock()
			return cache.Encode(rel, rows), true
		}
	}
	return nil, false
}

// relSize returns the row count of a relation or view without
// materializing anything, for the atom-ordering heuristic.
func (s *Source) relSize(rel string) (int, bool) {
	if s.DB != nil {
		if t := s.DB.Table(rel); t != nil {
			return t.Len(), true
		}
	}
	if rows, ok := s.Views[rel]; ok {
		return len(rows), true
	}
	return 0, false
}

// CQOnDB evaluates a conjunctive query over the source with set semantics.
func CQOnDB(q *cq.CQ, src *Source) ([][]string, error) {
	rows, err := cqIDRows(q, src)
	if err != nil {
		return nil, err
	}
	return src.Dict().DecodeAll(rows), nil
}

// cqIDRows is the interned CQ pipeline: it returns the distinct ID-encoded
// head rows of q over src.
func cqIDRows(q *cq.CQ, src *Source) ([][]uint32, error) {
	n, err := q.Normalize()
	if err != nil {
		return nil, nil // unsatisfiable
	}
	d := src.Dict()
	if len(n.Atoms) == 0 {
		// Pure constant query: the head must be all-constant.
		row := make([]uint32, len(n.Head))
		for i, t := range n.Head {
			if !t.Const {
				return nil, fmt.Errorf("eval: unsafe query, unbound head variable %s", t.Val)
			}
			row[i] = d.ID(t.Val)
		}
		return [][]uint32{row}, nil
	}
	atoms := orderAtoms(n.Atoms, src)

	// Bindings are ID rows over varOrder.
	var varOrder []string
	varPos := map[string]int{}
	bindings := [][]uint32{{}}

	for _, at := range atoms {
		rows, ok := src.IDRows(at.Rel)
		if !ok {
			return nil, fmt.Errorf("eval: unknown relation %s", at.Rel)
		}
		// Classify argument positions.
		consts := make([]uint32, len(at.Args)) // interned constant per position
		var joinAtom []int                     // atom positions of already-bound variables
		var joinBind []int                     // matching binding positions
		var selfAtom, selfFirst []int          // intra-atom repeated new variables
		var newUses []varUse                   // first occurrence of a variable in this atom
		newSeen := map[string]int{}
		for i, t := range at.Args {
			if t.Const {
				consts[i] = d.ID(t.Val)
				continue
			}
			if p, bound := varPos[t.Val]; bound {
				joinAtom = append(joinAtom, i)
				joinBind = append(joinBind, p)
			} else if p, dup := newSeen[t.Val]; dup {
				// Repeated new variable within the atom: equality filter.
				selfAtom = append(selfAtom, i)
				selfFirst = append(selfFirst, p)
			} else {
				newSeen[t.Val] = i
				newUses = append(newUses, varUse{i, t.Val})
			}
		}
		// Filter rows by constants and intra-atom repeats, index by join
		// key. No size hint: constants typically filter most rows away,
		// and presizing to the unfiltered count would dominate the cost.
		var kept [][]uint32
	rowLoop:
		for _, r := range rows {
			if len(r) != len(at.Args) {
				continue
			}
			for i, t := range at.Args {
				if t.Const && r[i] != consts[i] {
					continue rowLoop
				}
			}
			for k, i := range selfAtom {
				if r[i] != r[selfFirst[k]] {
					continue rowLoop
				}
			}
			kept = append(kept, r)
		}
		index := intern.NewFlatIndex(kept, joinAtom)
		// Extend bindings.
		next := make([][]uint32, 0, len(bindings))
		var match [][]uint32
		for _, b := range bindings {
			match = index.Lookup(b, joinBind, match[:0])
			for _, r := range match {
				nb := make([]uint32, len(b), len(b)+len(newUses))
				copy(nb, b)
				for _, nu := range newUses {
					nb = append(nb, r[nu.pos])
				}
				next = append(next, nb)
			}
		}
		for _, nu := range newUses {
			varPos[nu.name] = len(varOrder)
			varOrder = append(varOrder, nu.name)
		}
		bindings = next
		if len(bindings) == 0 {
			return nil, nil
		}
	}

	// Project the head.
	headPos := make([]int, len(n.Head))
	headConst := make([]uint32, len(n.Head))
	for i, t := range n.Head {
		if t.Const {
			headPos[i] = -1
			headConst[i] = d.ID(t.Val)
			continue
		}
		p, ok := varPos[t.Val]
		if !ok {
			return nil, fmt.Errorf("eval: unsafe query, unbound head variable %s", t.Val)
		}
		headPos[i] = p
	}
	var seen intern.RowSet
	for _, b := range bindings {
		row := make([]uint32, len(n.Head))
		for i, p := range headPos {
			if p < 0 {
				row[i] = headConst[i]
			} else {
				row[i] = b[p]
			}
		}
		seen.Add(row)
	}
	return seen.Rows, nil
}

// varUse records that an atom argument position uses a named variable.
type varUse struct {
	pos  int
	name string
}

// orderAtoms greedily orders atoms to maximize already-bound variables and
// prefer smaller relations, the same heuristic as the containment engine.
func orderAtoms(atoms []cq.Atom, src *Source) []cq.Atom {
	remaining := append([]cq.Atom(nil), atoms...)
	bound := map[string]bool{}
	var out []cq.Atom
	for len(remaining) > 0 {
		best, bestScore := -1, -1<<60
		for i, a := range remaining {
			score := 0
			for _, t := range a.Args {
				if t.Const || bound[t.Val] {
					score += 1 << 20
				}
			}
			if n, ok := src.relSize(a.Rel); ok {
				score -= n
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		a := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, t := range a.Args {
			if !t.Const {
				bound[t.Val] = true
			}
		}
		out = append(out, a)
	}
	return out
}

// UCQOnDB evaluates a union of conjunctive queries with set semantics. The
// disjuncts are evaluated concurrently on the worker pool; the result is
// merged in disjunct order, so output order is deterministic.
func UCQOnDB(u *cq.UCQ, src *Source) ([][]string, error) {
	results := make([][][]uint32, len(u.Disjuncts))
	err := par.ForEach(len(u.Disjuncts), func(i int) error {
		rows, err := cqIDRows(u.Disjuncts[i], src)
		results[i] = rows
		return err
	})
	if err != nil {
		return nil, err
	}
	var seen intern.RowSet
	for _, rows := range results {
		for _, r := range rows {
			seen.Add(r)
		}
	}
	return src.Dict().DecodeAll(seen.Rows), nil
}

// Materialize computes the extents of a set of views (UCQ definitions) over
// the database, for caching as plan inputs. The views are evaluated
// concurrently on the worker pool.
func Materialize(views map[string]*cq.UCQ, db *instance.Database) (map[string][][]string, error) {
	names := make([]string, 0, len(views))
	for name := range views {
		names = append(names, name)
	}
	sort.Strings(names)
	src := &Source{DB: db}
	extents := make([][][]string, len(names))
	err := par.ForEach(len(names), func(i int) error {
		rows, err := UCQOnDB(views[names[i]], src)
		if err != nil {
			return fmt.Errorf("eval: view %s: %w", names[i], err)
		}
		extents[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][][]string, len(names))
	for i, name := range names {
		out[name] = extents[i]
	}
	return out, nil
}

var _ = fo.Query{} // fo evaluation lives in fo_eval.go
