package shard

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/schema"
)

// statsStore is the writer's one statistics store: per relation and view,
// its rows (copies included, for a relation) and, per column, the number
// of distinct rows holding each ID (the map sizes are the distinct
// counts). Seeded from the engines at Open, it folds in every batch's ops
// and 0↔positive transitions. Each count is a plain sum, so exact and the
// same at any P: all copies of a row live on one shard, a shard-local
// view's head fixes its shard (Partition.LocalView), and global views
// live in the global engine alone.
type statsStore struct {
	rels, views map[string]*colStats
}

type colStats struct {
	rows int
	cols []map[uint32]int32
}

// add moves the rows by n and the column counts by sign for a distinct
// row entering (+1) or leaving (-1) the set.
func (c *colStats) add(row []uint32, sign int32, n int) {
	c.rows += n
	for i, v := range row {
		if c.cols[i][v] += sign; sign < 0 && c.cols[i][v] == 0 {
			delete(c.cols[i], v)
		}
	}
}

func (c *colStats) distinct() []int {
	d := make([]int, len(c.cols))
	for i, m := range c.cols {
		d[i] = len(m)
	}
	return d
}

// seedStats builds the store from Open's rows, the shard engines'
// distinct rows and every view's pinned headers, walked chunk by chunk
// without flattening, one relation or view per task.
func (s *Sharded) seedStats(rows map[string][][]uint32, headers map[string][]eval.ExtentHeader) *statsStore {
	st := &statsStore{rels: make(map[string]*colStats), views: make(map[string]*colStats)}
	newCols := func(arity int) *colStats {
		c := &colStats{cols: make([]map[uint32]int32, arity)}
		for i := range c.cols {
			c.cols[i] = make(map[uint32]int32)
		}
		return c
	}
	var fills []func()
	for _, r := range s.schema.Relations {
		c := newCols(r.Arity())
		c.rows = len(rows[r.Name])
		st.rels[r.Name] = c
		fills = append(fills, func() {
			for _, sh := range s.shards {
				sh.eng.EachRow(r.Name, func(row []uint32, _ int) { c.add(row, +1, 0) })
			}
		})
	}
	for name, hs := range headers {
		c := newCols(s.views[name].Arity())
		st.views[name] = c
		fills = append(fills, func() {
			for _, h := range hs {
				h.Each(func(row []uint32) { c.add(row, +1, 1) })
			}
		})
	}
	par.ForEach(len(fills), func(i int) error { fills[i](); return nil })
	return st
}

// fold adds one engine's Apply of a: a's ops move relation row counts,
// and the transitions it reported move distinct counts and view rows and
// mark the views whose extents changed dirty. withRels is false for the
// global engine, whose base rows copy the shards'.
//
// A row's transitions within one Apply alternate in sign, and all of
// them come from the one engine that holds the row, so a view changed
// iff some row's signs do not sum to zero: a row that left and entered
// again (or entered and left) leaves its view's extent as it was.
func (st *statsStore) fold(a *instance.Applied, trans []eval.Transition, withRels bool, dirty map[string]bool) {
	if withRels {
		for _, op := range a.Deleted {
			st.rels[op.Rel].rows--
		}
		for _, op := range a.Inserted {
			st.rels[op.Rel].rows++
		}
	}
	var vt []eval.Transition
	for _, t := range trans {
		switch {
		case t.View:
			vt = append(vt, t)
			st.views[t.Name].add(t.Row, t.Sign, int(t.Sign))
		case withRels:
			st.rels[t.Name].add(t.Row, t.Sign, 0)
		}
	}
	slices.SortFunc(vt, func(x, y eval.Transition) int {
		return cmp.Or(strings.Compare(x.Name, y.Name), slices.Compare(x.Row, y.Row))
	})
	for i := 0; i < len(vt); {
		net, j := int32(0), i
		for ; j < len(vt) && vt[j].Name == vt[i].Name && slices.Equal(vt[j].Row, vt[i].Row); j++ {
			net += vt[j].Sign
		}
		if net != 0 {
			dirty[vt[i].Name] = true
		}
		i = j
	}
}

// stats returns the store's statistics in the cost model's form:
// O(#columns), no scan.
func (st *statsStore) stats(s *schema.Schema) *plan.Stats {
	out := &plan.Stats{
		RelRows:      make(map[string]int, len(st.rels)),
		RelDistinct:  make(map[string]map[string]int, len(st.rels)),
		ViewRows:     make(map[string]int, len(st.views)),
		ViewDistinct: make(map[string][]int, len(st.views)),
	}
	for _, r := range s.Relations {
		out.RelRows[r.Name] = st.rels[r.Name].rows
		out.RelDistinct[r.Name] = make(map[string]int, len(r.Attrs))
		for i, d := range st.rels[r.Name].distinct() {
			out.RelDistinct[r.Name][r.Attrs[i]] = d
		}
	}
	for name, c := range st.views {
		out.ViewRows[name] = c.rows
		out.ViewDistinct[name] = c.distinct()
	}
	return out
}
