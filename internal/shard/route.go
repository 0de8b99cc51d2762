// Package shard is the serving engine behind the facade's Live handle: an
// ID-encoded instance is hash-partitioned into P shards, each owning its own
// versioned fetch indices (instance.VIndex), incremental view-maintenance
// engine with its join indexes (eval.DeltaEngine over intern.DynIndex) and
// materialized-view partitions; the writer keeps one statistics store,
// which counts each value once, so the statistics every epoch publishes
// are exact and the same at any P. Plan execution is scatter-gather — a
// fetch whose access constraint binds the partition key routes to the
// single owning shard, everything else gathers across shards and dedups —
// and batched deltas are routed per shard and maintained concurrently on
// the internal/par pool. Every batch publishes
// one immutable, cross-shard-consistent Epoch that readers use without
// locks; its views are plan.ViewVersions, and only the views the batch
// changed get new ones, so every other view keeps its rows and join
// indices. The engine speaks interned IDs only, and one code path serves
// every shard count, P = 1 (the default) included.
//
// The paper's scale-independence story composes with partitioning: a
// bounded plan touches cached views plus a constant-size slice of D, and
// the partitioning rule keeps every routed fetch a single-shard point
// read, so |Dξ| does not grow with the shard count.
package shard

import (
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/intern"
	"repro/internal/schema"
)

// shardOf places rows, fetch keys and view rows alike: the HashAt of
// their partition value IDs, mixed by 2^64/φ the way intern.FlatIndex
// buckets it, scaled to [0, p) by a multiply-high.
func shardOf(h uint64, p int) int {
	hi, _ := bits.Mul64(h*0x9E3779B97F4A7C15, uint64(p))
	return int(hi)
}

// relRoute is one relation's partitioning rule: rows are placed by the
// hash of their projection onto Attrs (sorted attribute order).
type relRoute struct {
	Attrs []string // partition attributes, sorted
	Pos   []int    // their positions in the relation
}

// conRoute is the routing decision for one access constraint: when the
// constraint's X covers the relation's partition attributes, a fetch for
// an X-value is answered entirely by one shard and XPos gives the
// positions of the partition attributes within the X-value (c.X order);
// otherwise the fetch broadcasts to every shard and gathers.
type conRoute struct {
	XPos []int // nil => broadcast
}

// Partition is the routing metadata of one sharded instance: the number of
// shards, the per-relation partitioning rule and the per-constraint fetch
// route. It is immutable after construction.
type Partition struct {
	P    int
	rels map[string]*relRoute
	cons map[string]*conRoute
}

// NewPartition derives the partitioning rule from the schema and access
// schema. Per relation the partition attributes are chosen among the
// non-empty X-sets of its access constraints — the set covered by the most
// constraints wins (ties: fewer attributes, then lexicographic), so as
// many fetches as possible become single-shard point reads. A relation
// with no usable constraint partitions by its full row; every fetch on it
// broadcasts.
func NewPartition(s *schema.Schema, a *access.Schema, p int) *Partition {
	pt := &Partition{P: p, rels: make(map[string]*relRoute), cons: make(map[string]*conRoute)}
	for _, r := range s.Relations {
		attrs := choosePartitionAttrs(r, a.OnRelation(r.Name))
		pos, err := r.Positions(attrs)
		if err != nil {
			// Attrs come from validated constraints or the relation itself;
			// fall back to the full row on the impossible path.
			attrs = append([]string(nil), r.Attrs...)
			sort.Strings(attrs)
			pos, _ = r.Positions(attrs)
		}
		pt.rels[r.Name] = &relRoute{Attrs: attrs, Pos: pos}
	}
	for _, c := range a.Constraints {
		rr := pt.rels[c.Rel]
		if rr == nil {
			continue
		}
		route := &conRoute{}
		if covered, xpos := subsetPositions(rr.Attrs, c.X); covered {
			route.XPos = xpos
		}
		pt.cons[c.Key()] = route
	}
	return pt
}

// choosePartitionAttrs picks the partition attribute set for one relation.
func choosePartitionAttrs(r *schema.Relation, cons []*access.Constraint) []string {
	type cand struct {
		attrs []string
		key   string
		score int
	}
	byKey := map[string]*cand{}
	for _, c := range cons {
		if len(c.X) == 0 {
			continue
		}
		k := strings.Join(c.X, "\x1f")
		if _, ok := byKey[k]; !ok {
			byKey[k] = &cand{attrs: c.X, key: k}
		}
	}
	if len(byKey) == 0 {
		attrs := append([]string(nil), r.Attrs...)
		sort.Strings(attrs)
		return attrs
	}
	for _, cd := range byKey {
		for _, c := range cons {
			if ok, _ := subsetPositions(cd.attrs, c.X); ok {
				cd.score++
			}
		}
	}
	var best *cand
	for _, cd := range byKey {
		switch {
		case best == nil,
			cd.score > best.score,
			cd.score == best.score && len(cd.attrs) < len(best.attrs),
			cd.score == best.score && len(cd.attrs) == len(best.attrs) && cd.key < best.key:
			best = cd
		}
	}
	return best.attrs
}

// subsetPositions reports whether sub ⊆ super (both sorted, deduplicated)
// and returns the position of each sub element within super.
func subsetPositions(sub, super []string) (bool, []int) {
	pos := make([]int, len(sub))
	for i, a := range sub {
		j := sort.SearchStrings(super, a)
		if j >= len(super) || super[j] != a {
			return false, nil
		}
		pos[i] = j
	}
	return true, pos
}

// ShardOfIDs returns the shard owning an ID-encoded row of the named
// relation: the one its partition values hash to.
func (pt *Partition) ShardOfIDs(rel string, row []uint32) int {
	return shardOf(intern.HashAt(row, pt.rels[rel].Pos), pt.P)
}

// Route returns the fetch route of a constraint (nil for unknown ones).
func (pt *Partition) Route(c *access.Constraint) *conRoute { return pt.cons[c.Key()] }

// ViewKey names the shard of a shard-local view's row: per partition
// value of the base rows deriving it, the head position holding it, or at
// Pos[j] = -1 the constant Const[j]. It hashes like those rows.
type ViewKey struct {
	Pos   []int
	Const []string
}

// LocalView reports whether a UCQ view is maintained shard-locally, and
// with which shard key: every satisfiable disjunct, normalized, binds the
// partition attributes of all its atoms to one term sequence (a valuation
// reads one shard), and each term is a constant or a head variable placed
// alike in every disjunct (the head row fixes that shard). Then V(D) is
// the disjoint union of the V(D_p) and per-shard counts sum exactly.
// Anything else, such as a projection or Boolean view that drops the key,
// is maintained globally. With one partition every view is local, under
// the empty key: the one shard derives every row.
func (pt *Partition) LocalView(def *cq.UCQ) (ViewKey, bool) {
	var key ViewKey
	if pt.P == 1 {
		return key, true
	}
	for _, d := range def.Disjuncts {
		n, err := d.Normalize()
		if err != nil {
			continue // unsatisfiable: contributes nothing on any shard
		}
		if len(n.Atoms) == 0 {
			return ViewKey{}, false // derived on every shard
		}
		var sig []cq.Term
		for i, at := range n.Atoms {
			rr := pt.rels[at.Rel]
			if rr == nil || len(at.Args) < len(rr.Pos) {
				return ViewKey{}, false // unknown relation / malformed atom: play safe
			}
			s := make([]cq.Term, len(rr.Pos))
			for j, p := range rr.Pos {
				s[j] = at.Args[p]
			}
			if i > 0 && !slices.Equal(sig, s) {
				return ViewKey{}, false
			}
			sig = s
		}
		// Over the head, a variable becomes its first head position.
		k := ViewKey{Pos: make([]int, len(sig)), Const: make([]string, len(sig))}
		for j, t := range sig {
			k.Pos[j] = -1
			if t.Const {
				k.Const[j] = t.Val
			} else if k.Pos[j] = slices.Index(n.Head, t); k.Pos[j] < 0 {
				return ViewKey{}, false
			}
		}
		if key.Pos != nil && !(slices.Equal(key.Pos, k.Pos) && slices.Equal(key.Const, k.Const)) {
			return ViewKey{}, false
		}
		key = k
	}
	return key, true
}
