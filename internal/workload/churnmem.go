package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/instance"
)

// SwapChurnParams controls the bounded-domain churn generator behind the
// memory experiments. Unlike Churn — which mints fresh pids/mids forever,
// growing the value dictionary without bound — SwapChurn draws every row
// from a CLOSED universe fixed at construction: each delete retracts a
// live row and each insert re-adds a previously retracted one, so |D| and
// the dictionary plateau while epochs keep churning. That makes it the
// right driver for asserting bounded steady-state memory: any heap growth
// past warmup is retained epoch state, not workload growth.
type SwapChurnParams struct {
	// SparePersons / SpareLikes size the initially-retracted half of the
	// universe (rows mintable by inserts before any delete). Defaults:
	// half the corresponding live pool, plus one.
	SparePersons int
	SpareLikes   int
	DeleteShare  float64 // fraction of ops that delete (default 0.5 — steady state)
	Seed         int64
}

// swapPool is one relation's row universe: live rows (currently in D) and
// dead rows (retracted, available for re-insertion).
type swapPool struct {
	rel  string
	live [][]string
	dead [][]string
}

// SwapChurn produces batches of instance.Op mutations over the movie
// schema's person and like relations (the relations V1's maintenance
// reads), swapping rows between live and dead pools. Movies and ratings
// are never touched, so ϕ1/ϕ2 stay satisfied by construction.
type SwapChurn struct {
	rng   *rand.Rand
	p     SwapChurnParams
	pools [2]*swapPool
}

// NewSwapChurn seeds the universe from db's current person and like rows
// plus freshly minted spares.
func NewSwapChurn(m *Movies, db *instance.Database, p SwapChurnParams) *SwapChurn {
	c := &SwapChurn{rng: rand.New(rand.NewSource(p.Seed)), p: p}
	persons := &swapPool{rel: "person"}
	for _, tu := range db.Table("person").Tuples {
		persons.live = append(persons.live, tu.Clone())
	}
	likes := &swapPool{rel: "like"}
	for _, tu := range db.Table("like").Tuples {
		likes.live = append(likes.live, tu.Clone())
	}
	if c.p.DeleteShare <= 0 {
		c.p.DeleteShare = 0.5
	}
	if c.p.SparePersons <= 0 {
		c.p.SparePersons = len(persons.live)/2 + 1
	}
	if c.p.SpareLikes <= 0 {
		c.p.SpareLikes = len(likes.live)/2 + 1
	}
	// Spare persons; every 10th is at NASA so their insert/delete cycles
	// drive V1 deltas, not just base-table churn.
	for i := 0; i < c.p.SparePersons; i++ {
		aff := fmt.Sprintf("org%d", c.rng.Intn(500))
		if i%10 == 0 {
			aff = "NASA"
		}
		persons.dead = append(persons.dead, []string{
			fmt.Sprintf("sp%d", i), fmt.Sprintf("Spare Person %d", i), aff,
		})
	}
	// Spare likes reference pids from the person universe (live or spare)
	// and pre-existing movies, so re-inserting one can complete a V1 join.
	nMovies := db.Table("movie").Len()
	pidOf := func() string {
		u := len(persons.live) + len(persons.dead)
		i := c.rng.Intn(u)
		if i < len(persons.live) {
			return persons.live[i][0]
		}
		return persons.dead[i-len(persons.live)][0]
	}
	for i := 0; i < c.p.SpareLikes && nMovies > 0; i++ {
		likes.dead = append(likes.dead, []string{
			pidOf(), fmt.Sprintf("m%d", c.rng.Intn(nMovies)), "movie",
		})
	}
	// Intern the whole universe now (the database interns lazily, so even
	// live rows may not be in the dictionary yet): the universe is closed,
	// so after this the dictionary NEVER grows under churn — measured heap
	// motion is epoch state, not dictionary growth (and the closed-universe
	// test can assert an exact plateau).
	for _, pl := range [2]*swapPool{persons, likes} {
		for _, rows := range [2][][]string{pl.live, pl.dead} {
			for _, row := range rows {
				for _, s := range row {
					db.Dict.ID(s)
				}
			}
		}
	}
	c.pools = [2]*swapPool{persons, likes}
	return c
}

// Batch draws the next n operations. Deletes only target rows live before
// the batch and inserts only revive rows dead before it (per-pool limits
// captured at batch start), so with ApplyDelta's deletes-first order no
// op within one batch can invert another: every delete retracts a row
// genuinely in D and every insert adds one genuinely absent.
func (c *SwapChurn) Batch(n int) (inserts, deletes []instance.Op) {
	var delLim, insLim [2]int
	for i, pl := range c.pools {
		delLim[i], insLim[i] = len(pl.live), len(pl.dead)
	}
	// take removes rows[i] for i < *lim, preserving the pre-batch prefix:
	// the slot is filled from the prefix's end, which is in turn filled
	// from the slice's end (rows appended THIS batch stay beyond *lim).
	take := func(rows [][]string, lim *int) ([]string, [][]string) {
		i := c.rng.Intn(*lim)
		row := rows[i]
		rows[i] = rows[*lim-1]
		rows[*lim-1] = rows[len(rows)-1]
		rows[len(rows)-1] = nil
		*lim--
		return row, rows[:len(rows)-1]
	}
	for spent := 0; spent < n; spent++ {
		// Weight pool choice by universe size so the busier relation (likes,
		// usually) sees proportionally more churn.
		u0 := len(c.pools[0].live) + len(c.pools[0].dead)
		u1 := len(c.pools[1].live) + len(c.pools[1].dead)
		if u0+u1 == 0 {
			break
		}
		pi := 0
		if c.rng.Intn(u0+u1) >= u0 {
			pi = 1
		}
		pl := c.pools[pi]
		del := c.rng.Float64() < c.p.DeleteShare
		if del && delLim[pi] == 0 {
			del = false
		}
		if !del && insLim[pi] == 0 {
			if delLim[pi] == 0 {
				continue // pool exhausted both ways this batch
			}
			del = true
		}
		if del {
			row, rest := take(pl.live, &delLim[pi])
			pl.live = rest
			pl.dead = append(pl.dead, row)
			deletes = append(deletes, instance.Op{Rel: pl.rel, Row: instance.Tuple(row)})
		} else {
			row, rest := take(pl.dead, &insLim[pi])
			pl.dead = rest
			pl.live = append(pl.live, row)
			inserts = append(inserts, instance.Op{Rel: pl.rel, Row: instance.Tuple(row)})
		}
	}
	return inserts, deletes
}

// UniverseSize returns the fixed total number of rows (live + dead) in
// each churned relation, person then like.
func (c *SwapChurn) UniverseSize() (persons, likes int) {
	return len(c.pools[0].live) + len(c.pools[0].dead),
		len(c.pools[1].live) + len(c.pools[1].dead)
}
