package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/schema"
)

// Sharded is the horizontal-partitioning fixture: an account/transaction
// domain whose access schema makes every relation partition cleanly by
// uid, whose view joins are co-partitioned (shard-local maintenance), and
// whose serving traffic is per-uid point queries (single-shard routed
// fetches). It drives the scatter-gather scaling gate
// (TestGateShardScaling) and the sharded differential tests.
//
//	acct(uid, region)       with acct(uid -> region, 1)        — key
//	txn(uid, item, amt)     with txn(uid -> (item, amt), NTxn) — fan-out cap
//
// View VSpend(u, i) = acct(u, "emea") ⋈ txn(u, i, a): both atoms bind the
// partition key u, so each shard maintains its slice of the view
// independently. The point query Q_u(i, a) = txn(u, i, a) has an M-bounded
// rewriting through the txn constraint fetching at most NTxn tuples — a
// bounded plan that stays a single-shard point read at any shard count.
type Sharded struct {
	Schema *schema.Schema
	Access *access.Schema
	M      int
	NTxn   int

	Acct *access.Constraint // acct(uid -> region, 1)
	Txn  *access.Constraint // txn(uid -> (item, amt), NTxn)
}

// NewSharded builds the fixture with the given per-uid transaction cap.
func NewSharded(nTxn int) *Sharded {
	s := schema.New(
		schema.NewRelation("acct", "uid", "region"),
		schema.NewRelation("txn", "uid", "item", "amt"),
	)
	acct := access.NewConstraint("acct", []string{"uid"}, []string{"region"}, 1)
	txn := access.NewConstraint("txn", []string{"uid"}, []string{"item", "amt"}, nTxn)
	return &Sharded{
		Schema: s,
		Access: access.NewSchema(acct, txn),
		M:      4,
		NTxn:   nTxn,
		Acct:   acct,
		Txn:    txn,
	}
}

// Views returns the co-partitioned views: the two-way join VSpend and the
// heavier three-way self-join VPairs. Every atom binds the partition key
// u, so both views are maintained shard-locally; VPairs makes each txn
// delta enumerate up to NTxn residual valuations — the serious per-op
// join maintenance the scaling experiment stresses.
func (w *Sharded) Views() map[string]*cq.UCQ {
	v := cq.NewCQ([]cq.Term{cq.Var("u"), cq.Var("i")}, []cq.Atom{
		cq.NewAtom("acct", cq.Var("u"), cq.Cst("emea")),
		cq.NewAtom("txn", cq.Var("u"), cq.Var("i"), cq.Var("a")),
	})
	v.Name = "VSpend"
	v2 := cq.NewCQ([]cq.Term{cq.Var("u")}, []cq.Atom{
		cq.NewAtom("acct", cq.Var("u"), cq.Cst("emea")),
		cq.NewAtom("txn", cq.Var("u"), cq.Var("i"), cq.Var("a")),
		cq.NewAtom("txn", cq.Var("u"), cq.Var("i2"), cq.Var("a2")),
	})
	v2.Name = "VPairs"
	return map[string]*cq.UCQ{"VSpend": cq.NewUCQ(v), "VPairs": cq.NewUCQ(v2)}
}

// Query returns the per-uid point query Q_u(a, i) = txn(u, i, a) — the
// serving traffic. Its bounded plan fetches at most NTxn tuples through
// the txn constraint, routed to uid's shard. (The head lists amt before
// item, matching the fetch output's sorted attribute order, which is the
// projection order the plan enumeration generates.)
func (w *Sharded) Query(uid string) *cq.CQ {
	q := cq.NewCQ([]cq.Term{cq.Var("a"), cq.Var("i")}, []cq.Atom{
		cq.NewAtom("txn", cq.Cst(uid), cq.Var("i"), cq.Var("a")),
	})
	q.Name = "Q_" + uid
	return q
}

// UID renders the i-th generated account id.
func (w *Sharded) UID(i int) string { return fmt.Sprintf("u%d", i) }

// Generate builds an instance: `users` accounts (every other one in
// "emea", the rest spread over other regions) with txnsPerUser
// transactions each (capped at NTxn so D |= A).
func (w *Sharded) Generate(users, txnsPerUser int, seed int64) *instance.Database {
	rng := rand.New(rand.NewSource(seed))
	if txnsPerUser > w.NTxn {
		txnsPerUser = w.NTxn
	}
	db := instance.NewDatabase(w.Schema)
	for i := 0; i < users; i++ {
		uid := w.UID(i)
		region := "emea"
		if i%2 == 1 {
			region = fmt.Sprintf("r%d", rng.Intn(6))
		}
		db.MustInsert("acct", uid, region)
		for j := 0; j < txnsPerUser; j++ {
			db.MustInsert("txn", uid, fmt.Sprintf("it%d", rng.Intn(200)), fmt.Sprintf("%d", 1+rng.Intn(99)))
		}
	}
	return db
}

// ShardedChurn generates batched deltas against a Sharded instance:
// transaction inserts/deletes on existing accounts (respecting the NTxn
// cap) plus occasional new accounts and region flips, so both relations —
// and therefore the co-partitioned view — churn.
type ShardedChurn struct {
	w   *Sharded
	rng *rand.Rand

	txns    map[string][]instance.Tuple // live txn rows per uid
	uids    []string
	regions map[string]string
	nextUID int
}

// NewChurn seeds the generator from db's current contents. The database
// must be an instance of w.Schema (snapshot it before a sharded handle
// consumes it).
func (w *Sharded) NewChurn(db *instance.Database, seed int64) *ShardedChurn {
	c := &ShardedChurn{
		w:       w,
		rng:     rand.New(rand.NewSource(seed)),
		txns:    make(map[string][]instance.Tuple),
		regions: make(map[string]string),
	}
	for _, tu := range db.Table("acct").Tuples {
		c.uids = append(c.uids, tu[0])
		c.regions[tu[0]] = tu[1]
	}
	for _, tu := range db.Table("txn").Tuples {
		c.txns[tu[0]] = append(c.txns[tu[0]], tu.Clone())
	}
	c.nextUID = len(c.uids)
	return c
}

// Batch draws the next n operations, ready for ApplyDelta (deletes target
// only rows live before the batch, so delete-before-insert order holds).
func (c *ShardedChurn) Batch(n int) (inserts, deletes []instance.Op) {
	// Region flips delete-then-insert an acct row; restricting them to
	// pre-batch uids, at most once each, keeps the key constraint (one
	// region per uid) intact under the batch's deletes-first semantics.
	base := len(c.uids)
	flipped := make(map[string]bool)
	// Deletes must target rows live BEFORE the batch: the batch's deletes
	// apply first, so deleting a same-batch insert would no-op and drift
	// the generator's fan-out tracking off the database (eventually
	// violating the NTxn bound). txnLim lazily captures each uid's
	// pre-batch pool length; deletes only draw below it.
	txnLim := make(map[string]int)
	limOf := func(uid string) int {
		lim, ok := txnLim[uid]
		if !ok {
			lim = len(c.txns[uid])
			txnLim[uid] = lim
		}
		return lim
	}
	for spent := 0; spent < n; spent++ {
		uid := c.uids[c.rng.Intn(len(c.uids))]
		switch r := c.rng.Float64(); {
		case r < 0.45:
			// Insert a txn if the uid has headroom, else retire one. The
			// pre-batch pool length is captured before the append, so later
			// deletes in this batch can never target the new row.
			limOf(uid)
			if len(c.txns[uid]) < c.w.NTxn {
				row := instance.Tuple{uid, fmt.Sprintf("it%d", c.rng.Intn(200)), fmt.Sprintf("%d", 1+c.rng.Intn(99))}
				c.txns[uid] = append(c.txns[uid], row)
				inserts = append(inserts, instance.Op{Rel: "txn", Row: row.Clone()})
				continue
			}
			fallthrough
		case r < 0.80:
			// Delete a pre-batch txn of the uid (or of anyone, as fallback).
			if limOf(uid) == 0 {
				for _, u := range c.uids {
					if limOf(u) > 0 {
						uid = u
						break
					}
				}
			}
			lim := limOf(uid)
			if lim == 0 {
				spent--
				continue
			}
			pool := c.txns[uid]
			i := c.rng.Intn(lim)
			row := pool[i]
			// Two-step swap keeps the pre-batch prefix invariant: the last
			// pre-batch row fills the hole, the last row fills its slot.
			pool[i] = pool[lim-1]
			pool[lim-1] = pool[len(pool)-1]
			c.txns[uid] = pool[:len(pool)-1]
			txnLim[uid] = lim - 1
			deletes = append(deletes, instance.Op{Rel: "txn", Row: row})
		case r < 0.92:
			// A fresh account (alternating regions keeps the view selective).
			nu := fmt.Sprintf("cu%d", c.nextUID)
			region := "emea"
			if c.nextUID%2 == 1 {
				region = fmt.Sprintf("r%d", c.rng.Intn(6))
			}
			c.nextUID++
			c.uids = append(c.uids, nu)
			c.regions[nu] = region
			inserts = append(inserts, instance.Op{Rel: "acct", Row: instance.Tuple{nu, region}})
		default:
			// Region flip: replace the account row (key constraint N=1 —
			// the delete lands before the insert inside the batch).
			uid = c.uids[c.rng.Intn(base)]
			if flipped[uid] {
				// Already flipped this batch: spend the op on a fresh
				// account instead (keeps Batch total-n and loop-free).
				nu := fmt.Sprintf("cu%d", c.nextUID)
				c.nextUID++
				c.uids = append(c.uids, nu)
				c.regions[nu] = "emea"
				inserts = append(inserts, instance.Op{Rel: "acct", Row: instance.Tuple{nu, "emea"}})
				continue
			}
			flipped[uid] = true
			old := c.regions[uid]
			next := "emea"
			if old == "emea" {
				next = fmt.Sprintf("r%d", c.rng.Intn(6))
			}
			c.regions[uid] = next
			deletes = append(deletes, instance.Op{Rel: "acct", Row: instance.Tuple{uid, old}})
			inserts = append(inserts, instance.Op{Rel: "acct", Row: instance.Tuple{uid, next}})
		}
	}
	return inserts, deletes
}
