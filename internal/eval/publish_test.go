package eval

import (
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/instance"
	"repro/internal/schema"
)

// TestPublishExtentIDsCopyOnWrite pins the COW contract epoch publication
// relies on: a published extent header is never mutated by later Apply
// calls — appends and removals copy the chunk they write first — while
// the engine's own extent keeps tracking the database.
func TestPublishExtentIDsCopyOnWrite(t *testing.T) {
	s := schema.New(schema.NewRelation("R", "A", "B"))
	db := instance.NewDatabase(s)
	db.MustInsert("R", "a", "1")
	db.MustInsert("R", "b", "2")
	db.MustInsert("R", "c", "3")
	views := map[string]*cq.UCQ{
		"V": cq.NewUCQ(cq.NewCQ([]cq.Term{cq.Var("x")}, []cq.Atom{cq.NewAtom("R", cq.Var("x"), cq.Var("y"))})),
	}
	eng, err := NewDeltaEngine(db.Schema, db.Dict, db.IDTables(), views, nil)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func(h ExtentHeader) string { return fmt.Sprint(h.AppendRows(nil)) }

	pub1 := eng.PublishExtentIDs("V")
	want1 := fingerprint(pub1)
	if pub1.Len() != 3 {
		t.Fatalf("initial extent has %d rows", pub1.Len())
	}

	apply := func(ins, del []instance.Op) {
		t.Helper()
		a, err := db.ApplyDelta(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Apply(a); err != nil {
			t.Fatal(err)
		}
	}

	// Append-only batch: the published header must not see the new row.
	apply([]instance.Op{{Rel: "R", Row: instance.Tuple{"d", "4"}}}, nil)
	if fingerprint(pub1) != want1 || pub1.Len() != 3 {
		t.Fatal("published header mutated by an append")
	}
	pub2 := eng.PublishExtentIDs("V")
	if pub2.Len() != 4 {
		t.Fatalf("second publication has %d rows, want 4", pub2.Len())
	}
	want2 := fingerprint(pub2)

	// Removal batch: both published headers must survive the swap-remove
	// (the engine copies the chunks it writes before patching).
	apply(nil, []instance.Op{{Rel: "R", Row: instance.Tuple{"a", "1"}}})
	if fingerprint(pub1) != want1 {
		t.Fatal("first published header mutated by a removal")
	}
	if fingerprint(pub2) != want2 {
		t.Fatal("second published header mutated by a removal")
	}
	if got := eng.PublishExtentIDs("V").Len(); got != 3 {
		t.Fatalf("engine extent has %d rows after the delete, want 3", got)
	}

	// Churn after a removal: still no leakage.
	apply([]instance.Op{{Rel: "R", Row: instance.Tuple{"e", "5"}}},
		[]instance.Op{{Rel: "R", Row: instance.Tuple{"b", "2"}}})
	if fingerprint(pub1) != want1 || fingerprint(pub2) != want2 {
		t.Fatal("published headers drifted under mixed churn")
	}
}
