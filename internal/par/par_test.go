package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	var n atomic.Int64
	var hit [50]atomic.Bool
	if err := ForEach(len(hit), func(i int) error { n.Add(1); hit[i].Store(true); return nil }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 50 {
		t.Fatalf("want 50 executions, got %d", n.Load())
	}
	for i := range hit {
		if !hit[i].Load() {
			t.Fatalf("index %d never ran", i)
		}
	}
	if err := ForEach(0, func(int) error { t.Error("ForEach(0) called f"); return nil }); err != nil {
		t.Fatal("empty ForEach must succeed")
	}
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	e1, e2 := errors.New("first"), errors.New("second")
	var n atomic.Int64
	err := ForEach(3, func(i int) error {
		n.Add(1)
		return [...]error{nil, e1, e2}[i]
	})
	if err != e1 {
		t.Fatalf("want the first error by index order, got %v", err)
	}
	if n.Load() != 3 {
		t.Fatalf("an error must not stop the other calls: %d of 3 ran", n.Load())
	}
}

func TestForEachNested(t *testing.T) {
	// Nesting must not deadlock: inner calls fall back to inline execution
	// when the token pool is exhausted.
	var n atomic.Int64
	err := ForEach(8, func(int) error {
		return ForEach(8, func(int) error { n.Add(1); return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 64 {
		t.Fatalf("want 64 executions, got %d", n.Load())
	}
}
