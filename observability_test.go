package repro

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestMetricsStressNoBlocking hammers Handle.Metrics and the HTTP
// exporter from concurrent goroutines while a writer churns batches and
// executors serve queries — under -race this proves the observers only
// take snapshots (no data race, no lock shared with ApplyDelta), and
// the post-quiesce counters must reconcile exactly with the engine's
// own accounting.
func TestMetricsStressNoBlocking(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys, m := movieSystem(t)
			db := m.Generate(workload.MoviesParams{Persons: 150, Movies: 150, LikesPerPerson: 4, NASAShare: 8, Seed: 21})
			ch := workload.NewSwapChurn(m, db, workload.SwapChurnParams{Seed: 23})
			var opts []OpenOption
			if shards > 0 {
				opts = append(opts, WithShards(shards))
			}
			h, err := sys.Open(db, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			p := m.Fig1Plan()

			const batches = 30
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var execs atomic.Int64

			// Metrics pollers.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						ms := h.Metrics()
						if ms.Counters == nil {
							t.Error("Metrics returned nil counter map")
							return
						}
					}
				}()
			}
			// HTTP exporter poller, alternating JSON and Prometheus.
			wg.Add(1)
			go func() {
				defer wg.Done()
				dh := DebugHandler(h)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					path := "/debug/repro"
					if i%2 == 1 {
						path = "/debug/repro/metrics"
					}
					rec := httptest.NewRecorder()
					dh.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if rec.Code != 200 || rec.Body.Len() == 0 {
						t.Errorf("exporter %s: code %d, %d bytes", path, rec.Code, rec.Body.Len())
						return
					}
				}
			}()
			// Query executors.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, _, err := h.Execute(p); err != nil {
							t.Errorf("Execute under churn: %v", err)
							return
						}
						execs.Add(1)
					}
				}()
			}

			// The writer must make progress to completion while every
			// observer above runs full tilt.
			for b := 0; b < batches; b++ {
				ins, del := ch.Batch(20)
				if _, err := h.ApplyDelta(ins, del); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()

			ms := h.Metrics()
			if got := ms.Counters["repro_apply_total"]; got != batches {
				t.Fatalf("apply_total = %d, want %d", got, batches)
			}
			if got := ms.Counters["repro_epoch_publish_total"]; got < batches {
				t.Fatalf("epoch_publish_total = %d, want >= %d", got, batches)
			}
			if got, want := ms.Counters["repro_query_total"], execs.Load(); got != want {
				t.Fatalf("query_total = %d, want %d plain executions", got, want)
			}
			if h := ms.Histograms["repro_apply_seconds"]; h.Count != batches {
				t.Fatalf("apply latency count = %d, want %d", h.Count, batches)
			}
			// The fetch gauge reads the same atomic FetchedTuples reads:
			// after quiescing they must agree exactly.
			if got, want := ms.Gauges["repro_fetched_tuples_total"], int64(h.FetchedTuples()); got != want {
				t.Fatalf("fetched gauge = %d, FetchedTuples = %d", got, want)
			}
			s := h.Snapshot()
			if got, want := ms.Gauges["repro_epoch_seq"], int64(s.Epoch()); got != want {
				t.Fatalf("epoch gauge = %d, current epoch = %d", got, want)
			}
			s.Close()
			if shards > 0 && execs.Load() > 0 {
				var probes int64
				for i := 0; i < shards; i++ {
					probes += ms.Counters[fmt.Sprintf("repro_shard_probes_total_%d", i)]
				}
				if probes == 0 {
					t.Fatal("no shard probe was ever counted despite fetching executions")
				}
			}
		})
	}
}

// TestSlowTraceReconciliation pins an epoch, executes on it with a
// zero-ish slow threshold so the execution is traced, and checks the
// trace's accounting against the snapshot's exact fetch counter:
// trace.Fetched, the sum of its per-constraint group rows, and
// Snapshot.FetchedTuples must all be the same number. Two inputs: a
// prepared PlanPick query served through ExecuteOn, and an ad-hoc
// Snapshot.Execute of the Figure 1 plan on the Movies fixture (N0 = 50,
// 3k persons), which takes execute's upgrade to the observed path.
func TestSlowTraceReconciliation(t *testing.T) {
	type execFn func(*Snapshot) ([][]string, int, error)
	for _, tc := range []struct {
		name string
		// setup opens the traced handle and returns how to execute on a
		// snapshot, the query key the trace must carry ("" for an ad-hoc
		// plan, whose candidate is -1) and the frontier size.
		setup func(t *testing.T) (Handle, execFn, string, int)
	}{
		{"prepared", func(t *testing.T) (Handle, execFn, string, int) {
			sys, pp := planPickSystem(t)
			h, err := sys.Open(pp.Generate(4000, 4, 11), WithSlowQueryThreshold(time.Nanosecond))
			if err != nil {
				t.Fatal(err)
			}
			pq, err := sys.Prepare(NewUCQ(pp.Q), LangCQ)
			if err != nil {
				t.Fatal(err)
			}
			return h, pq.ExecuteOn, pq.Key(), len(pq.Candidates())
		}},
		{"ad-hoc", func(t *testing.T) (Handle, execFn, string, int) {
			sys, m := movieSystemN0(t, 50)
			db := m.Generate(workload.MoviesParams{Persons: 3000, Movies: 3000, LikesPerPerson: 5, NASAShare: 10, Seed: 7})
			h, err := sys.Open(db, WithSlowQueryThreshold(time.Nanosecond))
			if err != nil {
				t.Fatal(err)
			}
			xi0 := m.Fig1Plan()
			return h, func(s *Snapshot) ([][]string, int, error) { return s.Execute(xi0) }, "", 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, exec, key, cands := tc.setup(t)
			defer h.Close()
			s := h.Snapshot()
			defer s.Close()
			rows, fetched, err := exec(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.FetchedTuples(); got != fetched {
				t.Fatalf("snapshot counted %d fetched tuples, Execute reported %d", got, fetched)
			}

			traces := h.SlowQueries()
			if len(traces) == 0 {
				t.Fatal("a 1ns threshold must trace every execution")
			}
			tr := traces[0]
			if tr.QueryKey != key {
				t.Fatalf("trace key %q, want %q", tr.QueryKey, key)
			}
			if key == "" && tr.Candidate != -1 {
				t.Fatalf("ad-hoc trace candidate %d, want -1", tr.Candidate)
			}
			if key != "" && (tr.Candidate < 0 || tr.Candidate >= cands) {
				t.Fatalf("trace candidate %d outside the frontier", tr.Candidate)
			}
			if tr.EpochSeq != s.Epoch() {
				t.Fatalf("trace epoch %d, snapshot epoch %d", tr.EpochSeq, s.Epoch())
			}
			if tr.Rows != len(rows) {
				t.Fatalf("trace rows %d, execution produced %d", tr.Rows, len(rows))
			}
			if tr.Plan == "" || tr.Duration <= 0 {
				t.Fatalf("trace missing plan or duration: %+v", tr)
			}
			if tr.Fetched != fetched {
				t.Fatalf("trace fetched %d, execution fetched %d", tr.Fetched, fetched)
			}
			var groupRows, groupProbes int
			for _, g := range tr.Groups {
				if g.Key == "" {
					t.Fatalf("unkeyed group in trace: %+v", tr.Groups)
				}
				groupRows += g.Rows
				groupProbes += g.Probes
			}
			if groupRows != fetched {
				t.Fatalf("per-constraint group rows sum to %d, fetched %d — attribution lost tuples", groupRows, fetched)
			}
			if fetched > 0 && groupProbes == 0 {
				t.Fatal("tuples were fetched but no probe was attributed")
			}

			// The handle-level counters saw the snapshot execution too.
			ms := h.Metrics()
			if ms.Counters["repro_slow_query_total"] < 1 || ms.Counters["repro_query_total"] < 1 {
				t.Fatalf("handle counters missed the snapshot execution: %v", ms.Counters)
			}
			if got, want := ms.Gauges["repro_fetched_tuples_total"], int64(fetched); got != want {
				t.Fatalf("handle fetch gauge = %d, want %d", got, want)
			}

			// The exporter's slow route carries the same trace.
			rec := httptest.NewRecorder()
			DebugHandler(h).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/repro/slow", nil))
			var body struct {
				Slow []struct {
					Fetched int `json:"fetched"`
					Groups  []struct {
						Rows int `json:"rows"`
					} `json:"groups"`
				} `json:"slow"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("slow route JSON: %v", err)
			}
			if len(body.Slow) == 0 || body.Slow[0].Fetched != fetched {
				t.Fatalf("exported slow log diverges: %+v", body.Slow)
			}
		})
	}
}

// TestWithoutMetrics pins the opt-out: a handle opened WithoutMetrics
// serves queries and writes normally, Metrics returns empty (non-nil)
// maps, SlowQueries is nil, and the exporter answers with an empty
// document instead of panicking.
func TestWithoutMetrics(t *testing.T) {
	sys, m := movieSystem(t)
	db := m.Generate(workload.MoviesParams{Persons: 60, Movies: 60, LikesPerPerson: 3, NASAShare: 8, Seed: 31})
	h, err := sys.Open(db, WithoutMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, _, err := h.Execute(m.Fig1Plan()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ApplyDelta([]Op{{Rel: "person", Row: Tuple{"p-nm", "NoMetrics", "NASA"}}}, nil); err != nil {
		t.Fatal(err)
	}
	ms := h.Metrics()
	if ms.Counters == nil || len(ms.Counters) != 0 {
		t.Fatalf("WithoutMetrics counters = %v, want empty non-nil", ms.Counters)
	}
	if h.SlowQueries() != nil {
		t.Fatal("WithoutMetrics must have no slow log")
	}
	rec := httptest.NewRecorder()
	DebugHandler(h).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/repro", nil))
	if rec.Code != 200 {
		t.Fatalf("exporter on metrics-less handle: %d", rec.Code)
	}
}

// TestSelectionCountersExported: the closed-loop selection layer's
// rerank/explore/switch instruments are registered on every handle and
// the Prometheus rendering carries them.
func TestSelectionCountersExported(t *testing.T) {
	sys, m := movieSystem(t)
	db := m.Generate(workload.MoviesParams{Persons: 60, Movies: 60, LikesPerPerson: 3, NASAShare: 8, Seed: 33})
	h, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ms := h.Metrics()
	for _, name := range []string{"repro_plan_rerank_total", "repro_plan_explore_total", "repro_plan_switch_total",
		"repro_wal_append_total", "repro_wal_fence_total"} {
		if _, ok := ms.Counters[name]; !ok {
			t.Fatalf("counter %s not registered", name)
		}
	}
	rec := httptest.NewRecorder()
	DebugHandler(h).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/repro/metrics", nil))
	if !strings.Contains(rec.Body.String(), "repro_plan_rerank_total") {
		t.Fatal("prometheus rendering misses selection counters")
	}
}
