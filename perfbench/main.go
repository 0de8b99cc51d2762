// Command perfbench is the repository's standing benchmark: three
// single-client, closed-loop workloads against the public API, each answer
// checked, end-to-end metrics from an untraced run and per-layer metrics
// from a traced one. README.md describes the workloads and metrics;
// run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload serve_point --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cq"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // where write-ahead logs and span files go
	// setupReps is how many times a run sets up after an uncounted first
	// set-up; setup_s is their median.
	setupReps int
	// maxOps, when positive, ends each run after that many operations
	// instead of after seconds (tests use it for repeatable counts).
	maxOps int
	// corrupt, when set, may alter an operation's rows before they are
	// checked (tests use it to show a wrong answer is counted).
	corrupt func(op int, rows [][]string) [][]string
}

const (
	defaultSetupReps = 5
	// numWindows splits the timed phase; ops_per_s is the median of the
	// windows' rates, so one slow window (a GC cycle, a noisy neighbour)
	// does not move it. A traced run alternates untraced and traced
	// windows, so trace.overhead compares halves measured side by side.
	numWindows = 10
	// loopSpans bounds the spans a traced run keeps from its timed loop.
	loopSpans = 1 << 18
)

// tailQuantile is the tail percentile each workload reports as
// op_tail_us. Each leaves thousands of samples beyond it in a 25-second
// run, except write_churn's p99, which leaves about 20 even on a slow
// host; statistics rebuilds (one batch in a hundred) show there. The
// serving workloads stop at p95, short of the highest percentile their
// samples support, because on a shared host the percentiles above it
// measure the host: time stolen from the virtual CPU delays one operation
// in a few thousand by milliseconds, and above p95 the latencies thin out
// (serve_point: p95 10 µs, p99 19 µs), so a small change in how many
// operations the host slows moves the percentile a lot.
var tailQuantile = map[string]float64{
	"serve_fig1":  0.95,
	"serve_point": 0.95,
	"write_churn": 0.99,
}

func main() {
	cfg := config{setupReps: defaultSetupReps}
	flag.StringVar(&cfg.workload, "workload", "", "serve_fig1, serve_point or write_churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for write-ahead logs and span files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(errors.New("--trace must be 0 or 1"))
	}
	if cfg.seconds <= 0 {
		fail(errors.New("--seconds must be positive"))
	}
	cfg.trace = *trace == 1
	res, detail, err := run(cfg)
	if err != nil {
		fail(err)
	}
	d, err := json.Marshal(detail)
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Printf("detail %s\n%s\n", d, out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// window is one slice of the timed phase.
type window struct {
	traced  bool
	ops     int
	elapsed time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

// check is a sampled operation whose rows are compared in full after the
// clock stops.
type check struct {
	rows, want [][]string
}

// sampled reports whether operation i is one of the one in k whose rows
// are compared in full. It hashes i instead of testing i mod k, so a fault
// that recurs with a fixed period cannot keep missing the sample.
func sampled(i, k int) bool {
	x := uint64(i) + 0x9e3779b97f4a7c15 // splitmix64's finalizer
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return (x^x>>31)%uint64(k) == 0
}

// loopStats is what the timed phase measured.
type loopStats struct {
	windows           []window
	lat, read         samples // untraced windows only
	ops, fetched      int     // untraced windows only
	attempted, failed int
	checks            []check
	firstErr          error
}

func (ls *loopStats) rate(traced bool) float64 {
	var rates []float64
	for _, w := range ls.windows {
		if w.traced == traced {
			rates = append(rates, float64(w.ops)/w.elapsed.Seconds())
		}
	}
	return median(rates)
}

// timedLoop runs the closed loop for the configured seconds (or ops) in
// numWindows windows. Operation 0 was the set-up's warm-up.
func timedLoop(cfg config, w workload, tr *tracer) *loopStats {
	ls := &loopStats{}
	i := 1
	for wi := 0; wi < numWindows; wi++ {
		traced := cfg.trace && wi%2 == 1
		var wtr *tracer
		if traced {
			wtr = tr
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		winLen := time.Duration(cfg.seconds * float64(time.Second) / numWindows)
		n := 0
		for {
			n++
			ref := wtr.begin(spOp, int64(i), 0)
			res := w.op(i, wtr, ref.id)
			wtr.end(ref)
			ls.attempted++
			if cfg.corrupt != nil && res.err == nil {
				res.rows = cfg.corrupt(i, res.rows)
			}
			switch {
			case res.err != nil:
				ls.failed++
				if ls.firstErr == nil {
					ls.firstErr = fmt.Errorf("op %d: %w", i, res.err)
				}
			case len(res.rows) != len(res.want):
				ls.failed++
			case sampled(i, w.checkEvery()):
				ls.checks = append(ls.checks, check{rows: res.rows, want: res.want})
			}
			if !traced {
				ls.lat.add(res.lat)
				ls.read.add(res.read)
				ls.fetched += res.fetched
				ls.ops++
			}
			i++
			if cfg.maxOps > 0 {
				if n >= cfg.maxOps/numWindows {
					break
				}
			} else if time.Since(start) >= winLen {
				break
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		ls.windows = append(ls.windows, window{
			traced:  traced,
			ops:     n,
			elapsed: elapsed,
			mallocs: m1.Mallocs - m0.Mallocs,
			bytes:   m1.TotalAlloc - m0.TotalAlloc,
			gcs:     m1.NumGC - m0.NumGC,
			pauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		})
	}
	return ls
}

// run makes one benchmark run and returns its result line and a detail
// record (printed before it) with what the result line has no room for.
func run(cfg config) (*result, map[string]any, error) {
	hostStart := hostRefUS()
	began := time.Now()
	runDir := filepath.Join(cfg.dir, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)
	w, err := newWorkload(cfg.workload, runDir, cfg.trace)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	if err := w.generate(cfg.seed); err != nil {
		return nil, nil, fmt.Errorf("generate: %w", err)
	}
	generated := time.Since(began).Seconds()

	var setupTr, loopTr, probeTr *tracer
	if cfg.trace {
		base := time.Now()
		setupTr, loopTr, probeTr = newTracer(base, 0), newTracer(base, loopSpans), newTracer(base, 0)
	}
	// Set-up 0 warms the process and is not counted: on serve_fig1 the
	// first set-up of a process ran 13–35 % slower than the rest, by an
	// amount that varied from run to run.
	var setups []float64
	var firstSetup float64
	for r := 0; r <= cfg.setupReps; r++ {
		if err := w.reset(); err != nil {
			return nil, nil, err
		}
		tr := setupTr
		if r == 0 {
			tr = nil
		}
		runtime.GC()
		ref := tr.begin(spSetup, int64(r), 0)
		t0 := time.Now()
		err := w.setup(tr, ref.id)
		if r == 0 {
			firstSetup = time.Since(t0).Seconds()
		} else {
			setups = append(setups, time.Since(t0).Seconds())
		}
		tr.end(ref)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
	}

	runtime.GC()
	ls := timedLoop(cfg, w, loopTr)
	for _, c := range ls.checks {
		if !cq.RowsEqual(c.rows, c.want) {
			ls.failed++
		}
	}
	ls.checks = nil

	detail := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "setup_s_reps": setups, "setup_s_first": firstSetup,
		"fail_ratio": float64(ls.failed) / float64(ls.attempted), "generate_s": generated,
	}
	if ls.firstErr != nil {
		detail["first_error"] = ls.firstErr.Error()
	}
	var rates []float64
	for _, win := range ls.windows {
		rates = append(rates, float64(win.ops)/win.elapsed.Seconds())
	}
	detail["window_ops_per_s"] = rates

	res := &result{Correct: ls.failed == 0, Attempted: ls.attempted, Failed: ls.failed}
	if cfg.trace {
		err = perLayer(cfg, w, ls, res, detail, setupTr, loopTr, probeTr)
	} else {
		endToEnd(cfg, w, ls, setups, res, detail)
	}
	hostEnd := hostRefUS()
	detail["host.ref_us"] = []float64{hostStart, hostEnd}
	if cfg.trace {
		res.Metrics["host.ref_us"] = metric{(hostStart + hostEnd) / 2, "us"}
	}
	detail["run_s"] = time.Since(began).Seconds()
	return res, detail, err
}

// endToEnd fills in the end-to-end metrics of an untraced run.
func endToEnd(cfg config, w workload, ls *loopStats, setups []float64, res *result, detail map[string]any) {
	q := tailQuantile[cfg.workload]
	lat, read := ls.lat.sorted(), ls.read.sorted()
	var mallocs uint64
	for _, win := range ls.windows {
		mallocs += win.mallocs
	}
	res.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {ls.rate(false), "1/s"},
		"op_p50_us":       {quantileUS(lat, 0.5), "us"},
		"op_tail_us":      {quantileUS(lat, q), "us"},
		"readback_p50_us": {quantileUS(read, 0.5), "us"},
		"fetched_per_op":  {float64(ls.fetched) / float64(ls.ops), "count"},
		"allocs_per_op":   {float64(mallocs) / float64(ls.ops), "count"},
	}
	detail["tail_percentile"] = q * 100
	detail["samples"] = len(lat)
	detail["tail_samples_beyond"] = beyond(len(lat), q)
	tails := map[string]float64{}
	for _, t := range []float64{0.9, 0.95, 0.99, 0.999, 0.9999} {
		if beyond(len(lat), t) >= 10 {
			tails[fmt.Sprintf("p%g", t*100)] = quantileUS(lat, t)
		}
	}
	detail["op_tails_us"] = tails
	lat, read = nil, nil
	ls.lat, ls.read = samples{}, samples{}
	w.dropInputs()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["heap_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MiB"}
}

// perLayer runs the layer probes after a traced run's loop, fills in the
// per-layer metrics and writes the spans out.
func perLayer(cfg config, w workload, ls *loopStats, res *result, detail map[string]any, setupTr, loopTr, probeTr *tracer) error {
	lt, err := w.layers(probeTr)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	if lt.flat != lt.h {
		defer lt.flat.Close()
	}
	if err := probeLayers(lt, probeTr); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	res.Metrics = layerMetrics(lt, setupTr, probeTr)
	var bytes, pause uint64
	var gcs uint32
	ops := 0
	for _, win := range ls.windows {
		if !win.traced {
			bytes, pause, gcs, ops = bytes+win.bytes, pause+win.pauseNs, gcs+win.gcs, ops+win.ops
		}
	}
	res.Metrics["go.gc_cycles"] = metric{float64(gcs), "count"}
	res.Metrics["go.gc_pause_ms"] = metric{float64(pause) / 1e6, "ms"}
	res.Metrics["go.alloc_kb_per_op"] = metric{float64(bytes) / 1024 / float64(ops), "KiB"}
	res.Metrics["trace.overhead"] = metric{ls.rate(false) / ls.rate(true), "ratio"}
	spans := filepath.Join(cfg.dir, "traces", fmt.Sprintf("%s-seed%d-%d.csv", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return err
	}
	detail["spans"] = spans
	return writeSpans(spans, map[string]*tracer{"setup": setupTr, "loop": loopTr, "probe": probeTr})
}
