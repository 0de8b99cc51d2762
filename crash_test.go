package repro

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// Crash-injection harness: the child half of the test (re-executed test
// binary) opens a durable handle and applies a deterministic batch stream,
// printing "acked N" after each accepted batch; the parent SIGKILLs it at
// a randomized point mid-stream, recovers the directory in-process, and
// differentially compares the recovered handle against an in-memory oracle
// fed the same stream.
//
// The child is selected by CRASH_CHILD=1 (plus CRASH_DIR / CRASH_P /
// CRASH_SEED) so a normal `go test` run skips it.

const (
	crashUsers   = 50
	crashTxns    = 6
	crashBatch   = 20
	crashBatches = 400
)

// crashFixture rebuilds the deterministic system + seed database + churn
// stream both halves of the harness share.
func crashFixture(seed int64) (*workload.Sharded, *System, *Database, *workload.ShardedChurn, error) {
	w := workload.NewSharded(8)
	sys, err := NewSystem(w.Schema, w.Access, w.Views(), w.M)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	db := w.Generate(crashUsers, crashTxns, 17)
	ch := w.NewChurn(db.Clone(), seed)
	return w, sys, db, ch, nil
}

func crashOpts(p int) []OpenOption {
	opts := []OpenOption{WithCheckpointEvery(7)}
	if p > 1 {
		opts = append(opts, WithShards(p))
	}
	return opts
}

// TestCrashChildHelper is the child process body, not a test: it journals
// batches until killed. Selected via -test.run by the parent only.
func TestCrashChildHelper(t *testing.T) {
	if os.Getenv("CRASH_CHILD") != "1" {
		t.Skip("crash-injection child helper; driven by TestCrashRecoveryDifferential")
	}
	dir := os.Getenv("CRASH_DIR")
	p, _ := strconv.Atoi(os.Getenv("CRASH_P"))
	seed, _ := strconv.ParseInt(os.Getenv("CRASH_SEED"), 10, 64)
	_, sys, db, ch, err := crashFixture(seed)
	if err != nil {
		fmt.Println("child error:", err)
		os.Exit(2)
	}
	h, err := sys.Open(db, append(crashOpts(p), WithDurability(dir))...)
	if err != nil {
		fmt.Println("child error:", err)
		os.Exit(2)
	}
	fmt.Println("ready")
	for b := 1; b <= crashBatches; b++ {
		ins, del := ch.Batch(crashBatch)
		if _, err := h.ApplyDelta(ins, del); err != nil {
			fmt.Println("child error:", err)
			os.Exit(2)
		}
		fmt.Println("acked", b)
	}
	fmt.Println("done")
	os.Exit(0)
}

// TestCrashRecoveryDifferential kill-and-restarts the durable engines at
// randomized points and checks recovery is exact: the recovered handle
// must match an in-memory P = 1 oracle fed the first E batches of the same
// deterministic stream, where E is the recovered epoch — and since every
// batch is fsynced before its ack, E must cover every acked batch.
// RECOVER_ROUNDS scales the number of kill points (CI sets it higher).
func TestCrashRecoveryDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	rounds := 3
	if s := os.Getenv("RECOVER_ROUNDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			rounds = n
		}
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for _, p := range []int{1, 8} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				runCrashRound(t, rng, p, int64(1000*p+round))
			}
		})
	}
}

func runCrashRound(t *testing.T, rng *rand.Rand, p int, seed int64) {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CRASH_CHILD=1",
		"CRASH_DIR="+dir,
		"CRASH_P="+strconv.Itoa(p),
		"CRASH_SEED="+strconv.FormatInt(seed, 10),
	)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Track the child's progress; arm the kill only once it is serving
	// (initial checkpoint durable), so every round exercises a mid-stream
	// crash rather than a half-initialized directory.
	var lastAcked atomic.Int64
	ready := make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		readySeen := false
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			switch {
			case line == "ready":
				readySeen = true
				close(ready)
			case strings.HasPrefix(line, "acked "):
				if n, err := strconv.Atoi(strings.TrimPrefix(line, "acked ")); err == nil {
					lastAcked.Store(int64(n))
				}
			case strings.HasPrefix(line, "child error:"):
				scanDone <- fmt.Errorf("%s", line)
				return
			}
		}
		if !readySeen {
			close(ready)
		}
		scanDone <- nil
	}()

	<-ready
	time.Sleep(time.Duration(rng.Intn(120)) * time.Millisecond)
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	if err := <-scanDone; err != nil {
		t.Fatal(err)
	}
	acked := int(lastAcked.Load())

	// Recover in-process and compare against the oracle at the recovered
	// epoch. Epoch k is batch k (epoch 0 is the opening state).
	w, sys, db, ch, err := crashFixture(seed)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Open(NewDatabase(sys.Schema), append(crashOpts(p), WithDurability(dir))...)
	if err != nil {
		t.Fatalf("recovery after kill at acked=%d failed: %v", acked, err)
	}
	defer h.Close()
	epoch := int(h.Snapshot().Epoch())
	if epoch < acked {
		t.Fatalf("recovered epoch %d lost acked batch %d (inline fsync promises every ack durable)", epoch, acked)
	}
	if epoch > crashBatches {
		t.Fatalf("recovered epoch %d beyond the stream (%d batches)", epoch, crashBatches)
	}
	// The oracle runs at P = 1 whatever P recovered: views, fetches and
	// statistics are properties of D, not of the shard count.
	oracle, err := sys.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for b := 1; b <= epoch; b++ {
		ins, del := ch.Batch(crashBatch)
		if _, err := oracle.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
	}
	assertHandlesEqual(t, w, h, oracle, crashUsers)
	t.Logf("P=%d seed=%d: killed at acked=%d, recovered epoch=%d (replayed %d)", p, seed, acked, epoch, h.(*Live).Recovery().ReplayedEpochs)
}
