package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if got := Resolve(4); got != 4 {
		t.Errorf("Resolve(4) = %d", got)
	}
	if got := Resolve(1); got != 1 {
		t.Errorf("Resolve(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -1, -100} {
		if got := Resolve(n); got != want {
			t.Errorf("Resolve(%d) = %d, want GOMAXPROCS %d", n, got, want)
		}
	}
}

func TestGate(t *testing.T) {
	if got := Gate(8, smallWork-1); got != 1 {
		t.Errorf("Gate below threshold = %d, want 1", got)
	}
	if got := Gate(8, smallWork); got != 8 {
		t.Errorf("Gate at threshold = %d, want 8", got)
	}
	if got := Gate(0, smallWork*100); got != 0 {
		t.Errorf("Gate must pass the workers knob through unresolved, got %d", got)
	}
}

// TestForEachBound checks the concurrency bound: with W=2 never more than 2
// callbacks are in flight at once.
func TestForEachBound(t *testing.T) {
	const tasks = 64
	var inFlight, peak atomic.Int64
	err := ForEach(2, tasks, func(i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched()
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 2 {
		t.Errorf("peak concurrency %d with 2 workers", peak.Load())
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 1000
		hits := make([]int32, n)
		err := ForEach(workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachChunkBoundariesWorkersIndependent(t *testing.T) {
	// The chunk boundaries must be a function of n alone: record them at two
	// worker counts and compare.
	record := func(workers, n int) map[[2]int]bool {
		var mu sync.Mutex
		seen := map[[2]int]bool{}
		if err := ForEachChunk(workers, n, func(lo, hi int) error {
			mu.Lock()
			seen[[2]int{lo, hi}] = true
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	for _, n := range []int{1, 7, 63, 64, 65, 1000, 4096} {
		a, b := record(1, n), record(8, n)
		if len(a) != len(b) {
			t.Fatalf("n=%d: %d chunks at W=1, %d at W=8", n, len(a), len(b))
		}
		covered := 0
		for ch := range a {
			if !b[ch] {
				t.Fatalf("n=%d: chunk %v differs between worker counts", n, ch)
			}
			covered += ch[1] - ch[0]
		}
		if covered != n {
			t.Fatalf("n=%d: chunks cover %d items", n, covered)
		}
	}
}

func TestFirstErrorSemantics(t *testing.T) {
	errBoom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		// Indices 700 and 30 both fail; the reported error must always be the
		// lowest one, exactly as a sequential early-exit loop would report.
		// The high index fails instantly while the low one yields first,
		// maximizing the chance of a racing scheduler recording the high
		// failure before the low task runs — a claimed low task must still
		// execute rather than be abandoned. Repeated to give the race a
		// chance to manifest.
		for rep := 0; rep < 200; rep++ {
			err := ForEach(workers, 1000, func(i int) error {
				if i == 700 {
					return fmt.Errorf("high %w", errBoom)
				}
				if i == 30 {
					runtime.Gosched()
					return fmt.Errorf("low %w", errBoom)
				}
				return nil
			})
			if err == nil || !strings.HasPrefix(err.Error(), "low ") {
				t.Fatalf("workers=%d rep=%d: err = %v, want the lowest-index failure", workers, rep, err)
			}
			if !errors.Is(err, errBoom) {
				t.Fatalf("workers=%d: error chain broken: %v", workers, err)
			}
		}
	}
}

func TestErrorStopsDispatch(t *testing.T) {
	// After a failure, no new work should be dispatched (in-flight tasks may
	// finish). With W=2 and the failure at index 0, far fewer than all tasks
	// should run.
	var ran atomic.Int64
	err := ForEach(2, 1_000_000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if ran.Load() > 1000 {
		t.Errorf("%d tasks ran after early failure", ran.Load())
	}
}

func TestPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 100, func(i int) error {
			if i == 42 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "kaboom" {
			t.Errorf("panic value = %v", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Error("panic stack not captured")
		}
	}
}

func TestMapReduceDeterministicOrder(t *testing.T) {
	// A deliberately non-associative reduction (string concatenation of chunk
	// ranges) must come out identical at any parallelism, because chunks are
	// folded in chunk order.
	build := func(workers int) string {
		s, err := MapReduce(workers, 1000, "",
			func(lo, hi int) (string, error) { return fmt.Sprintf("[%d,%d)", lo, hi), nil },
			func(acc, next string) string { return acc + next })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := build(1)
	for _, w := range []int{2, 4, 16} {
		if got := build(w); got != want {
			t.Errorf("workers=%d: fold order differs:\n%s\n%s", w, got, want)
		}
	}
}

func TestMapReduceSum(t *testing.T) {
	sum, err := MapReduce(4, 10_000, 0,
		func(lo, hi int) (int, error) {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			return s, nil
		},
		func(acc, next int) int { return acc + next })
	if err != nil {
		t.Fatal(err)
	}
	if want := 10_000 * 9999 / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { t.Error("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachChunk(4, 0, func(int, int) error { t.Error("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := ForEach(8, 1, func(i int) error { got++; return nil }); err != nil || got != 1 {
		t.Fatalf("n=1: got=%d err=%v", got, err)
	}
}

// TestConcurrentForEachStress drives many ForEach calls from concurrent
// goroutines — the shape the race detector needs to certify that ForEach's
// internal state (cursor, error fold) is properly synchronized.
func TestConcurrentForEachStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				out := make([]int, 200)
				err := ForEach(4, len(out), func(i int) error {
					out[i] = i * g
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				for i, v := range out {
					if v != i*g {
						t.Errorf("g=%d rep=%d: out[%d] = %d", g, rep, i, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// spinLimit bounds yieldUntil. The turn scheduler reaches every condition
// the tests below wait for within a few yields; the wave schedule of ForEach,
// whose yield does nothing, never does, and gives up after spinLimit spins.
const spinLimit = 100_000

// yieldUntil yields until cond holds and reports whether it did before
// spinLimit spins.
func yieldUntil(yield func(), cond func() bool) bool {
	for spins := 0; !cond(); spins++ {
		if spins == spinLimit {
			return false
		}
		yield()
		runtime.Gosched()
	}
	return true
}

// returnsWithin runs call and fails the test if it has not returned by the
// deadline: a turn that a failure path never gives back hangs the tasks
// still waiting for it.
func returnsWithin(t *testing.T, call func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("ForEachTurns did not return: a turn was never given back")
		return nil
	}
}

// TestForEachTurnsBound pins the concurrency bound: however the tasks yield,
// at most `workers` of them compute at once, and every task runs once. At
// workers = 1 (inline) and workers ≥ n (ForEach), yield does nothing.
func TestForEachTurnsBound(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		for _, n := range []int{3, 5, 7} {
			var computing, peak atomic.Int64
			hits := make([]int, n)
			err := ForEachTurns(workers, n, func(i int, yield func()) error {
				hits[i]++
				for y := 0; y < 100; y++ {
					cur := computing.Add(1)
					for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
					}
					runtime.Gosched()
					computing.Add(-1)
					yield()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if p := peak.Load(); p > int64(workers) {
				t.Errorf("workers=%d n=%d: %d tasks computed at once", workers, n, p)
			}
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: task %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForEachTurnsSharesWorkers pins what the turns are for: with 3 tasks
// on 2 workers, every task takes its first turn before any task finishes.
// ForEach runs the third task only after one of the first two has finished.
func TestForEachTurnsSharesWorkers(t *testing.T) {
	const n = 3
	var (
		mu      sync.Mutex
		events  []string
		started atomic.Int64
	)
	note := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	err := returnsWithin(t, func() error {
		return ForEachTurns(2, n, func(i int, yield func()) error {
			note(fmt.Sprintf("start %d", i))
			started.Add(1)
			yieldUntil(yield, func() bool { return started.Load() == n })
			note(fmt.Sprintf("finish %d", i))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events[:n] {
		if !strings.HasPrefix(e, "start ") {
			t.Fatalf("a task finished before every task started: %v", events)
		}
	}
}

// TestForEachTurnsErrorStopsDispatch pins that no task starts after a
// failure is recorded: with task 0 failing at once, far fewer than all
// tasks run. The other tasks yield until task 0 has run, so the turns
// cannot pass among them while it waits to be scheduled.
func TestForEachTurnsErrorStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	var failed atomic.Bool
	err := ForEachTurns(2, 1000, func(i int, yield func()) error {
		ran.Add(1)
		if i == 0 {
			failed.Store(true)
			return errors.New("stop")
		}
		yieldUntil(yield, failed.Load)
		return nil
	})
	if err == nil || err.Error() != "stop" {
		t.Fatalf("err = %v, want task 0's", err)
	}
	if ran.Load() > 100 {
		t.Errorf("%d tasks ran after task 0 failed", ran.Load())
	}
}

// TestForEachTurnsFailures pins ForEach's contract on the turn-taking path:
// the lowest failing index is reported, a panic becomes *PanicError, and
// the call returns. Both failing tasks fail while holding the only two
// turns, after every task has started, so a failure path that kept its turn
// would leave task 0 waiting forever.
func TestForEachTurnsFailures(t *testing.T) {
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			const n = 3
			var started atomic.Int64
			err := returnsWithin(t, func() error {
				return ForEachTurns(2, n, func(i int, yield func()) error {
					started.Add(1)
					if !yieldUntil(yield, func() bool { return started.Load() == n }) {
						return fmt.Errorf("task %d: not every task started", i)
					}
					if i == 0 {
						for y := 0; y < 100; y++ {
							yield()
						}
						return nil
					}
					if mode == "panic" {
						panic(fmt.Sprintf("task %d", i))
					}
					return fmt.Errorf("task %d failed", i)
				})
			})
			switch mode {
			case "error":
				if err == nil || err.Error() != "task 1 failed" {
					t.Fatalf("err = %v, want task 1's", err)
				}
			case "panic":
				var pe *PanicError
				if !errors.As(err, &pe) || pe.Value != "task 1" {
					t.Fatalf("err = %v, want task 1's *PanicError", err)
				}
			}
		})
	}
}
