// Package parallel is the shared bounded-concurrency execution layer of the
// repository. Every CPU-bound fan-out in the MCDC pipeline (per-cluster
// feature-weight refreshes, CAME assignment sweeps, ensemble MGCPL runs,
// farthest-first seeding, batch assignment) runs through the primitives here
// rather than hand-rolled goroutines, which gives them a uniform contract:
//
//   - Bounded workers. At most W goroutines compute at a time; W ≤ 0
//     resolves to runtime.GOMAXPROCS(0) and W = 1 executes inline on the
//     calling goroutine with no concurrency at all. ForEachTurns may start
//     more goroutines than W, but only W of them hold a turn to compute.
//   - Deterministic results. Work is identified by index; callbacks write
//     only to their own index (or chunk) and chunk boundaries depend only on
//     the problem size, never on W. Reductions fold per-chunk values in chunk
//     order. Together this makes every computation in the repository
//     bit-for-bit identical at any parallelism level.
//   - First-error semantics. The returned error is the one produced by the
//     lowest failing index, exactly what a sequential loop that stops at the
//     first failure would report. Once any callback fails, no new work is
//     dispatched (in-flight callbacks finish). Whether indices above the
//     failing one ran is unspecified, so per-index side effects must be
//     independent.
//   - Panic containment. A panic inside a callback is captured and returned
//     as a *PanicError instead of crashing sibling workers.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxChunks bounds how many contiguous chunks ForEachChunk and MapReduce
// split a range into, and minChunkSize keeps chunks from degenerating into
// per-item dispatch on small inputs. Both are constants — chunk boundaries
// must depend only on the problem size n, never on the worker count, or
// per-chunk reductions would change with the machine. maxChunks is therefore
// also the ceiling on the effective parallelism of chunked operations; 256
// comfortably covers current hardware while keeping per-chunk accumulator
// allocations (e.g. CAME's mode counts) bounded.
const (
	maxChunks    = 256
	minChunkSize = 16
)

// smallWork is the Gate threshold: below this many elementary operations the
// fan-out overhead outweighs the saved compute.
const smallWork = 1 << 12

// Gate returns 1 (inline execution) when a fan-out's total work — an
// approximate count of elementary operations, e.g. rows×features — is too
// small to amortize goroutine dispatch, and workers unchanged otherwise.
// The gate depends only on the problem shape, never on the machine, so it
// preserves the determinism contract trivially (results are identical at
// any worker count anyway; this only avoids pointless dispatch).
func Gate(workers, work int) int {
	if work < smallWork {
		return 1
	}
	return workers
}

// Resolve maps a Workers knob to a concrete worker count: values ≥ 1 are used
// as given, anything else resolves to runtime.GOMAXPROCS(0).
func Resolve(workers int) int {
	if workers >= 1 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is the error returned when a worker callback panics. The
// original panic value and the worker's stack are preserved for diagnosis.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: callback panicked: %v\n%s", e.Value, e.Stack)
}

// Must is the companion for fan-outs whose callbacks cannot fail: any error
// from them is a recovered worker panic (*PanicError), so Must re-raises it
// rather than letting the caller continue on silently incomplete results.
func Must(err error) {
	if err != nil {
		panic(err)
	}
}

// chunkSize returns the workers-independent chunk length for n items: n is
// split into at most maxChunks chunks of at least minChunkSize items.
func chunkSize(n int) int {
	size := (n + maxChunks - 1) / maxChunks
	if size < minChunkSize {
		size = minChunkSize
	}
	return size
}

// firstError folds task failures into the one a sequential early-exit loop
// would report: the error of the lowest failing task.
type firstError struct {
	mu  sync.Mutex
	idx int
	err error
}

func (f *firstError) record(task int, err error) {
	f.mu.Lock()
	if f.err == nil || task < f.idx {
		f.idx, f.err = task, err
	}
	f.mu.Unlock()
}

// below reports whether a failure below task is recorded: only then may a
// claimed task be abandoned. Abandoning on ANY failure would let a
// descheduled worker drop a lower-index task whose error the contract
// promises to report — the lowest failing task must always run.
func (f *firstError) below(task int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err != nil && f.idx < task
}

func (f *firstError) result() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// safeCall runs fn(task), returning a panic as a *PanicError.
func safeCall(fn func(task int) error, task int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: r, Stack: buf}
		}
	}()
	return fn(task)
}

// run dispatches tasks 0..tasks-1 to at most `workers` goroutines and returns
// the error of the lowest failing task. Tasks are claimed in index order via
// an atomic cursor, and a claimed task is abandoned only when a failure
// strictly below it is already recorded — so the lowest failing task always
// executes and records its own error, making the returned error identical to
// what a sequential early-exit loop reports.
func run(workers, tasks int, fn func(task int) error) error {
	if tasks <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > tasks {
		workers = tasks
	}

	if workers == 1 {
		// Inline fast path: no goroutines, sequential early-exit semantics.
		for task := 0; task < tasks; task++ {
			if err := safeCall(fn, task); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		first  firstError
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				task := int(cursor.Add(1)) - 1
				if task >= tasks || first.below(task) {
					return
				}
				if err := safeCall(fn, task); err != nil {
					first.record(task, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first.result()
}

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (workers ≤ 0 → GOMAXPROCS). fn must confine its side effects to data owned
// by index i. The returned error follows first-error semantics.
func ForEach(workers, n int, fn func(i int) error) error {
	return run(workers, n, fn)
}

// ForEachTurns is ForEach for long tasks that can pause. fn(i, yield) runs
// for every i in [0, n); when 1 < workers < n, all n tasks start and take
// turns, at most `workers` of them computing at a time. Calling yield hands
// the caller's turn to the task that has waited longest and blocks until a
// turn comes back. Tasks that yield often therefore share the workers
// round-robin instead of running in waves: n equal tasks on W workers take
// about n/W task-times, not ⌈n/W⌉. With workers = 1 or workers ≥ n it is
// ForEach, and yield does nothing.
//
// fn may call yield only from its own goroutine. Tasks are dispatched in
// index order, each with its first turn, and once a task fails no further
// task is dispatched (tasks already dispatched run to the end); the
// returned error follows first-error semantics.
func ForEachTurns(workers, n int, fn func(i int, yield func()) error) error {
	workers = Resolve(workers)
	if workers == 1 || workers >= n {
		return run(workers, n, func(i int) error { return fn(i, noYield) })
	}
	// A send takes a turn and a receive gives one back. Blocked senders
	// queue in FIFO order, and a receive from the full channel moves the
	// longest-waiting sender's value into it, so yield's turn goes to that
	// task before yield queues for the next one.
	turns := make(chan struct{}, workers)
	yield := func() {
		<-turns
		turns <- struct{}{}
	}
	task := func(i int) error { return fn(i, yield) }
	var (
		first firstError
		wg    sync.WaitGroup
	)
	// Tasks are dispatched in index order, so a recorded failure is always
	// below the next task: the dispatch stops at the first turn taken after
	// one, which is often the failed task's own.
	for i := 0; i < n; i++ {
		turns <- struct{}{} // task i's first turn
		if first.result() != nil {
			<-turns
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-turns }()
			if err := safeCall(task, i); err != nil {
				first.record(i, err)
			}
		}(i)
	}
	wg.Wait()
	return first.result()
}

func noYield() {}

// ForEachChunk splits [0, n) into contiguous chunks and runs fn(lo, hi) for
// each. Chunk boundaries depend only on n — never on workers — so code that
// accumulates per-chunk partial results reproduces exactly at any
// parallelism level.
func ForEachChunk(workers, n int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	size := chunkSize(n)
	chunks := (n + size - 1) / size
	return run(workers, chunks, func(c int) error {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	})
}

// MapReduce maps each chunk of [0, n) to a value and folds the per-chunk
// values in chunk order: acc = reduce(acc, v_0), acc = reduce(acc, v_1), …
// Because the chunking is workers-independent and the fold is ordered, the
// result is bit-for-bit reproducible at any parallelism level even for
// non-associative reductions (e.g. floating-point sums).
func MapReduce[T any](workers, n int, zero T, mapFn func(lo, hi int) (T, error), reduce func(acc, next T) T) (T, error) {
	if n <= 0 {
		return zero, nil
	}
	size := chunkSize(n)
	chunks := (n + size - 1) / size
	vals := make([]T, chunks)
	err := run(workers, chunks, func(c int) error {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		v, err := mapFn(lo, hi)
		if err != nil {
			return err
		}
		vals[c] = v
		return nil
	})
	if err != nil {
		return zero, err
	}
	acc := zero
	for _, v := range vals {
		acc = reduce(acc, v)
	}
	return acc, nil
}
