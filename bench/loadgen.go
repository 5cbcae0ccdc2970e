package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sendFunc issues request i of a phase from sender (or client) s and reports
// how many rows it carried. origin is where its latency is counted from.
type sendFunc func(ctx context.Context, s, i int, origin time.Time) (rows int, err error)

// lateAfter is how far past its due time an idle sender may wake before the
// load generator counts itself late, that is, starved of CPU.
const lateAfter = time.Millisecond

// timerSlack is Linux's default slack on a thread's sleeps: a nanosleep ends
// up to this much after its deadline, so sleepUntil asks for that much less.
const timerSlack = 50 * time.Microsecond

// sleepUntil blocks until about t. It calls nanosleep directly because
// time.Sleep rounds a wait under a millisecond up to the next millisecond
// when the process is otherwise idle (Go's netpoller sleeps in whole
// milliseconds), which would bunch the senders' requests onto millisecond
// ticks; nanosleep wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t) - timerSlack; d > 0; d = time.Until(t) - timerSlack {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

type openLoopResult struct {
	lat []time.Duration // per request, from its due time to its answer
	// marks are taken at the boundaries of equal windows of the schedule;
	// window w holds the requests due in it.
	window time.Duration
	marks  []mark
	// late counts idle senders that woke more than lateAfter past due.
	late int
	// queued counts requests whose sender was still waiting on an earlier
	// answer at their due time; their latency includes that wait.
	queued int
	failed int
	rows   int64
}

// openLoop sends rate·dur requests on a fixed schedule — request i is due at
// start + i/rate — whether or not earlier ones have answered. Sender s sends
// requests s, s+senders, s+2·senders, … in order, so the per-sender stream
// (and any per-session order inside it) is fixed.
//
// Every request is timed from its due time. A request whose sender is still
// busy then waits for it, so a stall charges every request queued behind it.
func openLoop(ctx context.Context, rate float64, dur time.Duration, senders, windows int, send sendFunc) openLoopResult {
	n := int(rate * dur.Seconds())
	res := openLoopResult{lat: make([]time.Duration, n), window: dur / time.Duration(windows)}
	type tally struct {
		late, queued, failed int
		rows                 int64
	}
	tallies := make([]tally, senders)
	start := time.Now()
	marks := markWindows(start, res.window, windows)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			t := &tallies[s]
			for i := s; i < n && ctx.Err() == nil; i += senders {
				due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
				if time.Until(due) > 0 {
					sleepUntil(due)
					if time.Since(due) > lateAfter {
						t.late++
					}
				} else {
					t.queued++
				}
				rows, err := send(ctx, s, i, due)
				res.lat[i] = time.Since(due)
				if err != nil {
					t.failed++
					continue
				}
				t.rows += int64(rows)
			}
		}(s)
	}
	wg.Wait()
	res.marks = marks()
	for _, t := range tallies {
		res.late += t.late
		res.queued += t.queued
		res.failed += t.failed
		res.rows += t.rows
	}
	return res
}

// fixedLoop sends requests 0 … n−1 back to back, sender s taking requests
// s, s+senders, … in order, and reports how many failed.
func fixedLoop(ctx context.Context, n, senders int, send sendFunc) (failed int) {
	fails := make([]int, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < n && ctx.Err() == nil; i += senders {
				if _, err := send(ctx, s, i, time.Now()); err != nil {
					fails[s]++
				}
			}
		}(s)
	}
	wg.Wait()
	for _, f := range fails {
		failed += f
	}
	return failed
}

type closedLoopResult struct {
	window     time.Duration
	windowRows []int64 // rows answered inside each window
	marks      []mark  // at the window boundaries
	attempted  int
	failed     int
}

// closedLoop runs clients that each send their next request as soon as the
// previous one answers, for dur. Throughput and CPU are accounted in equal
// windows so that a short disturbance spoils one window, not the phase.
func closedLoop(ctx context.Context, dur time.Duration, clients, windows int, send sendFunc) closedLoopResult {
	res := closedLoopResult{
		window:     dur / time.Duration(windows),
		windowRows: make([]int64, windows),
	}
	type done struct {
		at   time.Duration // answer time since the phase start
		rows int
	}
	type tally struct {
		done              []done
		attempted, failed int
	}
	tallies := make([]tally, clients)
	start := time.Now()
	deadline := start.Add(dur)
	marks := markWindows(start, res.window, windows)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			for seq := 0; time.Now().Before(deadline) && ctx.Err() == nil; seq++ {
				rows, err := send(ctx, c, seq, time.Now())
				t.attempted++
				if err != nil {
					t.failed++
					continue
				}
				t.done = append(t.done, done{at: time.Since(start), rows: rows})
			}
		}(c)
	}
	wg.Wait()
	res.marks = marks()
	for _, t := range tallies {
		res.attempted += t.attempted
		res.failed += t.failed
		for _, d := range t.done {
			if w := int(d.at / res.window); w < windows {
				res.windowRows[w] += int64(d.rows)
			}
		}
	}
	return res
}

// rowsPerSecond is the median throughput of the quiet windows.
func (r closedLoopResult) rowsPerSecond() float64 {
	var xs []float64
	for w, keep := range quietWindows(r.marks, r.window) {
		if keep {
			xs = append(xs, float64(r.windowRows[w])/r.window.Seconds())
		}
	}
	return median(xs)
}

// cpuPerRow is the median over the quiet windows of process CPU per
// answered row.
func (r closedLoopResult) cpuPerRow() time.Duration {
	var xs []float64
	for w, keep := range quietWindows(r.marks, r.window) {
		if rows := r.windowRows[w]; keep && rows > 0 {
			xs = append(xs, float64(r.marks[w+1].cpu-r.marks[w].cpu)/float64(rows))
		}
	}
	return time.Duration(median(xs))
}

// mark is what a phase records at each boundary of its windows.
type mark struct {
	cpu   time.Duration // process CPU so far
	steal int64         // host CPU steal so far (see hostSteal)
}

func markNow() mark { return mark{cpu: processCPU(), steal: hostSteal()} }

// markWindows takes a mark at start + w·window for w = 0 … n from a goroutine
// of its own. The function it returns waits for the last mark, at the end of
// the phase, and returns all n+1.
func markWindows(start time.Time, window time.Duration, n int) func() []mark {
	marks := make([]mark, n+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := range marks {
			time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
			marks[w] = markNow()
		}
	}()
	return func() []mark {
		<-done
		return marks
	}
}

// quietWindows applies quiet to the windows between consecutive marks, each
// window long.
func quietWindows(marks []mark, window time.Duration) []bool {
	steal := make([]int64, len(marks)-1)
	for w := range steal {
		steal[w] = marks[w+1].steal - marks[w].steal
	}
	return quiet(steal, window)
}

// quiet picks, from spans of work about span long and the CPU steal during
// each, the spans the host disturbed least: those whose steal is at most the
// median, or under 2% of the span's CPU time. Steal comes in bursts of a few
// seconds on a shared host, and a span it hits runs on less than the
// machine's CPUs. At least half of the spans stay, and all of them when
// steal is flat, negligible, or not reported.
func quiet(steal []int64, span time.Duration) []bool {
	xs := make([]float64, len(steal))
	for i, s := range steal {
		xs[i] = float64(s)
	}
	limit := max(median(xs), 0.02*span.Seconds()*float64(runtime.NumCPU())*clockTicks)
	keep := make([]bool, len(steal))
	for i, x := range xs {
		keep[i] = x <= limit
	}
	return keep
}

// clockTicks is Linux's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealShare is the share of the machine's CPU time that the host stole
// over marks taken window apart.
func stealShare(marks []mark, window time.Duration) float64 {
	ticks := float64(marks[len(marks)-1].steal - marks[0].steal)
	span := window.Seconds() * float64(len(marks)-1)
	return ticks / clockTicks / (span * float64(runtime.NumCPU()))
}

// hostSteal is the CPU time the hypervisor has given to others while this
// machine's virtual CPUs wanted to run, in clock ticks summed over CPUs: the
// steal column of /proc/stat. It is 0 where that is not reported.
func hostSteal() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return ticks
}

// processCPU is the user+system CPU this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's high-water resident set size (Linux reports
// ru_maxrss in KiB; it is the VmHWM of /proc/self/status).
func peakRSS() (bytes int64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Maxrss << 10, nil
}
