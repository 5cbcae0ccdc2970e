// Command bench is the repository's end-to-end benchmark. It runs four
// workloads, each in its own child process, checks that every answer is
// correct, and prints every metric by name with its unit. It is a module of
// its own (bench/go.mod, which replaces mcdc with the parent directory):
//
//	cd bench && go run . [-seed N] [-workload W] [-seconds S] [-trace] [-out DIR]
//	sh bench/run.sh [flags]   # from the repository root; builds under .bench_build/
//
// The serving workloads (stateless-frame, batch-json, session-replicated)
// boot an in-process fleet — a gateway over loopback backends, built from
// internal/server's public API with mcdcd's defaults — and drive it through
// the client package from one load-generating process. train-paper runs the
// learning side at the paper's Table II scale. -trace runs the traced
// variant instead: spans around each layer's public entry points, the
// per-layer metrics, and one <workload>.trace.json under -out.
//
// Every input is a pure function of -seed. The last line of standard output
// is one JSON object with the keys correct, attempted, failed, and metrics;
// the exit code is non-zero when any correctness check fails. README.md
// lists the metrics, their bounds, and how to read a trace.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds one workload's child process: a run must end within
// three minutes, including the parent's own start-up.
const childTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	quick    bool
	child    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if opt.child {
		return runChild(opt, stdout, stderr)
	}
	return runParent(opt, stdout, stderr)
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var opt options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&opt.seconds, "seconds", 30, "measured seconds per serving workload (warm-up, open loop, closed loop)")
	fs.BoolVar(&opt.trace, "trace", false, "traced run: per-layer metrics and one trace file per workload")
	fs.StringVar(&opt.out, "out", "", "directory for trace files (default: a new temporary directory)")
	fs.BoolVar(&opt.quick, "quick", false, "smoke run: about one second per workload, small training sets")
	fs.BoolVar(&opt.child, "child", false, "internal: run one workload in this process")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if opt.workload != "all" && findWorkload(opt.workload) == nil {
		return opt, fmt.Errorf("unknown workload %q (want all, %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if opt.seconds < 1 {
		return opt, fmt.Errorf("-seconds must be at least 1, got %d", opt.seconds)
	}
	if opt.quick {
		opt.seconds = 1
	}
	return opt, nil
}

// normalizeArgs folds "--trace 0|1" into "-trace=0|1", so the boolean flag
// also accepts its value as a separate argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// runChild runs one workload in this process and prints its result as the
// last line of stdout, for the parent to read.
func runChild(opt options, stdout, stderr io.Writer) int {
	w := findWorkload(opt.workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: -child needs one workload, got %q\n", opt.workload)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	res, err := runWorkload(ctx, opt, w)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: encode result: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runParent runs the selected workloads, one child process each, prints the
// report, and ends with the JSON summary line.
func runParent(opt options, stdout, stderr io.Writer) int {
	selected := workloads
	if opt.workload != "all" {
		selected = []*workload{findWorkload(opt.workload)}
	}
	if opt.trace {
		var err error
		if opt.out == "" {
			opt.out, err = os.MkdirTemp("", "mcdc-bench-out-")
		} else {
			err = os.MkdirAll(opt.out, 0o755)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	var results []*result
	for _, w := range selected {
		res, err := runChildProcess(opt, w, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, res)
		results = append(results, res)
	}
	sum, err := summarize(results, opt.trace, len(selected) > 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// runChildProcess re-executes this binary with -child for one workload, so
// each workload gets a fresh process: its own heap, GC state, and peak RSS.
func runChildProcess(opt options, w *workload, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout+5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", w.name,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.Itoa(opt.seconds),
		"-trace="+strconv.FormatBool(opt.trace),
		"-quick="+strconv.FormatBool(opt.quick),
		"-out", opt.out)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	return parseChildOutput(out.Bytes())
}

func parseChildOutput(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// printResult writes one workload's human-readable report: every metric
// with its unit, latency sample counts, and any failed check.
func printResult(w io.Writer, res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d attempted, %d failed\n", res.Workload, mode, res.Attempted, res.Failed)
	for _, m := range res.Metrics {
		note := ""
		switch {
		case m.Windows > 0:
			note = fmt.Sprintf("  (median of %d quiet windows; each n=%d, %d beyond)", m.Windows, m.Samples, m.Beyond)
		case m.Samples > 0:
			note = fmt.Sprintf("  (n=%d, %d beyond)", m.Samples, m.Beyond)
		}
		if m.Diag {
			note += "  [diagnostic]"
		}
		fmt.Fprintf(w, "   %-30s %14.6g %-8s%s\n", m.Name, m.Value, m.Unit, note)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", f)
	}
}

// summary is the machine-readable last line of the parent's output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds the workload results into the summary line: the
// end-to-end metrics of an untraced run or the per-layer metrics of a traced
// one. With several workloads each name is prefixed by its workload.
func summarize(results []*result, traced, prefixed bool) (*summary, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	sum := &summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, res := range results {
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		if len(res.Failures) > 0 {
			sum.Correct = false
		}
		for _, d := range defs {
			m, ok := res.metric(d.name)
			if !ok {
				return nil, fmt.Errorf("%s did not report %s", res.Workload, d.name)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return nil, fmt.Errorf("%s reported %s = %v", res.Workload, d.name, m.Value)
			}
			name := d.name
			if prefixed {
				name = res.Workload + "." + name
			}
			sum.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	if sum.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return sum, nil
}
