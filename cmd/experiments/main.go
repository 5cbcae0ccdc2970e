// Command experiments regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	experiments -exp table3 [-runs 5] [-seed 1] [-datasets Vot.,Bal.]
//	experiments -exp table4 [-runs 5]
//	experiments -exp fig4   [-runs 5]
//	experiments -exp fig5
//	experiments -exp fig6   [-quick]
//	experiments -exp linkage [-quick]
//	experiments -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "experiment: table3, table4, fig4, fig5, fig6, linkage, sensitivity, all")
		runs     = flag.Int("runs", 5, "runs per method per data set (paper: 50)")
		seed     = flag.Int64("seed", 1, "base random seed")
		dsFlag   = flag.String("datasets", "", "comma-separated subset of data sets (default: all eight)")
		quick    = flag.Bool("quick", false, "shrink the fig6 sweeps for a fast smoke run")
		progress = flag.Bool("progress", true, "print progress to stderr")
		par      = flag.Int("par", 0, "dataset-level parallelism for the table/figure harnesses (<= 0 all cores, 1 sequential); results are identical at any level. fig6 times methods and always runs sequentially")
	)
	flag.Parse()

	var names []string
	if *dsFlag != "" {
		names = strings.Split(*dsFlag, ",")
	}
	start := time.Now()
	var prog func(ds, m string)
	if *progress {
		prog = func(ds, m string) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] %-5s %s\n", time.Since(start).Seconds(), ds, m)
		}
	}

	switch *exp {
	case "table3":
		return runTables(*runs, *seed, names, prog, false, *par)
	case "table4":
		return runTables(*runs, *seed, names, prog, true, *par)
	case "fig4":
		return runFig4(*runs, *seed, names, *par)
	case "fig5":
		return runFig5(*seed, names, *par)
	case "fig6":
		return runFig6(*seed, *quick)
	case "linkage":
		return runLinkageScale(*seed, *quick, *par)
	case "sensitivity":
		return runSensitivity(*runs, *seed, names, *par)
	case "all":
		// Every experiment the -exp flag advertises, in its listed order.
		if err := runTables(*runs, *seed, names, prog, true, *par); err != nil {
			return err
		}
		if err := runFig4(*runs, *seed, names, *par); err != nil {
			return err
		}
		if err := runFig5(*seed, names, *par); err != nil {
			return err
		}
		if err := runFig6(*seed, *quick); err != nil {
			return err
		}
		if err := runLinkageScale(*seed, *quick, *par); err != nil {
			return err
		}
		return runSensitivity(*runs, *seed, names, *par)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}
