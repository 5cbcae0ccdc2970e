package main

import (
	"fmt"
	"os"

	"mcdc/internal/experiments"
)

func runTables(runs int, seed int64, names []string, prog func(ds, m string), withTable4 bool, workers int) error {
	t3, err := experiments.RunTable3(experiments.Table3Config{
		Runs:     runs,
		Seed:     seed,
		Datasets: names,
		Progress: prog,
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	fmt.Println("=== Table III: clustering performance (mean±std over", runs, "runs) ===")
	t3.Write(os.Stdout)
	if !withTable4 {
		return nil
	}
	t4, err := experiments.RunTable4(t3)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("=== Table IV: significance test ===")
	t4.Write(os.Stdout)
	return nil
}

func runFig4(runs int, seed int64, names []string, workers int) error {
	f4, err := experiments.RunFig4(runs, seed, names, workers)
	if err != nil {
		return err
	}
	fmt.Println("=== Fig. 4: ablation study (mean ARI) ===")
	f4.Write(os.Stdout)
	return nil
}

func runFig5(seed int64, names []string, workers int) error {
	f5, err := experiments.RunFig5(seed, names, workers)
	if err != nil {
		return err
	}
	fmt.Println("=== Fig. 5: numbers of clusters learned by MGCPL ===")
	f5.Write(os.Stdout)
	return nil
}

func runFig6(seed int64, quick bool) error {
	ns := []int{20000, 60000, 100000, 140000, 200000}
	ks := []int{500, 1000, 2000}
	dims := []int{100, 300, 500, 1000}
	fixedN := 20000
	if quick {
		ns = []int{5000, 10000, 20000}
		ks = []int{50, 100, 200}
		dims = []int{50, 100, 200}
		fixedN = 5000
	}
	fmt.Println("=== Fig. 6a: execution time vs n (Syn_n) ===")
	fa, err := experiments.RunFig6N(ns, seed)
	if err != nil {
		return err
	}
	fa.Write(os.Stdout)

	fmt.Println("=== Fig. 6b: execution time vs sought k (Syn_n) ===")
	fb, err := experiments.RunFig6K(fixedN, ks, seed)
	if err != nil {
		return err
	}
	fb.Write(os.Stdout)

	fmt.Println("=== Fig. 6c: execution time vs d (Syn_d) ===")
	fc, err := experiments.RunFig6D(dims, seed)
	if err != nil {
		return err
	}
	fc.Write(os.Stdout)
	return nil
}

func runSensitivity(runs int, seed int64, names []string, workers int) error {
	sw, err := experiments.RunSensitivity(runs, seed, names, nil, workers)
	if err != nil {
		return err
	}
	fmt.Println("=== Design sensitivity: rival-penalty redundancy threshold ===")
	sw.Write(os.Stdout)
	return nil
}
