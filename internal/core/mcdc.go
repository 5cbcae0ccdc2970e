package core

import (
	"fmt"
	"math/rand"

	"mcdc/internal/parallel"
)

// DefaultRepeats is the default number of MGCPL repetitions whose
// granularity columns are concatenated into the Γ encoding. A single run
// already carries the multi-granular structure, but occasional unlucky seed
// draws produce a skewed level; pooling a few independent analyses realizes
// the paper's observation that "the learned multi-granular information
// complements each other to form a comprehensive and stable representation"
// and gives MCDC its reported run-to-run stability.
const DefaultRepeats = 3

// MCDCConfig parameterizes the full MCDC pipeline: MGCPL explores the
// multi-granular cluster structure (Repeats independent times), CAME
// aggregates the pooled encoding into the sought number of clusters.
type MCDCConfig struct {
	MGCPL MGCPLConfig
	CAME  CAMEConfig
	// Repeats is the number of independent MGCPL analyses pooled into the
	// encoding (default DefaultRepeats; 1 reproduces bare Algorithm 1 + 2).
	Repeats int
}

// MCDCResult carries the full pipeline output.
type MCDCResult struct {
	Labels []int        // final partition from CAME
	MGCPL  *MGCPLResult // first multi-granular analysis (κ, Γ)
	CAME   *CAMEResult  // aggregation result (Θ, iterations)
	// Encoding is the pooled Γ actually clustered (n × Σσ_rep columns).
	Encoding [][]int
}

// PooledEncoding runs MGCPL `repeats` times and concatenates the per-run
// granularity columns into one encoding. The first run's full result is
// returned alongside for inspection.
//
// The repeats are independent analyses, so they fan out across cfg.Workers
// goroutines (≤ 0 → GOMAXPROCS, 1 → sequential). With fewer workers than
// repeats, every repeat starts at once and they take turns on the workers,
// one MGCPL pass per turn (parallel.ForEachTurns): on 2 workers, 3 repeats
// finish in about 1.5 repeat-times instead of the 2 that waves would take.
// Determinism contract: one sub-seed per repeat is drawn from cfg.Rand up
// front, in repeat order, and each repeat runs on its own rand.Rand and its
// own state — cfg.Rand therefore advances by exactly `repeats` draws, every
// repeat's stream is fixed by the master seed alone, and the order in which
// repeats compute never reaches their results, making the pooled encoding
// bit-for-bit identical at any parallelism level. Columns are concatenated
// in repeat order.
func PooledEncoding(rows [][]int, cardinalities []int, cfg MGCPLConfig, repeats int) ([][]int, *MGCPLResult, error) {
	if repeats <= 0 {
		repeats = DefaultRepeats
	}
	if cfg.Rand == nil {
		return nil, nil, ErrNoRand
	}
	seeds := make([]int64, repeats)
	for r := range seeds {
		seeds[r] = cfg.Rand.Int63()
	}
	// Split the worker budget between the repeat fan-out and each repeat's
	// inner fan-outs, so the pipeline's total CPU-bound goroutines stay
	// within the bound WithParallelism documents instead of multiplying to
	// outer×inner. (Execution shape only — results are workers-independent.)
	resolved := parallel.Resolve(cfg.Workers)
	concurrent := repeats
	if resolved < repeats {
		concurrent = resolved
	}
	// Inner budget per repeat, with the division remainder handed out as one
	// extra worker to the first repeats so no core idles when repeats does
	// not divide the budget (at most `concurrent` repeats compute at once, so
	// the total never exceeds `resolved`).
	innerWorkers := resolved / concurrent // ≥ 1 since resolved ≥ concurrent
	extra := resolved % concurrent
	results := make([]*MGCPLResult, repeats)
	err := parallel.ForEachTurns(concurrent, repeats, func(r int, yield func()) error {
		sub := cfg
		sub.Rand = rand.New(rand.NewSource(seeds[r]))
		sub.Workers = innerWorkers
		if r < extra {
			sub.Workers++
		}
		mg, err := runMGCPL(rows, cardinalities, sub, yield)
		if err != nil {
			return fmt.Errorf("mgcpl repeat %d: %w", r, err)
		}
		results[r] = mg
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return encode(results...), results[0], nil
}

// RunMCDC runs the pooled MGCPL analysis followed by CAME on integer-coded
// categorical rows. cfg.CAME.Rand defaults to cfg.MGCPL.Rand when unset.
func RunMCDC(rows [][]int, cardinalities []int, cfg MCDCConfig) (*MCDCResult, error) {
	enc, first, err := PooledEncoding(rows, cardinalities, cfg.MGCPL, cfg.Repeats)
	if err != nil {
		return nil, err
	}
	cameCfg := cfg.CAME
	if cameCfg.Rand == nil {
		cameCfg.Rand = cfg.MGCPL.Rand
	}
	if cameCfg.Workers == 0 {
		cameCfg.Workers = cfg.MGCPL.Workers
	}
	ca, err := RunCAME(enc, cameCfg)
	if err != nil {
		return nil, err
	}
	return &MCDCResult{Labels: ca.Labels, MGCPL: first, CAME: ca, Encoding: enc}, nil
}
