// Package stats provides the run metrics and aggregation helpers used
// throughout the evaluation: IPC, speedup, coverage, accuracy, and the
// paper's averaging conventions (arithmetic mean for rates, geometric
// mean for IPC-derived quantities).
package stats

import (
	"fmt"
	"math"
)

// Run captures the outcome of simulating one workload under one
// configuration.
type Run struct {
	Workload     string
	Config       string
	Instructions uint64
	Cycles       uint64

	Loads            uint64 // dynamic loads eligible for prediction
	PredictedLoads   uint64 // loads with a delivered prediction
	CorrectPredicted uint64 // delivered predictions that validated correct
	VPFlushes        uint64 // value-misprediction recovery flushes
	BranchFlushes    uint64 // branch-misprediction redirects
	MemOrderFlushes  uint64 // memory-ordering violation flushes

	// Aborted marks a run cut short by context cancellation: the counts
	// above cover only the instructions simulated before the abort, so
	// the run must not be cached or aggregated as a complete result.
	Aborted bool
}

// IPC returns instructions per cycle.
func (r Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Coverage returns the percentage of loads with a delivered prediction,
// the paper's coverage metric.
func (r Run) Coverage() float64 {
	if r.Loads == 0 {
		return 0
	}
	return 100 * float64(r.PredictedLoads) / float64(r.Loads)
}

// Accuracy returns the fraction of delivered predictions that were
// correct (the paper tunes all predictors to ≈ 0.99).
func (r Run) Accuracy() float64 {
	if r.PredictedLoads == 0 {
		return 1
	}
	return float64(r.CorrectPredicted) / float64(r.PredictedLoads)
}

// Speedup returns the relative IPC gain of r over base as a percentage
// (e.g. 4.5 means 4.5% faster).
func Speedup(r, base Run) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return 100 * (r.IPC()/base.IPC() - 1)
}

// Mean returns the arithmetic mean, the paper's default aggregate.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMeanSpeedup aggregates per-workload IPC ratios geometrically (the
// paper uses geometric averaging for IPC) and returns the aggregate
// speedup percentage.
func GeoMeanSpeedup(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	logSum := 0.0
	n := 0
	for _, r := range ratios {
		if r <= 0 {
			continue
		}
		logSum += math.Log(r)
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * (math.Exp(logSum/float64(n)) - 1)
}

// Accumulate folds r into the machine-wide aggregate dst: counters are
// summed, Cycles takes the maximum (the contexts of an SMT run share
// wall-clock cycles — the machine is done when its slowest context is),
// and an aborted contributor marks the aggregate aborted. dst keeps its
// own Workload/Config labels. Allocation-free, so the pipeline's SMT
// hot path can merge per-context runs in place.
func Accumulate(dst *Run, r Run) {
	dst.Instructions += r.Instructions
	if r.Cycles > dst.Cycles {
		dst.Cycles = r.Cycles
	}
	dst.Loads += r.Loads
	dst.PredictedLoads += r.PredictedLoads
	dst.CorrectPredicted += r.CorrectPredicted
	dst.VPFlushes += r.VPFlushes
	dst.BranchFlushes += r.BranchFlushes
	dst.MemOrderFlushes += r.MemOrderFlushes
	dst.Aborted = dst.Aborted || r.Aborted
}

// String implements fmt.Stringer with the headline numbers.
func (r Run) String() string {
	return fmt.Sprintf("%s/%s: IPC=%.3f coverage=%.1f%% accuracy=%.4f flushes(vp=%d br=%d mo=%d)",
		r.Workload, r.Config, r.IPC(), r.Coverage(), r.Accuracy(),
		r.VPFlushes, r.BranchFlushes, r.MemOrderFlushes)
}
