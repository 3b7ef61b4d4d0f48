package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/exp"
)

// workload is one traffic mix the harness drives through smtd. Every
// sweep it submits is generated from the run's --seed.
type workload struct {
	name string
	// cacheDir gives smtd a -cache-dir over a fresh temporary directory.
	cacheDir bool
	// prime returns the set-up sweeps. attempt > 0 after a set-up sweep
	// hung; the workload then draws fresh seeds.
	prime func(seed uint64, attempt int) []sweepReq
	// next returns the i-th measured sweep.
	next func(seed uint64, attempt int, i int) sweepReq
	// refSeries names the series holding the ICOUNT.2.8 machine whose
	// 8-thread point model_ipc reads.
	refSeries string
	// setups is how many times an untraced run sets up, for setup_s's
	// median.
	setups int
	// quota is a fixed amount of measured work: peak_rss_mb is read after
	// an instance completes this many sweeps, and model_ipc averages the
	// first quota sweeps by index, so neither depends on how many sweeps
	// hung or which smtd instance was up at the end.
	quota int
	// rate is how many measured sweeps a second of --seconds holds: about
	// what the workload completed per second on a 2-vCPU host. It sizes a
	// run's fixed work (see sweeps).
	rate float64
	// restores marks the workload whose measured jobs must all restore a
	// warmup checkpoint; cached marks the one whose jobs must all hit the
	// result cache, driven by nproc clients instead of one.
	restores, cached bool
}

// stallAfter is how long a simulating sweep may go without finishing a
// job before the harness declares it hung (see README: some workload seeds
// deadlock the simulator). Jobs at these budgets take well under 1 s.
const stallAfter = 2 * time.Second

// Budgets. Instruction budgets are per thread, as in exp.Opts.
//
// cold_sweep runs a third of exp.DefaultOpts' warmup and measure. A fig5
// sweep also has a fixed cost that does not grow with the budget (about
// 0.35 s on a 2-vCPU host: job set-up, HTTP and polling), which at this
// budget is about a seventh of the sweep, so simulation dominates, and a
// run still completes about ten sweeps. warm_resweep's measured jobs spend
// most of their time reading and restoring checkpoints, so its measure
// budget stays small; its warmup only sets how long set-up takes.
// cached_sweep's budgets only size its set-up.
const (
	coldWarmup, coldMeasure     = 10_000, 20_000
	warmWarmup, warmMeasure     = 3_000, 500
	cachedWarmup, cachedMeasure = 1_000, 2_000
)

// sweepSeed derives the workload seed of one sweep from the run's seed:
// stream separates independent uses, i numbers the sweeps of a stream.
func sweepSeed(seed uint64, stream, i int) uint64 {
	x := seed*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x%1_000_000_000 + 1
}

// Seed streams.
const (
	streamSweeps = iota
	streamPrime
	streamOrder
	streamSample
)

var workloads = []workload{
	{
		name:   "cold_sweep",
		quota:  5,
		setups: 21,
		rate:   0.375,
		next: func(seed uint64, _ int, i int) sweepReq {
			return sweepReq{Experiment: "fig5", Opts: exp.Opts{Runs: 1, Warmup: coldWarmup, Measure: coldMeasure, Seed: sweepSeed(seed, streamSweeps, i)}}
		},
		refSeries: "ICOUNT.2.8",
	},
	{
		name:     "warm_resweep",
		cacheDir: true,
		quota:    3,
		setups:   3,
		rate:     0.45,
		prime: func(seed uint64, attempt int) []sweepReq {
			return []sweepReq{warmSweep(seed, attempt, warmMeasure)}
		},
		// Only measure changes, so every job misses the result cache and
		// restores the checkpoint set-up stored: the checkpoint key leaves
		// measure out.
		next: func(seed uint64, attempt int, i int) sweepReq {
			return warmSweep(seed, attempt, warmMeasure+1+int64(i))
		},
		refSeries: "ICOUNT.2.8",
		restores:  true,
	},
	{
		name:   "cached_sweep",
		quota:  100,
		setups: 3,
		rate:   850,
		prime:  cachedPrime,
		// Resubmissions of the primed sweeps in a seeded order.
		next: func(seed uint64, attempt int, i int) sweepReq {
			primed := cachedPrime(seed, attempt)
			order := rand.New(rand.NewSource(int64(sweepSeed(seed, streamOrder, i/len(primed))))).Perm(len(primed))
			return primed[order[i%len(primed)]]
		},
		refSeries: "ICOUNT.2.8",
		cached:    true,
	},
}

// sweeps is how many measured sweeps a phase of d submits. A count, not a
// deadline, ends the phase, so which sweeps a run attempts, and so which of
// them hang (see README), depends on the seed alone and not on how fast the
// host or the build is.
func (w *workload) sweeps(d time.Duration) int {
	return max(1, int(math.Round(w.rate*d.Seconds())))
}

// cachedPrime is one sweep of each registered experiment.
func cachedPrime(seed uint64, attempt int) []sweepReq {
	var out []sweepReq
	for _, name := range exp.Names() {
		out = append(out, sweepReq{Experiment: name, Opts: exp.Opts{Runs: 1, Warmup: cachedWarmup, Measure: cachedMeasure, Seed: sweepSeed(seed, streamPrime, attempt)}})
	}
	return out
}

// warmSweep is warm_resweep's fig5 sweep at the default Runs 4 and a
// warmup-dominated budget.
func warmSweep(seed uint64, attempt int, measure int64) sweepReq {
	return sweepReq{Experiment: "fig5", Opts: exp.Opts{Runs: 4, Warmup: warmWarmup, Measure: measure, Seed: sweepSeed(seed, streamPrime, attempt)}}
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
