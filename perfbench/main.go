// Command perfbench is the repository's end-to-end benchmark. It drives
// sweeps through a real smtd built from the checkout, as closed-loop
// clients over HTTP, checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload cold_sweep --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the same workload briefly through smtd, then again in-process through the
// constructors smtd wires, with spans around each layer and a CPU profile,
// and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/exp"
)

// Paper reference for model_ipc: the abstract's headline result.
const (
	paperIPC     = 5.4 // ICOUNT.2.8 at 8 threads
	paperSpeedup = 2.5 // over an unmodified superscalar
)

// metric is one reported value. n and note go to the detail line only.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: cold_sweep, warm_resweep or cached_sweep")
		seed    = flag.Uint64("seed", 1, "workload seed; every sweep the run submits derives from it")
		seconds = flag.Int("seconds", 10, "sizes the measured work: about this many seconds of sweeps on a 2-vCPU host")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		bin     = flag.String("smtd", "", "smtd binary built from the checkout")
		workdir = flag.String("workdir", ".bench_build", "directory for temporary cache directories")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (cold_sweep|warm_resweep|cached_sweep), -smtd, --seconds >= 1, --trace 0|1")
		return 2
	}
	runDir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	h := &harness{w: w, bin: *bin, runDir: runDir, seed: *seed, nproc: runtime.NumCPU(), ps: &procs{}}
	defer os.RemoveAll(runDir)
	defer h.ps.stopAll()

	// A signal still stops every child before the harness exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		h.ps.stopAll()
	}()

	metrics := map[string]metric{}
	detail := map[string]any{"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace, "nproc": h.nproc}
	d := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		err = h.endToEnd(ctx, d, metrics, detail)
	} else {
		err = h.traced(ctx, d, metrics, detail)
	}
	if err != nil {
		if !errors.As(err, new(countedErr)) {
			h.tally.record(err)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	detail["failures"] = h.tally.reasons
	printReport(h, metrics, detail)
	if err != nil || !h.tally.correct() {
		return 1
	}
	return 0
}

// endToEnd is the untraced run: set up, measure, check.
func (h *harness) endToEnd(ctx context.Context, d time.Duration, m map[string]metric, detail map[string]any) error {
	if err := h.policyPairs(detail); err != nil {
		return err
	}
	srv, primed, setups, err := h.setUp(ctx, h.w.setups)
	if err != nil {
		return err
	}
	m["setup_s"] = metric{Value: median(setups), Unit: "s", n: len(setups)}
	ph, err := h.measure(ctx, &srv, primed, h.w.sweeps(d), d)
	if err != nil {
		return err
	}
	h.shutdown(srv)
	if err := h.finish(ctx, ph, primed); err != nil {
		return err
	}
	e2e := h.summarize(ph, primed)
	for k, v := range e2e {
		switch k {
		case "setup_s", "sweep_s", "jobs_per_s", "sim_minstr_per_s", "peak_rss_mb":
			m[k] = v
		default:
			detail[k] = detailOf(v)
		}
	}
	return nil
}

// policyPairs checks the 28 frozen policy-pair hashes.
func (h *harness) policyPairs(detail map[string]any) error {
	n, err := checkPolicyPairs(h.nproc)
	if err != nil {
		return h.tally.record(err)
	}
	h.tally.ok()
	detail["policy_pairs_checked"] = n
	return nil
}

// finish runs the checks that follow the timed phase: the path assertion
// and the recomputation of a seeded sample sweep.
func (h *harness) finish(ctx context.Context, ph *phase, primed []*sweepRecord) error {
	if len(ph.sweeps) == 0 {
		return fmt.Errorf("no sweep completed in the measured phase")
	}
	if err := checkPath(h.w, ph.path, ph.pathJobs); err != nil {
		return h.tally.record(err)
	}
	pool := ph.sweeps
	if h.w.cached {
		pool = primed // every cached response already equals these bytes
	}
	rng := rand.New(rand.NewSource(int64(sweepSeed(h.seed, streamSample, 0))))
	sample := pool[rng.Intn(len(pool))]
	if err := checkReference(ctx, sample, h.nproc); err != nil {
		return h.tally.record(err)
	}
	h.tally.ok()
	return nil
}

// summarize turns a measured phase into end-to-end figures.
func (h *harness) summarize(ph *phase, primed []*sweepRecord) map[string]metric {
	out := map[string]metric{}
	var secs, firsts []float64
	jobs := 0
	var committed float64
	for _, r := range ph.sweeps {
		secs = append(secs, r.seconds())
		if !r.first.IsZero() {
			firsts = append(firsts, r.first.Sub(r.submit).Seconds())
		}
		jobs += r.status.TotalJobs
		committed += committedOf(resultOf(r, primed), r.req.Opts.Normalized().Runs)
	}
	wall := ph.wall.Seconds()
	out["sweep_s"] = metric{Value: median(secs), Unit: "s", n: len(secs)}
	if p, v, ok := tail(secs); ok {
		out["sweep_tail_s"] = metric{Value: v, Unit: "s", n: len(secs), note: fmt.Sprintf("p%g", p)}
	} else {
		out["sweep_tail_s"] = metric{Unit: "s", n: len(secs), note: fmt.Sprintf("omitted: %d samples, fewer than %d beyond the lowest candidate percentile", len(secs), minBeyond)}
	}
	if len(firsts) > 0 {
		out["first_result_s"] = metric{Value: median(firsts), Unit: "s", n: len(firsts)}
	}
	out["jobs_per_s"] = metric{Value: float64(jobs) / wall, Unit: "1/s", n: jobs}
	out["sim_minstr_per_s"] = metric{Value: committed / 1e6 / wall, Unit: "Minstr/s", n: len(ph.sweeps)}
	if h.rssAtQuota > 0 {
		out["peak_rss_mb"] = metric{Value: h.rssAtQuota, Unit: "MiB", n: 1, note: fmt.Sprintf("VmHWM after %d measured sweeps", h.w.quota)}
	} else {
		out["peak_rss_mb"] = metric{Value: h.peakRSS, Unit: "MiB", n: 1, note: "no instance completed the quota; VmHWM at shutdown"}
	}
	ipc, n := h.modelIPC(ph.sweeps, primed)
	out["model_ipc"] = metric{Value: ipc, Unit: "IPC", n: n,
		note: fmt.Sprintf("paper %.1f IPC for ICOUNT.2.8 at 8 threads (%.1fx a superscalar); divergence %+.1f%%; the model is otherwise unvalidated", paperIPC, paperSpeedup, (ipc/paperIPC-1)*100)}
	out["failed_frac"] = metric{Value: h.tally.failedFrac(), Unit: "ratio", n: h.tally.attempted}
	out["path"] = metric{note: fmt.Sprintf("result_hits=%v ckpt_hits=%v ckpt_misses=%v ckpt_disk_hits=%v",
		ph.path.resultHits, ph.path.ckptHits, ph.path.ckptMisses, ph.path.ckptDiskHits)}
	return out
}

// resultOf decodes a sweep's result once. A cached resubmission carries
// its set-up sweep's bytes (checked equal), so it shares that decode.
func resultOf(r *sweepRecord, primed []*sweepRecord) *exp.ExperimentResult {
	for _, p := range primed {
		if p.req == r.req {
			r = p
			break
		}
	}
	if r.decoded == nil {
		var res exp.ExperimentResult
		if json.Unmarshal(r.body, &res) == nil {
			r.decoded = &res
		}
	}
	return r.decoded
}

// committedOf sums committed instructions over a result's points. A point
// carries the last rotation's counters; each rotation commits the same
// budget (up to commit-width overshoot), so runs scales it.
func committedOf(res *exp.ExperimentResult, runs int) float64 {
	if res == nil {
		return 0
	}
	var sum float64
	for _, s := range res.Series {
		for _, p := range s.Points {
			sum += float64(p.Results.Committed)
		}
	}
	return sum * float64(runs)
}

// refPoint returns the workload's ICOUNT.2.8 8-thread point, if present.
func refPoint(res *exp.ExperimentResult, series string) *exp.Point {
	if res == nil {
		return nil
	}
	pts := res.Lookup(series)
	for i := range pts {
		if pts[i].Threads == 8 {
			return &pts[i]
		}
	}
	return nil
}

// modelIPC is the mean IPC of the reference point over the first quota
// completed sweeps by index.
func (h *harness) modelIPC(sweeps, primed []*sweepRecord) (float64, int) {
	byIdx := append([]*sweepRecord(nil), sweeps...)
	sort.Slice(byIdx, func(i, j int) bool { return byIdx[i].idx < byIdx[j].idx })
	var ipcs []float64
	for _, r := range byIdx {
		if len(ipcs) == h.w.quota {
			break
		}
		if p := refPoint(resultOf(r, primed), h.w.refSeries); p != nil {
			ipcs = append(ipcs, p.IPC)
		}
	}
	return mean(ipcs), len(ipcs)
}

func detailOf(m metric) map[string]any {
	out := map[string]any{"n": m.n}
	if m.Unit != "" {
		out["value"], out["unit"] = m.Value, m.Unit
	}
	if m.note != "" {
		out["note"] = m.note
	}
	return out
}

// printReport prints the detail line (sample counts, notes, failures) and
// then the result line, which is always the last line of stdout.
func printReport(h *harness, metrics map[string]metric, detail map[string]any) {
	md := map[string]any{}
	for k, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// JSON has no NaN; a ratio over an empty sample reads 0.
			v.Value, v.note = 0, "undefined: "+v.note
			metrics[k] = v
		}
		md[k] = detailOf(v)
	}
	detail["metrics"] = md
	detail["attempted"], detail["failed"], detail["failed_frac"] = h.tally.attempted, h.tally.failed, h.tally.failedFrac()
	line, err := json.Marshal(map[string]any{"perfbench": detail})
	if err != nil {
		line = []byte(fmt.Sprintf(`{"perfbench":{"error":%q}}`, err.Error()))
	}
	fmt.Println(string(line))
	out, _ := json.Marshal(report{Correct: h.tally.correct(), Attempted: h.tally.attempted, Failed: h.tally.failed, Metrics: metrics})
	fmt.Println(string(out))
}
