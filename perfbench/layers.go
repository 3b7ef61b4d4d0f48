package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/smt"
)

// traced is the per-layer run. The first half of the time drives the
// workload through smtd untraced (path counts, first-result and tail
// figures, and the untraced sweep time the tracing gap is taken against);
// the second half drives the same generated sweeps in-process through
// smtd's constructors with spans and a CPU profile.
func (h *harness) traced(ctx context.Context, d time.Duration, m map[string]metric, detail map[string]any) error {
	if err := h.policyPairs(detail); err != nil {
		return err
	}
	half := d / 2
	if half < time.Second {
		half = time.Second
	}
	srv, primed, _, err := h.setUp(ctx, 1)
	if err != nil {
		return err
	}
	n := h.w.sweeps(half)
	ph, err := h.measure(ctx, &srv, primed, n, half)
	if err != nil {
		return err
	}
	h.shutdown(srv)
	if err := h.finish(ctx, ph, primed); err != nil {
		return err
	}
	e2e := h.summarize(ph, primed)

	tr := newTracer()
	st, err := h.newStack(tr)
	if err != nil {
		return err
	}
	defer st.coord.Close()
	want := map[sweepReq][]byte{}
	for _, r := range append(append([]*sweepRecord(nil), primed...), ph.sweeps...) {
		want[r.req] = r.body
	}
	if h.w.prime != nil {
		for _, req := range h.w.prime(h.seed, h.attempt) {
			body, _, _, err := st.sweep(ctx, req)
			if err == nil {
				err = sameBytes(req, body, want)
			}
			if err != nil {
				return h.tally.record(fmt.Errorf("traced set-up: %w", err))
			}
			h.tally.ok()
		}
	}
	tr.reset()
	before := st.counters()

	profPath := filepath.Join(h.runDir, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return err
	}
	tp := h.tracedLoop(ctx, st, n, ph.failed, want)
	pprof.StopCPUProfile()
	if tp.err != nil {
		return tp.err
	}
	if len(tp.secs) == 0 {
		return errors.New("no traced sweep completed")
	}
	after := st.counters()
	fracs, samples, err := foldProfile(profPath)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	detail["profile_samples"] = samples
	spans := map[string]any{}
	for name, s := range tr.stats() {
		spans[name] = map[string]any{"n": s.n, "mean_ms": s.meanMS(), "self_ms": s.selfMS()}
	}
	detail["spans"] = spans
	h.layerMetrics(m, tr, tp, after.sub(before), fracs)

	untraced := e2e["sweep_s"].Value
	traced := median(tp.secs)
	m["trace.sweep_s"] = metric{Value: traced, Unit: "s", n: len(tp.secs)}
	m["trace.untraced_sweep_s"] = metric{Value: untraced, Unit: "s", n: e2e["sweep_s"].n}
	m["trace.gap_frac"] = metric{Value: traced/untraced - 1, Unit: "ratio", n: len(tp.secs),
		note: "traced in-process sweep_s over untraced smtd sweep_s, minus 1: tracing overhead plus the process boundary smtd adds (negative when the boundary costs more)"}
	m["e2e.first_result_s"] = metric{Value: e2e["first_result_s"].Value, Unit: "s", n: e2e["first_result_s"].n, note: "0 where sweeps are not polled (cached_sweep)"}
	tail := e2e["sweep_tail_s"]
	m["e2e.sweep_tail_s"] = metric{Value: tail.Value, Unit: "s", n: tail.n, note: tail.note}
	m["path.result_hits"] = metric{Value: ph.path.resultHits, Unit: "count"}
	m["path.ckpt_hits"] = metric{Value: ph.path.ckptHits, Unit: "count"}
	m["path.ckpt_misses"] = metric{Value: ph.path.ckptMisses, Unit: "count"}
	m["path.ckpt_disk_hits"] = metric{Value: ph.path.ckptDiskHits, Unit: "count"}
	m["model_ipc"] = e2e["model_ipc"]
	m["failed_frac"] = metric{Value: h.tally.failedFrac(), Unit: "ratio", n: h.tally.attempted}
	return nil
}

// sameBytes requires an in-process sweep's bytes to equal smtd's for the
// same request, where smtd ran it.
func sameBytes(req sweepReq, body []byte, want map[sweepReq][]byte) error {
	if w, ok := want[req]; ok && !bytes.Equal(w, body) {
		return incorrect("traced %s seed %d differs from smtd's result", req.Experiment, req.Opts.Seed)
	}
	return nil
}

// tracedPhase is the traced loop's outcome.
type tracedPhase struct {
	secs     []float64
	results  []*exp.ExperimentResult
	hits     int
	jobs     int
	keyNanos []float64 // per-job exp.Job.Key cost, timed after each sweep
	err      error
}

// tracedLoop replays in-process the sweeps 0 to n-1 that smtd ran, skipping
// the indices that failed there (a sweep that hung there hangs here too,
// and would leave a spinning goroutine in the profile).
func (h *harness) tracedLoop(ctx context.Context, st *stack, n int, failed map[int]bool, want map[sweepReq][]byte) *tracedPhase {
	tp := &tracedPhase{}
	clients := 1
	if h.w.cached {
		clients = h.nproc
	}
	var (
		mu   sync.Mutex
		next int
		hung bool
		wg   sync.WaitGroup
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for failed[next] {
					next++
				}
				i := next
				next++
				stop := tp.err != nil || hung || i >= n
				mu.Unlock()
				if stop {
					return
				}
				req := h.w.next(h.seed, h.attempt, i)
				t0 := time.Now()
				body, hits, jobs, err := st.sweep(ctx, req)
				secs := time.Since(t0).Seconds()
				var res exp.ExperimentResult
				if err == nil {
					err = sameBytes(req, body, want)
				}
				if err == nil {
					if e, ok := exp.Lookup(req.Experiment); ok {
						err = checkShape(body, e, req.Opts.Normalized())
					}
				}
				if err == nil {
					err = json.Unmarshal(body, &res)
				}
				keyNanos := jobKeyNanos(req)
				mu.Lock()
				switch {
				case errors.Is(err, errHung):
					// smtd finished this sweep, so it should not hang here.
					// The phase ends: the deadlocked goroutine cannot be
					// stopped and would skew the rest of the profile.
					h.tally.record(err)
					hung = true
				case err != nil:
					tp.err = h.tally.record(err)
				default:
					h.tally.ok()
					tp.secs = append(tp.secs, secs)
					tp.results = append(tp.results, &res)
					tp.hits += hits
					tp.jobs += jobs
					tp.keyNanos = append(tp.keyNanos, keyNanos)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return tp
}

// jobKeyNanos times exp.Job.Key over a sweep's jobs and returns the mean
// per job. The runner derives the same keys internally, where no span can
// reach; timing them here measures the same code on the same inputs.
func jobKeyNanos(req sweepReq) float64 {
	e, ok := exp.Lookup(req.Experiment)
	if !ok {
		return 0
	}
	jobs, err := exp.Jobs(e, req.Opts)
	if err != nil || len(jobs) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, j := range jobs {
		_ = j.Key(req.Opts)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(jobs))
}

// stackCounters are the in-process stack's cumulative counters.
type stackCounters struct {
	traceBuilds, diskHits float64
}

func (s *stack) counters() stackCounters {
	var c stackCounters
	c.traceBuilds = float64(s.traces.Stats().Builds)
	c.diskHits = float64(s.snaps.diskHits.Load())
	return c
}

func (c stackCounters) sub(b stackCounters) stackCounters {
	return stackCounters{c.traceBuilds - b.traceBuilds, c.diskHits - b.diskHits}
}

// layerMetrics fills the per-layer metrics from the spans, counters,
// profile and the traced sweeps' results.
func (h *harness) layerMetrics(m map[string]metric, tr *tracer, tp *tracedPhase, c stackCounters, fracs map[string]float64) {
	sp := tr.stats()
	ms := func(name, span string, self bool) {
		s := sp[span]
		v := s.meanMS()
		if self {
			v = s.selfMS()
		}
		m[name] = metric{Value: v, Unit: "ms", n: s.n}
	}
	ms("smt.build_ms", "smt.build", true)
	ms("snapshot.trace_get_ms", "snapshot.trace_get", false)
	ms("smt.warmup_ms", "smt.warmup", false)
	ms("smt.save_ms", "smt.save", false)
	ms("smt.restore_ms", "smt.restore", false)
	ms("smt.measure_ms", "smt.measure", false)
	ms("cache.disk_get_ms", "cache.disk_get", false)
	ms("cache.disk_put_ms", "cache.disk_put", false)
	ms("exp.encode_ms", "exp.encode", false)
	ms("dist.dispatch_ms", "dist.dispatch", false)
	m["cache.mem_get_us"] = metric{Value: sp["cache.mem_get"].meanMS() * 1e3, Unit: "us", n: sp["cache.mem_get"].n}
	m["exp.job_key_us"] = metric{Value: mean(tp.keyNanos) / 1e3, Unit: "us", n: len(tp.keyNanos)}

	exec := sp["dist.exec"]
	m["dist.exec_ms"] = metric{Value: exec.meanMS(), Unit: "ms", n: exec.n}
	m["dist.overhead_ms"] = metric{Value: sp["dist.dispatch"].meanMS() - exec.meanMS(), Unit: "ms", n: exec.n,
		note: "mean dispatch minus mean execution"}

	m["snapshot.trace_builds"] = metric{Value: c.traceBuilds, Unit: "count"}
	m["snapshot.disk_hits"] = metric{Value: c.diskHits, Unit: "count"}
	m["smt.snapshot_bytes"] = metric{Value: mean(tr.bytes), Unit: "bytes", n: len(tr.bytes)}
	ratio := 0.0
	if tp.jobs > 0 {
		ratio = float64(tp.hits) / float64(tp.jobs)
	}
	m["cache.result_hit_ratio"] = metric{Value: ratio, Unit: "ratio", n: tp.jobs}

	var cycles, committed float64
	for _, r := range tr.sims {
		cycles += float64(r.Cycles)
		committed += float64(r.Committed)
	}
	measureNS := float64(sp["smt.measure"].total.Nanoseconds())
	perCycle, perInstr := 0.0, 0.0
	if cycles > 0 {
		perCycle, perInstr = measureNS/cycles, measureNS/committed
	}
	m["core.ns_per_cycle"] = metric{Value: perCycle, Unit: "ns", n: len(tr.sims)}
	m["core.ns_per_instr"] = metric{Value: perInstr, Unit: "ns", n: len(tr.sims)}
	for _, b := range profileBuckets {
		m[b] = metric{Value: fracs[b], Unit: "ratio"}
	}

	var ref []smt.Results
	var ipcs []float64
	for _, res := range tp.results {
		if p := refPoint(res, h.w.refSeries); p != nil {
			ref = append(ref, p.Results)
			ipcs = append(ipcs, p.IPC)
		}
	}
	model := func(name string, f func(r smt.Results) float64) {
		var xs []float64
		for _, r := range ref {
			xs = append(xs, f(r))
		}
		m[name] = metric{Value: mean(xs), Unit: "ratio", n: len(xs)}
	}
	model("model.fetch.useful_per_cycle", func(r smt.Results) float64 { return r.UsefulFetchPerCyc })
	model("model.fetch.lost_imiss_frac", func(r smt.Results) float64 { return r.FetchLostIMiss })
	model("model.fetch.lost_back_pressure_frac", func(r smt.Results) float64 { return r.FetchLostBackPressure })
	model("model.issue.wrong_path_frac", func(r smt.Results) float64 { return r.WrongPathIssued })
	model("model.iq.int_full_frac", func(r smt.Results) float64 { return r.IntIQFull })
	model("model.branch.mispredict_rate", func(r smt.Results) float64 { return r.BranchMispredict })
	model("model.mem.icache_miss_rate", func(r smt.Results) float64 { return r.Caches[0].MissRate })
	model("model.mem.dcache_miss_rate", func(r smt.Results) float64 { return r.Caches[1].MissRate })
	m["model.fetch.useful_per_cycle"] = metric{Value: m["model.fetch.useful_per_cycle"].Value, Unit: "instr/cycle", n: len(ref)}
	m["model.paper_ipc_ratio"] = metric{Value: mean(ipcs) / paperIPC, Unit: "ratio", n: len(ipcs),
		note: fmt.Sprintf("model IPC of ICOUNT.2.8 at 8 threads over the paper's %.1f", paperIPC)}
}
