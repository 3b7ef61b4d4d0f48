package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/snapshot"
	"repro/smt"
)

// span is one timed call at a layer boundary; parent is the enclosing
// span's id (0 for none).
type span struct {
	name       string
	id, parent int64
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	bytes []float64 // saved snapshot sizes
	sims  []smt.Results
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; the returned func closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	id := t.next.Add(1)
	start := time.Since(t.t0)
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start, end: end})
		t.mu.Unlock()
	}
}

// reset drops everything recorded so far (the set-up phase).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.bytes, t.sims = nil, nil, nil
	t.mu.Unlock()
}

// stats returns, per span name, the count and the mean total and self
// durations. Self time is a span's duration minus its children's.
func (t *tracer) stats() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]spanStat{}
	for _, s := range t.spans {
		st := out[s.name]
		st.n++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[s.id]
		out[s.name] = st
	}
	return out
}

type spanStat struct {
	n           int
	total, self time.Duration
}

func (s spanStat) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return s.total.Seconds() * 1e3 / float64(s.n)
}

func (s spanStat) selfMS() float64 {
	if s.n == 0 {
		return 0
	}
	return s.self.Seconds() * 1e3 / float64(s.n)
}

// tier is a memory LRU over an optional disk store with a span around
// each call into either; it mirrors cache.Tiered, which hides the split.
type tier[V any] struct {
	tr                *tracer
	memSpan, diskSpan string
	front             *cache.Store[V]
	back              *cache.Disk[V]
	diskHits          atomic.Int64
}

func (t *tier[V]) Get(key string) (V, bool) {
	_, end := t.tr.begin(t.memSpan, 0)
	v, ok := t.front.Get(key)
	end()
	if ok {
		return v, true
	}
	if t.back != nil {
		_, end := t.tr.begin(t.diskSpan, 0)
		v, ok = t.back.Get(key)
		end()
		if ok {
			t.diskHits.Add(1)
			t.front.Put(key, v)
			return v, true
		}
	}
	return v, false
}

func (t *tier[V]) Put(key string, v V) {
	if t.back != nil {
		_, end := t.tr.begin("cache.disk_put", 0)
		t.back.Put(key, v)
		end()
	}
	t.front.Put(key, v)
}

// kernel is exp.SimulateEnv's measurement kernel with a span around each
// smt call, calling them in the same order. Results are checked
// byte-equal against smtd and the uncached reference, so the mirror
// cannot drift unnoticed.
type kernel struct {
	tr  *tracer
	env exp.WarmEnv
}

func (k *kernel) exec(p dist.JobPayload, onSnap func(smt.Snapshot)) smt.Results {
	root, endRoot := k.tr.begin("dist.exec", 0)
	defer endRoot()
	cfg := p.Config
	o := exp.Opts{Runs: 1, Warmup: p.Warmup, Measure: p.Measure, Seed: p.Seed}
	spec := smt.WorkloadMix(cfg.Threads, p.Run, p.Seed)
	warmup := o.Warmup
	if warmup < 0 {
		warmup = 0
	}
	build := func() *smt.Simulator {
		id, end := k.tr.begin("smt.build", root)
		defer end()
		if k.env.Traces != nil {
			records := warmup + o.Measure
			records += records>>3 + 1024
			_, endGet := k.tr.begin("snapshot.trace_get", id)
			ts, err := k.env.Traces.Get(spec, records)
			endGet()
			if err == nil {
				if sim, err := smt.NewReplay(cfg, ts); err == nil {
					return sim
				}
			}
		}
		return smt.MustNew(cfg, spec)
	}
	measure := func(sim *smt.Simulator, warm int64) smt.Results {
		_, end := k.tr.begin("smt.measure", root)
		sess, err := sim.Start(context.Background(), smt.RunSpec{
			Warmup:         warm,
			Instructions:   o.Measure * int64(cfg.Threads),
			IntervalCycles: p.Interval,
		})
		if err != nil {
			panic(err) // unreachable: the simulator is freshly built and idle
		}
		for snap := range sess.Snapshots() {
			if onSnap != nil {
				onSnap(snap)
			}
		}
		res, _ := sess.Finish()
		end()
		k.tr.mu.Lock()
		k.tr.sims = append(k.tr.sims, res)
		k.tr.mu.Unlock()
		return res
	}

	sim := build()
	if k.env.Snapshots == nil || warmup == 0 {
		return measure(sim, warmup*int64(cfg.Threads))
	}
	key := snapshot.Key(cfg.Fingerprint(), p.Run, p.Seed, warmup)
	if data, ok := k.env.Snapshots.Get(key); ok {
		_, end := k.tr.begin("smt.restore", root)
		err := sim.RestoreSnapshot(data)
		end()
		if err == nil {
			return measure(sim, 0)
		}
		sim = build()
	}
	_, endWarm := k.tr.begin("smt.warmup", root)
	sim.Warmup(warmup * int64(cfg.Threads))
	endWarm()
	_, endSave := k.tr.begin("smt.save", root)
	data, err := sim.SaveSnapshot()
	endSave()
	if err == nil {
		k.tr.mu.Lock()
		k.tr.bytes = append(k.tr.bytes, float64(len(data)))
		k.tr.mu.Unlock()
		k.env.Snapshots.Put(key, data)
	}
	return measure(sim, 0)
}

// tracedDispatch wraps the coordinator's Dispatch in a span.
type tracedDispatch struct {
	tr    *tracer
	coord *dist.Coordinator
}

func (d tracedDispatch) Dispatch(ctx context.Context, j exp.Job, o exp.Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error) {
	_, end := d.tr.begin("dist.dispatch", 0)
	defer end()
	return d.coord.Dispatch(ctx, j, o, interval, onSnap)
}

// stack is smtd's cache, checkpoint and execution stack built in-process
// from the same public constructors, with spans at each boundary.
type stack struct {
	tr        *tracer
	results   *tier[smt.Results]
	flight    *cache.Flight[smt.Results]
	snaps     *tier[[]byte]
	snapshots *snapshot.Store
	traces    *snapshot.TraceCache
	coord     *dist.Coordinator
	slots     int
}

// newStack builds the stack for h's workload.
func (h *harness) newStack(tr *tracer) (*stack, error) {
	s := &stack{tr: tr, slots: h.nproc}
	s.results = &tier[smt.Results]{tr: tr, memSpan: "cache.mem_get", diskSpan: "cache.result_disk_get", front: cache.New[smt.Results](4096)}
	s.snaps = &tier[[]byte]{tr: tr, memSpan: "snapshot.mem_get", diskSpan: "cache.disk_get", front: cache.New[[]byte](128)}
	if h.w.cacheDir {
		dir, err := h.freshDir("traced-cache")
		if err != nil {
			return nil, err
		}
		if s.results.back, err = cache.NewDisk[smt.Results](dir); err != nil {
			return nil, err
		}
		if s.snaps.back, err = cache.NewDisk[[]byte](dir + "/snapshots"); err != nil {
			return nil, err
		}
	}
	s.flight = cache.NewFlight[smt.Results](s.results)
	s.snapshots = snapshot.NewStore(s.snaps)
	s.traces = snapshot.NewTraceCache(0)
	local := &kernel{tr: tr, env: exp.WarmEnv{Snapshots: s.snapshots, Traces: s.traces}}
	s.coord = dist.NewCoordinator(dist.Options{LocalSlots: make(chan struct{}, s.slots), ServesCache: true, Exec: local.exec})
	return s, nil
}

// sweep runs one sweep through the stack, as smtd's startSweep does, and
// returns its canonical bytes. A sweep whose finished-job count stops
// moving for stallAfter is reported hung and abandoned.
func (s *stack) sweep(ctx context.Context, req sweepReq) (body []byte, hits, jobs int, err error) {
	e, ok := exp.Lookup(req.Experiment)
	if !ok {
		return nil, 0, 0, fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	var done, cached atomic.Int64
	runner := exp.Runner{
		Workers:   s.slots,
		Cache:     s.flight,
		Dispatch:  tracedDispatch{tr: s.tr, coord: s.coord},
		Snapshots: s.snapshots,
		Traces:    s.traces,
		OnJobDone: func(_ exp.Job, _ smt.Results, fromCache bool) {
			done.Add(1)
			if fromCache {
				cached.Add(1)
			}
		},
	}
	type outcome struct {
		body []byte
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		_, end := s.tr.begin("sweep", 0)
		defer end()
		res, err := runner.RunExperiment(ctx, e, req.Opts)
		if err != nil {
			ch <- outcome{nil, err}
			return
		}
		var buf bytes.Buffer
		_, endEnc := s.tr.begin("exp.encode", 0)
		err = res.EncodeJSON(&buf)
		endEnc()
		ch <- outcome{buf.Bytes(), err}
	}()
	last, moved := int64(-1), time.Now()
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case o := <-ch:
			return o.body, int(cached.Load()), int(done.Load()), o.err
		case <-ctx.Done():
			return nil, 0, 0, ctx.Err()
		case now := <-tick.C:
			if n := done.Load(); n != last {
				last, moved = n, now
			} else if now.Sub(moved) > stallAfter {
				return nil, 0, 0, fmt.Errorf("%w in-process: %s seed %d at %d jobs", errHung, req.Experiment, req.Opts.Seed, n)
			}
		}
	}
}
