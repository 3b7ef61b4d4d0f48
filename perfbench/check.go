package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/exp"
	"repro/internal/fingerprint"
	"repro/internal/policy"
)

// errIncorrect marks an output that is wrong, as opposed to missing.
var errIncorrect = errors.New("incorrect output")

func incorrect(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errIncorrect, fmt.Sprintf(format, args...))
}

// checkSweep verifies one finished sweep: it is done with every job done,
// the result (when decode is set) has the experiment's registered shape
// and the requested opts, and the cache path matches the workload (cold
// sweeps never hit, cached sweeps always do).
func checkSweep(rec *sweepRecord, w *workload, priming, decode bool) error {
	st := rec.status
	e, ok := exp.Lookup(rec.req.Experiment)
	if !ok {
		return fmt.Errorf("unknown experiment %q", rec.req.Experiment)
	}
	o := rec.req.Opts.Normalized()
	if st.State != "done" || st.DoneJobs != st.TotalJobs || st.TotalJobs != e.Shape.Points*o.Runs {
		return incorrect("%s: state %q, %d/%d jobs, want %d", st.ID, st.State, st.DoneJobs, st.TotalJobs, e.Shape.Points*o.Runs)
	}
	if decode {
		if err := checkShape(rec.body, e, o); err != nil {
			return fmt.Errorf("%s: %w", st.ID, err)
		}
	}
	switch {
	case w.cached && !priming && st.CacheHits != st.TotalJobs:
		return incorrect("%s: %d/%d cache hits on a cached sweep", st.ID, st.CacheHits, st.TotalJobs)
	case !w.cached && !w.restores && st.CacheHits != 0:
		return incorrect("%s: %d cache hits on a cold sweep", st.ID, st.CacheHits)
	case w.restores && !priming && st.CacheHits != 0:
		return incorrect("%s: %d result-cache hits on a resweep with a new measure budget", st.ID, st.CacheHits)
	}
	return nil
}

// checkShape decodes a result and checks it against the registry.
func checkShape(body []byte, e exp.Experiment, o exp.Opts) error {
	var res exp.ExperimentResult
	if err := json.Unmarshal(body, &res); err != nil {
		return incorrect("result does not decode: %v", err)
	}
	if res.SchemaVersion != exp.SchemaVersion || res.Experiment != e.Name || res.Opts != o {
		return incorrect("result header schema=%d experiment=%q opts=%+v, want %d %q %+v",
			res.SchemaVersion, res.Experiment, res.Opts, exp.SchemaVersion, e.Name, o)
	}
	points := 0
	for _, s := range res.Series {
		for _, p := range s.Points {
			points++
			if p.Threads < 1 || math.IsNaN(p.IPC) || p.IPC <= 0 || p.Results.Committed <= 0 {
				return incorrect("series %s point %d: threads %d ipc %v committed %d", s.Name, points, p.Threads, p.IPC, p.Results.Committed)
			}
		}
	}
	if len(res.Series) != e.Shape.Series || points != e.Shape.Points {
		return incorrect("result is %d series / %d points, registry declares %d / %d",
			len(res.Series), points, e.Shape.Series, e.Shape.Points)
	}
	return nil
}

// checkCachedBytes requires a resubmitted sweep's result to equal the bytes
// captured when set-up computed it.
func checkCachedBytes(rec *sweepRecord, primed []*sweepRecord) error {
	for _, p := range primed {
		if p.req.Experiment == rec.req.Experiment && p.req.Opts == rec.req.Opts {
			if !bytes.Equal(p.body, rec.body) {
				return incorrect("%s: cached %s result differs from the bytes set-up captured", rec.status.ID, rec.req.Experiment)
			}
			return nil
		}
	}
	return fmt.Errorf("%s: no set-up sweep for %s", rec.status.ID, rec.req.Experiment)
}

// reference recomputes a sweep in-process with an exp.Runner that has no
// cache, checkpoints, replay or dispatcher, and returns its canonical bytes.
func reference(ctx context.Context, req sweepReq, workers int) ([]byte, error) {
	e, ok := exp.Lookup(req.Experiment)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	res, err := exp.Runner{Workers: workers}.RunExperiment(ctx, e, req.Opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkReference compares a sweep's bytes with the in-process reference.
func checkReference(ctx context.Context, rec *sweepRecord, workers int) error {
	want, err := reference(ctx, rec.req, workers)
	if err != nil {
		return err
	}
	if !bytes.Equal(rec.body, want) {
		return incorrect("%s (%s seed %d) differs from the uncached in-process reference", rec.status.ID, rec.req.Experiment, rec.req.Opts.Seed)
	}
	return nil
}

// goldenPath is the repository's frozen policy-pair hash file.
var goldenPath = filepath.Join("internal", "exp", "testdata", "policy_pairs.golden.json")

// checkPolicyPairs recomputes every built-in fetch x issue policy pair at
// the frozen budgets and compares the Results fingerprints with the golden
// file, so a run on a simulator that changed behaviour is refused before
// anything is timed. It returns how many pairs it checked.
func checkPolicyPairs(workers int) (int, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return 0, err
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		return 0, fmt.Errorf("%s: %w", goldenPath, err)
	}
	fetches, issues := policy.FetchNames(), policy.IssueNames()
	sort.Strings(fetches)
	sort.Strings(issues)
	type pair struct{ fetch, issue string }
	var pairs []pair
	for _, f := range fetches {
		for _, is := range issues {
			pairs = append(pairs, pair{f, is})
		}
	}
	if len(pairs) != len(want) {
		return 0, incorrect("%d registered policy pairs, golden file has %d", len(pairs), len(want))
	}
	o := exp.Opts{Runs: 1, Warmup: 1_000, Measure: 2_000, Seed: 1}
	got := make([]string, len(pairs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				cfg := exp.MustFetchScheme(4, pairs[i].fetch, 2, 8)
				cfg.IssuePolicy = policy.IssueAlg(pairs[i].issue)
				got[i] = fingerprint.Of(exp.Simulate(cfg, 0, o.Seed, o, 0, nil))
			}
		}()
	}
	for i := range pairs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, p := range pairs {
		name := p.fetch + "/" + p.issue
		if got[i] != want[name] {
			return 0, incorrect("policy pair %s fingerprint %s, golden %q", name, got[i], want[name])
		}
	}
	return len(pairs), nil
}

// pathCounts are the service counters the path assertions read.
type pathCounts struct {
	resultHits, ckptHits, ckptMisses, ckptDiskHits float64
}

func (p pathCounts) sub(q pathCounts) pathCounts {
	return pathCounts{p.resultHits - q.resultHits, p.ckptHits - q.ckptHits, p.ckptMisses - q.ckptMisses,
		p.ckptDiskHits - q.ckptDiskHits}
}

// readPath reads the path counters from /v1/cache and /metrics.
func readPath(ctx context.Context, c *client, w *workload) (pathCounts, error) {
	var cs cacheStatus
	if _, err := c.do(ctx, "GET", "/v1/cache", nil, &cs); err != nil {
		return pathCounts{}, err
	}
	text, err := c.do(ctx, "GET", "/metrics", nil, nil)
	if err != nil {
		return pathCounts{}, err
	}
	p := pathCounts{resultHits: float64(cs.Hits), ckptHits: float64(cs.Snapshots.Hits), ckptMisses: float64(cs.Snapshots.Misses)}
	if w.cacheDir {
		// The disk series exists only under -cache-dir.
		if p.ckptDiskHits, err = metricValue(string(text), "smtd_snapshot_disk_hits_total"); err != nil {
			return pathCounts{}, err
		}
	}
	return p, nil
}

// checkPath asserts the measured phase took the path its workload is named
// for; jobs is the number of jobs that completed while p was counted. With
// no completed job there is nothing to assert.
func checkPath(w *workload, p pathCounts, jobs int) error {
	switch {
	case jobs == 0:
	case w.cached:
		if p.resultHits != float64(jobs) {
			return incorrect("path: %v result-cache hits for %d cached jobs", p.resultHits, jobs)
		}
	case w.restores:
		if p.ckptHits != float64(jobs) || p.ckptMisses != 0 || p.ckptDiskHits <= 0 {
			return incorrect("path: %v checkpoint hits, %v misses, %v disk hits for %d resweep jobs; want every job restored, some from disk",
				p.ckptHits, p.ckptMisses, p.ckptDiskHits, jobs)
		}
	default:
		if p.resultHits != 0 || p.ckptHits != 0 {
			return incorrect("path: %v result hits and %v checkpoint hits on cold sweeps", p.resultHits, p.ckptHits)
		}
	}
	return nil
}
