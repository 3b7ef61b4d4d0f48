package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
)

// errHung marks a sweep that stopped making progress.
var errHung = errors.New("sweep hung")

// server is one launched smtd.
type server struct {
	p        *proc
	c        *client
	cacheDir string
	measured int // measured sweeps this instance completed
}

// harness holds one run's state.
type harness struct {
	w       *workload
	bin     string
	runDir  string // fresh per run under the work directory; removed at exit
	seed    uint64
	nproc   int
	ps      *procs
	tally   tally
	dirSeq  int
	attempt int // bumped when a set-up sweep hangs; selects fresh seeds

	// rssAtQuota is the VmHWM of the first instance to complete the
	// workload's quota of measured sweeps; peakRSS is the highest at
	// shutdown, the fallback when no instance reached the quota.
	rssAtQuota, peakRSS float64
}

// launch starts smtd and waits until it serves.
func (h *harness) launch(ctx context.Context, cacheDir string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(h.nproc)}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	p, addr, err := h.ps.start(h.bin, args)
	if err != nil {
		return nil, err
	}
	s := &server{p: p, c: newClient(addr, h.nproc), cacheDir: cacheDir}
	hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.c.healthy(hctx); err != nil {
		h.shutdown(s)
		return nil, err
	}
	return s, nil
}

// shutdown records the instance's peak RSS, then kills it.
func (h *harness) shutdown(s *server) {
	if rss := s.p.peakRSSMB(); rss > h.peakRSS {
		h.peakRSS = rss
	}
	h.ps.stop(s.p)
	s.c.close()
}

// freshDir returns a new empty directory under the run directory.
func (h *harness) freshDir(what string) (string, error) {
	h.dirSeq++
	dir := filepath.Join(h.runDir, fmt.Sprintf("%s-%d", what, h.dirSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

// sweepRecord is one completed (or failed) sweep.
type sweepRecord struct {
	idx         int
	req         sweepReq
	submit, end time.Time
	first       time.Time // first job done; zero when not observed
	status      sweepStatus
	body        []byte
	decoded     *exp.ExperimentResult // set-up sweeps only, decoded once
}

func (r *sweepRecord) seconds() float64 { return r.end.Sub(r.submit).Seconds() }

// maxStreak is how many sweeps may fail in a row before a run gives up.
const maxStreak = 5

// pollEvery is the progress-poll cadence of simulating sweeps. It bounds
// the resolution of first_result_s and adds at most this much to sweep_s.
const pollEvery = 10 * time.Millisecond

// runSweep submits one sweep and returns once its result bytes arrive.
// With poll, the sweep is submitted without waiting and its progress is
// polled, which observes the first finished job and detects a hung sweep:
// one whose done-job count has not moved for stallAfter.
func (h *harness) runSweep(ctx context.Context, c *client, req sweepReq, poll bool) (*sweepRecord, error) {
	rec := &sweepRecord{req: req, submit: time.Now()}
	req.Wait = !poll
	var st sweepStatus
	if _, err := c.do(ctx, "POST", "/v1/sweep", req, &st); err != nil {
		return rec, err
	}
	if poll {
		lastDone, lastMove := 0, time.Now()
		for st.State == "running" {
			select {
			case <-ctx.Done():
				return rec, ctx.Err()
			case <-time.After(pollEvery):
			}
			if _, err := c.do(ctx, "GET", "/v1/jobs/"+st.ID, nil, &st); err != nil {
				return rec, err
			}
			now := time.Now()
			if st.DoneJobs > 0 && rec.first.IsZero() {
				rec.first = now
			}
			if st.DoneJobs != lastDone {
				lastDone, lastMove = st.DoneJobs, now
			} else if now.Sub(lastMove) > stallAfter {
				rec.status = st
				return rec, fmt.Errorf("%w: %s seed %d at %d/%d jobs, no progress for %v",
					errHung, req.Experiment, req.Opts.Seed, st.DoneJobs, st.TotalJobs, stallAfter)
			}
		}
	}
	rec.status = st
	if st.State != "done" {
		return rec, fmt.Errorf("sweep %s ended %q: %s", st.ID, st.State, st.Error)
	}
	body, err := c.do(ctx, "GET", st.ResultURL, nil, nil)
	rec.end = time.Now()
	if err != nil {
		return rec, err
	}
	rec.body = body
	return rec, nil
}

// setUp launches smtd and primes it reps times, timing each from process
// start until smtd is healthy and primed; the last instance stays up. A
// priming sweep that hangs counts as a failed operation, and the set-up is
// retried with fresh seeds.
func (h *harness) setUp(ctx context.Context, reps int) (*server, []*sweepRecord, []float64, error) {
	var times []float64
	for rep, tries := 0, 0; rep < reps; tries++ {
		if tries >= reps+10 {
			return nil, nil, times, fmt.Errorf("set-up failed %d times", tries-rep)
		}
		t0 := time.Now()
		dir := ""
		if h.w.cacheDir {
			var err error
			if dir, err = h.freshDir("cache"); err != nil {
				return nil, nil, times, err
			}
		}
		srv, err := h.launch(ctx, dir)
		if err != nil {
			return nil, nil, times, err
		}
		primed, err := h.prime(ctx, srv)
		if err != nil {
			h.shutdown(srv)
			os.RemoveAll(dir)
			if errors.Is(err, errHung) {
				h.attempt++
				continue
			}
			return nil, nil, times, err
		}
		times = append(times, time.Since(t0).Seconds())
		rep++
		if rep == reps {
			return srv, primed, times, nil
		}
		h.shutdown(srv)
		os.RemoveAll(dir)
	}
	return nil, nil, times, errors.New("unreachable")
}

// prime submits the workload's set-up sweeps one after another and checks
// each result.
func (h *harness) prime(ctx context.Context, srv *server) ([]*sweepRecord, error) {
	if h.w.prime == nil {
		return nil, nil
	}
	var out []*sweepRecord
	for _, req := range h.w.prime(h.seed, h.attempt) {
		rec, err := h.runSweep(ctx, srv.c, req, true)
		if err == nil {
			err = checkSweep(rec, h.w, true, true)
		}
		if err != nil {
			return nil, h.tally.record(fmt.Errorf("set-up: %w", err))
		}
		h.tally.ok()
		out = append(out, rec)
	}
	return out, nil
}

// phase is the measured closed loop's outcome.
type phase struct {
	sweeps []*sweepRecord // completed, checked sweeps in completion order
	failed map[int]bool   // indices of sweeps that failed
	wall   time.Duration  // measured wall time; failed sweeps and recovery excluded
	// path holds the service counters' change over the last smtd instance
	// and pathJobs the jobs of the sweeps that completed on it. A hung
	// sweep's finished jobs move the counters of the instance it hung on,
	// so earlier instances are left out of the path assertion.
	path     pathCounts
	pathJobs int
}

// measure runs the closed loop over the workload's sweeps 0 to n-1: each
// client submits its next sweep only after the previous one's result
// arrived. A failed sweep counts as a failed operation and its time is not
// measured: a hung sweep's time is mostly the stall threshold, a harness
// constant. After a hang smtd is replaced and, where set-up state is what
// hung, set up again on fresh seeds; that recovery is not measured either.
// d is the time n sweeps are sized for; a build so slow that the loop
// outlasts 2d and a minute stops submitting early.
func (h *harness) measure(ctx context.Context, srv **server, primed []*sweepRecord, n int, d time.Duration) (*phase, error) {
	ph := &phase{failed: map[int]bool{}}
	clients := 1
	if h.w.cached {
		clients = h.nproc
	}
	base, err := readPath(ctx, (*srv).c, h.w)
	if err != nil {
		return nil, err
	}
	var (
		mu       sync.Mutex
		next     int
		excluded time.Duration
		streak   int // consecutive failed sweeps
		fatal    error
	)
	start := time.Now()
	hardStop := start.Add(2*d + time.Minute)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				switch {
				case fatal == nil && ctx.Err() != nil:
					fatal = ctx.Err()
				case fatal == nil && streak >= maxStreak:
					fatal = fmt.Errorf("%d sweeps failed in a row", streak)
				}
				if fatal != nil || next >= n || time.Now().After(hardStop) {
					mu.Unlock()
					return
				}
				i := next
				next++
				c := (*srv).c
				req := h.w.next(h.seed, h.attempt, i)
				mu.Unlock()

				t0 := time.Now()
				rec, err := h.runSweep(ctx, c, req, !h.w.cached)
				rec.idx = i
				if err == nil && h.w.cached {
					// Bytes equal to a checked set-up result need no
					// second decode, which would take CPU from smtd.
					err = checkCachedBytes(rec, primed)
				}
				if err == nil {
					err = checkSweep(rec, h.w, false, !h.w.cached)
				}
				mu.Lock()
				if err != nil {
					h.tally.record(err)
					ph.failed[i] = true
					excluded += time.Since(t0)
					streak++
				} else {
					streak = 0
					h.tally.ok()
					ph.sweeps = append(ph.sweeps, rec)
					if s := *srv; s.c == c {
						ph.pathJobs += rec.status.TotalJobs
						if s.measured++; s.measured == h.w.quota && h.rssAtQuota == 0 {
							h.rssAtQuota = s.p.peakRSSMB()
						}
					}
				}
				if errors.Is(err, errHung) && fatal == nil {
					// Single-client workloads only: cached sweeps never
					// simulate, so they cannot hang.
					t1 := time.Now()
					if ferr := h.recover(ctx, srv, &base, ph); ferr != nil {
						fatal = ferr
					}
					excluded += time.Since(t1)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if fatal != nil {
		return nil, fatal
	}
	ph.wall = time.Since(start) - excluded
	end, err := readPath(ctx, (*srv).c, h.w)
	if err != nil {
		return nil, err
	}
	ph.path = end.sub(base)
	return ph, nil
}

// recover replaces a server holding a hung simulation. warm_resweep sets
// up again on fresh seeds: its measured sweeps share one seed, so the
// deadlocked machine would recur in every later sweep.
func (h *harness) recover(ctx context.Context, srv **server, base *pathCounts, ph *phase) error {
	dir := (*srv).cacheDir
	h.shutdown(*srv)
	if h.w.restores {
		os.RemoveAll(dir)
		h.attempt++
		s, _, _, err := h.setUp(ctx, 1)
		if err != nil {
			return err
		}
		*srv = s
	} else {
		s, err := h.launch(ctx, dir)
		if err != nil {
			return err
		}
		*srv = s
	}
	b, err := readPath(ctx, (*srv).c, h.w)
	if err != nil {
		return err
	}
	*base, ph.pathJobs = b, 0
	return nil
}
