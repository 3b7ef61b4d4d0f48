package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/smt"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{100, 90, 90},
		{200, 95, 190},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		pct, v, ok := tail(seq(c.n))
		if !ok || pct != c.pct || v != c.want {
			t.Errorf("n=%d: tail = p%v %v %v, want p%v %v", c.n, pct, v, ok, c.pct, c.want)
		}
	}
}

func TestTailOmittedWhenTooFewSamples(t *testing.T) {
	for _, n := range []int{0, 1, 5, 20, 99} {
		if pct, v, ok := tail(seq(n)); ok {
			t.Errorf("n=%d: tail = p%v %v, want omitted", n, pct, v)
		}
	}
}

func TestRunWorkIsFixedBySecondsAndSeed(t *testing.T) {
	for _, c := range []struct {
		name string
		d    time.Duration
		want int
	}{
		{"cold_sweep", 24 * time.Second, 9},
		{"cold_sweep", 12 * time.Second, 5},
		{"cold_sweep", time.Second, 1},
		{"cached_sweep", 24 * time.Second, 20400},
	} {
		if got := workloadByName(c.name).sweeps(c.d); got != c.want {
			t.Errorf("%s over %v: %d sweeps, want %d", c.name, c.d, got, c.want)
		}
	}
	w := workloadByName("cold_sweep")
	for i := 0; i < w.sweeps(24*time.Second); i++ {
		if a, b := w.next(7, 0, i), w.next(7, 0, i); a != b {
			t.Fatalf("sweep %d differs between runs on one seed: %+v vs %+v", i, a, b)
		}
	}
	if w.next(7, 0, 0) == w.next(8, 0, 0) {
		t.Error("seeds 7 and 8 drew the same first sweep")
	}
}

func TestFailuresCountAgainstAttempts(t *testing.T) {
	var tl tally
	tl.ok()
	tl.ok()
	tl.ok()
	hung := tl.record(errHung)
	tl.record(incorrect("bad bytes"))
	if tl.attempted != 5 || tl.failed != 2 || tl.failedFrac() != 0.4 {
		t.Fatalf("attempted %d failed %d frac %v, want 5 2 0.4", tl.attempted, tl.failed, tl.failedFrac())
	}
	if tl.correct() {
		t.Error("an incorrect output left the run correct")
	}
	if !errors.As(hung, new(countedErr)) || !errors.Is(hung, errHung) {
		t.Errorf("record(%v) lost its cause or its counted mark", hung)
	}
	var clean tally
	clean.record(errHung)
	if !clean.correct() || clean.failedFrac() != 1 {
		t.Error("a hang is a failure but not an incorrect output")
	}
}

// tinySweep computes a small registry sweep the way smtd's reference
// check recomputes one.
func tinySweep(t *testing.T) (sweepReq, []byte) {
	t.Helper()
	req := sweepReq{Experiment: "table4", Opts: exp.Opts{Runs: 1, Warmup: 200, Measure: 400, Seed: 3}}
	body, err := reference(context.Background(), req, 2)
	if err != nil {
		t.Fatal(err)
	}
	return req, body
}

func TestCorruptedResultByteIsIncorrect(t *testing.T) {
	req, body := tinySweep(t)
	rec := &sweepRecord{req: req, body: body}
	if err := checkReference(context.Background(), rec, 2); err != nil {
		t.Fatalf("intact result rejected: %v", err)
	}
	e, _ := exp.Lookup(req.Experiment)
	if err := checkShape(body, e, req.Opts.Normalized()); err != nil {
		t.Fatalf("intact result has the wrong shape: %v", err)
	}

	// Flip one digit: the JSON stays valid, so only the byte comparisons
	// can catch it.
	bad := bytes.Clone(body)
	i := bytes.Index(bad, []byte(`"cycles": `)) + len(`"cycles": `)
	bad[i] = '0' + (bad[i]-'0'+1)%10
	rec.body = bad
	if err := checkReference(context.Background(), rec, 2); !errors.Is(err, errIncorrect) {
		t.Errorf("reference check on a corrupted byte: %v, want incorrect output", err)
	}
	primed := []*sweepRecord{{req: req, body: body}}
	if err := checkCachedBytes(rec, primed); !errors.Is(err, errIncorrect) {
		t.Errorf("cached-bytes check on a corrupted byte: %v, want incorrect output", err)
	}

	// A corrupted structural byte breaks decoding.
	bad = bytes.Clone(body)
	bad[0] = '['
	if err := checkShape(bad, e, req.Opts.Normalized()); !errors.Is(err, errIncorrect) {
		t.Errorf("shape check on undecodable bytes: %v, want incorrect output", err)
	}
}

func TestFoldProfileAttributesSimulation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sim := smt.MustNew(exp.ICount28(4), smt.WorkloadMix(4, 0, 1))
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		sim.Run(20_000)
	}
	pprof.StopCPUProfile()
	fracs, samples, err := foldProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no CPU samples collected")
	}
	var sum float64
	for _, b := range profileBuckets {
		sum += fracs[b]
	}
	// The race detector's runtime takes a large unattributed share, so only
	// the attribution itself is asserted here; TestBucketOf pins the rules.
	if sum <= 0 || sum > 1+1e-9 || fracs["core.issue.frac"] <= 0 {
		t.Errorf("buckets sum to %v with issue %v over %d samples; want simulation stages attributed", sum, fracs["core.issue.frac"], samples)
	}
}

func TestBucketOf(t *testing.T) {
	const (
		run  = "repro/smt.(*Session).run"
		step = "repro/internal/core.(*Processor).Step"
	)
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/core.(*Processor).issueOne", "repro/internal/core.(*Processor).issueStage", step, run}, "core.issue.frac"},
		// Issue-queue and rename-table helpers belong to the calling stage.
		{[]string{"repro/internal/iq.(*Queue).Insert", "repro/internal/core.(*Processor).renameOne", "repro/internal/core.(*Processor).renameStage", step, run}, "core.rename.frac"},
		{[]string{"repro/internal/rename.(*File).Free", "repro/internal/core.(*Processor).commitOne", "repro/internal/core.(*Processor).commitStage", step, run}, "core.commit.frac"},
		{[]string{"repro/internal/rename.(*File).ReadyAt", "repro/internal/core.(*Processor).ready", "repro/internal/core.(*Processor).issueStage", step, run}, "core.issue.frac"},
		{[]string{"repro/internal/core.Config.execOffset", "repro/internal/core.(*Processor).resolve", "repro/internal/core.(*Processor).processEvents", step, run}, "core.exec.frac"},
		{[]string{"repro/internal/core.(*Processor).decodeStage", step, run}, "core.fetch.frac"},
		// mem, branch and workload code is its own layer wherever it is called.
		{[]string{"repro/internal/mem.(*Cache).Access", "repro/internal/core.(*Processor).memExec", "repro/internal/core.(*Processor).processEvents", step, run}, "mem.frac"},
		{[]string{"repro/internal/branch.(*gshare).Direction", "repro/internal/core.(*Processor).predictNext", "repro/internal/core.(*Processor).fetchStage", step, run}, "branch.frac"},
		{[]string{"repro/internal/workload.(*generator).genSeq", "repro/internal/workload.New", "repro/smt.New"}, "workload.frac"},
		{[]string{"runtime.duffcopy", "repro/internal/core.(*Processor).issueStage", step, run}, "runtime.copy.frac"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "runtime.gc.frac"},
		// Fingerprinting reaches core and branch code without simulating.
		{[]string{"repro/internal/branch.Config.CanonicalFingerprint", "repro/internal/core.Config.Fingerprint"}, ""},
		// Core code outside the stage functions is not a stage.
		{[]string{"repro/internal/core.(*Processor).RestoreState", "repro/smt.(*Simulator).RestoreSnapshot"}, ""},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: samples
-----------+-------------------------------------------------------
         3   runtime.memmove
             repro/internal/workload.(*generator).emit (inline)
             repro/smt.New
-----------+-------------------------------------------------------
   thread:  worker
        12   repro/internal/core.(*Processor).issueStage
             repro/internal/core.(*Processor).Step
-----------+-------------------------------------------------------
`
	got := parseTraces([]byte(text))
	want := []sampledStack{
		{3, []string{"runtime.memmove", "repro/internal/workload.(*generator).emit", "repro/smt.New"}},
		{12, []string{"repro/internal/core.(*Processor).issueStage", "repro/internal/core.(*Processor).Step"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTraces = %v, want %v", got, want)
	}
}
