package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Profile buckets: the simulator's pipeline stages and the layers under
// them. Time in the Go runtime's collector or its copy routines is charged
// to runtime.gc or runtime.copy wherever it was called from. Otherwise a
// sample belongs to the frame nearest its leaf that is either in the mem,
// branch or workload package, or one of the stage functions
// Processor.Step calls; the issue-queue, rename-table and core helpers in
// between are charged to the stage that calls them.
var profileBuckets = []string{
	"core.fetch.frac", "core.rename.frac", "core.issue.frac", "core.exec.frac", "core.commit.frac",
	"mem.frac", "branch.frac", "workload.frac", "runtime.gc.frac", "runtime.copy.frac",
}

// coreStage maps the stage methods of internal/core's Processor to their
// buckets. Decode only moves the fetched group into the rename latch, so it
// counts as front end.
var coreStage = map[string]string{
	"fetchStage":    "core.fetch.frac",
	"decodeStage":   "core.fetch.frac",
	"renameStage":   "core.rename.frac",
	"issueStage":    "core.issue.frac",
	"processEvents": "core.exec.frac",
	"commitStage":   "core.commit.frac",
}

// layerPackage maps the packages under the stages to their buckets.
var layerPackage = map[string]string{
	"repro/internal/mem":      "mem.frac",
	"repro/internal/branch":   "branch.frac",
	"repro/internal/workload": "workload.frac",
}

const processorMethod = "repro/internal/core.(*Processor)."

// bucketOf classifies one stack of function names, leaf first.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	for _, f := range stack {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge":
			return "runtime.gc.frac"
		}
	}
	switch leaf := stack[0]; {
	case leaf == "runtime.memmove" || leaf == "runtime.typedmemmove" || strings.HasPrefix(leaf, "runtime.duff") || leaf == "runtime.memclrNoHeapPointers":
		return "runtime.copy.frac"
	case strings.HasPrefix(leaf, "runtime.mallocgc"), strings.HasPrefix(leaf, "runtime.scanobject"), strings.HasPrefix(leaf, "runtime.greyobject"):
		return "runtime.gc.frac"
	}
	// Stage buckets count simulation only: stacks under the smt package's
	// sessions and trace builds. Config fingerprinting, for one, reaches
	// core and branch code without simulating anything.
	simulating := false
	for _, f := range stack {
		if funcPackage(f) == "repro/smt" {
			simulating = true
			break
		}
	}
	if !simulating {
		return ""
	}
	for _, f := range stack {
		if b, ok := layerPackage[funcPackage(f)]; ok {
			return b
		}
		if m, ok := strings.CutPrefix(f, processorMethod); ok {
			if b, ok := coreStage[m]; ok {
				return b
			}
		}
	}
	return ""
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/core.(*Processor).issueOne".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// foldProfile folds the CPU profile at path, through the stacks that
// `go tool pprof -traces` prints, and returns each bucket's share of all
// samples, plus the sample count.
func foldProfile(path string) (map[string]float64, int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", "-symbolize=none", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	counts := map[string]int64{}
	var total int64
	for _, tr := range parseTraces(out) {
		total += tr.n
		counts[bucketOf(tr.stack)] += tr.n
	}
	fracs := map[string]float64{}
	for _, b := range profileBuckets {
		if total > 0 {
			fracs[b] = float64(counts[b]) / float64(total)
		} else {
			fracs[b] = 0
		}
	}
	return fracs, total, nil
}

// sampledStack is one stack of a -traces listing with its sample count.
type sampledStack struct {
	n     int64
	stack []string // leaf first
}

// parseTraces reads `go tool pprof -traces` text: a header, then one block
// per stack, each opened by a dashed separator. A block's optional label
// lines are followed by "<count>   <leaf function>" and one line per
// caller; inlined frames carry an " (inline)" suffix.
func parseTraces(text []byte) []sampledStack {
	var out []sampledStack
	var cur *sampledStack
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, sampledStack{})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil {
			continue // header
		}
		fn := strings.TrimSpace(line)
		if len(cur.stack) == 0 {
			count, rest, ok := strings.Cut(fn, " ")
			n, err := strconv.ParseInt(count, 10, 64)
			if !ok || err != nil {
				continue // a label line
			}
			cur.n, fn = n, strings.TrimSpace(rest)
		}
		if fn != "" {
			cur.stack = append(cur.stack, strings.TrimSuffix(fn, " (inline)"))
		}
	}
	// The listing ends with a separator.
	kept := out[:0]
	for _, s := range out {
		if len(s.stack) > 0 {
			kept = append(kept, s)
		}
	}
	return kept
}
