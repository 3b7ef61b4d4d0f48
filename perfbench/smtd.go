package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/exp"
)

// proc is one running smtd process.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// procs tracks every child process the harness starts, so every exit path
// can stop them all and wait until each has ended.
type procs struct {
	mu   sync.Mutex
	live []*proc
}

// start launches smtd from bin with args and returns the address its
// "smtd listening on ADDR" line names.
func (ps *procs) start(bin string, args []string) (*proc, string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("start smtd: %w", err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	ps.mu.Lock()
	ps.live = append(ps.live, p)
	ps.mu.Unlock()

	addr := make(chan string, 1)
	go func() {
		// Drain stdout for the process's lifetime; only the first
		// listening line matters.
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.HasPrefix(line, "smtd listening on ") {
				addr <- strings.TrimPrefix(line, "smtd listening on ")
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		cmd.Wait()
		close(p.done)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return p, "", errors.New("smtd exited before listening")
		}
		return p, a, nil
	case <-time.After(30 * time.Second):
		return p, "", errors.New("smtd did not start listening within 30s")
	}
}

// peakRSSMB reads the process's VmHWM from /proc in MiB.
func (p *proc) peakRSSMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// stop kills p's process group and waits for it to end.
func (ps *procs) stop(p *proc) {
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, q := range ps.live {
		if q == p {
			ps.live = append(ps.live[:i], ps.live[i+1:]...)
			break
		}
	}
}

// stopAll kills every live child and waits for each to end.
func (ps *procs) stopAll() {
	ps.mu.Lock()
	live := append([]*proc(nil), ps.live...)
	ps.mu.Unlock()
	for _, p := range live {
		ps.stop(p)
	}
}

// client speaks smtd's HTTP API with at most conns connections.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// sweepStatus is the subset of smtd's sweep status the harness checks.
type sweepStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	TotalJobs int    `json:"total_jobs"`
	DoneJobs  int    `json:"done_jobs"`
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error"`
	ResultURL string `json:"result_url"`
}

// sweepReq is one sweep the harness submits.
type sweepReq struct {
	Experiment string   `json:"experiment"`
	Opts       exp.Opts `json:"opts"`
	Wait       bool     `json:"wait,omitempty"`
}

func (c *client) do(ctx context.Context, method, path string, body any, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return nil, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return raw, nil
}

// healthy polls /healthz until smtd answers or ctx ends.
func (c *client) healthy(ctx context.Context) error {
	for {
		if _, err := c.do(ctx, "GET", "/healthz", nil, nil); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("smtd not healthy: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cacheStatus is the subset of GET /v1/cache the path assertions read.
type cacheStatus struct {
	Hits      int64 `json:"hits"`
	Snapshots struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"snapshots"`
}

// metricValue reads one unlabelled series from a /metrics exposition.
func metricValue(text, name string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		}
	}
	return 0, errors.New("metric " + name + " not exposed")
}
