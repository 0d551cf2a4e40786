package main

// Server processes: launch, readiness, /proc accounting, scraping and stop.
// The servers are separate dualserved processes built with go build
// -trimpath (run.sh); the load generator never links the service in.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// replica is one running dualserved.
type replica struct {
	addr string // host:port
	cmd  *exec.Cmd
	done chan struct{} // closed once cmd.Wait returns
}

// serverSet is one fresh set of replicas.
type serverSet struct {
	replicas []*replica
}

// freePorts reserves n loopback ports by binding and releasing them; the
// replicas bind them a moment later. Cluster members must know every
// address before any of them starts.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out[i] = ln.Addr().String()
	}
	return out, nil
}

// launchSpec describes a server set: how many replicas (more than one
// form a ring) and the verdict log each starts on (copied fresh per
// launch).
type launchSpec struct {
	bin      string
	replicas int
	logSeed  string // directory holding the pre-written verdict log ("" = no log)
	workDir  string // per-launch scratch (logs, server stderr)
}

// launch starts a fresh server set and returns once every replica answers
// /readyz with 200. The returned duration is launch to all-ready, the
// benchmark's setup_s; copying the verdict log happens before the clock
// starts.
func launch(spec launchSpec, hc *http.Client) (*serverSet, time.Duration, error) {
	addrs, err := freePorts(spec.replicas)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(spec.workDir, 0o755); err != nil {
		return nil, 0, err
	}
	args := make([][]string, spec.replicas)
	for i, a := range addrs {
		args[i] = []string{"-addr", a}
		if spec.replicas > 1 {
			args[i] = append(args[i], "-self", a, "-peers", strings.Join(addrs, ","))
		}
		if spec.logSeed != "" {
			dir := filepath.Join(spec.workDir, fmt.Sprintf("vlog-%d", i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
			if err := copyDir(spec.logSeed, dir); err != nil {
				return nil, 0, err
			}
			args[i] = append(args[i], "-verdict-log", dir)
		}
	}
	c := &serverSet{}
	start := time.Now()
	for i, a := range addrs {
		r, err := startReplica(spec.bin, args[i], a, filepath.Join(spec.workDir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.replicas = append(c.replicas, r)
	}
	for _, r := range c.replicas {
		if err := r.waitReady(hc, 20*time.Second); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	return c, time.Since(start), nil
}

func startReplica(bin string, args []string, addr, logPath string) (*replica, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = logf
	// A replica never outlives the load generator, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	r := &replica{addr: addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server is not a result
		logf.Close()
		close(r.done)
	}()
	return r, nil
}

// waitReady polls /readyz every 200µs until it answers 200.
func (r *replica) waitReady(hc *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-r.done:
			return fmt.Errorf("dualserved %s exited during start-up", r.addr)
		default:
		}
		resp, err := hc.Get("http://" + r.addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("dualserved %s not ready after %v", r.addr, limit)
}

// stop terminates every replica (SIGTERM, then SIGKILL after 10s) and
// waits until each process has exited.
func (c *serverSet) stop() {
	for _, r := range c.replicas {
		_ = r.cmd.Process.Signal(syscall.SIGTERM) // already-exited processes are fine
	}
	for _, r := range c.replicas {
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			_ = r.cmd.Process.Kill()
			<-r.done
		}
	}
}

// cpuTicks is utime+stime of a process in clock ticks (/proc/<pid>/stat).
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(rest[11], 10, 64)
	st, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return ut + st, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; 100 on every
// Linux ABI Go supports.
const clockTick = 100

// serverCPU is the summed CPU time of every replica.
func (c *serverSet) serverCPU() (time.Duration, error) {
	var ticks int64
	for _, r := range c.replicas {
		t, err := cpuTicks(r.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// peakRSSMB is VmHWM, the peak resident set, maximised over replicas.
func (c *serverSet) peakRSSMB() (float64, error) {
	var peak float64
	for _, r := range c.replicas {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", r.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, err
				}
				peak = max(peak, kb/1024)
			}
		}
	}
	return peak, nil
}

// metrics is a /metricsz exposition, summed over replicas: series text
// (name plus label block) → value.
type metrics map[string]float64

func (c *serverSet) scrape(hc *http.Client) (metrics, error) {
	m := metrics{}
	for _, r := range c.replicas {
		resp, err := hc.Get("http://" + r.addr + "/metricsz")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			m[line[:i]] += v
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// sum adds every series of the named metric whose label block contains all
// of the given label fragments (e.g. `stage="walk"`).
func (m metrics) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta returns after − before for one metric.
func delta(before, after metrics, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// statsz is the subset of /statsz the benchmark reads.
type statsz struct {
	Resilience struct {
		QueueWaiters int64 `json:"queue_waiters"`
	} `json:"resilience"`
	Cluster *struct {
		InvalidVerdicts int64 `json:"invalid_verdicts"`
	} `json:"cluster"`
	VerdictLog *struct {
		Replayed int64 `json:"replayed"`
		Dropped  int64 `json:"dropped"`
	} `json:"verdict_log"`
}

func (c *serverSet) stats(hc *http.Client) ([]statsz, error) {
	out := make([]statsz, len(c.replicas))
	for i, r := range c.replicas {
		resp, err := hc.Get("http://" + r.addr + "/statsz")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode /statsz: %w", err)
		}
	}
	return out, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
