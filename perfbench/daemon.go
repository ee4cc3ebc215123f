package main

import (
	"bufio"
	"bytes"
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

	"additivity/internal/service"
)

// readyDeadline bounds a daemon's boot: exec to a healthy /healthz.
const readyDeadline = 15 * time.Second

// stopDeadline bounds a drain on SIGTERM before the daemon is killed.
const stopDeadline = 10 * time.Second

// daemon is one additivityd child process.
type daemon struct {
	cmd   *exec.Cmd
	base  string // job API root, http://127.0.0.1:port
	pprof string // pprof listener root, or "" when profiling is off
	// probe serves health, stats and profile requests; it never
	// carries job traffic.
	probe *http.Client
	// exited is closed once the process has been reaped; waitErr then
	// holds Wait's result.
	exited  chan struct{}
	waitErr error
	// logTail keeps the last lines of the daemon's stderr for
	// diagnostics.
	logMu   sync.Mutex
	logTail []string
}

// startDaemon execs additivityd on an ephemeral loopback port and waits
// until its /healthz answers ok, within readyDeadline.
//
// The daemon runs on its in-memory cache, with no -cache-dir. The
// benchmark writes only inside its checkout, and a checkout on a
// virtual disk makes fsync latency swing from run to run: on a 2-vCPU
// Xeon VM with the checkout on ext4, a -cache-dir there made fresh
// predicts vary 1.1k-1.6k ops/s between runs and cost cold computes a
// third of their throughput. The disk write path is measured per layer
// instead (memo.miss_store_us, memo.disk_store_us, memo.disk_load_us),
// on the filesystem the environment block names.
func startDaemon(bin string, withPprof bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"}
	if withPprof {
		args = append(args, "-pprof-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start additivityd: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		probe:  &http.Client{Timeout: 5 * time.Second},
		exited: make(chan struct{}),
	}
	addrCh := make(chan string, 1)
	pprofCh := make(chan string, 1)
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "additivityd: serving pprof on "); ok {
				select {
				case pprofCh <- strings.TrimSuffix(rest, "/debug/pprof/"):
				default:
				}
			}
			d.logMu.Lock()
			d.logTail = append(d.logTail, line)
			if len(d.logTail) > 20 {
				d.logTail = d.logTail[1:]
			}
			d.logMu.Unlock()
		}
	}()
	go func() {
		// Wait must not run before the pipes are drained.
		readers.Wait()
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	deadline := time.After(readyDeadline)
	select {
	case a := <-addrCh:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("additivityd exited during boot: %v; %s", d.waitErr, d.logs())
	case <-deadline:
		d.kill()
		return nil, fmt.Errorf("additivityd did not announce its address within %s", readyDeadline)
	}
	if withPprof {
		select {
		case p := <-pprofCh:
			d.pprof = p
		case <-d.exited:
			return nil, fmt.Errorf("additivityd exited during boot: %v; %s", d.waitErr, d.logs())
		case <-deadline:
			d.kill()
			return nil, fmt.Errorf("additivityd did not announce its pprof listener within %s", readyDeadline)
		}
	}
	for {
		if d.healthy() {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("additivityd exited during boot: %v; %s", d.waitErr, d.logs())
		case <-deadline:
			d.kill()
			return nil, fmt.Errorf("additivityd not healthy within %s", readyDeadline)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (d *daemon) healthy() bool {
	resp, err := d.probe.Get(d.base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK && bytes.HasPrefix(body, []byte("ok"))
}

func (d *daemon) logs() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return "daemon log: " + strings.Join(d.logTail, " | ")
}

func (d *daemon) dead() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

// kill ends the process at once and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// stop drains the daemon with SIGTERM, killing it if the drain takes
// longer than stopDeadline, and returns once the process is reaped.
func (d *daemon) stop() {
	if d.dead() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(stopDeadline):
		d.kill()
	}
}

// stats reads /statsz.
func (d *daemon) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := d.probe.Get(d.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statsz: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cpuTime is the daemon's user plus system CPU time so far, read from
// /proc/<pid>/stat (clock ticks of 10 ms on Linux).
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS is the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// memStats is the part of the daemon's runtime.MemStats the traced run
// reports, read from the heap profile's debug text on the pprof
// listener.
type memStats struct {
	heapInuse uint64
	numGC     uint64
	pauseNs   []uint64 // the runtime's 256-entry ring of recent pauses
}

func (d *daemon) memStats() (memStats, error) {
	var ms memStats
	if d.pprof == "" {
		return ms, errors.New("pprof listener off")
	}
	resp, err := d.probe.Get(d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return ms, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	seen := 0
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		switch name {
		case "HeapInuse":
			ms.heapInuse, err = strconv.ParseUint(val, 10, 64)
		case "NumGC":
			ms.numGC, err = strconv.ParseUint(val, 10, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				var p uint64
				if p, err = strconv.ParseUint(f, 10, 64); err != nil {
					break
				}
				ms.pauseNs = append(ms.pauseNs, p)
			}
		default:
			continue
		}
		if err != nil {
			return ms, fmt.Errorf("heap profile %s: %w", name, err)
		}
		seen++
	}
	if seen != 3 || len(ms.pauseNs) != 256 {
		return ms, errors.New("heap profile lacks the runtime.MemStats block")
	}
	return ms, sc.Err()
}

// gcPause sums the stop-the-world pauses of the collections between
// two snapshots. When more than 256 ran, the ring holds only the last
// 256, and their mean stands in for the rest.
func gcPause(a, b memStats) time.Duration {
	n := b.numGC - a.numGC
	if n == 0 {
		return 0
	}
	k := n
	if k > 256 {
		k = 256
	}
	var sum uint64
	for g := b.numGC - k + 1; g <= b.numGC; g++ {
		sum += b.pauseNs[(g+255)%256]
	}
	return time.Duration(float64(sum) * float64(n) / float64(k))
}
