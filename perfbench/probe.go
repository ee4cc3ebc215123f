package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few vCPUs of a shared host, and their speed
// wanders: on a 2-vCPU Xeon VM the same warm-serve replay has run
// anywhere from 4.8k to 14.6k ops/s within a few hours, with the
// daemon's CPU time per operation moving in step, and within a run the
// speed shifts by a fifth from one second to the next. A speed probe
// runs beside every end-to-end measurement: every probeEvery it times
// a fixed kernel by its own thread's CPU time, which the sharing of the
// physical core, its clock, its caches and the cost of entering the
// kernel move, but waiting for a CPU does not. The kernel is a
// miniature of the kinds of work the daemon does: a compute part
// (hashing and floating point) and a serving part (map lookups over a
// few MiB, JSON encoding, sorting, and socket reads and writes). On the
// VM above the whole kernel's time tracks the throughput and CPU time
// per operation of the serving workloads from one segment to the next
// more closely than any of its parts alone, while cold-compute's
// simulations and fits move with the compute part alone (the serving
// part moves about twice as much as they do). It takes about 2% of one
// CPU.
//
// Two further losses slow the program's wall-clock figures without
// slowing the kernel: time the hypervisor gives to other guests, which
// /proc/stat counts as steal, and CPU time that processes other than
// the benchmark's use on this machine. Over each interval the probe
// also reads the share of CPU time neither took.
//
// Each timed segment is then read at the reference speed, from the
// median kernel time during that segment (against its reference) and, for
// wall-clock figures, that share as well, so that the host's drift
// drops out of the figures while the program's own cost stays in them.

// probeRefUS and probeRefComputeUS are the thread CPU times, in
// microseconds, of the whole kernel and of its compute part that define
// the reference speed: their medians on a 2-vCPU Intel Xeon VM (Go
// 1.24).
const (
	probeRefUS        = 430.0
	probeRefComputeUS = 75.0
)

// probeEvery is the probe's sampling interval.
const probeEvery = 20 * time.Millisecond

// kernel is the probe's fixed work. Its state is built once, so every
// run of it does the same work.
type kernel struct {
	buf   []byte          // hashed, 4 KiB
	table map[int64]int64 // looked up, 64 Ki entries
	doc   kernelDoc       // encoded and decoded
	ints  []int           // refilled and sorted
	pair  [2]int          // a connected socket pair, written and read
	io    [2][]byte
	sink  float64 // so no part is optimised away
}

type kernelDoc struct {
	Kind    string            `json:"kind"`
	Seed    int64             `json:"seed"`
	Params  map[string]string `json:"params"`
	Samples []float64         `json:"samples"`
}

// tableKey spreads the table's keys over the integers.
const tableKey = 2654435761

func newKernel() (*kernel, error) {
	pair, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, fmt.Errorf("speed probe socket pair: %w", err)
	}
	k := &kernel{
		buf:   make([]byte, 4096),
		table: make(map[int64]int64, 1<<16),
		doc: kernelDoc{Kind: "predict", Seed: 42, Params: map[string]string{"platform": "haswell", "app": "mkl-fft"},
			Samples: []float64{1.5, 2.25, 3.125, 4, 5, 6, 7, 8}},
		ints: make([]int, 1000),
		pair: pair,
		io:   [2][]byte{make([]byte, 512), make([]byte, 512)},
	}
	for i := int64(0); i < 1<<16; i++ {
		k.table[i*tableKey] = i
	}
	return k, nil
}

func (k *kernel) close() {
	syscall.Close(k.pair[0])
	syscall.Close(k.pair[1])
}

// compute does the kernel's hashing and floating point.
func (k *kernel) compute() {
	f := 0.0
	for r := 0; r < 16; r++ {
		s := sha256.Sum256(k.buf)
		k.buf[r] = s[0]
		for i := 0; i < 64; i++ {
			f += math.Sqrt(float64(i+r)) / (1 + math.Exp(-float64(i)/64))
		}
	}
	k.sink += f
}

// serve does the rest of the kernel: map lookups, JSON encoding,
// sorting, and socket writes and reads.
func (k *kernel) serve() error {
	f := 0.0
	x := uint64(12345)
	next := func() uint64 { // xorshift
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 1000; i++ {
		f += float64(k.table[int64(next()%(1<<16))*tableKey])
	}
	for i := 0; i < 10; i++ {
		b, err := json.Marshal(k.doc)
		if err != nil {
			return err
		}
		var d kernelDoc
		if err := json.Unmarshal(b, &d); err != nil {
			return err
		}
		f += float64(len(b) + len(d.Params))
	}
	for i := range k.ints {
		k.ints[i] = int(next() % 100000)
	}
	sort.Ints(k.ints)
	f += float64(k.ints[0])
	for i := 0; i < 16; i++ {
		if _, err := syscall.Write(k.pair[0], k.io[0]); err != nil {
			return err
		}
		for n := 0; n < len(k.io[1]); {
			m, err := syscall.Read(k.pair[1], k.io[1][n:])
			if err != nil {
				return err
			}
			n += m
		}
	}
	k.sink += f
	return nil
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// speeds is the machine's speed relative to the reference over an
// interval: cpu for work measured in CPU time, wall for work measured
// by the clock (cpu times the share of CPU time left to the
// benchmark).
// A rate r reads r/wall at the reference speed, a duration d reads
// d*wall, and a CPU time t reads t*cpu.
type speeds struct {
	cpu, wall float64
}

// probeMark is a point of the probe's record: how many kernel times it
// held, the machine's CPU time counters, and the CPU time the
// benchmark's own processes had used.
type probeMark struct {
	n                        int
	busy, steal, total, ours time.Duration
}

// speedProbe samples the kernel's CPU time on its own locked thread
// until close.
type speedProbe struct {
	stop, done chan struct{}

	mu sync.Mutex
	// us and computeUS are the whole kernel's CPU times and those of
	// its compute part, in microseconds, in order.
	us, computeUS []float64
	err           error // the kernel's failure, which ends the sampling
}

func startSpeedProbe() (*speedProbe, error) {
	k, err := newKernel()
	if err != nil {
		return nil, err
	}
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	go func() {
		defer close(p.done)
		defer k.close()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			k.compute()
			t1 := threadCPU()
			err := k.serve()
			t2 := threadCPU()
			p.mu.Lock()
			p.us = append(p.us, us(t2-t0))
			p.computeUS = append(p.computeUS, us(t1-t0))
			p.err = err
			p.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	return p, nil
}

// samples is how many kernel times the probe has taken.
func (p *speedProbe) samples() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.us)
}

// close stops the probe, waits for it, and returns the kernel's
// failure, if any.
func (p *speedProbe) close() error {
	close(p.stop)
	<-p.done
	if p.err != nil {
		return fmt.Errorf("speed probe: %w", p.err)
	}
	return nil
}

// mark reads the probe's position and the machine's counters; ours is
// the CPU time the benchmark's processes have used so far.
func (p *speedProbe) mark(ours time.Duration) probeMark {
	p.mu.Lock()
	m := probeMark{n: len(p.us), ours: ours}
	p.mu.Unlock()
	m.busy, m.steal, m.total = hostCPU()
	return m
}

// between is the machine's speed from mark a to mark b, read from the
// whole kernel or, with computeOnly, from its compute part. An interval
// too short to hold a kernel time takes the probe's median so far.
func (p *speedProbe) between(a, b probeMark, computeOnly bool) speeds {
	p.mu.Lock()
	series, ref := p.us, probeRefUS
	if computeOnly {
		series, ref = p.computeUS, probeRefComputeUS
	}
	xs := append([]float64(nil), series[a.n:b.n]...)
	if len(xs) == 0 {
		xs = append(xs, series...)
	}
	p.mu.Unlock()
	sp := speeds{cpu: 1, wall: 1}
	if len(xs) > 0 {
		sp.cpu = ref / median(xs)
	}
	sp.wall = sp.cpu
	if total := b.total - a.total; total > 0 {
		// Busy time beyond the benchmark's own; clock-tick rounding can
		// make it slightly negative.
		lost := b.steal - a.steal + max(0, (b.busy-a.busy)-(b.ours-a.ours))
		sp.wall *= max(0.05, 1-float64(lost)/float64(total))
	}
	return sp
}

// hostCPU reads from /proc/stat the time all CPUs spent running
// processes (user, nice and system), stolen by the hypervisor, and in
// total; zeros when it cannot.
func hostCPU() (busy, steal, total time.Duration) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, 0
	}
	// cpu user nice system idle iowait irq softirq steal guest guest_nice,
	// in clock ticks of 10 ms; guest time is already in user and nice.
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, 0
	}
	var ticks [8]int64
	for i := range ticks {
		if ticks[i], err = strconv.ParseInt(fields[i+1], 10, 64); err != nil {
			return 0, 0, 0
		}
		total += time.Duration(ticks[i]) * 10 * time.Millisecond
	}
	busy = time.Duration(ticks[0]+ticks[1]+ticks[2]) * 10 * time.Millisecond
	steal = time.Duration(ticks[7]) * 10 * time.Millisecond
	return busy, steal, total
}
