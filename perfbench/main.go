// Command perfbench is the repository benchmark for the served system.
// perfbench/run.sh builds it and the additivityd daemon from the
// checkout's sources and runs it from the repository root:
//
//	bash perfbench/run.sh --workload warm-serve --seed 1 --seconds 10 --trace 0
//
// Every run boots additivityd as a child process, warms it, and then
// replays the seeded workload over loopback HTTP through
// internal/loadgen for --seconds (a closed loop of at most two
// players). Every served result is compared with a reference computed
// in-process by service.Execute outside the timed phase; any mismatch
// fails the run.
//
// With --trace 0 the run prints the end-to-end metrics. Its timed
// replay is split into equal segments, and a speed probe (probe.go)
// reads the machine's speed in each, so that every timing is reported
// at a fixed reference speed rather than at whatever speed the shared
// host allowed meanwhile; the figures as measured are printed beside
// them and kept in the run record.
//
// With --trace 1 it makes two untraced and two traced replays of half
// the run length, each on a fresh daemon, and prints the per-layer
// metrics: daemon counters from /statsz, runtime memory statistics from
// the daemon's -pprof-addr listener, and timings of each layer's public
// functions called in-process on the same generated inputs, together
// with the tracing overhead. The daemon's memory is read once a fixed number
// of timed operations has settled, the same in every run. The traced
// replays' spans are kept in memory and written to
// .bench_build/spans/ when the run ends; perfbench/layers.json names
// each per-layer metric's boundary and the end-to-end metric and
// workload it should move.
//
// The last line of standard output is the result:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The exit code is 0 only when every result matched its reference.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"additivity/internal/service"
	"additivity/internal/stats"
)

// layerMeta documents one per-layer metric.
type layerMeta struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	Boundary string `json:"boundary"`
	Moves    string `json:"moves"`
	On       string `json:"on"`
}

//go:embed layers.json
var layersJSON []byte

// setupRuns is how many times an end-to-end run sets up a daemon; it
// reports the median set-up time and measures on the last daemon.
const setupRuns = 7

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	daemon   string
	work     string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	os.Exit(run())
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's requests are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of each timed replay, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "path of the additivityd binary to benchmark")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for cache dirs, spans and run records")
	flag.Parse()
	if o.daemon == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		log.Print("need -daemon, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		log.Print(err)
		return 2
	}
	var layers []layerMeta
	if err := json.Unmarshal(layersJSON, &layers); err != nil {
		log.Printf("layers.json: %v", err)
		return 2
	}
	scratch, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		log.Print(err)
		return 2
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		log.Print(err)
		return 2
	}
	defer os.RemoveAll(scratch)

	env := readEnvironment(scratch)
	fmt.Println(env)
	fmt.Printf("workload %s seed %d: %s\n", w.name, w.seed, w.why)
	fmt.Printf("closed loop: %d players, %d s timed, per-job timeout %s, chunk %d\n",
		players, o.seconds, w.jobTimeout(), w.chunk)

	var res *result
	if o.trace == 0 {
		res, err = endToEnd(o, w)
	} else {
		res, err = traced(o, w, scratch, layers)
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	if err := res.record(o, env); err != nil {
		log.Printf("run record: %v", err)
		return 1
	}
	if !res.Correct {
		log.Printf("%d of %d operations failed or mismatched their reference: %s", res.Failed, res.Attempted, res.firstMismatch)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome; its JSON form is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	detail        map[string]any
	firstMismatch string
}

func (r *result) set(name string, v float64, unit, note string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %s = %.6g %s  (%s)\n", name, v, unit, note)
}

// record prints the result line and stores it with the environment
// under .bench_build/runs/.
func (r *result) record(o options, env environment) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	dir := filepath.Join(o.work, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec, err := json.MarshalIndent(map[string]any{
		"env": env, "workload": o.workload, "seed": o.seed, "seconds": o.seconds,
		"trace": o.trace, "players": players, "result": r, "detail": r.detail,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", o.workload, o.seed, o.trace, time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, name), append(rec, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measurement is one daemon's set-ups and timed replay.
type measurement struct {
	setups []float64 // seconds, exec to ready plus warm-up
	warm   []phaseResult
	// segs are the timed replay's segments; timed merges them.
	segs      []segment
	timed     phaseResult
	daemonCPU time.Duration
	clientCPU time.Duration
	// peakRSS is the daemon's VmHWM once w.memMark timed operations
	// have settled (marked), or at the end of a replay too short to
	// reach the mark; markOps is the operation count it was read at.
	peakRSS int64
	marked  bool
	markOps int
	// setupSpeeds is the machine's speed over the set-ups (probe.go).
	setupSpeeds speeds
	// Traced measurements only. mem1 is read with peakRSS.
	stats0, stats1 service.Stats
	mem0, mem1     memStats
	depth          []float64
}

// segment is one stretch of the timed replay: what it measured, the
// daemon CPU time it used and the machine's speed meanwhile.
type segment struct {
	phaseResult
	daemonCPU time.Duration
	speeds
}

// measure sets a daemon up setups times (each a fresh process, booted
// and warmed) and replays the timed stream on the last one for dur, in
// segments equal stretches. A traced measurement also samples /statsz,
// reads the daemon's memory statistics and records spans. With a speed
// probe, the machine's speed is read over the set-ups and over each
// segment; without one it counts as the reference speed.
func measure(o options, w *workload, setups, segments int, dur time.Duration, timed *stream, chk *checker, rec *recorder, probe *speedProbe) (*measurement, error) {
	m := &measurement{setupSpeeds: speeds{cpu: 1, wall: 1}}
	withPprof := rec != nil
	mark := func(ours time.Duration) probeMark {
		if probe == nil {
			return probeMark{}
		}
		return probe.mark(ours)
	}
	between := func(a, b probeMark) speeds {
		if probe == nil {
			return speeds{cpu: 1, wall: 1}
		}
		return probe.between(a, b, w.computeBound)
	}
	var d *daemon
	var err error
	var gone time.Duration // CPU time of the set-ups' stopped daemons
	ours := func() time.Duration {
		c := selfCPU() + gone
		if d != nil {
			t, _ := d.cpuTime() // a daemon that has exited fails the run below
			c += t
		}
		return c
	}
	mark0 := mark(ours())
	for k := 0; k < setups; k++ {
		if d != nil {
			t, _ := d.cpuTime()
			gone += t
			d.stop()
		}
		start := time.Now()
		id := rec.newID()
		d, err = startDaemon(o.daemon, withPprof)
		if err != nil {
			return nil, err
		}
		ready := time.Now()
		m.warm = append(m.warm, replay(d, w, w.newWarm(), 0, chk, rec, id, 0, nil))
		m.setups = append(m.setups, time.Since(start).Seconds())
		rec.add(id, 0, "setup", start, time.Now(), "", "ready after "+ready.Sub(start).String())
		if wp := m.warm[len(m.warm)-1]; wp.stalled || d.dead() {
			return m, fmt.Errorf("additivityd died or stalled during warm-up; %s", d.logs())
		}
	}
	defer d.stop()
	m.setupSpeeds = between(mark0, mark(ours()))

	stop := make(chan struct{})
	sampled := make(chan []float64)
	if withPprof {
		if m.stats0, err = d.stats(); err != nil {
			return nil, err
		}
		if m.mem0, err = d.memStats(); err != nil {
			return nil, err
		}
		go func() {
			var depth []float64
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					sampled <- depth
					return
				case <-tick.C:
					start := time.Now()
					if st, err := d.stats(); err == nil {
						depth = append(depth, float64(st.QueueDepth))
					}
					rec.add(0, 0, "statsz.scrape", start, time.Now(), "", "")
				}
			}
		}()
	}
	var markErr error
	atMark := func() {
		start := time.Now()
		if m.peakRSS, markErr = d.peakRSS(); markErr == nil && withPprof {
			m.mem1, markErr = d.memStats()
		}
		m.marked = true
		rec.add(0, 0, "memory.mark", start, time.Now(), "", fmt.Sprintf("after %d ops", w.memMark))
	}
	id := rec.newID()
	start := time.Now()
	toMark := w.memMark
	var segErr error // ends the segments; returned once the sampler has stopped
	for k := 0; k < segments; k++ {
		var seg segment
		var cpu0, cpu1 time.Duration
		if cpu0, segErr = d.cpuTime(); segErr != nil {
			break
		}
		self0 := selfCPU()
		mark0 := mark(cpu0 + self0)
		onMark := atMark
		if m.marked {
			onMark = nil
		}
		seg.phaseResult = replay(d, w, timed, dur/time.Duration(segments), chk, rec, id, toMark, onMark)
		self1 := selfCPU()
		m.clientCPU += self1 - self0
		toMark -= seg.settled
		m.timed.merge(seg.phaseResult)
		if seg.stalled || d.dead() {
			break
		}
		if cpu1, segErr = d.cpuTime(); segErr != nil {
			break
		}
		seg.speeds = between(mark0, mark(cpu1+self1))
		seg.daemonCPU = cpu1 - cpu0
		m.daemonCPU += seg.daemonCPU
		m.segs = append(m.segs, seg)
	}
	rec.add(id, 0, "phase.timed", start, time.Now(), "", w.name)
	if withPprof {
		close(stop)
		m.depth = <-sampled
	}
	if m.timed.stalled {
		return m, fmt.Errorf("no operation settled for %s: the watchdog killed additivityd; %s", w.stallLimit(), d.logs())
	}
	if d.dead() {
		return m, fmt.Errorf("additivityd died during the timed replay; %s", d.logs())
	}
	if segErr != nil {
		return nil, segErr
	}
	if markErr != nil {
		return nil, markErr
	}
	m.markOps = w.memMark
	if !m.marked {
		m.markOps = m.completed()
		if m.peakRSS, err = d.peakRSS(); err != nil {
			return nil, err
		}
		if withPprof {
			if m.mem1, err = d.memStats(); err != nil {
				return nil, err
			}
		}
	}
	if withPprof {
		if m.stats1, err = d.stats(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// merge adds a segment's outcome to a phase that spans several.
func (p *phaseResult) merge(q phaseResult) {
	p.elapsed += q.elapsed
	p.attempted += q.attempted
	p.done += q.done
	p.failed += q.failed
	p.retries += q.retries
	p.settled += q.settled
	p.latMS = append(p.latMS, q.latMS...)
	p.failures = append(p.failures, q.failures...)
	p.stalled = p.stalled || q.stalled
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle resolves every reference and folds the measurements' outcome
// counts into the result: attempted counts every replayed operation,
// warm-ups included; failed counts those that failed other than by
// design or whose result differs from the reference.
func settle(res *result, chk *checker, ms ...*measurement) {
	var phases []phaseResult
	for _, m := range ms {
		phases = append(append(phases, m.warm...), m.timed)
	}
	var failures []failure
	loadgenFailed, done := 0, 0
	stalled := false
	for _, p := range phases {
		res.Attempted += p.attempted
		loadgenFailed += p.failed
		done += p.done
		failures = append(failures, p.failures...)
		stalled = stalled || p.stalled
	}
	confirmed := chk.resolve(failures)
	// Failed operations the daemon never answered with a failed state
	// (timeouts, transport errors, aborts), plus every failed state or
	// payload the references do not confirm.
	unanswered := loadgenFailed - len(failures)
	unchecked := done + len(failures) - int(chk.checked.Load())
	res.Failed = abs(unanswered) + int(chk.mismatches.Load()) + abs(unchecked)
	res.Correct = res.Failed == 0 && !stalled && res.Attempted > 0
	res.firstMismatch = chk.first
	if stalled {
		res.firstMismatch = "a replay stalled and the watchdog killed the daemon"
	}
	fmt.Printf("check: %d results compared with their reference, %d failed by design as the reference does, %d failed or mismatched\n",
		chk.checked.Load(), confirmed, res.Failed)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// completed is the number of timed operations that settled: done, or
// failed with an error the reference check then confirms.
func (m *measurement) completed() int { return m.timed.done + len(m.timed.failures) }

func (m *measurement) throughput() float64 {
	return float64(m.completed()) / m.timed.elapsed.Seconds()
}

// pooled is the throughput of several timed replays taken together.
func pooled(ms []*measurement) float64 {
	ops, secs := 0, 0.0
	for _, m := range ms {
		ops += m.completed()
		secs += m.timed.elapsed.Seconds()
	}
	return float64(ops) / secs
}

// tail reports the workload's tail percentile of the timed latencies.
func tail(w *workload, lat []float64) (float64, string) {
	beyond := float64(len(lat)) * (100 - w.tailPct) / 100
	note := fmt.Sprintf("p%g of %d ops, %.0f beyond", w.tailPct, len(lat), beyond)
	if beyond < 10 {
		note += "; fewer than 10 samples beyond the percentile"
	}
	return stats.Percentile(lat, w.tailPct), note
}

func endToEnd(o options, w *workload) (*result, error) {
	chk := newChecker(w.pool)
	probe, err := startSpeedProbe()
	if err != nil {
		return nil, err
	}
	m, err := measure(o, w, setupRuns, w.segments, time.Duration(o.seconds)*time.Second, w.newTimed(), chk, nil, probe)
	if perr := probe.close(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	res := &result{}
	settle(res, chk, m)
	if len(m.timed.latMS) == 0 {
		return nil, errors.New("no timed operation settled")
	}
	// Timings are read at the reference speed of probe.go, each
	// segment's at its own speed: a rate divided by the wall-clock
	// speed, a CPU time multiplied by the CPU speed. A latency is
	// multiplied by the speed that moves it. A long operation is all
	// compute, so both its median and its tail move with the wall-clock
	// speed. Of many short operations, time lost to other guests and
	// processes stalls a few for long and leaves the median where the
	// CPU speed puts it; their tail is such stalls, mostly a scheduler
	// time slice of fixed length, so it moves with the share of CPU
	// time left alone (wall over CPU speed).
	ops := m.completed()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	latSpeeds := func(g segment) (median, tail float64) {
		if w.computeBound {
			return g.wall, g.wall
		}
		return g.cpu, g.wall / g.cpu
	}
	var (
		// every timed latency at the reference speed, for the median
		// and for the tail
		atMedian, atTail                []float64
		thr, p50, cpu                   float64
		walls, cpus                     []float64
		rawThr, rawP50, rawCPU, rawTail float64
	)
	for _, g := range m.segs {
		walls, cpus = append(walls, g.wall), append(cpus, g.cpu)
		sm, st := latSpeeds(g)
		for _, l := range g.latMS {
			atMedian = append(atMedian, l*sm)
			atTail = append(atTail, l*st)
		}
	}
	how := "over all segments"
	if w.computeBound {
		var secs, cpuMS float64
		for _, g := range m.segs {
			secs += g.elapsed.Seconds() * g.wall
			cpuMS += ms(g.daemonCPU) * g.cpu
		}
		thr, p50, cpu = float64(ops)/secs, stats.Percentile(atMedian, 50), cpuMS/float64(ops)
	} else {
		how = "median of the segments"
		var thrs, p50s, cpuOps []float64
		for k, g := range m.segs {
			n := g.done + len(g.failures)
			if n == 0 {
				return nil, fmt.Errorf("no operation settled in timed segment %d", k+1)
			}
			thrs = append(thrs, float64(n)/g.elapsed.Seconds()/g.wall)
			sm, _ := latSpeeds(g)
			p50s = append(p50s, stats.Percentile(g.latMS, 50)*sm)
			cpuOps = append(cpuOps, ms(g.daemonCPU)/float64(n)*g.cpu)
		}
		thr, p50, cpu = median(thrs), median(p50s), median(cpuOps)
	}
	rawThr, rawP50 = m.throughput(), stats.Percentile(m.timed.latMS, 50)
	rawCPU, rawTail = ms(m.daemonCPU)/float64(ops), stats.Percentile(m.timed.latMS, w.tailPct)
	setup := median(append([]float64(nil), m.setups...))
	part, ref := "whole kernel", probeRefUS
	if w.computeBound {
		part, ref = "kernel's compute part", probeRefComputeUS
	}
	fmt.Printf("speed probe: %d kernel times; set-ups at speed %.4g (wall-clock); segments at speed %.4g (wall-clock) and %.4g (CPU), medians, against a reference time of %g us for the %s\n",
		probe.samples(), m.setupSpeeds.wall, median(walls), median(cpus), ref, part)
	of := fmt.Sprintf("%s, %d segments, %d ops in %.3f s", how, len(m.segs), ops, m.timed.elapsed.Seconds())
	measured := func(v float64, unit string) string {
		return fmt.Sprintf("whole replay as measured %.6g %s", v, unit)
	}
	res.set("throughput_ops_s", thr, "1/s", of+"; "+measured(rawThr, "1/s"))
	res.set("latency_p50_ms", p50, "ms", of+"; "+measured(rawP50, "ms"))
	res.set("daemon_cpu_ms_per_op", cpu, "ms", of+", daemon utime+stime; "+measured(rawCPU, "ms"))
	t, tailNote := tail(w, atTail)
	res.set("latency_tail_ms", t, "ms", tailNote+"; "+measured(rawTail, "ms"))
	res.set("setup_s", setup*m.setupSpeeds.wall, "s",
		fmt.Sprintf("median of %d set-ups: exec to ready plus warm-up; as measured %.6g s", len(m.setups), setup))
	res.set("peak_rss_mb", float64(m.peakRSS)/(1<<20), "MB", m.markNote("daemon VmHWM"))
	// failed_share is always reported here, and carried by the result
	// line's attempted and failed fields; it is not a BENCHMARK.json
	// metric because a healthy run reads exactly zero.
	fmt.Printf("failed_share = %.6g  (%d of %d ops, warm-ups included)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	res.detail = map[string]any{
		"setups_s": m.setups, "timed_ops": ops, "latency_samples": len(m.timed.latMS),
		"tail_percentile": w.tailPct, "retries": m.timed.retries,
		"segments": segDetail(m.segs), "setup_speed_wall": m.setupSpeeds.wall,
		"as_measured": map[string]float64{
			"throughput_ops_s": rawThr, "latency_p50_ms": rawP50, "daemon_cpu_ms_per_op": rawCPU,
			"latency_tail_ms": rawTail, "setup_s": setup,
		},
	}
	return res, nil
}

// segDetail lists each timed segment's figures as measured and its
// speeds, for the run record.
func segDetail(segs []segment) []map[string]float64 {
	out := make([]map[string]float64, len(segs))
	for k, g := range segs {
		n := float64(g.done + len(g.failures))
		out[k] = map[string]float64{
			"secs": g.elapsed.Seconds(), "ops": n,
			"p50_ms":        stats.Percentile(g.latMS, 50),
			"daemon_cpu_ms": float64(g.daemonCPU) / float64(time.Millisecond),
			"speed_cpu":     g.cpu, "speed_wall": g.wall,
		}
	}
	return out
}

// markNote says at how many timed operations the daemon's memory was
// read.
func (m *measurement) markNote(what string) string {
	if m.marked {
		return fmt.Sprintf("%s after %d timed ops", what, m.markOps)
	}
	return fmt.Sprintf("%s at the end of the replay, %d timed ops: the replay ended before the mark", what, m.markOps)
}

// traced makes four replays of half the run length each, on fresh
// daemons, untraced and traced in the order U T T U so that a drift of
// the machine's speed over the run cancels out of the tracing overhead.
// It then calls the layers in-process and reports every per-layer
// metric; the daemon's counters and memory come from the first traced
// replay.
func traced(o options, w *workload, scratch string, layers []layerMeta) (*result, error) {
	chk := newChecker(w.pool)
	timed := w.newTimed() // every replay draws from one stream: identities never repeat
	dur := time.Duration(o.seconds) * time.Second / 2
	rec := newRecorder()
	var plain, trs []*measurement
	for _, traceIt := range []bool{false, true, true, false} {
		var r *recorder
		if traceIt {
			r = rec
		}
		m, err := measure(o, w, 1, 1, dur, timed, chk, r, nil)
		if err != nil {
			return nil, err
		}
		if traceIt {
			trs = append(trs, m)
		} else {
			plain = append(plain, m)
		}
	}
	v, err := measureLayers(w, scratch, rec)
	if err != nil {
		return nil, err
	}
	res := &result{}
	settle(res, chk, append(plain, trs...)...)

	tr := trs[0]
	ops := float64(tr.completed())
	d0, d1 := tr.stats0, tr.stats1
	c0, c1 := d0.Cache, d1.Cache
	if c0 == nil || c1 == nil {
		return nil, errors.New("statsz carries no cache counters")
	}
	v["daemon.gc_cycles_per_kop"] = float64(tr.mem1.numGC-tr.mem0.numGC) / (float64(tr.markOps) / 1000)
	v["daemon.gc_pause_ms"] = float64(gcPause(tr.mem0, tr.mem1)) / float64(time.Millisecond)
	v["daemon.heap_inuse_mb"] = float64(tr.mem1.heapInuse) / (1 << 20)
	if reqs := c1.Requests() - c0.Requests(); reqs > 0 {
		v["memo.hit_ratio"] = float64(c1.Hits-c0.Hits) / float64(reqs)
	} else {
		v["memo.hit_ratio"] = 0
	}
	v["memo.misses_per_op"] = float64(c1.Misses-c0.Misses) / ops
	v["memo.single_flight_merges"] = float64(c1.SingleFlightMerges - c0.SingleFlightMerges)
	depth := 0.0
	if len(tr.depth) > 0 {
		depth = stats.Mean(tr.depth)
	}
	v["service.queue_depth_mean"] = depth
	v["service.queue_wait_ms"] = depth / tr.throughput() * 1000 // Little's law: W = L / λ
	v["service.shed"] = float64(d1.Shed - d0.Shed)
	var plainCPU time.Duration
	plainOps := 0
	for _, m := range plain {
		plainCPU += m.clientCPU
		plainOps += m.completed()
	}
	v["loadgen.cpu_ms_per_op"] = float64(plainCPU) / float64(time.Millisecond) / float64(plainOps)
	v["loadgen.retries"] = float64(tr.timed.retries)
	u, t := pooled(plain), pooled(trs)
	u1, u2 := plain[0].throughput(), plain[1].throughput()
	v["trace.overhead_pct"] = (u - t) / u * 100
	v["trace.untraced_spread_pct"] = math.Abs(u1-u2) / ((u1 + u2) / 2) * 100

	fmt.Printf("tracing overhead on %s: throughput %.6g untraced vs %.6g traced ops/s (%.3g%%), two of each in the order U T T U; the two untraced replays differ by %.3g%% (%.6g and %.6g ops/s)\n",
		w.name, u, t, v["trace.overhead_pct"], v["trace.untraced_spread_pct"], u1, u2)
	for _, l := range layers {
		x, ok := v[l.Name]
		if !ok {
			return nil, fmt.Errorf("layers.json names %s, which the traced run does not measure", l.Name)
		}
		delete(v, l.Name)
		res.set(l.Name, x, l.Unit, fmt.Sprintf("%s; should move %s on %s", l.Boundary, l.Moves, l.On))
	}
	if len(v) > 0 {
		names := make([]string, 0, len(v))
		for n := range v {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("metrics missing from layers.json: %v", names)
	}

	dir := filepath.Join(o.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", w.name, w.seed, os.Getpid()))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)
	res.detail = map[string]any{
		"throughput_untraced_ops_s": []float64{u1, u2},
		"throughput_traced_ops_s":   []float64{trs[0].throughput(), trs[1].throughput()},
		"memory_read_after_ops":     tr.markOps, "spans": path,
	}
	return res, nil
}
