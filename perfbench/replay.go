package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"additivity/internal/loadgen"
	"additivity/internal/service"
)

// players is the closed loop's width: one loadgen player, and so one
// connection, per CPU, at most two. On two CPUs the daemon and the
// load generator already share the machine.
var players = min(2, runtime.NumCPU())

// jobTimeout is loadgen's PerJobTimeout for the workload: twenty
// operation budgets, at least a second.
func (w *workload) jobTimeout() time.Duration {
	return max(time.Second, 20*w.opBudget)
}

// stallLimit is how long a replay may go without a single operation
// settling before the watchdog kills the daemon.
func (w *workload) stallLimit() time.Duration {
	return 5*time.Second + 10*w.opBudget
}

// failure is a job that settled in the failed state: the request that
// created it and the error the daemon reported.
type failure struct {
	req []byte
	msg string
}

// tap wraps the replay client's transport. It times every operation
// from its submit to the response that carried its terminal state, and
// keeps failed-state envelopes with their requests for the reference
// check. When the run is traced it records an "op" span per operation
// with an "http" span per round trip.
type tap struct {
	inner http.RoundTripper
	d     *daemon
	rec   *recorder
	phase uint64 // parent span of every op span

	settled atomic.Int64 // terminal responses seen, for the watchdog

	// atMark, when set, runs on its own goroutine once mark operations
	// have settled; marked waits for it.
	mark   int64
	atMark func()
	marked sync.WaitGroup

	mu       sync.Mutex
	latMS    []float64
	open     map[string]openOp
	failures []failure
}

// openOp is a submitted job whose terminal state has not been seen.
type openOp struct {
	start time.Time
	span  uint64
	req   *http.Request
}

// goneBody answers requests once the daemon process has exited.
// loadgen retries refused connections for the whole PerJobTimeout;
// a 410 on submit ends the job as failed at once, so a dead daemon
// ends the run in seconds.
const goneBody = "additivityd exited\n"

func (t *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.d.dead() {
		return &http.Response{
			StatusCode: http.StatusGone, Status: "410 Gone",
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{}, Body: io.NopCloser(strings.NewReader(goneBody)),
			ContentLength: int64(len(goneBody)), Request: req,
		}, nil
	}
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &tapBody{rc: resp.Body, t: t, req: req, start: start}
	return resp, nil
}

// headMax bounds how much of a body the tap keeps: enough for any
// status envelope, which precedes the inline result.
const headMax = 1024

type tapBody struct {
	rc    io.ReadCloser
	t     *tap
	req   *http.Request
	start time.Time
	head  []byte
	done  bool
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if room := headMax - len(b.head); room > 0 && n > 0 {
		b.head = append(b.head, p[:min(n, room)]...)
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tapBody) Close() error {
	b.finish()
	return b.rc.Close()
}

func (b *tapBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.t.observe(b.req, b.head, b.start, time.Now())
}

// envelopeField extracts a string member from the leading status
// envelope without decoding the inline result behind it.
func envelopeField(head []byte, name string) string {
	key := `"` + name + `":"`
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return ""
	}
	rest := head[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

func (t *tap) observe(req *http.Request, head []byte, start, end time.Time) {
	id := envelopeField(head, "id")
	state := service.JobState(envelopeField(head, "state"))
	route := "http.submit"
	if req.Method == http.MethodGet {
		route = "http.poll"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == "" {
		// An error envelope (shed, draining, malformed): loadgen retries
		// or fails the job; no operation settles here.
		t.rec.add(0, t.phase, route, start, end, "", "no job")
		return
	}
	op, known := t.open[id]
	if !known {
		op = openOp{start: start, span: t.rec.newID(), req: req}
	}
	t.rec.add(0, op.span, route, start, end, id, string(state))
	if !state.Terminal() {
		t.open[id] = op
		return
	}
	delete(t.open, id)
	if t.settled.Add(1) == t.mark && t.atMark != nil {
		t.marked.Add(1)
		go func() {
			defer t.marked.Done()
			t.atMark()
		}()
	}
	t.rec.add(op.span, t.phase, "op", op.start, end, id, string(state))
	if state == service.StateFailed {
		var st service.JobStatus
		msg := "undecodable failed envelope"
		if json.Unmarshal(head, &st) == nil {
			msg = st.Error
		}
		t.failures = append(t.failures, failure{req: requestBody(op.req), msg: msg})
	}
	if state == service.StateDone || state == service.StateFailed {
		t.latMS = append(t.latMS, float64(end.Sub(op.start))/float64(time.Millisecond))
	}
}

// requestBody re-reads a submitted request's JSON body.
func requestBody(req *http.Request) []byte {
	if req.GetBody == nil {
		return nil
	}
	rc, err := req.GetBody()
	if err != nil {
		return nil
	}
	defer rc.Close()
	b, _ := io.ReadAll(rc)
	return b
}

// phaseResult is what one replay phase measured.
type phaseResult struct {
	elapsed   time.Duration
	attempted int
	done      int // settled in the done state
	failed    int // loadgen's failed and aborted outcomes, by-design failures included
	retries   int
	settled   int // terminal responses the tap saw
	latMS     []float64
	failures  []failure
	stalled   bool
}

// replay drives the daemon through loadgen with a closed loop of
// players, each replaying chunks of the stream with one loadgen player
// so a chunk boundary never idles the other. With dur > 0 the players
// start no new chunk once dur has passed; otherwise they run the stream
// to its end. Every done payload goes to chk. atMark, if not nil, runs
// once mark operations of this replay have settled, while the replay
// goes on.
func replay(d *daemon, w *workload, s *stream, dur time.Duration, chk *checker, rec *recorder, parent uint64, mark int, atMark func()) phaseResult {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = players
	tp := &tap{inner: transport, d: d, rec: rec, phase: parent, open: map[string]openOp{},
		mark: int64(mark), atMark: atMark}
	client := &http.Client{Transport: tp}
	defer transport.CloseIdleConnections()

	var res phaseResult
	var mu sync.Mutex
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		last, lastAt := tp.settled.Load(), time.Now()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				if n := tp.settled.Load(); n != last {
					last, lastAt = n, now
				} else if now.Sub(lastAt) > w.stallLimit() && !d.dead() {
					mu.Lock()
					res.stalled = true
					mu.Unlock()
					d.kill()
				}
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !d.dead() && (dur <= 0 || time.Since(start) < dur) {
				reqs, pos := s.take(w.chunk)
				if len(reqs) == 0 {
					return
				}
				rep, err := loadgen.Play(loadgen.PlayConfig{
					BaseURL:       d.base,
					Trace:         &loadgen.Trace{Name: w.name, Seed: w.seed, Jobs: reqs},
					Players:       1,
					Client:        client,
					PollWait:      30 * time.Second,
					PerJobTimeout: w.jobTimeout(),
					OnResult: func(i int, payload []byte) {
						chk.served(reqs[i], pos[i], payload)
					},
				})
				mu.Lock()
				res.attempted += len(reqs)
				if err != nil {
					res.failed += len(reqs)
				} else {
					res.done += rep.Succeeded + rep.Degraded
					res.failed += rep.Failed + rep.Aborted
					res.retries += rep.Retries
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	close(stop)
	watch.Wait()
	tp.marked.Wait()
	tp.mu.Lock()
	res.latMS, res.failures = tp.latMS, tp.failures
	tp.mu.Unlock()
	res.settled = int(tp.settled.Load())
	return res
}
