package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"additivity/internal/core"
	"additivity/internal/memo"
)

// JobState is a job's lifecycle state. Transitions are monotone:
// queued → running → one of done/failed/aborted; a queued job aborted
// before it starts goes straight to aborted.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	StateAborted JobState = "aborted"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateAborted
}

// Options configures a Server.
type Options struct {
	// Cache backs every job with the shared content-addressed
	// measurement cache — the layer that makes duplicate jobs cheap and
	// concurrent duplicates single-flight. Nil: a memory-only cache.
	Cache *memo.Cache
	// MaxConcurrentJobs bounds how many jobs run at once (queued jobs
	// wait). Zero or negative: GOMAXPROCS.
	MaxConcurrentJobs int
	// MaxQueuedJobs bounds the accept queue: jobs admitted but not yet
	// holding a pool slot. Submissions past the bound are shed with 429
	// "overloaded" instead of growing an unbounded backlog (the fast
	// path — warm hits and analytic predictions — is never shed: it
	// settles synchronously without queueing). Zero means
	// DefaultMaxQueuedJobs; negative means unbounded.
	MaxQueuedJobs int
	// DefaultJobTimeout, when positive, bounds each pooled job's total
	// time (queue wait included) with a context deadline. A per-request
	// ?timeout= overrides it. Expired jobs settle as aborted with
	// "job deadline exceeded".
	DefaultJobTimeout time.Duration
}

// DefaultMaxQueuedJobs bounds the accept queue when
// Options.MaxQueuedJobs is zero.
const DefaultMaxQueuedJobs = 256

// maxWait caps long-poll durations on the poll and submit endpoints.
const maxWait = 30 * time.Second

// retainSettled is how many settled jobs the server keeps pollable:
// the job table holds every in-flight pooled job plus the most recent
// retainSettled settled ones, so its size stays fixed however many
// requests the server answers. It matches memo.DefaultMaxEntries, the
// job cache's own bound, so a retained job's payload is usually also
// still cached.
const retainSettled = 4096

// Progress is a job's gather fan-out position.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// job is one submitted unit of work.
type job struct {
	id   string
	seq  uint64 // the N of id "job-N", issued in submission order
	kind JobKind
	// req and key are what run executes: pooled jobs only.
	req JobRequest
	key memo.Key

	cancel context.CancelFunc
	doneCh chan struct{}

	mu       sync.Mutex
	state    JobState
	errMsg   string
	progress Progress
	result   []byte
	degraded bool
}

// JobStatus is the poll-endpoint view of a job.
type JobStatus struct {
	ID    string   `json:"id"`
	Kind  JobKind  `json:"kind"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	// Degraded marks a done job whose result rests on incomplete data
	// (dropped samples or quarantined events under fault injection).
	Degraded bool      `json:"degraded,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
	// Result carries a done job's canonical payload inline when the
	// submit or poll request asked for it with ?result=1 — jobs that
	// settle within the request (warm cache hits, analytic predictions,
	// long-poll completions) then need no second result round-trip.
	Result json.RawMessage `json:"result,omitempty"`
}

// wantResult reports whether the query opted into an inline result
// payload with ?result=1 (any strconv.ParseBool true form).
func wantResult(q url.Values) bool {
	v, err := strconv.ParseBool(q.Get("result"))
	return err == nil && v
}

// attachResult inlines a done job's payload into its status.
func attachResult(j *job, st *JobStatus) {
	if st.State != StateDone {
		return
	}
	j.mu.Lock()
	st.Result = j.result
	j.mu.Unlock()
}

// The constant pieces of a status response with an inline result.
var (
	resultKey  = []byte(`,"result":`)
	statusTail = []byte("}\n")
)

// writeStatus writes a status response. An inline result is spliced
// into the JSON verbatim: the payload is already canonical JSON, and
// pushing it back through the generic encoder would re-compact every
// byte — measurably dominating the single-round-trip fast path on
// large check results. The frame, key, payload and tail go out as
// separate writes, so the payload is never copied.
func writeStatus(w http.ResponseWriter, status int, st JobStatus) {
	if st.Result == nil {
		writeJSON(w, status, st)
		return
	}
	payload := st.Result
	st.Result = nil
	frame, err := json.Marshal(st)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding_failed", err.Error())
		return
	}
	frame = frame[:len(frame)-1] // reopen the object for the result member
	w.Header().Set("Content-Type", "application/json")
	// An explicit length keeps the response out of chunked transfer
	// encoding — chunk framing costs both sides of the fast path real
	// CPU on bodies this size.
	n := len(frame) + len(resultKey) + len(payload) + len(statusTail)
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, b := range [][]byte{frame, resultKey, payload, statusTail} {
		if _, err := w.Write(b); err != nil {
			return
		}
	}
}

// FaultStats aggregates the resilience accounting of every completed
// job: retry/recovery totals from the fault-injection layer and how
// many jobs finished on degraded data.
type FaultStats struct {
	Retries      int64  `json:"retries"`
	Recovered    int64  `json:"recovered"`
	DegradedJobs uint64 `json:"degraded_jobs"`
}

// JobCounters counts jobs by lifecycle outcome. Submitted, Done,
// Failed and Aborted are monotone; Queued, Running and Retained are
// gauges. Retained is the job table's size: every in-flight pooled job
// plus at most RetainLimit settled ones.
type JobCounters struct {
	Submitted   uint64 `json:"submitted"`
	Queued      uint64 `json:"queued"`
	Running     uint64 `json:"running"`
	Done        uint64 `json:"done"`
	Failed      uint64 `json:"failed"`
	Aborted     uint64 `json:"aborted"`
	Retained    int    `json:"retained"`
	RetainLimit int    `json:"retain_limit"`
}

// Stats is the /statsz payload. Every counter in it is monotone over
// the server's lifetime except the Queued/Running/Retained/QueueDepth
// gauges and the Draining/Degraded/Breaker states. QueueDepth repeats
// Jobs.Queued, the gauge admission control bounds.
type Stats struct {
	Jobs         JobCounters         `json:"jobs"`
	HTTPRequests uint64              `json:"http_requests"`
	Cache        *memo.StatsSnapshot `json:"cache,omitempty"`
	Faults       FaultStats          `json:"faults"`
	Draining     bool                `json:"draining"`
	// Shed counts submissions refused with 429 because the accept queue
	// was full; DeadlineExceeded counts jobs aborted by their deadline.
	Shed             uint64 `json:"shed"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	// QueueDepth/QueueLimit expose the admission gauge (-1 limit means
	// unbounded); Breaker is the measurement cache's disk breaker state;
	// Degraded mirrors /healthz.
	QueueDepth int    `json:"queue_depth"`
	QueueLimit int    `json:"queue_limit"`
	Breaker    string `json:"breaker,omitempty"`
	Degraded   bool   `json:"degraded"`
}

// Server is the additivityd daemon core: an http.Handler exposing the
// job API over a bounded job-execution pool. ServeHTTP is the only way
// to submit, poll, fetch or abort a job. Create with NewServer.
type Server struct {
	opts Options
	mux  *http.ServeMux
	sem  chan struct{}
	// queueLimit is the resolved accept-queue bound (-1: unbounded) on
	// jobsQueued, the live count of admitted-but-not-running jobs.
	queueLimit int

	// mu guards the job table. jobs maps a job's seq to the job and
	// holds every pooled job still in flight plus the settled jobs the
	// settled ring names; the ring lists settled seqs oldest first from
	// settledNext (0: an empty slot), and a job entering a full ring
	// evicts the oldest.
	mu          sync.Mutex
	jobs        map[uint64]*job
	settled     [retainSettled]uint64
	settledNext int

	jobWG    sync.WaitGroup
	draining atomic.Bool

	nextID           atomic.Uint64
	httpRequests     atomic.Uint64
	jobsSubmitted    atomic.Uint64
	jobsQueued       atomic.Int64
	jobsRunning      atomic.Int64
	jobsDone         atomic.Uint64
	jobsFailed       atomic.Uint64
	jobsAborted      atomic.Uint64
	jobsShed         atomic.Uint64
	deadlineExceeded atomic.Uint64
	faultRetries     atomic.Int64
	faultRecov       atomic.Int64
	degradedJobs     atomic.Uint64
}

// NewServer returns a daemon core serving the job API:
//
//	GET    /healthz              liveness probe
//	GET    /statsz               cache, job and fault counters
//	POST   /v1/jobs              submit a job (JobRequest body;
//	                             optional ?wait=2s and ?result=1)
//	GET    /v1/jobs              list retained jobs in submission order
//	GET    /v1/jobs/{id}         poll one job (optional ?wait=2s
//	                             and ?result=1)
//	GET    /v1/jobs/{id}/result  fetch a done job's payload
//	DELETE /v1/jobs/{id}         abort a queued or running job
//
// A job stays addressable while it is in flight and for the next
// retainSettled settles after its own. Past that its id answers 410
// "expired"; an id the server never issued answers 404 "unknown_job".
func NewServer(opts Options) *Server {
	if opts.Cache == nil {
		// A cache without a directory opens nothing, so it cannot fail.
		opts.Cache, _ = memo.New(memo.Options{})
	}
	n := opts.MaxConcurrentJobs
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	limit := opts.MaxQueuedJobs
	switch {
	case limit == 0:
		limit = DefaultMaxQueuedJobs
	case limit < 0:
		limit = -1
	}
	s := &Server{
		opts:       opts,
		sem:        make(chan struct{}, n),
		queueLimit: limit,
		jobs:       make(map[uint64]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handlePoll)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleAbort)
	mux.HandleFunc("GET /v1/peer/blob/{digest}", s.handlePeerBlob)
	s.mux = mux
	return s
}

// handlePeerBlob serves one cached entry to a sibling replica in the
// entry wire framing (`memo1 <sha256> <len>\n<payload>` — see
// memo.EncodeEntry), with an explicit Content-Length. It answers
// strictly from what this replica already has stored (LRU or disk):
// never a compute, never a fetch from its own peers — so two replicas
// missing the same digest can never recurse into each other — and
// never a request-counter movement, so serving peers doesn't skew this
// replica's hit/miss accounting. The fetching side re-validates the
// framing and payload checksum on receipt.
func (s *Server) handlePeerBlob(w http.ResponseWriter, r *http.Request) {
	key, err := memo.KeyFromHex(r.PathValue("digest"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_digest", err.Error())
		return
	}
	payload, ok := s.opts.Cache.LookupStored(key)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_blob",
			"no stored entry for digest "+key.Hex())
		return
	}
	blob := memo.EncodeEntry(payload)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.httpRequests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// errorBody is the structured error envelope every non-2xx response
// carries.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = message
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Degraded reports whether the server is up but impaired: the
// measurement cache's disk breaker is open (jobs compute without
// persistence or fleet coordination) or the accept queue is saturated
// (new submissions are being shed). The reason names the first
// impairment found.
func (s *Server) Degraded() (bool, string) {
	if s.opts.Cache.BreakerState() == memo.BreakerOpen {
		return true, "cache disk breaker open"
	}
	if s.queueLimit >= 0 && s.jobsQueued.Load() >= int64(s.queueLimit) {
		return true, "job queue saturated"
	}
	return false, ""
}

// handleHealthz answers "ok" when healthy and "degraded: <reason>"
// when up but impaired — still 200 in both cases: degraded is a
// quality signal for operators and load balancers, not liveness
// failure (the server is serving, just without its full machinery).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if degraded, reason := s.Degraded(); degraded {
		_, _ = w.Write([]byte("degraded: " + reason + "\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the server's counters (the /statsz payload).
func (s *Server) Stats() Stats {
	var st Stats
	st.Jobs.Submitted = s.jobsSubmitted.Load()
	st.Jobs.Done = s.jobsDone.Load()
	st.Jobs.Failed = s.jobsFailed.Load()
	st.Jobs.Aborted = s.jobsAborted.Load()
	st.Jobs.Queued = uint64(s.jobsQueued.Load())
	st.Jobs.Running = uint64(s.jobsRunning.Load())
	s.mu.Lock()
	st.Jobs.Retained = len(s.jobs)
	s.mu.Unlock()
	st.Jobs.RetainLimit = retainSettled
	st.HTTPRequests = s.httpRequests.Load()
	cs := s.opts.Cache.Stats()
	st.Cache = &cs
	st.Faults = FaultStats{
		Retries:      s.faultRetries.Load(),
		Recovered:    s.faultRecov.Load(),
		DegradedJobs: s.degradedJobs.Load(),
	}
	st.Draining = s.draining.Load()
	st.Shed = s.jobsShed.Load()
	st.DeadlineExceeded = s.deadlineExceeded.Load()
	st.QueueDepth = int(st.Jobs.Queued)
	st.QueueLimit = s.queueLimit
	st.Breaker = string(s.opts.Cache.BreakerState())
	st.Degraded, _ = s.Degraded()
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining: not accepting new jobs")
		return
	}
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed_json",
			"request body is not a valid job request: "+err.Error())
		return
	}
	if err := req.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	q := r.URL.Query()
	wait, ok := parseWait(w, q)
	if !ok {
		return
	}
	timeout := s.opts.DefaultJobTimeout
	if toStr := q.Get("timeout"); toStr != "" {
		d, err := time.ParseDuration(toStr)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "invalid_request",
				"timeout must be a positive duration, got "+toStr)
			return
		}
		timeout = d
	}
	key, err := normalizedKey(&req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding_failed", err.Error())
		return
	}
	var st JobStatus
	j, fast := s.submitFast(r.Context(), req, key)
	if fast {
		st = s.status(j)
	} else {
		// Admission control guards the pooled path only: the fast path
		// settles synchronously and adds no backlog, so shedding it
		// would refuse work the server can answer for free.
		if !s.reserveQueueSlot() {
			s.jobsShed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("accept queue is full (%d jobs queued); retry later", s.queueLimit))
			return
		}
		j, st = s.startPooled(req, key, timeout)
	}
	if wait > 0 && !st.State.Terminal() {
		await(r, j, wait)
		st = s.status(j)
	}
	if wantResult(q) {
		attachResult(j, &st)
	}
	writeStatus(w, http.StatusAccepted, st)
}

// keyScratch is the warm fast path's pooled key-building state: one
// KeyBuilder plus a JSON encoder permanently bound to a reused buffer.
// Encoding through the bound encoder (with a pointer receiver, so the
// request is not boxed) re-renders the canonical JSON without
// allocating once the buffer has grown to fit.
type keyScratch struct {
	kb  *memo.KeyBuilder
	buf bytes.Buffer
	enc *json.Encoder
}

var keyPool = sync.Pool{New: func() any {
	ks := &keyScratch{kb: memo.NewKeyBuilder(jobKeySchema)}
	ks.enc = json.NewEncoder(&ks.buf)
	return ks
}}

// normalizedKey is JobKey for an already-normalised request, built on
// pooled scratch: in steady state it allocates nothing. Encode emits
// exactly json.Marshal's bytes plus one trailing newline, which is
// trimmed before framing, so the digest is that of the request's
// canonical JSON (TestJobKeyDigestsPinned holds it fixed).
func normalizedKey(req *JobRequest) (memo.Key, error) {
	ks := keyPool.Get().(*keyScratch)
	defer keyPool.Put(ks)
	ks.buf.Reset()
	if err := ks.enc.Encode(req); err != nil {
		return memo.Key{}, err
	}
	b := ks.buf.Bytes()
	ks.kb.Reset(jobKeySchema)
	ks.kb.FieldBytes("request", b[:len(b)-1])
	return ks.kb.Key(), nil
}

// closedCh is the shared pre-closed done channel of jobs born terminal.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func noopCancel() {}

// submitFast settles a normalised job synchronously when no engine
// work is needed: a warm job-cache hit is served straight from memory,
// and an analytic-tier predict is answered in closed form from the
// catalog parameters. key, the request's job key, serves both the warm
// lookup and the cached compute. The job still gets an id and serves
// its result like any pooled job while it stays in the retention
// window — it is simply born terminal, so the submit response is
// already final and clients can skip the poll loop entirely.
func (s *Server) submitFast(ctx context.Context, req JobRequest, key memo.Key) (*job, bool) {
	if payload, hit := s.opts.Cache.Lookup(key); hit {
		return s.settleFast(req.Kind, payload, nil), true
	}
	if req.Kind != KindPredict || req.Params.Tier != "analytic" {
		return nil, false
	}
	// Analytic predictions are pure catalog arithmetic; run them inline
	// through the cache so duplicates share one payload. The caller's
	// ctx scopes the inline work: a client that disconnects mid-submit
	// stops paying for its own prediction.
	payload, _, err := executeKeyed(ctx, s.opts.Cache, req, key, hooks{})
	return s.settleFast(req.Kind, payload, err), true
}

// settleFast records a job born terminal: done with payload, or failed
// with err. It never runs, so it keeps no request.
func (s *Server) settleFast(kind JobKind, payload []byte, err error) *job {
	seq := s.nextID.Add(1)
	j := &job{
		id: "job-" + strconv.FormatUint(seq, 10), seq: seq, kind: kind,
		cancel: noopCancel, doneCh: closedCh,
	}
	if err == nil {
		j.state = StateDone
		j.result = payload
		s.jobsDone.Add(1)
	} else {
		j.state = StateFailed
		j.errMsg = err.Error()
		s.jobsFailed.Add(1)
	}
	s.mu.Lock()
	s.jobs[seq] = j
	s.retainLocked(seq)
	s.mu.Unlock()
	s.jobsSubmitted.Add(1)
	return j
}

// retainLocked enters a settled job into the settled ring, evicting the
// oldest settled job once the ring is full. The caller holds s.mu.
func (s *Server) retainLocked(seq uint64) {
	if old := s.settled[s.settledNext]; old != 0 {
		delete(s.jobs, old)
	}
	s.settled[s.settledNext] = seq
	s.settledNext = (s.settledNext + 1) % retainSettled
}

// reserveQueueSlot claims one accept-queue slot, failing when the
// queue is at its bound. The CAS loop keeps the bound exact under
// concurrent submissions.
func (s *Server) reserveQueueSlot() bool {
	if s.queueLimit < 0 {
		s.jobsQueued.Add(1)
		return true
	}
	for {
		d := s.jobsQueued.Load()
		if d >= int64(s.queueLimit) {
			return false
		}
		if s.jobsQueued.CompareAndSwap(d, d+1) {
			return true
		}
	}
}

// startPooled creates a pooled job whose accept-queue slot is already
// reserved (counted in jobsQueued), applying the given deadline (0:
// none) to its whole lifetime — queue wait included, so a saturated
// pool cannot park a deadlined job forever. It returns the job and its
// queued status.
func (s *Server) startPooled(req JobRequest, key memo.Key, timeout time.Duration) (*job, JobStatus) {
	seq := s.nextID.Add(1)
	// A pooled job deliberately outlives the submitting request: the
	// client may disconnect and poll for the result later, so the job
	// context detaches from the request and is bounded by the job
	// deadline instead.
	//lint:ignore ctxflow pooled jobs are detached workers by design; their lifetime is bounded by the job deadline, not the submitting request
	base := context.Background()
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(base, timeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	j := &job{
		id: "job-" + strconv.FormatUint(seq, 10), seq: seq,
		kind: req.Kind, req: req, key: key,
		cancel: cancel, doneCh: make(chan struct{}),
		state: StateQueued,
	}
	// In flight, the job sits in the table outside the settled ring,
	// so no number of later settles can evict it.
	s.mu.Lock()
	s.jobs[seq] = j
	s.mu.Unlock()
	s.jobsSubmitted.Add(1)
	s.jobWG.Add(1)
	go s.run(ctx, j)
	return j, JobStatus{ID: j.id, Kind: j.kind, State: StateQueued}
}

// run executes one job on the bounded pool and settles its terminal
// state.
func (s *Server) run(ctx context.Context, j *job) {
	defer s.jobWG.Done()
	defer close(j.doneCh)
	defer j.cancel() // release the deadline timer once settled
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.finish(j, nil, nil, ctx.Err())
		return
	}
	if ctx.Err() != nil {
		s.finish(j, nil, nil, ctx.Err())
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	s.jobsQueued.Add(-1)
	s.jobsRunning.Add(1)
	j.mu.Unlock()
	payload, report, err := executeKeyed(ctx, s.opts.Cache, j.req, j.key, hooks{
		progress: func(done, total int) {
			j.mu.Lock()
			j.progress = Progress{Done: done, Total: total}
			j.mu.Unlock()
		},
	})
	s.finish(j, payload, report, err)
}

// finish settles a job's terminal state, folds its resilience
// accounting into the server counters and enters it into the settled
// ring.
func (s *Server) finish(j *job, payload []byte, report *core.CheckReport, err error) {
	deadlined := err != nil && errors.Is(err, context.DeadlineExceeded)
	degraded := report != nil && report.Degraded()
	j.mu.Lock()
	// The queued/running gauges move with the state they count, under
	// the same lock.
	if j.state == StateRunning {
		s.jobsRunning.Add(-1)
	} else {
		s.jobsQueued.Add(-1)
	}
	// Each terminal state charges its counter in the arm that sets it,
	// so the state a poller observes and the counter /statsz reports
	// can never drift apart. The counters are atomics: bumping them
	// under j.mu blocks nobody. The degraded flag is published with the
	// done state, so no poll sees a degraded job as a clean done.
	switch {
	case err == nil:
		j.state = StateDone
		j.result = payload
		j.degraded = degraded
		s.jobsDone.Add(1)
		if degraded {
			s.degradedJobs.Add(1)
		}
	case deadlined:
		j.state = StateAborted
		j.errMsg = "job deadline exceeded"
		s.jobsAborted.Add(1)
		s.deadlineExceeded.Add(1)
	case errors.Is(err, context.Canceled):
		j.state = StateAborted
		j.errMsg = "job aborted"
		s.jobsAborted.Add(1)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.jobsFailed.Add(1)
	}
	j.mu.Unlock()
	if report != nil {
		s.faultRetries.Add(report.Retries)
		s.faultRecov.Add(report.Recovered)
	}
	s.mu.Lock()
	s.retainLocked(j.seq)
	s.mu.Unlock()
}

// parseJobID returns the seq of an id in the canonical "job-N" form.
func parseJobID(id string) (uint64, bool) {
	digits, ok := strings.CutPrefix(id, "job-")
	if !ok || digits == "" || digits[0] == '0' {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	return seq, err == nil
}

// parseWait reads a request's optional ?wait= long-poll bound, capped
// at maxWait. A malformed value answers 400 invalid_request.
func parseWait(w http.ResponseWriter, q url.Values) (time.Duration, bool) {
	v := q.Get("wait")
	if v == "" {
		return 0, true
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		writeError(w, http.StatusBadRequest, "invalid_request",
			"wait must be a non-negative duration, got "+v)
		return 0, false
	}
	return min(d, maxWait), true
}

// await blocks until the job settles, wait elapses or the request is
// cancelled. A zero wait returns at once.
func await(r *http.Request, j *job, wait time.Duration) {
	if wait <= 0 {
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-j.doneCh:
	case <-timer.C:
	case <-r.Context().Done():
	}
}

// lookupHTTP resolves the request's {id}. An id this server issued but
// no longer retains answers 410 expired; any other unknown id answers
// 404 unknown_job.
func (s *Server) lookupHTTP(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	if seq, ok := parseJobID(id); ok {
		s.mu.Lock()
		j := s.jobs[seq]
		s.mu.Unlock()
		if j != nil {
			return j, true
		}
		if seq <= s.nextID.Load() {
			writeError(w, http.StatusGone, "expired",
				fmt.Sprintf("job %s settled and left the window of the last %d settled jobs; resubmit the request", id, retainSettled))
			return nil, false
		}
	}
	writeError(w, http.StatusNotFound, "unknown_job", "no job "+id)
	return nil, false
}

func (s *Server) status(j *job) JobStatus {
	j.mu.Lock()
	st := JobStatus{ID: j.id, Kind: j.kind, State: j.state, Error: j.errMsg, Degraded: j.degraded}
	if j.progress.Total > 0 {
		p := j.progress
		st.Progress = &p
	}
	j.mu.Unlock()
	return st
}

// retained returns every job in the table in submission order.
func (s *Server) retained() []*job {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	slices.SortFunc(js, func(a, b *job) int { return cmp.Compare(a.seq, b.seq) })
	return js
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	js := s.retained()
	out := make([]JobStatus, len(js))
	for i, j := range js {
		out[i] = s.status(j)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: out})
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupHTTP(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	wait, ok := parseWait(w, q)
	if !ok {
		return
	}
	await(r, j, wait)
	st := s.status(j)
	if wantResult(q) {
		attachResult(j, &st)
	}
	writeStatus(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupHTTP(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	state, errMsg, result := j.state, j.errMsg, j.result
	j.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(result)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(result)
	case StateFailed:
		writeError(w, http.StatusConflict, "job_failed", errMsg)
	case StateAborted:
		writeError(w, http.StatusConflict, "job_aborted", "job was aborted")
	default:
		writeError(w, http.StatusConflict, "not_finished",
			fmt.Sprintf("job is %s; poll until done", state))
	}
}

func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupHTTP(w, r)
	if !ok {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, s.status(j))
}

// StartDraining flips the server into drain mode: new submissions are
// refused with 503 while queued and running jobs continue to
// completion.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Drain blocks until every in-flight job has settled or ctx expires.
// Call StartDraining first so the in-flight set cannot grow.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// AbortAll cancels every non-terminal job — the forced-shutdown path
// when a drain deadline expires. In-flight jobs are never evicted, so
// the table holds all of them.
func (s *Server) AbortAll() {
	for _, j := range s.retained() {
		j.cancel()
	}
}
