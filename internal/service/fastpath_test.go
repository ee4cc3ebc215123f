package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"additivity/internal/memo"
)

// pinnedKeys are JobKey digests of one request of each kind. Job
// entries written to a -cache-dir are stored under these digests, so a
// change to them would turn every entry an earlier daemon wrote into a
// miss. They change only with jobKeySchema.
var pinnedKeys = []struct {
	req JobRequest
	hex string
}{
	{JobRequest{Kind: KindCheck}, "81cf2fc92b24a4bf86973b73f869739f7fb70a9a6baa3cd76ae99daf2f5811cc"},
	{JobRequest{Kind: KindCheck, Params: JobParams{Platform: "skylake", Compounds: 2, Seed: 7}}, "ef8bb458635edab874c6cea4da4bf5098d64a29f33ee0cf757593151af14ed9a"},
	{JobRequest{Kind: KindTrain, Params: JobParams{Model: "rf"}}, "00fd4b55a5473c0c22f4e2f3b3a56d1141b8d72b5aeb335b7284e7495c41e5eb"},
	{JobRequest{Kind: KindDataset, Params: JobParams{SweepLo: 7000, SweepHi: 7500}}, "6c03b305ef89d442910907077ec35cf86e4a1336b41de2821f1a012d26e51882"},
	{JobRequest{Kind: KindPredict}, "9bff4928f5ca1b3b7ba1fe176c18b01efc948c8799d661beae8cc122bfae18de"},
	{JobRequest{Kind: KindPredict, Params: JobParams{Tier: "trained", App: "mkl-fft"}}, "14101a112c137a76346cdfcffbc6fbf42eb6bbc12cf38a7cdc892d6ba535c0e3"},
}

// TestJobKeyDigestsPinned holds the job-key digests fixed, so warm
// submissions keep hitting entries stored by earlier daemons.
func TestJobKeyDigestsPinned(t *testing.T) {
	for _, p := range pinnedKeys {
		key, err := JobKey(p.req)
		if err != nil {
			t.Fatalf("JobKey(%s): %v", p.req.Kind, err)
		}
		if key.Hex() != p.hex {
			t.Errorf("JobKey(%s %+v) = %s, want %s", p.req.Kind, p.req.Params, key.Hex(), p.hex)
		}
	}
}

// TestFastJobKeyScratchReuse keys different requests back to back on
// normalizedKey's pooled scratch: stale buffer or key-builder state
// from a previous request must never leak into the next digest.
func TestFastJobKeyScratchReuse(t *testing.T) {
	long := JobRequest{Kind: KindCheck, Params: JobParams{PMCs: []string{
		"UOPS_EXECUTED_CORE", "FP_ARITH_INST_RETIRED_DOUBLE", "MEM_LOAD_RETIRED_L3_MISS"}}}
	short := pinnedKeys[4] // the default predict
	if err := long.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := short.req.Normalize(); err != nil {
		t.Fatal(err)
	}
	first, err := normalizedKey(&long)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := normalizedKey(&short.req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Hex() != short.hex {
			t.Fatalf("short key after a long one = %s, want %s", got.Hex(), short.hex)
		}
		if again, err := normalizedKey(&long); err != nil || again != first {
			t.Fatalf("long key after a short one diverged: %v", err)
		}
	}
}

// TestPredictAnalyticSettlesSynchronously submits an analytic predict
// over HTTP: the submit response itself must be terminal (no poll
// loop), the payload must be well-formed, and a duplicate submission
// must serve byte-identical bytes.
func TestPredictAnalyticSettlesSynchronously(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts, `{"kind":"predict"}`)
	if st.State != StateDone {
		t.Fatalf("analytic predict submit state = %s, want done", st.State)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	first, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = HTTP %d: %s", resp.StatusCode, first)
	}
	var pr PredictResult
	if err := json.Unmarshal(first, &pr); err != nil {
		t.Fatalf("payload not a PredictResult: %v", err)
	}
	if pr.Tier != "analytic" || pr.App != "mkl-dgemm/2048" {
		t.Errorf("payload identity = %q/%q", pr.Tier, pr.App)
	}
	if !(pr.DynamicJoules > 0) || !(pr.Seconds > 0) || !(pr.StaticJoules > 0) {
		t.Errorf("non-positive prediction: %+v", pr)
	}

	st2 := submit(t, ts, `{"kind":"predict"}`)
	if st2.State != StateDone || st2.ID == st.ID {
		t.Fatalf("duplicate predict = %+v", st2)
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	second, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(first, second) {
		t.Errorf("duplicate predict payloads differ:\n%s\n%s", first, second)
	}
}

// TestWarmHitIsBornTerminal completes a check job once, then submits
// the identical request again: the duplicate must come back already
// done from the submit call, with byte-identical result bytes.
func TestWarmHitIsBornTerminal(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"kind":"check","params":{"compounds":2}}`
	st := submit(t, ts, body)
	if st.State.Terminal() {
		t.Fatalf("cold check already terminal: %+v", st)
	}
	done := pollUntilTerminal(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("cold check = %s: %s", done.State, done.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	warm := submit(t, ts, body)
	if warm.State != StateDone {
		t.Fatalf("warm duplicate state = %s, want done on submit", warm.State)
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + warm.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(cold, served) {
		t.Error("warm payload differs from cold payload")
	}
}

// TestSubmitWaitReturnsSettledStatus drives POST /v1/jobs?wait=: a
// small cold job submitted with a generous wait must come back already
// settled in the submit response, saving the poll round-trip.
func TestSubmitWaitReturnsSettledStatus(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=25s", "application/json",
		strings.NewReader(`{"kind":"check","params":{"compounds":2,"seed":11}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = HTTP %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp.Body)
	if st.State != StateDone {
		t.Fatalf("submit?wait state = %s, want done", st.State)
	}
}

// TestSubmitInlineResult drives the single-round-trip fast path: with
// ?result=1, a submission that settles done must carry its payload
// inline, byte-identical to the result endpoint's, while submissions
// without the flag keep the old response shape.
func TestSubmitInlineResult(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=25s&result=1", "application/json",
		strings.NewReader(`{"kind":"predict"}`))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if st.State != StateDone {
		t.Fatalf("submit state = %s, want done", st.State)
	}
	if len(st.Result) == 0 {
		t.Fatal("?result=1 submit response carries no inline payload")
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(st.Result, served) {
		t.Errorf("inline payload differs from the result endpoint:\n%s\n%s", st.Result, served)
	}

	// Without the flag the payload stays out of the status JSON.
	plain := submit(t, ts, `{"kind":"predict"}`)
	if len(plain.Result) != 0 {
		t.Errorf("submit without ?result=1 inlined a payload")
	}

	// The poll endpoint honours the same flag.
	resp3, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "?result=1")
	if err != nil {
		t.Fatal(err)
	}
	polled := decodeStatus(t, resp3.Body)
	resp3.Body.Close()
	if !bytes.Equal(polled.Result, served) {
		t.Errorf("poll ?result=1 payload differs from the result endpoint")
	}
}

// TestSubmitInvalidWaitIs400 rejects a malformed wait without creating
// the job.
func TestSubmitInvalidWaitIs400(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=banana", "application/json",
		strings.NewReader(`{"kind":"check"}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit bad wait = HTTP %d", resp.StatusCode)
	}
	if code := decodeErrorBody(t, data); code != "invalid_request" {
		t.Errorf("code = %s", code)
	}
	if n := srv.Stats().Jobs.Submitted; n != 0 {
		t.Errorf("bad-wait submit created %d jobs", n)
	}
}

// TestPredictTrainedDeterministic runs the trained tier twice through
// Execute: the payload must be a pure function of the normalised
// request, byte for byte, like every other kind.
func TestPredictTrainedDeterministic(t *testing.T) {
	cache, err := memo.New(memo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Kind: KindPredict, Params: JobParams{
		Tier: "trained", Compounds: 2,
		PMCs: []string{"UOPS_EXECUTED_CORE", "FP_ARITH_INST_RETIRED_DOUBLE", "MEM_LOAD_RETIRED_L3_MISS", "MEM_INST_RETIRED_ALL_LOADS"},
	}}
	first, _, err := Execute(context.Background(), cache, req)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := Execute(context.Background(), cache, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("trained predict payloads differ:\n%s\n%s", first, second)
	}
	var pr PredictResult
	if err := json.Unmarshal(first, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Tier != "trained" || len(pr.Selected) == 0 || !(pr.DynamicJoules > 0) {
		t.Errorf("trained payload = %+v", pr)
	}
}

// TestWarmLookupZeroAllocs is the hot-path allocation budget: once the
// pooled scratch is warm, keying a normalised request and serving its
// cache hit must not allocate at all. This is the regression gate for
// the zero-alloc steady state recorded in BENCH_PR7.
func TestWarmLookupZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	cache, err := memo.New(memo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{Cache: cache})
	// Prime the cache through the ordinary submit path.
	if _, err := settleFast(srv); err != nil {
		t.Fatalf("prime: %v", err)
	}
	req := JobRequest{Kind: KindPredict}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	lookup := func() bool {
		key, err := normalizedKey(&req)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := cache.Lookup(key)
		return ok
	}
	// Warm the pool and verify the entry is servable.
	if !lookup() {
		t.Fatal("primed entry not visible to the warm lookup")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !lookup() {
			t.Fatal("warm lookup missed mid-benchmark")
		}
	})
	if allocs != 0 {
		t.Errorf("warm cache-hit lookup allocates %.1f/op, budget 0", allocs)
	}
}

// discardWriter is a ResponseWriter that drops the body, so a handler
// allocation count carries nothing of the recorder's own.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// rewindBody is a request body that replays without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// handlerAllocs measures the allocations of one whole single-round-trip
// submit, POST /v1/jobs?wait=30s&result=1 through Server.ServeHTTP,
// averaged over runs calls. body(i) is the request body of call i; the
// warm-up calls first fill the job table past its retention bound, so
// the count is the steady state of a long-running daemon.
func handlerAllocs(t *testing.T, runs int, body func(i int) []byte) float64 {
	t.Helper()
	cache, err := memo.New(memo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{Cache: cache})
	rb := &rewindBody{}
	req, err := http.NewRequest(http.MethodPost, "/v1/jobs?wait=30s&result=1", rb)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	i := 0
	call := func() {
		rb.Reset(body(i))
		i++
		clear(w.h)
		srv.ServeHTTP(w, req)
	}
	for i < retainSettled+1 {
		call()
	}
	allocs := testing.AllocsPerRun(runs, call)
	st := srv.Stats()
	if st.Jobs.Done != uint64(i) || st.Jobs.Failed != 0 {
		t.Fatalf("%d submits settled %d done, %d failed", i, st.Jobs.Done, st.Jobs.Failed)
	}
	if st.Jobs.Retained != retainSettled {
		t.Fatalf("job table holds %d jobs, want the retention bound %d", st.Jobs.Retained, retainSettled)
	}
	return allocs
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSubmitHandlerAllocBudgets bounds the allocations of the whole
// submit handler on its three fast-path shapes: a warm check hit, a
// warm analytic-predict hit, and a fresh analytic predict answered in
// closed form. TestWarmLookupZeroAllocs covers only the cache lookup;
// these budgets cover decode, normalise, key, settle, retain and
// encode. Each budget is the count measured when it was set.
func TestSubmitHandlerAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	check := mustMarshal(t, JobRequest{Kind: KindCheck, Params: JobParams{Compounds: 2, Reps: 2}})
	predict := mustMarshal(t, JobRequest{Kind: KindPredict})
	const runs = 500
	fresh := make([][]byte, retainSettled+1+runs+1)
	for i := range fresh {
		fresh[i] = mustMarshal(t, JobRequest{Kind: KindPredict, Params: JobParams{App: "mkl-fft", AppSize: 1000 + i}})
	}
	for _, tc := range []struct {
		name   string
		budget float64
		body   func(i int) []byte
	}{
		{"warm-check", 24, func(int) []byte { return check }},
		{"warm-predict", 25, func(int) []byte { return predict }},
		{"fresh-predict", 39, func(i int) []byte { return fresh[i] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := handlerAllocs(t, runs, tc.body); got > tc.budget {
				t.Errorf("submit allocates %.1f/op, budget %.0f", got, tc.budget)
			}
		})
	}
}
