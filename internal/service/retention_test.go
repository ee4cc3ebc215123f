package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// httpAnswer sends one request and returns its status code and body.
func httpAnswer(t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// wantAnswerOnEveryEndpoint asserts that poll, result and DELETE all
// answer id with the given HTTP status and error code.
func wantAnswerOnEveryEndpoint(t *testing.T, ts *httptest.Server, id string, status int, code string) {
	t.Helper()
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + id},
		{http.MethodGet, "/v1/jobs/" + id + "/result"},
		{http.MethodDelete, "/v1/jobs/" + id},
	} {
		got, data := httpAnswer(t, c.method, ts.URL+c.path)
		if got != status {
			t.Errorf("%s %s = HTTP %d %s, want %d", c.method, c.path, got, data, status)
			continue
		}
		if gotCode := decodeErrorBody(t, data); gotCode != code {
			t.Errorf("%s %s error code = %q, want %q", c.method, c.path, gotCode, code)
		}
	}
}

// serve sends one request straight through srv.ServeHTTP, skipping the
// network, and returns the recorded response.
func serve(srv *Server, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// settleFast submits one analytic predict through srv.ServeHTTP (a
// warm hit after the first) and returns its id, or an error when the
// submit does not come back done. It is safe to call from any
// goroutine.
func settleFast(srv *Server) (string, error) {
	rec := serve(srv, http.MethodPost, "/v1/jobs", `{"kind":"predict"}`)
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusAccepted || st.State != StateDone {
		return "", fmt.Errorf("fast submit = HTTP %d %s, want 202 done", rec.Code, rec.Body.Bytes())
	}
	return st.ID, nil
}

// settleFastJobs settles n jobs on the fast path and returns their ids.
func settleFastJobs(t *testing.T, srv *Server, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		id, err := settleFast(srv)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	return ids
}

// TestSettledJobsExpireBeyondRetention holds the retention contract on
// the HTTP surface: once retainSettled more jobs have settled after it,
// a fast-path job's id answers 410 expired on poll, result and DELETE,
// the next id is still served, and an id never issued stays 404.
func TestSettledJobsExpireBeyondRetention(t *testing.T) {
	srv, ts := newTestServer(t)
	first := submit(t, ts, `{"kind":"predict"}`)
	if first.State != StateDone {
		t.Fatalf("first submit = %+v, want done", first)
	}
	later := settleFastJobs(t, srv, retainSettled)

	wantAnswerOnEveryEndpoint(t, ts, first.ID, http.StatusGone, "expired")
	for _, id := range []string{"job-999999999", "job-0", "job-01", "job-", "nope"} {
		wantAnswerOnEveryEndpoint(t, ts, id, http.StatusNotFound, "unknown_job")
	}
	if code, data := httpAnswer(t, http.MethodGet, ts.URL+"/v1/jobs/"+later[0]+"/result"); code != http.StatusOK {
		t.Errorf("oldest retained job's result = HTTP %d %s, want 200", code, data)
	}

	st := getStats(t, ts)
	if st.Jobs.Retained != retainSettled || st.Jobs.RetainLimit != retainSettled {
		t.Errorf("statsz jobs.retained = %d, retain_limit = %d; want both %d",
			st.Jobs.Retained, st.Jobs.RetainLimit, retainSettled)
	}
	if st.Jobs.Submitted != retainSettled+1 || st.Jobs.Done != retainSettled+1 {
		t.Errorf("statsz counters = %+v, want %d submitted and done", st.Jobs, retainSettled+1)
	}
}

// TestInFlightJobOutlivesRetention holds a pooled check in flight (its
// only pool slot is taken) while more than retainSettled fast jobs
// settle around it: it must stay pollable and counted, /v1/jobs must
// list the retained jobs in submission order, and once released it
// completes and then ages out like any settled job.
func TestInFlightJobOutlivesRetention(t *testing.T) {
	srv, ts := newTestServer(t)
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	release := sync.OnceFunc(func() {
		for i := 0; i < cap(srv.sem); i++ {
			<-srv.sem
		}
	})
	t.Cleanup(release)
	slow := submit(t, ts, `{"kind":"check","params":{"compounds":2,"reps":2,"seed":4242}}`)
	fast := settleFastJobs(t, srv, retainSettled+1)

	if code, data := httpAnswer(t, http.MethodGet, ts.URL+"/v1/jobs/"+slow.ID); code != http.StatusOK ||
		decodeStatus(t, bytes.NewReader(data)).State != StateQueued {
		t.Fatalf("in-flight check poll = HTTP %d %s, want 200 queued", code, data)
	}
	wantAnswerOnEveryEndpoint(t, ts, fast[0], http.StatusGone, "expired")
	st := getStats(t, ts)
	if st.Jobs.Queued != 1 || st.Jobs.Running != 0 || st.Jobs.Retained != retainSettled+1 {
		t.Errorf("statsz while held = %+v, want 1 queued, 0 running, %d retained", st.Jobs, retainSettled+1)
	}

	want := append([]string{slow.ID}, fast[1:]...)
	assertListed(t, ts, want)

	release()
	if done := pollUntilTerminal(t, ts, slow.ID); done.State != StateDone {
		t.Fatalf("released check = %s: %s", done.State, done.Error)
	}
	// Settling entered the check into the ring and evicted the oldest
	// fast job; the list keeps submission order, not settle order.
	assertListed(t, ts, append([]string{slow.ID}, fast[2:]...))
	st = getStats(t, ts)
	if st.Jobs.Queued != 0 || st.Jobs.Running != 0 || st.Jobs.Retained != retainSettled {
		t.Errorf("statsz after settle = %+v, want 0 queued, 0 running, %d retained", st.Jobs, retainSettled)
	}
	settleFastJobs(t, srv, retainSettled)
	wantAnswerOnEveryEndpoint(t, ts, slow.ID, http.StatusGone, "expired")
}

// assertListed checks GET /v1/jobs returns exactly the given ids, in
// order.
func assertListed(t *testing.T, ts *httptest.Server, want []string) {
	t.Helper()
	code, data := httpAnswer(t, http.MethodGet, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list = HTTP %d", code)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != len(want) {
		t.Fatalf("list has %d jobs, want %d", len(list.Jobs), len(want))
	}
	for i, st := range list.Jobs {
		if st.ID != want[i] {
			t.Fatalf("list[%d] = %s, want %s (submission order)", i, st.ID, want[i])
		}
	}
}

// TestConcurrentSettlesKeepTheBound settles jobs from several
// goroutines at once while another reads /statsz and the job list: the
// table must never exceed the bound and must end holding exactly
// retainSettled jobs, with every other issued id expired. (Ids are
// issued before their job enters the ring, so under concurrency the
// ring's order is settle order, not id order.)
func TestConcurrentSettlesKeepTheBound(t *testing.T) {
	srv := NewServer(Options{})
	const workers, each = 4, retainSettled / 2
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := srv.Stats().Jobs.Retained; n > retainSettled {
				t.Errorf("job table holds %d jobs, above the bound %d", n, retainSettled)
				return
			}
			srv.retained()
		}
	}()
	var settlers sync.WaitGroup
	for w := 0; w < workers; w++ {
		settlers.Add(1)
		go func() {
			defer settlers.Done()
			for i := 0; i < each; i++ {
				if _, err := settleFast(srv); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	settlers.Wait()
	close(stop)
	wg.Wait()

	const total = workers * each
	if got := srv.Stats().Jobs.Retained; got != retainSettled {
		t.Fatalf("job table holds %d jobs after %d settles, want %d", got, total, retainSettled)
	}
	expired := 0
	for seq := 1; seq <= total; seq++ {
		switch rec := serve(srv, http.MethodGet, fmt.Sprintf("/v1/jobs/job-%d", seq), ""); rec.Code {
		case http.StatusGone:
			expired++
		case http.StatusOK:
		default:
			t.Fatalf("job-%d: poll = HTTP %d %s, want 200 or 410", seq, rec.Code, rec.Body.Bytes())
		}
	}
	if expired != total-retainSettled {
		t.Errorf("%d of %d ids expired, want %d", expired, total, total-retainSettled)
	}
}
