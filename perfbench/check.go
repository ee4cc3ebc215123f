package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"additivity/internal/service"
)

// reference is a job's expected outcome: its payload, or the error the
// engine reports for it.
type reference struct {
	payload []byte
	err     string
}

// execReference runs a request in-process through service.Execute
// with no cache, so the reference shares no cache layer with the
// daemon it checks.
func execReference(req service.JobRequest) reference {
	payload, _, err := service.Execute(context.Background(), nil, req)
	if err != nil {
		return reference{err: err.Error()}
	}
	return reference{payload: payload}
}

// checker compares every served result with its reference. References
// are computed outside every timed phase: warm-serve's pool before the
// daemon boots, everything else after the replays end.
type checker struct {
	poolRefs []reference

	checked    atomic.Int64
	mismatches atomic.Int64

	mu      sync.Mutex
	pending []servedResult
	first   string // the first mismatch, for the report
}

// servedResult is a done payload waiting for its reference.
type servedResult struct {
	req     service.JobRequest
	payload []byte
}

func newChecker(pool []service.JobRequest) *checker {
	c := &checker{poolRefs: make([]reference, len(pool))}
	parallel(len(pool), func(i int) { c.poolRefs[i] = execReference(pool[i]) })
	return c
}

// served receives one done payload from a replay player.
func (c *checker) served(req service.JobRequest, poolIdx int, payload []byte) {
	if poolIdx < 0 {
		c.mu.Lock()
		c.pending = append(c.pending, servedResult{req, payload})
		c.mu.Unlock()
		return
	}
	c.checked.Add(1)
	if ref := c.poolRefs[poolIdx]; ref.err != "" || !bytes.Equal(payload, ref.payload) {
		c.mismatch(req, "served payload differs from the reference")
	}
}

func (c *checker) mismatch(req service.JobRequest, what string) {
	c.mismatches.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.first == "" {
		canon, _ := service.CanonicalRequest(req)
		c.first = what + ": " + canon
	}
}

// resolve computes the outstanding references and compares the pending
// payloads and the failed jobs against them. It returns how many
// failures the references confirm: jobs that fail by design, with the
// reference's own error.
func (c *checker) resolve(failures []failure) int {
	type item struct {
		req     service.JobRequest
		payload []byte
		failMsg string
		failed  bool
	}
	c.mu.Lock()
	items := make([]item, 0, len(c.pending)+len(failures))
	for _, p := range c.pending {
		items = append(items, item{req: p.req, payload: p.payload})
	}
	c.pending = nil
	c.mu.Unlock()
	for _, f := range failures {
		var req service.JobRequest
		if err := json.Unmarshal(f.req, &req); err != nil || req.Normalize() != nil {
			c.checked.Add(1)
			c.mismatch(req, "failed job with an unreadable request "+string(f.req))
			continue
		}
		items = append(items, item{req: req, failMsg: f.msg, failed: true})
	}

	// One reference per distinct identity.
	index := map[string]int{}
	var uniq []service.JobRequest
	keys := make([]int, len(items))
	for i, it := range items {
		canon, err := service.CanonicalRequest(it.req)
		if err != nil {
			panic(fmt.Sprintf("perfbench: served request does not normalise: %v", err))
		}
		k, ok := index[canon]
		if !ok {
			k = len(uniq)
			index[canon] = k
			uniq = append(uniq, it.req)
		}
		keys[i] = k
	}
	refs := make([]reference, len(uniq))
	parallel(len(uniq), func(i int) { refs[i] = execReference(uniq[i]) })

	confirmed := 0
	for i, it := range items {
		ref := refs[keys[i]]
		c.checked.Add(1)
		switch {
		case it.failed && ref.err != "" && it.failMsg == ref.err:
			confirmed++
		case it.failed:
			c.mismatch(it.req, fmt.Sprintf("job failed with %q, reference %q", it.failMsg, ref.err))
		case ref.err != "":
			c.mismatch(it.req, "job done, reference failed with "+ref.err)
		case !bytes.Equal(it.payload, ref.payload):
			c.mismatch(it.req, "served payload differs from the reference")
		}
	}
	return confirmed
}

// parallel runs f(0..n-1) on one goroutine per player.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < players; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}
