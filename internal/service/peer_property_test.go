package service_test

import (
	"bytes"
	"crypto/sha256"
	"net/http/httptest"
	"sync"
	"testing"

	"additivity/internal/loadgen"
	"additivity/internal/memo"
	"additivity/internal/memo/peer"
	"additivity/internal/service"
)

// combinedDigest folds per-result sha256s in trace order, exactly the
// way additivity-load's -digest flag does.
func combinedDigest(results [][]byte) [32]byte {
	combined := sha256.New()
	for _, r := range results {
		sum := sha256.Sum256(r)
		combined.Write(sum[:])
	}
	var out [32]byte
	copy(out[:], combined.Sum(nil))
	return out
}

// The peer tier must be invisible in result bytes: any mix of
// peer-served and locally-measured entries yields byte-identical job
// payloads — and the identical combined digest — versus a
// single-replica baseline, at any player count. A replica A is warmed
// with half the trace's distinct identities; replica B, with A as its
// only peer and no shared storage, replays the full trace and must
// record both peer hits (A's half) and local measurements (the rest).
func TestPeerServedResultsIdenticalToBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a trace across a two-replica peer topology")
	}
	trace, err := loadgen.GenerateTrace(loadgen.GenConfig{
		Jobs: 24, Distinct: 6, Seed: 11, Skewed: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Single-replica baseline: the truth every topology must reproduce.
	baseline := replayTrace(t, trace, 4)
	baseDigest := combinedDigest(baseline)

	// Split the trace's distinct identities: A is warmed with the jobs
	// of the first half only.
	var order []string
	seen := map[string]bool{}
	for _, req := range trace.Jobs {
		key, err := service.CanonicalRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[key] {
			seen[key] = true
			order = append(order, key)
		}
	}
	if len(order) < 2 {
		t.Fatalf("trace has %d distinct identities; need at least 2 for a mix", len(order))
	}
	warmSet := map[string]bool{}
	for _, key := range order[:len(order)/2] {
		warmSet[key] = true
	}
	warm := *trace
	warm.Jobs = nil
	for _, req := range trace.Jobs {
		key, _ := service.CanonicalRequest(req)
		if warmSet[key] {
			warm.Jobs = append(warm.Jobs, req)
		}
	}

	cacheA, err := memo.New(memo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(service.NewServer(service.Options{Cache: cacheA, MaxConcurrentJobs: 4}))
	defer srvA.Close()
	if _, err := loadgen.Play(loadgen.PlayConfig{BaseURL: srvA.URL, Trace: &warm, Players: 4}); err != nil {
		t.Fatalf("warming replica A: %v", err)
	}

	for _, players := range []int{1, 8} {
		cacheB, err := memo.New(memo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pc, err := peer.NewClient([]string{srvA.URL})
		if err != nil {
			t.Fatal(err)
		}
		cacheB.SetPeers(pc)
		srvB := httptest.NewServer(service.NewServer(service.Options{Cache: cacheB, MaxConcurrentJobs: players}))

		results := make([][]byte, len(trace.Jobs))
		var mu sync.Mutex
		report, err := loadgen.Play(loadgen.PlayConfig{
			BaseURL: srvB.URL,
			Trace:   trace,
			Players: players,
			OnResult: func(index int, result []byte) {
				mu.Lock()
				results[index] = append([]byte(nil), result...)
				mu.Unlock()
			},
		})
		srvB.Close()
		if err != nil {
			t.Fatal(err)
		}
		if report.Failed != 0 || report.Aborted != 0 {
			t.Fatalf("%d players: %d failed, %d aborted: %v",
				players, report.Failed, report.Aborted, report.Errors)
		}
		for i := range trace.Jobs {
			if results[i] == nil {
				t.Fatalf("%d players: trace position %d has no result", players, i)
			}
			if !bytes.Equal(results[i], baseline[i]) {
				t.Fatalf("%d players: trace position %d differs from the single-replica baseline", players, i)
			}
		}
		if d := combinedDigest(results); d != baseDigest {
			t.Fatalf("%d players: combined digest %x differs from baseline %x", players, d, baseDigest)
		}
		st := cacheB.Stats()
		if st.PeerHits == 0 {
			t.Fatalf("%d players: replica B recorded no peer hits: %+v", players, st)
		}
		if st.Misses == 0 {
			t.Fatalf("%d players: replica B measured nothing locally — the mix degenerated: %+v", players, st)
		}
		if st.PeerFetchErrors != 0 {
			t.Fatalf("%d players: peer fetch errors against a healthy peer: %+v", players, st)
		}
	}
}
