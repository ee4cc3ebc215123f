package peer

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"additivity/internal/memo"
)

// blobServer is an httptest peer serving a fixed digest→payload map in
// the entry wire framing, counting requests.
func blobServer(t *testing.T, entries map[string][]byte) (*httptest.Server, *atomic.Uint64) {
	t.Helper()
	var hits atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		digest := strings.TrimPrefix(r.URL.Path, "/v1/peer/blob/")
		payload, ok := entries[digest]
		if !ok {
			http.Error(w, "unknown blob", http.StatusNotFound)
			return
		}
		w.Write(memo.EncodeEntry(payload))
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func TestFetchServesVerifiedEntry(t *testing.T) {
	key := memo.KeyOf("peer-fetch-hit")
	want := []byte("measured payload bytes")
	ts, _ := blobServer(t, map[string][]byte{key.Hex(): want})
	c, err := NewClient([]string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Fetch(key)
	if !ok || string(got) != string(want) {
		t.Fatalf("Fetch = %q, %v; want payload, true", got, ok)
	}
	st := c.PeerStats()
	if st.FetchErrors != 0 || st.HedgesWon != 0 || st.BreakerTrips != 0 {
		t.Fatalf("clean fetch moved health counters: %+v", st)
	}
}

func TestFetchMissOn404(t *testing.T) {
	ts, _ := blobServer(t, nil)
	c, err := NewClient([]string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Fetch(memo.KeyOf("absent")); ok {
		t.Fatal("Fetch reported a hit for an entry no peer holds")
	}
	// 404 is neutral: not an error, no breaker movement.
	st := c.PeerStats()
	if st.FetchErrors != 0 || st.BreakerTrips != 0 {
		t.Fatalf("404 counted as failure: %+v", st)
	}
}

// A peer that answers 404 fails over to the next peer, which serves
// the entry; the failover is not counted as a hedge win.
func TestFetchFailsOverPast404(t *testing.T) {
	key := memo.KeyOf("failover-after-404")
	want := []byte("payload on the second peer")
	empty, _ := blobServer(t, nil)
	full, _ := blobServer(t, map[string][]byte{key.Hex(): want})
	// Both orderings: whichever peer startIndex picks first, the entry
	// is found.
	for _, peers := range [][]string{{empty.URL, full.URL}, {full.URL, empty.URL}} {
		c, err := NewClient(peers)
		if err != nil {
			t.Fatal(err)
		}
		c.hedgeDelay = time.Hour // the failover alone must find the entry
		got, ok := c.Fetch(key)
		if !ok || string(got) != string(want) {
			t.Fatalf("Fetch with peers %v = %q, %v", peers, got, ok)
		}
		if st := c.PeerStats(); st.HedgesWon != 0 {
			t.Fatalf("failover counted as hedge win: %+v", st)
		}
	}
}

// A slow first-choice peer is hedged: the backup peer answers first
// and the win is counted.
func TestFetchHedgesSlowPeer(t *testing.T) {
	// startIndex depends only on the digest and the peer count, so
	// probe for a key whose first choice is peer 0 — the slow one.
	probe, err := NewClient([]string{"http://a:1", "http://b:2"})
	if err != nil {
		t.Fatal(err)
	}
	var key memo.Key
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("no key selected peer 0 first")
		}
		k := memo.KeyOf(fmt.Sprintf("hedge-the-slow-peer-%d", i))
		if probe.startIndex(k) == 0 {
			key = k
			break
		}
	}
	want := []byte("payload from the fast peer")
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hold until the hedge wins and cancels us
		http.Error(w, "too late", http.StatusNotFound)
	}))
	defer slow.Close()
	fast, _ := blobServer(t, map[string][]byte{key.Hex(): want})
	c, err := NewClient([]string{slow.URL, fast.URL})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Fetch(key)
	if !ok || string(got) != string(want) {
		t.Fatalf("hedged Fetch = %q, %v", got, ok)
	}
	if st := c.PeerStats(); st.HedgesWon != 1 {
		t.Fatalf("hedge win not counted: %+v", st)
	}
}

// Malformed and digest-mismatched bodies are rejected, counted, and
// reported as misses — never returned as payloads.
func TestFetchRejectsCorruptBlobs(t *testing.T) {
	key := memo.KeyOf("corrupt-blob")
	bodies := []struct {
		name string
		body []byte
	}{
		{"garbage", []byte("not an entry at all")},
		{"wrong-magic", []byte("memo9 " + strings.Repeat("0", 64) + " 3\nabc")},
		{"digest-mismatch", append(memo.EncodeEntry([]byte("abc"))[:len(memo.EncodeEntry([]byte("abc")))-1], 'X')},
		{"truncated", memo.EncodeEntry([]byte("a longer payload"))[:20]},
	}
	for _, tc := range bodies {
		name, body := tc.name, tc.body
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(body)
			}))
			defer ts.Close()
			c, err := NewClient([]string{ts.URL})
			if err != nil {
				t.Fatal(err)
			}
			if payload, ok := c.Fetch(key); ok {
				t.Fatalf("corrupt blob served as payload %q", payload)
			}
			if st := c.PeerStats(); st.FetchErrors == 0 {
				t.Fatalf("corrupt blob not counted: %+v", st)
			}
		})
	}
}

// Enough consecutive failures trip a peer's breaker; further fetches
// skip it (no new requests) until the cooldown probe.
func TestFetchBreakerSkipsDeadPeer(t *testing.T) {
	var hits atomic.Uint64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()
	c, err := NewClient([]string{dead.URL})
	if err != nil {
		t.Fatal(err)
	}
	key := memo.KeyOf("dead-peer")
	for i := 0; i < 8; i++ {
		if _, ok := c.Fetch(key); ok {
			t.Fatal("dead peer produced a hit")
		}
	}
	st := c.PeerStats()
	if st.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d; want 1 (%+v)", st.BreakerTrips, st)
	}
	tripped := hits.Load()
	if tripped == 0 || tripped >= 8 {
		t.Fatalf("hits before skip = %d; want >0 and <8", tripped)
	}
	for i := 0; i < 4; i++ {
		c.Fetch(key)
	}
	if hits.Load() != tripped {
		t.Fatalf("open breaker still sent requests: %d -> %d", tripped, hits.Load())
	}
}

// With every breaker open the fetch is an immediate miss.
func TestFetchAllBreakersOpen(t *testing.T) {
	c, err := NewClient([]string{"http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	key := memo.KeyOf("unreachable")
	for i := 0; i < 6; i++ {
		c.Fetch(key)
	}
	if st := c.PeerStats(); st.BreakerTrips != 1 || st.FetchErrors < 5 {
		t.Fatalf("unreachable peer stats: %+v", st)
	}
	if _, ok := c.Fetch(key); ok {
		t.Fatal("hit with all breakers open")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(nil); err == nil {
		t.Fatal("NewClient with no peers succeeded")
	}
	if _, err := NewClient([]string{" ", ""}); err == nil {
		t.Fatal("NewClient with blank peers succeeded")
	}
	c, err := NewClient([]string{"http://a:1/", "b:2"})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPeers() != 2 {
		t.Fatalf("NumPeers = %d", c.NumPeers())
	}
	if c.remotes[0].base != "http://a:1" || c.remotes[1].base != "http://b:2" {
		t.Fatalf("normalised bases: %q, %q", c.remotes[0].base, c.remotes[1].base)
	}
}

func TestFetchZeroKey(t *testing.T) {
	ts, hits := blobServer(t, nil)
	c, err := NewClient([]string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Fetch(memo.Key{}); ok {
		t.Fatal("zero key produced a hit")
	}
	if hits.Load() != 0 {
		t.Fatal("zero key reached the wire")
	}
}

func TestParseBlobSizeCap(t *testing.T) {
	raw := memo.EncodeEntry([]byte("payload"))
	if _, err := ParseBlob(raw, int64(len(raw))); err != nil {
		t.Fatalf("within-cap blob rejected: %v", err)
	}
	_, err := ParseBlob(raw, int64(len(raw))-1)
	if !errors.Is(err, ErrBlobTooLarge) {
		t.Fatalf("over-cap blob error = %v; want ErrBlobTooLarge", err)
	}
	if _, err := ParseBlob([]byte("junk"), 0); !errors.Is(err, memo.ErrCorruptEntry) {
		t.Fatalf("junk blob error = %v; want ErrCorruptEntry", err)
	}
}

// startIndex is deterministic and in range for any peer count.
func TestStartIndexStable(t *testing.T) {
	c, err := NewClient([]string{"http://a:1", "http://b:2", "http://c:3"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		k := memo.KeyOf("spread-" + string(rune('a'+i)))
		idx := c.startIndex(k)
		if idx != c.startIndex(k) {
			t.Fatal("startIndex not deterministic")
		}
		if idx < 0 || idx >= 3 {
			t.Fatalf("startIndex out of range: %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Fatalf("64 digests landed on only %d of 3 peers", len(seen))
	}
}
