package memo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stageLease writes a lease file for a (possibly fictional) holder
// under k, as if that holder had acquired and heartbeat up to seq.
func stageLease(t *testing.T, dir string, k Key, pid int, owner string, seq uint64) {
	t.Helper()
	body := leaseMagic + " " + strconv.Itoa(pid) + " " + owner + " " + strconv.FormatUint(seq, 10) + "\n"
	if err := os.WriteFile(filepath.Join(dir, k.Hex()+".lease"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// The publish/acquire race: replica A misses the disk, and before it
// acquires the lease, replica B publishes the entry and releases. A's
// acquire then succeeds — but acting on it would recompute a unit the
// fleet already measured. acquireLead must re-probe after the win,
// serve the published entry, and leave no lease behind. (Caught live
// by fleet_check.sh as a nonzero duplicate_stores count.)
func TestAcquireLeadReprobesAfterWin(t *testing.T) {
	dir := t.TempDir()
	a := mustCache(t, Options{Dir: dir})
	b := mustCache(t, Options{Dir: dir})
	k := KeyOf("publish-race-unit")
	want := []byte("published-by-b")

	// B computes, publishes and releases — the state A's tryAcquire
	// observes when it loses the race between disk probe and acquire.
	if _, _, err := b.GetOrCompute(k, func() ([]byte, bool, error) {
		return want, true, nil
	}); err != nil {
		t.Fatal(err)
	}

	payload, published, holding := a.acquireLead(k)
	if !published || holding {
		t.Fatalf("acquireLead = (published=%v, holding=%v), want published without holding", published, holding)
	}
	if !bytes.Equal(payload, want) {
		t.Fatalf("payload = %q, want %q", payload, want)
	}
	if a.Stats().LeaseMerges != 1 {
		t.Fatalf("lease merges = %d, want 1", a.Stats().LeaseMerges)
	}
	if _, err := os.Stat(filepath.Join(dir, k.Hex()+".lease")); !os.IsNotExist(err) {
		t.Fatalf("lease file left behind after the re-probe: %v", err)
	}
	// The served payload must also have landed in A's memory tier.
	if p, ok := a.Lookup(k); !ok || !bytes.Equal(p, want) {
		// Lookup is the in-memory tier only; acquireLead leaves retention
		// to its caller, so a miss here is fine — but GetOrCompute must
		// now serve the entry without computing.
		p, outcome, err := a.GetOrCompute(k, func() ([]byte, bool, error) {
			t.Fatal("entry recomputed despite being published")
			return nil, false, nil
		})
		if err != nil || !bytes.Equal(p, want) || outcome != DiskHit {
			t.Fatalf("post-race GetOrCompute = %q, %v, %v", p, outcome, err)
		}
	}
	_ = b
}

// Two caches over one directory model two replica processes. Under
// concurrent identical load, cross-process single-flight must hold:
// every unique unit computes exactly once fleet-wide, no duplicate
// entry is ever stored, and at least one request is served through a
// lease wait.
func TestLeaseSingleFlightAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	replicas := []*Cache{mustCache(t, Options{Dir: dir}), mustCache(t, Options{Dir: dir})}
	const keys = 4
	var computes [keys]atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range replicas {
		for i := 0; i < keys; i++ {
			wg.Add(1)
			go func(c *Cache, i int) {
				defer wg.Done()
				<-start
				k := KeyOf(fmt.Sprintf("fleet-unit-%d", i))
				want := []byte(fmt.Sprintf("payload-%d", i))
				p, _, err := c.GetOrCompute(k, func() ([]byte, bool, error) {
					computes[i].Add(1)
					time.Sleep(30 * time.Millisecond) // hold the lease so the other replica waits
					return want, true, nil
				})
				if err != nil || !bytes.Equal(p, want) {
					t.Errorf("replica key %d: %q %v", i, p, err)
				}
			}(c, i)
		}
	}
	close(start)
	wg.Wait()

	for i := 0; i < keys; i++ {
		if got := computes[i].Load(); got != 1 {
			t.Errorf("key %d measured %d times fleet-wide, want exactly 1", i, got)
		}
	}
	total := replicas[0].Stats().Add(replicas[1].Stats())
	if total.DuplicateStores != 0 {
		t.Errorf("duplicate stores = %d, want 0 (the fleet alarm): %+v", total.DuplicateStores, total)
	}
	if total.Stores != keys {
		t.Errorf("stores = %d, want %d: %+v", total.Stores, keys, total)
	}
	if total.LeaseMerges == 0 {
		t.Errorf("no request was served through a lease wait: %+v", total)
	}
}

// The takeover property: whatever protocol step the holder dies at —
// just acquired, mid-heartbeat — a follower claims the lease, computes
// exactly once, and publishes the byte-identical entry, with the
// takeover counted exactly once and no duplicate store.
func TestLeaseTakeoverDeadHolder(t *testing.T) {
	steps := []struct {
		name string
		seq  uint64
	}{
		{"died-after-acquire", 0},
		{"died-mid-heartbeat", 7},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			dir := t.TempDir()
			c := mustCache(t, Options{Dir: dir})
			// Every pid probe reports dead: the staged holder no longer runs.
			c.leases.alive = func(int) bool { return false }
			k := KeyOf("orphaned-unit")
			stageLease(t, dir, k, 1<<22, "deadbeefdeadbeef", step.seq)

			want := []byte("measured-once")
			computed := 0
			p, out, err := c.GetOrCompute(k, func() ([]byte, bool, error) {
				computed++
				return want, true, nil
			})
			if err != nil || out != Miss || !bytes.Equal(p, want) || computed != 1 {
				t.Fatalf("takeover compute: %q %v %v computed=%d", p, out, err, computed)
			}
			st := c.Stats()
			if st.LeaseTakeovers != 1 || st.Misses != 1 || st.Stores != 1 || st.DuplicateStores != 0 {
				t.Fatalf("takeover stats: %+v", st)
			}
			// The lease (and the takeover marker) must be gone.
			des, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range des {
				if !de.IsDir() && !strings.HasSuffix(de.Name(), ".memo") {
					t.Errorf("stray file after takeover: %s", de.Name())
				}
			}
			// The published entry serves a fresh process from disk.
			c2 := mustCache(t, Options{Dir: dir})
			p2, out2, err := c2.GetOrCompute(k, func() ([]byte, bool, error) {
				t.Fatal("entry published by takeover must be served, not recomputed")
				return nil, false, nil
			})
			if err != nil || out2 != DiskHit || !bytes.Equal(p2, want) {
				t.Fatalf("post-takeover read: %q %v %v", p2, out2, err)
			}
		})
	}
}

// Publish-then-die: the holder wrote its entry but was killed before
// releasing the lease. The follower that wins the takeover must serve
// the published entry (a lease merge), never recompute it.
func TestLeaseTakeoverServesPublishedEntry(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("published-then-died")
	want := []byte("already-on-disk")
	if _, err := store.Store(k, want); err != nil {
		t.Fatal(err)
	}
	stageLease(t, dir, k, 1<<22, "deadbeefdeadbeef", 3)

	lm := newLeaseManager(dir)
	lm.alive = func(int) bool { return false }
	// The first probe misses (the follower raced the publication); the
	// takeover's re-probe must then find the entry.
	probes := 0
	p, res := lm.waitOrAcquire(k, func() ([]byte, bool) {
		probes++
		if probes == 1 {
			return nil, false
		}
		payload, ok, _ := store.Load(k)
		return payload, ok
	})
	if res != waitEntry || !bytes.Equal(p, want) {
		t.Fatalf("waitOrAcquire: %v %q", res, p)
	}
	if lm.takeovers.Load() != 0 || lm.merges.Load() != 1 {
		t.Fatalf("publish-then-die must count as a merge, not a takeover: takeovers=%d merges=%d",
			lm.takeovers.Load(), lm.merges.Load())
	}
	if _, err := os.Stat(filepath.Join(dir, k.Hex()+".lease")); !os.IsNotExist(err) {
		t.Error("stale lease must be cleaned up after the merge")
	}
}

// Several followers observing the same dead holder must arbitrate to
// exactly one new holder; everyone else is served that holder's entry.
func TestLeaseTakeoverSingleWinner(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("contended-takeover")
	want := []byte("winner-computed")
	const deadPid = 1 << 22
	stageLease(t, dir, k, deadPid, "deadbeefdeadbeef", 0)

	const followers = 4
	results := make([]waitResult, followers)
	payloads := make([][]byte, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lm := newLeaseManager(dir)
			// Only the staged holder is dead; whichever follower wins its
			// lease is alive, so nobody steals the takeover.
			lm.alive = func(pid int) bool { return pid != deadPid }
			p, res := lm.waitOrAcquire(k, func() ([]byte, bool) {
				payload, ok, _ := store.Load(k)
				return payload, ok
			})
			if res == waitAcquired {
				// The winner plays the holder: publish, then release.
				if _, err := store.Store(k, want); err != nil {
					t.Error(err)
				}
				lm.release(k)
				p = want
			}
			results[i], payloads[i] = res, p
		}(i)
	}
	wg.Wait()

	winners := 0
	for i, res := range results {
		if res == waitAcquired {
			winners++
		}
		if res == waitBypass {
			t.Errorf("follower %d bypassed instead of being served", i)
		}
		if !bytes.Equal(payloads[i], want) {
			t.Errorf("follower %d payload %q, want %q", i, payloads[i], want)
		}
	}
	if winners != 1 {
		t.Fatalf("takeover winners = %d, want exactly 1", winners)
	}
}

// release must be a no-op for anyone but the current owner, so a
// holder wrongly declared stale cannot delete its successor's lease.
func TestLeaseReleaseVerifiesOwnership(t *testing.T) {
	dir := t.TempDir()
	holder := newLeaseManager(dir)
	stranger := newLeaseManager(dir)
	k := KeyOf("owned-unit")
	if !holder.tryAcquire(k) {
		t.Fatal("acquire failed on empty dir")
	}
	stranger.release(k)
	if _, err := os.Stat(holder.path(k)); err != nil {
		t.Fatal("a non-owner's release must not remove the lease")
	}
	// Second acquire on a held lease must fail (the os.Link is the lock).
	if stranger.tryAcquire(k) {
		t.Fatal("double acquire")
	}
	holder.release(k)
	if _, err := os.Stat(holder.path(k)); !os.IsNotExist(err) {
		t.Fatal("owner's release must remove the lease")
	}
}

// A SIGKILL mid-write must never surface a torn entry: for every
// prefix of a valid entry file placed under the final name, the store
// either reports a miss (after discarding the file) — never a payload
// that differs from the one stored.
func TestTornEntryNeverServed(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("torn-unit")
	want := []byte("payload that a crash may tear mid-write")
	if _, err := store.Store(k, want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.Hex()+".memo")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		p, ok, err := store.Load(k)
		if ok {
			t.Fatalf("cut %d: torn entry served (payload %q)", cut, p)
		}
		if err == nil {
			t.Fatalf("cut %d: torn entry must surface errCorrupt", cut)
		}
		if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
			t.Fatalf("cut %d: torn entry must be discarded", cut)
		}
	}
	// The full file round-trips.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p, ok, err := store.Load(k)
	if err != nil || !ok || !bytes.Equal(p, want) {
		t.Fatalf("intact entry: %q %v %v", p, ok, err)
	}
}

// A sick cache directory (deleted out from under the store) must
// degrade the cache to computing — every request still succeeds — and
// open the breaker, which then recovers once the directory is back.
func TestBreakerDegradesAndRecovers(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	c := mustCache(t, Options{Dir: dir})
	if _, _, err := c.GetOrCompute(KeyOf("healthy"), constPayload([]byte("v"))); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	// Enough failing stores to trip the breaker; requests keep working.
	for i := 0; c.BreakerState() != BreakerOpen; i++ {
		if i > 3*breakerThreshold {
			t.Fatalf("breaker never opened: %+v", c.Stats())
		}
		k := KeyOf(fmt.Sprintf("sick-%d", i))
		p, _, err := c.GetOrCompute(k, constPayload([]byte("degraded-compute")))
		if err != nil || string(p) != "degraded-compute" {
			t.Fatalf("request %d must succeed without the disk: %q %v", i, p, err)
		}
	}
	st := c.Stats()
	if st.DiskErrors < breakerThreshold || st.BreakerOpens != 1 {
		t.Fatalf("post-trip stats: %+v", st)
	}

	// While open, disk work is skipped — requests stay fast and correct.
	for i := 0; i < 5; i++ {
		k := KeyOf(fmt.Sprintf("open-%d", i))
		if _, _, err := c.GetOrCompute(k, constPayload([]byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.BreakerSkips == 0 {
		t.Fatalf("open breaker must skip disk operations: %+v", st)
	}

	// Directory restored: after the cooldown the probe closes the
	// breaker and persistence resumes.
	if err := os.MkdirAll(filepath.Join(dir, coldDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	storesBefore := c.Stats().Stores
	recovered := false
	for i := 0; i < 3*breakerCooldown; i++ {
		k := KeyOf(fmt.Sprintf("recover-%d", i))
		if _, _, err := c.GetOrCompute(k, constPayload([]byte("v"))); err != nil {
			t.Fatal(err)
		}
		if c.BreakerState() == BreakerClosed && c.Stats().Stores > storesBefore {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("breaker never recovered: state=%v %+v", c.BreakerState(), c.Stats())
	}
}

// entrySize is the on-disk size of one stored entry for a payload of
// length n (header + payload).
func entrySize(n int) int64 {
	return int64(len(diskMagic) + 1 + 64 + 1 + len(strconv.Itoa(n)) + 1 + n)
}

// Compaction demotes the warm generation and evicts cold-tier entries
// oldest-first until the store fits its budget; recently loaded
// entries are promoted back to warm and survive.
func TestCompactionDemotesEvictsPromotes(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	payload := bytes.Repeat([]byte("x"), 100)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = KeyOf(fmt.Sprintf("gen-%d", i))
		if _, err := store.Store(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct mtimes → deterministic eviction order
	}
	budget := 4 * entrySize(len(payload))
	if err := store.Compact(budget); err != nil {
		t.Fatal(err)
	}
	warm, cold := store.TierLen()
	if warm != 0 || cold != 4 {
		t.Fatalf("tiers after compaction: warm=%d cold=%d, want 0/4", warm, cold)
	}
	if d, e := store.demotions.Load(), store.evictions.Load(); d != n || e != n-4 {
		t.Fatalf("demotions=%d evictions=%d, want %d/%d", d, e, n, n-4)
	}
	// The oldest entries are gone, the newest survive in the cold tier.
	for i := 0; i < n-4; i++ {
		if _, ok, _ := store.Load(keys[i]); ok {
			t.Errorf("old entry %d must have been evicted", i)
		}
	}
	// Loading a survivor promotes it back to warm.
	p, ok, err := store.Load(keys[n-1])
	if err != nil || !ok || !bytes.Equal(p, payload) {
		t.Fatalf("survivor load: %v %v", ok, err)
	}
	if warm, cold = store.TierLen(); warm != 1 || cold != 3 {
		t.Fatalf("tiers after promotion: warm=%d cold=%d, want 1/3", warm, cold)
	}
	if store.promotions.Load() != 1 {
		t.Fatalf("promotions = %d, want 1", store.promotions.Load())
	}
	// Under budget: a second pass moves nothing.
	d0 := store.demotions.Load()
	if err := store.Compact(budget); err != nil {
		t.Fatal(err)
	}
	if store.demotions.Load() != d0 {
		t.Fatal("under-budget compaction must not demote")
	}
}

// A cache with a disk budget compacts automatically as stores
// accumulate and never lets the directory grow without bound; evicted
// units simply recompute.
func TestCacheAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 100)
	budget := 4 * entrySize(len(payload))
	c := mustCache(t, Options{Dir: dir, DiskMaxBytes: budget})
	for i := 0; i < 20; i++ {
		k := KeyOf(fmt.Sprintf("auto-%d", i))
		if _, _, err := c.GetOrCompute(k, constPayload(payload)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	st := c.Stats()
	if st.Compactions == 0 || st.DiskEvictions == 0 {
		t.Fatalf("auto compaction never ran: %+v", st)
	}
	_, warmTotal, err := scanTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, coldTotal, err := scanTier(filepath.Join(dir, coldDirName))
	if err != nil {
		t.Fatal(err)
	}
	if total := warmTotal + coldTotal; total > budget {
		t.Fatalf("disk usage %d exceeds budget %d after auto compaction", total, budget)
	}
}

// FuzzParseLease holds the lease parser's contract over arbitrary
// bytes: it never panics, rejects everything that does not round-trip,
// and accepts only positive pids and lowercase-hex owners.
func FuzzParseLease(f *testing.F) {
	f.Add([]byte(leaseMagic + " 123 deadbeef 7\n"))
	f.Add([]byte(leaseMagic + " 1 a 0"))
	f.Add([]byte(""))
	f.Add([]byte("memo-lease1"))
	f.Add([]byte("memo-lease1 -1 zz 0\n"))
	f.Add([]byte("memo-lease1 123 deadbeef 7\nextra"))
	f.Add([]byte("memo1 " + KeyOf("x").Hex() + " 4\ndata"))
	f.Add([]byte(leaseMagic + "  99  abc  18446744073709551615 \n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		pid, owner, seq, err := parseLease(raw)
		if err != nil {
			if pid != 0 || owner != "" || seq != 0 {
				t.Fatalf("rejecting parse must zero its results: %d %q %d", pid, owner, seq)
			}
			return
		}
		if pid <= 0 || owner == "" || len(owner) > 64 {
			t.Fatalf("accepted out-of-contract lease: pid=%d owner=%q", pid, owner)
		}
		for _, ch := range owner {
			if !(ch >= '0' && ch <= '9' || ch >= 'a' && ch <= 'f') {
				t.Fatalf("accepted non-hex owner %q", owner)
			}
		}
		// Everything accepted must round-trip through the writer format.
		rt := []byte(leaseMagic + " " + strconv.Itoa(pid) + " " + owner + " " + strconv.FormatUint(seq, 10) + "\n")
		p2, o2, s2, err2 := parseLease(rt)
		if err2 != nil || p2 != pid || o2 != owner || s2 != seq {
			t.Fatalf("round-trip mismatch: %d %q %d err=%v", p2, o2, s2, err2)
		}
	})
}
