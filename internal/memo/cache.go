package memo

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
)

// Outcome describes how one GetOrCompute request was satisfied.
type Outcome int

const (
	// Miss: no usable entry anywhere; this caller ran the compute.
	Miss Outcome = iota
	// Hit: served from the in-process LRU.
	Hit
	// DiskHit: served from the on-disk store (and promoted to the LRU).
	DiskHit
	// Merged: another caller was already computing the same key; this
	// caller blocked on that single flight and shared its result.
	Merged
	// PeerHit: served by a peer replica over the network (and written
	// through to the local store).
	PeerHit
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case DiskHit:
		return "disk-hit"
	case Merged:
		return "merged"
	case PeerHit:
		return "peer-hit"
	}
	return "unknown"
}

// PeerSource is a network tier the cache consults after a local (LRU +
// disk) miss and before measuring. Fetch returns the verified payload
// for key, or reports a miss; it must never return unverified bytes —
// the cache writes them through to the local store as-is. PeerStats
// exposes the source's own health counters for the cache snapshot.
// Implemented by peer.Client; the indirection keeps memo free of any
// HTTP dependency.
type PeerSource interface {
	Fetch(key Key) ([]byte, bool)
	PeerStats() PeerStats
}

// PeerStats are the health counters a PeerSource maintains alongside
// the cache's own peer hit/miss counts.
type PeerStats struct {
	// FetchErrors counts fetch attempts that failed against one peer
	// (timeout, transport error, unexpected status, or a malformed /
	// digest-mismatched body). A fetch that fails on one peer may still
	// succeed on another; each per-peer failure counts once.
	FetchErrors uint64
	// HedgesWon counts fetches satisfied by a hedge request — a backup
	// launched because the first-choice peer was slow — rather than the
	// initially-chosen peer.
	HedgesWon uint64
	// BreakerTrips counts closed→open transitions across all per-peer
	// breakers.
	BreakerTrips uint64
}

// Options configures a Cache.
type Options struct {
	// Dir, when non-empty, backs the cache with an on-disk store so
	// entries survive the process and warm-start later runs.
	Dir string
	// DiskMaxBytes bounds the on-disk store. When a store pushes the
	// directory past the budget a compaction pass demotes the warm
	// generation and evicts cold entries oldest-first (see
	// DiskStore.Compact). 0 means unbounded.
	DiskMaxBytes int64
}

// DefaultMaxEntries bounds the in-process LRU (all shards combined). A
// gather unit payload is a few KB, so the bound keeps the cache at tens
// of MB even for large surveys.
const DefaultMaxEntries = 4096

// DefaultShards is the lock-shard count, a power of two so shard
// selection is a mask.
const DefaultShards = 16

// StatsSnapshot is a point-in-time copy of a cache's counters.
type StatsSnapshot struct {
	// Hits counts requests served from the in-process LRU.
	Hits uint64 `json:"hits"`
	// DiskHits counts requests served from the on-disk store.
	DiskHits uint64 `json:"disk_hits"`
	// Misses counts requests that ran the compute function.
	Misses uint64 `json:"misses"`
	// SingleFlightMerges counts requests that blocked on — and shared —
	// another caller's in-progress compute for the same key.
	SingleFlightMerges uint64 `json:"single_flight_merges"`
	// Stores counts payloads written to the on-disk store.
	Stores uint64 `json:"stores"`
	// CorruptEntries counts on-disk entries that failed their checksum
	// or length validation and were discarded and re-measured.
	CorruptEntries uint64 `json:"corrupt_entries"`
	// Uncacheable counts computes whose result the caller marked
	// non-cacheable (degraded regime: drops or quarantine), so nothing
	// was retained in memory or on disk.
	Uncacheable uint64 `json:"uncacheable"`
	// LeaseMerges counts requests that waited on another process's
	// lease and were served the entry that process published — the
	// cross-process analogue of SingleFlightMerges.
	LeaseMerges uint64 `json:"lease_merges"`
	// LeaseTakeovers counts stale leases this process claimed after
	// their holder died (or stalled past the heartbeat budget)
	// mid-measure.
	LeaseTakeovers uint64 `json:"lease_takeovers"`
	// LeaseBypasses counts computes that ran without a lease because
	// the wait budget was exhausted — duplicate work, identical bytes.
	LeaseBypasses uint64 `json:"lease_bypasses"`
	// DuplicateStores counts stores that found a complete entry already
	// published for their key. Under cross-process leases this should
	// stay zero: it is the fleet's duplicate-measurement alarm.
	DuplicateStores uint64 `json:"duplicate_stores"`
	// DiskErrors counts disk loads or stores that failed with a real
	// I/O error (not corruption). The cache degrades to computing
	// without the disk instead of failing the request; enough
	// consecutive errors open the breaker.
	DiskErrors uint64 `json:"disk_errors"`
	// BreakerOpens counts closed→open transitions of the disk circuit
	// breaker; BreakerSkips counts disk operations skipped while it was
	// open.
	BreakerOpens uint64 `json:"breaker_opens"`
	BreakerSkips uint64 `json:"breaker_skips"`
	// Disk tier movement: promotions (cold hit moved back to warm),
	// demotions (compaction moved warm to cold), evictions (cold entry
	// removed for the size budget) and compaction passes.
	DiskPromotions uint64 `json:"disk_promotions"`
	DiskDemotions  uint64 `json:"disk_demotions"`
	DiskEvictions  uint64 `json:"disk_evictions"`
	Compactions    uint64 `json:"compactions"`
	// PeerHits counts requests served by a peer replica's cache over the
	// network; PeerMisses counts peer fan-outs that came back empty and
	// fell through to measuring. Both are zero on caches with no peer
	// source configured.
	PeerHits   uint64 `json:"peer_hits"`
	PeerMisses uint64 `json:"peer_misses"`
	// PeerFetchErrors, PeerHedgesWon and PeerBreakerTrips mirror the
	// PeerSource's own health counters (see PeerStats).
	PeerFetchErrors  uint64 `json:"peer_fetch_errors"`
	PeerHedgesWon    uint64 `json:"peer_hedges_won"`
	PeerBreakerTrips uint64 `json:"peer_breaker_trips"`
}

// Requests is the total number of GetOrCompute calls reflected in s.
func (s StatsSnapshot) Requests() uint64 {
	return s.Hits + s.DiskHits + s.Misses + s.SingleFlightMerges + s.PeerHits
}

// Cache is the in-process layer: a sharded LRU over unit payloads with
// single-flight deduplication and an optional disk store behind it.
// All methods are safe for concurrent use; a nil *Cache is valid and
// behaves as a pass-through (every request is a Miss that computes).
type Cache struct {
	shards []shard
	mask   uint32
	disk   *DiskStore
	// maxPerShard bounds each shard's LRU.
	maxPerShard int
	// diskMaxBytes bounds the disk store (0: unbounded).
	diskMaxBytes int64
	// leases coordinates cross-process single-flight over the shared
	// disk directory; nil for memory-only or lease-disabled caches.
	leases *leaseManager
	// brk is the circuit breaker guarding every disk (and lease)
	// operation; nil-safe, but always set on disk-backed caches.
	brk *Breaker
	// peers, when set, is consulted after a local miss and before
	// measuring; fetched entries are written through to the local store.
	// Guarded by peersMu so SetPeers is safe after the cache is serving.
	peersMu sync.RWMutex
	peers   PeerSource

	hits        atomic.Uint64
	diskHits    atomic.Uint64
	misses      atomic.Uint64
	merges      atomic.Uint64
	stores      atomic.Uint64
	corrupt     atomic.Uint64
	uncacheable atomic.Uint64
	dupStores   atomic.Uint64
	diskErrors  atomic.Uint64
	peerHits    atomic.Uint64
	peerMisses  atomic.Uint64
}

type shard struct {
	mu       sync.Mutex
	entries  map[Key]*list.Element // values are *entry
	order    *list.List            // front = most recent
	inflight map[Key]*flight
}

type entry struct {
	key     Key
	payload []byte
}

// flight is one in-progress compute; followers block on done.
type flight struct {
	done    chan struct{}
	payload []byte
	err     error
}

// New creates a cache. When opts.Dir is non-empty the on-disk store is
// opened (created if needed) and becomes the second lookup layer.
func New(opts Options) (*Cache, error) {
	c := &Cache{
		shards:      make([]shard, DefaultShards),
		mask:        DefaultShards - 1,
		maxPerShard: DefaultMaxEntries / DefaultShards,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*list.Element)
		c.shards[i].order = list.New()
		c.shards[i].inflight = make(map[Key]*flight)
	}
	if opts.Dir != "" {
		disk, err := OpenDiskStore(opts.Dir)
		if err != nil {
			return nil, err
		}
		c.disk = disk
		c.diskMaxBytes = opts.DiskMaxBytes
		c.brk = NewBreaker()
		c.leases = newLeaseManager(opts.Dir)
	}
	return c, nil
}

func (c *Cache) shardOf(k Key) *shard {
	// The key is a sha256 digest, so any four bytes are uniform.
	idx := uint32(k.d[0]) | uint32(k.d[1])<<8 | uint32(k.d[2])<<16 | uint32(k.d[3])<<24
	return &c.shards[idx&c.mask]
}

// GetOrCompute returns the payload for key, computing it at most once
// per process at a time. compute returns the payload, whether it may be
// cached (false for results produced under a degraded regime — those
// are returned to this caller but never retained or served to others),
// and an error. The returned Outcome says which layer satisfied the
// request. On a nil cache, compute runs unconditionally.
//
// The returned payload is shared — callers must not mutate it.
func (c *Cache) GetOrCompute(key Key, compute func() (payload []byte, cacheable bool, err error)) ([]byte, Outcome, error) {
	if c == nil {
		p, _, err := compute()
		return p, Miss, err
	}
	if key.IsZero() {
		return nil, Miss, errors.New("memo: zero key")
	}
	s := c.shardOf(key)

	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		p := el.Value.(*entry).payload
		s.mu.Unlock()
		c.hits.Add(1)
		return p, Hit, nil
	}
	if fl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-fl.done
		c.merges.Add(1)
		if fl.err != nil {
			return nil, Merged, fl.err
		}
		return fl.payload, Merged, nil
	}
	// This caller leads the flight for key.
	fl := &flight{done: make(chan struct{})}
	s.inflight[key] = fl
	s.mu.Unlock()

	payload, outcome, err := c.lead(key, s, compute)
	fl.payload, fl.err = payload, err
	close(fl.done)
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	return payload, outcome, err
}

// Lookup peeks the in-process layer only: it returns the resident
// payload for key (refreshing its LRU position) or reports a miss
// without touching the disk store or the single-flight machinery. The
// serving hot path uses it to answer warm repeats allocation-free;
// callers fall through to GetOrCompute on a miss, which does the full
// layered lookup and counts the request, so Lookup itself records a
// Hit on success and nothing otherwise. Safe on nil.
//
// The returned payload is shared — callers must not mutate it.
func (c *Cache) Lookup(key Key) ([]byte, bool) {
	if c == nil || key.IsZero() {
		return nil, false
	}
	s := c.shardOf(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		p := el.Value.(*entry).payload
		s.mu.Unlock()
		c.hits.Add(1)
		return p, true
	}
	s.mu.Unlock()
	return nil, false
}

// SetPeers installs (or, with nil, removes) the network peer tier.
// Safe to call while the cache is serving; in-flight requests keep
// whatever source they already read. Safe on nil (no-op), so callers
// can wire flags unconditionally.
func (c *Cache) SetPeers(p PeerSource) {
	if c == nil {
		return
	}
	c.peersMu.Lock()
	c.peers = p
	c.peersMu.Unlock()
}

// peerSource returns the installed peer tier, or nil.
func (c *Cache) peerSource() PeerSource {
	c.peersMu.RLock()
	p := c.peers
	c.peersMu.RUnlock()
	return p
}

// LookupStored probes the local layers only — LRU, then disk — for a
// complete stored entry, without counting a request, running a
// compute, or consulting peers. This is the read side of the peer
// protocol: a replica answering GET /v1/peer/blob must serve strictly
// what it already has, so two peers missing the same key can never
// recurse into each other, and serving traffic never skews the local
// hit/miss accounting. Safe on nil.
//
// The returned payload is shared — callers must not mutate it.
func (c *Cache) LookupStored(key Key) ([]byte, bool) {
	if c == nil || key.IsZero() {
		return nil, false
	}
	s := c.shardOf(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		p := el.Value.(*entry).payload
		s.mu.Unlock()
		return p, true
	}
	s.mu.Unlock()
	if payload, ok := c.diskLoad(key); ok {
		c.retain(key, s, payload)
		return payload, true
	}
	return nil, false
}

// diskLoad probes the disk store through the circuit breaker. Disk
// I/O errors are absorbed (counted, fed to the breaker, reported as a
// miss) so a sick cache directory degrades to computing instead of
// failing requests; corrupt entries are discarded and re-measured.
func (c *Cache) diskLoad(key Key) ([]byte, bool) {
	if c.disk == nil || !c.brk.Allow() {
		return nil, false
	}
	payload, ok, err := c.disk.Load(key)
	switch {
	case err != nil && errors.Is(err, errCorrupt):
		// Data damage, not disk sickness: the store is answering.
		c.corrupt.Add(1)
		c.brk.Record(false)
	case err != nil:
		c.diskErrors.Add(1)
		c.brk.Record(true)
	case ok:
		c.brk.Record(false)
	default:
		// A plain miss (no file) carries no health signal either way:
		// recording it as success would let interleaved misses mask a
		// failing store (e.g. every write ENOSPC-ing between read misses)
		// and keep the breaker from ever reaching its threshold.
		c.brk.RecordNeutral()
	}
	return payload, ok && err == nil
}

// diskStore publishes a computed payload through the circuit breaker.
// A store failure never fails the request — the compute already
// succeeded; the entry is simply not persisted this time.
func (c *Cache) diskStore(key Key, payload []byte) {
	if c.disk == nil || !c.brk.Allow() {
		return
	}
	dup, err := c.disk.Store(key, payload)
	if err != nil {
		c.diskErrors.Add(1)
		c.brk.Record(true)
		return
	}
	c.brk.Record(false)
	if dup {
		c.dupStores.Add(1)
		return
	}
	c.stores.Add(1)
	c.disk.maybeCompact(c.diskMaxBytes)
}

// lead performs the flight leader's work: disk lookup, cross-process
// lease coordination, then compute and retention. Called outside the
// shard lock.
func (c *Cache) lead(key Key, s *shard, compute func() ([]byte, bool, error)) ([]byte, Outcome, error) {
	if payload, ok := c.diskLoad(key); ok {
		c.diskHits.Add(1)
		c.retain(key, s, payload)
		return payload, DiskHit, nil
	}
	// Network peer tier: ask replicas that may already hold the entry
	// before paying for a measurement. Running inside the flight leader
	// means one fan-out serves every local waiter; writing the fetched
	// bytes through to the disk store makes this replica a server for
	// the same digest from then on. Peer fetch happens before lease
	// coordination: a peer that answers is strictly cheaper than
	// holding a lease through a full measurement, and replicas with
	// separate cache dirs (the peer deployment shape) have no shared
	// lease directory anyway. A peer hit counts on the return path
	// below; a peer miss counts only when a fan-out actually ran.
	if p := c.peerSource(); p != nil {
		if payload, ok := p.Fetch(key); ok {
			c.peerHits.Add(1)
			c.diskStore(key, payload)
			c.retain(key, s, payload)
			return payload, PeerHit, nil
		}
		c.peerMisses.Add(1)
	}
	// Cross-process single-flight: become the lease holder for this
	// digest, or wait for the process that is. A follower either gets
	// the holder's published entry (a lease merge), inherits a dead
	// holder's lease (takeover), or — after the wait budget — computes
	// without a lease so a wedged fleet never turns into an outage.
	payload, published, holding := c.acquireLead(key)
	if published {
		c.diskHits.Add(1)
		c.retain(key, s, payload)
		return payload, DiskHit, nil
	}
	var stopHeartbeat func()
	if holding {
		stopHeartbeat = c.leases.heartbeat(key)
	}
	releaseLease := func() {
		if holding {
			stopHeartbeat()
			c.leases.release(key)
			holding = false
		}
	}
	defer releaseLease()
	computed, cacheable, err := compute()
	if err != nil {
		c.misses.Add(1)
		return nil, Miss, err
	}
	if !cacheable {
		c.misses.Add(1)
		c.uncacheable.Add(1)
		return computed, Miss, nil
	}
	// Publish before releasing the lease, so a follower that wakes on
	// the release always finds the entry.
	c.diskStore(key, computed)
	releaseLease()
	c.misses.Add(1)
	c.retain(key, s, computed)
	return computed, Miss, nil
}

// acquireLead wins the cross-process lease for key, waits on its
// holder, or declines to coordinate (no disk store, breaker open).
// Winning the acquire is re-checked against the store: between the
// caller's disk miss and a successful acquire, the previous holder may
// have published its entry and released — the bare acquire proves
// nothing. Detecting that race here costs one extra read; missing it
// would cost a duplicate measurement fleet-wide.
func (c *Cache) acquireLead(key Key) (payload []byte, published, holding bool) {
	if c.leases == nil || c.brk.Tripped() {
		return nil, false, false
	}
	if c.leases.tryAcquire(key) {
		if p, ok := c.diskLoad(key); ok {
			c.leases.release(key)
			c.leases.merges.Add(1)
			return p, true, false
		}
		return nil, false, true
	}
	p, res := c.leases.waitOrAcquire(key, func() ([]byte, bool) {
		return c.diskLoad(key)
	})
	switch res {
	case waitEntry:
		return p, true, false
	case waitAcquired:
		return nil, false, true
	default:
		return nil, false, false
	}
}

// retain inserts the payload into the shard's LRU, evicting from the
// cold end when over budget.
func (c *Cache) retain(key Key, s *shard, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		return
	}
	s.entries[key] = s.order.PushFront(&entry{key: key, payload: payload})
	for s.order.Len() > c.maxPerShard {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.entries, back.Value.(*entry).key)
	}
}

// Len reports the number of entries currently resident in memory.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cache's counters. Safe on nil.
func (c *Cache) Stats() StatsSnapshot {
	if c == nil {
		return StatsSnapshot{}
	}
	st := StatsSnapshot{
		Hits:               c.hits.Load(),
		DiskHits:           c.diskHits.Load(),
		Misses:             c.misses.Load(),
		SingleFlightMerges: c.merges.Load(),
		Stores:             c.stores.Load(),
		CorruptEntries:     c.corrupt.Load(),
		Uncacheable:        c.uncacheable.Load(),
		DuplicateStores:    c.dupStores.Load(),
		DiskErrors:         c.diskErrors.Load(),
		PeerHits:           c.peerHits.Load(),
		PeerMisses:         c.peerMisses.Load(),
	}
	if p := c.peerSource(); p != nil {
		ps := p.PeerStats()
		st.PeerFetchErrors = ps.FetchErrors
		st.PeerHedgesWon = ps.HedgesWon
		st.PeerBreakerTrips = ps.BreakerTrips
	}
	if c.leases != nil {
		st.LeaseMerges = c.leases.merges.Load()
		st.LeaseTakeovers = c.leases.takeovers.Load()
		st.LeaseBypasses = c.leases.bypasses.Load()
	}
	if c.brk != nil {
		_, st.BreakerOpens, st.BreakerSkips = c.brk.Snapshot()
	}
	if c.disk != nil {
		st.DiskPromotions = c.disk.promotions.Load()
		st.DiskDemotions = c.disk.demotions.Load()
		st.DiskEvictions = c.disk.evictions.Load()
		st.Compactions = c.disk.compactions.Load()
	}
	return st
}

// BreakerState reports the disk circuit breaker's position. A
// memory-only (or nil) cache has no disk dependency and always reads
// closed.
func (c *Cache) BreakerState() BreakerState {
	if c == nil || c.brk == nil {
		return BreakerClosed
	}
	state, _, _ := c.brk.Snapshot()
	return state
}

// Compact runs a disk compaction pass against the configured (or the
// given, if positive) size budget. A no-op for memory-only caches.
func (c *Cache) Compact(maxBytes int64) error {
	if c == nil || c.disk == nil {
		return nil
	}
	if maxBytes <= 0 {
		maxBytes = c.diskMaxBytes
	}
	return c.disk.Compact(maxBytes)
}

// Dir returns the backing directory, or "" for a memory-only cache.
func (c *Cache) Dir() string {
	if c == nil || c.disk == nil {
		return ""
	}
	return c.disk.Dir()
}
