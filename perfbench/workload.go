package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"additivity/internal/loadgen"
	"additivity/internal/service"
	apps "additivity/internal/workload"
)

// A workload is one seeded traffic mix. Only its generated requests
// reach the daemon; the seed changes which identities are asked for,
// never the shape of the mix (kinds, platforms, distinct versus
// repeated share), so runs with different seeds measure the same thing.
type workload struct {
	name string
	why  string
	seed int64
	// tailPct is the percentile reported as latency_tail_ms: the highest
	// of p90, p99 and p99.9 with at least ten samples beyond it in a
	// 20 s run.
	tailPct float64
	// memMark is the number of settled timed operations at which the
	// daemon's memory is read, so that peak_rss_mb and the heap and GC
	// figures describe the same amount of work in every run while the
	// daemon's job table grows with every request it serves.
	memMark int
	// segments splits the end-to-end run's timed replay into that many
	// equal stretches, each read at the machine's speed of its own
	// moment (probe.go).
	segments int
	// computeBound marks a workload of few, long operations that are
	// all compute. Its throughput, p50 latency and CPU per operation
	// are taken over all segments together, as a segment holds too few
	// operations for a figure of its own; its latencies are read at the
	// wall-clock speed (see endToEnd); and its speed comes from the
	// probe kernel's compute part alone (probe.go). Otherwise those
	// figures are the medians of the segments', so a burst of load from
	// outside the benchmark sways one segment, not the run.
	computeBound bool
	// chunk is the number of requests one loadgen.Play call replays.
	chunk int
	// opBudget bounds one operation generously; the per-job timeout and
	// the stall watchdog derive from it.
	opBudget time.Duration
	// pool holds warm-serve's identities, all warmed during set-up;
	// nil for the workloads whose every request is a new identity.
	pool []service.JobRequest
	// newTimed and newWarm build the request streams of the timed
	// phases and of one set-up's warm-up.
	newTimed func() *stream
	newWarm  func() *stream
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"warm-serve", "cold-compute", "predict-fresh"}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "warm-serve":
		return warmServe(seed)
	case "cold-compute":
		return coldCompute(seed), nil
	case "predict-fresh":
		return predictFresh(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// stream hands out a workload's requests in order; the replay loops
// share one. poolIdx is the request's warm-pool position, or -1 for a
// request whose identity is new.
type stream struct {
	mu   sync.Mutex
	n    int
	next func(i int) (req service.JobRequest, poolIdx int)
	// limit, when positive, ends the stream after that many requests.
	limit int
}

// take returns up to n further requests; an empty result means the
// stream is exhausted.
func (s *stream) take(n int) ([]service.JobRequest, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limit > 0 && s.n+n > s.limit {
		n = s.limit - s.n
	}
	reqs := make([]service.JobRequest, n)
	pos := make([]int, n)
	for k := 0; k < n; k++ {
		reqs[k], pos[k] = s.next(s.n)
		s.n++
	}
	return reqs, pos
}

// derive maps (seed, salt, i) to a positive job seed. Distinct inputs
// give distinct job identities with overwhelming probability; zero is
// avoided because Normalize would replace it with the default seed.
func derive(seed int64, salt string, i int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(salt))
	x := h.Sum64()
	// splitmix64 finaliser: spreads FNV's weak low bits.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>2) | 1
}

func normalized(r service.JobRequest) service.JobRequest {
	if err := r.Normalize(); err != nil {
		// Every generated request is built from valid constants.
		panic(fmt.Sprintf("perfbench: generated an invalid request: %v", err))
	}
	return r
}

func checkReq(platform string, seed int64) service.JobRequest {
	return normalized(service.JobRequest{Kind: service.KindCheck, Params: service.JobParams{
		Platform: platform, Seed: seed,
	}})
}

func trainReq(platform, model string, seed int64) service.JobRequest {
	return normalized(service.JobRequest{Kind: service.KindTrain, Params: service.JobParams{
		Platform: platform, Seed: seed, Model: model,
	}})
}

func predictReq(platform, app string, size int, seed int64) service.JobRequest {
	return normalized(service.JobRequest{Kind: service.KindPredict, Params: service.JobParams{
		Platform: platform, Seed: seed, Tier: "analytic", App: app, AppSize: size,
	}})
}

// platforms are the simulated machines the fresh workloads alternate
// between.
var platforms = [2]string{"haswell", "skylake"}

// suite is the application catalog predict identities draw from.
var suite = apps.DiverseSuite()

// warmTraceLen is the length of warm-serve's generated trace; a timed
// replay that runs past its end starts it again.
const warmTraceLen = 1 << 15

// warmServe replays the repository load harness's skewed trace: Zipf
// s=1.2 over 16 identities, half analytic predicts and half checks.
func warmServe(seed int64) (*workload, error) {
	trace, err := loadgen.GenerateTrace(loadgen.GenConfig{
		Name: "warm-serve", Jobs: warmTraceLen, Seed: seed,
		Skewed: true, Distinct: 16, PredictShare: 0.5,
	})
	if err != nil {
		return nil, err
	}
	// The pool is the trace's distinct identities in order of first
	// appearance; pos maps each request to its pool position.
	var pool []service.JobRequest
	pos := make([]int, len(trace.Jobs))
	index := map[string]int{}
	for i, r := range trace.Jobs {
		canon, err := service.CanonicalRequest(r)
		if err != nil {
			return nil, err
		}
		k, ok := index[canon]
		if !ok {
			k = len(pool)
			index[canon] = k
			pool = append(pool, r)
		}
		pos[i] = k
	}
	replayFrom := func(i int) (service.JobRequest, int) {
		i %= len(trace.Jobs)
		return trace.Jobs[i], pos[i]
	}
	return &workload{
		name:     "warm-serve",
		why:      "loadgen's Zipf trace over 16 warmed check/analytic-predict identities: every request is a memory-tier job-cache hit, so only service, memo lookup and loadgen work",
		seed:     seed,
		tailPct:  99.9,
		chunk:    128,
		opBudget: 50 * time.Millisecond,
		memMark:  15000,
		segments: 20,
		pool:     pool,
		newTimed: func() *stream { return &stream{next: replayFrom} },
		// Warm-up submits each pool identity once (the only computes),
		// then replays the trace's first 2000 requests so connections,
		// pools and the heap reach steady state before timing.
		newWarm: func() *stream {
			return &stream{limit: len(pool) + 2000, next: func(i int) (service.JobRequest, int) {
				if i < len(pool) {
					return pool[i], i
				}
				return replayFrom(i - len(pool))
			}}
		},
	}, nil
}

// coldBlock is cold-compute's mix, the job mix of the paper's
// evaluation as EXPERIMENTS.md reproduces it: on Haswell the Class A
// additivity check (Table 2) and the lr, rf and nn models fitted on
// its PMCs (Tables 3-5); on Skylake the Class B check (Table 6) and
// its lr, rf and nn models (Table 7a). Every job takes the daemon's
// default parameters. Each run of eight identities holds these kinds
// in a seeded order.
var coldBlock = []struct {
	kind     service.JobKind
	platform string
	model    string
}{
	{service.KindCheck, "haswell", ""},
	{service.KindTrain, "haswell", "lr"},
	{service.KindTrain, "haswell", "rf"},
	{service.KindTrain, "haswell", "nn"},
	{service.KindCheck, "skylake", ""},
	{service.KindTrain, "skylake", "lr"},
	{service.KindTrain, "skylake", "rf"},
	{service.KindTrain, "skylake", "nn"},
}

func coldIdentity(seed int64, salt string, i int) service.JobRequest {
	block, pos := i/len(coldBlock), i%len(coldBlock)
	order := rand.New(rand.NewSource(derive(seed, salt+"/order", block))).Perm(len(coldBlock))
	b := coldBlock[order[pos]]
	s := derive(seed, salt, i)
	if b.kind == service.KindCheck {
		return checkReq(b.platform, s)
	}
	return trainReq(b.platform, b.model, s)
}

func coldCompute(seed int64) *workload {
	return &workload{
		name:         "cold-compute",
		why:          "every request a new identity in the paper's job mix (a check and lr/rf/nn trains per platform): caches miss, so core, pmc, machine, experiments and ml do real work",
		seed:         seed,
		tailPct:      90,
		chunk:        1,
		opBudget:     2 * time.Second,
		memMark:      96,
		segments:     4,
		computeBound: true,
		newTimed: func() *stream {
			return &stream{next: func(i int) (service.JobRequest, int) { return coldIdentity(seed, "timed", i), -1 }}
		},
		// Eight checks of their own, platforms alternating, warm the
		// client connections and the daemon's code paths without
		// touching timed identities.
		newWarm: func() *stream {
			return &stream{limit: 8, next: func(i int) (service.JobRequest, int) {
				return checkReq(platforms[i%2], derive(seed, "warm", i)), -1
			}}
		},
	}
}

// freshPredict is predict-fresh's identity i: platforms alternate, the
// application is drawn by seed, and the size is unique per position.
func freshPredict(seed int64, salt string, i int) service.JobRequest {
	s := derive(seed, salt, i)
	w := suite[int(s%int64(len(suite)))]
	platform := platforms[i%2]
	offset := int(derive(seed, salt+"/offset", 0) % (1 << 20))
	return predictReq(platform, w.Name(), w.DefaultSizes()[0]+offset+i, s)
}

func predictFresh(seed int64) *workload {
	return &workload{
		name:     "predict-fresh",
		why:      "every request a new analytic predict: closed-form compute, so the job-level memo miss path (single flight, retain, LRU eviction) dominates; no gather or fit",
		seed:     seed,
		tailPct:  99.9,
		chunk:    128,
		opBudget: 100 * time.Millisecond,
		memMark:  15000,
		segments: 20,
		newTimed: func() *stream {
			return &stream{next: func(i int) (service.JobRequest, int) { return freshPredict(seed, "timed", i), -1 }}
		},
		newWarm: func() *stream {
			return &stream{limit: 500, next: func(i int) (service.JobRequest, int) { return freshPredict(seed, "warm", i), -1 }}
		},
	}
}
