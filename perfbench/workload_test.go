package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"additivity/internal/service"
)

// shape summarises a request sequence: the share of each kind and
// platform (and, for trains, model), and its distinct identities.
type shape struct {
	mix map[string]float64
	ids map[string]bool
}

func shapeOf(t *testing.T, reqs []service.JobRequest) shape {
	t.Helper()
	s := shape{mix: map[string]float64{}, ids: map[string]bool{}}
	n := float64(len(reqs))
	for _, r := range reqs {
		p := r.Params
		class := fmt.Sprintf("%s/%s", r.Kind, p.Platform)
		if r.Kind == service.KindTrain {
			class += "/" + p.Model
		}
		s.mix[class] += 1 / n
		canon, err := service.CanonicalRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		s.ids[canon] = true
	}
	return s
}

func timedRequests(t *testing.T, name string, seed int64, n int) []service.JobRequest {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	reqs, _ := w.newTimed().take(n)
	return reqs
}

// TestSeedsChangeIdentitiesNotShape holds the seeding contract: two
// seeds ask for different identities in a mix of the same shape.
func TestSeedsChangeIdentitiesNotShape(t *testing.T) {
	const n = 2000 // a whole number of cold-compute blocks
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := shapeOf(t, timedRequests(t, name, 1, n))
			b := shapeOf(t, timedRequests(t, name, 2, n))
			shared := 0
			for id := range a.ids {
				if b.ids[id] {
					shared++
				}
			}
			if shared != 0 {
				t.Errorf("seeds 1 and 2 share %d of %d identities", shared, len(a.ids))
			}
			// The fresh workloads are exact by construction; warm-serve's
			// Zipf draws may differ by sampling noise only.
			tol := 0.0
			if name == "warm-serve" {
				tol = 0.03
			}
			if len(a.mix) != len(b.mix) {
				t.Fatalf("mix classes differ: %v vs %v", a.mix, b.mix)
			}
			for class, share := range a.mix {
				if math.Abs(share-b.mix[class]) > tol+1e-9 {
					t.Errorf("%s share %.4f under seed 1, %.4f under seed 2", class, share, b.mix[class])
				}
			}
			if name == "warm-serve" {
				// 16 pool identities; Zipf draws may leave a rare one out.
				for _, s := range []shape{a, b} {
					if len(s.ids) > 16 || len(s.ids) < 14 {
						t.Errorf("%d distinct identities, want 14 to 16", len(s.ids))
					}
				}
				return
			}
			if len(a.ids) != n || len(b.ids) != n {
				t.Errorf("%d and %d distinct identities under seeds 1 and 2, want %d", len(a.ids), len(b.ids), n)
			}
		})
	}
}

// TestSameSeedSameRequests: generation is a pure function of the seed.
func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames {
		a, b := timedRequests(t, name, 7, 300), timedRequests(t, name, 7, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams from seed 7 differ", name)
		}
	}
}

// TestCheckerAcceptsByDesignFailure: a job that fails with its
// reference's error is correct and not counted as failed; any other
// error is a mismatch.
func TestCheckerAcceptsByDesignFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine")
	}
	// A 1% additivity tolerance usually leaves no Haswell PMC to select.
	var req service.JobRequest
	var ref reference
	for i := 0; i < 20 && ref.err == ""; i++ {
		req = normalized(service.JobRequest{Kind: service.KindTrain, Params: service.JobParams{
			Platform: "haswell", Seed: derive(1, "strict", i), Model: "lr", TolerancePct: 1,
		}})
		ref = execReference(req)
	}
	if want := "core: no PMC has additivity error <= 1.00%"; ref.err != want {
		t.Fatalf("strict train failed with %q, want %q", ref.err, want)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(nil)
	if got := chk.resolve([]failure{{req: body, msg: ref.err}}); got != 1 || chk.mismatches.Load() != 0 {
		t.Errorf("by-design failure: %d confirmed, %d mismatches; want 1 and 0", got, chk.mismatches.Load())
	}
	chk = newChecker(nil)
	if got := chk.resolve([]failure{{req: body, msg: "some other error"}}); got != 0 || chk.mismatches.Load() != 1 {
		t.Errorf("wrong error: %d confirmed, %d mismatches; want 0 and 1", got, chk.mismatches.Load())
	}
}

// benchmarkFile is the part of BENCHMARK.json this package defines.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, layers.json and the
// workloads in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, bw := range bf.Workloads {
		w, err := newWorkload(workloadNames[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if bw.Name != w.name || bw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), perfbench %q (%q)", i, bw.Name, bw.Why, w.name, w.why)
		}
	}
	var e2e []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	want := []string{"throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb", "daemon_cpu_ms_per_op"}
	if !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end metrics %v, the run prints %v", e2e, want)
	}
	var layers []layerMeta
	if err := json.Unmarshal(layersJSON, &layers); err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(bf.PerLayer) {
		t.Fatalf("layers.json has %d metrics, BENCHMARK.json per_layer %d", len(layers), len(bf.PerLayer))
	}
	for i, l := range layers {
		p := bf.PerLayer[i]
		if p.Name != l.Name || p.Unit != l.Unit || p.Better != l.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, layers.json %s %s %s", i, p, l.Name, l.Unit, l.Better)
		}
		if l.Boundary == "" || l.Moves == "" || l.On == "" {
			t.Errorf("layers.json %s lacks its boundary, moves or on", l.Name)
		}
	}
}
