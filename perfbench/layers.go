package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"additivity/internal/analytic"
	"additivity/internal/core"
	"additivity/internal/dataset"
	"additivity/internal/experiments"
	"additivity/internal/machine"
	"additivity/internal/memo"
	"additivity/internal/ml"
	"additivity/internal/platform"
	"additivity/internal/pmc"
	"additivity/internal/service"
	apps "additivity/internal/workload"
)

// layerInputs are the generated requests the in-process layer
// measurements run on: the workload's own identities where it has
// that kind, otherwise cold-compute's (for checks and trains) or
// predict-fresh's (for predicts) under the same seed.
type layerInputs struct {
	check, train, predict service.JobRequest
}

func inputsFor(w *workload) layerInputs {
	var in layerInputs
	for _, r := range w.pool {
		switch {
		case r.Kind == service.KindCheck && in.check.Kind == "":
			in.check = r
		case r.Kind == service.KindPredict && in.predict.Kind == "":
			in.predict = r
		}
	}
	if in.predict.Kind == "" {
		in.predict = freshPredict(w.seed, "timed", 0)
	}
	for i := 0; in.check.Kind == "" || in.train.Kind == ""; i++ {
		r := coldIdentity(w.seed, "timed", i)
		switch {
		case r.Kind == service.KindCheck && in.check.Kind == "":
			in.check = r
		case r.Kind == service.KindTrain && r.Params.Model == "lr" && r.Params.Platform == "haswell" &&
			in.train.Kind == "" && execReference(r).err == "":
			// Skipped when it fails by design: the pipeline measurements
			// need a train that selects PMCs.
			in.train = r
		}
	}
	return in
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// perCall times batches of n calls of f and returns the median
// per-call duration in the given unit.
func perCall(batches, n int, unit time.Duration, f func(i int)) float64 {
	xs := make([]float64, batches)
	for b := range xs {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(b*n + i)
		}
		xs[b] = float64(time.Since(start)) / float64(unit) / float64(n)
	}
	return median(xs)
}

// msOf runs f reps times and returns the median wall time in ms.
func msOf(reps int, f func() error) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return median(xs), nil
}

// discard is a reusable ResponseWriter for in-process handler calls.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// rewind is a request body that can be replayed without allocating.
type rewind struct{ bytes.Reader }

func (*rewind) Close() error { return nil }

// measureLayers calls each layer's public functions in-process on the
// workload's inputs and returns the per-layer metrics that do not come
// from the daemon. Each measurement runs inside a span.
func measureLayers(w *workload, scratch string, rec *recorder) (map[string]float64, error) {
	in := inputsFor(w)
	out := map[string]float64{}
	steps := []struct {
		name string
		f    func(map[string]float64) error
	}{
		{"layer.service", func(m map[string]float64) error { return submitHit(in, m) }},
		{"layer.memo.lookup", func(m map[string]float64) error { return memoLookup(in, m) }},
		{"layer.memo.store", func(m map[string]float64) error {
			return memoStore(in, filepath.Join(scratch, "layers-memo"), w.seed, m)
		}},
		{"layer.core", func(m map[string]float64) error { return coreCheck(in.check, m) }},
		{"layer.pmc", func(m map[string]float64) error { return pmcMachine(in.check, m) }},
		{"layer.experiments", func(m map[string]float64) error { return pipelineAndFits(in.train, m) }},
		{"layer.analytic", func(m map[string]float64) error { return analyticPredict(in.predict, m) }},
	}
	for _, st := range steps {
		var err error
		rec.timed(st.name, func() { err = st.f(out) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return out, nil
}

// submitHit measures the warm submit through the in-process handler:
// a job-cache hit answered on the fast path, alternating the check and
// predict inputs the way warm-serve's mix does.
func submitHit(in layerInputs, m map[string]float64) error {
	cache, err := memo.New(memo.Options{})
	if err != nil {
		return err
	}
	srv := service.NewServer(service.Options{Cache: cache})
	var bodies [2][]byte
	for i, req := range []service.JobRequest{in.check, in.predict} {
		if bodies[i], err = json.Marshal(req); err != nil {
			return err
		}
	}
	body := &rewind{}
	req, err := http.NewRequest(http.MethodPost, "/v1/jobs?wait=30s&result=1", body)
	if err != nil {
		return err
	}
	w := &discard{h: http.Header{}}
	call := func(i int) {
		body.Reset(bodies[i%2])
		clear(w.h)
		srv.ServeHTTP(w, req)
	}
	call(0) // the two cold submits fill the job cache
	call(1)
	if st := srv.Stats(); st.Jobs.Done != 2 {
		return fmt.Errorf("warm-up submits settled %d of 2 jobs", st.Jobs.Done)
	}
	const n = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		call(i)
	}
	runtime.ReadMemStats(&after)
	m["service.submit_hit_allocs"] = float64(after.Mallocs-before.Mallocs) / n
	m["service.submit_hit_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	m["service.submit_hit_us"] = perCall(20, 200, time.Microsecond, call)
	return nil
}

// memoLookup measures Cache.Lookup on resident job keys.
func memoLookup(in layerInputs, m map[string]float64) error {
	cache, err := memo.New(memo.Options{})
	if err != nil {
		return err
	}
	var keys [2]memo.Key
	for i, req := range []service.JobRequest{in.check, in.predict} {
		if keys[i], err = service.JobKey(req); err != nil {
			return err
		}
		if _, _, err := cache.GetOrCompute(keys[i], func() ([]byte, bool, error) {
			return []byte(`{}`), true, nil
		}); err != nil {
			return err
		}
	}
	var miss bool
	m["memo.lookup_hit_ns"] = perCall(20, 20000, time.Nanosecond, func(i int) {
		if _, ok := cache.Lookup(keys[i%2]); !ok {
			miss = true
		}
	})
	if miss {
		return fmt.Errorf("resident key missed")
	}
	return nil
}

// memoStore measures the memo write path on a disk-backed cache in the
// checkout: a GetOrCompute miss (lease, store with its fsyncs,
// retain), and the disk store's Store and Load alone. The payload is
// the predict input's reference payload.
func memoStore(in layerInputs, dir string, seed int64, m map[string]float64) error {
	ref := execReference(in.predict)
	if ref.err != "" {
		return fmt.Errorf("predict reference failed: %s", ref.err)
	}
	cache, err := memo.New(memo.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		return err
	}
	const n = 200
	key := func(tag string, i int) memo.Key {
		return memo.KeyOf(fmt.Sprintf("perfbench/%s/%d/%d", tag, seed, i))
	}
	var failed error
	m["memo.miss_store_us"] = perCall(10, n/10, time.Microsecond, func(i int) {
		_, out, err := cache.GetOrCompute(key("miss", i), func() ([]byte, bool, error) { return ref.payload, true, nil })
		if err != nil || out != memo.Miss {
			failed = fmt.Errorf("GetOrCompute on a fresh key: outcome %v, err %v", out, err)
		}
	})
	ds, err := memo.OpenDiskStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	m["memo.disk_store_us"] = perCall(10, n/10, time.Microsecond, func(i int) {
		if _, err := ds.Store(key("store", i), ref.payload); err != nil {
			failed = err
		}
	})
	m["memo.disk_load_us"] = perCall(10, n/10, time.Microsecond, func(i int) {
		p, ok, err := ds.Load(key("store", i))
		if err != nil || !ok || !bytes.Equal(p, ref.payload) {
			failed = fmt.Errorf("load of a stored entry: ok %v, err %v", ok, err)
		}
	})
	return failed
}

// checkSetup rebuilds what the service's check job hands the engine:
// the platform's events and its compound suite.
func checkSetup(req service.JobRequest) (*platform.Spec, []platform.Event, []apps.CompoundApp, error) {
	p := req.Params
	spec, err := platform.ByName(p.Platform)
	if err != nil {
		return nil, nil, nil, err
	}
	events := make([]platform.Event, 0, len(p.PMCs))
	for _, name := range p.PMCs {
		e, err := platform.FindEvent(spec, name)
		if err != nil {
			return nil, nil, nil, err
		}
		events = append(events, e)
	}
	var base []apps.App
	if spec.Name == "haswell" {
		base = apps.BaseApps(apps.DiverseSuite())
	} else {
		base = append(base, apps.SizeSweep(apps.DGEMM(), 6500, 20000, 562)...)
		base = append(base, apps.SizeSweep(apps.FFT(), 22400, 29000, 275)...)
	}
	return spec, events, apps.RandomCompounds(base, p.Compounds, p.Seed), nil
}

// coreCheck times the additivity check cold (every gather unit
// measured) and unit-warm (every unit served from the cache the cold
// check filled), and reports the gather plan's dedup.
func coreCheck(req service.JobRequest, m map[string]float64) error {
	spec, events, compounds, err := checkSetup(req)
	if err != nil {
		return err
	}
	p := req.Params
	checker := func(cache *memo.Cache) *core.Checker {
		col := pmc.NewCollector(machine.New(spec, p.Seed), p.Seed)
		ch := core.NewChecker(col, core.Config{
			ToleranceFrac: p.TolerancePct / 100, Reps: p.Reps, ReproCVMax: 0.20, Workers: p.Workers,
		})
		ch.Cache = cache
		return ch
	}
	var cache *memo.Cache
	var report *core.CheckReport
	cold, err := msOf(3, func() error {
		c, err := memo.New(memo.Options{})
		if err != nil {
			return err
		}
		cache = c
		_, report, err = checker(cache).CheckWithReportContext(context.Background(), events, compounds)
		return err
	})
	if err != nil {
		return err
	}
	warm, err := msOf(3, func() error {
		_, r, err := checker(cache).CheckWithReportContext(context.Background(), events, compounds)
		if err == nil && r.CacheMisses != 0 {
			err = fmt.Errorf("unit-warm check measured %d units", r.CacheMisses)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["core.check_cold_ms"] = cold
	m["core.check_unitwarm_ms"] = warm
	m["core.units_per_check"] = float64(report.UniqueUnits)
	m["core.dedup_saved_ratio"] = 1 - float64(report.UniqueUnits)/float64(report.NaiveUnits)
	return nil
}

// pmcMachine times one PMC collection (the check's events, its reps)
// and one simulated machine run, on the check's first compound.
func pmcMachine(req service.JobRequest, m map[string]float64) error {
	spec, events, compounds, err := checkSetup(req)
	if err != nil {
		return err
	}
	mach := machine.New(spec, req.Params.Seed)
	col := pmc.NewCollector(mach, req.Params.Seed)
	parts := compounds[0].Parts
	var failed error
	m["pmc.collect_mean_us"] = perCall(20, 20, time.Microsecond, func(int) {
		if _, _, err := col.CollectMean(events, req.Params.Reps, parts...); err != nil {
			failed = err
		}
	})
	m["machine.run_us"] = perCall(20, 100, time.Microsecond, func(int) { mach.Run(parts...) })
	return failed
}

// pipelineAndFits times the SLOPE-PMC pipeline cold and unit-warm,
// then each model family's fit on the pipeline's training matrix.
func pipelineAndFits(req service.JobRequest, m map[string]float64) error {
	p := req.Params
	cfg := experiments.PipelineConfig{
		Platform: p.Platform, Seed: p.Seed, Candidates: p.PMCs, MaxPMCs: p.MaxPMCs,
		TolerancePct: p.TolerancePct, Model: p.Model, Compounds: p.Compounds, Workers: p.Workers,
	}
	var res *experiments.PipelineResult
	cold, err := msOf(3, func() error {
		c, err := memo.New(memo.Options{})
		if err != nil {
			return err
		}
		cfg.Cache = c
		res, err = experiments.RunPipelineContext(context.Background(), cfg)
		return err
	})
	if err != nil {
		return err
	}
	warm, err := msOf(3, func() error {
		_, err := experiments.RunPipelineContext(context.Background(), cfg)
		return err
	})
	if err != nil {
		return err
	}
	m["experiments.pipeline_cold_ms"] = cold
	m["experiments.pipeline_unitwarm_ms"] = warm

	// A training matrix of the pipeline's shape: the selected PMCs over
	// the base applications, less the held-out fifth.
	spec, err := platform.ByName(p.Platform)
	if err != nil {
		return err
	}
	var events []platform.Event
	for _, name := range res.Selected {
		e, err := platform.FindEvent(spec, name)
		if err != nil {
			return err
		}
		events = append(events, e)
	}
	mach := machine.New(spec, p.Seed)
	ds, err := dataset.NewBuilder(mach, pmc.NewCollector(mach, p.Seed), events).
		Build(apps.BaseApps(apps.DiverseSuite()), nil)
	if err != nil {
		return err
	}
	train, _, err := ds.Split(ds.Len()/5, p.Seed)
	if err != nil {
		return err
	}
	X, y, err := train.Matrix(res.Selected)
	if err != nil {
		return err
	}
	models := map[string]func() ml.Regressor{
		"ml.fit_lr_ms": func() ml.Regressor { return ml.NewLinearRegression() },
		"ml.fit_rf_ms": func() ml.Regressor {
			rf := ml.NewRandomForest(p.Seed + 40)
			rf.Opts.Workers = 1
			return rf
		},
		"ml.fit_nn_ms": func() ml.Regressor { return ml.NewNeuralNetwork(p.Seed + 41) },
	}
	for name, newModel := range models {
		if m[name], err = msOf(3, func() error { return newModel().Fit(X, y) }); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// analyticPredict times the closed-form predict on the predict input.
func analyticPredict(req service.JobRequest, m map[string]float64) error {
	spec, err := platform.ByName(req.Params.Platform)
	if err != nil {
		return err
	}
	w, err := apps.ByName(req.Params.App)
	if err != nil {
		return err
	}
	model := analytic.New(spec)
	app := apps.App{Workload: w, Size: req.Params.AppSize}
	var sink float64
	m["analytic.predict_ns"] = perCall(20, 5000, time.Nanosecond, func(int) {
		sink += model.PredictApp(app).DynamicJoules
	})
	if sink <= 0 {
		return fmt.Errorf("analytic predictions summed to %v", sink)
	}
	return nil
}
