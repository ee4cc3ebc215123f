// Package service wraps the experiment engine in a long-running
// HTTP/JSON daemon: additivity checks, model training and dataset
// builds become submittable jobs that run on the existing parallel
// engine backed by the content-addressed measurement cache, with
// submit/poll/result/abort endpoints plus health and stats probes.
//
// The service layer preserves the repository's determinism contract:
// a job's result payload is a pure function of its (kind, normalised
// parameters) — never of submission order, player concurrency, cache
// temperature or which daemon replica ran it. Duplicate jobs submitted
// concurrently collapse onto one measurement through the cache's
// single-flight; duplicate jobs submitted later are served from the
// cache — both with byte-identical payloads.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"additivity/internal/analytic"
	"additivity/internal/core"
	"additivity/internal/dataset"
	"additivity/internal/experiments"
	"additivity/internal/machine"
	"additivity/internal/memo"
	"additivity/internal/ml"
	"additivity/internal/platform"
	"additivity/internal/pmc"
	"additivity/internal/workload"
)

// JobKind names one of the service's job families.
type JobKind string

const (
	// KindCheck runs the two-stage additivity test for a PMC set
	// against a compound suite (the AdditivityChecker tool as a job).
	KindCheck JobKind = "check"
	// KindTrain runs the full SLOPE-PMC pipeline: additivity test,
	// selection, model training and evaluation.
	KindTrain JobKind = "train"
	// KindDataset builds a profiling dataset over a DGEMM size sweep.
	KindDataset JobKind = "dataset"
	// KindPredict answers an energy prediction for one application.
	// The analytic tier is the serving fast path: it answers
	// synchronously from the platform catalog's roofline parameters
	// with no gather at all. The trained tier falls back to the cached
	// measurement/training pipeline and predicts with its model.
	KindPredict JobKind = "predict"
)

// JobParams parameterises a job. Zero values take kind-specific
// defaults under Normalize; the normalised parameter set — not the
// submitted one — is the job's identity, so two submissions that
// normalise equal produce byte-identical results.
type JobParams struct {
	// Platform is "haswell" or "skylake" (default haswell).
	Platform string `json:"platform,omitempty"`
	// Seed is the experiment seed (default: the repository seed).
	Seed int64 `json:"seed,omitempty"`
	// PMCs are the candidate counter names; empty means the paper's
	// set for the platform (check, dataset) or the pipeline default
	// (train).
	PMCs []string `json:"pmcs,omitempty"`
	// Compounds sizes the compound-application suite (default 6; the
	// service default is smaller than the batch default because jobs
	// are latency-sensitive).
	Compounds int `json:"compounds,omitempty"`
	// Reps is the number of runs per sample mean (default 3).
	Reps int `json:"reps,omitempty"`
	// TolerancePct is the additivity tolerance in percent (default 5).
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
	// MaxPMCs is the train kind's online register budget (default 4).
	MaxPMCs int `json:"max_pmcs,omitempty"`
	// Model selects the train kind's family: lr (default), rf or nn.
	Model string `json:"model,omitempty"`
	// Workers bounds the job's engine concurrency (default 1: jobs
	// already run concurrently with each other; results are identical
	// for every worker count).
	Workers int `json:"workers,omitempty"`
	// SweepLo/SweepHi/SweepStep bound the dataset kind's DGEMM size
	// sweep (defaults 6500..8000 step 500).
	SweepLo   int `json:"sweep_lo,omitempty"`
	SweepHi   int `json:"sweep_hi,omitempty"`
	SweepStep int `json:"sweep_step,omitempty"`
	// Tier selects the predict kind's serving tier: "analytic"
	// (default) answers from catalog parameters; "trained" from the
	// cached pipeline's model.
	Tier string `json:"tier,omitempty"`
	// App names the predict kind's workload (default mkl-dgemm).
	App string `json:"app,omitempty"`
	// AppSize is the predict kind's problem size (default: the
	// workload's first default size).
	AppSize int `json:"app_size,omitempty"`
}

// JobRequest is the submit body: a kind plus its parameters.
type JobRequest struct {
	Kind   JobKind   `json:"kind"`
	Params JobParams `json:"params"`
}

// Normalize validates the request and fills kind-specific defaults in
// place. The normalised request is the job's full identity: Execute is
// a pure function of it (plus cache temperature, which never changes
// payload bytes).
func (r *JobRequest) Normalize() error {
	switch r.Kind {
	case KindCheck, KindTrain, KindDataset, KindPredict:
	case "":
		return fmt.Errorf("service: missing job kind (want %q, %q, %q or %q)", KindCheck, KindTrain, KindDataset, KindPredict)
	default:
		return fmt.Errorf("service: unknown job kind %q", r.Kind)
	}
	p := &r.Params
	if p.Platform == "" {
		p.Platform = "haswell"
	}
	if err := platform.CheckName(p.Platform); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if p.Seed == 0 {
		p.Seed = experiments.DefaultSeed
	}
	if p.Compounds < 0 || p.Reps < 0 || p.MaxPMCs < 0 || p.TolerancePct < 0 || p.Workers < 0 {
		return fmt.Errorf("service: negative job parameter")
	}
	if p.Compounds == 0 {
		p.Compounds = 6
	}
	if p.Reps == 0 {
		p.Reps = 3
	}
	if p.TolerancePct == 0 {
		p.TolerancePct = 5
	}
	if p.Workers == 0 {
		p.Workers = 1
	}
	switch r.Kind {
	case KindCheck, KindDataset:
		if len(p.PMCs) == 0 {
			if p.Platform == "haswell" {
				p.PMCs = append([]string{}, experiments.ClassAPMCs...)
			} else {
				p.PMCs = append(append([]string{}, experiments.PAPMCs...), experiments.PNAPMCs...)
			}
		}
	case KindTrain:
		if p.MaxPMCs == 0 {
			p.MaxPMCs = 4
		}
		if p.Model == "" {
			p.Model = "lr"
		}
		switch p.Model {
		case "lr", "rf", "nn":
		default:
			return fmt.Errorf("service: unknown model %q (want lr, rf or nn)", p.Model)
		}
	case KindPredict:
		if p.Tier == "" {
			p.Tier = "analytic"
		}
		switch p.Tier {
		case "analytic", "trained":
		default:
			return fmt.Errorf("service: unknown tier %q (want analytic or trained)", p.Tier)
		}
		if p.App == "" {
			p.App = "mkl-dgemm"
		}
		w, err := workload.ByName(p.App)
		if err != nil {
			return fmt.Errorf("service: %w", err)
		}
		if p.AppSize < 0 {
			return fmt.Errorf("service: negative app size")
		}
		if p.AppSize == 0 {
			p.AppSize = w.DefaultSizes()[0]
		}
		if p.Tier == "trained" {
			if p.MaxPMCs == 0 {
				p.MaxPMCs = 4
			}
			if p.Model == "" {
				p.Model = "lr"
			}
			switch p.Model {
			case "lr", "rf", "nn":
			default:
				return fmt.Errorf("service: unknown model %q (want lr, rf or nn)", p.Model)
			}
		}
	}
	if r.Kind == KindDataset {
		if p.SweepLo < 0 || p.SweepHi < 0 || p.SweepStep < 0 {
			return fmt.Errorf("service: negative sweep bound")
		}
		if p.SweepLo == 0 {
			p.SweepLo = 6500
		}
		if p.SweepHi == 0 {
			p.SweepHi = 8000
		}
		if p.SweepStep == 0 {
			p.SweepStep = 500
		}
		if p.SweepHi < p.SweepLo {
			return fmt.Errorf("service: sweep_hi %d below sweep_lo %d", p.SweepHi, p.SweepLo)
		}
	}
	return nil
}

// CheckResult is the canonical payload of a check job.
type CheckResult struct {
	Platform string         `json:"platform"`
	Verdicts []core.Verdict `json:"verdicts"`
	// Additive counts verdicts that passed both stages, so clients can
	// read the headline without walking the verdict list.
	Additive int `json:"additive"`
}

// TrainResult is the canonical payload of a train job. Model is the
// trained regressor in the ml.SaveModel wire format.
type TrainResult struct {
	Platform string          `json:"platform"`
	Selected []string        `json:"selected"`
	Train    ml.ErrorStats   `json:"train"`
	Test     ml.ErrorStats   `json:"test"`
	Model    json.RawMessage `json:"model"`
}

// DatasetResult is the canonical payload of a dataset job.
type DatasetResult struct {
	Platform string           `json:"platform"`
	Dataset  *dataset.Dataset `json:"dataset"`
}

// PredictResult is the canonical payload of a predict job. Both tiers
// fill DynamicJoules; the analytic tier also reports its roofline
// runtime, static-energy split and bound classification, while the
// trained tier reports the online PMC set its model predicts from.
type PredictResult struct {
	Platform      string  `json:"platform"`
	Tier          string  `json:"tier"`
	App           string  `json:"app"`
	DynamicJoules float64 `json:"dynamic_joules"`
	// Analytic-tier extras.
	Seconds      float64 `json:"seconds,omitempty"`
	StaticJoules float64 `json:"static_joules,omitempty"`
	MemoryBound  bool    `json:"memory_bound,omitempty"`
	// Trained-tier extras.
	Selected []string `json:"selected,omitempty"`
}

// hooks carries per-job observation callbacks into execute.
type hooks struct {
	// progress, when set, receives gather-fan-out progress ticks.
	progress func(done, total int)
}

// Execute runs one normalised job request to completion and returns
// its canonical result payload. The payload depends only on the
// normalised request: serving it over HTTP, from the cache, or from a
// direct engine run yields the same bytes. The returned CheckReport
// (nil for dataset jobs) carries the resilience and cache accounting
// the service aggregates into /statsz.
func Execute(ctx context.Context, cache *memo.Cache, req JobRequest) ([]byte, *core.CheckReport, error) {
	if err := req.Normalize(); err != nil {
		return nil, nil, err
	}
	return execute(ctx, cache, req, hooks{})
}

// jobKeySchema versions the job-level cache key schema. The gather
// units inside a job have their own finer-grained keys
// (additivity-gather/v1); this layer sits above them so duplicate jobs
// dedup as a whole: a concurrent duplicate merges onto the in-flight
// twin (one engine run, shared payload) and a later duplicate is a
// single cache hit instead of a re-walk of every unit.
const jobKeySchema = "additivityd-job/v1"

// JobKey digests a request's canonical normalised JSON — the job-level
// cache identity. Execute is a pure function of the normalised request,
// so the canonical JSON captures everything the payload depends on.
func JobKey(req JobRequest) (memo.Key, error) {
	if err := req.Normalize(); err != nil {
		return memo.Key{}, err
	}
	return normalizedKey(&req)
}

// executeKeyed resolves a whole normalised job, keyed by its job key,
// through the cache's single-flight: concurrent duplicates block on the
// leader and share its payload; later duplicates are served without
// touching the engine. Payloads produced on degraded data are returned
// but never retained. The returned report is nil when the payload came
// from the cache — a served payload implies no fresh faults to account.
func executeKeyed(ctx context.Context, cache *memo.Cache, req JobRequest, key memo.Key, h hooks) ([]byte, *core.CheckReport, error) {
	for {
		var report *core.CheckReport
		payload, _, err := cache.GetOrCompute(key, func() ([]byte, bool, error) {
			p, r, err := execute(ctx, cache, req, h)
			if err != nil {
				return nil, false, err
			}
			report = r
			return p, r == nil || !r.Degraded(), nil
		})
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The flight this job merged onto died with its leader's
			// abort or deadline. This job's own context is still live,
			// so try again: it becomes the new leader (or hits the cache).
			continue
		}
		return payload, report, err
	}
}

// execute runs a normalised request on the engine.
func execute(ctx context.Context, cache *memo.Cache, req JobRequest, h hooks) ([]byte, *core.CheckReport, error) {
	switch req.Kind {
	case KindCheck:
		return executeCheck(ctx, cache, req.Params, h)
	case KindTrain:
		return executeTrain(ctx, cache, req.Params)
	case KindDataset:
		return executeDataset(ctx, cache, req.Params)
	case KindPredict:
		return executePredict(ctx, cache, req.Params)
	}
	return nil, nil, fmt.Errorf("service: unknown job kind %q", req.Kind)
}

// checkSuite builds the platform's default compound suite for an
// additivity check — the same protocol the additivity-checker CLI uses.
func checkSuite(spec *platform.Spec, compounds int, seed int64) []workload.CompoundApp {
	var base []workload.App
	if spec.Name == "haswell" {
		base = workload.BaseApps(workload.DiverseSuite())
	} else {
		base = append(base, workload.SizeSweep(workload.DGEMM(), 6500, 20000, 562)...)
		base = append(base, workload.SizeSweep(workload.FFT(), 22400, 29000, 275)...)
	}
	return workload.RandomCompounds(base, compounds, seed)
}

func findEvents(spec *platform.Spec, names []string) ([]platform.Event, error) {
	events := make([]platform.Event, 0, len(names))
	for _, n := range names {
		e, err := platform.FindEvent(spec, n)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return events, nil
}

func executeCheck(ctx context.Context, cache *memo.Cache, p JobParams, h hooks) ([]byte, *core.CheckReport, error) {
	spec, err := platform.ByName(p.Platform)
	if err != nil {
		return nil, nil, err
	}
	events, err := findEvents(spec, p.PMCs)
	if err != nil {
		return nil, nil, err
	}
	m := machine.New(spec, p.Seed)
	col := pmc.NewCollector(m, p.Seed)
	checker := core.NewChecker(col, core.Config{
		ToleranceFrac: p.TolerancePct / 100, Reps: p.Reps, ReproCVMax: 0.20, Workers: p.Workers,
	})
	checker.Cache = cache
	checker.Progress = h.progress
	verdicts, report, err := checker.CheckWithReportContext(ctx, events, checkSuite(spec, p.Compounds, p.Seed))
	if err != nil {
		return nil, nil, err
	}
	additive := 0
	for _, v := range verdicts {
		if v.Additive {
			additive++
		}
	}
	payload, err := json.Marshal(CheckResult{Platform: spec.Name, Verdicts: verdicts, Additive: additive})
	return payload, report, err
}

func executeTrain(ctx context.Context, cache *memo.Cache, p JobParams) ([]byte, *core.CheckReport, error) {
	res, err := experiments.RunPipelineContext(ctx, experiments.PipelineConfig{
		Platform:     p.Platform,
		Seed:         p.Seed,
		Candidates:   p.PMCs,
		MaxPMCs:      p.MaxPMCs,
		TolerancePct: p.TolerancePct,
		Model:        p.Model,
		Compounds:    p.Compounds,
		Workers:      p.Workers,
		Cache:        cache,
	})
	if err != nil {
		return nil, nil, err
	}
	var model bytes.Buffer
	if err := ml.SaveModel(&model, res.Model); err != nil {
		return nil, nil, err
	}
	payload, err := json.Marshal(TrainResult{
		Platform: res.Platform,
		Selected: res.Selected,
		Train:    res.Train,
		Test:     res.Test,
		Model:    json.RawMessage(bytes.TrimSpace(model.Bytes())),
	})
	return payload, res.Report, err
}

func executeDataset(ctx context.Context, cache *memo.Cache, p JobParams) ([]byte, *core.CheckReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	spec, err := platform.ByName(p.Platform)
	if err != nil {
		return nil, nil, err
	}
	events, err := findEvents(spec, p.PMCs)
	if err != nil {
		return nil, nil, err
	}
	m := machine.New(spec, p.Seed)
	col := pmc.NewCollector(m, p.Seed)
	builder := dataset.NewBuilder(m, col, events)
	builder.Reps = p.Reps
	bases := workload.SizeSweep(workload.DGEMM(), p.SweepLo, p.SweepHi, p.SweepStep)
	// The whole sweep is one sequential cache unit; the label carries
	// the sweep identity so distinct sweeps can never share an entry.
	label := fmt.Sprintf("service/dataset/%s/%d-%d-%d", spec.Name, p.SweepLo, p.SweepHi, p.SweepStep)
	ds, _, err := experiments.BuildDatasetsCached(cache, builder, label, []experiments.DatasetStage{{Bases: bases}})
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	payload, err := json.Marshal(DatasetResult{Platform: spec.Name, Dataset: ds[0]})
	return payload, nil, err
}

// executePredict answers one application's energy prediction. The
// analytic tier is pure arithmetic over the platform catalog — no
// machine run, no gather, no cache dependency — which is what lets the
// server answer it synchronously on the submit path. The trained tier
// runs (or serves from cache) the full SLOPE-PMC pipeline, measures the
// app's online counters on a collector forked deterministically from
// the app's name, and predicts with the trained model; its payload is a
// pure function of the normalised request like every other kind.
func executePredict(ctx context.Context, cache *memo.Cache, p JobParams) ([]byte, *core.CheckReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	spec, err := platform.ByName(p.Platform)
	if err != nil {
		return nil, nil, err
	}
	w, err := workload.ByName(p.App)
	if err != nil {
		return nil, nil, err
	}
	app := workload.App{Workload: w, Size: p.AppSize}
	if p.Tier == "analytic" {
		pred := analytic.New(spec).PredictApp(app)
		payload, err := json.Marshal(PredictResult{
			Platform:      spec.Name,
			Tier:          p.Tier,
			App:           app.Name(),
			DynamicJoules: pred.DynamicJoules,
			Seconds:       pred.Seconds,
			StaticJoules:  pred.StaticJoules,
			MemoryBound:   pred.MemoryBound,
		})
		return payload, nil, err
	}
	res, err := experiments.RunPipelineContext(ctx, experiments.PipelineConfig{
		Platform:     p.Platform,
		Seed:         p.Seed,
		Candidates:   p.PMCs,
		MaxPMCs:      p.MaxPMCs,
		TolerancePct: p.TolerancePct,
		Model:        p.Model,
		Compounds:    p.Compounds,
		Workers:      p.Workers,
		Cache:        cache,
	})
	if err != nil {
		return nil, nil, err
	}
	events, err := findEvents(spec, res.Selected)
	if err != nil {
		return nil, nil, err
	}
	m := machine.New(spec, p.Seed)
	col := pmc.NewCollector(m, p.Seed).Fork("service/predict/" + app.Name())
	counts, _, err := col.CollectMean(events, p.Reps, app)
	if err != nil {
		return nil, nil, err
	}
	x := make([]float64, len(events))
	for i, ev := range events {
		x[i] = counts[ev.Name]
	}
	yhat, err := res.Model.Predict(x)
	if err != nil {
		return nil, nil, err
	}
	payload, err := json.Marshal(PredictResult{
		Platform:      spec.Name,
		Tier:          p.Tier,
		App:           app.Name(),
		DynamicJoules: yhat,
		Selected:      res.Selected,
	})
	return payload, res.Report, err
}

// CanonicalRequest renders a normalised request as canonical JSON — the
// stable identity string under which duplicate jobs are recognised in
// traces and reports. Fields marshal in struct order and the PMC list
// keeps its submitted order (PMC order is part of the identity: it is
// the collection order).
func CanonicalRequest(req JobRequest) (string, error) {
	if err := req.Normalize(); err != nil {
		return "", err
	}
	b, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// SortedKinds returns the service's job kinds in stable order (for
// docs and deterministic enumeration in tests).
func SortedKinds() []JobKind {
	kinds := []JobKind{KindCheck, KindDataset, KindPredict, KindTrain}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}
